"""Reidemeister-Schreier homology of triangle-group kernels, and extensions.

Given the presentation <x, y | x^p, y^q, (xy)^r> and an epimorphism onto a
finite group G, the kernel's coset space is G itself (the regular action),
so no coset enumeration is needed.  A BFS spanning tree of the Cayley
graph, built one level at a time, yields Schreier generators; words are
rows of move codes, rewritten many at a time in lockstep.  A relator
w^k rewritten from the cosets of one cycle of right multiplication by w
gives one relation mod ell; those of x^p and y^q are multiples of disjoint
indicator vectors and are solved in closed form, so only the (xy)^r
relations reach the sparse RREF, which leaves the kernel's mod-ell
homology as a G-module.  Invariant submodules then produce
extension quotients via an explicit 2-cocycle, read off the same tree one
level at a time, which is how the genus-17 Hurwitz groups are built from
the Klein-quartic kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .group import (DEFAULT_CAP, CapExceededError, FinGroup, first_new,
                    group_from_rule, orbit_minima)
from .fields import Fq, is_prime, to_digits

# letters: (generator id 0 for x / 1 for y, exponent sign)
X, Y = 0, 1
# the letters as move codes x, x^-1, y, y^-1; PAD reads nothing and stays put
PAD = 4
SIGN = np.array([1, -1, 1, -1, 0])
INVERSE = np.array([1, 0, 3, 2, PAD], dtype=np.int8)
COCYCLE_SAMPLES = 40  # triples (g, h, k) on which `_verify_cocycle` checks the table


def _inverse_words(words):
    """The inverses of PAD-filled rows of move codes (their PADs come first)."""
    return INVERSE[words[:, ::-1]]


@dataclass
class SchreierData:
    """Coset table, spanning tree and Schreier generators for ker(phi).

    Cosets are identified with elements of G (regular action); the tree is
    BFS with move order (x, x^-1, y, y^-1).  Column j of the relation space
    corresponds to the j-th nontrivial Schreier generator (u, g), the edge
    edges[j] = 2 u + g: the word sigma(u) * g * sigma(u*g)^-1.
    """
    group: FinGroup
    type: tuple
    gen_images: tuple       # (index of phi(x), index of phi(y)) in G
    levels: list            # per BFS level: (cosets, parents, moves to them)
    letters: np.ndarray     # letters[coset]: sigma(coset) as moves, PAD-filled
    next_coset: np.ndarray  # next_coset[m, u]: where move m (or PAD) leads from u
    edge_column: np.ndarray  # [m, u]: the column move m reads at u, or num_schreier
    edges: np.ndarray       # edges[j] = 2 u + g for column j, in increasing order

    @property
    def num_schreier(self) -> int:
        return len(self.edges)

    def rewrite_words(self, words, weights):
        """The images of words traced in lockstep from the identity coset.

        words is an array of PAD-filled rows of move codes; weights has a
        row per Schreier column and a last, zero row for the tree edges.
        Returns, for each word, the int64 sum of weights[j] with the sign of
        each letter that reads column j, and the coset the word ends at.
        """
        words = np.asarray(words, dtype=np.intp)
        n = self.group.order
        step, read = self.next_coset.ravel(), self.edge_column.ravel()
        image = np.zeros((len(words), weights.shape[1]), dtype=np.int64)
        u = np.zeros(len(words), dtype=np.intp)
        for m in words.T:
            at = m * n + u
            image += SIGN[m][:, None] * weights[read[at]]
            u = step[at]
        return image, u

    def relator_words(self):
        """The relators as letters.  No library path calls it; kept because
        `perfbench/spans.py` counts relation rows from it."""
        p, q, r = self.type
        return [[(X, 1)] * p, [(Y, 1)] * q, [(X, 1), (Y, 1)] * r]


def schreier_data(type_, G: FinGroup, gx: int, gy: int) -> SchreierData:
    """Schreier data for the kernel of x -> gx, y -> gy on the triangle type.

    The BFS runs one level at a time: the moves (x, x^-1, y, y^-1) from the
    last level's cosets, read in the order of the coset and then of the
    move, reach each new coset first from its parent in the one-at-a-time
    BFS.  The tree spans all |G| cosets exactly when gx, gy generate G.
    """
    n = G.order
    targets = np.array([G.right_mult_table(g)
                        for g in (gx, G.inv(gx), gy, G.inv(gy))])
    found = np.zeros(n, dtype=bool)
    found[0] = True
    tree = np.zeros((n, 2), dtype=bool)  # (coset, gen) edges in the tree
    level, levels = np.zeros(1, dtype=np.intp), []
    while True:
        reach = targets[:, level].T.ravel()
        step = first_new(reach, found)
        if not len(step):
            break
        src, move = level[step // 4], step % 4
        level = reach[step]
        found[level] = True
        # the edge of u -> u*g is (u, g); of u -> u*g^-1 = v, it is (v, g)
        tree[np.where(move % 2, level, src), move // 2] = True
        levels.append((level, src, move))
    if not found.all():
        raise ValueError("images do not generate the group")
    letters = np.full((n, len(levels)), PAD, dtype=np.int8)
    for depth, (level, src, move) in enumerate(levels):
        letters[level] = letters[src]
        letters[level, depth] = move
    cols = np.flatnonzero(~tree.ravel())
    label = np.full(2 * n, len(cols))
    label[cols] = np.arange(len(cols))
    label = label.reshape(n, 2)
    # a letter g at u reads (u, g); g^-1 at u reads (u*g^-1, g)
    edge_column = np.vstack([label[:, X], label[targets[1], X], label[:, Y],
                             label[targets[3], Y], np.full(n, len(cols))])
    return SchreierData(G, tuple(type_), (gx, gy), levels, letters,
                        np.vstack([targets, np.arange(n)]), edge_column, cols)


# -- linear algebra over F_ell ------------------------------------------------

def rref_mod(A, ell, ncols=None):
    """Reduced row echelon form mod ell; returns (R, pivot columns).

    A is a matrix, or, given ncols, a list of sparse rows {column: value},
    and R comes back in the same form.  Sparse Gauss-Jordan: in column order,
    the sparsest unused row using the column is the pivot, and an index from
    each column to the rows using it finds the other rows to clear.
    """
    dense = ncols is None
    if dense:
        ncols = np.shape(A)[1]
        A = [dict(enumerate(r)) for r in np.asarray(A, dtype=np.int64).tolist()]
    rows = [{c: v % ell for c, v in r.items() if v % ell} for r in A]
    using = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c in row:
            using[c].add(i)
    used = {}  # pivot row -> its column, in pivot order
    for c in range(ncols):
        cand = [i for i in using[c] if i not in used]
        if cand:
            p = min(cand, key=lambda i: (len(rows[i]), i))
            inv = pow(rows[p][c], -1, ell)
            prow = rows[p] = {k: v * inv % ell for k, v in rows[p].items()}
            for i in using[c] - {p}:
                row, f = rows[i], rows[i][c]
                for k, v in prow.items():
                    if a := (row.get(k, 0) - f * v) % ell:
                        row[k] = a
                        using[k].add(i)
                    else:
                        del row[k]
                        using[k].discard(i)
            used[p] = c
    R = [rows[p] for p in used]
    if dense:
        R = np.array([[row.get(c, 0) for c in range(ncols)] for row in R],
                     dtype=np.int64).reshape(len(R), ncols)
    return R, list(used.values())


def _quotient_coords(vec, block, pivots, free, ell):
    """Coordinates of vec (or of each row of vec) modulo the row space of
    the RREF R, read in its free columns mod ell; block is R[:, free].

    R is zero in every pivot column but its own, so reducing by its rows in
    turn subtracts each row times vec's entry in its pivot column (if not 0).
    """
    v = np.asarray(vec, dtype=np.int64)
    vp = v[..., pivots]
    used = np.flatnonzero(vp.any(axis=tuple(range(vp.ndim - 1))))
    return (v[..., free] - vp[..., used] @ block[used]) % ell


@dataclass
class GModule:
    """Mod-ell homology of the kernel, as matrices acting for each generator.

    Coordinates are the free columns of the RREF R of the relations (one
    per relator cycle, see `kernel_mod_ell_homology`); `_quotient_coords`
    maps to them by the cached block R[:, free], whose rows are in pivot order.
    """
    ell: int
    dim: int
    action: list            # matrices (dim x dim) for the images of x, y
    schreier: SchreierData
    _block: np.ndarray = field(repr=False, default=None)
    _pivots: np.ndarray = field(repr=False, default=None)
    _free: np.ndarray = field(repr=False, default=None)
    _rho: np.ndarray = field(repr=False, default=None)

    def column_coords(self):
        """Coordinates in M of each Schreier column, and a zero last row for
        the tree edges: the weights of `SchreierData.rewrite_words`."""
        ell = self.ell
        coords = np.zeros((self.schreier.num_schreier + 1, self.dim),
                          dtype=np.min_scalar_type(ell - 1))
        coords[self._free, np.arange(self.dim)] = 1
        coords[self._pivots] = (ell - self._block.astype(coords.dtype)) % ell
        return coords

    def action_of(self, g):
        """Action matrix of an element of G, or their stack for an index
        array or slice, from the table `_propagate_actions` fills once."""
        if self._rho is None:
            self._rho = _propagate_actions(self)
        return self._rho[g]

    @cached_property
    def group_table(self):
        """G's multiplication table (gmul[g, h] is gh), one batch per module."""
        everything = np.arange(self.schreier.group.order)
        return self.schreier.group.product_table(everything, everything)

    def fixed_subspace_dim(self) -> int:
        stack = np.vstack([(A - np.eye(self.dim, dtype=np.int64)) % self.ell
                           for A in self.action])
        _, pivots = rref_mod(stack, self.ell)
        return self.dim - len(pivots)


def _cycles(perm, exponent):
    """The least coset on each coset's cycle of the permutation perm, whose
    cycles (right multiplication in the regular action) all have one length
    d = n / #cycles; the relator perm^exponent holds iff d divides exponent."""
    least = orbit_minima(perm[None])
    d = len(perm) // np.count_nonzero(least == np.arange(len(perm)))
    if exponent % d:
        raise RuntimeError("relator trace did not return to its coset")
    return least, d


def _relations(sd: SchreierData, ell: int):
    """The relations mod ell, one per relator cycle, as (owner, rows).

    owner[j] is the least column m of the x- or y-cycle holding column j,
    or -1 where ell divides that relator's k/d; rows are the (xy)^r
    relations, one sparse row per cycle, reduced by the x and y indicators
    (entry j minus entry m), or none where ell divides r/d.
    """
    n, ncols = sd.group.order, sd.num_schreier
    right = sd.next_coset[[2 * X, 2 * Y]]
    # label[u, g]: the column of the edge (u, g), or the spare slot ncols,
    # as the moves x and y read it
    label = sd.edge_column[[0, 2]].T
    owner = np.full(ncols + 1, -1)
    for g, k in ((X, sd.type[0]), (Y, sd.type[1])):
        least, d = _cycles(right[g], k)
        if k // d % ell:
            least_col = np.full(n, ncols)
            np.minimum.at(least_col, least, label[:, g])
            owner[label[:, g]] = least_col[least]
    owner = owner[:ncols]
    least, d = _cycles(right[Y][right[X]], sd.type[2])
    if not sd.type[2] // d % ell:
        return owner, []
    # (xy)^r from u reads (u, x), then (ux, y): each column lies on one row
    row_of = np.zeros(ncols + 1, dtype=np.int64)
    row_of[label[:, X]] = least
    row_of[label[right[X], Y]] = least
    plus, minus = row_of[:ncols], row_of[owner]
    counted = owner >= 0
    live = ~counted | (plus != minus)  # j and its m on one row cancel
    rows = {u: {} for u in np.unique(least).tolist()}
    for sign, keep, on in ((1, live, plus), (-1, live & counted, minus)):
        for c, u in zip(np.flatnonzero(keep).tolist(), on[keep].tolist()):
            rows[u][c] = sign
    return owner, list(rows.values())


def kernel_mod_ell_homology(sd: SchreierData, ell: int) -> GModule:
    """H_1 of the kernel with F_ell coefficients, as a G-module.

    The relations are the relators rewritten from every coset.  A relator
    w^k traced from any coset of a cycle of right multiplication by w, of
    length d, gives the same row: k/d times the sum of the cycle's columns
    (its Schreier generators (u, g) for a letter g read at u).  The cycles
    of x and those of y cover each column once, so their rows, when ell
    does not divide k/d, are indicators of disjoint sets: the RREF R of the
    whole system pivots on each such cycle's least column m.  Only the
    (xy)^r rows, reduced by those indicators (`_relations`), go to
    `rref_mod`; its pivots are none of the m, its rows are rows of R, and
    the row of a cycle is its indicator minus the rows of R at its columns
    that `rref_mod` pivots on.
    """
    ncols = sd.num_schreier
    if ncols * (ell - 1) ** 2 >= 2 ** 53:  # ncols bounds dim
        raise ValueError(f"ell = {ell} too large: {ncols} Schreier generators "
                         f"× (ell − 1)² ≥ 2^53, beyond exact float64 products")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    owner, rows = _relations(sd, ell)
    R, pivots_xy = rref_mod(rows, ell, ncols)
    pivots = np.union1d(owner[owner >= 0], pivots_xy).astype(int)
    free = np.setdiff1d(np.arange(ncols), pivots)
    block = np.zeros((len(pivots), len(free)), dtype=np.int64)  # R[:, free]
    xy_rows = np.searchsorted(pivots, pivots_xy)
    for i, row, c in zip(xy_rows.tolist(), R, pivots_xy):
        del row[c]  # R is 1 at its own pivot, 0 at the others
        block[i, np.searchsorted(free, list(row))] = list(row.values())
    counted = owner[free] >= 0
    block[np.searchsorted(pivots, owner[free[counted]]), np.flatnonzero(counted)] = 1
    hit = owner[pivots_xy] >= 0
    np.subtract.at(block, np.searchsorted(pivots, owner[pivots_xy][hit]),
                   block[xy_rows[hit]])
    block %= ell
    mod = GModule(ell, len(free), [], sd, _block=block, _pivots=pivots, _free=free)
    # s sigma(u) g sigma(ug)^-1 s^-1 for each image s and free column (u, g)
    u, g = np.divmod(sd.edges[free], 2)
    schreier = np.hstack([sd.letters[u], 2 * g[:, None],
                          _inverse_words(sd.letters[sd.next_coset[2 * g, u]])])
    conj = sd.letters[np.repeat(sd.gen_images, len(free))]
    words = np.hstack([conj, np.tile(schreier, (2, 1)), _inverse_words(conj)])
    images, ends = sd.rewrite_words(words, mod.column_coords())
    if ends.any():
        raise RuntimeError("conjugated Schreier generator did not close")
    mod.action.extend(images.reshape(2, len(free), mod.dim).transpose(0, 2, 1) % ell)
    _check_relations(mod)
    return mod


def _check_relations(mod: GModule) -> None:
    """The action matrices satisfy the relators.  The products run in
    float64 (BLAS), exact because dim (ell - 1)^2 < 2^53; the remainders
    run on int64, where numpy's % is several times faster than on floats."""
    p, q, r = mod.schreier.type
    ell = mod.ell
    Ax, Ay = (A.astype(np.float64) for A in mod.action)
    eye = np.eye(mod.dim)

    def mulmod(A, B):
        return ((A @ B).astype(np.int64) % ell).astype(np.float64)

    def matpow(A, k):
        """A^k mod ell by square-and-multiply from A: 1, 2 and 4 products
        for k = 2, 3 and 7."""
        out = None
        while k:
            if k & 1:
                out = A if out is None else mulmod(out, A)
            k >>= 1
            if k:
                A = mulmod(A, A)
        return out
    if (matpow(Ax, p) != eye).any() or (matpow(Ay, q) != eye).any():
        raise RuntimeError("action matrices violate the generator relations")
    if (matpow(mulmod(Ax, Ay), r) != eye).any():
        raise RuntimeError("action matrices violate the product relation")


def _propagate_actions(mod: GModule):
    """Matrices for every element of G, one Schreier-tree level at a time:
    rho(v) = rho(u) A_m for the tree edge u -> v of move m."""
    sd, ell = mod.schreier, mod.ell
    Ax, Ay = mod.action
    moves = np.array([Ax, _matinv(Ax, ell), Ay, _matinv(Ay, ell)])
    rho = np.empty((sd.group.order, mod.dim, mod.dim), dtype=np.int64)
    rho[0] = np.eye(mod.dim, dtype=np.int64)
    for level, src, move in sd.levels:
        rho[level] = rho[src] @ moves[move] % ell
    return rho


def _matinv(A, ell):
    d = len(A)
    aug = np.hstack([A, np.eye(d, dtype=np.int64)])
    R, pivots = rref_mod(aug, ell)
    if pivots[:d] != list(range(d)):
        raise RuntimeError("matrix not invertible mod ell")
    return R[:, d:]


# -- invariant submodules -----------------------------------------------------

SUBSPACE_SCAN_LIMIT = 2_000_000  # the most vectors (ell^dim) or lines listed


class ScanInfeasibleError(RuntimeError):
    """The module has more vectors, or invariant lines, than the limit."""


def _infeasible(mod: GModule, what) -> ScanInfeasibleError:
    name = mod.schreier.group.name if mod.schreier else "module"
    return ScanInfeasibleError(f"{what} ({name}, ell = {mod.ell}, dim {mod.dim}) "
                               f"exceed the limit {SUBSPACE_SCAN_LIMIT}")


def _code_tables(mats, ell, n):
    """For each matrix A, code(A v) at every code(v) = sum v_i ell^i of
    F_ell^n, one int32 row per matrix; digit rows are made a chunk at a time."""
    chunk = 1 << 16
    powers = ell ** np.arange(n, dtype=np.int64)
    stacked = np.hstack([A.T for A in mats])  # a row vector times it: each A v
    total = ell ** n
    tables = np.empty((len(mats), total), dtype=np.int32)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total))
        images = (codes[:, None] // powers % ell) @ stacked % ell
        tables[:, start:start + len(codes)] = (
            images.reshape(len(codes), len(mats), n) @ powers).T
    return tables


def _spin(vec, actions, ell):
    """RREF basis of the cyclic submodule spin(vec), the least invariant
    subspace holding vec: apply every action to the whole basis until the
    rank stops growing."""
    R, _ = rref_mod(np.reshape(vec, (1, -1)), ell)
    while True:
        grown, _ = rref_mod(np.vstack([R] + [R @ A.T for A in actions]), ell)
        if len(grown) == len(R):
            return R
        R = grown


def _scan_order(B):
    """Sort key of an RREF basis in the order of an exhaustive subspace scan:
    dimension, pivot columns, then the entries in the free columns."""
    pivots = np.argmax(B != 0, axis=1)
    free = np.setdiff1d(np.arange(B.shape[1]), pivots)
    return len(B), tuple(pivots.tolist()), tuple(B[:, free].ravel().tolist())


def submodule_lattice(mod: GModule):
    """Every G-invariant subspace of mod, as RREF bases in `_scan_order`.

    Every submodule is a sum of cyclic ones, and spin(g v) = spin(c v) =
    spin(v) for g in G and scalars c, so one vector per orbit of <G, F_ell^*>
    finds every cyclic submodule.  The orbits come from labelling all ell^dim
    codes (`orbit_minima`), hence the limit; the lattice is then the cyclic
    submodules closed under sums.
    """
    n, ell = mod.dim, mod.ell
    if ell ** n > SUBSPACE_SCAN_LIMIT:
        raise _infeasible(mod, f"submodule lattice: {ell}^{n} vectors")
    root = Fq(ell).generator()
    mats = list(mod.action)
    if root > 1:  # F_2^* is trivial
        mats.append(root * np.eye(n, dtype=np.int64))
    label = orbit_minima(_code_tables(mats, ell, n))
    reps = np.flatnonzero(label == np.arange(len(label)))[1:]  # code 0 spins to 0
    cyclic = {}
    for code in reps.tolist():
        C = _spin(to_digits(code, ell, n), mod.action, ell)
        cyclic.setdefault(C.tobytes(), C)
    zero = np.zeros((0, n), dtype=np.int64)
    lattice = {zero.tobytes(): zero}
    for C in cyclic.values():
        for U in list(lattice.values()):
            S, _ = rref_mod(np.vstack([U, C]), ell)
            lattice.setdefault(S.tobytes(), S)
    return sorted(lattice.values(), key=_scan_order)


def invariant_submodules(mod: GModule, d: int):
    """The G-invariant d-dimensional subspaces in `_scan_order`: lines and
    hyperplanes from eigenspaces, the others filtered from the lattice."""
    n = mod.dim
    if not 0 <= d <= n:
        raise ValueError(f"dimension {d} outside 0..{n}")
    if d in (0, n):  # 0 and M need no lattice, so they stay within reach
        return [np.eye(n, dtype=np.int64)[:d]]
    if d == 1:
        return _invariant_lines(mod, mod.action, "lines")
    if d == n - 1:  # (A^T f) . w = f . (A w): the annihilators of A^T-invariant lines
        return _hyperplanes(_invariant_lines(mod, [A.T for A in mod.action],
                                             "hyperplanes"), mod.ell)
    return [B for B in submodule_lattice(mod) if len(B) == d]


def _hyperplanes(lines, ell):
    """RREF bases of the annihilators f^perp of the lines f, in `_scan_order`.

    With t the last nonzero entry of f, the pivots are every column but t,
    and row j is e_j - (f_j / f_t) e_t.  Pivot tuples fall as t grows, and
    for one t the free column t holds H = -f / f_t outside row t, where H
    is -1 at t and 0 after it: so the order is t descending, then H.
    """
    if not lines:
        return []
    F = np.concatenate(lines)
    m, n = F.shape
    t = n - 1 - np.argmax(F[:, ::-1] != 0, axis=1)
    inverse = np.array([0] + [pow(a, -1, ell) for a in range(1, ell)])
    H = -F * inverse[F[np.arange(m), t]][:, None] % ell
    order = np.lexsort(np.vstack([H.T[::-1], -t]))
    H, t = H[order], t[order]
    # row r of a basis is e_j + H_j e_t for the r-th column j other than t
    rows = np.arange(n - 1)
    J = rows + (rows >= t[:, None])
    B = np.zeros((m, n - 1, n), dtype=np.int64)
    B[np.arange(m)[:, None], rows, J] = 1
    B[np.arange(m)[:, None], rows, t[:, None]] = np.take_along_axis(H, J, axis=1)
    return list(B)


def _null_space(A, ell):
    """RREF basis of {v : A v = 0}: with R the RREF of A, row j of I - R^T
    (at R's pivot columns) is 0 for a pivot j, else the null vector of j."""
    R, pivots = rref_mod(A, ell)
    N = np.eye(A.shape[1], dtype=np.int64)
    N[:, pivots] -= R.T
    return rref_mod(N, ell)[0]


def _invariant_lines(mod: GModule, actions, what):
    """RREF bases of the lines invariant under `actions`, in `_scan_order`:
    the lines of the common eigenspaces ker[A_s - lambda_s I], one for each
    tuple of eigenvalues in (F_ell^*)^#actions, found one action at a time
    (`stacks` holds the equations of the nonzero ones so far).  For an RREF
    basis K and c with first nonzero entry 1, c K is the RREF basis of its line."""
    n, ell = mod.dim, mod.ell
    eye = np.eye(n, dtype=np.int64)
    stacks = [eye[:0]]
    for A in actions:
        stacks = [S for T in stacks for lam in range(1, ell)
                  if len(_null_space(S := np.vstack([T, A - lam * eye]), ell))]
    spaces = [_null_space(S, ell) for S in stacks]
    count = sum((ell ** len(K) - 1) // (ell - 1) for K in spaces)
    if count > SUBSPACE_SCAN_LIMIT:
        raise _infeasible(mod, f"invariant {what}: {count} {what}")
    lines = [eye[:0]]
    for K in spaces:
        C = np.arange(1, ell ** len(K))[:, None] // ell ** np.arange(len(K))[::-1] % ell
        C = C[C[np.arange(len(C)), np.argmax(C != 0, axis=1)] == 1]
        lines.append(C @ K % ell)
    # a line is 0 before its pivot and 1 there: (pivot, row) is `_scan_order`
    L = np.concatenate(lines)
    L = L[np.lexsort(np.vstack([L.T[::-1], np.argmax(L != 0, axis=1)]))]
    return list(L[:, None, :])


# -- extension quotients ------------------------------------------------------

class CocycleError(RuntimeError):
    """The twisted multiplication failed an internal consistency check."""


@dataclass
class ExtensionGroup:
    """An extension E of G by the quotient module M/U.

    E is a `FinGroup` built by `group_from_rule`, whose keys are the codes
    code(v) * |G| + g of the pairs (v, g), so the projection to G is
    the code mod |G|.
    """
    group: FinGroup
    base: FinGroup
    module_dim: int
    ell: int
    split: bool


@dataclass
class TwistedProduct:
    """The product (v, g)(w, h) = (v + rho(g) w + c(g, h), gh) on the codes
    code(v) * n + g, from tables whose vectors of M/U are digit rows.

    Vector addition runs on digit rows: a table of sums of codes would hold
    ell^(2 qdim) entries, more than |E| whenever |M/U| > |G|.  The cocycle
    table is the transposed view that `_cocycle_table` returns, in a small
    unsigned dtype.
    """
    n: int              # |G|
    ell: int
    powers: np.ndarray  # ell^i, so that code = digits @ powers
    digits: np.ndarray  # digits[v]: the vector of code v
    act: np.ndarray     # act[g, w]: rho(g) w, for the code w
    coc: np.ndarray     # coc[g, h]: c(g, h)
    gmul: np.ndarray    # gmul[g, h]: index of gh in G

    def __call__(self, a, b):
        v, g = divmod(a, self.n)
        w, h = divmod(b, self.n)
        vec = (self.digits[v] + self.act[g, w] + self.coc[g, h]) % self.ell
        return vec @ self.powers * self.n + self.gmul[g, h]


def extension_quotient(mod: GModule, U, cap=DEFAULT_CAP, name=None) -> ExtensionGroup:
    """Quotient of the triangle group by the preimage of the invariant U.

    Elements are pairs (v, g) with v in M/U; multiplication is twisted by
    the 2-cocycle c(g, h) = image of sigma(g) sigma(h) sigma(gh)^-1, see
    `TwistedProduct`.  E is the `group_from_rule` group of that product on
    the codes code(v) * |G| + g, closed from the lifts of the triangle
    generators; its elements come in the BFS order of the left-regular
    action on the pairs.  |E| = |G| * ell^qdim is checked against the cap
    before any table is built.  The tables are rho(g) on M/U
    (|G| x ell^qdim vectors, from the matrices `_propagate_actions` fills
    along the Schreier tree), the cocycle (|G|^2 vectors, filled one tree
    level at a time by `_cocycle_table` from the coordinates of the Schreier
    columns in M/U, and checked against the rewriting of the full words and
    the cocycle identity on sampled triples), the digits of each code and
    G's multiplication table (|G|^2, `GModule.group_table`, shared by the
    module's quotients).  The sampled words and the lifts go
    through one `SchreierData.rewrite_words` call each.
    """
    sd = mod.schreier
    G = sd.group
    ell = mod.ell
    RU, pivotsU = rref_mod(np.reshape(U, (len(U), mod.dim)), ell)
    freeU = np.setdiff1d(np.arange(mod.dim), pivotsU)
    qdim = len(freeU)
    n, size = G.order, ell ** qdim
    label = name or f"{G.name}.ext({ell}^{qdim})"
    if n * size > cap:
        raise CapExceededError(
            f"extension {label}: {n} × {ell}^{qdim} = {n * size} > cap {cap}")
    blockU = RU[:, freeU]

    def modulo_U(vecs):
        return _quotient_coords(vecs, blockU, pivotsU, freeU, ell)

    coords = modulo_U(mod.column_coords())  # each Schreier column in M/U
    letters = sd.letters

    def word_vectors(words):
        """Vectors in M/U of the images of words closed at the identity coset."""
        images, ends = sd.rewrite_words(words, coords)
        if ends.any():
            raise CocycleError("cocycle word did not close")
        return images % ell

    def direct(I, J):
        """c(g, h) for g, h in zip(I, J), each by rewriting its full word."""
        K = G.products(I, J)
        return word_vectors(np.hstack([letters[I], letters[J],
                                       _inverse_words(letters[K])]))

    powers = ell ** np.arange(qdim, dtype=np.int64)
    digits = np.arange(size)[:, None] // powers % ell  # v of each code
    # rho(g)^T on M/U, stacked over g: a row vector times it is rho(g) v
    rho_t = modulo_U(mod.action_of(slice(None))[:, :, freeU].transpose(0, 2, 1))
    gmul = mod.group_table
    gens = sd.gen_images
    coc = _cocycle_table(sd, np.ascontiguousarray(gmul.T), coords, ell)
    prod = TwistedProduct(n, ell, powers, digits, digits @ rho_t % ell, coc, gmul)
    _verify_cocycle(prod, direct)
    # x lifts to (the value of x sigma(gx)^-1, gx), and y likewise
    words = np.hstack([[[2 * X], [2 * Y]], _inverse_words(letters[list(gens)])])
    lifts = word_vectors(words) @ powers * n + gens
    E = group_from_rule(prod, lifts, n * size, cap=cap, name=label)
    if E.order != n * size:
        raise CocycleError(f"extension order {E.order} != expected {n * size}")
    return ExtensionGroup(E, G, qdim, ell, _has_complement(prod, sd))


def extension_quotients(mod: GModule, subs, cap=DEFAULT_CAP):
    """The `extension_quotient` of each invariant subspace U of subs, named
    ell^(dim - d).G#i for d = dim U and i = 1, 2, .. in the order of subs."""
    G = mod.schreier.group
    return [extension_quotient(mod, U, cap=cap,
                               name=f"{mod.ell}^{mod.dim - len(U)}.{G.name}#{i}")
            for i, U in enumerate(subs, start=1)]


def _cocycle_table(sd: SchreierData, left, coords, ell):
    """c(g, h) in M/U for all g, h, read off the Schreier tree.

    sigma(g) and sigma(gh)^-1 walk only tree edges, which read no column,
    so c(g, h) is the image of sigma(h) traced from coset g.  For a tree
    edge u -> v of move m, sigma(v) = sigma(u) m, so c(., v) = c(., u) plus
    the value of m read at coset g u: its column's coordinates in M/U
    (`coords`, a zero row for tree edges), with the letter's sign.
    left[u, g] is the index of g u.  The table t[h, g] = c(g, h) is filled
    one tree level at a time, in the smallest unsigned dtype that holds a
    sum of two entries, and returned as its transpose, a view.
    """
    n, q = left.shape[0], coords.shape[1]
    dtype = np.min_scalar_type(2 * (ell - 1))
    # the value of move m read at coset w, in row m * n + w
    read = SIGN[:4, None, None] * coords[sd.edge_column[:4]] % ell
    read = read.astype(dtype).reshape(4 * n, q)
    table = np.zeros((n, n, q), dtype=dtype)
    for level, src, move in sd.levels:
        at = move[:, None] * n + np.take(left, src, axis=0)
        table[level] = (np.take(table, src, axis=0) + np.take(read, at, axis=0)) % ell
    return table.transpose(1, 0, 2)


def _cocycle_samples(n):
    """Deterministic triples (g, h, k) spread over a group of order n."""
    rng = random.Random(n)
    return [tuple(rng.randrange(n) for _ in range(3)) for _ in range(COCYCLE_SAMPLES)]


def _verify_cocycle(prod: TwistedProduct, direct):
    """Spot-check the cocycle table on deterministic triples (g, h, k).

    Its entries at (g, h), (gh, k), (h, k) and (g, hk) must equal direct
    rewriting, one direct(I, J) call for all four, and satisfy
    c(g,h) + c(gh,k) = g*c(h,k) + c(g,hk).
    """
    g, h, k = np.array(_cocycle_samples(prod.n)).T
    gh, hk = prod.gmul[g, h], prod.gmul[h, k]
    I, J = np.concatenate([g, gh, h, g]), np.concatenate([h, k, k, hk])
    entries = prod.coc[I, J].astype(np.int64)
    if (entries != direct(I, J)).any():
        raise CocycleError("cocycle table disagrees with direct rewriting")
    c_gh, c_gh_k, c_hk, c_g_hk = np.split(entries, 4)
    lhs = c_gh + c_gh_k
    rhs = prod.act[g, c_hk @ prod.powers] + c_g_hk
    if ((lhs - rhs) % prod.ell).any():
        raise CocycleError("2-cocycle identity violated")


def _has_complement(prod: TwistedProduct, sd: SchreierData) -> bool:
    """Is there a homomorphic section G -> E?

    Its values at the generators s = phi(x), phi(y) are lifts (v_s, s).
    Along the Schreier tree, f(1) = 0 and f(us) = f(u) + rho(u) v_s + c(u, s),
    the M/U part of (f(u), u)(v_s, s), so f(u) = A_u z + b_u is affine in
    z = (v_s)_s; a tree edge of an inverse move, v = u s^-1, gives
    f(v) = f(u) - (rho(v) v_s + c(v, s)).  The lifts extend to a
    homomorphism G -> E, necessarily a section of the projection, iff every
    edge (u, s) of the Cayley graph agrees with f: a linear system in z over
    F_ell, solvable iff the RREF of its rows [A | b] has no pivot in the last
    column.  Tree edges give zero rows; all rows go to `rref_mod` reduced mod
    ell and deduplicated, which changes neither their span nor its pivots.
    """
    n, ell, q = prod.n, prod.ell, len(prod.powers)
    gens, m = list(sd.gen_images), len(sd.gen_images)
    # step[u, j]: rho(u) v_s + c(u, s) for s = gens[j], in z and the constant
    step = np.zeros((n, m, q, m * q + 1), dtype=np.int64)
    rho = prod.act[:, prod.powers].transpose(0, 2, 1)  # rho(u), one matrix per u
    for j in range(m):
        step[:, j, :, j * q:(j + 1) * q] = rho
    step[..., -1] = prod.coc[:, gens]
    f = np.zeros((n, q, m * q + 1), dtype=np.int64)
    for level, src, move in sd.levels:
        edge = step[np.where(move % 2, level, src), move // 2]
        f[level] = (f[src] + SIGN[move, None, None] * edge) % ell
    rows = ((f[:, None] + step - f[prod.gmul[:, gens]]) % ell).reshape(-1, m * q + 1)
    # distinct rows, compared as bytes
    rows = np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))))
    _, pivots = rref_mod(rows.view(np.int64).reshape(-1, m * q + 1), ell)
    return m * q not in pivots


# -- the genus-17 pipeline ----------------------------------------------------

def klein_extension_groups(cap=DEFAULT_CAP):
    """The order-1344 Hurwitz group 2^3.PSL(2,7), built from the Klein-quartic kernel.

    Takes the dessin class of PSL(2,7), computes the kernel's mod-2
    homology (dimension 6), finds its two invariant 3-dimensional
    subspaces, and forms the corresponding extension quotients.  The two
    quotients are isomorphic: one non-split group, carrying a chiral pair
    of dessins of genus 17.
    """
    from . import catalog, dessins

    G = catalog.psl2(7, cap=cap)
    cls = dessins.enumerate_triples(G, (2, 3, 7))
    if len(cls) != 1:
        raise RuntimeError("expected a unique dessin class for PSL(2,7)")
    t = cls[0].representative
    sd = schreier_data((2, 3, 7), G, t.x, t.y)
    mod = kernel_mod_ell_homology(sd, 2)
    subs = invariant_submodules(mod, 3)
    if len(subs) != 2:
        raise RuntimeError(f"expected two invariant 3-dim subspaces, got {len(subs)}")
    return extension_quotients(mod, subs, cap=cap)
