import dataclasses
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitz import catalog, dessins, homology
from hurwitz.fields import to_digits
from hurwitz.group import (FinGroup, cayley_labels, group_from_generators,
                           group_from_rule, kernel_key, pair_isomorphic)
from hurwitz.homology import (PAD, SUBSPACE_SCAN_LIMIT, CocycleError, GModule,
                              ScanInfeasibleError, _quotient_coords,
                              extension_quotient, invariant_submodules,
                              kernel_mod_ell_homology, klein_extension_groups,
                              rref_mod, schreier_data, submodule_lattice)

from conftest import tuple_mul
from oracles import from_digits, inverse_word, pinv, rewrite, schreier_word
from test_pair_iso import _evaluate, _word_map


def _klein_schreier():
    G = catalog.psl2(7)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    return G, schreier_data((2, 3, 7), G, t.x, t.y)


@pytest.fixture(scope="module")
def klein():
    G, sd = _klein_schreier()
    return G, sd, kernel_mod_ell_homology(sd, 2)


def test_rref_mod():
    A = np.array([[2, 4, 6], [1, 2, 3], [0, 1, 1]], dtype=np.int64)
    R, pivots = rref_mod(A, 5)
    assert list(pivots) == [0, 1]
    assert R.shape[0] == 2


def _dense_rref(A, ell):
    """Oracle: the dense column-by-column RREF mod ell, one numpy row
    operation per row that holds the pivot column."""
    R = np.array(A, dtype=np.int64) % ell
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        R[r] = (R[r] * pow(int(R[r, c]), ell - 2, ell)) % ell
        other = np.nonzero(R[:, c])[0]
        for i in other:
            if i != r:
                R[i] = (R[i] - R[i, c] * R[r]) % ell
        pivots.append(c)
        r += 1
    return R[:r], pivots


def _sparse_rows(R):
    return [{c: v for c, v in enumerate(row) if v} for row in np.asarray(R).tolist()]


@st.composite
def _matrices_mod_ell(draw):
    """(A, ell), wide or tall, with zero rows and repeated (scaled) rows mixed in."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 13]))
    m, n = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entries = st.lists(st.integers(-2 * ell, 2 * ell), min_size=n, max_size=n)
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["random", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            k = draw(st.integers(1, ell))
            rows.append([k * a for a in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(entries))
    return np.array(rows, dtype=np.int64).reshape(m, n), ell


@given(_matrices_mod_ell())
@example((np.zeros((0, 0), dtype=np.int64), 2))
@example((np.zeros((0, 5), dtype=np.int64), 3))
@example((np.zeros((4, 0), dtype=np.int64), 5))
@example((np.zeros((3, 6), dtype=np.int64), 7))
@example((np.zeros((6, 3), dtype=np.int64), 13))
@settings(max_examples=300, deadline=None)
def test_rref_mod_matches_dense_oracle(case):
    A, ell = case
    R, pivots = rref_mod(A, ell)
    R_oracle, pivots_oracle = _dense_rref(A, ell)
    assert pivots == pivots_oracle
    assert R.dtype == np.int64 and R.shape == R_oracle.shape
    assert (R == R_oracle).all()
    # sparse rows in, sparse rows out
    sparse = [{c: int(v) for c, v in enumerate(row) if v} for row in A]
    R_sparse, pivots_sparse = rref_mod(sparse, ell, A.shape[1])
    assert pivots_sparse == pivots and R_sparse == _sparse_rows(R)


def _psl2_schreier(q):
    G = catalog.psl2(q)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    return G, schreier_data((2, 3, 7), G, t.x, t.y)


@pytest.mark.parametrize("q,genus", [(7, 3), (8, 7), (13, 14)])
def test_dim_is_twice_the_genus(q, genus):
    """Riemann-Hurwitz: the kernel is the fundamental group of a closed
    surface of genus g, so its homology mod any ell has dimension 2g."""
    G, sd = _psl2_schreier(q)
    assert dessins.genus_of(G.order, (2, 3, 7)) == genus
    assert [kernel_mod_ell_homology(sd, ell).dim for ell in (2, 3, 7)] == [2 * genus] * 3


def _cycle_relations(sd):
    """Oracle: the relations as Counter rows, one per relator cycle.  A
    relator w^k rewritten from u and from u*w gives the same row, so each
    cycle of right multiplication by w (x, y or xy) is rewritten from one
    coset only, one letter at a time."""
    for rel, k in zip(sd.relator_words(), sd.type):
        seen = bytearray(sd.group.order)
        for u in range(sd.group.order):
            if not seen[u]:
                vec, end = Counter(), u
                for _ in range(k):
                    seen[end] = 1
                    vec, end = rewrite(sd, rel[:len(rel) // k], end, vec)
                assert end == u
                yield vec


def _all_rewritten_rows(sd):
    """Every relator rewritten from every coset: 3|G| rows."""
    return np.array([rewrite(sd, rel, start=u)[0]
                     for u in range(sd.group.order) for rel in sd.relator_words()])


def test_cycle_relations_have_the_rref_of_all_rewritten_rows():
    """One relation per relator cycle spans the same space as the 3|G| rows
    of every relator rewritten from every coset."""
    G, sd = _psl2_schreier(8)
    full = _all_rewritten_rows(sd)
    assert full.shape == (3 * G.order, sd.num_schreier)
    rows = list(_cycle_relations(sd))
    assert len(rows) == G.order * 41 // 42  # |G| (1/2 + 1/3 + 1/7)
    for ell in (2, 7):
        R, pivots = rref_mod(rows, ell, sd.num_schreier)
        R_full, pivots_full = _dense_rref(full, ell)
        assert pivots == pivots_full
        assert R == _sparse_rows(R_full)


def _oracle_module(sd, ell):
    """(dim, block, pivots, free, action) from the dense RREF of all 3|G|
    rewritten rows, each conjugated Schreier generator projected by it."""
    R, pivots = _dense_rref(_all_rewritten_rows(sd), ell)
    free = sorted(set(range(sd.num_schreier)) - set(pivots))
    block = R[:, free]
    tree = _queue_tree(sd.group, *sd.gen_images)[0]
    action = []
    for g in sd.gen_images:
        conj = tree[g]
        cols = []
        for c in free:
            word = conj + schreier_word(sd, tree, c) + inverse_word(conj)
            vec, end = rewrite(sd, word)
            assert end == 0
            cols.append((vec[free] - vec[pivots] @ block) % ell)
        action.append(np.array(cols, dtype=np.int64).reshape(len(free), -1).T)
    return len(free), block, pivots, free, action


def _assert_matches_oracle(sd, ell):
    mod = kernel_mod_ell_homology(sd, ell)
    dim, block, pivots, free, action = _oracle_module(sd, ell)
    assert mod.dim == dim
    assert mod._block.shape == block.shape and (mod._block == block).all()
    assert mod._pivots.tolist() == pivots and mod._free.tolist() == free
    assert len(mod.action) == len(action) == 2
    assert all((A == B).all() for A, B in zip(mod.action, action))
    return mod


@pytest.mark.parametrize("q", [7, 8, 13])
@pytest.mark.parametrize("ell", [2, 3, 7, 13])
def test_kernel_homology_matches_all_rewritten_rows(q, ell):
    _assert_matches_oracle(_psl2_schreier(q)[1], ell)


@pytest.mark.parametrize("type_,dims", [
    ((4, 3, 7), {2: 89, 3: 6, 7: 6}),
    ((6, 3, 7), {2: 6, 3: 89, 7: 6}),
    ((2, 3, 14), {2: 29, 3: 6, 7: 6}),
])
def test_kernel_homology_with_cycles_shorter_than_the_exponent(type_, dims):
    """The Klein pair fed as a type with a multiple exponent: each cycle of
    length d < k carries the coefficient k/d, and where ell divides it the
    cycle's relation vanishes and the homology grows."""
    G = catalog.psl2(7)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    sd = schreier_data(type_, G, t.x, t.y)
    assert {ell: _assert_matches_oracle(sd, ell).dim for ell in dims} == dims


@pytest.mark.parametrize("type_", [(3, 2, 7), (3, 4, 7)])
@pytest.mark.parametrize("ell", [2, 3, 7])
def test_kernel_homology_with_x_of_order_three(type_, ell):
    """The Klein pair swapped, x -> y and y -> x: x no longer equals x^-1,
    so the column (u*x, y) that (xy)^r reads after (u, x) is not (u*x^-1, y)."""
    G = catalog.psl2(7)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    _assert_matches_oracle(schreier_data(type_, G, t.y, t.x), ell)


@pytest.mark.parametrize("ell", [2, 7])
def test_kernel_hands_rref_only_the_product_cycles(ell, monkeypatch):
    """The x^2 and y^3 cycles are solved in closed form: rref_mod gets one
    row per (xy)^7 cycle, |G|/7 = 156, not the |G| 41/42 = 1066 of all."""
    _, sd = _psl2_schreier(13)
    calls = []
    rref = homology.rref_mod

    def counting(A, ell, ncols=None):
        calls.append(len(A))
        return rref(A, ell, ncols)

    monkeypatch.setattr(homology, "rref_mod", counting)
    assert kernel_mod_ell_homology(sd, ell).dim == 28
    assert calls == [156]


def _queue_tree(G, gx, gy):
    """Oracle: the one-at-a-time BFS tree with move order (x, x^-1, y, y^-1),
    its words, the non-tree (coset, gen) columns in order, and the tables
    right[g][u] = u*g and right_inv[g][u] = u*g^-1."""
    right = [G.right_mult_table(g) for g in (gx, gy)]
    right_inv = [G.right_mult_table(G.inv(g)) for g in (gx, gy)]
    tree_word = [None] * G.order
    tree_word[0] = []
    tree_edges = set()
    queue = [0]
    for u in queue:
        for g, s in [(0, 1), (0, -1), (1, 1), (1, -1)]:
            v = right[g][u] if s > 0 else right_inv[g][u]
            if tree_word[v] is None:
                tree_word[v] = tree_word[u] + [(g, s)]
                tree_edges.add((u, g) if s > 0 else (v, g))
                queue.append(v)
    columns = [(u, g) for u in range(G.order) for g in (0, 1)
               if (u, g) not in tree_edges]
    return tree_word, columns, right, right_inv


@pytest.mark.parametrize("name", ["PSL(2,7)", "PSL(2,13)", "2^3.PSL(2,7)#1"])
def test_level_tree_matches_queue_bfs(name):
    if name.startswith("2^3"):
        G = klein_extension_groups()[0].group
        gx, gy = G.gen_indices
    else:
        G = catalog.psl2(int(name[6:-1]))
        t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
        gx, gy = t.x, t.y
    type_ = tuple(G.element_order(g) for g in (gx, gy, G.mul(gx, gy)))
    sd = schreier_data(type_, G, gx, gy)
    tree_word, columns, right, right_inv = _queue_tree(G, gx, gy)
    moves = [(0, 1), (0, -1), (1, 1), (1, -1)]
    letters = sd.letters.tolist()
    assert [[moves[m] for m in row if m != PAD] for row in letters] == tree_word
    assert sd.edges.tolist() == [2 * u + g for u, g in columns]
    assert sd.next_coset.tolist() == [right[0], right_inv[0], right[1], right_inv[1],
                                      list(range(G.order))]
    # a letter g at u reads the edge (u, g); g^-1 at u reads (u*g^-1, g)
    column = {ug: j for j, ug in enumerate(columns)}
    assert sd.edge_column.tolist() == [
        [column.get((u, g) if s > 0 else (right_inv[g][u], g), len(columns))
         for u in range(G.order)]
        for g, s in [(0, 1), (0, -1), (1, 1), (1, -1)]] + [[len(columns)] * G.order]
    assert sd.num_schreier == G.order + 1


def test_schreier_generator_count(klein):
    G, sd, _ = klein
    assert sd.num_schreier == G.order + 1  # |G|*2 - (|G|-1) non-tree edges


def test_schreier_rejects_non_generating_images():
    G = catalog.psl2(7)
    with pytest.raises(ValueError):
        schreier_data((2, 3, 7), G, 0, 0)


def test_klein_dim_six(klein):
    _, _, mod = klein
    assert mod.dim == 6  # 2 * genus 3
    assert mod.ell == 2


def test_klein_dim_six_mod_three():
    G, sd = _klein_schreier()
    assert kernel_mod_ell_homology(sd, 3).dim == 6


def test_psl28_dim_fourteen():
    G = catalog.psl2(8)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    sd = schreier_data((2, 3, 7), G, t.x, t.y)
    assert kernel_mod_ell_homology(sd, 2).dim == 14  # 2 * genus 7
    assert kernel_mod_ell_homology(sd, 3).dim == 14


def test_rejects_composite_ell():
    _, sd = _klein_schreier()
    with pytest.raises(ValueError):
        kernel_mod_ell_homology(sd, 6)


def test_no_fixed_vector(klein):
    _, _, mod = klein
    assert mod.fixed_subspace_dim() == 0


def test_action_matrices_invertible(klein):
    G, _, mod = klein
    for g in (1, 17, 100):
        A = mod.action_of(g)
        R, pivots = rref_mod(A.T.copy(), 2)
        assert len(pivots) == mod.dim


def test_invariant_submodule_counts(klein):
    _, _, mod = klein
    assert len(invariant_submodules(mod, 3)) == 2
    assert len(invariant_submodules(mod, 1)) == 0
    assert len(invariant_submodules(mod, 5)) == 0
    assert len(invariant_submodules(mod, 0)) == 1
    assert len(invariant_submodules(mod, 6)) == 1


def _gaussian_binomial(n, d, ell):
    """Number of d-dimensional subspaces of F_ell^n."""
    num = den = 1
    for i in range(d):
        num *= ell ** (n - i) - 1
        den *= ell ** (d - i) - 1
    return num // den


def _rref_subspaces(n, d, ell):
    """All d-dimensional subspaces of F_ell^n, one RREF basis each, with its
    pivots: pivot tuples in lexicographic order, then the free entries in
    `itertools.product` order."""
    from itertools import combinations, product
    for pivots in combinations(range(n), d):
        pivots = list(pivots)
        free = [(i, c) for i, p in enumerate(pivots)
                for c in range(p + 1, n) if c not in pivots]
        rows = [i for i, _ in free]
        cols = [c for _, c in free]
        echelon = np.zeros((d, n), dtype=np.int64)
        echelon[range(d), pivots] = 1
        for values in product(range(ell), repeat=len(free)):
            B = echelon.copy()
            B[rows, cols] = values
            yield B, pivots


def _scan_invariant(mod, d):
    """Oracle: the exhaustive subspace scan.  B is its own RREF, so a row
    lies in its span exactly when it equals its pivot-column entries times B."""
    n, ell = mod.dim, mod.ell
    actions = np.hstack([A.T for A in mod.action])
    out = []
    for B, pivots in _rref_subspaces(n, d, ell):
        img = (B @ actions % ell).reshape(d * len(mod.action), n)
        if (img == img[:, pivots] @ B % ell).all():
            out.append(B.tolist())
    return out


@pytest.mark.parametrize("ell,dims", [(2, range(7)), (3, (1, 2))])
def test_invariant_submodules_match_rank_oracle(klein, ell, dims):
    """A subspace with basis B is invariant iff [B; B Ax^T; B Ay^T] has rank d."""
    _, sd, mod2 = klein
    mod = mod2 if ell == 2 else kernel_mod_ell_homology(sd, ell)
    for d in dims:
        candidates = list(_rref_subspaces(mod.dim, d, ell))
        assert len(candidates) == _gaussian_binomial(mod.dim, d, ell)
        oracle = []
        for B, pivots in candidates:
            R, rref_pivots = rref_mod(B, ell)
            assert (R == B).all() and rref_pivots == pivots
            stacked = np.vstack([B] + [B @ A.T for A in mod.action])
            if len(rref_mod(stacked, ell)[1]) == d:
                oracle.append(B.tolist())
        assert [B.tolist() for B in invariant_submodules(mod, d)] == oracle


def _restricted(mod, U):
    """The action of mod on its invariant subspace U, in U's RREF basis."""
    _, pivots = rref_mod(U, mod.ell)
    return [(U @ A.T % mod.ell)[:, pivots].T for A in mod.action]


def _copies(mod, U, k):
    """S^k for S the submodule U: block-diagonal copies of its action."""
    eye = np.eye(k, dtype=np.int64)
    action = [np.kron(eye, S) for S in _restricted(mod, U)]
    return GModule(mod.ell, k * len(U), action, None)


def _module(name):
    if name == "C3 torus mod 3":
        return _c3_mod_three()
    if name.startswith("S^"):  # S is a 3-dim Klein factor
        k, ell = int(name[2]), int(name.rsplit(" ", 1)[1])
        mod = kernel_mod_ell_homology(_klein_schreier()[1], ell)
        return _copies(mod, invariant_submodules(mod, 3)[0], k)
    q, ell = {"PSL(2,7) mod 2": (7, 2), "PSL(2,7) mod 3": (7, 3),
              "PSL(2,7) mod 7": (7, 7), "PSL(2,8) mod 2": (8, 2)}[name]
    return kernel_mod_ell_homology(_psl2_schreier(q)[1], ell)


def _powers_of_S(k, ell):
    """Dimensions of the lattice of S^k, S absolutely irreducible of dim 3:
    its submodules are the U (x) S for the subspaces U of F_ell^k.  S^2 has
    ell + 1 diagonal copies of S; S^4 is not cyclic, so only sums reach it."""
    return [3 * j for j in range(k + 1) for _ in range(_gaussian_binomial(k, j, ell))]


# (module, dimensions of its lattice, in order)
LATTICES = {
    "PSL(2,7) mod 2": [0, 3, 3, 6],
    "PSL(2,7) mod 3": [0, 6],
    "PSL(2,7) mod 7": [0, 3, 6],
    "PSL(2,8) mod 2": [0, 6, 7, 7, 7, 8, 14],
    "C3 torus mod 3": [0, 1, 2],
    "S^2 mod 2": _powers_of_S(2, 2),
    "S^2 mod 7": _powers_of_S(2, 7),
    "S^4 mod 2": _powers_of_S(4, 2),
}
SCAN_BOUND = 20_000  # candidates the oracle scans per dimension


@pytest.fixture(scope="module", params=LATTICES)
def lattice_case(request):
    """A named module and its submodule lattice."""
    mod = _module(request.param)
    return request.param, mod, submodule_lattice(mod)


def test_lattice_matches_scan_oracle(lattice_case):
    """Wherever the exhaustive scan is feasible, the lattice agrees with it,
    in the scan's order; below the bound every dimension is compared."""
    name, mod, lattice = lattice_case
    assert [len(B) for B in lattice] == LATTICES[name]
    scanned = [d for d in range(mod.dim + 1)
               if _gaussian_binomial(mod.dim, d, mod.ell) <= SCAN_BOUND]
    assert scanned[0] == 0 and scanned[-1] == mod.dim
    for d in scanned:
        oracle = _scan_invariant(mod, d)
        assert [B.tolist() for B in lattice if len(B) == d] == oracle
        assert [B.tolist() for B in invariant_submodules(mod, d)] == oracle


def _perp(B, n, ell):
    """RREF basis of the annihilator {w : B w = 0} of the rows of B."""
    R, pivots = rref_mod(np.reshape(B, (-1, n)), ell)
    free = [c for c in range(n) if c not in pivots]
    W = np.zeros((len(free), n), dtype=np.int64)
    for j, f in enumerate(free):
        W[j, f] = 1
        W[j, pivots] = -R[:, f] % ell
    return rref_mod(W, ell)[0]


def _keys(mats):
    return {(len(B), B.tobytes()) for B in mats}


def test_lattice_of_dual_is_the_annihilators(lattice_case):
    """The dual module, where g acts by (A^-1)^T, has the submodules U^perp."""
    _, mod, lattice = lattice_case
    n, ell = mod.dim, mod.ell
    dual = GModule(ell, n, [homology._matinv(A, ell).T.copy() for A in mod.action],
                   None)
    annihilators = [_perp(U, n, ell) for U in lattice]
    assert _keys(submodule_lattice(dual)) == _keys(annihilators)
    assert len(_keys(annihilators)) == len(lattice)


def test_lattice_closed_under_intersection(lattice_case):
    _, mod, lattice = lattice_case
    n, ell = mod.dim, mod.ell
    keys = _keys(lattice)
    for U in lattice:
        for W in lattice:
            meet = _perp(np.vstack([_perp(U, n, ell), _perp(W, n, ell)]), n, ell)
            assert (len(meet), meet.tobytes()) in keys


def test_invariant_submodules_infeasible_scan():
    _, sd = _psl2_schreier(13)
    mod = kernel_mod_ell_homology(sd, 2)
    assert 2 ** mod.dim > SUBSPACE_SCAN_LIMIT
    with pytest.raises(ScanInfeasibleError,
                       match=r"^submodule lattice: 2\^28 vectors \(PSL\(2,13\), "
                             r"ell = 2, dim 28\) exceed the limit 2000000$"):
        invariant_submodules(mod, 7)
    # 0 and M need no lattice
    assert [len(B) for B in invariant_submodules(mod, 0)] == [0]
    assert (invariant_submodules(mod, 28)[0] == np.eye(28, dtype=np.int64)).all()


def _plus_trivial(mod, k):
    """mod + F_ell^k, with G acting trivially on the second summand."""
    n = mod.dim + k
    action = []
    for A in mod.action:
        B = np.eye(n, dtype=np.int64)
        B[:mod.dim, :mod.dim] = A
        action.append(B)
    return GModule(mod.ell, n, action, None)


@pytest.mark.parametrize("name,k", [("PSL(2,7) mod 7", 0), ("PSL(2,7) mod 7", 1),
                                    ("C3 torus mod 3", 2)])
def test_lines_and_hyperplanes_beyond_the_lattice(name, k, monkeypatch):
    """Lines and hyperplanes do not need the lattice: with the limit below
    ell^dim they still answer, and agree with the lattice at the normal limit."""
    mod = _plus_trivial(_module(name), k)
    n, ell = mod.dim, mod.ell
    lattice = submodule_lattice(mod)
    expected = {d: [B.tolist() for B in lattice if len(B) == d] for d in (1, n - 1)}
    monkeypatch.setattr(homology, "SUBSPACE_SCAN_LIMIT", ell ** n - 1)
    with pytest.raises(ScanInfeasibleError, match="^submodule lattice: "):
        submodule_lattice(mod)
    for d in (1, n - 1):
        assert [B.tolist() for B in invariant_submodules(mod, d)] == expected[d]
    lines = len(expected[1])
    if lines:  # a limit below the count of lines is refused with the count
        monkeypatch.setattr(homology, "SUBSPACE_SCAN_LIMIT", lines - 1)
        message = (rf"^invariant lines: {lines} lines \(module, ell = {ell}, "
                   rf"dim {n}\) exceed the limit {lines - 1}$")
        with pytest.raises(ScanInfeasibleError, match=message):
            invariant_submodules(mod, 1)


def _trivial_or_plus_trivial(name, k):
    if name == "trivial":
        eye = np.eye(k, dtype=np.int64)
        return GModule(7, k, [eye, eye], None)
    return _plus_trivial(_module(name), k)


@pytest.mark.parametrize("name,k", [("trivial", 4), ("PSL(2,7) mod 7", 0),
                                    ("PSL(2,7) mod 7", 2)])
def test_invariant_lines_come_in_scan_order(name, k):
    """The one sort of all lines by (pivot, row) is the `_scan_order` sort."""
    mod = _trivial_or_plus_trivial(name, k)
    for actions in (mod.action, [A.T for A in mod.action]):
        lines = homology._invariant_lines(mod, actions, "lines")
        assert all(B.shape == (1, mod.dim) for B in lines)
        expected = sorted(lines, key=homology._scan_order)
        assert [B.tolist() for B in lines] == [B.tolist() for B in expected]
    assert len(homology._invariant_lines(mod, mod.action, "lines")) == (
        (7 ** k - 1) // 6)


@pytest.mark.parametrize("name,k", [("trivial", 4), ("PSL(2,7) mod 7", 0),
                                    ("PSL(2,7) mod 7", 2), ("C3 torus mod 3", 2)])
def test_hyperplanes_read_off_their_lines(name, k):
    """The hyperplanes built from their transposed-invariant lines f are the
    RREF null spaces of f, and their one lexsort is the `_scan_order` sort."""
    mod = _trivial_or_plus_trivial(name, k)
    lines = homology._invariant_lines(mod, [A.T for A in mod.action], "hyperplanes")
    expected = sorted((homology._null_space(f, mod.ell) for f in lines),
                      key=homology._scan_order)
    found = invariant_submodules(mod, mod.dim - 1)
    assert all(B.shape == (mod.dim - 1, mod.dim) for B in found)
    assert [B.tolist() for B in found] == [B.tolist() for B in expected]
    if name == "trivial":
        assert len(found) == (7 ** k - 1) // 6


def test_extension_by_full_module_is_base(klein):
    G, _, mod = klein
    full = invariant_submodules(mod, 6)[0]
    E = extension_quotient(mod, full)
    assert E.group.order == G.order
    assert E.module_dim == 0


def test_klein_quotients_share_one_group_table(monkeypatch):
    """G's multiplication table depends only on the module, so the two
    quotients of the Klein job make one |G| x |G| `product_table` batch."""
    shapes = []
    product_table = FinGroup.product_table

    def recording(self, A, B):
        table = product_table(self, A, B)
        shapes.append((self.order, table.shape))
        return table

    monkeypatch.setattr(FinGroup, "product_table", recording)
    assert len(klein_extension_groups()) == 2
    assert shapes.count((168, (168, 168))) == 1


def test_extension_by_full_module_splits(klein):
    """E = G splits: the section x -> ax, y -> ay is an isomorphism onto <ax, ay>."""
    G, sd, mod = klein
    E = extension_quotient(mod, np.eye(mod.dim, dtype=np.int64))
    assert E.split is True
    gx, gy = sd.gen_images
    project = np.array(E.group.keys) % G.order
    lifts = [np.flatnonzero(project == g).tolist() for g in (gx, gy)]
    assert [len(ls) for ls in lifts] == [1, 1]
    ax, ay = lifts[0][0], lifts[1][0]
    # brute-force oracle of test_pair_iso.py, across the two groups
    words = _word_map(G, (gx, gy))
    section = [None] * G.order
    for i, w in words.items():
        section[i] = _evaluate(E.group, w, (ax, ay))
    assert sorted(section) == list(range(E.group.order))
    assert all(section[G.mul(a, b)] == E.group.mul(section[a], section[b])
               for a in range(G.order) for b in range(G.order))
    assert all(project[section[i]] == i for i in range(G.order))


def test_extension_orders_and_projection(klein):
    G, _, mod = klein
    for U in invariant_submodules(mod, 3):
        E = extension_quotient(mod, U)
        assert E.group.order == 1344  # 168 * 2^3
        assert E.ell == 2 and E.module_dim == 3
        project = np.array(E.group.keys) % G.order
        # projection is a homomorphism onto G
        for i, j in [(1, 2), (100, 700), (1343, 5)]:
            k = E.group.mul(i, j)
            assert project[k] == G.mul(project[i], project[j])
        # kernel of the projection is elementary abelian of order 8
        ker = [i for i in range(E.group.order) if project[i] == 0]
        assert len(ker) == 8
        assert all(E.group.element_order(i) in (1, 2) for i in ker)


def _scalar_quotient(mod, U):
    """Oracle arithmetic in M/U, one vector at a time: the free columns of
    U's RREF, coordinates modulo U, and the value of a closed word."""
    sd, ell = mod.schreier, mod.ell
    RU, pivotsU = rref_mod(U, ell) if len(U) else (None, [])
    freeU = [c for c in range(mod.dim) if c not in pivotsU]

    def to_quotient(coords):
        v = [int(a) % ell for a in coords]
        for i, c in enumerate(pivotsU):
            v = [(a - v[c] * int(r)) % ell for a, r in zip(v, RU[i])]
        return [v[c] for c in freeU]

    def word_value(word):
        vec, end = rewrite(sd, word)
        assert end == 0
        return to_quotient(_quotient_coords(vec, mod._block, mod._pivots,
                                            mod._free, ell))

    return freeU, to_quotient, word_value


def _scalar_cocycle(mod, U):
    """Oracle for the cocycle table: c(g, h) in M/U by rewriting
    sigma(g) sigma(h) sigma(gh)^-1."""
    sd = mod.schreier
    tree, mul = _queue_tree(sd.group, *sd.gen_images)[0], tuple_mul(sd.group)
    _, _, word_value = _scalar_quotient(mod, U)

    def coc(g, h):
        return word_value(tree[g] + tree[h] + inverse_word(tree[mul(g, h)]))

    return coc


def _scalar_left_generators(mod, U):
    """Oracle for the extension's generators: left multiplication by the lifts
    of x and y, one point (v, g) = from_digits(v) * |G| + g at a time."""
    sd, ell = mod.schreier, mod.ell
    G = sd.group
    mul = tuple_mul(G)
    freeU, to_quotient, word_value = _scalar_quotient(mod, U)
    qdim = len(freeU)
    tree = _queue_tree(G, *sd.gen_images)[0]

    def left_gen_perm(letter, s):
        w = word_value([(letter, 1)] + inverse_word(tree[s]))
        A = mod.action_of(s)
        rho_cols = [to_quotient(A[:, c]) for c in freeU]
        c_row = [word_value(tree[s] + tree[g] + inverse_word(tree[mul(s, g)]))
                 for g in range(G.order)]
        images = []
        for point in range(ell ** qdim * G.order):
            vc, g = divmod(point, G.order)
            v = to_digits(vc, ell, qdim)
            sv = [sum(v[j] * rho_cols[j][i] for j in range(qdim)) % ell
                  for i in range(qdim)]
            v2 = [(w[i] + sv[i] + c_row[g][i]) % ell for i in range(qdim)]
            images.append(from_digits(v2, ell) * G.order + mul(s, g))
        return tuple(images)

    gx, gy = sd.gen_images
    return [left_gen_perm(0, gx), left_gen_perm(1, gy)]


def _c3_mod_three():
    """The torus kernel of (3,3,3) -> C3 at ell = 3: a 2-dim module, so the
    zero submodule gives a quotient of dimension 2 (|E| = 27)."""
    G = catalog.cyclic(3)
    g = G.index[G.generators[0]]
    return kernel_mod_ell_homology(schreier_data((3, 3, 3), G, g, g), 3)


def test_extension_generators_match_scalar_oracle(klein):
    _, _, mod = klein
    cases = [(mod, U) for U in invariant_submodules(mod, 3)]
    cases.append((mod, np.eye(mod.dim, dtype=np.int64)))
    c3 = _c3_mod_three()
    cases.append((c3, np.zeros((0, c3.dim), dtype=np.int64)))
    for m, U in cases:
        E = extension_quotient(m, U)
        assert E.group.generators == _scalar_left_generators(m, U)
    assert [E.module_dim, E.group.order, E.ell] == [2, 27, 3]


ORACLE_EXTENSIONS = {
    "2^3.PSL(2,7)#1": lambda mod: (mod, invariant_submodules(mod, 3)[0]),
    "2^3.PSL(2,7)#2": lambda mod: (mod, invariant_submodules(mod, 3)[1]),
    "U = M": lambda mod: (mod, np.eye(mod.dim, dtype=np.int64)),
    "C3 mod 3": lambda mod: (_c3_mod_three(), np.zeros((0, 2), dtype=np.int64)),
}


def _split_oracle(P, G, gens):
    """Oracle for the splitting test on the permutation build P: some lifts
    of the generators have the canonical Cayley key of gens in G."""
    key = kernel_key(G, gens)
    tables = [{i: P.right_mult_table(i) for i in range(P.order)
               if P.elements[i][0] % G.order == g} for g in gens]
    return any(tuple(cayley_labels([tx, ty])) == key
               for tx in tables[0].values() for ty in tables[1].values())


@pytest.mark.parametrize("case", ORACLE_EXTENSIONS.values(),
                         ids=ORACLE_EXTENSIONS.keys())
def test_product_rule_matches_permutation_build(klein, case):
    """Oracle: the permutation group of the generator lifts' left
    multiplications, closed by `group_from_generators`."""
    m, U = case(klein[2])
    ext = extension_quotient(m, U)
    E = ext.group
    P = group_from_generators(_scalar_left_generators(m, U))
    assert ext.split == _split_oracle(P, m.schreier.group, m.schreier.gen_images)
    inverses = [P.index[pinv(e)] for e in P.elements]
    assert E.order == P.order
    assert E.keys == [e[0] for e in P.elements]
    rng = random.Random(E.order)
    pairs = [(rng.randrange(E.order), rng.randrange(E.order)) for _ in range(500)]
    expected = [P.mul(i, j) for i, j in pairs]
    assert [E.mul(i, j) for i, j in pairs] == expected
    assert E.products(*zip(*pairs)).tolist() == expected
    assert E.element_orders() == P.element_orders()
    assert E.inverse_indices() == inverses
    assert E.conjugacy_classes() == P.conjugacy_classes()


def _twisted_product(mod, U, monkeypatch):
    """The `TwistedProduct` that `extension_quotient` hands to `group_from_rule`."""
    rules = []

    def capture(rule, *args, **kwargs):
        rules.append(rule)
        return group_from_rule(rule, *args, **kwargs)

    monkeypatch.setattr(homology, "group_from_rule", capture)
    extension_quotient(mod, U)
    return rules[0]


def _klein_mod_seven():
    """PSL(2,7) mod 7 and its invariant 3-dim submodule."""
    mod = kernel_mod_ell_homology(_klein_schreier()[1], 7)
    return mod, invariant_submodules(mod, 3)[0]


# at ell = 2 a wrong sign on inverse letters cannot show (-1 = 1 mod 2)
COCYCLE_CASES = {
    "2^3.PSL(2,7)#1": lambda mod: (mod, invariant_submodules(mod, 3)[0]),
    "C3 mod 3, U = 0": lambda mod: (_c3_mod_three(), np.zeros((0, 2), dtype=np.int64)),
    "PSL(2,7) mod 7, dim U = 3": lambda mod: _klein_mod_seven(),
}


@pytest.mark.parametrize("case", COCYCLE_CASES.values(), ids=COCYCLE_CASES.keys())
def test_cocycle_table_matches_rewriting_on_every_pair(klein, case, monkeypatch):
    mod, U = case(klein[2])
    table = _twisted_product(mod, U, monkeypatch).coc
    coc = _scalar_cocycle(mod, U)
    n = mod.schreier.group.order
    assert table.tolist() == [[coc(g, h) for h in range(n)] for g in range(n)]


def test_verify_cocycle_catches_one_corrupted_entry(klein, monkeypatch):
    _, _, mod = klein
    U = invariant_submodules(mod, 3)[0]
    prod = _twisted_product(mod, U, monkeypatch)
    coc = _scalar_cocycle(mod, U)

    def direct(I, J):
        return np.array([coc(g, h) for g, h in zip(I, J)])

    homology._verify_cocycle(prod, direct)
    g, h, _ = homology._cocycle_samples(prod.n)[0]
    bad = prod.coc.copy()
    bad[g, h, 0] = 1 - bad[g, h, 0]
    bad_prod = dataclasses.replace(prod, coc=bad)
    with pytest.raises(CocycleError, match="direct rewriting"):
        homology._verify_cocycle(bad_prod, direct)
    # rewriting that agrees with the bad entry leaves the identity to catch it
    with pytest.raises(CocycleError, match="identity violated"):
        homology._verify_cocycle(bad_prod, lambda I, J: bad[I, J])


def _presentation_lifts(ext, gx, gy):
    """Oracle for the splitting test: the lift pairs (a, b) of (gx, gy) with
    a^2 = b^3 = (ab)^7 = [a, b]^4 = 1, the relators of PSL(2,7) on a
    (2,3,7) generating pair.  Such a pair generates a complement, and a
    section maps (gx, gy) to one."""
    E = ext.group
    project = np.array(E.keys) % ext.base.order
    a, b = np.meshgrid(np.flatnonzero(project == gx), np.flatnonzero(project == gy))
    a, b = a.ravel(), b.ravel()

    def power(u, k):
        out = u
        for _ in range(k - 1):
            out = E.products(out, u)
        return out

    ab = E.products(a, b)
    bb = E.products(b, b)
    # [a, b] = a^-1 b^-1 a b = a b^2 a b where a^2 = b^3 = 1
    comm = E.products(E.products(E.products(a, bb), a), b)
    ok = ((power(a, 2) == 0) & (power(b, 3) == 0) & (power(ab, 7) == 0)
          & (power(comm, 4) == 0))
    return int(ok.sum())


@pytest.mark.parametrize("ell,dim_U,order,pairs", [
    (7, 3, 57624, 343),
    (2, 3, 1344, 0),  # both Klein quotients
    (2, 0, 10752, 0),
], ids=["7^3:PSL(2,7)", "2^3.PSL(2,7)", "2^6.PSL(2,7)"])
def test_split_flag_matches_presentation_oracle(ell, dim_U, order, pairs):
    G, sd = _klein_schreier()
    mod = kernel_mod_ell_homology(sd, ell)
    for U in invariant_submodules(mod, dim_U):
        ext = extension_quotient(mod, U, cap=10 ** 5)
        assert ext.group.order == order
        assert _presentation_lifts(ext, *sd.gen_images) == pairs
        assert ext.split is (pairs > 0)


@pytest.mark.parametrize("dim_U,order,pairs", [(0, 54, 9), (1, 18, 3)])
def test_split_flag_with_inverse_tree_moves(dim_U, order, pairs):
    """The (2,3,6) triangle group Z^2:C6 splits, and so does each quotient
    of its kernel homology mod 3: the lift pairs (a, b) of (x, y) with
    a^2 = b^3 = [a, b] = 1, the relators of C6, generate complements.  The
    Schreier tree of C6 reaches cosets by y^-1 moves, where the section
    takes f(u s^-1) = f(u) - (rho(u s^-1) v_s + c(u s^-1, s)); a + there
    reads non-split, and at ell = 2 the sign could not show."""
    G = catalog.cyclic(6)
    orders = G.element_orders()
    gx, gy = orders.index(2), orders.index(3)
    sd = schreier_data((2, 3, 6), G, gx, gy)
    assert any((move % 2).any() for _, _, move in sd.levels)
    mod = kernel_mod_ell_homology(sd, 3)
    (U,) = invariant_submodules(mod, dim_U)
    ext = extension_quotient(mod, U)
    E = ext.group
    assert E.order == order
    project = np.array(E.keys) % G.order
    a, b = np.meshgrid(np.flatnonzero(project == gx), np.flatnonzero(project == gy))
    a, b = a.ravel(), b.ravel()
    ok = ((E.products(a, a) == 0) & (E.products(E.products(b, b), b) == 0)
          & (E.products(a, b) == E.products(b, a)))
    assert int(ok.sum()) == pairs
    assert ext.split is (pairs > 0)


def test_order_10752_extension(klein):
    """U = 0 gives 2^6.PSL(2,7), the order of the genus-129 Hurwitz group."""
    G, _, mod = klein
    ext = extension_quotient(mod, np.zeros((0, mod.dim), dtype=np.int64))
    E = ext.group
    assert (E.order, ext.module_dim, ext.split) == (10752, 6, False)
    rng = random.Random(10752)
    for _ in range(2000):
        i, j = rng.randrange(E.order), rng.randrange(E.order)
        assert E.keys[E.mul(i, j)] % G.order == G.mul(E.keys[i] % G.order,
                                                      E.keys[j] % G.order)
    assert E._rows is None  # no permutation tuple of degree 10752 was built


def test_splitting_test_builds_no_right_mult_table(klein, monkeypatch):
    _, _, mod = klein
    subs = invariant_submodules(mod, 3)

    def refuse(self, i):
        raise AssertionError("right_mult_table built")

    monkeypatch.setattr(FinGroup, "right_mult_table", refuse)
    assert [extension_quotient(mod, U).split for U in subs] == [False, False]
    assert extension_quotient(mod, np.eye(mod.dim, dtype=np.int64)).split is True


def test_extension_groups_build_no_element_array():
    # the order-1344 groups multiply codes, so they never hold their
    # 1344 permutation rows of degree 1344 after their build
    for ext in klein_extension_groups():
        assert ext.group._rows is None


def test_genus17_pipeline_distinct_kernels():
    exts = klein_extension_groups()
    assert len(exts) == 2
    all_classes = []
    for ext in exts:
        assert ext.group.order == 1344
        assert ext.split is False  # computed, not assumed
        classes = dessins.enumerate_triples(ext.group, (2, 3, 7))
        assert classes and all(c.genus == 17 for c in classes)
        all_classes.extend((ext.group, c.representative) for c in classes)
    # distinct kernels: exactly two isomorphism classes across both groups
    kept = []
    for G, rep in all_classes:
        if not any(pair_isomorphic(H, (r.x, r.y), (rep.x, rep.y), H=G)
                   for H, r in kept):
            kept.append((G, rep))
    assert len(kept) == 2
