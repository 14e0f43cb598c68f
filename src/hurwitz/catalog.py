"""Constructors for the group families the censuses range over.

Every constructor checks its enumerated order against the family's
closed-form order.  A small text format ("degree n" / "name s" / one
permutation per line) supports data-pack groups.
"""

from __future__ import annotations

from itertools import product
from math import factorial
from pathlib import Path

import numpy as np

from .fields import Fq, factorize, is_prime, prime_power
from .group import DEFAULT_CAP, FinGroup, group_from_generators

# The catalog's bounds: PSL/SL/PGL(2,q) for prime powers q <= PSL2_Q_MAX,
# symmetric and alternating groups of degree <= MAX_ALT_DEGREE.
PSL2_Q_MAX = 32
MAX_ALT_DEGREE = 8


class _OrderMismatch(RuntimeError):
    pass


def _check_order(G: FinGroup, expected: int) -> FinGroup:
    if G.order != expected:
        raise _OrderMismatch(
            f"{G.name}: enumerated order {G.order} != closed form {expected}")
    return G


# -- elementary families -----------------------------------------------------

def abelian_name(orders) -> str:
    """Name of the direct product of cyclic groups of these orders, in this
    order, as `cyclic` and `abelian` give it."""
    return "x".join(f"C{m}" for m in orders)


def cyclic(n: int, cap=DEFAULT_CAP) -> FinGroup:
    if n < 1:
        raise ValueError("cyclic order must be >= 1")
    if n == 1:
        return group_from_generators([()], cap=cap, name=abelian_name([1]))
    gen = tuple((i + 1) % n for i in range(n))
    return _check_order(group_from_generators([gen], cap=cap, name=abelian_name([n])), n)


def abelian(orders, cap=DEFAULT_CAP) -> FinGroup:
    """Direct product of cyclic groups on disjoint point sets."""
    orders = [int(m) for m in orders]
    if not orders or any(m < 1 for m in orders):
        raise ValueError("abelian factors must be positive")
    degree = sum(orders)
    gens = []
    offset = 0
    order = 1
    for m in orders:
        images = list(range(degree))
        for i in range(m):
            images[offset + i] = offset + (i + 1) % m
        gens.append(tuple(images))
        offset += m
        order *= m
    return _check_order(group_from_generators(gens, cap=cap, name=abelian_name(orders)),
                        order)


def dihedral(m: int, cap=DEFAULT_CAP) -> FinGroup:
    """Dihedral group of order 2m acting on m points."""
    if m < 3:
        raise ValueError("dihedral parameter must be >= 3")
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))
    return _check_order(group_from_generators([rot, ref], cap=cap, name=f"D{2 * m}"),
                        2 * m)


def dicyclic(m: int, cap=DEFAULT_CAP) -> FinGroup:
    """Dicyclic group of order 4m (m = 2 is the quaternion group).

    Elements a^i b^e are encoded as points e*2m + i of the regular action,
    with b^2 = a^m and b^-1 a b = a^-1.
    """
    if m < 2:
        raise ValueError("dicyclic parameter must be >= 2")
    n = 2 * m

    def mul(i, e, j, d):
        if e == 0:
            return (i + j) % n, d
        if d == 0:
            return (i - j) % n, 1
        return (i - j + m) % n, 0

    def right_by(j, d):
        images = []
        for s in range(4 * m):
            e, i = divmod(s, n)
            i2, e2 = mul(i, e, j, d)
            images.append(e2 * n + i2)
        return tuple(images)

    a = right_by(1, 0)
    b = right_by(0, 1)
    return _check_order(group_from_generators([a, b], cap=cap, name=f"Dic{m}"), 4 * m)


def symmetric(n: int, cap=DEFAULT_CAP) -> FinGroup:
    if n < 2:
        raise ValueError("symmetric degree must be >= 2")
    cyc = tuple((i + 1) % n for i in range(n))
    swap = tuple([1, 0] + list(range(2, n)))
    return _check_order(group_from_generators([cyc, swap], cap=cap, name=f"S{n}"),
                        factorial(n))


def alternating(n: int, cap=DEFAULT_CAP) -> FinGroup:
    if n < 3:
        raise ValueError("alternating degree must be >= 3")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        cyc = tuple((i + 1) % n for i in range(n))
        gens = [three, cyc]
    else:
        cyc = tuple([0] + [1 + (i + 1) % (n - 1) for i in range(n - 1)])
        gens = [three, cyc]
    return _check_order(group_from_generators(gens, cap=cap, name=f"A{n}"),
                        factorial(n) // 2)


def direct_product(G: FinGroup, H: FinGroup, cap=DEFAULT_CAP,
                   name=None) -> FinGroup:
    """G x H acting on the disjoint union of the two point sets."""
    gens = [tuple(g) + tuple(range(G.degree, G.degree + H.degree))
            for g in G.generators]
    gens += [tuple(range(G.degree)) + tuple(G.degree + i for i in h)
             for h in H.generators]
    P = group_from_generators(gens, cap=cap, name=name or f"{G.name}x{H.name}")
    return _check_order(P, G.order * H.order)


def semidirect(mod_orders, matrices, cap=DEFAULT_CAP, name=None) -> FinGroup:
    """(Z/n_1 x ... x Z/n_k) : M for a matrix group M acting on the module.

    The action is on the |V| module points: translations by unit vectors
    together with the matrix maps.  Point stabilizer of 0 is the matrix
    group, so the permutation group is V : <matrices> faithfully.
    """
    mods = [int(m) for m in mod_orders]
    if not mods or any(m < 2 for m in mods):
        raise ValueError("module factor orders must be >= 2")
    k = len(mods)
    points = list(product(*map(range, mods)))
    pt_index = {pt: i for i, pt in enumerate(points)}
    vol = len(points)

    gens = []
    for axis in range(k):
        images = []
        for pt in points:
            moved = list(pt)
            moved[axis] = (moved[axis] + 1) % mods[axis]
            images.append(pt_index[tuple(moved)])
        gens.append(tuple(images))
    mat_perms = []
    for M in matrices:
        if len(M) != k or any(len(row) != k for row in M):
            raise ValueError("matrix shape must match the number of module factors")
        images = []
        for pt in points:
            img = tuple(sum(M[i][j] * pt[j] for j in range(k)) % mods[i]
                        for i in range(k))
            images.append(pt_index[img])
        if sorted(images) != list(range(vol)):
            raise ValueError(f"matrix {M} is not invertible on the module")
        mat_perms.append(tuple(images))
        gens.append(tuple(images))
    mat_group_order = 1
    if mat_perms:
        mat_group_order = group_from_generators(mat_perms, cap=cap).order
    label = name or ("x".join(f"C{m}" for m in mods) +
                     ":" + "/".join(";".join(",".join(str(x) for x in row)
                                             for row in M) for M in matrices))
    return _check_order(group_from_generators(gens, cap=cap, name=label),
                        vol * mat_group_order)


def metacyclic(m: int, t: int, cap=DEFAULT_CAP) -> FinGroup:
    """C_m : C_2 with the involution acting by multiplication by t (t^2 = 1 mod m)."""
    if (t * t) % m != 1 or t % m == 1:
        raise ValueError(f"multiplier {t} does not define an order-2 action mod {m}")
    return semidirect([m], [[[t]]], cap=cap, name=f"C{m}:C2(t={t % m})")


# -- matrix groups over finite fields ----------------------------------------

def _sl2_generator_matrices(F: Fq):
    """Elementary matrices with parameters running over a field basis."""
    mats = []
    for i in range(F.f):
        alpha = F.p ** i  # code of x^i, an F_p-basis element
        mats.append(((1, alpha), (0, 1)))
        mats.append(((1, 0), (alpha, 1)))
    return mats


def _projective_perm(F: Fq, M):
    """Action of a matrix on the q+1 points of the projective line.

    Points 0..q-1 are the affine field codes, point q is infinity.  z goes
    to (a z + b) / (c z + d) and infinity to a / c, read from the field's
    `tables`; a zero denominator gives infinity.
    """
    (a, b), (c, d) = M
    add, mul, inv = F.tables()
    z = np.arange(F.q)
    num = np.append(add[mul[a, z], b], a)
    den = np.append(add[mul[c, z], d], c)
    return tuple(np.where(den == 0, F.q, mul[num, inv[den]]).tolist())


def _vector_perm(F: Fq, M):
    """Action of a matrix on the nonzero vectors of F_q^2, read from the
    field's `tables`.  Vector (u, v) is point u q + v - 1 (u-major order
    from (0, 1))."""
    (a, b), (c, d) = M
    add, mul, _ = F.tables()
    u, v = np.divmod(np.arange(1, F.q * F.q), F.q)
    images = add[mul[a, u], mul[b, v]] * F.q + add[mul[c, u], mul[d, v]] - 1
    return tuple(images.tolist())


def psl2_order(q: int) -> int:
    """|PSL(2, q)| = q (q^2 - 1) / gcd(2, q - 1)."""
    return q * (q * q - 1) // (2 if q % 2 else 1)


def psl2(q: int, cap=DEFAULT_CAP) -> FinGroup:
    """PSL(2, q) on the q+1 points of the projective line."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    F = Fq(*pp)
    gens = [_projective_perm(F, M) for M in _sl2_generator_matrices(F)]
    return _check_order(group_from_generators(gens, cap=cap, name=f"PSL(2,{q})"),
                        psl2_order(q))


def sl2(q: int, cap=DEFAULT_CAP) -> FinGroup:
    """SL(2, q) acting on the nonzero vectors of F_q^2."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    F = Fq(*pp)
    gens = [_vector_perm(F, M) for M in _sl2_generator_matrices(F)]
    order = q * (q * q - 1)
    return _check_order(group_from_generators(gens, cap=cap, name=f"SL(2,{q})"),
                        order)


def pgl2(q: int, cap=DEFAULT_CAP) -> FinGroup:
    """PGL(2, q) on the projective line (equals PSL for even q)."""
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    F = Fq(*pp)
    mats = _sl2_generator_matrices(F) + [((F.generator(), 0), (0, 1))]
    gens = [_projective_perm(F, M) for M in mats]
    order = q * (q * q - 1)
    return _check_order(group_from_generators(gens, cap=cap, name=f"PGL(2,{q})"),
                        order)


# -- complete catalogs of small orders ---------------------------------------

def groups_of_order_4p(p: int, cap=DEFAULT_CAP):
    """All isomorphism types of order 4p for an odd prime p.

    These are C_{4p}, C_2 x C_{2p}, the dihedral and dicyclic groups, and
    C_p : C_4 exactly when 4 divides p - 1.  For p = 3 the fifth type is
    A_4 instead (the only order-4p group whose Sylow p-subgroup is not
    normal, possible only when p divides 4! / 4).  No CLI path builds
    them all; kept because `perfbench/checks.py` reads them.
    """
    return _joined(*groups_of_order_4p_split(p, cap=cap), cap)


def groups_of_order_4p_split(p: int, cap=DEFAULT_CAP):
    """`groups_of_order_4p` as (abelian types, non-abelian groups): the two
    abelian types are factor lists in the order of their names, unbuilt."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    rest = [dihedral(2 * p, cap=cap), dicyclic(p, cap=cap)]
    if p == 3:
        rest.append(alternating(4, cap=cap))
    if (p - 1) % 4 == 0:
        t = next(t for t in range(2, p) if pow(t, 2, p) == p - 1)
        rest.append(semidirect([p], [[[t]]], cap=cap, name=f"C{p}:C4"))
    return [[4 * p], [2, 2 * p]], rest


def _partitions(e):
    """The partitions of e, as lists of non-increasing parts."""
    if e == 0:
        yield []
        return
    for first in range(e, 0, -1):
        for rest in _partitions(e - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def abelian_types(n: int):
    """All abelian groups of order n, as lists of cyclic factor orders."""
    per_prime = []
    for p, e in sorted(factorize(n).items()):
        per_prime.append([[p ** part for part in lam] for lam in _partitions(e)])
    types = [[]]
    for options in per_prime:
        types = [t + o for t in types for o in options]
    return [sorted(t, reverse=True) for t in types]


def groups_of_order(n: int, cap=DEFAULT_CAP):
    """Catalog groups of order n (not a complete classification in general).

    No CLI path builds them all; kept because `perfbench/checks.py` reads them.
    """
    return _joined(*groups_of_order_split(n, cap=cap), cap)


def groups_of_order_split(n: int, cap=DEFAULT_CAP):
    """`groups_of_order` as (abelian types, non-abelian groups): the
    abelian types are `abelian_types(n)`, unbuilt."""
    out = []
    if n % 2 == 0 and n >= 6:
        m = n // 2
        if m >= 3:
            out.append(dihedral(m, cap=cap))
        for t in range(2, m - 1):
            if (t * t) % m == 1:
                out.append(metacyclic(m, t, cap=cap))
    if n % 4 == 0 and n >= 8:
        out.append(dicyclic(n // 4, cap=cap))
    for k in range(2, MAX_ALT_DEGREE + 1):
        if factorial(k) == n:
            out.append(symmetric(k, cap=cap))
        if factorial(k) // 2 == n and k >= 4:
            out.append(alternating(k, cap=cap))
    for q in range(4, PSL2_Q_MAX + 1):
        if prime_power(q) is None:
            continue
        if psl2_order(q) == n:
            out.append(psl2(q, cap=cap))
        if q % 2 and q * (q * q - 1) == n:
            out.append(sl2(q, cap=cap))
            out.append(pgl2(q, cap=cap))
    if n % 12 == 0 and n > 12:
        out.append(direct_product(cyclic(n // 12, cap=cap),
                                  alternating(4, cap=cap), cap=cap))
    return abelian_types(n), out


def _joined(types, rest, cap):
    """The abelian groups of the given types, then the rest: the lists that
    `perfbench/checks.py` reads from `groups_of_order` and `groups_of_order_4p`."""
    return [abelian(t, cap=cap) if len(t) > 1 else cyclic(t[0], cap=cap)
            for t in types] + rest


# -- generator file format ---------------------------------------------------

def save_group(G: FinGroup, path) -> None:
    """Write G's generators in the generator file format: the data-pack
    writer, public API beside `load_group`; no CLI path calls it."""
    lines = [f"degree {G.degree}", f"name {G.name}"]
    for g in G.generators:
        lines.append(" ".join(str(i) for i in g))
    Path(path).write_text("\n".join(lines) + "\n")


def load_group(path, cap=DEFAULT_CAP) -> FinGroup:
    """Read a group from the generator file format (normative for data packs)."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError(f"{path}: expected degree, name and at least one generator")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "degree":
        raise ValueError(f"{path}: first line must be 'degree n'")
    try:
        degree = int(head[1])
    except ValueError:
        raise ValueError(f"{path}: bad degree {head[1]!r}") from None
    if not lines[1].startswith("name "):
        raise ValueError(f"{path}: second line must be 'name <string>'")
    name = lines[1][5:].strip()
    gens = []
    for ln in lines[2:]:
        try:
            images = tuple(int(tok) for tok in ln.split())
        except ValueError:
            raise ValueError(f"{path}: malformed image index in {ln!r}") from None
        if len(images) != degree:
            raise ValueError(f"{path}: permutation degree {len(images)} != {degree}")
        if sorted(images) != list(range(degree)):
            raise ValueError(f"{path}: line is not a permutation: {ln!r}")
        gens.append(images)
    return group_from_generators(gens, cap=cap, name=name)


# -- group-spec mini-language -------------------------------------------------

def parse_group_spec(spec: str, cap=DEFAULT_CAP) -> FinGroup:
    """Build a group from a spec string like 'psl2:13', 'alt:5' or 'file:PATH'."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"bad group spec {spec!r} (expected FAMILY:PARAMS)")
    try:
        if head == "psl2":
            return psl2(int(rest), cap=cap)
        if head == "sl2":
            return sl2(int(rest), cap=cap)
        if head == "pgl2":
            return pgl2(int(rest), cap=cap)
        if head == "alt":
            return alternating(int(rest), cap=cap)
        if head == "sym":
            return symmetric(int(rest), cap=cap)
        if head == "cyc":
            return cyclic(int(rest), cap=cap)
        if head == "dih":
            return dihedral(int(rest), cap=cap)
        if head == "dic":
            return dicyclic(int(rest), cap=cap)
        if head == "abelian":
            return abelian([int(t) for t in rest.split(",")], cap=cap)
        if head == "semidirect":
            mods_str, _, mats_str = rest.partition(":")
            mods = [int(t) for t in mods_str.split(",")]
            mats = []
            for mat in mats_str.split("/"):
                mats.append([[int(x) for x in row.split(",")]
                             for row in mat.split(";")])
            return semidirect(mods, mats, cap=cap)
        if head == "file":
            return load_group(rest, cap=cap)
    except ValueError as exc:
        raise ValueError(f"bad group spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown group family {head!r} in spec {spec!r}")


# -- Hurwitz census catalog ---------------------------------------------------

CATALOG_VERSION = "builtin-1"


class Catalog:
    """Candidate supply for the (catalog-conditional) Hurwitz census.

    Perfect candidates of a given order are drawn from PSL/SL(2,q) for
    prime powers q <= PSL2_Q_MAX and alternating groups, plus any explicitly
    registered groups (homology-built extensions, data packs).  The solvable
    families of the same order are recorded as searched without being
    enumerated: their abelianizations are nontrivial, so they admit no
    perfect quotient and in particular no triangle-type generating triple.
    """

    def __init__(self, cap=DEFAULT_CAP):
        self.cap = cap
        self.version = CATALOG_VERSION
        self._extra = []
        self._deferred = {}  # order -> builder of extra groups, run on first use
        self._candidates = {}  # order -> perfect candidates, built once

    def add_group(self, G: FinGroup) -> None:
        self._extra.append(G)
        self._candidates.clear()

    def perfect_candidates(self, order: int):
        """Perfect catalog groups of exactly the given order, built once per order."""
        if order not in self._candidates:
            out = []
            for q in range(4, PSL2_Q_MAX + 1):
                if prime_power(q) is None:
                    continue
                if psl2_order(q) == order:
                    out.append(psl2(q, cap=self.cap))
                if q % 2 and q >= 5 and q * (q * q - 1) == order:
                    out.append(sl2(q, cap=self.cap))
            for k in range(5, MAX_ALT_DEGREE + 1):
                if factorial(k) // 2 == order:
                    out.append(alternating(k, cap=self.cap))
            if order in self._deferred:
                # registered before any data-pack group, so listed first
                self._extra[:0] = self._deferred[order](cap=self.cap)
                del self._deferred[order]
            for G in self._extra:
                if G.order == order:
                    out.append(G)
            self._candidates[order] = [G for G in out if G.is_perfect()]
        return list(self._candidates[order])

    def searched_families(self, order: int):
        """Names of catalog groups of this order covered by the perfectness filter."""
        names = [f"C{order}"]
        if order % 2 == 0 and order >= 6:
            names.append(f"D{order}")
        if order % 4 == 0 and order >= 8:
            names.append(f"Dic{order // 4}")
        names.append(f"abelian types ({len(abelian_types(order))})")
        for q in range(4, PSL2_Q_MAX + 1):
            if prime_power(q) is not None and q % 2 and q * (q * q - 1) == order:
                names.append(f"PGL(2,{q})")
        for k in range(2, MAX_ALT_DEGREE + 1):
            if factorial(k) == order:
                names.append(f"S{k}")
        return names


def census_catalog(type_=(2, 3, 7), cap=DEFAULT_CAP, data_pack=None) -> Catalog:
    """Default census catalog, with any data-pack groups as extra candidates.

    Candidates are built per order on demand.  For type (2, 3, 7) the
    homology-built group of order 1344 (genus 17) joins the candidates the
    first time that order is asked for, so a cap below 1344 surfaces as a
    `CapExceededError` of that order alone.
    """
    cat = Catalog(cap=cap)
    if tuple(type_) == (2, 3, 7):
        cat._deferred[1344] = genus17_groups
    if data_pack:
        for path in sorted(Path(data_pack).glob("*.grp")):
            cat.add_group(load_group(path, cap=cap))
    return cat


def genus17_groups(cap=DEFAULT_CAP):
    """The order-1344 Hurwitz group 2^3.PSL(2,7), as its two homology-built
    extension quotients.

    The quotients are isomorphic; the census keeps the first, which carries
    both dessins of the chiral pair of genus 17.
    """
    from . import homology  # deferred to avoid an import cycle

    return [ext.group for ext in homology.klein_extension_groups(cap=cap)]
