"""Correctness checks for the reports printed by the benchmark's jobs.

Every expected value comes from the literature or from arithmetic done here,
apart from the library:

- Conder's list of Hurwitz groups ("Hurwitz groups: a brief survey",
  Bull. AMS 23, 1990) for the census counts;
- Macbeath's classification of Hurwitz PSL(2,q) for the class counts;
- |Aut PSL(2,q)| = |PGammaL(2,q)|, which acts freely on generating pairs, for
  the class weights;
- the Riemann-Hurwitz and Lefschetz identities for genera and characters;
- the Schreier index formula for the kernel's rank;
- sympy.combinatorics for group orders, on generators built here;
- permutation arithmetic written in this file for origami witnesses and
  refusals.

`check_job(argv, report)` raises CheckError naming what failed.
"""

from __future__ import annotations

import functools

TYPE_237 = (2, 3, 7)

# Hurwitz curves of each genus up to 17 (Conder 1990); every other genus up
# to 17 has none.  The next Hurwitz genus is 118.
HURWITZ_COUNTS = {3: 1, 7: 1, 14: 3, 17: 2}
MAX_LISTED_GENUS = 17

# The mod-2 homology of the Klein quartic's kernel is the sum of the two
# 3-dimensional irreducible PSL(2,7)-modules: (q, ell, dim) -> count.
INVARIANT_SUBMODULES = {(7, 2, 3): 2}


class CheckError(AssertionError):
    """A report disagrees with its independent expectation."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- arithmetic of PSL(2,q) ----------------------------------------------------

def prime_power(q: int):
    """(p, f) with q = p^f, or None."""
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            return (p, f) if q == 1 else None
    return None


def psl2_order(q: int) -> int:
    p, _ = prime_power(q)
    return q * (q * q - 1) // (1 if p == 2 else 2)


def aut_psl2_order(q: int) -> int:
    """|PGammaL(2,q)| = f q (q^2 - 1) for q = p^f."""
    _, f = prime_power(q)
    return f * q * (q * q - 1)


def macbeath_count(q: int) -> int:
    """Number of (2,3,7) dessin classes of PSL(2,q) (Macbeath 1969)."""
    p, f = prime_power(q)
    if q == 7:
        return 1
    if f == 1 and q % 7 in (1, 6):
        return 3
    if f == 3 and p % 7 in (2, 3, 4, 5):
        return 1
    return 0


def hurwitz_genus(order: int) -> int:
    expect(order % 84 == 0, f"order {order} is not a multiple of 84")
    return 1 + order // 84


class _Field:
    """F_q as integers 0..q-1 (base-p digits of a polynomial mod an irreducible)."""

    def __init__(self, q: int):
        self.p, self.f = prime_power(q)
        self.q = q
        p, f = self.p, self.f
        # monic degree-f polynomial with no root: irreducible for f <= 3
        self.modulus = 0 if f == 1 else next(
            c for c in range(p ** f)
            if all(self._eval(self._digits(c) + [1], x) for x in range(p)))
        self.mul_table = [[self._mul(a, b) for b in range(q)] for a in range(q)]

    def _digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.f)]

    def _eval(self, coeffs, x):
        return sum(c * x ** i for i, c in enumerate(coeffs)) % self.p

    def _mul(self, a, b):
        p, f = self.p, self.f
        prod = [0] * (2 * f)
        for i, x in enumerate(self._digits(a)):
            for j, y in enumerate(self._digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        mod = self._digits(self.modulus)  # x^f = -(mod)
        for k in range(2 * f - 1, f - 1, -1):
            c = prod[k]
            prod[k] = 0
            for i, m in enumerate(mod):
                prod[k - f + i] = (prod[k - f + i] - c * m) % p
        return sum(c * p ** i for i, c in enumerate(prod[:f]))

    def add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return sum(((x + y) % self.p) * self.p ** i
                   for i, (x, y) in enumerate(zip(da, db)))

    def neg(self, a):
        return sum(((-x) % self.p) * self.p ** i
                   for i, x in enumerate(self._digits(a)))

    def inv(self, a):
        return self.mul_table[a].index(1)

    def primitive(self):
        for w in range(2, self.q):
            x, k = w, 1
            while x != 1:
                x, k = self.mul_table[x][w], k + 1
            if k == self.q - 1:
                return w
        return 1  # q = 2, 3: the multiplicative group is trivial or {1, 2}


def psl2_generators(q: int):
    """PSL(2,q) on the projective line F_q + {inf}, inf = point q:
    z -> z + 1, z -> -1/z and z -> w^2 z for a primitive w."""
    F = _Field(q)
    inf = q
    w2 = F.mul_table[F.primitive()][F.primitive()]
    t = [F.add(z, 1) for z in range(q)] + [inf]
    s = [inf if z == 0 else F.neg(F.inv(z)) for z in range(q)] + [0]
    d = [F.mul_table[w2][z] for z in range(q)] + [inf]
    return [tuple(t), tuple(s), tuple(d)]


@functools.lru_cache(maxsize=None)
def sympy_psl2_order(q: int) -> int:
    """Order of PSL(2,q), computed by sympy from `psl2_generators`."""
    from sympy.combinatorics import Permutation, PermutationGroup

    gens = [Permutation(list(g)) for g in psl2_generators(q)]
    return int(PermutationGroup(gens).order())


def check_psl2_order(q: int, order: int) -> None:
    expect(order == psl2_order(q),
           f"PSL(2,{q}) reported with order {order}, formula gives {psl2_order(q)}")
    expect(order == sympy_psl2_order(q),
           f"PSL(2,{q}) reported with order {order}, sympy gives {sympy_psl2_order(q)}")


def _psl2_q(name: str):
    """q from a group name 'PSL(2,q)' or a spec 'psl2:q', else None."""
    if name.startswith("psl2:"):
        return int(name[5:])
    if name.startswith("PSL(2,") and name.endswith(")"):
        return int(name[6:-1])
    return None


# -- permutation arithmetic, in the library's convention (a*b)[i] = a[b[i]] ----

def compose(a, b):
    return tuple(a[i] for i in b)


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def perm_order(a) -> int:
    k, x, e = 1, a, tuple(range(len(a)))
    while x != e:
        x, k = compose(x, a), k + 1
    return k


def bfs_elements(gens):
    """Elements in the library's canonical order: BFS from the identity,
    right-multiplying by the generators in their given order."""
    e = tuple(range(len(gens[0])))
    elems, seen = [e], {e}
    for u in elems:
        for s in gens:
            v = compose(u, s)
            if v not in seen:
                seen.add(v)
                elems.append(v)
    return elems


def commutator(a, b):
    """a^-1 b^-1 a b, as the library defines an origami pair's commutator."""
    return compose(compose(inverse(a), inverse(b)), compose(a, b))


def order_profile(elems):
    return sorted(perm_order(x) for x in elems)


def has_origami_pair(elems) -> bool:
    """Brute force: is some pair's commutator of order 2, and does the pair generate?"""
    n = len(elems)
    for a in elems:
        for b in elems:
            c = commutator(a, b)
            if c != elems[0] and compose(c, c) == elems[0] \
                    and len(bfs_elements([a, b])) == n:
                return True
    return False


def groups_of_order_4p_count(p: int) -> int:
    """Isomorphism types of order 4p, p an odd prime: C4p, C2xC2p, D2p, Dic_p,
    plus A4 when p = 3 and C_p:C_4 when 4 | p - 1."""
    return 4 + (p == 3) + ((p - 1) % 4 == 0)


def catalog_generators(order: int) -> dict:
    """Generators of the library's catalog groups of one order, by name.

    The library supplies only which group a report names; every property of
    the group is then computed here.
    """
    from hurwitz import catalog

    groups = list(catalog.groups_of_order(order))
    p = order // 4
    if order % 4 == 0 and p > 2 and prime_power(p) == (p, 1):
        groups += catalog.groups_of_order_4p(p)
    return {G.name: [tuple(g) for g in G.generators] for G in groups}


# -- per-subcommand checks -----------------------------------------------------

def _options(argv):
    """Flag -> value for '--flag value' pairs; bare flags map to True."""
    opts, i = {}, 1
    while i < len(argv):
        key = argv[i]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def _check_class_237(cls, order, q=None):
    g = hurwitz_genus(order)
    expect(cls["genus"] == g, f"class genus {cls['genus']} != 1 + {order}/84 = {g}")
    expect(cls["representative"]["orders"] == list(TYPE_237),
           f"representative orders {cls['representative']['orders']}")
    expect([e[0] for e in cls["passport"]["entries"]] == list(TYPE_237),
           f"passport orders {cls['passport']['entries']}")
    if q is not None:
        expect(cls["class_size"] == aut_psl2_order(q),
               f"PSL(2,{q}) class weight {cls['class_size']} != "
               f"|PGammaL(2,{q})| = {aut_psl2_order(q)}")


def check_character(ch, order):
    """H^1 character identities of a (2,3,7) cover with group of this order."""
    g = hurwitz_genus(order)
    rows = ch["rows"]
    expect(ch["genus"] == g, f"character genus {ch['genus']} != {g}")
    expect(sum(r["class_size"] for r in rows) == order,
           "class sizes do not sum to the group order")
    ident = [r for r in rows if r["class_order"] == 1]
    expect(len(ident) == 1 and ident[0]["class_size"] == 1
           and ident[0]["chi_value"] == 2 * g,
           f"chi(1) is not 2g = {2 * g}")
    # Lefschetz: Fix(h) = 2 - chi(h).  With chi(1) = 2g and the sizes summing
    # to |G|, this identity is equivalent to <chi, 1> = 0.
    fix_sum = sum(r["class_size"] * (2 - r["chi_value"])
                  for r in rows if r["class_order"] != 1)
    predicted = sum((order // m) * (m - 1) for m in TYPE_237)
    expect(fix_sum == predicted,
           f"class sum of Fix = {fix_sum}, Riemann-Hurwitz gives {predicted}")
    expect(ch["trivial_multiplicity"] == "0",
           f"reported <chi, 1> = {ch['trivial_multiplicity']}, expected 0")
    expect(ch["faithful"] is True, "G acts faithfully on H^1 for g >= 2")


def check_census(argv, r):
    opts = _options(argv)
    gmax = int(opts["--max-genus"])
    expect(2 <= gmax <= MAX_LISTED_GENUS,
           f"no reference counts for --max-genus {gmax}")
    expect(opts.get("--type", "2,3,7") == "2,3,7", "reference counts are for (2,3,7)")
    expect(r["unchecked_orders"] == [], f"unchecked orders {r['unchecked_orders']}")
    expected = {str(g): HURWITZ_COUNTS.get(g, 0) for g in range(2, gmax + 1)}
    expect(r["counts"] == expected, f"counts {r['counts']} != Conder {expected}")
    for row in r["census"]:
        order = row["order"]
        expect(order == 84 * (row["genus"] - 1), f"genus {row['genus']} has order {order}")
        classes = [c for grp in row["groups"] for c in grp["classes"]]
        expect(len(classes) == row["count"], f"genus {row['genus']}: count != classes listed")
        for grp in row["groups"]:
            q = _psl2_q(grp["name"])
            if q is not None:
                check_psl2_order(q, order)
            sizes = {c["class_size"] for c in grp["classes"]}
            expect(len(sizes) == 1, f"{grp['name']}: unequal class weights {sizes}")
            for c in grp["classes"]:
                _check_class_237(c, order, q)
                if "character" in c:
                    check_character(c["character"], order)


def check_dessins(argv, r):
    opts = _options(argv)
    q = _psl2_q(opts["--group"])
    expect(q is not None, f"no reference for group {opts['--group']}")
    expect(opts.get("--type", "2,3,7") == "2,3,7", "reference counts are for (2,3,7)")
    check_psl2_order(q, r["order"])
    expect(r["count"] == macbeath_count(q),
           f"PSL(2,{q}): {r['count']} classes, Macbeath gives {macbeath_count(q)}")
    expect(len(r["classes"]) == r["count"], "count != classes listed")
    for c in r["classes"]:
        _check_class_237(c, r["order"], q)
        if "--characters" in opts:
            check_character(c["character"], r["order"])


def check_homology(argv, r):
    opts = _options(argv)
    q = _psl2_q(opts["--group"])
    expect(q is not None and macbeath_count(q) > 0,
           f"no reference for group {opts['--group']}")
    ell = int(opts["--ell"])
    order = r["order"]
    check_psl2_order(q, order)
    g = hurwitz_genus(order)
    expect(r["ell"] == ell, f"report ell {r['ell']} != {ell}")
    # the kernel is a genus-g surface group, so H_1 has rank 2g at every ell
    expect(r["dim"] == 2 * g, f"homology dim {r['dim']} != 2g = {2 * g}")
    # Schreier: an index-n subgroup of the free group of rank 2 has rank n + 1
    expect(r["schreier_generators"] == order + 1,
           f"{r['schreier_generators']} Schreier generators, index formula gives {order + 1}")
    if "--invariant-dim" in opts:
        d = int(opts["--invariant-dim"])
        key = (q, ell, d)
        expect(key in INVARIANT_SUBMODULES, f"no reference submodule count for {key}")
        subs = r["invariant_submodules"]
        expect(subs == {"dim": d, "count": INVARIANT_SUBMODULES[key]},
               f"invariant submodules {subs}, expected {INVARIANT_SUBMODULES[key]}")
        if "--extensions" in opts:
            exts = r["extensions"]
            expect(len(exts) == subs["count"], "one extension per invariant submodule")
            want = ell ** (r["dim"] - d) * order
            expect(all(e["order"] == want for e in exts),
                   f"extension orders {[e['order'] for e in exts]} != {want}")
            expect(len({e["name"] for e in exts}) == len(exts), "extension names repeat")


def check_origami(argv, r):
    opts = _options(argv)
    g = int(opts["--genus"])
    order = 4 * (g - 1)
    expect(r["genus"] == g and r["order"] == order,
           f"genus {r['genus']} / order {r['order']} for --genus {g}")
    gens = catalog_generators(order)
    searched = r["searched_groups"]
    expect(all(name in gens for name in searched), f"unknown groups in {searched}")
    if r["verdict"] == "witness":
        w = r["witness"]
        expect(w["group"] in searched, f"witness group {w['group']} was not searched")
        elems = bfs_elements(gens[w["group"]])
        expect(len(elems) == order, f"{w['group']} has {len(elems)} elements, not {order}")
        a, b = elems[w["a"]], elems[w["b"]]
        expect(perm_order(commutator(a, b)) == 2, "witness commutator order is not 2")
        expect(w["commutator_order"] == 2, "reported commutator order is not 2")
        expect(len(bfs_elements([a, b])) == order, "witness pair does not generate")
        return
    p = order // 4
    expect(order == 4 or prime_power(p) == (p, 1) and p > 2,
           f"refusal at order {order}, which is neither 4 nor 4p")
    expect(r["verdict"] == "exhaustive_no", f"verdict {r['verdict']} at order {order}")
    want = 2 if order == 4 else groups_of_order_4p_count(p)
    expect(len(searched) == want,
           f"{len(searched)} groups searched, order {order} has {want} types")
    profiles = []
    for name in searched:
        elems = bfs_elements(gens[name])
        expect(len(elems) == order, f"{name} has {len(elems)} elements, not {order}")
        expect(not has_origami_pair(elems), f"{name} has an origami pair")
        profiles.append(order_profile(elems))
    expect(len({tuple(pr) for pr in profiles}) == len(profiles),
           "two searched groups have the same element orders")


CHECKS = {
    "census": check_census,
    "dessins": check_dessins,
    "homology": check_homology,
    "origami": check_origami,
}


def check_job(argv, report: dict) -> None:
    expect(report.get("schema") == 1, "report lacks schema 1")
    CHECKS[argv[0]](argv, report)
