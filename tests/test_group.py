import random
from collections import defaultdict
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import arith, catalog, dessins, group, homology, origami
from hurwitz.dessins import enumerate_triples
from hurwitz.group import (CapExceededError, classify_pairs, commutator_subgroup,
                           conjugacy_classes, generates, group_from_generators,
                           group_from_rule, kernel_key, normal_closure,
                           subgroup_closure)
from hurwitz.origami import enumerate_origami_pairs, origami_existence
from hurwitz.perms import pmul
from conftest import base_images, catalog_search_groups, tuple_mul
from oracles import (_scalar_generates, _scalar_inverse, _scalar_subgroup_closure,
                     centralizer_size, pinv, porder)
from test_relabel import CASES as RELABEL_CASES, _relabel


def test_s3_from_generators():
    G = group_from_generators([(1, 0, 2), (1, 2, 0)])
    assert G.order == 6
    sizes = sorted(len(c) for c in G.conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_trivial_group():
    G = group_from_generators([(0, 1)])
    assert G.order == 1


def test_cap_exceeded():
    with pytest.raises(CapExceededError):
        catalog.symmetric(9, cap=10_000)


def test_psl27_order_and_classes():
    G = catalog.psl2(7)
    assert G.order == 168
    sizes = [len(c) for c in G.conjugacy_classes()]
    # canonical order: by element order, then class size
    assert sizes == [1, 21, 56, 42, 24, 24]
    orders = [G.element_order(c[0]) for c in G.conjugacy_classes()]
    assert orders == [1, 2, 3, 4, 7, 7]


def test_orbit_stabilizer_identity():
    G = catalog.psl2(7)
    for i in range(0, G.order, 17):
        assert G.class_size(i) * centralizer_size(G, i) == G.order


def test_psl27_is_perfect_and_simple():
    G = catalog.psl2(7)
    D = G.commutator_subgroup()
    assert len(D) == G.order
    assert G.is_perfect()
    assert G.is_simple()


def test_sym4_commutator_is_alt4():
    S4 = catalog.symmetric(4)
    D = S4.commutator_subgroup()
    assert len(D) == 12
    assert not S4.is_perfect()


def test_subgroup_closure_and_generates():
    G = catalog.symmetric(4)
    # a transposition and a 4-cycle generate S4
    t = G.index[(1, 0, 2, 3)]
    c = G.index[(1, 2, 3, 0)]
    assert generates(G, (t, c))
    assert len(subgroup_closure(G, [c])) == 4
    assert not generates(G, (c,))


def test_normal_closure():
    S4 = catalog.symmetric(4)
    double = S4.index[(1, 0, 3, 2)]  # (0 1)(2 3), lies in the Klein subgroup
    assert len(normal_closure(S4, [double])) == 4


@pytest.mark.parametrize("G", [catalog.symmetric(4), catalog.alternating(5),
                               catalog.dihedral(6), catalog.psl2(7)],
                         ids=lambda G: G.name)
def test_normal_closure_is_subgroup_generated_by_the_class(G):
    # oracle: <i^G> by plain subgroup closure of the whole conjugacy class
    for cls in G.conjugacy_classes():
        expected = sorted(subgroup_closure(G, cls))
        for i in cls:
            assert normal_closure(G, [i]) == expected


def _scalar_normal_closure(G, seeds):
    """Oracle for normal_closure: a queue BFS from the identity with one
    scalar product per right multiplication by a seed and two per conjugate."""
    mul = tuple_mul(G)
    conjugators = [(_scalar_inverse(G, g), g) for g in G.gen_indices]
    seen = {0}
    queue = [0]
    for u in queue:
        images = [mul(u, s) for s in seeds]
        images += [mul(mul(ginv, u), g) for ginv, g in conjugators]
        for v in images:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return sorted(seen)


def _origami18_groups():
    """Every group the genus 2..18 origami searches name, built from the
    catalog: the abelian types, which they name without building, and the
    groups they would scan if none had a witness."""
    return [G for g in range(2, 19) for G in catalog_search_groups(g)]


NORMAL_CLOSURE_CASES = {
    "PSL(2,7)": lambda: [catalog.psl2(7)],
    "PSL(2,8)": lambda: [catalog.psl2(8)],
    "PSL(2,13)": lambda: [catalog.psl2(13)],
    "SL(2,7)": lambda: [catalog.sl2(7)],
    "2^3.PSL(2,7)#1": lambda: [homology.klein_extension_groups()[0].group],
    "origami18": _origami18_groups,
    # S3 x C2 with a central middle generator: only [first, last] is nontrivial
    "S3xC2": lambda: [group_from_generators([(1, 0, 2, 3, 4), (0, 1, 2, 4, 3),
                                             (1, 2, 0, 3, 4)])],
}


@pytest.mark.parametrize("build", NORMAL_CLOSURE_CASES.values(),
                         ids=NORMAL_CLOSURE_CASES.keys())
def test_normal_closure_matches_scalar_oracle(build):
    """The table-driven BFS against the scalar one: on each class
    representative, on the commutators of all ordered pairs of generators
    (the derived subgroup, which `commutator_subgroup` finds from the pairs
    a before b), and on empty and identity-only seeds."""
    for G in build():
        gens = G.gen_indices
        commutators = {G.commutator(a, b) for a in gens for b in gens} - {0}
        assert commutator_subgroup(G) == _scalar_normal_closure(G, commutators)
        simple = G.order > 1 and all(
            len(_scalar_normal_closure(G, [cls[0]])) == G.order
            for cls in G.conjugacy_classes()[1:])
        assert G.is_simple() == simple
        for cls in G.conjugacy_classes():
            assert normal_closure(G, [cls[0]]) == _scalar_normal_closure(G, [cls[0]])
        assert normal_closure(G, []) == normal_closure(G, [0]) == [0]


@pytest.mark.parametrize("build", NORMAL_CLOSURE_CASES.values(),
                         ids=NORMAL_CLOSURE_CASES.keys())
def test_subgroup_closure_matches_scalar_oracle(build):
    """The level BFS against the queue BFS: on the cyclic subgroup <s> of
    every class representative s (what `charfix._coset_fixed_counts`
    reads), on the generators, on the identity pair and on random pairs."""
    for G in build():
        for cls in G.conjugacy_classes():
            s = cls[0]
            assert subgroup_closure(G, [s]) == sorted(_scalar_subgroup_closure(G, [s]))
        rng = random.Random(G.order)
        pairs = [tuple(G.gen_indices), (0, 0)]
        pairs += [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(20)]
        verdicts = [generates(G, pair) for pair in pairs]
        assert verdicts == [_scalar_generates(G, pair) for pair in pairs]
        assert verdicts[:2] == [True, G.order == 1]
        for pair in pairs:
            assert subgroup_closure(G, pair) == sorted(_scalar_subgroup_closure(G, pair))


def test_commutator_subgroup_is_table_driven(monkeypatch):
    """On PSL(2,13) the normal-closure BFS makes no scalar `mul`, and the
    derived subgroup takes at most five `products` batches however many
    levels the BFS has (two are made: one for the conjugation tables and one
    for the seeds' right-multiplication table; the generator pairs are read
    off `gen_tables`)."""
    G = catalog.psl2(13)
    calls, inside, entered = [], [], []
    products, mul, closure = group.FinGroup.products, group.FinGroup.mul, normal_closure

    def counted(self, I, J):
        calls.append(len(I))
        return products(self, I, J)

    def checked_mul(self, i, j):
        assert not inside, "scalar mul inside the normal-closure BFS"
        return mul(self, i, j)

    def traced_closure(*args):
        inside.append(True)
        entered.append(True)
        try:
            return closure(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(group.FinGroup, "products", counted)
    monkeypatch.setattr(group.FinGroup, "mul", checked_mul)
    monkeypatch.setattr(group, "normal_closure", traced_closure)
    assert len(commutator_subgroup(G)) == G.order
    assert entered and len(calls) <= 5


@given(st.integers(0, 167), st.integers(0, 167))
@settings(max_examples=80, deadline=None)
def test_closure_and_inverse_laws(i, j):
    G = catalog.psl2(7)
    k = G.mul(i, j)
    assert 0 <= k < G.order
    assert G.inv(k) == G.mul(G.inv(j), G.inv(i))


# one base shape each: empty, one point per factor, three points of the
# projective line, two points, one point of a regular action, the long
# bases of S8 and A8, and two points of SL(2,13) on its 168 nonzero vectors;
# and bases that the scan in `_base_product` reaches past points it skips
# (SL(2,7): 0 and 6 of its 48 nonzero vectors; C16xC2xC2: 0, 16 and 18) or
# that stop before the last point (S7: 0..5)
MUL_CASES = {
    "C1": (lambda: catalog.cyclic(1), 0),
    "C2xC2xC3": (lambda: catalog.abelian([2, 2, 3]), 3),
    "PSL(2,8)": (lambda: catalog.psl2(8), 3),
    "C8:C2(t=5)": (lambda: catalog.metacyclic(8, 5), 2),
    "2^3.PSL(2,7)#1": (lambda: homology.klein_extension_groups()[0].group, 1),
    "S8": (lambda: catalog.symmetric(8), 7),
    "A8": (lambda: catalog.alternating(8), 6),
    "SL(2,13)": (lambda: catalog.sl2(13), 2),
    "SL(2,7)": (lambda: catalog.sl2(7), 2),
    "S7": (lambda: catalog.symmetric(7), 6),
    "C16xC2xC2": (lambda: catalog.abelian([16, 2, 2]), 3),
}


@pytest.mark.parametrize("build,base_length", MUL_CASES.values(),
                         ids=MUL_CASES.keys())
def test_mul_matches_the_tuple_product(build, base_length):
    G = build()
    images = base_images(G)
    assert {len(im) for im in images} == {base_length}
    assert len(set(images)) == G.order
    step = max(1, G.order // 40)
    for i in range(0, G.order, step):
        for j in range(G.order - 1, -1, -step):
            assert G.mul(i, j) == G.index[pmul(G.elements[i], G.elements[j])]


@pytest.mark.parametrize("build", [b for b, _ in MUL_CASES.values()],
                         ids=MUL_CASES.keys())
def test_products_match_mul(build):
    G = build()
    step = max(1, G.order // 40)
    pairs = [(i, j) for i in range(0, G.order, step)
             for j in range(G.order - 1, -1, -step)]
    I, J = zip(*pairs)
    mul = tuple_mul(G)
    assert G.products(I, J).tolist() == [mul(i, j) for i, j in pairs]
    assert [G.mul(i, j) for i, j in pairs] == [mul(i, j) for i, j in pairs]
    empty = G.products([], [])
    assert empty.dtype == np.intp and empty.tolist() == []


def test_products_exact_past_int64_codes():
    # 28**14 base-image tuples would not fit an int64 code; each point's
    # dense table ranks the prefixes, so a code stays below |G| * degree
    G = catalog.abelian([2] * 14)
    assert G.degree ** len(base_images(G)[0]) > 2 ** 63
    rng = random.Random(14)
    I = [rng.randrange(G.order) for _ in range(2000)]
    J = [rng.randrange(G.order) for _ in range(2000)]
    mul = tuple_mul(G)
    assert G.products(I, J).tolist() == [mul(i, j) for i, j in zip(I, J)]
    assert G.products([], []).tolist() == []


def test_base_product_built_on_first_products_call(monkeypatch):
    """`group_from_generators` builds the base-image product only for the
    groups whose `products` is called.  Over the genus 2..18 origami
    searches that is 51 of the 95 groups built: the others are 23
    `semidirect` matrix groups, closed only to read their order, 10 factors
    of `direct_product`, and 11 groups listed after their genus's witness,
    never scanned.  The searches build none of the 60 abelian groups they
    name."""
    built, multiplied, based = [], set(), set()
    init, products, base_product = (group.FinGroup.__init__, group.FinGroup.products,
                                    group._base_product)

    def counted_init(self, keys, *args, **kwargs):
        built.append(keys)  # kept alive, so no id is reused
        init(self, keys, *args, **kwargs)

    def counted_products(self, I, J):
        multiplied.add(id(self.keys))
        return products(self, I, J)

    def counted_base_product(elements, degree):
        based.add(id(elements))
        return base_product(elements, degree)

    monkeypatch.setattr(group.FinGroup, "__init__", counted_init)
    monkeypatch.setattr(group.FinGroup, "products", counted_products)
    monkeypatch.setattr(group, "_base_product", counted_base_product)
    for g in range(2, 19):
        origami_existence(g)
    assert based == multiplied
    assert (len(based), len(built)) == (51, 95)


def test_cauchy_exit_matches_the_involution_oracle(monkeypatch):
    """G' holds an involution exactly when |G'| is even, and
    `enumerate_origami_pairs` computes element orders only for the groups
    that `origami._may_have_pairs` passes.  It rejects some groups with
    even |G'| before any element order."""
    groups = _origami18_groups()
    calls = []
    element_orders = group.FinGroup.element_orders

    def counted(self):
        calls.append(self)
        return element_orders(self)

    monkeypatch.setattr(group.FinGroup, "element_orders", counted)
    exits = gated = 0
    for G in groups:
        before = len(calls)
        enumerate_origami_pairs(G)
        scanned = len(calls) > before
        assert scanned == origami._may_have_pairs(G), G.name
        derived = G.commutator_subgroup()
        involution = bool((np.array(G.element_orders())[derived] == 2).any())
        assert (len(derived) % 2 == 0) == involution >= scanned, G.name
        exits += not scanned
        gated += involution and not scanned
    assert 0 < gated < exits < len(groups)


def _scalar_key(G, gens):
    """Oracle for kernel_key: the Cayley BFS with one scalar product per edge."""
    mul = tuple_mul(G)
    number = {0: 0}
    queue = [0]
    labels = []
    for u in queue:
        for s in gens:
            v = mul(u, s)
            if v not in number:
                number[v] = len(queue)
                queue.append(v)
            labels.append(number[v])
    return tuple(labels) if len(queue) == G.order else None


ORACLE_GROUPS = {
    "A5": lambda: catalog.alternating(5),
    "PSL(2,8)": lambda: catalog.psl2(8),
    "origami24": lambda: origami_existence(7).witness.group,
}


@pytest.mark.parametrize("build", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS.keys())
def test_batch_paths_match_scalar_oracles(build):
    G = build()
    rng = random.Random(G.order)
    pairs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(40)]
    keys = [kernel_key(G, pair) for pair in pairs]
    assert keys == [_scalar_key(G, pair) for pair in pairs]
    assert any(k is None for k in keys) and any(k is not None for k in keys)
    assert G.element_orders() == [porder(e) for e in G.elements]
    assert G.inverse_indices() == [G.index[pinv(e)] for e in G.elements]


def _pmul_closure(gens):
    """Oracle for group_from_generators: the BFS with one `pmul` per edge."""
    e = tuple(range(len(gens[0])))
    elements, index = [e], {e: 0}
    for u in elements:
        for s in gens:
            v = pmul(u, s)
            if v not in index:
                index[v] = len(elements)
                elements.append(v)
    return elements, index


def _relabelled_psl27():
    rng = random.Random(7)
    G = catalog.psl2(7)
    sigma = list(range(G.degree))
    rng.shuffle(sigma)
    inverse = pinv(tuple(sigma))
    return [pmul(pmul(inverse, g), tuple(sigma)) for g in G.generators]


# generator lists of degree 0 and 1 (trivial groups with no gather step),
# small, projective-line and relabelled actions, and the regular degree-1344
# action of the genus-17 extension group
CLOSURE_CASES = {
    "degree 0": lambda: [()],
    "degree 1": lambda: [(0,)],
    "S3": lambda: [(1, 0, 2), (1, 2, 0)],
    "PSL(2,8)": lambda: catalog.psl2(8).generators,
    "PSL(2,7) relabelled": _relabelled_psl27,
    "2^3.PSL(2,7)#1": lambda: homology.klein_extension_groups()[0].group.generators,
}


@pytest.mark.parametrize("gens", CLOSURE_CASES.values(), ids=CLOSURE_CASES.keys())
def test_closure_matches_pmul_bfs(gens):
    gens = gens()
    G = group_from_generators(gens)
    elements, index = _pmul_closure(gens)
    assert G.elements == elements
    assert G.index == index


def _affine_rule(a, b):
    """x -> u x + t over F_7 as the code (u - 1) * 7 + t; the product applies
    b first, (u, t)(u', t') = (u u', u t' + t)."""
    u, t = divmod(a, 7)
    v, w = divmod(b, 7)
    return ((u + 1) * (v + 1) % 7 - 1) * 7 + ((u + 1) * w + t) % 7


# AGL(1,7), its translations C7, and the trivial group
RULE_CASES = {"AGL(1,7)": [7 * 2 + 1, 7 * 1 + 3], "C7": [1], "C1": [0]}


@pytest.mark.parametrize("gens", RULE_CASES.values(), ids=RULE_CASES.keys())
def test_rule_closure_matches_permutation_closure(gens):
    """Oracle: the permutation group of the generators' left multiplications."""
    G = group_from_rule(_affine_rule, gens, 42)
    P = group_from_generators([tuple(_affine_rule(s, c) for c in range(42))
                               for s in gens])
    assert G.keys == [e[0] for e in P.elements]
    assert G.gen_indices == P.gen_indices
    assert [G.mul(i, j) for i in range(G.order) for j in range(G.order)] == \
        [P.mul(i, j) for i in range(P.order) for j in range(P.order)]
    assert G.element_orders() == P.element_orders()
    assert G.inverse_indices() == [P.index[pinv(e)] for e in P.elements]
    assert conjugacy_classes(G) == conjugacy_classes(P)
    if G.order == 42:  # the regular action: the rows are P's permutations
        assert G.elements == P.elements and G.index == P.index


def test_rule_closure_checks_its_input():
    with pytest.raises(CapExceededError):
        group_from_rule(_affine_rule, [7 * 2 + 1, 7 * 1 + 3], 42, cap=41)
    assert group_from_rule(_affine_rule, [1], 42, cap=7).order == 7
    for gens in ([], [42], [-1]):
        with pytest.raises(ValueError):
            group_from_rule(_affine_rule, gens, 42)


# every builder and its edge cases: trivial groups of degree 0, 1 and 3,
# repeated generators, the closures of CLOSURE_CASES, the rule groups of
# RULE_CASES and the order-1344 extension built by a product rule
GEN_TABLE_CASES = {
    **{f"perms {name}": (lambda gens=gens: group_from_generators(gens()))
       for name, gens in CLOSURE_CASES.items()},
    "perms identity": lambda: group_from_generators([(0, 1, 2)] * 2),
    "perms repeated": lambda: group_from_generators([(1, 0, 2), (1, 2, 0), (1, 0, 2)]),
    **{f"rule {name}": (lambda gens=gens: group_from_rule(_affine_rule, gens, 42))
       for name, gens in RULE_CASES.items()},
    "rule repeated": lambda: group_from_rule(_affine_rule, [1, 7 * 2 + 1, 1], 42),
    "rule 2^3.PSL(2,7)#1": lambda: homology.klein_extension_groups()[0].group,
}


@pytest.mark.parametrize("build", GEN_TABLE_CASES.values(), ids=GEN_TABLE_CASES.keys())
def test_gen_tables_are_the_generators_right_multiplications(build):
    G = build()
    assert G.gen_tables.shape == (len(G.gen_indices), G.order)
    for table, g in zip(G.gen_tables, G.gen_indices):
        assert table.tolist() == G.right_mult_table(g)


ABELIAN_CASES = {
    "C12": lambda: catalog.cyclic(12),
    "C16xC2xC2": lambda: catalog.abelian([16, 2, 2]),
    "C4xC4xC3": lambda: catalog.abelian([4, 4, 3]),
    "rule C7": lambda: group_from_rule(_affine_rule, [1, 2, 1], 42),
}


@pytest.mark.parametrize("build", ABELIAN_CASES.values(), ids=ABELIAN_CASES.keys())
def test_abelian_derived_subgroup_makes_no_product(build, monkeypatch):
    """Commuting generators are read off `gen_tables`: the derived subgroup
    is trivial, and no product (so no base-image product) is made."""
    G = build()

    def refuse(self, I, J):
        raise AssertionError("products called")

    monkeypatch.setattr(group.FinGroup, "products", refuse)
    assert commutator_subgroup(G) == [0]


def test_perm_helpers():
    a = (1, 2, 0)
    assert porder(a) == 3
    assert pmul(a, pinv(a)) == (0, 1, 2)


def test_element_order_lcm():
    S7 = catalog.symmetric(7)
    el = S7.index[(1, 0, 3, 4, 2, 5, 6)]  # 2-cycle and 3-cycle
    assert S7.element_order(el) == 6


def test_commutator_subgroup_standalone_matches_method():
    G = catalog.dihedral(6)
    D = commutator_subgroup(G)
    assert len(D) == 3  # [D12, D12] = C3
    assert D == G.commutator_subgroup()


def _keyed_candidates(G, x_ok, ys, batch, w_ok):
    """Every candidate of the unpruned scan, as ((x, y, w), kernel key, |class of x|)."""
    for cls in G.conjugacy_classes():
        x = cls[0]
        if not x_ok[x]:
            continue
        ws = batch(np.array([x]))[0]
        keep = w_ok[ws]
        for y, w in zip(ys[keep].tolist(), ws[keep].tolist()):
            yield (x, y, w), kernel_key(G, (x, y)), len(cls)


def _classify_pairs_oracle(G, x_ok, ys, batch, w_ok):
    """Oracle for classify_pairs: one kernel key per candidate, no orbit pruning
    and no representative skipped."""
    found = {}
    for pair, key, size in _keyed_candidates(G, x_ok, ys, batch, w_ok):
        if key is None:
            continue
        rec = found.get(key)
        if rec is not None:
            rec[1] += size
        else:
            found[key] = [pair, size]
    return found


def _relabelled(G, seed):
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    return _relabel(G, sigma)[0]


# (group, triangle type or None, mode); every group is also scanned for origamis
PRUNED_CASES = {
    "PSL(2,7)": (lambda: catalog.psl2(7), (2, 3, 7), "exact"),
    "PSL(2,8)": (lambda: catalog.psl2(8), (2, 3, 7), "exact"),
    "PSL(2,13)": (lambda: catalog.psl2(13), (2, 3, 7), "exact"),
    "A5 dividing": (lambda: catalog.alternating(5), (2, 5, 5), "dividing"),
    "S4": (lambda: catalog.symmetric(4), (2, 3, 4), "exact"),
    "dic:5": (lambda: catalog.dicyclic(5), (4, 4, 5), "exact"),
    "C8:C2(t=5)": (lambda: catalog.metacyclic(8, 5), (2, 8, 8), "exact"),
    # central x: C_G(x) = G, so the orbits are whole classes
    "SL(2,11) central": (lambda: catalog.sl2(11), (2, 5, 10), "exact"),
    "C2xC70 central": (lambda: catalog.abelian([2, 70]), (2, 70, 70), "exact"),
    "2^3.PSL(2,7)#1": (lambda: homology.klein_extension_groups()[0].group,
                       (2, 3, 7), "exact"),
    "origami genus 7": (lambda: origami_existence(7).witness.group, None, None),
    "origami genus 13": (lambda: origami_existence(13).witness.group, None, None),
    # C3xA4, C5xA4 and C32:C2(t=17): large outer automorphism groups, so
    # most representatives are automorphic images of earlier ones
    **{f"origami genus {g}": (lambda g=g: origami_existence(g).witness.group, None, None)
       for g in (10, 16, 17)},
    **{f"relabelled {G.name}": (lambda G=G, i=i: _relabelled(G, i), type_, "exact")
       for i, (G, type_) in enumerate(RELABEL_CASES)},
}


# x = -I is the only involution and ys = -y of order 10 never generate, so
# the scans find no class: the oracle comparison is all these cases check
NO_CLASSES = {"SL(2,11) central"}


def _check_pruned_scan(name, monkeypatch):
    scans = []

    def checked(G, *args):
        got = classify_pairs(G, *args)
        assert list(got.items()) == list(_classify_pairs_oracle(G, *args).items())
        scans.append(got)
        return got

    monkeypatch.setattr(dessins, "classify_pairs", checked)
    monkeypatch.setattr(origami, "classify_pairs", checked)
    build, type_, mode = PRUNED_CASES[name]
    G = build()
    if type_ is not None:
        classes = enumerate_triples(G, type_, mode)
        assert scans and bool(classes) == (name not in NO_CLASSES)
    enumerate_origami_pairs(G)
    assert any(scans) == (name not in NO_CLASSES)


@pytest.mark.parametrize("name", PRUNED_CASES)
def test_pruned_scan_matches_unpruned_oracle(name, monkeypatch):
    _check_pruned_scan(name, monkeypatch)


@pytest.mark.parametrize("name", PRUNED_CASES)
def test_small_batches_match_unpruned_oracle(name, monkeypatch):
    """With BATCH = 64 the representatives, the orbit blocks and the tables
    all take several batches, and a centralizer above 8 elements takes one
    candidate per block."""
    monkeypatch.setattr(group, "BATCH", 64)
    _check_pruned_scan(name, monkeypatch)


def _batch_sizes(G, run, monkeypatch):
    """The lengths of the `products` batches made inside `classify_pairs`."""
    sizes, inside = [], []
    products = group.FinGroup.products

    def recording(self, I, J):
        if inside:
            sizes.append(len(I))
        return products(self, I, J)

    def scan(*args):
        inside.append(True)
        try:
            return classify_pairs(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(group.FinGroup, "products", recording)
    monkeypatch.setattr(dessins, "classify_pairs", scan)
    monkeypatch.setattr(origami, "classify_pairs", scan)
    run(G)
    return sizes


@pytest.mark.parametrize("batch", [group.BATCH, 64])
@pytest.mark.parametrize("build,run", [
    (lambda: catalog.sl2(11), lambda G: enumerate_triples(G, (2, 5, 10))),
    (lambda: catalog.psl2(29), lambda G: enumerate_triples(G, (2, 3, 7))),
    (lambda: catalog.psl2(13), enumerate_origami_pairs),
], ids=["SL(2,11) central", "PSL(2,29)", "origami PSL(2,13)"])
def test_classify_pairs_batches_stay_bounded(build, run, batch, monkeypatch):
    monkeypatch.setattr(group, "BATCH", batch)
    G = build()
    sizes = _batch_sizes(G, run, monkeypatch)
    assert sizes and max(sizes) <= max(batch, G.order)


def test_pruned_scan_refuses_candidates_that_are_not_orbit_unions():
    G = catalog.psl2(7)
    orders = np.array(G.element_orders())
    ys = np.flatnonzero(orders == 3)[:1]  # one element, not its class
    with pytest.raises(ValueError, match="union of C_G"):
        classify_pairs(G, orders == 2, ys,
                       lambda xs: G.products(np.repeat(xs, len(ys)),
                                             np.tile(ys, len(xs))).reshape(len(xs), -1),
                       np.ones(G.order, dtype=bool))


def test_skip_needs_an_automorphism_that_keeps_the_masks():
    """x of order 7, y in 3A or in the second class of order 7, xy in 3A.

    The masks are class functions, but the outer automorphism of PSL(2,7)
    swaps the two classes of order 7, so it keeps neither ys nor x's
    candidates.  The second representative's first candidate has a key the
    first representative found; copying that representative's weights
    would double (1, 22, 38) and drop (2, 22, 52).
    """
    G = catalog.psl2(7)
    orders = np.array(G.element_orders())
    order3, _, second7 = (cls for cls in G.conjugacy_classes()
                          if orders[cls[0]] in (3, 7))
    ys = np.array(sorted(order3 + second7))
    w_ok = np.zeros(G.order, dtype=bool)
    w_ok[order3] = True
    args = (orders == 7, ys, lambda xs: G.product_table(xs, ys), w_ok)
    got = classify_pairs(G, *args)
    assert list(got.items()) == list(_classify_pairs_oracle(G, *args).items())
    assert list(got.values()) == [[(1, 18, 34), 336], [(1, 22, 38), 168],
                                  [(2, 22, 52), 168]]


def test_automorphic_representatives_skip_their_orbits(monkeypatch):
    # C32:C2(t=17) has 40 classes, and a scan without the skip finds the
    # C_G(x)-orbits of every one of them
    calls = []
    orbit_firsts = group._orbit_firsts

    def counted(*args):
        calls.append(args[1])
        return orbit_firsts(*args)

    monkeypatch.setattr(group, "_orbit_firsts", counted)
    G = catalog.metacyclic(32, 17)
    classes = enumerate_origami_pairs(G)
    assert len(G.conjugacy_classes()) == 40 and classes
    assert len(calls) <= 10


def _scalar_classes(G):
    """Oracle for conjugacy_classes: the orbit BFS with two scalar products per conjugate."""
    n = G.order
    mul = tuple_mul(G)
    assigned = [False] * n
    gen_idx = [G.index[g] for g in G.generators]
    gen_inv = [_scalar_inverse(G, g) for g in gen_idx]
    classes = []
    for start in range(n):
        if assigned[start]:
            continue
        orbit = [start]
        assigned[start] = True
        queue = [start]
        while queue:
            i = queue.pop()
            for gi, gii in zip(gen_idx, gen_inv):
                c = mul(mul(gii, i), gi)
                if not assigned[c]:
                    assigned[c] = True
                    orbit.append(c)
                    queue.append(c)
        classes.append(sorted(orbit))
    orders = G.element_orders()
    classes.sort(key=lambda cls: (orders[cls[0]], len(cls),
                                  min(G.elements[i] for i in cls)))
    return classes


# every group built in this file, relabelled groups among them
CLASS_CASES = {
    **{name: (lambda gens=gens: group_from_generators(gens()))
       for name, gens in CLOSURE_CASES.items()},
    **{name: build for name, (build, _) in MUL_CASES.items()},
    **ORACLE_GROUPS,
    **{name: build for name, (build, _, _) in PRUNED_CASES.items()},
    "D12": lambda: catalog.dihedral(6),
    "S7": lambda: catalog.symmetric(7),
    "C2^14": lambda: catalog.abelian([2] * 14),
}


@pytest.mark.parametrize("build", CLASS_CASES.values(), ids=CLASS_CASES.keys())
def test_classes_match_scalar_oracle(build):
    G = build()
    assert conjugacy_classes(G) == _scalar_classes(G)


def _class_power(G, i, k):
    power = 0
    for _ in range(k):
        power = G.mul(power, i)
    return G.class_of(power)


@pytest.mark.parametrize("q,ell,orbit_size", [(7, 7, 1), (8, 2, 1), (13, 13, 3)])
def test_branch_cycle_orbits_match_congruence_curves(q, ell, orbit_size):
    """Branch-cycle oracle for the Galois action on the (2,3,7) dessins of PSL(2,q).

    A unit k mod 42 maps a dessin with class triple T to one with triple
    T^k, so the Galois orbit of the dessin has the size [(Z/42)^* : H],
    where H is the set of k with T^k in Aut(G).T.  Aut(G).T is the set of
    class triples of all generating pairs that share the dessin's kernel key.
    """
    G = catalog.psl2(q)
    orders = np.array(G.element_orders())
    ys = np.flatnonzero(orders == 3)
    inverses = G.inverse_indices()
    aut_orbits = defaultdict(set)  # kernel key -> Aut(G).T
    for (x, y, w), key, _ in _keyed_candidates(
            G, orders == 2, ys,
            lambda xs: G.products(np.repeat(xs, len(ys)),
                                  np.tile(ys, len(xs))).reshape(len(xs), -1),
            orders == 7):
        if key is not None:
            aut_orbits[key].add((G.class_of(x), G.class_of(y), G.class_of(inverses[w])))
    units = [k for k in range(1, 42) if gcd(k, 42) == 1]
    reps = [cls[0] for cls in G.conjugacy_classes()]
    power = {k: [_class_power(G, r, k) for r in reps] for k in units}
    assert arith.congruence_curves(ell)[0].orbit_size == orbit_size
    assert len(aut_orbits) == len(enumerate_triples(G, (2, 3, 7)))
    for triples in aut_orbits.values():
        T = min(triples)
        H = [k for k in units if tuple(power[k][c] for c in T) in triples]
        assert len(units) // len(H) == orbit_size
    every = set().union(*aut_orbits.values())
    assert all(tuple(power[k][c] for c in T) in every for T in every for k in units)
