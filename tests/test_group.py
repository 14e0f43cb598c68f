import random

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import catalog, homology
from hurwitz.group import (CapExceededError, commutator_subgroup, generates,
                           group_from_generators, kernel_key, normal_closure,
                           subgroup_closure)
from hurwitz.origami import origami_existence
from hurwitz.perms import pinv, pmul, porder


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
        assert G.class_size(i) * G.centralizer_size(i) == G.order


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


@given(st.integers(0, 167), st.integers(0, 167))
@settings(max_examples=80, deadline=None)
def test_closure_and_inverse_laws(i, j):
    G = catalog.psl2(7)
    k = G.mul(i, j)
    assert 0 <= k < G.order
    assert G.inv(k) == G.mul(G.inv(j), G.inv(i))


# one base shape each: empty, one point per factor, three points of the
# projective line, two points, and one point of a regular action
MUL_CASES = {
    "C1": (lambda: catalog.cyclic(1), 0),
    "C2xC2xC3": (lambda: catalog.abelian([2, 2, 3]), 3),
    "PSL(2,8)": (lambda: catalog.psl2(8), 3),
    "C8:C2(t=5)": (lambda: catalog.metacyclic(8, 5), 2),
    "2^3.PSL(2,7)#1": (lambda: homology.klein_extension_groups()[0].group, 1),
}


@pytest.mark.parametrize("build,base_length", MUL_CASES.values(),
                         ids=MUL_CASES.keys())
def test_mul_matches_the_tuple_product(build, base_length):
    G = build()
    assert {len(images) for images in G._base_images} == {base_length}
    assert len(set(G._base_images)) == G.order
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
    assert G.products(I, J).tolist() == [G.mul(i, j) for i, j in pairs]


def test_products_exact_past_int64_codes():
    # 28**14 base-image codes do not fit in int64; the runs are re-ranked
    G = catalog.abelian([2] * 14)
    assert G.degree ** len(G._base) > 2 ** 63
    rng = random.Random(14)
    I = [rng.randrange(G.order) for _ in range(2000)]
    J = [rng.randrange(G.order) for _ in range(2000)]
    assert G.products(I, J).tolist() == [G.mul(i, j) for i, j in zip(I, J)]
    assert G.products([], []).tolist() == []


def _scalar_key(G, gens):
    """Oracle for kernel_key: the Cayley BFS with one scalar `mul` per edge."""
    number = {0: 0}
    queue = [0]
    labels = []
    for u in queue:
        for s in gens:
            v = G.mul(u, s)
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
