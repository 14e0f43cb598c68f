"""Results must not depend on how a group is represented as permutations.

Each case relabels a catalog group's points by a random permutation,
rebuilds the group from the conjugated generators in reversed order (so the
element indices change too), and compares classifications, canonical
Cayley keys, derived subgroups, simplicity and H^1 characters with the
original.  A save_group/load_group round trip must keep the element
indices, so serialized classes survive it unchanged.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz import catalog
from hurwitz.charfix import h1_character
from hurwitz.dessins import (TriangleTriple, enumerate_triples, genus_of,
                             serialize_class)
from hurwitz.group import generates, group_from_generators, kernel_key
from hurwitz.origami import enumerate_origami_pairs
from hurwitz.perms import pmul

from conftest import base_images

CASES = [
    (catalog.psl2(7), (2, 3, 7)),
    (catalog.alternating(5), (2, 5, 5)),
    (catalog.symmetric(4), (2, 3, 4)),
    (catalog.dihedral(6), (2, 2, 6)),
    (catalog.dicyclic(2), (4, 4, 4)),
    (catalog.metacyclic(8, 5), (2, 8, 8)),
]


def _relabel(G, sigma):
    """Rebuild G with point i renamed sigma[i]; returns (G', element map)."""
    def conj(p):
        out = [0] * len(p)
        for i, j in enumerate(p):
            out[sigma[i]] = sigma[j]
        return tuple(out)
    H = group_from_generators([conj(g) for g in reversed(G.generators)],
                              name=f"relabelled {G.name}")
    return H, [H.index[conj(e)] for e in G.elements]


def _class_sizes(classes):
    return Counter(c.class_size for c in classes)


@st.composite
def relabelled_case(draw):
    G, type_ = draw(st.sampled_from(CASES))
    sigma = draw(st.permutations(range(G.degree)))
    return G, type_, *_relabel(G, sigma)


@given(relabelled_case())
@settings(max_examples=12, deadline=None)
def test_classifications_are_representation_independent(case):
    G, type_, H, _ = case
    assert _class_sizes(enumerate_triples(H, type_)) == \
        _class_sizes(enumerate_triples(G, type_))
    assert _class_sizes(enumerate_origami_pairs(H)) == \
        _class_sizes(enumerate_origami_pairs(G))


@given(relabelled_case(), st.data())
@settings(max_examples=30, deadline=None)
def test_kernel_key_is_representation_independent(case, data):
    G, _, H, phi = case
    pair = data.draw(st.tuples(st.integers(0, G.order - 1),
                               st.integers(0, G.order - 1)))
    key = kernel_key(G, pair)
    assert (key is None) == (not generates(G, pair))
    # the relabelled group has its own base; its products still agree
    a, b = phi[pair[0]], phi[pair[1]]
    assert len(set(base_images(H))) == H.order
    assert H.mul(a, b) == H.index[pmul(H.elements[a], H.elements[b])]
    assert H.products([a] * H.order, range(H.order)).tolist() == \
        [H.mul(a, j) for j in range(H.order)]
    assert kernel_key(H, (a, b)) == key
    # every class representative keeps its key under the relabelling
    for c in enumerate_triples(G, case[1]):
        t = c.representative
        assert kernel_key(H, (phi[t.x], phi[t.y])) == kernel_key(G, (t.x, t.y))


@given(relabelled_case())
@settings(max_examples=12, deadline=None)
def test_group_invariants_are_representation_independent(case):
    G, type_, H, phi = case
    assert len(H.commutator_subgroup()) == len(G.commutator_subgroup())
    assert H.is_simple() == G.is_simple()
    if genus_of(G.order, type_) < 2:
        return
    for c in enumerate_triples(G, type_):
        t = c.representative
        u = TriangleTriple(H, phi[t.x], phi[t.y], phi[t.z], t.type)
        chi_g, chi_h = h1_character(G, t).character, h1_character(H, u).character
        assert all(chi_h.at_element(phi[i]) == chi_g.at_element(i)
                   for i in range(G.order))


@pytest.mark.parametrize("G,type_", CASES, ids=[G.name for G, _ in CASES])
def test_save_load_round_trip_keeps_classes(G, type_, tmp_path):
    path = tmp_path / "group.grp"
    catalog.save_group(G, path)
    H = catalog.load_group(path)
    assert H.elements == G.elements
    assert [serialize_class(c) for c in enumerate_triples(H, type_)] == \
        [serialize_class(c) for c in enumerate_triples(G, type_)]
    assert [(c.class_size, c.representative.a, c.representative.b)
            for c in enumerate_origami_pairs(H)] == \
        [(c.class_size, c.representative.a, c.representative.b)
         for c in enumerate_origami_pairs(G)]
