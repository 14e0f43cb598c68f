"""The pair-isomorphism test against a brute-force automorphism oracle.

The oracle evaluates the candidate map on every element (via generator
words from a BFS) and then checks full multiplicativity on all |G|^2
products, independently of the propagation algorithm under test: its
products are `pmul` on the permutation rows (`conftest.tuple_mul`).
"""

import itertools

import pytest

from hurwitz import catalog
from hurwitz.group import generates, pair_isomorphic

from conftest import tuple_mul
from oracles import conj


def _word_map(G, pair):
    """words[i] = generator word reaching element i from the identity."""
    x, y = pair
    mul = tuple_mul(G)
    words = {0: ()}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for letter, s in ((0, x), (1, y)):
                v = mul(u, s)
                if v not in words:
                    words[v] = words[u] + (letter,)
                    nxt.append(v)
        frontier = nxt
    assert len(words) == G.order
    return words


def _evaluate(G, word, pair):
    mul = tuple_mul(G)
    out = 0
    for letter in word:
        out = mul(out, pair[letter])
    return out


def brute_force_extends(G, pair1, pair2):
    """Does pair1 -> pair2 extend to an automorphism?  Full O(|G|^2) check."""
    words = _word_map(G, pair1)
    phi = [None] * G.order
    for i, w in words.items():
        phi[i] = _evaluate(G, w, pair2)
    if len(set(phi)) != G.order:
        return False
    # the word-induced map must itself send pair1 to pair2
    if phi[pair1[0]] != pair2[0] or phi[pair1[1]] != pair2[1]:
        return False
    mul = tuple_mul(G)
    for a in range(G.order):
        for b in range(G.order):
            if phi[mul(a, b)] != mul(phi[a], phi[b]):
                return False
    return True


def _generating_pairs(G, limit=None):
    pairs = ((a, b) for a in range(G.order) for b in range(G.order))
    if limit == 1:  # the first generating pair, which the sampling below keeps
        return [next(p for p in pairs if generates(G, p))]
    pairs = [p for p in pairs if generates(G, p)]
    if limit is not None and len(pairs) > limit:
        step = len(pairs) // limit
        pairs = pairs[::step][:limit]
    return pairs


def _small_catalog_groups():
    out = []
    for n in range(2, 25):
        out.extend(catalog.groups_of_order(n))
    return out


def test_reflexive_symmetric_and_inner_twist():
    G = catalog.psl2(7)
    pairs = _generating_pairs(catalog.alternating(5), limit=6)
    A5 = catalog.alternating(5)
    for p1, p2 in itertools.combinations(pairs, 2):
        assert pair_isomorphic(A5, p1, p1)
        assert pair_isomorphic(A5, p1, p2) == pair_isomorphic(A5, p2, p1)
    # conjugate pairs are always isomorphic
    x, y = _generating_pairs(G, limit=1)[0]
    for g in (3, 50, 101):
        assert pair_isomorphic(G, (x, y), (conj(G, x, g), conj(G, y, g)))


def test_rejects_non_generating_pair():
    G = catalog.symmetric(4)
    c = G.index[(1, 2, 3, 0)]
    with pytest.raises(ValueError):
        pair_isomorphic(G, (c, c), (c, c))


def test_psl213_distinct_z_classes_not_isomorphic():
    from hurwitz import dessins
    G = catalog.psl2(13)
    classes = dessins.enumerate_triples(G, (2, 3, 7))
    assert len(classes) == 3
    reps = [c.representative for c in classes]
    z_classes = {G.class_of(t.z) for t in reps}
    assert len(z_classes) == 3
    for t1, t2 in itertools.combinations(reps, 2):
        assert not pair_isomorphic(G, (t1.x, t1.y), (t2.x, t2.y))


@pytest.mark.parametrize("G", _small_catalog_groups(), ids=lambda G: G.name)
def test_oracle_agreement_small_groups(G):
    """Acceptance criterion 8: exhaustive agreement with the brute oracle."""
    pairs = _generating_pairs(G, limit=14)
    if not pairs:
        return
    for p1, p2 in itertools.combinations(pairs, 2):
        assert pair_isomorphic(G, p1, p2) == brute_force_extends(G, p1, p2)


def test_oracle_agreement_origami_pairs():
    """Criterion 8, origami side: all commutator-order-2 generating pairs."""
    for G in [catalog.dicyclic(2), catalog.dicyclic(4), catalog.abelian([2, 4]),
              catalog.metacyclic(8, 5)]:
        pairs = [(a, b) for (a, b) in _generating_pairs(G)
                 if G.element_order(
                     G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))) == 2]
        sampled = pairs[::max(1, len(pairs) // 12)][:12]
        for p1, p2 in itertools.combinations(sampled, 2):
            assert pair_isomorphic(G, p1, p2) == brute_force_extends(G, p1, p2)


def test_cross_group_form():
    """pair_isomorphic(G, p1, p2, H=H) compares epimorphism kernels across copies."""
    G = catalog.psl2(7)
    H = catalog.psl2(7)  # an identical second copy
    x, y = _generating_pairs(G, limit=1)[0]
    assert pair_isomorphic(G, (x, y), (x, y), H=H)
