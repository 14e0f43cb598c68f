from fractions import Fraction

import pytest

from hurwitz import catalog, dessins
from hurwitz.charfix import (ClassFunction, character_report, h1_character,
                             ramification_point_count, trivial_character)

from oracles import (conj, fixed_point_class_sum, fixed_points,
                     permutation_character, stabilizer_count_formula)


@pytest.fixture(scope="module")
def klein():
    G = catalog.psl2(7)
    t = dessins.enumerate_triples(G, (2, 3, 7))[0].representative
    return G, t


def test_ramification_point_count(klein):
    G, t = klein
    assert ramification_point_count(G, t) == 84 + 56 + 24 == 164


def test_fixed_point_sum_matches_stabilizer_formula(klein):
    G, t = klein
    assert stabilizer_count_formula(G, t) == 84 + 112 + 144 == 340
    assert fixed_point_class_sum(G, t) == 340


def test_order_four_element_fixes_nothing(klein):
    G, t = klein
    h = next(i for i in range(G.order) if G.element_order(i) == 4)
    assert fixed_points(G, t, h) == 0  # 4 divides none of 2, 3, 7


def test_fixed_points_rejects_identity(klein):
    G, t = klein
    with pytest.raises(ValueError):
        fixed_points(G, t, 0)


def test_fixed_points_is_class_function(klein):
    G, t = klein
    for h in (1, 17, 60):
        base = fixed_points(G, t, h)
        for g in (3, 29, 111):
            assert fixed_points(G, t, conj(G, h, g)) == base


def test_h1_character_values(klein):
    G, t = klein
    h1 = h1_character(G, t)
    assert h1.genus == 3
    assert h1.character.values[0] == 6  # chi(1) = 2g
    assert h1.faithful
    # Lefschetz: chi(h) = 2 - Fix(h) on a nontrivial class, against the
    # direct coset scan of fixed_points
    cases = [(G, t)]
    for H, type_ in ((catalog.psl2(8), (2, 3, 7)), (catalog.psl2(13), (2, 3, 7)),
                     (catalog.alternating(5), (2, 5, 5))):
        cases.append((H, dessins.enumerate_triples(H, type_)[0].representative))
    for G, t in cases:
        h1 = h1_character(G, t)
        for ci, cls in enumerate(G.conjugacy_classes()):
            if ci == 0:
                continue
            assert h1.character.values[ci] == 2 - fixed_points(G, t, cls[0])


def test_h1_orthogonal_to_trivial(klein):
    G, t = klein
    h1 = h1_character(G, t)
    triv = trivial_character(G)
    assert h1.character.inner_product(triv) == 0
    assert triv.inner_product(triv) == 1


def test_permutation_character_transitive(klein):
    G, t = klein
    for which, size in (("x", 84), ("y", 56), ("z", 24)):
        chi = permutation_character(G, t, which)
        assert chi.values[0] == size
        # transitivity: one trivial constituent (Burnside)
        assert chi.inner_product(trivial_character(G)) == 1
    # the three coset actions together are the direct scan of fixed_points
    chis = [permutation_character(G, t, which) for which in "xyz"]
    for ci, cls in enumerate(G.conjugacy_classes()[1:], start=1):
        assert sum(chi.values[ci] for chi in chis) == fixed_points(G, t, cls[0])


def test_character_suite_all_small_census_entries():
    """Census-wide identities for the genus 3, 7 and 14 entries."""
    for q in (7, 8, 13):
        G = catalog.psl2(q)
        for cls in dessins.enumerate_triples(G, (2, 3, 7)):
            t = cls.representative
            assert fixed_point_class_sum(G, t) == stabilizer_count_formula(G, t)
            h1 = h1_character(G, t)
            assert h1.character.values[0] == 2 * cls.genus
            assert h1.faithful
            assert h1.character.inner_product(trivial_character(G)) == 0
            assert all(v == int(v) for v in h1.character.values)


def test_h1_rejects_low_genus():
    G = catalog.alternating(5)
    t = dessins.enumerate_triples(G, (2, 3, 5))[0].representative
    with pytest.raises(ValueError):
        h1_character(G, t)  # spherical quotient, genus 0


def test_character_report(klein):
    G, t = klein
    rep = character_report(G, t)
    assert rep["genus"] == 3
    assert rep["faithful"] is True
    assert rep["trivial_multiplicity"] == "0"
    assert len(rep["rows"]) == 6
    assert rep["rows"][0] == {"class_order": 1, "class_size": 1, "chi_value": 6}
    assert sum(r["class_size"] for r in rep["rows"]) == 168
