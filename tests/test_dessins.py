import pytest
from fractions import Fraction

from hurwitz import catalog, dessins
from hurwitz.catalog import census_catalog
from hurwitz.dessins import (enumerate_triples, genus_of, hurwitz_census,
                             order_for_genus, passport)
from hurwitz.group import group_from_generators
from hurwitz.perms import pmul

from oracles import conj, count_triples_brute, pinv


def test_genus_formula_paper_orders():
    assert genus_of(168, (2, 3, 7)) == 3
    assert genus_of(504, (2, 3, 7)) == 7
    assert genus_of(1092, (2, 3, 7)) == 14
    assert genus_of(1344, (2, 3, 7)) == 17


def test_genus_formula_other_types():
    assert genus_of(60, (2, 3, 5)) == 0  # spherical: A5 on the sphere
    assert genus_of(12, (2, 3, 6)) == 1
    with pytest.raises(ValueError):
        genus_of(100, (2, 3, 7))  # 2g-2 not an integer


def test_order_for_genus():
    assert order_for_genus(3, (2, 3, 7)) == 168
    assert order_for_genus(17, (2, 3, 7)) == 1344
    for g in range(2, 18):
        order = order_for_genus(g, (2, 3, 7))
        assert order == 84 * (g - 1)
    with pytest.raises(ValueError):
        order_for_genus(3, (2, 3, 6))  # euclidean type


def test_klein_quartic_unique_class():
    G = catalog.psl2(7)
    classes = enumerate_triples(G, (2, 3, 7))
    assert len(classes) == 1
    cls = classes[0]
    assert cls.genus == 3
    assert cls.class_size == 336  # |Aut(G)| = 336 for PSL(2,7)
    assert cls.representative.orders() == (2, 3, 7)


def test_class_sizes_sum_to_brute_count():
    for G, type_ in [(catalog.psl2(7), (2, 3, 7)),
                     (catalog.alternating(5), (2, 5, 5)),
                     (catalog.alternating(5), (2, 3, 5))]:
        classes = enumerate_triples(G, type_)
        assert sum(c.class_size for c in classes) == count_triples_brute(G, type_)


def test_first_hurwitz_triplet():
    G = catalog.psl2(13)
    classes = enumerate_triples(G, (2, 3, 7))
    assert len(classes) == 3
    passports = [c.passport for c in classes]
    assert len(set(passports)) == 3  # distinguished by the z-class label
    assert all(c.genus == 14 for c in classes)


def test_dividing_mode_includes_exact():
    G = catalog.alternating(5)
    exact = enumerate_triples(G, (2, 3, 5), mode="exact")
    dividing = enumerate_triples(G, (2, 3, 5), mode="dividing")
    assert len(dividing) >= len(exact)
    assert count_triples_brute(G, (2, 3, 5), mode="dividing") == \
        sum(c.class_size for c in dividing)
    with pytest.raises(ValueError):
        enumerate_triples(G, (2, 3, 5), mode="weird")


def test_passport_invariant_under_conjugation():
    G = catalog.psl2(7)
    cls = enumerate_triples(G, (2, 3, 7))[0]
    t = cls.representative
    for g in (5, 60):
        image = dessins.TriangleTriple(G, conj(G, t.x, g), conj(G, t.y, g),
                                       conj(G, t.z, g), t.type)
        assert passport(image) == passport(t)


def test_abelian_group_has_no_hurwitz_triples():
    G = catalog.cyclic(84)
    assert enumerate_triples(G, (2, 3, 7)) == []


def test_census_small():
    cat = census_catalog()
    result = hurwitz_census(cat, 7)
    assert result["counts"] == {"2": 0, "3": 1, "4": 0, "5": 0, "6": 0, "7": 1}
    assert result["catalog_conditional"] is True
    assert result["unchecked_orders"] == []
    row3 = next(r for r in result["census"] if r["genus"] == 3)
    assert row3["groups"][0]["name"] == "PSL(2,7)"
    assert "PSL(2,7)" in row3["searched"]


def test_census_merges_isomorphic_candidates():
    # a relabelled second PSL(2,7) gives order 168 two candidates, and the
    # cross-group merge keeps one class
    cat = census_catalog()
    G = catalog.psl2(7)
    sigma = tuple((5 * i + 3) % G.degree for i in range(G.degree))
    gens = [pmul(pmul(sigma, g), pinv(sigma)) for g in reversed(G.generators)]
    cat.add_group(group_from_generators(gens, name="PSL(2,7) relabelled"))
    a = hurwitz_census(cat, 7)
    row3 = next(r for r in a["census"] if r["genus"] == 3)
    assert row3["searched"][:2] == ["PSL(2,7)", "PSL(2,7) relabelled"]
    assert a["counts"]["3"] == 1


def test_census_raises_errors_other_than_cap(monkeypatch):
    cat = census_catalog()

    def broken(order):
        raise RuntimeError("catalog bug")
    monkeypatch.setattr(cat, "perfect_candidates", broken)
    with pytest.raises(RuntimeError, match="catalog bug"):
        hurwitz_census(cat, 3)
