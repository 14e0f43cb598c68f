"""The acceptance gate: one check, and one reported pass/fail line, per criterion."""

import itertools

import pytest

from conftest import record_acceptance
from hurwitz import arith, catalog, charfix, dessins, homology, origami
from hurwitz.catalog import Catalog
from hurwitz.group import pair_isomorphic
from oracles import fixed_point_class_sum, stabilizer_count_formula
from test_pair_iso import _generating_pairs, brute_force_extends


def _check(name: str, ok: bool) -> None:
    record_acceptance(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


@pytest.fixture(scope="module")
def exts():
    return homology.klein_extension_groups()


@pytest.fixture(scope="module")
def ext_triples(exts):
    return [(e.group, dessins.enumerate_triples(e.group, (2, 3, 7)))
            for e in exts]


def test_criterion_1_hurwitz_census(exts):
    cat = Catalog()
    for e in exts:
        cat.add_group(e.group)  # genus-17 entries from the homology pipeline
    result = dessins.hurwitz_census(cat, 17)
    expected = {str(g): 0 for g in range(2, 18)}
    expected.update({"3": 1, "7": 1, "14": 3, "17": 2})
    ok = result["counts"] == expected and result["unchecked_orders"] == []
    _check("criterion 1 (census h(3)=1 h(7)=1 h(14)=3 h(17)=2, else 0)", ok)


def test_criterion_2_genus_formula():
    got = [dessins.genus_of(n, (2, 3, 7)) for n in (168, 504, 1092, 1344)]
    _check("criterion 2 (genus formula on 168/504/1092/1344)",
           got == [3, 7, 14, 17])


def test_criterion_3_macbeath_cross_validation():
    eligible = []
    ok = True
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27):
        if arith.psl2_order(q) % 84 == 0:
            eligible.append(q)
            count = len(dessins.enumerate_triples(catalog.psl2(q), (2, 3, 7)))
            ok = ok and count == arith.macbeath_class(q).orbit_count
    ok = ok and eligible == [7, 8, 13, 27]
    ok = ok and [arith.macbeath_class(q).orbit_count for q in eligible] == [1, 1, 3, 1]
    _check("criterion 3 (Macbeath counts re-derived for q <= 27)", ok)


def test_criterion_4_splitting_congruence():
    ok = True
    for ell in (2, 7, 13, 29, 41, 43):
        s = arith.splitting_in_k(ell)
        ok = ok and s.e * s.f * s.g == 3
        q = ell ** s.f
        ok = ok and bool(arith.macbeath_class(q))
        curves = arith.congruence_curves(ell)
        ok = ok and len(curves) == s.g
        ok = ok and all(c.genus == 1 + arith.psl2_order(q) // 84 for c in curves)
        ok = ok and (s.g == 3) == (ell % 7 in (1, 6))
    _check("criterion 4 (splitting and congruence data at 2/7/13/29/41/43)", ok)


def test_criterion_5_origami_censuses():
    ok = True
    for g in (3, 4, 5, 7, 9, 13):
        ok = ok and origami.origami_existence(g).verdict == "witness"
    for g in (2, 6, 8, 12, 14, 18, 20, 24):
        ok = ok and origami.origami_existence(g).verdict == "exhaustive_no"
    _check("criterion 5 (origami witnesses and exhaustive refusals)", ok)


def test_criterion_6_homology_pipeline(exts, ext_triples):
    ok = len(exts) == 2 and all(e.group.order == 1344 for e in exts)
    all_reps = [(G, c.representative) for G, classes in ext_triples
                for c in classes]
    ok = ok and all(c.genus == 17 for _, classes in ext_triples for c in classes)
    kept = []
    for G, rep in all_reps:
        if not any(pair_isomorphic(H, (r.x, r.y), (rep.x, rep.y), H=G)
                   for H, r in kept):
            kept.append((G, rep))
    ok = ok and len(kept) == 2  # two distinct kernels: h(17) >= 2
    _check("criterion 6 (two order-1344 extensions, distinct kernels)", ok)


def test_criterion_7_character_suite(ext_triples):
    entries = []
    for q in (7, 8, 13):
        G = catalog.psl2(q)
        entries += [(G, c) for c in dessins.enumerate_triples(G, (2, 3, 7))]
    entries += [(G, c) for G, classes in ext_triples for c in classes]
    ok = True
    for G, cls in entries:
        t = cls.representative
        ok = ok and fixed_point_class_sum(G, t) == stabilizer_count_formula(G, t)
        h1 = charfix.h1_character(G, t)
        ok = ok and h1.character.values[0] == 2 * cls.genus
        ok = ok and h1.character.inner_product(charfix.trivial_character(G)) == 0
        ok = ok and h1.faithful
    _check("criterion 7 (character identities on every census entry)", ok)


def test_criterion_8_oracle_equivalence():
    ok = True
    for n in range(2, 25):
        for G in catalog.groups_of_order(n):
            pairs = _generating_pairs(G, limit=10)
            for p1, p2 in itertools.combinations(pairs, 2):
                ok = ok and (pair_isomorphic(G, p1, p2)
                             == brute_force_extends(G, p1, p2))
    _check("criterion 8 (pair test agrees with brute-force oracle, order <= 24)",
           ok)
