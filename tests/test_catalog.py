import random

import pytest

from hurwitz import catalog
from hurwitz.fields import Fq, prime_power
from hurwitz.catalog import (Catalog, abelian, alternating, cyclic, dicyclic,
                             dihedral, groups_of_order, groups_of_order_4p,
                             load_group, metacyclic, parse_group_spec, pgl2,
                             psl2, save_group, semidirect, sl2, symmetric)


def test_closed_form_orders():
    assert cyclic(12).order == 12
    assert abelian([2, 3, 4]).order == 24
    assert dihedral(7).order == 14
    assert dicyclic(3).order == 12
    assert symmetric(5).order == 120
    assert alternating(6).order == 360
    assert psl2(7).order == 168
    assert psl2(8).order == 504
    assert sl2(3).order == 24
    assert pgl2(5).order == 120
    assert metacyclic(6, 5).order == 12


def test_dicyclic_2_unique_involution():
    Q8 = dicyclic(2)
    assert Q8.order == 8
    involutions = [i for i in range(8) if Q8.element_order(i) == 2]
    assert len(involutions) == 1


def test_psl2_orders_match_formula():
    for q in (4, 5, 7, 8, 9, 11, 13, 27):
        expected = q * (q * q - 1) // (2 if q % 2 else 1)
        assert psl2(q).order == expected


def test_semidirect_klein_action():
    # C3 acting on (Z/2)^2 by a 3-cycle matrix gives A4
    G = semidirect([2, 2], [[[0, 1], [1, 1]]])
    assert G.order == 12
    hist = sorted(G.element_orders())
    assert hist == sorted(alternating(4).element_orders())


def test_semidirect_rejects_noninvertible_matrix():
    with pytest.raises(ValueError):
        semidirect([2, 2], [[[1, 1], [1, 1]]])


def _order_histogram(G):
    hist = {}
    for o in G.element_orders():
        hist[o] = hist.get(o, 0) + 1
    return tuple(sorted(hist.items()))


@pytest.mark.parametrize("p,count", [(5, 5), (7, 4), (13, 5)])
def test_groups_of_order_4p_complete_and_distinct(p, count):
    groups = groups_of_order_4p(p)
    assert len(groups) == count
    assert all(G.order == 4 * p for G in groups)
    hists = [_order_histogram(G) for G in groups]
    assert len(set(hists)) == len(hists)  # pairwise non-isomorphic


def test_groups_of_order_12_includes_a4():
    names = {_order_histogram(G) for G in groups_of_order_4p(3)}
    assert _order_histogram(alternating(4)) in names


def test_save_load_roundtrip(tmp_path):
    G = psl2(7)
    path = tmp_path / "psl27.grp"
    save_group(G, path)
    H = load_group(path)
    assert H.order == G.order
    assert H.name == G.name
    assert set(H.elements) == set(G.elements)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("degree 3\nname X\n0 1 1\n")
    with pytest.raises(ValueError):
        load_group(path)
    path.write_text("name X\n0 1 2\n")
    with pytest.raises(ValueError):
        load_group(path)


def test_parse_group_spec():
    assert parse_group_spec("psl2:7").order == 168
    assert parse_group_spec("alt:5").order == 60
    assert parse_group_spec("cyc:9").order == 9
    assert parse_group_spec("dic:2").order == 8
    assert parse_group_spec("abelian:2,2,2").order == 8
    G = parse_group_spec("semidirect:2,2:0,1;1,1")
    assert G.order == 12
    with pytest.raises(ValueError):
        parse_group_spec("nosuch:5")
    with pytest.raises(ValueError):
        parse_group_spec("psl2:six")


def test_parse_group_spec_file(tmp_path):
    path = tmp_path / "g.grp"
    save_group(cyclic(5), path)
    G = parse_group_spec(f"file:{path}")
    assert G.order == 5


def test_catalog_perfect_candidates():
    cat = Catalog()
    names = [G.name for G in cat.perfect_candidates(168)]
    assert any("PSL(2,7)" in n for n in names)
    assert cat.perfect_candidates(84) == []
    assert cat.searched_families(84)  # solvable families recorded as searched


def test_catalog_add_group():
    cat = Catalog()
    cat.add_group(alternating(5))
    names = [G.name for G in cat.perfect_candidates(60)]
    assert names.count("A5") >= 1


def test_catalog_candidates_built_once_until_add_group():
    cat = Catalog()
    first = cat.perfect_candidates(60)
    again = cat.perfect_candidates(60)
    assert [G is H for G, H in zip(first, again)] == [True] * len(first)
    again.clear()  # callers get their own list
    cat.add_group(alternating(5))
    assert len(cat.perfect_candidates(60)) == len(first) + 1


def test_groups_of_order_16_contains_modular_group():
    hists = {_order_histogram(G) for G in groups_of_order(16)}
    assert _order_histogram(metacyclic(8, 5)) in hists


def _scalar_projective_perm(F, M):
    """Oracle for _projective_perm: every image by scalar field arithmetic."""
    (a, b), (c, d) = M
    q = F.q
    images = []
    for z in range(q):
        num = F.add(F.mul(a, z), b)
        den = F.add(F.mul(c, z), d)
        images.append(q if den == 0 else F.mul(num, F.inv(den)))
    num, den = a, c
    images.append(q if den == 0 else F.mul(num, F.inv(den)))
    return tuple(images)


def _scalar_vector_perm(F, M):
    """Oracle for _vector_perm: the images of the nonzero vectors, listed
    u-major, by scalar field arithmetic."""
    (a, b), (c, d) = M
    q = F.q
    points = [(u, v) for u in range(q) for v in range(q) if (u, v) != (0, 0)]
    pt_index = {pt: i for i, pt in enumerate(points)}
    return tuple(pt_index[(F.add(F.mul(a, u), F.mul(b, v)),
                           F.add(F.mul(c, u), F.mul(d, v)))] for u, v in points)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 13, 16, 25, 27, 32])
def test_generator_perms_match_scalar_oracles(q):
    """The table-read permutations of the catalog's generator matrices, of
    PGL's diagonal one and of random invertible matrices (c = 0 among them)."""
    F = Fq(*prime_power(q))
    rng = random.Random(q)
    mats = catalog._sl2_generator_matrices(F) + [((F.generator(), 0), (0, 1))]
    while len(mats) < 2 * F.f + 7:
        a, b, d = (rng.randrange(q) for _ in range(3))
        c = rng.randrange(q) if len(mats) % 2 else 0
        if F.add(F.mul(a, d), F.neg(F.mul(b, c))):
            mats.append(((a, b), (c, d)))
    for M in mats:
        assert catalog._projective_perm(F, M) == _scalar_projective_perm(F, M)
        assert catalog._vector_perm(F, M) == _scalar_vector_perm(F, M)
