import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz
from hurwitz import catalog, group, origami
from hurwitz.fields import is_prime
from hurwitz.group import CapExceededError, normal_closure
from hurwitz.origami import (enumerate_origami_pairs, origami_existence,
                             origami_genus)
from conftest import catalog_search_groups


def test_origami_genus():
    assert origami_genus(8) == 3
    assert origami_genus(1344) == 337
    with pytest.raises(ValueError):
        origami_genus(6)


def test_quaternion_witness():
    Q8 = catalog.dicyclic(2)
    classes = enumerate_origami_pairs(Q8)
    assert len(classes) >= 1
    involution = next(i for i in range(8) if Q8.element_order(i) == 2)
    for c in classes:
        assert c.representative.commutator == involution
        assert c.genus == 3


def test_cyclic_has_none():
    assert enumerate_origami_pairs(catalog.cyclic(4)) == []
    assert enumerate_origami_pairs(catalog.cyclic(8)) == []


def test_odd_order_group_has_none():
    assert enumerate_origami_pairs(catalog.cyclic(9)) == []


def test_sl23_has_none():
    # every commutator-order-2 pair in SL(2,3) closes into the quaternion
    # subgroup, so SL(2,3) itself carries no origami (exhaustive scan)
    G = catalog.sl2(3)
    assert enumerate_origami_pairs(G) == []


def test_class_sizes_sum_to_brute_count():
    from hurwitz.group import generates
    # the last three have derived subgroups C3, C3 and 1: no involution, so
    # the scan is skipped and the brute count must be 0
    for G in (catalog.dicyclic(2), catalog.dihedral(4), catalog.metacyclic(8, 5),
              catalog.dihedral(6), catalog.dicyclic(3), catalog.abelian([2, 2, 2])):
        classes = enumerate_origami_pairs(G)
        brute = 0
        for a in range(G.order):
            for b in range(G.order):
                c = G.mul(G.mul(G.inv(a), G.inv(b)), G.mul(a, b))
                if G.element_order(c) == 2 and generates(G, (a, b)):
                    brute += 1
        assert sum(c.class_size for c in classes) == brute


@pytest.mark.parametrize("g", [3, 4, 5, 7, 9, 13])
def test_existence_witnesses(g):
    v = origami_existence(g)
    assert v.verdict == "witness"
    assert v.order == 4 * (g - 1)
    w = v.witness
    assert w.group.element_order(w.commutator) == 2
    json = v.to_json()
    assert json["witness"]["commutator_order"] == 2


@pytest.mark.parametrize("g", [2, 6, 8, 12, 14, 18, 20, 24])
def test_existence_exhaustive_no(g):
    v = origami_existence(g)
    assert v.verdict == "exhaustive_no"
    assert v.witness is None
    assert len(v.searched_groups) >= 2


def test_existence_consistent_with_mod6_pattern():
    # witnesses occur exactly at g = 1, 3, 4, 5 mod 6 in the tested range
    for g in range(2, 15):
        v = origami_existence(g)
        if g % 6 in (1, 3, 4, 5):
            assert v.verdict == "witness", g
        else:
            assert v.verdict != "witness", g


def test_existence_rejects_genus_below_two():
    with pytest.raises(ValueError):
        origami_existence(1)


def test_existence_order_mismatch_rejected():
    with pytest.raises(ValueError):
        origami_existence(3, groups=[catalog.cyclic(4)])


def test_default_cap_checked_before_any_group(monkeypatch):
    # 4 (g - 1) = 399,996 is above DEFAULT_CAP, known from the genus alone
    def refuse(*args, **kwargs):
        raise AssertionError("group closed")

    monkeypatch.setattr(group, "group_from_generators", refuse)
    monkeypatch.setattr(catalog, "group_from_generators", refuse)
    with pytest.raises(CapExceededError, match="order 399996 > cap 200000$"):
        origami_existence(100000)


def test_genus_17_witness_scan_batches_its_products():
    """The classification of the genus-17 witness group takes its products in
    a few batches: 1,320 `products` calls when every C_G(x)-orbit took its
    own, 55 with the representatives, orbits and tables batched, 22 when the
    representatives that are automorphic images of earlier ones are skipped."""
    G = origami_existence(17).witness.group
    assert G.name == "C32:C2(t=17)"
    calls = []
    products = G.products

    def counting(I, J):
        calls.append(len(I))
        return products(I, J)

    G.products = counting
    assert enumerate_origami_pairs(G)
    assert len(calls) < 100


def _searched(monkeypatch, genera):
    """The groups each genus's search scans, in search order, by genus."""
    searched = {}
    for g in genera:
        monkeypatch.setattr(origami, "enumerate_origami_pairs",
                            lambda G, out=searched.setdefault(g, []): out.append(G) or [])
        origami_existence(g)
    monkeypatch.undo()
    return searched


def _abelian_catalog_groups(genera):
    return [G for g in genera for G in catalog_search_groups(g)
            if G.commutator_subgroup() == [0]]


def test_derived_subgroup_gate_rejects_only_groups_without_pairs(monkeypatch):
    """G = <a, b> makes G' the normal closure of the involution [a, b].  The
    gate may reject a group only when the unpruned scan finds no pair: on
    the groups the genus 2..25 searches scan, and on the abelian types they
    name, built from the catalog.  Of the groups `origami --genus 2..18`
    scans in full for nothing, it rejects all but the three copies of A5."""
    searched = _searched(monkeypatch, range(2, 26))
    assert sum(map(len, searched.values())) == 99
    groups = [G for gs in searched.values() for G in gs] + \
        _abelian_catalog_groups(range(2, 26))
    rejected = {id(G) for G in groups if not origami._may_have_pairs(G)}
    monkeypatch.setattr(origami, "_may_have_pairs", lambda G: True)
    assert not any(enumerate_origami_pairs(G) for G in groups if id(G) in rejected)

    fruitless = []  # scanned before the witness, past the parity test of |G'|
    for g in range(2, 19):
        v = origami_existence(g)
        scanned = searched[g]
        if v.witness is not None:
            scanned = scanned[:[G.name for G in scanned].index(v.witness.group.name)]
        fruitless += [G for G in scanned if len(G.commutator_subgroup()) % 2 == 0]
    assert sorted(G.name for G in fruitless if id(G) not in rejected) == \
        ["A5", "PSL(2,4)", "PSL(2,5)"]
    assert len(fruitless) == 16
    assert {f"D{n}" for n in range(16, 65, 8)} <= {G.name for G in fruitless}


def _class_gate(G):
    """Oracle for `origami._may_have_pairs`: one `normal_closure` per
    conjugacy class of involutions in G', read off the class list and the
    element orders."""
    if G.order % 4 or len(G.commutator_subgroup()) % 2:
        return False
    derived = set(G.commutator_subgroup())
    return any(len(normal_closure(G, [cls[0]])) == len(derived)
               for cls in G.conjugacy_classes()
               if cls[0] in derived and G.element_order(cls[0]) == 2)


def test_squares_gate_matches_the_class_oracle(monkeypatch):
    """The gate against the class-based oracle on every group the genus
    2..25 searches scan, on the abelian catalog groups of those orders and
    on four groups with even |G'|.  In D8 x A4 the least involution of G'
    is central and its closure has order 2, but a later one generates G'
    (order 8): a gate that tries only the least involution, or reads only
    the parity of |G'|, fails here."""
    searched = _searched(monkeypatch, range(2, 26))
    D8A4 = catalog.direct_product(catalog.dihedral(4), catalog.alternating(4))
    extra = [catalog.sl2(3), catalog.symmetric(4),
             catalog.direct_product(catalog.cyclic(2), catalog.alternating(4)), D8A4]
    groups = [G for gs in searched.values() for G in gs] + \
        _abelian_catalog_groups(range(2, 26)) + extra
    verdicts = [origami._may_have_pairs(G) for G in groups]
    assert verdicts == [_class_gate(G) for G in groups]
    assert verdicts[-len(extra):] == [False, False, True, True]

    derived = D8A4.commutator_subgroup()
    least = min(i for i in derived if D8A4.element_order(i) == 2)
    assert (len(derived), len(normal_closure(D8A4, [least]))) == (8, 2)


def test_abelian_skip_changes_no_verdict(monkeypatch):
    """Each search against a reference that builds every catalog group of
    its order and scans them in order (the explicit-groups path, which
    claims no completeness): the same witness, the same searched names
    (so the abelian names equal the constructors' names), and no verdict
    but an exhaustive one where it is due.  The unpruned scan finds no pair
    in any abelian catalog group of order 4..68."""
    assert origami_existence(4).searched_groups == ("C12", "C2xC6", "D12", "Dic3", "A4")
    for g in range(2, 41):
        v = origami_existence(g)
        ref = origami_existence(g, groups=catalog_search_groups(g))
        complete = g == 2 or is_prime(g - 1) and g > 3
        assert v.verdict == ("exhaustive_no" if complete and ref.witness is None
                             else ref.verdict), g
        got, want = v.to_json(), ref.to_json()
        del got["verdict"], want["verdict"]
        assert got == want, g
    monkeypatch.setattr(origami, "_may_have_pairs", lambda G: True)
    abelian = _abelian_catalog_groups(range(2, 19))
    assert len(abelian) == 60
    assert not any(enumerate_origami_pairs(G) for G in abelian)


def test_origami_searches_never_import_numpy_ma():
    """`origami --genus 2..18` in a fresh interpreter leaves `numpy.ma` (which
    `np.unique` imports, about 1.6 MB resident) unimported."""
    code = ("import contextlib, io, sys\n"
            "from hurwitz import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['origami', '--genus', str(g)]) for g in range(2, 19)]\n"
            "print(codes == [0] * 17, 'numpy.ma' in sys.modules)\n")
    src = str(Path(hurwitz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split() == ["True", "False"]
