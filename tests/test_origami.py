import os
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitz
from hurwitz import catalog
from hurwitz.origami import (enumerate_origami_pairs, origami_existence,
                             origami_genus)


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


def test_genus_17_witness_scan_batches_its_products():
    """The classification of the genus-17 witness group takes its products in
    a few batches: 1,320 `products` calls when every C_G(x)-orbit took its
    own, 55 with the representatives, orbits and tables batched."""
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
