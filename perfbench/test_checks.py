"""Self-test of the benchmark's correctness checks.

Each check must pass the library's real report and reject a copy altered in
one field.  Run with `python3 -m pytest -q perfbench/test_checks.py` (about
ten seconds; one job builds the two order-1344 groups).
"""

from __future__ import annotations

import copy
import functools
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from hurwitz import cli  # noqa: E402

@functools.lru_cache(maxsize=None)
def _printed(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def report(*argv):
    """A fresh copy of the report the CLI prints for argv (run once per argv)."""
    return json.loads(_printed(argv))


def rejected(argv, rep, fragment):
    with pytest.raises(checks.CheckError, match=fragment):
        checks.check_job(argv, rep)


CENSUS = ("census", "--max-genus", "7")
DESSINS = ("dessins", "--group", "psl2:7", "--characters")
KLEIN = ("homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "3",
         "--extensions")


def _row(rep, genus):
    return next(r for r in rep["census"] if r["genus"] == genus)


def _census_class(rep):
    return _row(rep, 7)["groups"][0]["classes"][0]


CENSUS_ALTERATIONS = [
    (lambda r: r["counts"].update({"7": 0}), "Conder"),
    (lambda r: r.update(unchecked_orders=[84]), "unchecked"),
    (lambda r: _census_class(r).update(class_size=504), "PGammaL"),
    (lambda r: _census_class(r).update(genus=8), "class genus"),
    (lambda r: _row(r, 3).update(count=2), "count"),
    (lambda r: _row(r, 3).update(order=336), "order"),
]


@pytest.mark.parametrize("alter,fragment", CENSUS_ALTERATIONS)
def test_census_check(alter, fragment):
    rep = report(*CENSUS)
    checks.check_job(CENSUS, rep)
    alter(rep)
    rejected(CENSUS, rep, fragment)


def _chi_row(rep, order):
    rows = rep["classes"][0]["character"]["rows"]
    return next(r for r in rows if r["class_order"] == order)


DESSINS_ALTERATIONS = [
    (lambda r: r.update(count=2), "Macbeath"),
    (lambda r: r.update(order=336), "order"),
    (lambda r: r["classes"][0].update(class_size=168), "PGammaL"),
    (lambda r: r["classes"][0]["representative"].update(orders=[2, 3, 14]),
     "representative orders"),
    (lambda r: _chi_row(r, 1).update(chi_value=4), r"chi\(1\)"),
    (lambda r: _chi_row(r, 3).update(chi_value=1), "class sum of Fix"),
    (lambda r: _chi_row(r, 3).update(class_size=55), "sum to the group order"),
    (lambda r: r["classes"][0]["character"].update(trivial_multiplicity="1"),
     "reported <chi, 1>"),
    (lambda r: r["classes"][0]["character"].update(faithful=False), "faithful"),
]


@pytest.mark.parametrize("alter,fragment", DESSINS_ALTERATIONS)
def test_dessins_check(alter, fragment):
    rep = report(*DESSINS)
    checks.check_job(DESSINS, rep)
    alter(rep)
    rejected(DESSINS, rep, fragment)


HOMOLOGY_ALTERATIONS = [
    (lambda r: r.update(dim=5), "2g"),
    (lambda r: r.update(schreier_generators=168), "index formula"),
    (lambda r: r.update(ell=3), "ell"),
    (lambda r: r["invariant_submodules"].update(count=1), "invariant submodules"),
    (lambda r: r["extensions"][1].update(order=672), "extension orders"),
    (lambda r: r["extensions"][1].update(name=r["extensions"][0]["name"]), "names"),
]


@pytest.mark.parametrize("alter,fragment", HOMOLOGY_ALTERATIONS)
def test_homology_check(alter, fragment):
    rep = report(*KLEIN)
    checks.check_job(KLEIN, rep)
    alter(rep)
    rejected(KLEIN, rep, fragment)


def _as_refusal(r):
    del r["witness"]
    r["verdict"] = "exhaustive_no"


ORIGAMI_ALTERATIONS = [
    (3, lambda r: r["witness"].update(b=r["witness"]["a"]), "commutator order"),
    (3, lambda r: r["witness"].update(group="C8"), "commutator order"),
    (3, lambda r: r["witness"].update(group="D12"), "not searched"),
    (3, lambda r: r["searched_groups"].append("D12"), "unknown groups"),
    (3, _as_refusal, "neither 4 nor 4p"),
    (4, _as_refusal, "has an origami pair"),
    (6, lambda r: r.update(verdict="unknown_no_witness"), "verdict"),
    (6, lambda r: r["searched_groups"].pop(), "types"),
    (6, lambda r: r["searched_groups"].__setitem__(4, "C20"), "same element orders"),
    (6, lambda r: r.update(order=24), "order"),
]


@pytest.mark.parametrize("genus,alter,fragment", ORIGAMI_ALTERATIONS)
def test_origami_check(genus, alter, fragment):
    argv = ("origami", "--genus", str(genus))
    rep = report(*argv)
    checks.check_job(argv, rep)
    alter(rep)
    rejected(argv, rep, fragment)


class _RaisingCli:
    @staticmethod
    def main(argv):
        raise ValueError("escaped")


def test_verify_counts_failures_and_catches_drift():
    jobs = [("origami", "--genus", "2")]
    good = run.run_job(cli, jobs[0])
    assert run.verify(jobs, [[good], [copy.copy(good)]]) == (0, [])
    bad = run.run_job(_RaisingCli, jobs[0])
    assert (bad.code, bad.error) == (None, "ValueError: escaped")
    assert run.verify(jobs, [[good], [bad]]) == (
        1, ["origami --genus 2: output differs between rounds"])
    drift = copy.copy(good)
    drift.stdout = good.stdout.replace("exhaustive_no", "unknown_no_witness")
    assert run.verify(jobs, [[good], [drift]])[1] == [
        "origami --genus 2: output differs between rounds"]
    wrong = copy.copy(good)
    wrong.stdout = good.stdout.replace('"genus": 2', '"genus": 3')
    failed, problems = run.verify(jobs, [[wrong]])
    assert failed == 0 and len(problems) == 1 and "CheckError" in problems[0]
