import hashlib
import io
import json
from time import perf_counter

import pytest

from hurwitz import catalog, cli, dessins, group, homology

import oracles


def run(args):
    buf = io.StringIO()
    parser = cli.build_parser()
    try:
        parsed = parser.parse_args(args)
        code = parsed.func(parsed, buf)
    except cli.UsageError:
        return 1, ""
    return code, buf.getvalue()


def run_main(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_splitting_example(capsys):
    code, out = run_main(["splitting", "--prime", "13"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert (report["e"], report["f"], report["g"]) == (1, 1, 3)


def test_splitting_tsv(capsys):
    code, out = run_main(["splitting", "--prime", "2", "--format", "tsv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "prime\te\tf\tg"
    assert lines[1] == "2\t1\t3\t1"


def test_usage_errors_exit_one(capsys):
    assert cli.main(["nosuchcommand"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["splitting"]) == 1  # missing --prime
    assert cli.main(["splitting", "--prime", "9"]) == 1  # not prime
    assert cli.main(["census", "--max-genus", "3", "--type", "bad"]) == 1
    assert cli.main(["dessins", "--group", "nosuch:1", "--type", "2,3,7"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["homology", "--group", "psl2:7", "--ell", "6"],
    ["homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "9"],
    ["homology", "--group", "psl2:7", "--ell", "2", "--extensions"],
    # primes with 169 Schreier generators × (ell − 1)² ≥ 2^53: the action
    # products would not be exact in float64 (nor the first in int64)
    ["homology", "--group", "psl2:7", "--ell", "4294967311"],
    ["homology", "--group", "psl2:7", "--ell", "7300487"],
    ["origami", "--genus", "1"],
    ["character", "--group", "alt:5", "--type", "2,3,5"],
    ["census", "--max-genus", "-5"],
    ["census", "--max-genus", "3", "--cap", "0"],
    ["dessins", "--group", "psl2:7", "--data-pack", "X"],
    ["census", "--max-genus", "3", "--data-pack", "/nonexistent"],
], ids=" ".join)
def test_bad_values_exit_one(args, capsys):
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_homology_just_under_the_float_bound(capsys):
    # 7300481 is the largest prime with 169 × (ell − 1)² < 2^53
    code, out = run_main(["homology", "--group", "psl2:7", "--ell", "7300481"], capsys)
    assert code == 0 and json.loads(out)["dim"] == 6


@pytest.mark.parametrize("args,unchecked,counts", [
    (["--max-genus", "3", "--cap", "100"], [168], {}),
    # the order-1344 group is built only when genus 17 asks for it
    (["--max-genus", "17", "--cap", "1000"], [1092, 1344], {"3": 1, "7": 1}),
], ids=["census --max-genus 3 --cap 100", "census --max-genus 17 --cap 1000"])
def test_census_cap_lists_unchecked_order(args, unchecked, counts, capsys):
    code, out = run_main(["census", *args], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["unchecked_orders"] == unchecked
    for genus, count in counts.items():
        assert report["counts"][genus] == count


def test_cap_exceeded_exit_two(capsys):
    code = cli.main(["dessins", "--group", "psl2:27", "--cap", "100"])
    capsys.readouterr()
    assert code == 2


def test_extension_cap_checked_before_any_table(capsys, monkeypatch):
    # |E| = 168 * 2^6 is known from the quotient's dimension alone
    def refuse(*args, **kwargs):
        raise AssertionError("extension table built")

    monkeypatch.setattr(homology, "_cocycle_table", refuse)
    monkeypatch.setattr(homology, "_propagate_actions", refuse)  # rho of every g
    monkeypatch.setattr(homology, "group_from_rule", refuse)
    code = cli.main(["homology", "--group", "psl2:7", "--ell", "2",
                     "--invariant-dim", "0", "--extensions", "--cap", "5000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("infeasible: order cap exceeded (extension "
                            "2^6.PSL(2,7)#1: 168 × 2^6 = 10752 > cap 5000)\n")


def test_origami_cap_checked_before_any_group(capsys, monkeypatch):
    # 4 (g - 1) = 399,996 is known from the genus alone
    def refuse(*args, **kwargs):
        raise AssertionError("group closed")

    monkeypatch.setattr(group, "group_from_generators", refuse)
    monkeypatch.setattr(catalog, "group_from_generators", refuse)
    code = cli.main(["origami", "--genus", "100000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("infeasible: order cap exceeded (origami search: "
                            "order 399996 > cap 200000)\n")


def test_cap_error_names_stage_group_and_degree(capsys):
    code = cli.main(["dessins", "--group", "psl2:32", "--cap", "5000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("infeasible: order cap exceeded (group closure of "
                            "PSL(2,32): 5001 elements reached > cap 5000, "
                            "degree 33)\n")


def test_rule_cap_error_names_stage_group_and_ncodes(capsys, monkeypatch):
    # |E| = 1344 passes the extension's own check; its closure meets cap 1000
    def capped(*args, **kwargs):
        return group.group_from_rule(*args, **{**kwargs, "cap": 1000})

    monkeypatch.setattr(homology, "group_from_rule", capped)
    code = cli.main(["homology", "--group", "psl2:7", "--ell", "2",
                     "--invariant-dim", "3", "--extensions"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("infeasible: order cap exceeded (group closure of "
                            "2^3.PSL(2,7)#1: 1074 elements reached > cap 1000, "
                            "ncodes 1344)\n")


# sha256 prefixes of reports that must stay byte-identical across changes
# that only restructure or speed up the library; a change that alters one of
# these reports on purpose updates its prefix and says so
REPORT_PREFIXES = {
    ("census", "--max-genus", "17"): "27bde7ddab613033",
    ("census", "--max-genus", "146"): "9e25f697ff64fee0",
    ("dessins", "--group", "psl2:27", "--characters"): "52c3fb0f1cfc52b3",
    ("homology", "--group", "psl2:27", "--ell", "2"): "8be1bf99901ad001",
    ("dessins", "--group", "psl2:29"): "287962a80131dc50",
    ("origami", "--genus", "16"): "19e9a9df643032ff",  # three A5s, witness C5xA4
    ("origami", "--genus", "17"): "800dd6f4921e5d14",
    ("origami", "--genus", "24"): "c7a789e515f258e1",  # exhaustive_no at order 4p
    ("origami", "--genus", "37"): "8ec4b947ab844afa",
}


@pytest.mark.parametrize("argv", REPORT_PREFIXES, ids=" ".join)
def test_report_bytes_are_pinned(argv, capsys):
    code, out = run_main(list(argv), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == REPORT_PREFIXES[argv]


def test_genus17_census_builds_no_permutation_rows(capsys, monkeypatch):
    # the class order of the order-1344 groups compares codes, not rows
    def refuse(rule, ncodes, code):
        raise AssertionError("permutation row built")

    monkeypatch.setattr(group, "_rule_row", refuse)
    code, out = run_main(["census", "--max-genus", "17"], capsys)
    assert code == 0 and json.loads(out)["counts"]["17"] == 2


def test_genus17_census_rewrites_generator_rows_once(capsys, monkeypatch):
    # the cocycle table is read off the Schreier tree, so no generator row
    # c(s, .) is rewritten, and the scalar rewriter is the tests' oracle
    # (`oracles.rewrite`) only; the batch rewriter traces the 2 x 6
    # conjugated generators of the action once for the module and, per
    # quotient, the 4 x 40 sampled cocycle words and the 2 generator lifts:
    # 12 + 2 x (160 + 2) = 336
    words, scalar = [], []
    rewrite_words = homology.SchreierData.rewrite_words
    rewrite = oracles.rewrite

    def counting_words(self, batch, weights):
        words.append(len(batch))
        return rewrite_words(self, batch, weights)

    def counting(*args, **kwargs):
        scalar.append(1)
        return rewrite(*args, **kwargs)

    monkeypatch.setattr(homology.SchreierData, "rewrite_words", counting_words)
    monkeypatch.setattr(oracles, "rewrite", counting)
    code, _ = run_main(["census", "--max-genus", "17"], capsys)
    assert code == 0 and sum(words) == 336 and not scalar


def test_submodule_lattice_infeasible_exit_two(capsys):
    code = cli.main(["homology", "--group", "psl2:13", "--ell", "2",
                     "--invariant-dim", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("infeasible: submodule lattice: 2^28 vectors")
    for part in ("ell = 2", "dim 28", f"limit {homology.SUBSPACE_SCAN_LIMIT}"):
        assert part in captured.err


@pytest.mark.parametrize("group,ell,dim,count", [
    ("psl2:8", 2, 6, 1),  # 9.6e14 candidate subspaces for a scan
    ("psl2:7", 7, 3, 1),
])
def test_submodule_lattice_beyond_the_scan(group, ell, dim, count, capsys):
    start = perf_counter()
    code, out = run_main(["homology", "--group", group, "--ell", str(ell),
                          "--invariant-dim", str(dim)], capsys)
    assert perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["invariant_submodules"] == {"dim": dim, "count": count}


@pytest.mark.parametrize("dim", [1, 7])
def test_invariant_lines_beyond_the_lattice(dim, capsys):
    """S5's module mod 7 has 7^8 vectors, beyond the lattice, but its lines
    and hyperplanes come from eigenspaces.  An exhaustive scan of the 960,800
    lines of F_7^8 and of its dual finds no invariant one."""
    assert 7 ** 8 > homology.SUBSPACE_SCAN_LIMIT
    code, out = run_main(["homology", "--group", "sym:5", "--type", "2,4,5",
                          "--ell", "7", "--invariant-dim", str(dim)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 8
    assert report["invariant_submodules"] == {"dim": dim, "count": 0}


def test_origami_genus_six(capsys):
    code, out = run_main(["origami", "--genus", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "exhaustive_no"
    assert len(report["searched_groups"]) == 5


def test_origami_group(capsys):
    code, out = run_main(["origami", "--group", "dic:2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] >= 1
    assert report["classes"][0]["commutator_order"] == 2


def test_dessins_psl213(capsys):
    code, out = run_main(["dessins", "--group", "psl2:13", "--type", "2,3,7"],
                         capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 3
    z_classes = {c["passport"]["z_class"] for c in report["classes"]}
    assert len(z_classes) == 3


def test_congruence_prime(capsys):
    code, out = run_main(["congruence", "--prime", "13"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["curves"]) == 3
    assert all(c["genus"] == 14 for c in report["curves"])


def test_congruence_group_match(capsys):
    code, out = run_main(["congruence", "--group", "psl2:8"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["match"]["ell"] == 2


def test_homology_subcommand(capsys):
    code, out = run_main(["homology", "--group", "psl2:7", "--ell", "2",
                          "--invariant-dim", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 6
    assert report["fixed_subspace_dim"] == 0
    assert report["invariant_submodules"]["count"] == 2


def test_character_subcommand(capsys):
    code, out = run_main(["character", "--group", "psl2:7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["faithful"] is True
    assert report["ramification_points"] == 164
    assert report["rows"][0]["chi_value"] == 6


def test_census_small_and_deterministic(capsys):
    code1, out1 = run_main(["census", "--max-genus", "4"], capsys)
    code2, out2 = run_main(["census", "--max-genus", "4"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across runs
    report = json.loads(out1)
    assert report["schema"] == 1
    assert report["counts"] == {"2": 0, "3": 1, "4": 0}
    assert report["catalog_version"]
    assert report["catalog_conditional"] is True


def test_census_characters_flag(capsys):
    code, out = run_main(["census", "--max-genus", "3", "--characters"], capsys)
    assert code == 0
    report = json.loads(out)
    row = next(r for r in report["census"] if r["genus"] == 3)
    char = row["groups"][0]["classes"][0]["character"]
    assert char["faithful"] is True
    assert char["genus"] == 3


def test_census_characters_reuse_the_census_enumeration(monkeypatch, capsys):
    calls = []
    enumerate_triples = dessins.enumerate_triples

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return enumerate_triples(*args, **kwargs)
    monkeypatch.setattr(dessins, "enumerate_triples", counted)
    code, out = run_main(["census", "--max-genus", "7", "--characters"], capsys)
    assert code == 0
    # one enumeration per candidate group: PSL(2,7), SL(2,7), PSL(2,8)
    assert calls == ["PSL(2,7)", "SL(2,7)", "PSL(2,8)"]
    report = json.loads(out)
    genera = [cls["character"]["genus"] for row in report["census"]
              for grp in row["groups"] for cls in grp["classes"]]
    assert genera == [3, 7]


def test_census_characters_build_each_candidate_once(monkeypatch, capsys):
    built = []
    psl2 = catalog.psl2

    def counted(q, *args, **kwargs):
        built.append(q)
        return psl2(q, *args, **kwargs)
    monkeypatch.setattr(catalog, "psl2", counted)
    code, out = run_main(["census", "--max-genus", "14", "--characters"], capsys)
    assert code == 0
    assert built == [7, 8, 13]
    # the characters only add fields to the plain census report
    report = json.loads(out)
    for row in report["census"]:
        for grp in row["groups"]:
            for cls in grp["classes"]:
                assert cls.pop("character")["genus"] == row["genus"]
    monkeypatch.undo()
    assert report == json.loads(run_main(["census", "--max-genus", "14"], capsys)[1])


def test_data_pack_env(tmp_path, monkeypatch, capsys):
    from hurwitz.catalog import save_group, cyclic
    monkeypatch.setenv("HURWITZ_DATA_PACK", str(tmp_path))
    save_group(cyclic(3), tmp_path / "c3.grp")
    parser = cli.build_parser()
    args = parser.parse_args(["census", "--max-genus", "2"])
    assert args.data_pack == str(tmp_path)


def test_data_pack_env_read_on_every_main_call(tmp_path, monkeypatch, capsys):
    """`main` builds its parser once, yet each call reads $HURWITZ_DATA_PACK
    as it is then, and checks it as a directory."""
    G = catalog.psl2(7)
    G.name = "packed PSL(2,7)"
    catalog.save_group(G, tmp_path / "psl27.grp")
    args = ["census", "--max-genus", "3"]
    monkeypatch.delenv("HURWITZ_DATA_PACK", raising=False)
    code, out = run_main(args, capsys)
    assert code == 0 and "packed" not in out
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1))
    monkeypatch.setenv("HURWITZ_DATA_PACK", str(tmp_path))
    code, out = run_main(args, capsys)
    genus3 = next(r for r in json.loads(out)["census"] if r["genus"] == 3)
    assert code == 0 and "packed PSL(2,7)" in genus3["searched"]
    monkeypatch.setenv("HURWITZ_DATA_PACK", str(tmp_path / "missing"))
    assert run_main(args, capsys)[0] == 1
    monkeypatch.delenv("HURWITZ_DATA_PACK")
    code, out = run_main(args, capsys)
    assert code == 0 and "packed" not in out
    assert not builds
