"""The benchmark's tracer must find every function it wraps, and undo itself.

`perfbench/spans.py` rebinds the functions listed in `SPANNED` by name, so a
refactor that renames or removes one breaks `perfbench/run.py --trace 1`.
"""

import importlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import hurwitz.cli  # noqa: E402  (loads every hurwitz module)
import spans  # noqa: E402


def _resolve(mod, attr):
    owner = importlib.import_module(f"hurwitz.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _bindings():
    """Every module-level and class-level binding in the loaded hurwitz modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "hurwitz" or name.startswith("hurwitz."):
            for attr, value in vars(module).items():
                out[name, attr] = value
                if isinstance(value, type):
                    out.update(((name, attr, k), v) for k, v in vars(value).items())
    return out


def test_every_spanned_name_resolves():
    for mod, attr in spans.SPANNED:
        assert callable(_resolve(mod, attr)), f"hurwitz.{mod}.{attr}"


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    originals = {key: _resolve(*key) for key in spans.SPANNED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for key, original in originals.items():
            assert _resolve(*key) is not original, f"{key} was not wrapped"
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


# jobs whose spans take work notes: groups built, dessin and origami classes
# found, kernel relation rows (`SchreierData.relator_words`), subspaces
TRACED_JOBS = [
    ("dessins", "--group", "psl2:7"),
    ("origami", "--genus", "3"),
    ("homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "3"),
]


def test_traced_jobs_note_their_work():
    """The work notes read the library only under `run.py --trace 1`, so a
    rename they miss shows here and not in the untraced jobs."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in TRACED_JOBS:
            with redirect_stdout(io.StringIO()):
                assert tracer.job(lambda argv=argv: hurwitz.cli.main(list(argv))) == 0
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, tracer.pmul_calls())
    assert metrics["cli.jobs"][0] == len(TRACED_JOBS)
    for name in ("group.elements_built", "dessins.classes_found",
                 "origami.classes_found", "homology.relation_rows",
                 "homology.subspaces_scanned"):
        assert metrics[name][0] > 0, name
