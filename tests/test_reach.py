"""Every function in `src/hurwitz` is reached by the CLI, or is allowed by name.

A fixed CLI job list runs under `sys.setprofile`.  A library function that
no job calls fails the test unless `ALLOWED` names it with its reason: the
public API of `hurwitz/__init__.py`, a name that `perfbench/` binds or
reads, or a dunder.  Code that only tests call belongs in `tests/oracles.py`,
next to the tests, where it shares no code with the fast path it checks.
"""

import inspect
import io
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hurwitz
from hurwitz import cli

SRC = Path(hurwitz.__file__).resolve().parent

PACK_GROUP = "degree 3\nname S3 from a pack\n1 0 2\n1 2 0\n"

# (argv, exit code); "{pack}" is a data-pack directory holding PACK_GROUP
JOBS = [
    (("census", "--max-genus", "17"), 0),
    (("census", "--max-genus", "14", "--characters", "--format", "tsv"), 0),
    (("census", "--max-genus", "3", "--type", "2,3,8", "--data-pack", "{pack}"), 0),
    (("census", "--max-genus", "3", "--cap", "100"), 0),
    (("dessins", "--group", "psl2:8", "--characters"), 0),
    (("dessins", "--group", "sl2:5", "--type", "3,3,4", "--format", "tsv"), 0),
    (("dessins", "--group", "pgl2:5", "--type", "2,4,6"), 0),
    (("dessins", "--group", "alt:5", "--type", "2,3,5", "--mode", "dividing"), 0),
    (("dessins", "--group", "sym:4", "--type", "2,3,4"), 0),
    (("dessins", "--group", "dih:5", "--type", "2,2,5"), 0),
    (("dessins", "--group", "dic:2", "--type", "4,4,4"), 0),
    (("dessins", "--group", "cyc:6", "--type", "2,3,6"), 0),
    (("dessins", "--group", "abelian:2,2", "--type", "2,2,2"), 0),
    (("dessins", "--group", "semidirect:2,2:0,1;1,1", "--type", "2,3,3"), 0),
    (("dessins", "--group", "file:{pack}/s3.grp", "--type", "2,2,3"), 0),
    (("origami", "--group", "dih:4"), 0),
    (("origami", "--genus", "4", "--format", "tsv"), 0),
    (("origami", "--genus", "13"), 0),
    (("origami", "--genus", "16"), 0),
    (("origami", "--genus", "17"), 0),
    (("origami", "--genus", "100000"), 2),
    (("splitting", "--prime", "7"), 0),
    (("congruence", "--prime", "13"), 0),
    (("congruence", "--group", "psl2:8"), 0),
    (("homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "3",
      "--extensions"), 0),
    (("homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "1"), 0),
    (("homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "5"), 0),
    (("homology", "--group", "psl2:7", "--ell", "3", "--invariant-dim", "2"), 0),
    (("homology", "--group", "psl2:13", "--ell", "7", "--invariant-dim", "2"), 2),
    (("character", "--group", "psl2:7"), 0),
    (("origami", "--genus", "1"), 1),
    (("census", "--max-genus", "0"), 1),
    (("census", "--max-genus", "3", "--data-pack", "{pack}/s3.grp"), 1),
    (("dessins", "--group", "psl2:6"), 1),
    (("homology", "--group", "psl2:7", "--ell", "2", "--extensions"), 1),
    ((), 1),
]

# (module, qualified name) -> why the library keeps a function no job calls
ALLOWED = {
    ("group", "kernel_key"): "public API",
    ("group", "pair_isomorphic"): "public API",
    ("group", "FinGroup.elements"): "public API: the rows `pair_isomorphic` reads",
    ("group", "FinGroup.index"): "public API: `pair_isomorphic` looks up tuple pairs",
    ("group", "_rule_row"): "public API: the rows of a rule group for `pair_isomorphic`",
    ("catalog", "save_group"): "public API: the writer of the data-pack format",
    ("perms", "pmul"): "read by perfbench: `spans.py` counts its calls",
    ("group", "generates"): "read by perfbench: `spans.py` times it",
    ("homology", "SchreierData.relator_words"): "read by perfbench: `spans.py` "
                                                "counts relation rows from it",
    ("catalog", "groups_of_order"): "read by perfbench: `checks.py`",
    ("catalog", "groups_of_order_4p"): "read by perfbench: `checks.py`",
    ("catalog", "_joined"): "read by perfbench: the groups `checks.py` reads",
    ("group", "FinGroup.__len__"): "dunder",
    ("group", "FinGroup.__repr__"): "dunder",
    ("fields", "Fq.__repr__"): "dunder",
}


def _defined():
    """(module, qualified name) of every function compiled from the sources."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        codes = [compile(path.read_text(), str(path), "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                out.add((path.stem, code.co_qualname))
    return out


def _reached(tmp_path):
    """(module, qualified name) of every library function the jobs call."""
    (tmp_path / "s3.grp").write_text(PACK_GROUP)
    seen = set()

    def note(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    cli._main_parser.cache_clear()  # an earlier test may have built it
    previous = sys.getprofile()
    sys.setprofile(note)
    try:
        codes = []
        for argv, _ in JOBS:
            argv = [a.replace("{pack}", str(tmp_path)) for a in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [code for _, code in JOBS]
    return {(Path(c.co_filename).stem, c.co_qualname) for c in seen
            if Path(c.co_filename).resolve().parent == SRC}


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    return _defined(), _reached(tmp_path_factory.mktemp("pack"))


def test_every_library_function_is_reached_or_allowed(reach):
    defined, reached = reach
    unreached = sorted(defined - reached - ALLOWED.keys())
    assert not unreached, "no job calls " + ", ".join(map(".".join, unreached))


def test_allow_list_names_only_unreached_functions(reach):
    defined, reached = reach
    assert sorted(ALLOWED.keys() - defined) == []
    assert sorted(ALLOWED.keys() & reached) == []
