"""Spans around the library's public functions, installed from outside.

`Tracer.install` rebinds each listed function in every loaded hurwitz module
that holds it: `from .group import generates` gives dessins its own binding, so
every binding is replaced, and `Tracer.uninstall` puts the originals back.
`perms.pmul` gets a call counter instead of a span, since it runs millions of
times per job.

Spans are kept in memory as [name, start, end, parent, count]; `count` is a
unit of work the span's arguments or result show (elements built, classes
found, relation rows, subspaces scanned).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from collections import defaultdict
from time import perf_counter

CATALOG_BUILDERS = (
    "cyclic", "abelian", "dihedral", "dicyclic", "symmetric", "alternating",
    "direct_product", "semidirect", "metacyclic", "psl2", "sl2", "pgl2",
    "groups_of_order_4p", "groups_of_order", "load_group", "parse_group_spec",
    "census_catalog", "genus17_groups", "Catalog.perfect_candidates",
)


def _gaussian_binomial(n: int, d: int, ell: int) -> int:
    """Number of d-dimensional subspaces of F_ell^n."""
    num = den = 1
    for i in range(d):
        num *= ell ** (n - i) - 1
        den *= ell ** (d - i) - 1
    return num // den


def _relation_rows(args, kwargs, result):
    sd = args[0]
    return sd.group.order * len(sd.relator_words())


def _subspaces(args, kwargs, result):
    mod, d = args[0], (args[1] if len(args) > 1 else kwargs["d"])
    return _gaussian_binomial(mod.dim, d, mod.ell)


# (module, attribute) -> (span name, work count from (args, kwargs, result))
SPANNED = {
    ("group", "group_from_generators"): ("group.build", lambda a, k, r: r.order),
    ("group", "conjugacy_classes"): ("group.classes", None),
    ("group", "commutator_subgroup"): ("group.commutator", None),
    ("group", "generates"): ("group.generates", None),
    ("group", "pair_isomorphic"): ("group.pair_isomorphic", None),
    ("group", "FinGroup.right_mult_table"): ("group.right_mult_table", None),
    ("dessins", "enumerate_triples"): ("dessins.enumerate", lambda a, k, r: len(r)),
    ("dessins", "hurwitz_census"): ("dessins.census", None),
    ("origami", "enumerate_origami_pairs"): ("origami.enumerate", lambda a, k, r: len(r)),
    ("origami", "origami_existence"): ("origami.existence", None),
    ("homology", "schreier_data"): ("homology.schreier", None),
    ("homology", "kernel_mod_ell_homology"): ("homology.kernel", _relation_rows),
    ("homology", "rref_mod"): ("homology.rref", None),
    ("homology", "invariant_submodules"): ("homology.submodule_scan", _subspaces),
    ("homology", "extension_quotient"): ("homology.extension", None),
    ("charfix", "character_report"): ("charfix.character", None),
    **{("catalog", attr): ("catalog", None) for attr in CATALOG_BUILDERS},
}

class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self._pmul = itertools.count()
        self._undo = []

    def span(self, name, fn, note=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result
        return wrapper

    def job(self, run):
        """Run one CLI job under a root span named 'cli'."""
        return self.span("cli", run)()

    def pmul_calls(self) -> int:
        """pmul calls so far; read once, after the round (it advances the counter)."""
        return next(self._pmul)

    def install(self):
        wrappers = {}  # id(original function) -> wrapper
        for (mod, attr), (name, note) in SPANNED.items():
            owner = importlib.import_module(f"hurwitz.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                setattr(cls, meth, self.span(name, original, note))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrappers[id(original)] = self.span(name, original, note)
        pmul = importlib.import_module("hurwitz.perms").pmul
        tick = self._pmul.__next__

        def counted_pmul(a, b):
            tick()
            return pmul(a, b)
        wrappers[id(pmul)] = counted_pmul
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hurwitz" or n.startswith("hurwitz.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(spans, pmul_calls: int) -> dict:
    """Per-layer seconds and counts from one traced round's spans."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    incl = defaultdict(float)    # outermost spans of a name only
    self_s = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    dedup_calls = groups_built = 0
    for i, (name, start, end, parent, count) in enumerate(spans):
        up = list(ancestors(i))
        if name not in up:
            incl[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
        work[name] += count
        if name == "group.pair_isomorphic" and "dessins.enumerate" in up:
            dedup_calls += 1
        if name == "group.build" and up[:1] == ["catalog"]:
            groups_built += 1
    classes = work["dessins.enumerate"]
    return {
        "perms.pmul_calls": (pmul_calls, "count"),
        "group.pair_isomorphic_s": (incl["group.pair_isomorphic"], "s"),
        "group.pair_isomorphic_calls": (calls["group.pair_isomorphic"], "count"),
        "group.generates_s": (incl["group.generates"], "s"),
        "group.generates_calls": (calls["group.generates"], "count"),
        "group.right_mult_table_s": (incl["group.right_mult_table"], "s"),
        "group.right_mult_table_calls": (calls["group.right_mult_table"], "count"),
        "group.build_s": (incl["group.build"], "s"),
        "group.elements_built": (work["group.build"], "count"),
        "group.classes_s": (incl["group.classes"], "s"),
        "group.commutator_s": (incl["group.commutator"], "s"),
        "catalog.construct_s": (self_s["catalog"], "s"),
        "catalog.groups_built": (groups_built, "count"),
        "dessins.enumerate_s": (incl["dessins.enumerate"], "s"),
        "dessins.scan_self_s": (self_s["dessins.enumerate"], "s"),
        "dessins.classes_found": (classes, "count"),
        "dessins.dedup_calls_per_class": (dedup_calls / classes if classes else 0.0, "ratio"),
        "dessins.census_self_s": (self_s["dessins.census"], "s"),
        "origami.enumerate_s": (incl["origami.enumerate"], "s"),
        "origami.scan_self_s": (self_s["origami.enumerate"], "s"),
        "origami.classes_found": (work["origami.enumerate"], "count"),
        "origami.groups_searched": (calls["origami.enumerate"], "count"),
        "homology.schreier_s": (incl["homology.schreier"], "s"),
        "homology.kernel_s": (incl["homology.kernel"], "s"),
        "homology.rref_s": (incl["homology.rref"], "s"),
        "homology.relation_rows": (work["homology.kernel"], "count"),
        "homology.submodule_scan_s": (incl["homology.submodule_scan"], "s"),
        "homology.subspaces_scanned": (work["homology.submodule_scan"], "count"),
        "homology.extension_s": (incl["homology.extension"], "s"),
        "charfix.character_s": (incl["charfix.character"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.jobs": (calls["cli"], "count"),
    }
