"""Command-line front end for the censuses, catalogs, and certificates.

Exit codes: 0 success, 1 usage error, 2 cap or feasibility error.  All
reports carry a top-level schema field and are byte-identical across runs
for a fixed configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import arith, catalog, charfix, dessins, homology, origami
from .group import CapExceededError, DEFAULT_CAP

SCHEMA = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for feasibility errors, so route usage problems through an exception.
    def error(self, message):
        raise UsageError(message)


def _parse_type(text: str):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad --type {text!r}: want comma-separated integers")
    if len(parts) != 3 or min(parts) < 1:
        raise UsageError(f"bad --type {text!r}: want three positive integers")
    return parts


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _directory(text: str) -> str:
    if not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"not a directory: {text!r}")
    return text


def _load_group(spec: str, cap: int):
    try:
        return catalog.parse_group_spec(spec, cap=cap)
    except CapExceededError:
        raise
    except Exception as exc:
        raise UsageError(f"bad --group {spec!r}: {exc}")


def _emit(report: dict, tsv_rows, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2, sort_keys=False)
        out.write("\n")
    else:
        header, rows = tsv_rows
        out.write("\t".join(header) + "\n")
        for row in rows:
            out.write("\t".join(str(c) for c in row) + "\n")


def _base(report: dict) -> dict:
    return {"schema": SCHEMA, **report}


# -- subcommand handlers ------------------------------------------------------

def _cmd_census(args, out) -> int:
    type_ = _parse_type(args.type)
    cat = catalog.census_catalog(type_=type_, cap=args.cap, data_pack=args.data_pack)
    result = dessins.hurwitz_census(cat, args.max_genus, type_=type_)
    if args.characters:
        for row in result["census"]:
            _append_characters(row, cat, type_, args.cap)
    report = _base(result)
    rows = [(r["genus"], r["order"], r["count"],
             ",".join(g["name"] for g in r["groups"]) or "-")
            for r in result["census"]]
    _emit(report, (["genus", "order", "count", "groups"], rows),
          args.format, out)
    return EXIT_OK


def _append_characters(row, cat, type_, cap):
    # rebuild each class's triple from its serialized element indices
    for grp in row["groups"]:
        G = _group_by_name(cat, grp["name"], row["order"], cap)
        for ser in grp["classes"]:
            rep = ser["representative"]
            t = dessins.TriangleTriple(G, rep["x"], rep["y"], rep["z"], type_)
            ser["character"] = charfix.character_report(G, t)


def _group_by_name(cat, name, order, cap):
    for G in cat.perfect_candidates(order):
        if G.name == name:
            return G
    raise RuntimeError(f"group {name} vanished from the catalog")


def _cmd_dessins(args, out) -> int:
    type_ = _parse_type(args.type)
    G = _load_group(args.group, args.cap)
    classes = dessins.enumerate_triples(G, type_, mode=args.mode)
    report = _base({
        "group": G.name,
        "order": G.order,
        "type": list(type_),
        "mode": args.mode,
        "catalog_version": catalog.CATALOG_VERSION,
        "count": len(classes),
        "classes": [dessins.serialize_class(c) for c in classes],
    })
    if args.characters:
        for cls, ser in zip(classes, report["classes"]):
            ser["character"] = charfix.character_report(G, cls.representative)
    rows = [(c.genus, c.class_size, c.representative.x, c.representative.y,
             c.representative.z, c.passport[3]) for c in classes]
    _emit(report, (["genus", "class_size", "x", "y", "z", "z_class"], rows),
          args.format, out)
    return EXIT_OK


def _cmd_origami(args, out) -> int:
    if (args.group is None) == (args.genus is None):
        raise UsageError("origami needs exactly one of --group or --genus")
    if args.group is not None:
        G = _load_group(args.group, args.cap)
        classes = origami.enumerate_origami_pairs(G)
        report = _base({
            "group": G.name,
            "order": G.order,
            "count": len(classes),
            "classes": [{
                "genus": c.genus,
                "class_size": c.class_size,
                "a": c.representative.a,
                "b": c.representative.b,
                "commutator_order": G.element_order(c.representative.commutator),
            } for c in classes],
        })
        rows = [(c.genus, c.class_size, c.representative.a, c.representative.b)
                for c in classes]
        _emit(report, (["genus", "class_size", "a", "b"], rows),
              args.format, out)
        return EXIT_OK
    verdict = origami.origami_existence(args.genus, cap=args.cap)
    report = _base(verdict.to_json())
    rows = [(verdict.genus, verdict.order, verdict.verdict,
             verdict.witness.group.name if verdict.witness else "-")]
    _emit(report, (["genus", "order", "verdict", "witness_group"], rows),
          args.format, out)
    return EXIT_OK


def _cmd_splitting(args, out) -> int:
    if args.prime < 2:
        raise UsageError("--prime must be >= 2")
    split = arith.splitting_in_k(args.prime)
    report = _base({
        "prime": split.ell,
        "e": split.e,
        "f": split.f,
        "g": split.g,
        "residue_fields": split.residue_fields(),
    })
    rows = [(split.ell, split.e, split.f, split.g)]
    _emit(report, (["prime", "e", "f", "g"], rows), args.format, out)
    return EXIT_OK


def _cmd_congruence(args, out) -> int:
    if args.group is not None:
        G = _load_group(args.group, args.cap)
        match = arith.congruence_match(G)
        report = _base({
            "group": G.name,
            "order": G.order,
            "match": None if match is None else
                     {"ell": match.ell, "f": match.f, "residue_q": match.residue_q},
        })
        rows = [(G.name, "-" if match is None else match.ell)]
        _emit(report, (["group", "ell"], rows), args.format, out)
        return EXIT_OK
    if args.prime is None:
        raise UsageError("congruence needs --prime or --group")
    split = arith.splitting_in_k(args.prime)
    curves = arith.congruence_curves(args.prime)
    report = _base({
        "prime": args.prime,
        "splitting": {"e": split.e, "f": split.f, "g": split.g},
        "curves": [{
            "genus": c.genus,
            "group": c.group_descriptor,
            "moduli_field": c.moduli_field_descriptor,
            "orbit_size": c.orbit_size,
        } for c in curves],
    })
    rows = [(c.genus, c.group_descriptor, c.moduli_field_descriptor,
             c.orbit_size) for c in curves]
    _emit(report, (["genus", "group", "moduli_field", "orbit_size"], rows),
          args.format, out)
    return EXIT_OK


def _first_triple(spec, type_, cap):
    """The group of a --group spec and the representative of its first dessin class."""
    G = _load_group(spec, cap)
    classes = dessins.enumerate_triples(G, type_)
    if not classes:
        raise UsageError(f"{G.name} has no generating triple of type {type_}")
    return G, classes[0].representative


def _cmd_homology(args, out) -> int:
    if args.extensions and args.invariant_dim is None:
        raise UsageError("--extensions needs --invariant-dim")
    type_ = _parse_type(args.type)
    G, t = _first_triple(args.group, type_, args.cap)
    sd = homology.schreier_data(type_, G, t.x, t.y)
    mod = homology.kernel_mod_ell_homology(sd, args.ell)
    report = _base({
        "group": G.name,
        "order": G.order,
        "type": list(type_),
        "ell": args.ell,
        "dim": mod.dim,
        "fixed_subspace_dim": mod.fixed_subspace_dim(),
        "schreier_generators": sd.num_schreier,
    })
    if args.invariant_dim is not None:
        subs = homology.invariant_submodules(mod, args.invariant_dim)
        report["invariant_submodules"] = {
            "dim": args.invariant_dim,
            "count": len(subs),
        }
        if args.extensions:
            report["extensions"] = [
                {"name": E.group.name, "order": E.group.order, "split": E.split}
                for E in homology.extension_quotients(mod, subs, cap=args.cap)]
    rows = [(G.name, args.ell, mod.dim, report["fixed_subspace_dim"])]
    _emit(report, (["group", "ell", "dim", "fixed_dim"], rows),
          args.format, out)
    return EXIT_OK


def _cmd_character(args, out) -> int:
    type_ = _parse_type(args.type)
    G, t = _first_triple(args.group, type_, args.cap)
    rep = charfix.character_report(G, t)
    report = _base({
        "group": G.name,
        "order": G.order,
        "type": list(type_),
        "ramification_points": charfix.ramification_point_count(G, t),
        **rep,
    })
    rows = [(r["class_order"], r["class_size"], r["chi_value"])
            for r in rep["rows"]]
    _emit(report, (["class_order", "class_size", "chi_value"], rows),
          args.format, out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hurwitz", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, group=False):
        p.add_argument("--format", choices=["json", "tsv"], default="json")
        p.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                       help="group order cap")
        if group:
            p.add_argument("--group", required=True,
                           help="group spec, e.g. psl2:7, alt:5, file:PATH")

    p = sub.add_parser("census", help="Hurwitz census by genus")
    common(p)
    p.add_argument("--type", default="2,3,7")
    p.add_argument("--max-genus", type=_positive_int, required=True)
    p.add_argument("--data-pack", type=_directory,
                   default=os.environ.get("HURWITZ_DATA_PACK"),
                   help="directory of generator files added as census "
                        "candidates (default: $HURWITZ_DATA_PACK)")
    p.add_argument("--characters", action="store_true",
                   help="append H^1 character rows per class")
    p.set_defaults(func=_cmd_census)
    parser.census = p  # `main` refreshes its --data-pack default

    p = sub.add_parser("dessins", help="dessin classes for one group")
    common(p, group=True)
    p.add_argument("--type", default="2,3,7")
    p.add_argument("--mode", choices=["exact", "dividing"], default="exact")
    p.add_argument("--characters", action="store_true")
    p.set_defaults(func=_cmd_dessins)

    p = sub.add_parser("origami", help="origami classes or existence verdict")
    common(p)
    p.add_argument("--group")
    p.add_argument("--genus", type=int)
    p.set_defaults(func=_cmd_origami)

    p = sub.add_parser("splitting", help="prime splitting in k = Q(cos 2pi/7)")
    common(p)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=_cmd_splitting)

    p = sub.add_parser("congruence", help="congruence Hurwitz data")
    common(p)
    p.add_argument("--prime", type=int)
    p.add_argument("--group")
    p.set_defaults(func=_cmd_congruence)

    p = sub.add_parser("homology", help="mod-ell kernel homology as a G-module")
    common(p, group=True)
    p.add_argument("--type", default="2,3,7")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--invariant-dim", type=int)
    p.add_argument("--extensions", action="store_true",
                   help="build extension quotients for each invariant submodule")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("character", help="H^1 character of the first triple")
    common(p, group=True)
    p.add_argument("--type", default="2,3,7")
    p.set_defaults(func=_cmd_character)

    return parser


@functools.cache
def _main_parser():
    """The parser of `main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _main_parser()
    # the --data-pack default is $HURWITZ_DATA_PACK as it is now, not as it
    # was when the parser was built
    parser.census.set_defaults(data_pack=os.environ.get("HURWITZ_DATA_PACK"))
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise UsageError("missing subcommand")
        return args.func(args, sys.stdout)
    except (UsageError, ValueError) as exc:
        # a library ValueError means the arguments asked for something
        # undefined (composite ell, genus < 2, a genus-0 type, ...)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"infeasible: order cap exceeded ({exc})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except homology.ScanInfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
