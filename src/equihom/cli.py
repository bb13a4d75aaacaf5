"""Command-line interface.

Commands: compute (equivariant groups and edge images over a degree
range), e2 (render the second page), classify (the closed-form surface
classifier), verify (property suites).  Every command emits either an
aligned text report or JSON; identical inputs produce byte-identical JSON.
Exit codes: 0 success, 1 verification failure, internal error or a reader
that closed the output early, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .complexes import (
    BUILTIN_NAMES,
    COEFF_BY_FLAG,
    ComplexError,
    ComplexFormatError,
    builtin,
    load_complex,
)
from .enriques import (
    EnriquesTypeError,
    classify,
    enumerate_types,
    load_type,
)
from .equivariant import (
    edge_morphism,
    eq_cohomology,
    eq_homology,
    les_coeff,
    les_edge,
)
from .intlinalg import FGAbelianGroup, InternalError, LinAlgError
from .spectral import e2_page, edge_surjective
from .verify import SUITES, run_suite


# the most degrees a compute range or an e2 page may span; a thousand
# degrees of a builtin take about a second
MAX_DEGREES = 1000


class InputError(Exception):
    pass


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError("range must look like '-3..2', got %r" % text) \
            from None
    if lo > hi:
        raise InputError("empty range %r" % text)
    if hi - lo + 1 > MAX_DEGREES:
        raise InputError("range %r spans %d degrees, past the cap %d"
                         % (text, hi - lo + 1, MAX_DEGREES))
    return lo, hi


def _load_space(args):
    if args.builtin is not None:
        try:
            return args.builtin, builtin(args.builtin)
        except ComplexError as exc:
            raise InputError(str(exc)) from None
    try:
        return args.file, load_complex(args.file)
    except (ComplexFormatError, OSError) as exc:
        raise InputError(str(exc)) from None


def _emit(report, as_json, render_text):
    if as_json:
        # streamed, so a large report is never one string in memory
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        for line in render_text(report):
            print(line)
    return 0


def cmd_compute(args):
    lo, hi = _parse_range(args.range)
    name, X = _load_space(args)
    coeff = COEFF_BY_FLAG[args.coeff]
    items = []
    for p in range(hi, lo - 1, -1):
        if args.cohomology:
            grp = eq_cohomology(X, coeff, p)
            entry = {"degree": p, "group": grp.to_json(),
                     "group_str": str(grp)}
        else:
            grp = eq_homology(X, coeff, p)
            edge = edge_morphism(X, coeff, p)
            entry = {
                "degree": p,
                "group": grp.to_json(),
                "group_str": str(grp),
                "edge_target": edge.target.to_json(),
                "edge_matrix": [list(r) for r in edge.matrix.data],
                "edge_onto_invariants": edge_surjective(X, coeff, p),
            }
        items.append(entry)
    report = {
        "command": "compute",
        "space": name,
        "auto_subdivided": X.auto_subdivided,
        "coefficients": args.coeff,
        "kind": "cohomology" if args.cohomology else "homology",
        "items": items,
    }
    if args.les:
        reps = [("edge", les_edge(X, coeff, lo, hi))]
        if coeff.ring == "Z":
            reps.append(("coefficient", les_coeff(X, coeff.k, lo, hi)))
        # a sequence that is not exact raises ExactnessError instead
        report["sequences"] = [
            {"sequence": kind, "exact": True,
             "nodes": [{"degree": p, "at": at, "group": str(group),
                        "exact": True}
                       for p, at, group in nodes]}
            for kind, nodes in reps]

    def render(rep):
        yield "space: %s   coefficients: %s   (%s)" % (
            rep["space"], rep["coefficients"], rep["kind"])
        if rep["auto_subdivided"]:
            yield "note: input was subdivided once to restore regularity"
        for item in rep["items"]:
            line = "  degree %3d:  %s" % (item["degree"], item["group_str"])
            if "edge_onto_invariants" in item:
                line += "   edge onto invariants: %s" % \
                    item["edge_onto_invariants"]
            yield line
        for seq in rep.get("sequences", ()):
            yield "  %s sequence exact at all %d nodes: %s" % (
                seq["sequence"], len(seq["nodes"]), seq["exact"])

    return _emit(report, args.json, render)


def cmd_e2(args):
    if args.depth is not None and args.depth + 1 > MAX_DEGREES:
        raise InputError("depth %d spans %d degrees, past the cap %d"
                         % (args.depth, args.depth + 1, MAX_DEGREES))
    name, X = _load_space(args)
    coeff = COEFF_BY_FLAG[args.coeff]
    page = e2_page(X, coeff, args.depth)
    items = [{"p": p, "q": q, "group": grp.to_json(),
              "group_str": str(grp)}
             for (p, q), grp in page.table]
    report = {"command": "e2", "space": name, "coefficients": args.coeff,
              "items": items}

    def render(rep):
        yield "second page for %s with %s coefficients" % (
            rep["space"], rep["coefficients"])
        rows = {}
        for item in rep["items"]:
            rows.setdefault(item["q"], {})[item["p"]] = item["group_str"]
        ps = sorted({item["p"] for item in rep["items"]})
        width = max((len(item["group_str"]) for item in rep["items"]),
                    default=0) + 2
        header = "  q\\p " + "".join(("%d" % p).rjust(width) for p in ps)
        yield header
        for q in sorted(rows, reverse=True):
            yield "  %3d " % q + "".join(
                rows[q].get(p, "").rjust(width) for p in ps)

    return _emit(report, args.json, render)


def cmd_classify(args):
    if args.enumerate is not None:
        table = enumerate_types(args.enumerate)
        items = [{"type": t.canonical_name(), "components": t.s,
                  **out.to_json()} for t, out in table]
        report = {"command": "classify", "enumerate": args.enumerate,
                  "items": items}
    else:
        try:
            t = load_type(args.file)
        except (ComplexFormatError, EnriquesTypeError, OSError) as exc:
            raise InputError(str(exc)) from None
        out = classify(t)
        report = {"command": "classify", "type": t.canonical_name(),
                  "items": [{"type": t.canonical_name(),
                             "components": t.s, **out.to_json()}]}

    def render(rep):
        yield "%-28s %3s %6s %8s %6s %6s  %s" % (
            "type", "s", "dim_h1", "h1_alg", "GM", "Z-GM", "Brauer")
        for item in rep["items"]:
            brauer = FGAbelianGroup.from_json(item["brauer"])
            yield "%-28s %3d %6d %8d %6s %6s  %s" % (
                item["type"], item["components"], item["dim_h1"],
                item["dim_h1_alg"], item["is_gm"], item["is_zgm"],
                str(brauer))

    return _emit(report, args.json, render)


def cmd_verify(args):
    report = run_suite(args.suite)
    code = 0 if report["failed"] == 0 else 1

    def render(rep):
        yield "suite %s: %d passed, %d failed" % (
            rep["suite"], rep["passed"], rep["failed"])
        for check in rep["checks"]:
            mark = "ok  " if check["passed"] else "FAIL"
            line = "  %s %s" % (mark, check["name"])
            if check["detail"] and (args.verbose or not check["passed"]):
                line += "  (%s)" % check["detail"]
            yield line

    _emit(report, args.json, render)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="equihom",
        description="Exact equivariant homology of complexes with an "
                    "order-two involution, and the closed-form classifier "
                    "for real Enriques surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rendering(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true",
                         help="machine-readable report")
        fmt.add_argument("--text", action="store_true",
                         help="aligned text report (the default)")

    def add_space(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", choices=None, metavar="NAME",
                           help="catalogued complex (%s; join with '+' for "
                                "disjoint unions)" % ", ".join(BUILTIN_NAMES))
        group.add_argument("--file", metavar="PATH",
                           help="JSON complex file")
        p.add_argument("--coeff", choices=("Z2", "Z", "Z1"), default="Z2",
                       help="coefficients: Z/2, untwisted Z, twisted Z")
        add_rendering(p)

    p = sub.add_parser("compute", help="equivariant groups over a range")
    add_space(p)
    p.add_argument("--range", default="-2..2",
                   help="total degree range, e.g. -3..2")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--cohomology", action="store_true")
    kind.add_argument("--les", action="store_true",
                      help="also verify the long exact sequences on the range")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("e2", help="render the second page")
    add_space(p)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_e2)

    p = sub.add_parser("classify", help="closed-form surface classifier")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", metavar="PATH", help="JSON type file")
    group.add_argument("--enumerate", type=int, metavar="S",
                       help="all types with at most S components")
    add_rendering(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    add_rendering(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    else:
        argv = list(argv)
    # allow "--range -3..0": merge option and negative-looking value
    merged = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--range" and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            merged.append("--range=" + argv[i + 1])
            skip = True
        else:
            merged.append(arg)
    parser = build_parser()
    args = parser.parse_args(merged)
    try:
        code = args.func(args)
        # a closed pipe shows here, not at the interpreter's exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the final
        # flush of the interpreter cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (InputError, ComplexError, EnriquesTypeError, LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InternalError as exc:
        # a failed consistency check is a bug here, not bad input
        print("internal error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
