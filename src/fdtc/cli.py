"""Command-line front end.

Problems are JSON files bundling a surface, a table of named curves,
mapping class words, foliation graphs and coefficient assignments;
subcommands dispatch to the computation modules and emit deterministic
reports (JSON or text).

Exit codes: 0 success, 2 problem-file/parse error, 3 computation
error, 4 every requested verdict came back inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import FdtcError, FoliationError, InconsistentDataError, WordError
from .surface import (Record, SurfaceSpec, Triangulation, checked_type,
                      denominator_bound, standard_triangulation)
from .mcg import MappingClassWord, checked_curve
from . import fdtc as fdtc_mod
from . import foliation as fol_mod
from . import topology as top_mod

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_COMPUTATION = 3
EXIT_INCONCLUSIVE = 4


class ParseError(FdtcError):
    """Problem file is malformed."""


def _fraction(x):
    """A coefficient as written: an integer, a string "p" or "p/q" of
    integers, or {"num": p, "den": q}; no decimal or exponent form, whose
    digits Fraction would expand without bound."""
    try:
        if isinstance(x, str) and x.count("/") <= 1:
            return Fraction(*map(int, x.split("/")))
        if type(x) is int:  # not bool
            return Fraction(x)
        if isinstance(x, dict) and type(x["num"]) is type(x["den"]) is int:
            return Fraction(x["num"], x["den"])
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise ParseError("bad rational %r: %s" % (x, exc))
    raise ParseError("bad rational %r" % (x,))


class ProblemFile(Record):
    """Validated contents of one problem file, each part built once:
    ``curves``, ``words`` and ``foliations`` map names to weight tuples,
    MappingClassWords and FoliationGraphs, and ``assignment`` is a
    CoefficientAssignment or None."""

    __slots__ = ("spec", "tri", "curves", "words", "foliations",
                 "assignment", "nt_type", "tight")

    def __init__(self, spec: SurfaceSpec, tri: Triangulation, curves: dict,
                 words: dict, foliations: dict, assignment: object,
                 nt_type: str = None, tight: bool = False):
        super().__init__(spec, tri, curves, words, foliations, assignment,
                         nt_type, tight)


def _section(data: dict, key: str) -> dict:
    """data[key], or {} when absent; a JSON object, else a ParseError."""
    return checked_type(data.get(key, {}), dict, key, ParseError)


def parse_problem(source) -> ProblemFile:
    """Parse and validate a problem file from a path or JSON text."""
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(str(exc))
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParseError("invalid JSON: %s" % (exc,))
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")

    if "surface" not in data:
        raise ParseError("missing field 'surface'")
    try:
        spec = SurfaceSpec.from_json(data["surface"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("bad surface: %s" % (exc,))

    tri = standard_triangulation(spec)
    curves = {}
    for (name, weights) in _section(data, "curves").items():
        try:
            curves[name] = checked_curve(tri, weights)
        except WordError as exc:
            raise ParseError("bad curve %r: %s" % (name, exc))

    words = {}
    for (name, letters) in _section(data, "words").items():
        try:
            words[name] = MappingClassWord.from_json(tri, letters, curves)
        except WordError as exc:
            raise ParseError("bad word %r: %s" % (name, exc))

    foliations = {}
    for (name, g) in _section(data, "foliations").items():
        try:
            foliations[name] = fol_mod.FoliationGraph.from_json(g)
        except FoliationError as exc:
            raise ParseError("%s (foliations.%s)" % (exc, name))

    assignment = None
    if "assignment" in data:
        try:
            a = checked_type(data["assignment"], dict, "assignment")
            assignment = top_mod.CoefficientAssignment(
                {k: _fraction(v) for (k, v) in checked_type(
                    a["coefficients"], dict, "coefficients").items()},
                a.get("mode", "monodromy"),
                checked_type(a.get("connected_boundary", False), bool,
                             "connected_boundary"),
            )
        except (KeyError, TypeError, ValueError, InconsistentDataError) as exc:
            raise ParseError("bad assignment: %s" % (exc,))

    nt_type = data.get("nt_type")
    if nt_type is not None and nt_type not in top_mod.NT_TYPES:
        raise ParseError("unknown nt_type %r" % (nt_type,))

    tight = checked_type(data.get("tight", False), bool, "tight", ParseError)
    return ProblemFile(spec, tri, curves, words, foliations, assignment,
                       nt_type, tight)


# -- report assembly ---------------------------------------------------------


class Report(Record):
    __slots__ = ("task", "inputs", "results", "warnings")

    def __init__(self, task: str, inputs: dict, results: list = None,
                 warnings: list = None):
        super().__init__(task, inputs, [] if results is None else results,
                         [] if warnings is None else warnings)


def emit_report(report: Report, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (json.dumps(report.to_json(), sort_keys=True,
                           separators=(",", ": "), indent=1) + "\n").encode()
    lines = ["task: %s" % report.task]
    for (k, v) in sorted(report.inputs.items()):
        lines.append("  %s: %s" % (k, v))
    for r in report.results:
        lines.append("result:")
        for (k, v) in sorted(r.items()):
            lines.append("  %s: %s" % (k, v))
    for w in report.warnings:
        lines.append("warning: %s" % w)
    return ("\n".join(lines) + "\n").encode()


# -- subcommand implementations ---------------------------------------------


def _pick_component(problem: ProblemFile, component) -> str:
    if component is not None:
        if component not in problem.tri.base_edge_of:
            raise ParseError("unknown boundary component %r" % (component,))
        return component
    return problem.spec.boundary_labels[0]


def _pick(table: dict, name, noun: str):
    """(name, entry): the named entry of ``table``, else its only one."""
    if name is None:
        if len(table) != 1:
            raise ParseError("problem has %d %ss; pick one with --%s"
                             % (len(table), noun, noun.split()[-1]))
        name = next(iter(table))
    if name not in table:
        raise ParseError("unresolved %s %r" % (noun, name))
    return name, table[name]


def run(problem: ProblemFile, args) -> Report:
    """Execute one parsed subcommand against a parsed problem."""
    cmd = args.command
    if cmd == "fdtc":
        (name, w) = _pick(problem.words, args.word, "word")
        C = _pick_component(problem, args.component)
        report = Report("fdtc %s" % args.action,
                        {"word": name, "component": C})
        if args.action == "exact":
            res = fdtc_mod.fdtc_exact(w, C)
            report.results.append(res.to_json())
        elif args.action == "braid":
            res = fdtc_mod.braid_fdtc(w, C)
            report.results.append(res.to_json())
        elif args.action == "interval":
            if args.N < 1:
                raise ParseError("--N must be at least 1, not %d" % args.N)
            for (i, iv) in enumerate(
                    fdtc_mod.translation_estimate(w, C, args.N)):
                report.results.append({"N": i + 1,
                                       "interval": iv.to_json()})
        elif args.action == "audit":
            (report.inputs["word2"], w2) = _pick(problem.words, args.word2,
                                                 "word")
            audit = fdtc_mod.quasimorphism_audit(w, w2, C)
            report.results.append({k: v if type(v) is bool else str(v)
                                   for (k, v) in audit.items()})
        return report

    if cmd == "foliation":
        (name, g) = _pick(problem.foliations, args.graph, "foliation graph")
        report = Report("foliation %s" % args.action, {"graph": name})
        if args.action == "check":
            diags = fol_mod.validate_graph(g)
            counts = g.counts()
            result = {"ok": not diags, "diagnostics": diags,
                      "counts": counts.to_json(),
                      "euler_characteristic": counts.euler_characteristic()}
            if not g.surface.closed:
                result["self_linking"] = fol_mod.self_linking(counts)
            report.results.append(result)
        elif args.action == "bounds":
            points = args.points.split(",") if args.points else [
                v.id for v in g.elliptic_points]
            if args.aggregate:
                b = fol_mod.aggregate_bounds(points, g, args.mode)
            else:
                b = fol_mod.multi_point_bounds(points, g, args.mode)
            report.inputs["points"] = ",".join(points)
            report.inputs["mode"] = args.mode
            report.results.append(b.to_json())
            report.warnings.extend(b.assumptions)
        elif args.action == "otdisc":
            out = fol_mod.transverse_ot_disc_check(g)
            witness = fol_mod.bc_annulus_witness_check(g)
            if witness is not None:
                out["bc_annulus_witness"] = witness["witness"]
            report.warnings.extend(out.pop("assumptions"))
            report.results.append(out)
        return report

    if cmd == "classify":
        if problem.assignment is None:
            raise ParseError("problem file has no coefficient assignment")
        a = problem.assignment
        nt_type = args.nt_type or problem.nt_type or "unknown"
        tight = args.tight or problem.tight
        report = Report("classify", {
            "mode": a.mode, "nt_type": nt_type, "tight": tight,
            "coefficients": {k: str(v)
                             for (k, v) in sorted(a.coefficients.items())},
        })
        verdicts = [top_mod.irreducibility_verdict(a),
                    top_mod.atoroidality_verdict(a, nt_type, tight),
                    top_mod.geometry_verdict(a, nt_type)]
        if a.mode == "monodromy":
            verdicts.append(top_mod.stabilization_obstruction(a))
        report.results.extend(v.to_json() for v in verdicts)
        if all(v.inconclusive for v in verdicts):
            report.warnings.append("all criteria inconclusive")
        return report

    if cmd == "surface":
        spec = problem.spec
        folded = spec.fold_punctures()
        db = denominator_bound(folded)
        report = Report("surface info", {})
        info = {
            "genus": spec.genus,
            "boundary": list(spec.boundary_labels),
            "punctures": spec.puncture_count,
            "euler_characteristic": spec.euler_characteristic,
            "denominator_bound": db.value,
            "denominator_bound_degenerate": db.degenerate,
            "key_lemma_power": fdtc_mod.key_lemma_power(db.value),
            "edges": problem.tri.edge_count,
            "named_curves": sorted(problem.curves),
            "words": sorted(problem.words),
        }
        report.results.append(info)
        return report

    raise ParseError("unknown command %r" % (cmd,))


# -- argument plumbing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fdtc",
        description="fractional Dehn twist coefficients, foliation "
                    "certificates and topology criteria")
    top.add_argument("--format", choices=("json", "text"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fdtc", help="twist coefficient computations")
    p.add_argument("action",
                   choices=("exact", "interval", "braid", "audit"))
    p.add_argument("problem")
    p.add_argument("--word")
    p.add_argument("--word2")
    p.add_argument("--component")
    p.add_argument("--N", type=int, default=10,
                   help="largest power for interval estimates")

    p = sub.add_parser("foliation", help="foliation graph checks and bounds")
    p.add_argument("action", choices=("check", "bounds", "otdisc"))
    p.add_argument("problem")
    p.add_argument("--graph")
    p.add_argument("--points")
    p.add_argument("--mode", choices=("monodromy", "braid"),
                   default="monodromy")
    p.add_argument("--aggregate", action="store_true",
                   help="use the averaged same-sign estimate")

    p = sub.add_parser("classify", help="topology verdicts from coefficients")
    p.add_argument("problem")
    p.add_argument("--nt-type", dest="nt_type", choices=top_mod.NT_TYPES)
    p.add_argument("--tight", action="store_true")

    p = sub.add_parser("surface", help="surface parameters")
    p.add_argument("action", choices=("info",))
    p.add_argument("problem")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        problem = parse_problem(args.problem)
    except ParseError as exc:
        print("parse error: %s" % (exc,), file=sys.stderr)
        return EXIT_PARSE
    try:
        report = run(problem, args)
    except ParseError as exc:
        print("parse error: %s" % (exc,), file=sys.stderr)
        return EXIT_PARSE
    except FdtcError as exc:
        print("computation error: %s" % (exc,), file=sys.stderr)
        return EXIT_COMPUTATION
    sys.stdout.buffer.write(emit_report(report, args.format))
    sys.stdout.flush()
    if args.command == "classify" and "all criteria inconclusive" in report.warnings:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
