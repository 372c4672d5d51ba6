"""Command-line interface.

Subcommands: synth, validate, trace, extract, cut, oracle.  Machine output
goes to stdout or files; diagnostics go to stderr.  Exit codes: 0 success,
1 usage or IO error, 2 validated property failure.
"""

import argparse
import sys

from .cutgraph import _build_and_check
from .errors import QlimError
from .immersion import validate_immersion
from .layout import extract_layout, layout_oracle_bruteforce
from .mesh import SurfacePoint, topology_info
from .qlimio import (
    dumps_report,
    read_obj,
    read_qlim,
    validation_report_dict,
    write_qlim,
)
from .svg import export_svg
from .synth import FIXTURES, fixture
from .tracer import trace_quotient_curve, validate_q5


def _parse_value(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def positive_int(text):
    """A --budget or --step value: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_param(path):
    with open(path, "r", encoding="utf-8") as fh:
        return read_qlim(fh.read())


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_synth(args):
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise QlimError(f"--param expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        params[k] = _parse_value(v)
    if args.fixture not in FIXTURES:
        raise QlimError(
            f"unknown fixture {args.fixture!r}; choices: {sorted(FIXTURES)}"
        )
    try:  # a parameter the fixture does not take, or a value it refuses
        param = fixture(args.fixture, **params)
    except (TypeError, ValueError) as exc:
        raise QlimError(f"bad --param for fixture {args.fixture!r}: {exc}") from exc
    _write(args.output, write_qlim(param))
    return 0


def cmd_validate(args):
    param = _read_param(args.input)
    report = validate_immersion(param)
    if report.passed:
        # tracing presumes a locally injective chart structure
        try:
            q5 = validate_q5(param, budget=args.budget)
        except QlimError as exc:
            q5 = {"passed": False, "curves": [], "note": str(exc)}
    else:
        q5 = {
            "passed": False,
            "curves": [],
            "note": "not evaluated: immersion properties failed",
            "skipped": True,
        }
    doc = validation_report_dict(param, report)
    doc["q5"] = q5
    doc["passed"] = bool(report.passed and q5["passed"])
    if not q5["passed"] and not q5.get("skipped"):
        doc["failed_properties"] = doc["failed_properties"] + ["q5"]
    text = dumps_report(doc)
    if args.report:
        _write(args.report, text)
    else:
        sys.stdout.write(text)
    return 0 if doc["passed"] else 2


def cmd_trace(args):
    param = _read_param(args.input)
    axis = {"u": 0, "v": 1}[args.axis]
    try:  # unparsable --bary, a face off the mesh, or non-barycentric coordinates
        bary = tuple(float(x) for x in args.bary.split(","))
        if len(bary) != 3:
            raise QlimError("--bary expects three comma-separated numbers")
        start = SurfacePoint(args.face, bary)
        curve = trace_quotient_curve(param, start, axis, budget=args.budget)
    except ValueError as exc:
        raise QlimError(f"bad start point: {exc}") from exc
    doc = {
        "schema": "qlim-trace/1",
        "status": curve.status,
        "segments_used": curve.segments_used,
        "budget": curve.budget,
        "n_pieces": len(curve.pieces),
        "n_crossings": len(curve.crossings),
        "period_index": curve.period_index,
        "terminal_events": [e.kind for e in curve.terminal_events],
        "pieces": [
            {
                "axis": "uv"[p.axis],
                "value": p.value,
                "faces": p.faces(),
                "end": p.end_event.kind if p.end_event else None,
            }
            for p in curve.pieces
        ],
    }
    sys.stdout.write(dumps_report(doc))
    if args.svg:
        _write(args.svg, export_svg(param, curves=[curve]))
    return 0


def cmd_extract(args):
    param = _read_param(args.input)
    layout = extract_layout(param, budget=args.budget)
    _write(args.output, dumps_report(layout.to_dict()))
    if args.svg:
        _write(args.svg, export_svg(param, layout=layout))
    return 0


def cmd_cut(args):
    if args.input.lower().endswith(".obj"):
        with open(args.input, "r", encoding="utf-8") as fh:
            mesh = read_obj(fh.read())
    else:
        mesh = _read_param(args.input).mesh
    try:  # not an integer, or not a vertex of the mesh
        sing = [int(v) for v in args.singularities.split(",") if v != ""]
        graph, checks, comp = _build_and_check(mesh, sing)
    except ValueError as exc:
        raise QlimError(f"bad --singularities: {exc}") from exc
    info = topology_info(comp.mesh)
    doc = {
        "schema": "qlim-cut/1",
        "cut_edges": sorted(int(e) for e in graph.cut_edges),
        "n_arcs": len(graph.arcs),
        "arcs": [
            [int(h) for h in arc.halfedges] for arc in graph.arcs
        ],
        "checks": checks,
        "completion": {
            "euler": info.euler,
            "boundary_loops": info.boundary_count,
            "n_vertices": int(len(comp.mesh.vertices)),
        },
    }
    sys.stdout.write(dumps_report(doc))
    return 0


def cmd_oracle(args):
    param = _read_param(args.input)
    oracle = layout_oracle_bruteforce(param, step=args.step)
    v, e, f = oracle.counts
    doc = {
        "schema": "qlim-oracle/1",
        "step": args.step,
        "counts": {"nodes": v, "arcs": e, "patches": f},
        "euler": v - e + f,
        "node_degrees": oracle.node_degrees(),
    }
    sys.stdout.write(dumps_report(doc))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlim",
        description="seamless parameterization validation and quad layout "
        "extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a named fixture as .qlim")
    p.add_argument("fixture")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate", help="check Q1-Q5 and conservation laws")
    p.add_argument("input")
    p.add_argument("--report", metavar="OUT.json")
    p.add_argument("--budget", type=positive_int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="trace one quotient coordinate curve")
    p.add_argument("input")
    p.add_argument("--face", type=int, required=True)
    p.add_argument("--bary", required=True, metavar="A,B,C")
    p.add_argument("--axis", choices=("u", "v"), required=True)
    p.add_argument("--budget", type=positive_int, default=None)
    p.add_argument("--svg", metavar="OUT.svg")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("extract", help="extract the quad layout")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--budget", type=positive_int, default=None)
    p.add_argument("--svg", metavar="OUT.svg")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("cut", help="build and check a cutting graph")
    p.add_argument("input", help=".qlim or .obj mesh")
    p.add_argument("--singularities", default="", metavar="V1,V2,...")
    p.set_defaults(func=cmd_cut)

    p = sub.add_parser("oracle", help="brute-force integer-isoline complex")
    p.add_argument("input")
    p.add_argument("--step", type=positive_int, default=1)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except QlimError as exc:
        print(f"qlim: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qlim: io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
