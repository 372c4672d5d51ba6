"""Golden record of tracer output, for exact-equality regression tests.

Every float is written with `float.hex`, so a last-bit change in any
crossing value or piece value shows up as a diff.  Segment barycentrics
(`chart_barycentrics`, one pass per trace, on the param it was traced on)
are written as `float.hex` too, but each trace stores the SHA-256 of its
rows (`face a0 a1 a2 b0 b1 b2`, one line per segment, `piece` between
pieces) instead of the rows themselves: the rows in clear would take over
10 MB.

Each trace also stores the SHA-256 of its chart points (`face px py qx
qy`, one line per `chart_segments` step, `piece` between pieces), so the
points the tracer walks are pinned as well as the barycentrics derived from
them.

The starts are the fixed-seed starts of `test_tracer.py` on all five
fixtures (`sheared_torus` traced to a small budget), every cone separatrix
of `annulus_35`, single coordinate lines on `rectangle` and `flat_torus`
(each the first piece of the ray from its start: its chart line up to the
first seam or its end), and the three benchmark workloads at their pinned
seed traced to their full budget: the curves Q5 traces (the two transverse
curves from the centroid of face 0, or every cone separatrix) and, on a
cone-free workload, the two transverse curves `extract_layout` anchors at
vertex 0.

Regenerate (only when a trace change is intended) with:

    PYTHONPATH=src python tests/golden_traces.py tests/data/golden_traces.json
"""

import hashlib
import json
import os
import sys
import warnings
from itertools import islice

import numpy as np

from qlim.immersion import apply_global_motion, detect_cones
from qlim.mesh import SurfacePoint
from qlim.qlimio import read_qlim
from qlim.synth import OverlapWarning, fixture
from qlim.tracer import (
    chart_barycentrics,
    cone_rays,
    trace_cone_separatrix,
    trace_quotient_curve,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ALL_FIXTURES = ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]
SHEARED_BUDGET = 32  # sheared_torus curves never close; keep them short


def _fx(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        return fixture(name)


def _budget(name):
    return SHEARED_BUDGET if name == "sheared_torus" else None


def _random_interior_start(param, rng):
    # same draw as test_tracer.random_interior_start
    f = int(rng.integers(len(param.mesh.faces)))
    b = rng.uniform(0.15, 0.45, size=3)
    b /= b.sum()
    return SurfacePoint(f, tuple(b))


def _hex(x):
    return float(x).hex()


def _start(sp):
    return [int(sp.face), [_hex(b) for b in sp.bary]]


def _bary_text(param, lines):
    """The barycentric rows of `lines` (`face a0 a1 a2 b0 b1 b2` per
    segment, `piece` between lines), from one pass over all of them."""
    segs = [s for line in lines for s in line.chart_segments]
    faces = [f for f, _, _ in segs]
    points = [p for _, p, _ in segs] + [q for _, _, q in segs]
    bary = chart_barycentrics(param, faces + faces, points).tolist()
    rows = iter(
        " ".join([str(int(f))] + [_hex(x) for x in a + b]) + "\n"
        for f, a, b in zip(faces, bary[: len(segs)], bary[len(segs):])
    )
    return "piece\n".join(
        "".join(islice(rows, len(line.chart_segments))) for line in lines
    )


def _chart_rows(line):
    return "".join(
        f"{int(f)} {_hex(p[0])} {_hex(p[1])} {_hex(q[0])} {_hex(q[1])}\n"
        for (f, p, q) in line.chart_segments
    )


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _line(param, line):
    return {
        "faces": [int(f) for f in line.faces()],
        "axis": int(line.axis),
        "value": _hex(line.value),
        "end": line.end_event.kind if line.end_event else None,
        "bary_sha256": _sha256(_bary_text(param, [line])),
        "chart_sha256": _sha256(_chart_rows(line)),
    }


def _curve(param, curve):
    return {
        "status": curve.status,
        "segments_used": int(curve.segments_used),
        "period_index": int(curve.period_index),
        "faces": [int(f) for f in curve.faces()],
        "crossings": [[int(h), int(a), _hex(v)] for (h, a, v) in curve.crossings],
        "terminal": [e.kind for e in curve.terminal_events],
        # (axis, value, end event kind) per piece
        "pieces": [
            [int(p.axis), _hex(p.value), p.end_event.kind if p.end_event else None]
            for p in curve.pieces
        ],
        "bary_sha256": _sha256(_bary_text(param, curve.pieces)),
        "chart_sha256": _sha256("piece\n".join(_chart_rows(p) for p in curve.pieces)),
    }


def record():
    """All golden traces, as a JSON-ready list of dicts."""
    out = []

    def add(entry, param, result, as_line=False):
        """Record `result`, traced on `param`."""
        entry.update(_line(param, result) if as_line else _curve(param, result))
        out.append(entry)

    for name in ALL_FIXTURES:
        param = _fx(name)
        budget = _budget(name)

        # TestStraightness: both directions from 100 interior starts
        rng = np.random.default_rng(11)
        for _ in range(100):
            start = _random_interior_start(param, rng)
            axis = int(rng.integers(2))
            add(
                {"fixture": name, "kind": "straightness", "start": _start(start),
                 "axis": axis},
                param, trace_quotient_curve(param, start, axis, budget),
            )

        # TestReversal: 100 starts, each restarted from a segment midpoint
        rng = np.random.default_rng(23)
        for _ in range(100):
            start = _random_interior_start(param, rng)
            axis = int(rng.integers(2))
            c1 = trace_quotient_curve(param, start, axis, budget)
            add(
                {"fixture": name, "kind": "reversal", "start": _start(start),
                 "axis": axis},
                param, c1,
            )
            piece = c1.pieces[len(c1.pieces) // 2]
            f, p, q = piece.chart_segments[len(piece.chart_segments) // 2]
            a, b = chart_barycentrics(param, [f, f], [p, q])
            mid = SurfacePoint(f, tuple((a + b) / 2.0))
            add(
                {"fixture": name, "kind": "reversal-restart", "start": _start(mid),
                 "axis": int(piece.axis)},
                param, trace_quotient_curve(param, mid, piece.axis, budget),
            )

        # TestRerooting: one ray from 25 starts, on the param and re-rooted
        moved = {j: apply_global_motion(param, j, (1.5, -0.5)) for j in (1, 2, 3)}
        rng = np.random.default_rng(37)
        for _ in range(25):
            start = _random_interior_start(param, rng)
            axis = int(rng.integers(2))
            sign = int(rng.choice([-1, 1]))
            add(
                {"fixture": name, "kind": "ray", "start": _start(start),
                 "axis": axis, "direction": sign},
                param, trace_quotient_curve(param, start, axis, budget, direction=sign),
            )
            for j, mp in moved.items():
                d = [0.0, 0.0]
                d[1 - axis] = float(sign)
                d2 = [(-d[1], d[0]), (-d[0], -d[1]), (d[1], -d[0])][j - 1]
                axis2 = axis if j % 2 == 0 else 1 - axis
                sign2 = 1 if d2[1 - axis2] > 0 else -1
                add(
                    {"fixture": name, "kind": f"ray-reroot-{j}",
                     "start": _start(start), "axis": axis2, "direction": sign2},
                    mp, trace_quotient_curve(mp, start, axis2, budget, direction=sign2),
                )

    param = _fx("annulus_35")
    for rec in sorted(detect_cones(param), key=lambda r: r.vertex):
        for ridx, ray in enumerate(cone_rays(param, rec.vertex)):
            add(
                {"fixture": "annulus_35", "kind": "separatrix",
                 "vertex": int(rec.vertex), "ray": ridx},
                param, trace_cone_separatrix(param, rec.vertex, ray),
            )

    for name in ("rectangle", "flat_torus"):
        param = _fx(name)
        starts = [SurfacePoint(0, (0.4, 0.3, 0.3)), SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3))]
        rng = np.random.default_rng(11)
        starts += [_random_interior_start(param, rng) for _ in range(20)]
        for start in starts:
            for axis in (0, 1):
                for sign in (1, -1):
                    add(
                        {"fixture": name, "kind": "coordinate-line",
                         "start": _start(start), "axis": axis, "direction": sign},
                        param,
                        trace_quotient_curve(param, start, axis, direction=sign).pieces[0],
                        as_line=True,
                    )

    # the benchmark workloads, traced to their full budget
    for name in sorted(WORKLOADS):
        work = WORKLOADS[name]()
        param = read_qlim(work.text(DEFAULT_SEED))
        cones = sorted(detect_cones(param), key=lambda r: r.vertex)
        for rec in cones:
            for ridx, ray in enumerate(cone_rays(param, rec.vertex)):
                add(
                    {"fixture": f"workload/{name}", "kind": "separatrix",
                     "vertex": int(rec.vertex), "ray": ridx},
                    param, trace_cone_separatrix(param, rec.vertex, ray, work.budget),
                )
        if cones:
            continue
        h = param.mesh.vertex_fan(0)[0]
        bary = [0.0, 0.0, 0.0]
        bary[h % 3] = 1.0
        starts = {
            "q5-transverse": SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)),
            "layout-transverse": SurfacePoint(h // 3, tuple(bary)),
        }
        for kind, start in starts.items():
            for axis in (0, 1):
                add(
                    {"fixture": f"workload/{name}", "kind": kind,
                     "start": _start(start), "axis": axis},
                    param, trace_quotient_curve(param, start, axis, work.budget),
                )
    return out


def dumps(records):
    """One trace per line, so a diff names the trace that changed."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        fh.write(dumps(record()))
