"""Timed runs of the `validate`, `extract` and `oracle` work on one workload.

Each operation runs on a freshly parsed SeamlessParam, exactly as a CLI call
sees it; parsing is timed on its own as set-up.  Every answer is checked
against the workload's expectations.  A traced run splits the same
operations into spans around each layer's public entry points.

Every time is reported at a fixed reference host speed: a short
calibration loop is timed ten times a second throughout the run, and the
seconds of each interval are scaled by the loop's REF_CALIBRATION_S over
its mean time during it (see HostSpeed).
"""

import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from qlim import (
    build_halfedge,
    detect_cones,
    extract_layout,
    layout_oracle_bruteforce,
    topology_info,
    validate_immersion,
    validate_q5,
    verify_coarsening,
)
from qlim.errors import (
    ArrangementDegeneracy,
    NotGridAligned,
    PropertyViolation,
    QlimError,
)
from qlim.layout import emit_separatrices
from qlim.qlimio import dumps_report, read_qlim, validation_report_dict
from qlim.tracer import cone_rays

from workloads import DEFAULT_SEED

PROPERTIES = ("q1", "q2", "q3", "q4", "gauss_bonnet", "holonomy")
MIN_OP_SECONDS = 1.5  # per operation and round; see run_untraced
WORKLOADS_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")


# ---------------------------------------------------------------------------
# host speed

# Seconds each calibration loop takes at the reference host speed.  Every
# reported time is the time the work would take on a host where its
# workload's loop takes this long, so the constants must never change.
REF_CALIBRATION_S = {"reductions": 0.003, "calls": 0.003}
SAMPLE_EVERY_S = 0.1

_CAL_VECTOR = np.linspace(0.0, 1.0, 4096)
_CAL_MATRIX = np.array([[2.0, 1.0], [1.0, 3.0]])
_CAL_KEYS = [(i % 251, i % 13) for i in range(2048)]


def _reductions():
    """numpy reductions over a few thousand floats, the bulk of `uv_scale`
    and of the oracle."""
    acc = 0.0
    for i in range(350):
        acc += float(np.max(np.abs(_CAL_VECTOR - i * 1e-3)))
    return acc


def _calls():
    """numpy calls on 2-vectors and interpreter work on tuple-keyed dicts,
    the bulk of a tracer step."""
    acc = 0.0
    for i in range(150):
        acc += float(np.linalg.norm(np.linalg.solve(_CAL_MATRIX, np.array([i * 0.5, 1.0]))))
    table = {}
    for key in _CAL_KEYS:
        table[key] = table.get(key, 0) + 1
        acc += key[0] * 0.5 / (key[1] + 1.0)
    return acc


# Fixed work that calls no qlim code, so that a change to qlim cannot
# change its time.  The shared host's slow state slows kinds of work by
# different factors, so each workload is scaled by the kind its
# operations spend most time in; see perfbench/NOTES.md, "Host speed".
CALIBRATION_LOOPS = {"reductions": _reductions, "calls": _calls}


class HostSpeed:
    """Host speed, sampled throughout a run.

    The shared host runs this guest at two speeds, about 1.6x apart, and
    switches between them every few seconds; a run can spend a tenth or
    most of its time in the slow one.  While the context is open, a timer
    signal runs the `kind` calibration loop every SAMPLE_EVERY_S seconds in
    the main
    thread, between the operations' bytecodes, and records when each run of
    it started and ended.  `seconds(t0, t1)` takes the calibration time
    out of a perf_counter interval and scales the rest to the reference
    speed, by the loop's mean time over the samples inside the interval
    and the nearest one on either side.
    """

    def __init__(self, kind):
        self.loop = CALIBRATION_LOOPS[kind]
        self.ref = REF_CALIBRATION_S[kind]

    def __enter__(self):
        self.starts, self.ends = [], []
        self._sampling = False
        for _ in range(3):  # warm the loop's code and allocations
            self.loop()
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()  # the last interval's sample after it

    def _sample(self, *_):
        # A tick that lands while a late sample still runs is skipped, so
        # samples never nest and `starts` stays sorted.
        if self._sampling:
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.loop()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._sampling = False

    def window(self, t0, t1):
        """(seconds of calibration inside the perf_counter interval t0..t1,
        factor that scales the interval's other seconds to the reference
        speed).  Call after the context has closed."""
        i = bisect_left(self.ends, t0)  # samples before i ended before t0
        j = bisect_right(self.starts, t1)  # samples from j start after t1
        inside = sum(min(e, t1) - max(b, t0)
                     for b, e in zip(self.starts[i:j], self.ends[i:j]))
        lo, hi = max(i - 1, 0), min(j + 1, len(self.starts))
        loop = statistics.fmean(
            e - b for b, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return inside, self.ref / loop

    def seconds(self, t0, t1):
        """Seconds the work between perf_counter readings t0 and t1 would
        take at the reference speed."""
        inside, factor = self.window(t0, t1)
        return (t1 - t0 - inside) * factor


# ---------------------------------------------------------------------------
# spans


class Spans:
    """In-memory span recorder.  The spans of one request, a parse and the
    operation on its result, share a run id."""

    def __init__(self):
        self.records = []
        self.run = 0
        self._stack = []

    def new_run(self):
        self.run += 1

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.records),
            "parent": parent["id"] if parent else None,
            "run": self.run,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, speed):
        """name -> self time of each span at the reference host speed: its
        duration minus the time its child spans cover, both without
        calibration time, scaled by the span's speed factor.  Sets each
        record's `seconds`, its whole duration at that speed."""
        window = {}
        child = {}  # span id -> (seconds, calibration seconds) its children cover
        for r in self.records:
            inside, factor = window[r["id"]] = speed.window(r["start"], r["end"])
            r["seconds"] = (r["end"] - r["start"] - inside) * factor
            if r["parent"] is not None:
                covered, busy = child.get(r["parent"], (0.0, 0.0))
                child[r["parent"]] = (covered + r["end"] - r["start"], busy + inside)
        out = {}
        for r in self.records:
            inside, factor = window[r["id"]]
            covered, busy = child.get(r["id"], (0.0, 0.0))
            own = r["end"] - r["start"] - covered - (inside - busy)
            out.setdefault(r["name"], []).append(own * factor)
        return out


def _span(spans, name):
    return spans.span(name) if spans else nullcontext()


# ---------------------------------------------------------------------------
# the three operations, as the CLI performs them after parsing


def _warm(param, spans):
    """Build the lazily computed completion and cone scan under their own
    spans, so the layer calls that follow run on a warm param."""
    with spans.span("cutgraph.cut_mesh"):
        param.completion
    with spans.span("immersion.cone_scan"):
        detect_cones(param)


def validate_op(param, budget, spans=None):
    """`qlim validate`: Q1-Q4, then Q5 when they pass; returns the report
    dict and its JSON text."""
    with _span(spans, "op.validate"):
        if spans:
            _warm(param, spans)
        with _span(spans, "immersion.validate"):
            report = validate_immersion(param)
        if report.passed:
            with _span(spans, "tracer.q5"):
                try:
                    q5 = validate_q5(param, budget=budget)
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
        return doc, dumps_report(doc)


def extract_op(param, budget, spans=None):
    """`qlim extract`: the layout and its JSON text.  A traced call also
    times separatrix emission alone, and returns the emitted curves."""
    with _span(spans, "op.extract"):
        curves = None
        if spans:
            _warm(param, spans)
            with spans.span("layout.emit"):
                curves = emit_separatrices(param, budget)
        with _span(spans, "layout.extract"):
            layout = extract_layout(param, budget=budget)
        return layout, dumps_report(layout.to_dict()), curves


def oracle_op(param, layout, spans=None):
    """`qlim oracle` plus the check that `layout` coarsens the oracle."""
    with _span(spans, "op.oracle"):
        if spans:
            _warm(param, spans)
        with _span(spans, "layout.oracle"):
            oracle = layout_oracle_bruteforce(param, step=1)
        v, e, f = oracle.counts
        doc = {
            "schema": "qlim-oracle/1",
            "step": 1,
            "counts": {"nodes": v, "arcs": e, "patches": f},
            "euler": v - e + f,
            "node_degrees": oracle.node_degrees(),
        }
        text = dumps_report(doc)
        coarsens = None
        if layout is not None:
            with _span(spans, "layout.coarsen"):
                coarsens = verify_coarsening(param, layout, oracle)
        return oracle, text, coarsens


# ---------------------------------------------------------------------------
# answer checks


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Counts operations attempted and failed on one workload.  An
    operation fails when it raises something other than the refusal the
    workload expects, or when its answer differs from the expected one."""

    def __init__(self, workload, seed):
        self.expected = workload.expected
        self.digests = self.expected.digests if seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op, fn):
        """Time fn(); return its perf_counter interval and its result or
        None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # every failure is counted, not fatal
            out, err = None, exc
        t1 = time.perf_counter()
        problem = self._problem(op, out, err)
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{op}: {problem}")
                if err is not None:
                    traceback.print_exception(err, file=sys.stderr)
        return (t0, t1), out

    def _problem(self, op, out, err):
        ex = self.expected
        if op == "extract" and ex.layout is None:
            if isinstance(err, PropertyViolation):
                return None
            return f"expected a PropertyViolation refusal, got {err or 'a layout'}"
        if op == "oracle" and ex.oracle is None:
            if isinstance(err, (NotGridAligned, ArrangementDegeneracy)):
                return None
            return f"expected the oracle to refuse, got {err or 'a complex'}"
        if err is not None:
            return f"{type(err).__name__}: {err}"
        if op == "validate":
            return self._validate_problem(*out)
        if op == "extract":
            layout, text = out[0], out[1]
            if layout.counts != ex.layout:
                return f"layout counts {layout.counts} != {ex.layout}"
            return self._digest_problem("layout", text)
        if op == "oracle":
            oracle, text, coarsens = out
            if oracle.counts != ex.oracle:
                return f"oracle counts {oracle.counts} != {ex.oracle}"
            if coarsens is not True:
                return "layout does not coarsen the oracle"
            return self._digest_problem("oracle", text)
        raise ValueError(f"unknown operation {op!r}")

    def _validate_problem(self, doc, text):
        ex = self.expected
        failed = [p for p in PROPERTIES if not doc["properties"][p]["passed"]]
        if failed:
            return f"properties failed: {failed}"
        cones = tuple(sorted((c["location"], c["m"]) for c in doc["cones"]))
        if cones != ex.cones:
            return f"cones {cones} != {ex.cones}"
        q5 = doc["q5"]
        if q5["passed"] != ex.q5_passed:
            return f"q5 passed={q5['passed']}, expected {ex.q5_passed}"
        if not ex.q5_passed and not q5.get("budget_exhausted"):
            return "q5 failed without exhausting the budget"
        statuses = tuple(sorted(c.get("status") for c in q5["curves"]))
        if statuses != ex.q5_statuses:
            return f"q5 statuses {statuses} != {ex.q5_statuses}"
        return self._digest_problem("validate", text)

    def _digest_problem(self, kind, text):
        if not self.digests or kind not in self.digests:
            return None
        got = _digest(text)
        if got != self.digests[kind]:
            return f"{kind} JSON sha256 {got} != {self.digests[kind]}"
        return None


# ---------------------------------------------------------------------------
# runs


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _done(start, round_start, seconds):
    """Stop when another round would end more than half a round past
    `seconds`, so that a run lasts `seconds` give or take half a round."""
    now = time.perf_counter()
    return now - start + (now - round_start) / 2 >= seconds


def generate_text(workload, seed, src_dir):
    """The workload's `.qlim` text, built in a child process so that the
    generator's allocations stay out of this process's peak memory."""
    proc = subprocess.run(
        [sys.executable, WORKLOADS_PY, workload.name, str(seed),
         json.dumps(workload.params)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src_dir),
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"generating {workload.name} failed:\n{proc.stderr}")
    return proc.stdout


def run_untraced(workload, text, seconds, check):
    """End-to-end metrics: seconds per parse and per operation at the
    reference host speed, and the peak resident set of this process, which
    holds nothing but the interpreter, qlim and the operations.  Every
    operation gets its own parse, so set-up is sampled across the whole
    run.  Returns the scaled samples, the unscaled ones and the metrics
    that are not times."""
    budget = workload.budget
    names = ("setup_s", "validate_s", "extract_s", "oracle_s")
    intervals = {name: [] for name in names}

    def timed(op, fn):
        """Run op on fresh params until it has taken MIN_OP_SECONDS this
        round, so that short operations get enough samples."""
        spent = 0.0
        while spent < MIN_OP_SECONDS:
            # a CLI call starts with no garbage from earlier calls
            gc.collect()
            t0 = time.perf_counter()
            param = read_qlim(text)
            intervals["setup_s"].append((t0, time.perf_counter()))
            (t0, t1), out = check.run(op, lambda: fn(param))
            intervals[f"{op}_s"].append((t0, t1))
            spent += t1 - t0
        return out

    with HostSpeed(workload.calibration) as speed:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            timed("validate", lambda p: validate_op(p, budget))
            out = timed("extract", lambda p: extract_op(p, budget))
            layout = out[0] if out else None
            timed("oracle", lambda p: oracle_op(p, layout))
            if _done(start, round_start, seconds):
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {name: [speed.seconds(*iv) for iv in ivs]
               for name, ivs in intervals.items()}
    wall = {name: [t1 - t0 for t0, t1 in ivs] for name, ivs in intervals.items()}
    return samples, wall, {"peak_mem_mb": peak_mb}


def _curves_traced(param):
    """Curves emit_separatrices traces: one per cone ray, or the two
    transverse curves of a cone-free torus."""
    cones = detect_cones(param)
    if cones:
        return sum(len(cone_rays(param, c.vertex)) for c in cones)
    info = topology_info(param.mesh)
    return 2 if (info.genus, info.boundary_count) == (1, 0) else 0


def _read(text, spans):
    gc.collect()
    spans.new_run()
    with spans.span("qlimio.read"):
        return read_qlim(text)


def run_traced(workload, text, seconds, check):
    """Per-layer metrics: the three operations split into layer spans, each
    repetition followed by an untraced validate call whose time, subtracted
    from the traced one, gives the tracing overhead."""
    budget = workload.budget
    spans = Spans()
    untraced = []  # perf_counter intervals of plain validate calls
    with HostSpeed(workload.calibration) as speed:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            param = _read(text, spans)
            with spans.span("mesh.build"):
                build_halfedge(param.mesh.vertices, param.mesh.faces)
            _, vout = check.run("validate", lambda: validate_op(param, budget, spans))
            seams = len(param.seams)

            param = _read(text, spans)
            _, xout = check.run("extract", lambda: extract_op(param, budget, spans))
            layout = xout[0] if xout else None
            kept = len(xout[2]) if xout else 0
            traced = _curves_traced(param)

            param = _read(text, spans)
            _, oout = check.run("oracle", lambda: oracle_op(param, layout, spans))

            gc.collect()
            param = read_qlim(text)
            interval, _ = check.run("validate", lambda: validate_op(param, budget))
            untraced.append(interval)
            if _done(start, round_start, seconds):
                break

    self_t = spans.self_times(speed)
    validate_traced = [r["seconds"] for r in spans.records if r["name"] == "op.validate"]

    def med(name):
        return _median(self_t.get(name, []))

    q5_curves = vout[0]["q5"]["curves"] if vout else []
    segments = sum(c.get("segments_used", 0) for c in q5_curves)
    q5_s = med("tracer.q5")
    # extract_layout re-emits the separatrices, so its time past emission
    # stands in for the private split, assembly and patch-walk stages
    arrange = med("layout.extract") - med("layout.emit") if "layout.extract" in self_t else 0.0
    overhead = _median(validate_traced) - _median([speed.seconds(*iv) for iv in untraced])
    metrics = {
        "qlimio.read_s": med("qlimio.read"),
        "qlimio.report_s": med("op.validate"),
        "mesh.build_s": med("mesh.build"),
        "cutgraph.cut_mesh_s": med("cutgraph.cut_mesh"),
        "immersion.cone_scan_s": med("immersion.cone_scan"),
        "immersion.validate_s": med("immersion.validate"),
        "immersion.cones": len(vout[0]["cones"]) if vout else 0,
        "immersion.seam_halfedges": seams,
        "tracer.q5_s": q5_s,
        "tracer.segments": segments,
        "tracer.crossings": sum(c.get("n_crossings", 0) for c in q5_curves),
        "tracer.budget_exhausted": sum(c.get("status") == "BudgetExceeded" for c in q5_curves),
        "tracer.segments_per_s": segments / q5_s if q5_s > 0 else 0.0,
        "layout.emit_s": med("layout.emit"),
        "layout.separatrix_yield": kept / traced if traced else 0.0,
        "layout.arrange_s": arrange,
        "layout.oracle_s": med("layout.oracle"),
        "layout.coarsen_s": med("layout.coarsen"),
        "layout.arc_segments": sum(len(a.segments) for a in layout.arcs) if layout else 0,
        "layout.oracle_arc_segments": sum(len(a.segments) for a in oout[0].arcs) if oout else 0,
        "trace.overhead_s": overhead,
    }
    return metrics, spans.records


@dataclass
class Result:
    metrics: dict
    samples: dict  # metric -> per-operation seconds behind its median
    wall: dict  # metric -> the same samples' median, unscaled
    attempted: int
    failed: int
    problems: list
    spans: list  # span records of a traced run


def run(workload, seed, seconds, trace, src_dir):
    """Build the seeded input and measure it for about `seconds`."""
    text = generate_text(workload, seed, src_dir)
    check = Checker(workload, seed)
    if trace:
        metrics, spans = run_traced(workload, text, seconds, check)
        samples, wall = {}, {}
    else:
        samples, wall_samples, metrics = run_untraced(workload, text, seconds, check)
        spans = []
        for name, xs in samples.items():
            metrics[name] = _median(xs)
        wall = {name: _median(xs) for name, xs in wall_samples.items()}
    return Result(metrics, samples, wall, check.attempted, check.failed,
                  check.problems, spans)
