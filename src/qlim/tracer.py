"""Coordinate-line tracing: straight iso-coordinate curves inside charts,
continued across seams by the quarter-turn transitions, assembled into
quotient curves with finiteness/periodicity detection (property Q5).

Geometry conventions:
  * axis is the index of the coordinate held constant (0 = constant u,
    1 = constant v); motion is along the other coordinate.
  * direction is a 2D unit vector in the current chart, always axis-parallel.
  * Crossing into the face of halfedge h from its twin's face applies
    param.seams[h] (which maps twin-side chart onto h-side chart).

Exact lattice hits are common on the synthesized fixtures (separatrices run
along grid lines), so the tracer walks vertices and mesh edges exactly
instead of perturbing near-vertex passes: at a regular vertex the chart fan
closes to 2*pi and the straight continuation is well defined.

The tracer works on chart points, `(u, v)` tuples of Python floats: a step
through a face records `(face, p_uv, q_uv)`.  Barycentric coordinates are
derived from those points only when `CoordinateLine.segments` is read.

A step that crosses seams reports each crossing as a `(halfedge, axis,
value)` tuple: the cut halfedge crossed (the side entered) and the held
coordinate after the transition.  `QuotientCurve.crossings` is the only
record of a curve's seam crossings; periodicity signatures are built from
it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import PropertyViolation, StartOnSingularity
from .immersion import IDENTITY, ROTS, SeamlessParam
from .mesh import SurfacePoint, topology_info

FINITE = "Finite"
PERIODIC = "Periodic"
BUDGET_EXCEEDED = "BudgetExceeded"

_EDGES = ((0, 1), (1, 2), (2, 0))  # (corner, next corner) of edge k = 3*f + k


def default_budget(param: SeamlessParam) -> int:
    return 64 * max(len(param.mesh.faces), 1)


@dataclass(frozen=True)
class EndEvent:
    kind: str  # HitSingularity | HitBoundaryTransverse | HitSeam | RunsAlongBoundary
    vertex: int = -1
    halfedge: int = -1
    point: tuple = ()  # UV in the chart where the event happened
    face: int = -1


def _surface_points(uv, chart_segments):
    """Barycentric form of chart segments: one 2x2 solve per chart point,
    clipped to the face and normalised."""
    if not chart_segments:
        return []
    faces = np.array([f for (f, _, _) in chart_segments for _ in "pq"])
    tri = uv[faces]
    A = tri[:, 0]
    M = np.stack([tri[:, 1] - A, tri[:, 2] - A], axis=-1)
    rhs = np.array([x for (_, p, q) in chart_segments for x in (p, q)]) - A
    try:
        st = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # a degenerate chart: solve point by point
        st = np.zeros_like(rhs)
        for k in range(len(rhs)):
            try:
                st[k] = np.linalg.solve(M[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
    b = np.stack([1.0 - st[:, 0] - st[:, 1], st[:, 0], st[:, 1]], axis=-1)
    b = np.clip(b, 0.0, None)
    b /= b.sum(axis=1, keepdims=True)
    sps = [SurfacePoint(f, tuple(row)) for f, row in zip(faces.tolist(), b.tolist())]
    return [(f, a, b) for (f, _, _), a, b in zip(chart_segments, sps[::2], sps[1::2])]


@dataclass(slots=True)
class CoordinateLine:
    """A straight polyline on which coordinate `axis` holds `value`.

    `chart_segments` holds the traced steps as `(face, p_uv, q_uv)` chart
    points of `uv`.  `segments` gives the same steps as `(face, entry
    SurfacePoint, exit SurfacePoint)`; it is built on first access."""

    axis: int
    value: float
    uv: np.ndarray = field(repr=False, compare=False)
    chart_segments: list = field(default_factory=list)
    end_event: EndEvent = None
    _segments: list = field(default=None, init=False, repr=False, compare=False)

    @property
    def segments(self):
        if self._segments is None:
            self._segments = _surface_points(self.uv, self.chart_segments)
        return self._segments

    def faces(self):
        return [seg[0] for seg in self.chart_segments]

    def reversed(self):
        """The same line traversed backwards."""
        return CoordinateLine(
            self.axis, self.value, self.uv,
            [(f, q, p) for (f, p, q) in reversed(self.chart_segments)],
            self.end_event,
        )


@dataclass
class QuotientCurve:
    pieces: list
    status: str
    period_index: int = -1
    terminal_events: tuple = ()
    crossings: list = field(default_factory=list)  # (halfedge, axis, value)
    segments_used: int = 0
    budget: int = 0
    ran_along_boundary: bool = False

    def faces(self):
        return [f for piece in self.pieces for f in piece.faces()]


def continue_across_seam(transition, axis, direction, point):
    """Closed form of a seam continuation: point' = R^j point + t."""
    p2 = transition.apply(np.asarray(point, dtype=float))
    d2 = transition.apply_vector(direction)
    axis2 = axis if transition.rotation % 2 == 0 else 1 - axis
    return axis2, float(p2[axis2]), d2, p2


# ---------------------------------------------------------------------------
# stepper


@dataclass(slots=True)
class _State:
    """Where a trace stands: inside `face` (mode 'face') or on mesh `vertex`
    (mode 'vertex'), at chart `point` of `face`, moving along `direction`
    with coordinate `axis` held at `value`.  Points and directions are
    `(u, v)` tuples of floats."""

    mode: str
    face: int
    point: tuple
    vertex: int
    axis: int
    value: float
    direction: tuple

    def moved(self, mode, face, point, vertex=-1, axis=None, value=None,
              direction=None):
        """A new state; axis, value and direction carry over unless given."""
        return _State(
            mode, face, point, vertex,
            self.axis if axis is None else axis,
            self.value if value is None else value,
            self.direction if direction is None else direction,
        )


def _floats(a):
    return tuple(np.asarray(a, dtype=float).tolist())


def _wedge_test(param, g, i, d):
    """Where direction `d` points at corner i of face g, whose UV wedge is
    spanned by a (towards the next corner) and b (towards the previous):
    (strictly inside, along a, along b).  A side counts as hit when the
    cross product is within COLLINEAR_TOL times that side's length, read
    from the cached `edge_lengths()`."""
    uv = param.uv
    A = uv[g, i]
    a = uv[g, (i + 1) % 3] - A
    b = uv[g, (i + 2) % 3] - A
    ca = a[0] * d[1] - a[1] * d[0]
    cb = d[0] * b[1] - d[1] * b[0]
    length = param.edge_lengths()
    ta = tolerances.COLLINEAR_TOL * length[3 * g + i]
    tb = tolerances.COLLINEAR_TOL * length[3 * g + (i + 2) % 3]
    return (
        ca > ta and cb > tb,
        abs(ca) <= ta and a @ d > 0,
        abs(cb) <= tb and b @ d > 0,
    )


class _Tracer:
    def __init__(self, param: SeamlessParam):
        self.param = param
        self.mesh = param.mesh
        self.uv = param.uv
        self.uvt = param.uv_tuples()
        scale = param.uv_scale()
        self.vtol = tolerances.VERTEX_SNAP * scale
        self.pos_tol = tolerances.TRAVEL_MIN * scale
        self.par_tol = tolerances.PARALLEL_TOL * scale
        self.cones = param.cone_vertices()

    def start_state(self, start: SurfacePoint, axis, direction_sign):
        f = int(start.face)
        bary = np.asarray(start.bary)
        p = _floats(bary @ self.uv[f])
        d = [0.0, 0.0]
        d[1 - axis] = float(direction_sign)
        state = _State("face", f, p, -1, int(axis), p[axis], tuple(d))
        near = np.nonzero(bary > 1.0 - tolerances.PARAM_TOL)[0]
        if near.size:
            v = int(self.mesh.faces[f][near[0]])
            point = self.uvt[f][int(near[0])]
            state = state.moved("vertex", f, point, v, value=point[axis])
            if v in self.cones:
                raise StartOnSingularity(f"start point lies on cone vertex {v}")
        return state

    # -- face-mode: advance through the open face to its border ------------

    def _face_exit(self, state):
        """(k, X): the first edge k of the face the ray meets past its
        point, and the chart point X where it meets it; None if stuck."""
        axis, value = state.axis, state.value
        c = 1 - axis
        pc = state.point[c]
        dc = state.direction[c]
        tri = self.uvt[state.face]
        best = None  # (travel, edge, t)
        for k, (i, j) in enumerate(_EDGES):
            A, B = tri[i], tri[j]
            denom = B[axis] - A[axis]
            if abs(denom) < self.par_tol:
                continue  # edge parallel to the iso line
            t = (value - A[axis]) / denom
            if t < -tolerances.PARAM_TOL or t > 1.0 + tolerances.PARAM_TOL:
                continue
            travel = (A[c] + t * (B[c] - A[c]) - pc) * dc
            if travel <= self.pos_tol:
                continue
            if best is None or travel < best[0]:
                best = (travel, k, t)
        if best is None:
            return None
        _, k, t = best
        A, B = tri[_EDGES[k][0]], tri[_EDGES[k][1]]
        return k, (A[0] + t * (B[0] - A[0]), A[1] + t * (B[1] - A[1]))

    def step_face(self, state):
        """Returns (segment, crossings, event_or_None, next_state_or_None,
        ran_along_boundary); crossings are `(halfedge, axis, value)`."""
        f = state.face
        exit_ = self._face_exit(state)
        if exit_ is None:
            # numerically stuck; should not happen on valid charts
            raise PropertyViolation(
                f"tracer stalled in face {f} (degenerate UV chart?)"
            )
        k, X = exit_
        seg = (f, state.point, X)
        # vertex snap
        for corner, C in enumerate(self.uvt[f]):
            if math.hypot(X[0] - C[0], X[1] - C[1]) <= self.vtol:
                v = int(self.mesh.faces[f][corner])
                return seg, [], None, state.moved("vertex", f, C, v), False
        h = 3 * f + k
        th = int(self.mesh.twin[h])
        if th == -1:
            ev = EndEvent("HitBoundaryTransverse", halfedge=h, point=X, face=f)
            return seg, [], ev, None, False
        if int(self.mesh.edge_id[h]) in self.param.cut_edges:
            tr = self.param.seams[th]  # maps h-side chart onto th-side chart
            axis2, value2, d2, p2 = continue_across_seam(
                tr, state.axis, state.direction, X
            )
            nxt = state.moved(
                "face", th // 3, _floats(p2), axis=axis2, value=value2,
                direction=_floats(d2),
            )
            return seg, [(th, axis2, value2)], None, nxt, False
        return seg, [], None, state.moved("face", th // 3, X), False

    # -- vertex-mode: resolve continuation through the fan -----------------

    def _fan_entries(self, state):
        """(face, corner, transform, crossings) per fan wedge, starting from
        the wedge of the current chart face and sweeping counterclockwise."""
        mesh = self.mesh
        v = state.vertex
        fan = mesh.vertex_fan(v)
        start_idx = next(
            (k for k, h in enumerate(fan) if h // 3 == state.face), 0
        )
        entries = []
        boundary = bool(mesh.is_boundary_vertex[v])
        T = IDENTITY
        crossings = []
        order = list(range(start_idx, len(fan)))
        if not boundary:
            order += list(range(0, start_idx))
        for step, k in enumerate(order):
            h = fan[k]
            if step > 0:
                tr = IDENTITY
                if int(mesh.edge_id[h]) in self.param.cut_edges:
                    tr = self.param.seams[h]
                    crossings = crossings + [h]
                T = tr.compose(T)
            entries.append((h // 3, h % 3, T, list(crossings)))
        if boundary and start_idx > 0:
            # sweep clockwise from the chart face back to the fan start
            T = IDENTITY
            crossings = []
            for k in range(start_idx, 0, -1):
                h = fan[k]
                tr = IDENTITY
                if int(mesh.edge_id[h]) in self.param.cut_edges:
                    tr = self.param.seams[int(mesh.twin[h])]
                    crossings = crossings + [int(mesh.twin[h])]
                T = tr.compose(T)
                entries.append((fan[k - 1] // 3, fan[k - 1] % 3, T, list(crossings)))
        return entries

    def step_vertex(self, state, skip_cone_check=False):
        """Same contract as `step_face`."""
        mesh = self.mesh
        v = state.vertex
        if not skip_cone_check and v in self.cones:
            ev = EndEvent(
                "HitSingularity", vertex=v, point=state.point, face=state.face
            )
            return None, [], ev, None, False

        d = np.asarray(state.direction)
        along = None
        wedge = None
        for (g, i, T, crossed) in self._fan_entries(state):
            inside, along_a, along_b = _wedge_test(
                self.param, g, i, ROTS[T.rotation] @ d
            )
            if along is None and along_a:
                along = (g, i, T, crossed, "a")
            if wedge is None and inside:
                wedge = (g, i, T, crossed)
            if (
                along is None
                and along_b
                and bool(mesh.is_boundary_vertex[v])
                and mesh.twin[3 * g + (i + 2) % 3] == -1
            ):
                along = (g, i, T, crossed, "b")

        if along is not None:
            return self._run_along_edge(state, along)
        if wedge is not None:
            g, i, T, crossed = wedge
            p2 = T.apply(state.point)
            axis2 = state.axis if T.rotation % 2 == 0 else 1 - state.axis
            nxt = state.moved(
                "face", g, _floats(p2), axis=axis2, value=float(p2[axis2]),
                direction=_floats(T.apply_vector(state.direction)),
            )
            return None, self._fan_crossings(state, crossed), None, nxt, False
        # boundary vertex, direction leaves the surface
        ev = EndEvent(
            "HitBoundaryTransverse", vertex=v, point=state.point, face=state.face
        )
        return None, [], ev, None, False

    def _fan_crossings(self, state, crossed):
        """`(halfedge, axis, value)` for the cut halfedges passed during a
        fan sweep."""
        out = []
        axis = state.axis
        point = np.asarray(state.point, dtype=float)
        d = np.asarray(state.direction, dtype=float)
        for h in crossed:
            tr = self.param.seams[h]
            axis, value, d, point = continue_across_seam(tr, axis, d, point)
            out.append((h, axis, value))
        return out

    def _run_along_edge(self, state, along):
        g, i, T, crossed, side = along
        mesh = self.mesh
        if side == "a":
            h_edge = 3 * g + i
            w_corner = (i + 1) % 3
        else:
            h_edge = 3 * g + (i + 2) % 3  # boundary halfedge into v
            w_corner = (i + 2) % 3
        w = int(mesh.faces[g][w_corner])
        p_here = T.apply(state.point)
        axis2 = state.axis if T.rotation % 2 == 0 else 1 - state.axis
        W = self.uvt[g][w_corner]
        nxt = state.moved(
            "vertex", g, W, w, axis=axis2, value=float(p_here[axis2]),
            direction=_floats(T.apply_vector(state.direction)),
        )
        seg = (g, _floats(p_here), W)
        crossings = self._fan_crossings(state, crossed)
        return seg, crossings, None, nxt, bool(mesh.twin[h_edge] == -1)


# ---------------------------------------------------------------------------
# public tracing operations


def _signature(param, crossing):
    """Periodicity signature of a seam crossing `(halfedge, axis, value)`:
    the held value in quanta of PERIOD_QUANT * uv_scale().  A curve that
    crosses with a signature it has crossed with before is periodic."""
    h, axis, value = crossing
    return h, axis, round(value / (tolerances.PERIOD_QUANT * param.uv_scale()))


def _one_direction(tracer, state, budget, skip_first_cone=False,
                   stop_at_seam=False):
    """Trace a single direction; returns a QuotientCurve.

    With `stop_at_seam` the trace ends where its first chart line does: at
    the first seam crossing or boundary run, or at a terminal event.  That
    line is then always the curve's only piece, even when it is empty."""
    pieces = []
    crossings = []
    sigs = {}
    segments_used = 0
    ran_along_boundary = False
    current = CoordinateLine(state.axis, state.value, tracer.uv)
    status = BUDGET_EXCEEDED
    period_index = -1
    terminal = None
    skip_cone = skip_first_cone

    def close(event):
        current.end_event = event
        if current.chart_segments or stop_at_seam:
            pieces.append(current)

    while segments_used < budget:
        if state.mode == "face":
            seg, crossed, event, nxt, boundary_run = tracer.step_face(state)
        else:
            seg, crossed, event, nxt, boundary_run = tracer.step_vertex(
                state, skip_cone_check=skip_cone
            )
            ran_along_boundary = ran_along_boundary or boundary_run
        skip_cone = False
        if seg is not None:
            current.chart_segments.append(seg)
            segments_used += 1
        if crossed:
            # close the running piece at the seam junction
            last_h, last_axis, last_value = crossed[-1]
            close(EndEvent(
                "HitSeam", halfedge=last_h, point=state.point, face=state.face,
            ))
            for crossing in crossed:
                crossings.append(crossing)
                sig = _signature(tracer.param, crossing)
                if sig in sigs:
                    status = PERIODIC
                    period_index = sigs[sig]
                    break
                sigs[sig] = len(crossings) - 1
            current = CoordinateLine(last_axis, last_value, tracer.uv)
            if status == PERIODIC:
                break
            if stop_at_seam:
                status = FINITE
                break
        if stop_at_seam and boundary_run:
            close(EndEvent(
                "RunsAlongBoundary", vertex=nxt.vertex, point=state.point,
                face=state.face,
            ))
            status = FINITE
            break
        if event is not None:
            close(event)
            terminal = event
            status = FINITE
            break
        state = nxt

    if status in (BUDGET_EXCEEDED, PERIODIC) and (
        current.chart_segments or (stop_at_seam and not pieces)
    ):
        pieces.append(current)
    return QuotientCurve(
        pieces=pieces,
        status=status,
        period_index=period_index,
        terminal_events=(terminal,) if terminal else (),
        crossings=crossings,
        segments_used=segments_used,
        budget=budget,
        ran_along_boundary=ran_along_boundary,
    )


def trace_coordinate_line(param, start: SurfacePoint, axis, direction=1):
    """Maximal straight iso-coordinate polyline within one chart, ending at
    the first seam, boundary, singularity, or tangent-boundary event.  Its
    `end_event` is None when the tracing budget runs out first."""
    tracer = _Tracer(param)
    state = tracer.start_state(start, axis, direction)
    curve = _one_direction(tracer, state, default_budget(param), stop_at_seam=True)
    return curve.pieces[0]


def trace_quotient_curve(param, start: SurfacePoint, axis, budget=None,
                         direction=None):
    """Quotient curve through `start`.  With direction=None both directions
    are traced and combined; with ±1 a single ray is traced."""
    if budget is None:
        budget = default_budget(param)
    tracer = _Tracer(param)
    if direction is not None:
        return _one_direction(tracer, tracer.start_state(start, axis, direction), budget)
    fwd = _one_direction(tracer, tracer.start_state(start, axis, 1), budget)
    if fwd.status == PERIODIC:
        return fwd
    bwd = _one_direction(tracer, tracer.start_state(start, axis, -1), budget)
    status = FINITE
    if BUDGET_EXCEEDED in (fwd.status, bwd.status):
        status = BUDGET_EXCEEDED
    elif bwd.status == PERIODIC:
        status = PERIODIC
    return QuotientCurve(
        pieces=[p.reversed() for p in reversed(bwd.pieces)] + fwd.pieces,
        status=status,
        period_index=max(fwd.period_index, bwd.period_index),
        terminal_events=tuple(bwd.terminal_events) + tuple(fwd.terminal_events),
        crossings=list(reversed(bwd.crossings)) + fwd.crossings,
        segments_used=fwd.segments_used + bwd.segments_used,
        budget=budget,
        ran_along_boundary=fwd.ran_along_boundary or bwd.ran_along_boundary,
    )


# ---------------------------------------------------------------------------
# cone rays and Q5


def cone_rays(param: SeamlessParam, vertex: int):
    """Outgoing axis directions at a cone: m rays for an interior cone of
    angle m*pi/2, m-1 for a boundary cone (boundary-tangent rays excluded)."""
    mesh = param.mesh
    rays = []
    dirs = [np.array(d, dtype=float) for d in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    for h in mesh.vertex_fan(vertex):
        g = h // 3
        for d in dirs:
            inside, along_a, _ = _wedge_test(param, g, h % 3, d)
            # a ray along a boundary side is tangent to the boundary: skipped
            if inside or (along_a and mesh.twin[h] != -1):
                rays.append({"face": g, "direction": d.copy()})
    return rays


def trace_cone_separatrix(param, vertex, ray, budget=None):
    if budget is None:
        budget = default_budget(param)
    tracer = _Tracer(param)
    g = ray["face"]
    i = next(k for k in range(3) if int(param.mesh.faces[g][k]) == int(vertex))
    d = _floats(ray["direction"])
    axis = 0 if abs(d[0]) < 0.5 else 1
    point = tracer.uvt[g][i]
    state = _State("vertex", g, point, int(vertex), axis, point[axis], d)
    return _one_direction(tracer, state, budget, skip_first_cone=True)


def validate_q5(param: SeamlessParam, budget=None) -> dict:
    """Q5: all cone-emitted quotient curves finite; on a singularity-free
    torus or annulus, two transverse curves from the centroid of face 0 must
    each be finite or periodic."""
    if budget is None:
        budget = default_budget(param)
    records = param.cone_scan()[0]
    curves = []
    report = {
        "budget": budget,
        "curves": curves,
        "passed": True,
        "budget_exhausted": False,
        "note": "",
    }
    if not records:
        info = topology_info(param.mesh)
        free_ok = (info.genus, info.boundary_count) in ((1, 0), (0, 2))
        if not free_ok:
            report["note"] = "no cones and no transverse-curve topology rule"
            return report
        centroid = SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3))
        for axis in (0, 1):
            curve = trace_quotient_curve(param, centroid, axis, budget)
            ok = curve.status in (FINITE, PERIODIC)
            curves.append(_curve_summary(param, curve, kind=f"transverse-axis-{axis}"))
            if not ok:
                report["passed"] = False
                if curve.status == BUDGET_EXCEEDED:
                    report["budget_exhausted"] = True

    for rec in records:
        rays = cone_rays(param, rec.vertex)
        expected = rec.m if rec.location == "interior" else rec.m - 1
        if len(rays) != expected:
            report["passed"] = False
            curves.append(
                {
                    "kind": "cone-ray-count",
                    "vertex": rec.vertex,
                    "status": "RayCountMismatch",
                    "measured": len(rays),
                    "expected": expected,
                }
            )
            continue
        for ridx, ray in enumerate(rays):
            curve = trace_cone_separatrix(param, rec.vertex, ray, budget)
            summary = _curve_summary(
                param, curve, kind="separatrix", vertex=rec.vertex, ray=ridx
            )
            curves.append(summary)
            if curve.status != FINITE:
                report["passed"] = False
                if curve.status == BUDGET_EXCEEDED:
                    report["budget_exhausted"] = True
    if report["budget_exhausted"]:
        report["note"] = (
            "terminated prematurely: tracing budget exhausted before a "
            "terminal event or a periodicity proof; not evidence of an "
            "infinite curve"
        )
    return report


def _curve_summary(param, curve: QuotientCurve, **extra):
    d = {
        "status": curve.status,
        "segments_used": curve.segments_used,
        "budget": curve.budget,
        "n_crossings": len(curve.crossings),
        "n_unique_crossings": len({_signature(param, c) for c in curve.crossings}),
        "period_index": curve.period_index,
        "terminal": [e.kind for e in curve.terminal_events],
        "ran_along_boundary": curve.ran_along_boundary,
    }
    d.update(extra)
    return d
