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
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import PropertyViolation, StartOnSingularity
from .immersion import IDENTITY, ROTS, SeamTransition, SeamlessParam
from .mesh import SurfacePoint, topology_info

PERIOD_QUANT = 1e-9  # absolute quantization for periodicity signatures
COLLINEAR_TOL = 1e-12
VERTEX_SNAP = 1e-12

FINITE = "Finite"
PERIODIC = "Periodic"
CLOSED_LOOP = "ClosedLoop"
BUDGET_EXCEEDED = "BudgetExceeded"


def default_budget(param: SeamlessParam) -> int:
    env = os.environ.get("QLIM_BUDGET")
    if env:
        return int(env)
    return 64 * max(len(param.mesh.faces), 1)


@dataclass(frozen=True)
class EndEvent:
    kind: str  # HitSingularity | HitBoundaryTransverse | HitSeam | RunsAlongBoundary
    vertex: int = -1
    halfedge: int = -1
    point: tuple = ()  # UV in the chart where the event happened
    face: int = -1


@dataclass
class CoordinateLine:
    axis: int
    value: float
    segments: list  # (face, entry SurfacePoint, exit SurfacePoint)
    end_event: EndEvent = None

    def faces(self):
        return [seg[0] for seg in self.segments]


@dataclass(frozen=True)
class Continuation:
    halfedge: int  # cut halfedge crossed (side entered)
    transition: SeamTransition
    axis: int  # axis after the continuation
    value: float  # value after the continuation


@dataclass
class QuotientCurve:
    pieces: list
    continuations: list
    status: str
    period_index: int = -1
    terminal_events: tuple = ()
    crossings: list = field(default_factory=list)  # (halfedge, axis, value)
    segments_used: int = 0
    budget: int = 0
    ran_along_boundary: bool = False

    def faces(self):
        return [f for piece in self.pieces for f in piece.faces()]


def continue_across_seam(transition, axis, value, direction, point):
    """Closed form of a seam continuation: point' = R^j point + t."""
    p2 = transition.apply(np.asarray(point, dtype=float))
    d2 = transition.apply_vector(direction)
    axis2 = axis if transition.rotation % 2 == 0 else 1 - axis
    return axis2, float(p2[axis2]), d2, p2


# ---------------------------------------------------------------------------
# stepper


class _Tracer:
    def __init__(self, param: SeamlessParam):
        self.param = param
        self.mesh = param.mesh
        self.uv = param.uv
        self.scale = max(param.uv_scale(), 1.0)
        self.vtol = VERTEX_SNAP * self.scale
        self.pos_tol = 1e-14 * self.scale
        self.cones = param.cone_vertices()

    # -- state: dict with keys mode ('face'|'vertex'), face, point (uv),
    #    vertex (when mode=='vertex'), axis, value, direction (2-vector)

    def start_state(self, start: SurfacePoint, axis, direction_sign):
        f = int(start.face)
        bary = np.asarray(start.bary)
        p = bary @ self.uv[f]
        c = 1 - axis
        d = np.zeros(2)
        d[c] = float(direction_sign)
        state = {
            "mode": "face",
            "face": f,
            "point": p,
            "vertex": -1,
            "axis": int(axis),
            "value": float(p[axis]),
            "direction": d,
        }
        near = np.nonzero(bary > 1.0 - 1e-12)[0]
        if near.size:
            v = int(self.mesh.faces[f][near[0]])
            state["mode"] = "vertex"
            state["vertex"] = v
            state["point"] = self.uv[f, int(near[0])].copy()
            state["value"] = float(state["point"][axis])
            if v in self.cones:
                raise StartOnSingularity(f"start point lies on cone vertex {v}")
        return state

    def surface_point(self, face, p):
        """Barycentric coordinates of chart point p in face."""
        A, B, C = self.uv[face]
        M = np.column_stack([B - A, C - A])
        try:
            st = np.linalg.solve(M, p - A)
        except np.linalg.LinAlgError:
            st = np.array([0.0, 0.0])
        b = np.array([1.0 - st[0] - st[1], st[0], st[1]])
        b = np.clip(b, 0.0, None)
        b /= b.sum()
        return SurfacePoint(int(face), tuple(b))

    # -- face-mode: advance through the open face to its border ------------

    def _face_exit(self, state):
        f = state["face"]
        p = state["point"]
        axis, value = state["axis"], state["value"]
        d = state["direction"]
        c = 1 - axis
        uvf = self.uv[f]
        best = None  # (travel, corner_or_edge, kind, X)
        for k in range(3):
            A, B = uvf[k], uvf[(k + 1) % 3]
            denom = B[axis] - A[axis]
            if abs(denom) < COLLINEAR_TOL * self.scale:
                continue  # edge parallel to the iso line
            t = (value - A[axis]) / denom
            if t < -1e-12 or t > 1.0 + 1e-12:
                continue
            X = A + t * (B - A)
            travel = (X[c] - p[c]) * d[c]
            if travel <= self.pos_tol:
                continue
            if best is None or travel < best[0]:
                best = (travel, k, X)
        return best

    def step_face(self, state):
        """Returns (segment, crossings, event_or_None, next_state_or_None)."""
        f = state["face"]
        p = state["point"]
        exit_ = self._face_exit(state)
        if exit_ is None:
            # numerically stuck; should not happen on valid charts
            raise PropertyViolation(
                f"tracer stalled in face {f} (degenerate UV chart?)"
            )
        _, k, X = exit_
        seg = (f, self.surface_point(f, p), self.surface_point(f, X))
        # vertex snap
        uvf = self.uv[f]
        for corner in range(3):
            if np.linalg.norm(X - uvf[corner]) <= self.vtol:
                v = int(self.mesh.faces[f][corner])
                nxt = dict(state)
                nxt.update(
                    mode="vertex", vertex=v, point=uvf[corner].copy(), face=f
                )
                return seg, [], None, nxt
        h = 3 * f + k
        th = int(self.mesh.twin[h])
        if th == -1:
            ev = EndEvent(
                "HitBoundaryTransverse", halfedge=h, point=tuple(X), face=f
            )
            return seg, [], ev, None
        if int(self.mesh.edge_id[h]) in self.param.cut_edges:
            tr = self.param.seams[th]  # maps h-side chart onto th-side chart
            axis2, value2, d2, p2 = continue_across_seam(
                tr, state["axis"], state["value"], state["direction"], X
            )
            nxt = dict(state)
            nxt.update(
                mode="face", face=th // 3, point=p2, vertex=-1,
                axis=axis2, value=value2, direction=d2,
            )
            crossing = Continuation(th, tr, axis2, value2)
            return seg, [crossing], None, nxt
        nxt = dict(state)
        nxt.update(mode="face", face=th // 3, point=X.copy(), vertex=-1)
        return seg, [], None, nxt

    # -- vertex-mode: resolve continuation through the fan -----------------

    def _fan_entries(self, state):
        """(face, corner, transform, crossings) per fan wedge, starting from
        the wedge of the current chart face and sweeping counterclockwise."""
        mesh = self.mesh
        v = state["vertex"]
        fan = mesh.vertex_fan(v)
        start_idx = next(
            (k for k, h in enumerate(fan) if h // 3 == state["face"]), None
        )
        if start_idx is None:
            start_idx = 0  # chart face not in fan (should not happen)
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
                    crossings = crossings + [(h, None)]
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
                    crossings = crossings + [(int(mesh.twin[h]), None)]
                T = tr.compose(T)
                entries.append((fan[k - 1] // 3, fan[k - 1] % 3, T, list(crossings)))
        return entries

    def step_vertex(self, state, skip_cone_check=False):
        mesh = self.mesh
        v = state["vertex"]
        if not skip_cone_check and v in self.cones:
            ev = EndEvent(
                "HitSingularity", vertex=v, point=tuple(state["point"]),
                face=state["face"],
            )
            return None, [], ev, None

        d = state["direction"]
        along = None
        wedge = None
        for (g, i, T, crossed) in self._fan_entries(state):
            dk = ROTS[T.rotation] @ d
            A = self.uv[g, i]
            a = self.uv[g, (i + 1) % 3] - A
            b = self.uv[g, (i + 2) % 3] - A
            ca = a[0] * dk[1] - a[1] * dk[0]
            cb = dk[0] * b[1] - dk[1] * b[0]
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if along is None and abs(ca) <= COLLINEAR_TOL * na and a @ dk > 0:
                along = (g, i, T, crossed, "a")
            if (
                wedge is None
                and ca > COLLINEAR_TOL * na
                and cb > COLLINEAR_TOL * nb
            ):
                wedge = (g, i, T, crossed)
            if (
                along is None
                and bool(mesh.is_boundary_vertex[v])
                and abs(cb) <= COLLINEAR_TOL * nb
                and b @ dk > 0
                and mesh.twin[3 * g + (i + 2) % 3] == -1
            ):
                along = (g, i, T, crossed, "b")

        if along is not None:
            return self._run_along_edge(state, along)
        if wedge is not None:
            g, i, T, crossed = wedge
            p2 = T.apply(state["point"])
            d2 = T.apply_vector(state["direction"])
            axis2 = state["axis"] if T.rotation % 2 == 0 else 1 - state["axis"]
            nxt = dict(state)
            nxt.update(
                mode="face", face=g, point=np.asarray(p2), vertex=-1,
                axis=axis2, value=float(np.asarray(p2)[axis2]), direction=d2,
            )
            conts = self._fan_continuations(state, crossed)
            return None, conts, None, nxt
        # boundary vertex, direction leaves the surface
        ev = EndEvent(
            "HitBoundaryTransverse", vertex=v, point=tuple(state["point"]),
            face=state["face"],
        )
        return None, [], ev, None

    def _fan_continuations(self, state, crossed):
        """Continuation records for cut halfedges passed during a fan sweep."""
        conts = []
        axis, value = state["axis"], state["value"]
        point = np.asarray(state["point"], dtype=float)
        d = np.asarray(state["direction"], dtype=float)
        for (h, _) in crossed:
            tr = self.param.seams[h]
            axis, value, d, point = continue_across_seam(tr, axis, value, d, point)
            conts.append(Continuation(h, tr, axis, value))
        return conts

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
        conts = self._fan_continuations(state, crossed)
        p_here = T.apply(state["point"])
        d_here = T.apply_vector(state["direction"])
        axis2 = state["axis"] if T.rotation % 2 == 0 else 1 - state["axis"]
        seg = (
            g,
            self.surface_point(g, np.asarray(p_here)),
            self.surface_point(g, self.uv[g, w_corner]),
        )
        boundary_run = bool(mesh.twin[h_edge] == -1)
        nxt = dict(state)
        nxt.update(
            mode="vertex", vertex=w, face=g,
            point=self.uv[g, w_corner].copy(),
            axis=axis2, value=float(np.asarray(p_here)[axis2]),
            direction=d_here,
        )
        return seg, conts, None, (nxt, boundary_run)


# ---------------------------------------------------------------------------
# public tracing operations


def _one_direction(param, state, budget, tracer=None, skip_first_cone=False):
    """Trace a single direction; returns a QuotientCurve."""
    tr = tracer or _Tracer(param)
    pieces = []
    continuations = []
    crossings = []
    sigs = {}
    segments_used = 0
    ran_along_boundary = False
    current = CoordinateLine(state["axis"], state["value"], [])
    status = None
    period_index = -1
    terminal = None
    first = True

    while True:
        if segments_used >= budget:
            status = BUDGET_EXCEEDED
            break
        if state["mode"] == "face":
            seg, conts, event, nxt = tr.step_face(state)
        else:
            out = tr.step_vertex(state, skip_cone_check=(first and skip_first_cone))
            seg, conts, event, nxt = out
            if nxt is not None and isinstance(nxt, tuple):
                nxt, boundary_run = nxt
                ran_along_boundary = ran_along_boundary or boundary_run
        first = False
        if seg is not None:
            current.segments.append(seg)
            segments_used += 1
        if conts:
            # close the running piece at the seam junction
            last = conts[-1]
            current.end_event = EndEvent(
                "HitSeam", halfedge=last.halfedge,
                point=tuple(np.asarray(state["point"], dtype=float)),
                face=state["face"],
            )
            if current.segments:
                pieces.append(current)
            continuations.extend(conts)
            for cont in conts:
                crossings.append((cont.halfedge, cont.axis, cont.value))
                sig = (cont.halfedge, cont.axis, round(cont.value / PERIOD_QUANT))
                if sig in sigs:
                    prev_idx, prev_value = sigs[sig]
                    if abs(prev_value - cont.value) <= PERIOD_QUANT:
                        status = PERIODIC
                        period_index = prev_idx
                        break
                else:
                    sigs[sig] = (len(crossings) - 1, cont.value)
            if status == PERIODIC:
                current = CoordinateLine(conts[-1].axis, conts[-1].value, [])
                break
            current = CoordinateLine(conts[-1].axis, conts[-1].value, [])
        if event is not None:
            current.end_event = event
            if current.segments:
                pieces.append(current)
            terminal = event
            status = FINITE
            break
        state = nxt

    if status is None:
        status = BUDGET_EXCEEDED
    if status in (BUDGET_EXCEEDED, PERIODIC) and current.segments:
        pieces.append(current)
    return QuotientCurve(
        pieces=pieces,
        continuations=continuations,
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
    the first seam, boundary, singularity, or tangent-boundary event."""
    tracer = _Tracer(param)
    state = tracer.start_state(start, axis, direction)
    budget = default_budget(param)
    line = CoordinateLine(state["axis"], state["value"], [])
    segments_used = 0
    while True:
        if segments_used >= budget:
            break
        if state["mode"] == "face":
            seg, conts, event, nxt = tracer.step_face(state)
            boundary_run = False
        else:
            seg, conts, event, nxt = tracer.step_vertex(state)
            boundary_run = False
            if nxt is not None and isinstance(nxt, tuple):
                nxt, boundary_run = nxt
        if seg is not None:
            line.segments.append(seg)
            segments_used += 1
        if conts:
            line.end_event = EndEvent(
                "HitSeam", halfedge=conts[0].halfedge,
                point=tuple(np.asarray(state["point"], dtype=float)),
                face=state["face"],
            )
            return line
        if boundary_run:
            line.end_event = EndEvent(
                "RunsAlongBoundary",
                vertex=nxt["vertex"] if nxt else state.get("vertex", -1),
                point=tuple(np.asarray(state["point"], dtype=float)),
                face=state["face"],
            )
            return line
        if event is not None:
            line.end_event = event
            return line
        state = nxt
    line.end_event = EndEvent("HitSeam")  # budget safety; not reached in practice
    return line


def trace_quotient_curve(param, start: SurfacePoint, axis, budget=None,
                         direction=None):
    """Quotient curve through `start`.  With direction=None both directions
    are traced and combined; with ±1 a single ray is traced."""
    if budget is None:
        budget = default_budget(param)
    tracer = _Tracer(param)
    if direction is not None:
        state = tracer.start_state(start, axis, direction)
        return _one_direction(param, state, budget, tracer)
    fwd = _one_direction(param, tracer.start_state(start, axis, 1), budget, tracer)
    if fwd.status in (PERIODIC, CLOSED_LOOP):
        return fwd
    bwd = _one_direction(param, tracer.start_state(start, axis, -1), budget, tracer)
    status = FINITE
    if BUDGET_EXCEEDED in (fwd.status, bwd.status):
        status = BUDGET_EXCEEDED
    elif bwd.status == PERIODIC:
        status = PERIODIC
    pieces = [
        CoordinateLine(
            p.axis,
            p.value,
            [(f, b, a) for (f, a, b) in reversed(p.segments)],
            p.end_event,
        )
        for p in reversed(bwd.pieces)
    ] + fwd.pieces
    return QuotientCurve(
        pieces=pieces,
        continuations=list(reversed(bwd.continuations)) + fwd.continuations,
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
    uv = param.uv
    rays = []
    dirs = [np.array(d, dtype=float) for d in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    for h in mesh.vertex_fan(vertex):
        g, i = h // 3, h % 3
        A = uv[g, i]
        a = uv[g, (i + 1) % 3] - A
        b = uv[g, (i + 2) % 3] - A
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        for d in dirs:
            ca = a[0] * d[1] - a[1] * d[0]
            cb = d[0] * b[1] - d[1] * b[0]
            if ca > COLLINEAR_TOL * na and cb > COLLINEAR_TOL * nb:
                rays.append({"face": g, "direction": d.copy()})
            elif abs(ca) <= COLLINEAR_TOL * na and a @ d > 0:
                if mesh.twin[h] != -1:  # skip boundary-tangent rays
                    rays.append({"face": g, "direction": d.copy()})
    return rays


def trace_cone_separatrix(param, vertex, ray, budget=None):
    if budget is None:
        budget = default_budget(param)
    tracer = _Tracer(param)
    mesh = param.mesh
    g = ray["face"]
    i = next(k for k in range(3) if int(mesh.faces[g][k]) == int(vertex))
    d = np.asarray(ray["direction"], dtype=float)
    axis = 0 if abs(d[0]) < 0.5 else 1
    state = {
        "mode": "vertex",
        "face": g,
        "point": param.uv[g, i].copy(),
        "vertex": int(vertex),
        "axis": axis,
        "value": float(param.uv[g, i][axis]),
        "direction": d,
    }
    return _one_direction(param, state, budget, tracer, skip_first_cone=True)


def validate_q5(param: SeamlessParam, budget=None) -> dict:
    """Q5: all cone-emitted quotient curves finite; on a singularity-free
    torus or annulus, two transverse curves from the centroid of face 0 must
    each be finite, periodic, or a closed loop."""
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
            ok = curve.status in (FINITE, PERIODIC, CLOSED_LOOP)
            curves.append(_curve_summary(curve, kind=f"transverse-axis-{axis}"))
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
                curve, kind="separatrix", vertex=rec.vertex, ray=ridx
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


def _curve_summary(curve: QuotientCurve, **extra):
    d = {
        "status": curve.status,
        "segments_used": curve.segments_used,
        "budget": curve.budget,
        "n_crossings": len(curve.crossings),
        "n_unique_crossings": len(
            {(h, a, round(v / PERIOD_QUANT)) for (h, a, v) in curve.crossings}
        ),
        "period_index": curve.period_index,
        "terminal": [e.kind for e in curve.terminal_events],
        "ran_along_boundary": curve.ran_along_boundary,
    }
    d.update(extra)
    return d
