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
through a face records `(face, p_uv, q_uv)`.  `chart_barycentrics` is the
one place that turns chart points into barycentric rows; a reader that
needs them calls it once for a whole curve.

Its inner loops read Python values, not numpy arrays: the halfedge lists
of a `_Tracer` (twin, cut flag and edge length) and one record per face,
built on the face's first visit.  `_tracer(param)` builds one `_Tracer`
per param on first use and drops it with the param, so every trace of a
param shares its lists, records, cone set and scaled tolerances, and pays
for the faces it enters, not for the mesh.  A record holds the face's
corner chart points, its corner vertices and, per held axis, the exit rows
of its non-parallel edges.
`_Tracer.walk` runs the plain steps, through uncut interior edges away
from every corner, reading one record per step, in one loop that holds the
corner snap test and the only copy of the face-exit rule (`start_state`
asks a one-step walk whether an edge start has an exit ahead); the step
that ends it (a vertex snap, the boundary or a seam) goes to `step_face`
with the exit the walk already computed.  `step_vertex` sweeps a vertex's
fan in one flat loop that composes each passed edge's transform and seam
crossing as it goes, so the wedge it picks has both at hand.  Seam
transitions and fan-sweep transforms are applied in floats as
`p0*r00 + p1*r01 + t0`: each rotation entry is 0 or +-1, so every product
is exact and every point has the bits numpy's `p @ R.T + t` gives it.

A step that crosses seams reports each crossing as a `(halfedge, axis,
value)` tuple: the cut halfedge crossed (the side entered) and the held
coordinate after the transition.  `QuotientCurve.crossings` is the only
record of a curve's seam crossings; periodicity signatures are built from
it.
"""

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import PropertyViolation, StartOnSingularity
from .immersion import ROTS, SeamlessParam
from .mesh import SurfacePoint, topology_info

FINITE = "Finite"
PERIODIC = "Periodic"
BUDGET_EXCEEDED = "BudgetExceeded"

_EDGES = ((0, 1), (1, 2), (2, 0))  # (corner, next corner) of edge k = 3*f + k
_QUARTERS = tuple(tuple(map(tuple, R.tolist())) for R in ROTS)  # ROTS in floats
AXES = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))  # e_q: +u, +v, -u, -v, counterclockwise


def default_budget(param: SeamlessParam) -> int:
    return 64 * max(len(param.mesh.faces), 1)


def _resolve_budget(param, budget):
    """`budget` segments, or the default for `param` when None; a budget
    below 1 is refused."""
    if budget is None:
        return default_budget(param)
    if budget < 1:
        raise ValueError(f"tracing budget {budget} is below 1")
    return budget


@dataclass(frozen=True)
class EndEvent:
    kind: str  # HitSingularity | HitBoundaryTransverse | HitSeam
    vertex: int = -1


def chart_barycentrics(param, faces, points):
    """Barycentric rows (N, 3) of the chart points (N, 2), point k in the
    chart of face faces[k]: one 2x2 solve per point, clipped to the face
    and normalised.  If any chart is degenerate the points are solved one
    by one, and the degenerate chart's own points get (1, 0, 0).  The
    snapped chart point of a row is `bary @ param.uv[face]`."""
    faces = np.asarray(faces, dtype=np.intp)
    tri = param.uv[faces]
    A = tri[:, 0]
    M = np.stack([tri[:, 1] - A, tri[:, 2] - A], axis=-1)
    rhs = np.asarray(points, dtype=float).reshape(-1, 2) - A
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
    return b


@dataclass(slots=True)
class CoordinateLine:
    """A straight polyline on which coordinate `axis` holds `value`.  Its
    traced steps are `(face, p_uv, q_uv)` chart points in
    `chart_segments`; `chart_barycentrics` gives their barycentric form."""

    axis: int
    value: float
    chart_segments: list = field(default_factory=list)
    end_event: EndEvent = None

    def faces(self):
        return [seg[0] for seg in self.chart_segments]

    def reversed(self):
        """The same line traversed backwards."""
        return CoordinateLine(
            self.axis, self.value,
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


def _apply(j, t, p):
    """`p @ ROTS[j].T + t` in Python floats: every rotation entry is 0 or
    +-1, so each product is exact and each sum is the one numpy makes."""
    (r00, r01), (r10, r11) = _QUARTERS[j]
    p0, p1 = p
    return (p0 * r00 + p1 * r01 + t[0], p0 * r10 + p1 * r11 + t[1])


def _turn(j, d):
    """Direction d turned counterclockwise by j quarter-turns."""
    u, v = d
    return ((u, v), (-v, u), (-u, -v), (v, -u))[j]


def continue_across_seam(transition, axis, direction, point):
    """Closed form of a seam continuation: point' = R^j point + t."""
    j = transition.rotation
    p2 = _apply(j, transition.translation, point)
    axis2 = axis if j % 2 == 0 else 1 - axis
    return axis2, p2[axis2], _turn(j, direction), p2


# ---------------------------------------------------------------------------
# stepper


@dataclass(slots=True)
class _State:
    """Where a trace stands: on mesh `vertex` when it is 0 or more, else
    inside `face`; at chart `point` of `face`, moving along `direction`
    with coordinate `axis` held at `value`.  Points and directions are
    `(u, v)` tuples of floats.  A start on a boundary edge whose direction
    leaves the surface carries its `end` event."""

    face: int
    point: tuple
    vertex: int
    axis: int
    value: float
    direction: tuple
    end: EndEvent = None


def _wedge_flags(a, b, ta, tb, d):
    """Where direction d points in the wedge from side a counterclockwise to
    side b: (strictly inside, along a, along b), a side hit when its cross
    product with d is within its slack ta or tb (COLLINEAR_TOL times its
    length).  Vectors are (x, y) pairs of floats or broadcasting arrays."""
    (a0, a1), (b0, b1), (d0, d1) = a, b, d
    ca = a0 * d1 - a1 * d0
    cb = d0 * b1 - d1 * b0
    return ((ca > ta) & (cb > tb), (abs(ca) <= ta) & (a0 * d0 + a1 * d1 > 0),
            (abs(cb) <= tb) & (b0 * d0 + b1 * d1 > 0))


def _wedge_test(uvt, length, g, i, d):
    """`_wedge_flags` at corner i of face g, whose side a runs to the next
    corner and b to the previous; `uvt[g]` holds face g's corner chart
    points as `(u, v)` tuples and `length` is the trace-table lengths.  The
    scalar form of the test `step_vertex` writes out inline."""
    (A0, A1), (a0, a1), (b0, b1) = uvt[g][i], uvt[g][(i + 1) % 3], uvt[g][(i + 2) % 3]
    ta = tolerances.COLLINEAR_TOL * length[3 * g + i]
    tb = tolerances.COLLINEAR_TOL * length[3 * g + (i + 2) % 3]
    return _wedge_flags((a0 - A0, a1 - A1), (b0 - A0, b1 - A1), ta, tb, d)


def wedge_sides(param, H, half_planes=False):
    """The wedges of `_wedge_test` at the corners of halfedges H (N,): sides
    a and b, each (2, N), and their slacks ta and tb, each (N,).  Where
    `half_planes` (a bool or an (N,) mask) holds, the wedge is the
    half-plane left of side a."""
    H = np.asarray(H, dtype=np.intp)
    corner, length = param.uv.reshape(-1, 2), param.edge_lengths()
    prev = H - H % 3 + (H + 2) % 3
    a = corner[H - H % 3 + (H + 1) % 3] - corner[H]
    b = corner[prev] - corner[H]
    ta, tb = tolerances.COLLINEAR_TOL * length[[H, prev]]
    half = np.broadcast_to(half_planes, H.shape)
    b[half], tb[half] = -a[half], ta[half]
    return a.T, b.T, ta, tb


def wedge_flags(sides, d):
    """`_wedge_flags` in the N wedges `sides` of `wedge_sides` for
    directions d broadcast to (N, m, 2), each flag (N, m)."""
    a, b, ta, tb = sides
    d = np.moveaxis(np.asarray(d, dtype=float), -1, 0)
    return _wedge_flags(a[..., None], b[..., None], ta[:, None], tb[:, None], d)


class _Tracer:
    def __init__(self, param: SeamlessParam):
        mesh = self.mesh = param.mesh
        self.uv = param.uv
        cut = np.zeros(mesh.n_edges, dtype=bool)
        cut[list(param.cut_edges)] = True
        # Python lists indexed by halfedge h = 3*f + i
        self.twin = mesh.twin.tolist()
        self.is_cut = cut[mesh.edge_id].tolist()
        self.lengths = param.edge_lengths().tolist()
        self.records = {}  # {face: record}, see `record`
        self.seams = param.seams
        scale = param.uv_scale()
        self.vtol = tolerances.VERTEX_SNAP * scale
        self.pos_tol = tolerances.TRAVEL_MIN * scale
        self.par_tol = tolerances.PARALLEL_TOL * scale
        self.t_lo = -tolerances.PARAM_TOL
        self.t_hi = 1.0 + tolerances.PARAM_TOL
        self.quantum = tolerances.PERIOD_QUANT * scale
        self.cones = param.cone_vertices()

    def record(self, f):
        """Face f's record `[corners, vertices, rows0, rows1]`, built on its
        first visit: the corner chart points, the corner vertices and, per
        held axis, the exit rows `_exit_rows` fills on the first walk
        through the face holding that axis (a fan sweep reads corners only)."""
        rec = self.records.get(f)
        if rec is None:
            tri = tuple(map(tuple, self.uv[f].tolist()))
            rec = self.records[f] = [tri, tuple(self.mesh.faces[f].tolist()), None, None]
        return rec

    def _exit_rows(self, rec, f, axis):
        """The exit rows of face f for a line holding `axis`, stored in its
        record: one per edge k = A -> B not parallel to the line,
        `(k, A[axis], denom, A[c], dB[c], next)` with dB = B - A, denom =
        dB[axis], c the moving coordinate and `next` the face across an
        uncut interior edge, else -1."""
        c = 1 - axis
        tri = rec[0]
        rows = []
        for k, (i, j) in enumerate(_EDGES):
            A, B = tri[i], tri[j]
            denom = B[axis] - A[axis]
            if abs(denom) < self.par_tol:
                continue  # edge parallel to the iso line
            h = 3 * f + k
            rows.append((k, A[axis], denom, A[c], B[c] - A[c],
                         -1 if self.is_cut[h] else self.twin[h] // 3))
        rec[2 + axis] = rows
        return rows

    def start_state(self, start: SurfacePoint, axis, direction_sign):
        f = int(start.face)
        if not 0 <= f < len(self.uv):
            raise ValueError(f"start face {f} is not in 0..{len(self.uv) - 1}")
        axis = int(axis)
        bary = np.asarray(start.bary)
        d = [0.0, 0.0]
        d[1 - axis] = float(direction_sign)
        near = np.nonzero(bary > 1.0 - tolerances.PARAM_TOL)[0]
        if near.size:
            corner = int(near[0])
            tri, vertices = self.record(f)[:2]
            v = vertices[corner]
            if v in self.cones:
                raise StartOnSingularity(f"start point lies on cone vertex {v}")
            point = tri[corner]
            return _State(f, point, v, axis, point[axis], tuple(d))
        p = tuple((bary @ self.uv[f]).tolist())
        d = tuple(d)
        state = _State(f, p, -1, axis, p[axis], d)
        if bary.min() > tolerances.PARAM_TOL:
            return state
        try:  # one probe step of the walk, which stalls where no exit lies ahead
            self.walk(_State(f, p, -1, axis, p[axis], d), [], 1)
            return state
        except PropertyViolation:
            pass
        # on the edge opposite the least barycentric and leaving the face
        # across it: start in the face entered
        h = 3 * f + (int(bary.argmin()) + 1) % 3
        th = self.twin[h]
        if th == -1:
            state.end = EndEvent("HitBoundaryTransverse")
        elif self.is_cut[h]:
            axis2, value2, d2, p2 = continue_across_seam(self.seams[th], axis, d, p)
            state = _State(th // 3, p2, -1, axis2, value2, d2)
        else:
            state.face = th // 3
        return state

    # -- face-mode: advance through the open face to its border ------------

    def walk(self, state, segs, limit):
        """Plain steps from face-mode `state`: each crosses an uncut
        interior edge away from every corner, appends `(face, P, X)` to
        `segs` and moves `state` into the next face.  Stops after `limit`
        steps, returning (limit, None), or before the first step that is
        not plain, returning (steps, (k, X, corner)) for `step_face`, with
        corner the snapped corner or -1.

        The loop holds the one exit rule: a face is left across the exit
        row with t in [t_lo, t_hi] and the least travel past P above
        TRAVEL_MIN; with no such row it raises PropertyViolation.  The exit
        point's moving coordinate is the one the travel test computed, its
        held one `A[axis] + t*denom`."""
        axis, value = state.axis, state.value
        c = 1 - axis
        r = 2 + axis
        dc = state.direction[c]
        f, P = state.face, state.point
        records, vtol, hypot = self.records, self.vtol, math.hypot
        t_lo, t_hi, pos_tol = self.t_lo, self.t_hi, self.pos_tol
        for n in range(limit):
            rec = records.get(f) or self.record(f)
            pc = P[c]
            best = None
            for row in rec[r] or self._exit_rows(rec, f, axis):
                t = (value - row[1]) / row[2]
                if t < t_lo or t > t_hi:
                    continue
                xc = row[3] + t * row[4]
                travel = (xc - pc) * dc
                if travel <= pos_tol:
                    continue
                if best is None or travel < best_travel:
                    best, best_t, best_travel, best_xc = row, t, travel, xc
            if best is None:
                # numerically stuck; should not happen on valid charts
                raise PropertyViolation(
                    f"tracer stalled in face {f} (degenerate UV chart?)"
                )
            xa = best[1] + best_t * best[2]
            x0, x1 = (best_xc, xa) if axis else (xa, best_xc)
            # the corner snap, in corner order; hypot >= max(|dx|, |dy|), so
            # the prefilter rejects no snap
            (u0, v0), (u1, v1), (u2, v2) = rec[0]
            if (-vtol <= (dx := x0 - u0) <= vtol and -vtol <= (dy := x1 - v0) <= vtol
                    and hypot(dx, dy) <= vtol):
                corner = 0
            elif (-vtol <= (dx := x0 - u1) <= vtol and -vtol <= (dy := x1 - v1) <= vtol
                    and hypot(dx, dy) <= vtol):
                corner = 1
            elif (-vtol <= (dx := x0 - u2) <= vtol and -vtol <= (dy := x1 - v2) <= vtol
                    and hypot(dx, dy) <= vtol):
                corner = 2
            else:
                corner = -1
            X = (x0, x1)
            if corner != -1 or best[5] == -1:
                state.face, state.point = f, P
                return n, (best[0], X, corner)
            segs.append((f, P, X))
            f, P = best[5], X
        state.face, state.point = f, P
        return limit, None

    def step_face(self, state, k, X, corner):
        """The step that ends a walk, through edge k to chart point X: a
        vertex snap at `corner`, the boundary or a seam.  Returns (segment,
        crossings, event_or_None, next_state_or_None); crossings are
        `(halfedge, axis, value)`."""
        f = state.face
        seg = (f, state.point, X)
        if corner != -1:
            tri, vertices = self.records[f][:2]
            nxt = _State(f, tri[corner], vertices[corner],
                         state.axis, state.value, state.direction)
            return seg, [], None, nxt
        h = 3 * f + k
        th = self.twin[h]
        if th == -1:
            return seg, [], EndEvent("HitBoundaryTransverse"), None
        # a seam; seams[th] maps the h-side chart onto the th-side chart
        axis2, value2, d2, p2 = continue_across_seam(
            self.seams[th], state.axis, state.direction, X
        )
        nxt = _State(th // 3, p2, -1, axis2, value2, d2)
        return seg, [(th, axis2, value2)], None, nxt

    # -- vertex-mode: resolve continuation through the fan -----------------

    def step_vertex(self, state, skip_cone_check=False):
        """The step from the state's vertex through its fan: (segment,
        crossings, event, next_state, ran_along_boundary).  At a cone (unless
        `skip_cone_check`) or where no wedge holds the direction: the event
        `HitSingularity` or `HitBoundaryTransverse` alone.  Into a wedge's
        face: no segment, and the state there.  Along a wedge side: that
        segment, the state at its far corner, and whether the side is a
        boundary edge.  Crossings are the `(halfedge, axis, value)` of the cut
        edges swept past to that wedge.  One loop sweeps the fan's wedges from
        the chart face's counterclockwise and, at a boundary vertex, then
        clockwise from the chart face back to the fan start.  The first wedge
        that the direction, turned by the quarter-turns passed, enters or runs
        along wins: a cone's fan does not span 2*pi, so the same chart
        direction can recur in a later sheet.

        The loop composes the sweep transform `(j, t)` at each edge it
        passes: a cut edge, entered across cut halfedge `seam`, composes
        `seams[seam]` and carries the crossing on from the state's point by
        `continue_across_seam`; an uncut edge composes nothing, but adding
        0.0 turns a -0.0 translation into 0.0 as composing with the identity
        would.  The transform and the crossings restart at the chart face
        when the clockwise legs begin."""
        v = state.vertex
        if not skip_cone_check and v in self.cones:
            return None, [], EndEvent("HitSingularity", vertex=v), None, False
        twin, is_cut, seams, lengths = self.twin, self.is_cut, self.seams, self.lengths
        records, tol = self.records, tolerances.COLLINEAR_TOL
        fan = self.mesh.vertex_fan(v)
        n = len(fan)
        boundary = twin[fan[0]] == -1  # a boundary fan starts on the boundary
        start = next((k for k, h in enumerate(fan) if h // 3 == state.face), 0)
        ccw = n - start if boundary else n  # the legs swept counterclockwise
        u, w = state.direction
        turned = ((u, w), (-w, u), (-u, -w), (w, -u))  # `_turn(j, d)`
        for m in range(n):
            if m < ccw:  # into wedge h across the edge of h
                e = seam = h = fan[(start + m) % n]
            else:  # clockwise, into wedge fan[n - 1 - m] across the edge of e
                e = fan[n - m]
                seam, h = twin[e], fan[n - 1 - m]
            if m == 0 or m == ccw:  # the sweep starts, or starts clockwise, at the chart face
                j, t, crossings = 0, (0.0, 0.0), []
                x_axis, x_dir, x_point = state.axis, state.direction, state.point
            if m and is_cut[e]:
                tr = seams[seam]
                r = tr.rotation
                j, t = (r + j) % 4, _apply(r, tr.translation, t)
                x_axis, value, x_dir, x_point = continue_across_seam(tr, x_axis, x_dir, x_point)
                crossings.append((seam, x_axis, value))
            elif m:
                t = (t[0] + 0.0, t[1] + 0.0)
            # the wedge test at corner i of face g, side a to the next corner
            # and b (halfedge prev) to the previous, as `_wedge_test` has it
            g, i = h // 3, h % 3
            prev = h - i + (i + 2) % 3
            tri, vertices, _, _ = records.get(g) or self.record(g)
            (A0, A1), (a0, a1), (b0, b1) = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
            a0, a1, b0, b1 = a0 - A0, a1 - A1, b0 - A0, b1 - A1
            d0, d1 = turned[j]
            ca, cb = a0 * d1 - a1 * d0, d0 * b1 - d1 * b0
            ta, tb = tol * lengths[h], tol * lengths[prev]
            along_a = abs(ca) <= ta and a0 * d0 + a1 * d1 > 0
            along_b = boundary and abs(cb) <= tb and b0 * d0 + b1 * d1 > 0 and twin[prev] == -1
            if not (along_a or along_b or ca > ta and cb > tb):
                continue
            p2 = _apply(j, t, state.point)
            axis2 = state.axis if j % 2 == 0 else 1 - state.axis
            if not (along_a or along_b):
                nxt = _State(g, p2, -1, axis2, p2[axis2], turned[j])
                return None, crossings, None, nxt, False
            # run along side a or the boundary side b to its far corner
            h_edge, k = (h, (i + 1) % 3) if along_a else (prev, (i + 2) % 3)
            nxt = _State(g, tri[k], vertices[k], axis2, p2[axis2], turned[j])
            return (g, p2, tri[k]), crossings, None, nxt, twin[h_edge] == -1
        # boundary vertex, direction leaves the surface
        return None, [], EndEvent("HitBoundaryTransverse", vertex=v), None, False


# one `_Tracer` per live param; a tracer holds no reference to its param,
# so the entry goes when the param does
_TRACERS = weakref.WeakKeyDictionary()


def _tracer(param):
    """The `_Tracer` of `param`, built on first use."""
    tracer = _TRACERS.get(param)
    if tracer is None:
        tracer = _TRACERS[param] = _Tracer(param)
    return tracer


# ---------------------------------------------------------------------------
# public tracing operations


def _signature(crossing, quantum):
    """Periodicity signature of a seam crossing `(halfedge, axis, value)`:
    the held value in quanta of `quantum`, PERIOD_QUANT * uv_scale().  A
    curve that crosses with a signature it has crossed with before is
    periodic."""
    h, axis, value = crossing
    return h, axis, round(value / quantum)


def _one_direction(tracer, state, budget, skip_first_cone=False):
    """Trace a single direction; returns a QuotientCurve."""
    pieces = []
    crossings = []
    sigs = {}
    segments_used = 0
    ran_along_boundary = False
    current = CoordinateLine(state.axis, state.value)
    status = BUDGET_EXCEEDED
    period_index = -1
    terminal = None
    skip_cone = skip_first_cone

    def close(event):
        current.end_event = event
        if current.chart_segments:
            pieces.append(current)

    while segments_used < budget:
        if state.end is not None:
            seg, crossed, event, nxt = None, [], state.end, None
        elif state.vertex < 0:
            steps, exit_ = tracer.walk(
                state, current.chart_segments, budget - segments_used
            )
            segments_used += steps
            if exit_ is None:
                break  # the budget ran out inside the walk
            seg, crossed, event, nxt = tracer.step_face(state, *exit_)
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
            _, last_axis, last_value = crossed[-1]
            close(EndEvent("HitSeam"))
            for crossing in crossed:
                crossings.append(crossing)
                sig = _signature(crossing, tracer.quantum)
                if sig in sigs:
                    status = PERIODIC
                    period_index = sigs[sig]
                    break
                sigs[sig] = len(crossings) - 1
            current = CoordinateLine(last_axis, last_value)
            if status == PERIODIC:
                break
        if event is not None:
            close(event)
            terminal = event
            status = FINITE
            break
        state = nxt

    if status in (BUDGET_EXCEEDED, PERIODIC) and current.chart_segments:
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


def trace_quotient_curve(param, start: SurfacePoint, axis, budget=None,
                         direction=None):
    """Quotient curve through `start`.  With direction=None both directions
    are traced and combined: a reversed backward piece ends at the event
    that started it, and the one from the start joins the first forward
    piece where both hold one line through one chart point, else ends at
    the seam there or the forward terminal event.  With ±1 one ray is
    traced."""
    budget = _resolve_budget(param, budget)
    if direction is not None:
        tracer = _tracer(param)
        return _one_direction(tracer, tracer.start_state(start, axis, direction), budget)
    fwd, bwd = _rays(param, start, axis, budget)
    if bwd is None:
        return fwd
    at_start = EndEvent("HitSeam") if fwd.pieces else next(iter(fwd.terminal_events), None)
    events = [at_start] + [p.end_event for p in bwd.pieces[:-1]]
    pieces = [p.reversed() for p in reversed(bwd.pieces)] + fwd.pieces
    k = len(bwd.pieces)
    for piece, event in zip(pieces[:k], events[::-1]):
        piece.end_event = event
    if 0 < k < len(pieces):
        a, b = pieces[k - 1], pieces[k]
        if (a.axis, a.value, a.chart_segments[-1][2]) == (b.axis, b.value, b.chart_segments[0][1]):
            pieces[k - 1:k + 1] = [CoordinateLine(
                b.axis, b.value, a.chart_segments + b.chart_segments, b.end_event)]
    return _joined(fwd, bwd, pieces)


def _rays(param, start, axis, budget):
    """The forward ray through `start` and the backward one, or None in its
    place when the forward ray closes: a closed curve, to which the
    backward ray adds nothing."""
    tracer = _tracer(param)
    fwd = _one_direction(tracer, tracer.start_state(start, axis, 1), budget)
    if fwd.status == PERIODIC:
        return fwd, None
    return fwd, _one_direction(tracer, tracer.start_state(start, axis, -1), budget)


def _joined(fwd, bwd, pieces):
    """The curve of the rays `fwd` and `bwd` from one start, drawn by
    `pieces`: out of budget if either ray is, else Finite, with the
    backward ray's crossings reversed ahead of the forward ray's.  Every
    other fact is read off the two rays, so a reader that needs no pieces
    passes none."""
    return QuotientCurve(
        pieces=pieces,
        status=BUDGET_EXCEEDED if BUDGET_EXCEEDED in (fwd.status, bwd.status) else FINITE,
        period_index=max(fwd.period_index, bwd.period_index),
        terminal_events=tuple(bwd.terminal_events) + tuple(fwd.terminal_events),
        crossings=list(reversed(bwd.crossings)) + fwd.crossings,
        segments_used=fwd.segments_used + bwd.segments_used,
        budget=fwd.budget,
        ran_along_boundary=fwd.ran_along_boundary or bwd.ran_along_boundary,
    )


# ---------------------------------------------------------------------------
# cone rays and Q5


def cone_rays(param: SeamlessParam, vertex: int):
    """Outgoing axis directions at a cone: m rays for an interior cone of
    angle m*pi/2, m-1 for a boundary cone (boundary-tangent rays excluded),
    per fan wedge in the order +u, -u, +v, -v."""
    return keyed_cone_rays(param, vertex)[0]


def keyed_cone_rays(param, vertex):
    """`cone_rays` at `vertex`, each ray's fan key, and the fan keys of the
    axis directions out of the vertex, `{h: [key of AXES[q] for q = 0..3]}`
    by the halfedge h of each fan wedge, in the chart of its face.

    A fan key numbers the axis directions the fan holds (inside a wedge or
    along its first side, as `layout._end_keys` counts them) in fan order,
    each wedge's counterclockwise.  A direction along a wedge's second side
    has the next wedge's first key (for the last wedge of an interior fan,
    the first wedge's), and one in no wedge -1.  So a curve that arrives at
    the vertex leaves it, read backwards, along the ray whose key its
    arrival wedge and axis have, if a ray has it."""
    fan = param.mesh.vertex_fan(vertex)
    inside, along_a, along_b = wedge_flags(wedge_sides(param, fan), AXES)
    interior = param.mesh.twin[fan] != -1
    # a ray along a boundary side is tangent to the boundary: skipped
    ray = (inside | along_a & interior[:, None]).tolist()
    held, along_b = (inside | along_a).tolist(), along_b.tolist()
    last = len(fan) - 1 if interior[0] else -1  # a boundary fan starts on the boundary
    rays, keys, table, start = [], [], {}, 0
    for k, h in enumerate(fan):
        # a wedge spans less than pi: it holds a run of axes, counterclockwise
        # from the one whose predecessor it does not hold
        row = held[k]
        first = next((q for q in range(4) if row[q] and not row[q - 1]), 0)
        after = start + sum(row)
        nxt = 0 if k == last else after
        table[h] = key = [start + (q - first) % 4 if row[q] else nxt if b else -1
                          for q, b in enumerate(along_b[k])]
        for q in (0, 2, 1, 3):
            if ray[k][q]:
                rays.append({"face": h // 3, "direction": AXES[q]})
                keys.append(key[q])
        start = after
    return rays, keys, table


def trace_cone_separatrix(param, vertex, ray, budget=None):
    budget = _resolve_budget(param, budget)
    tracer = _tracer(param)
    g = ray["face"]
    tri, vertices = tracer.record(g)[:2]
    i = vertices.index(int(vertex))
    d = ray["direction"]
    axis = 0 if abs(d[0]) < 0.5 else 1
    point = tri[i]
    state = _State(g, point, int(vertex), axis, point[axis], d)
    return _one_direction(tracer, state, budget, skip_first_cone=True)


def validate_q5(param: SeamlessParam, budget=None) -> dict:
    """Q5: all cone-emitted quotient curves finite; on a singularity-free
    torus or annulus, two transverse curves from the centroid of face 0 must
    each be finite or periodic."""
    budget = _resolve_budget(param, budget)
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
            # the report reads no piece, so the backward ray's are not reversed
            fwd, bwd = _rays(param, centroid, axis, budget)
            curve = fwd if bwd is None else _joined(fwd, bwd, [])
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
    quantum = tolerances.PERIOD_QUANT * param.uv_scale()
    d = {
        "status": curve.status,
        "segments_used": curve.segments_used,
        "budget": curve.budget,
        "n_crossings": len(curve.crossings),
        "n_unique_crossings": len({_signature(c, quantum) for c in curve.crossings}),
        "period_index": curve.period_index,
        "terminal": [e.kind for e in curve.terminal_events],
        "ran_along_boundary": curve.ran_along_boundary,
    }
    d.update(extra)
    return d
