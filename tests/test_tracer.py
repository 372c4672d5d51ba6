import dataclasses
import math
import os
import re
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from qlim import synth, tolerances
from qlim.errors import PropertyViolation, QlimError, StartOnSingularity
from qlim.immersion import (
    ROTS,
    SeamlessParam,
    SeamTransition,
    apply_global_motion,
    detect_cones,
)
from qlim.layout import emit_separatrices
from qlim.mesh import SurfacePoint, build_halfedge
from qlim.qlimio import read_qlim
from qlim.synth import PERTURB_KINDS, OverlapWarning, fixture, perturb
from qlim.tracer import (
    AXES,
    BUDGET_EXCEEDED,
    FINITE,
    PERIODIC,
    CoordinateLine,
    EndEvent,
    _apply,
    _curve_summary,
    _State,
    _Tracer,
    _turn,
    _wedge_test,
    chart_barycentrics,
    cone_rays,
    continue_across_seam,
    default_budget,
    trace_cone_separatrix,
    trace_quotient_curve,
    validate_q5,
    wedge_flags,
    wedge_sides,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import WORKLOADS  # noqa: E402

warnings.simplefilter("ignore", OverlapWarning)

ALL_FIXTURES = ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]


def fx(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        return fixture(name)


def random_interior_start(param, rng):
    """A start point with irrational-ish barycentric coordinates, away from
    all face borders (so it never sits on an edge or vertex)."""
    f = int(rng.integers(len(param.mesh.faces)))
    b = rng.uniform(0.15, 0.45, size=3)
    b /= b.sum()
    return SurfacePoint(f, tuple(b))


def snapped(param, faces, points):
    """Chart points snapped through their barycentric rows: one
    barycentric pass and one stacked product for all of them."""
    bary = chart_barycentrics(param, faces, points)
    return np.matmul(bary[:, None, :], param.uv[faces])[:, 0]


def held_offsets(param, curve):
    """|held coordinate - piece value| at every snapped waypoint of
    `curve`, from one barycentric pass over the whole curve."""
    faces, points, axes, values = [], [], [], []
    for piece in curve.pieces:
        for (f, p, q) in piece.chart_segments:
            faces += (f, f)
            points += (p, q)
            axes += (piece.axis, piece.axis)
            values += (piece.value, piece.value)
    uvp = snapped(param, faces, points)
    return np.abs(uvp[np.arange(len(axes)), axes] - values)


def collapsed(faces):
    """Face sequence with consecutive repeats merged (the face containing
    the start point appears twice, split between the two trace directions)."""
    out = []
    for f in faces:
        if not out or out[-1] != f:
            out.append(f)
    return out


class TestContinueAcrossSeam:
    def test_pure_translation_keeps_axis(self):
        t = SeamTransition(0, (4.0, 0.0))
        axis, value, d, p = continue_across_seam(
            t, 0, np.array([0.0, 1.0]), np.array([0.3, 2.5])
        )
        assert axis == 0
        assert value == pytest.approx(4.3)
        assert np.allclose(d, [0.0, 1.0])
        assert np.allclose(p, [4.3, 2.5])

    def test_quarter_turn_flips_axis(self):
        t = SeamTransition(1, (0.0, 0.0))
        axis, value, d, p = continue_across_seam(
            t, 0, np.array([0.0, 1.0]), np.array([0.7, 1.25])
        )
        # (c, y) -> (-y, c): the constant coordinate becomes v
        assert axis == 1
        assert value == pytest.approx(0.7)
        assert np.allclose(p, [-1.25, 0.7])
        assert np.allclose(d, [-1.0, 0.0])

    def test_transition_then_inverse_is_identity(self):
        t = SeamTransition(3, (2.0, -1.5))
        p0 = np.array([0.6, 0.1])
        d0 = np.array([1.0, 0.0])
        axis, value, d, p = continue_across_seam(t, 1, d0, p0)
        axis2, value2, d2, p2 = continue_across_seam(t.inverse(), axis, d, p)
        assert axis2 == 1
        assert value2 == pytest.approx(0.1)
        assert np.allclose(p2, p0)
        assert np.allclose(d2, d0)


def first_line(param, start, axis, direction=1):
    """The first chart line of the ray from `start`."""
    return trace_quotient_curve(param, start, axis, direction=direction).pieces[0]


class TestCoordinateLine:
    def test_rectangle_line_hits_boundary(self):
        p = fx("rectangle")
        line = first_line(p, SurfacePoint(0, (0.4, 0.3, 0.3)), axis=1)
        assert line.end_event.kind == "HitBoundaryTransverse"
        assert line.chart_segments

    def test_torus_line_ends_at_seam(self):
        p = fx("flat_torus")
        line = first_line(p, SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)), 0)
        assert line.end_event.kind == "HitSeam"

    def test_segments_are_chained(self):
        p = fx("rectangle")
        line = first_line(p, SurfacePoint(0, (0.4, 0.3, 0.3)), axis=1)
        segs = line.chart_segments
        faces = [f for f, _, _ in segs]
        ends = snapped(p, faces + faces, [a for _, a, _ in segs] + [b for _, _, b in segs])
        n = len(segs)
        assert n > 1
        assert np.allclose(ends[n:-1], ends[1:n], atol=1e-12)

    def test_start_on_cone_raises(self):
        p = fx("annulus_35")
        rec = detect_cones(p)[0]
        fan = p.mesh.vertex_fan(rec.vertex)
        f, i = fan[0] // 3, fan[0] % 3
        bary = [0.0, 0.0, 0.0]
        bary[i] = 1.0
        with pytest.raises(StartOnSingularity):
            first_line(p, SurfacePoint(f, tuple(bary)), 0)

    def test_start_face_off_the_mesh_raises(self):
        """A face index outside [0, F) is refused, not wrapped by numpy."""
        p = fx("rectangle")
        for face in (-1, len(p.mesh.faces), 999):
            start = SurfacePoint(face, (1 / 3, 1 / 3, 1 / 3))
            with pytest.raises(ValueError, match="start face"):
                trace_quotient_curve(p, start, 0)

    @pytest.mark.parametrize("direction, vertex, corner", [(1, 2, 7), (-1, 0, 0)])
    def test_line_from_a_boundary_vertex_runs_along_the_boundary(self, direction, vertex, corner):
        """From the boundary vertex at corner 1 of face 0, the v = 0 ray runs
        along the bottom side: forward along side a of its wedge, backward
        along side b, one segment to the neighbouring vertex's exact UV.
        That vertex is a corner of the rectangle, a boundary cone, so the
        ray ends there."""
        p = fx("rectangle")
        curve = trace_quotient_curve(p, SurfacePoint(0, (0, 1, 0)), 1, direction=direction)
        assert curve.ran_along_boundary
        assert curve.status == FINITE and curve.segments_used == 1
        [line] = curve.pieces
        assert line.end_event == EndEvent("HitSingularity", vertex=vertex)
        assert curve.terminal_events == (line.end_event,)
        [(_, a, b)] = line.chart_segments
        assert a == tuple(p.uv[0, 1].tolist())
        assert b == tuple(p.uv.reshape(-1, 2)[corner].tolist())
        assert a[1] == b[1] == line.value == 0.0
        assert p.mesh.faces.reshape(-1)[corner] == vertex


def _in_face(param, f, g, bary):
    """The weights `bary` on the corners of face f moved onto the corners of
    face g with the same vertices (the nonzero weights sit on shared ones)."""
    corners = param.mesh.faces[g].tolist()
    out = [0.0, 0.0, 0.0]
    for v, w in zip(param.mesh.faces[f].tolist(), bary):
        if w:
            out[corners.index(v)] = w
    return tuple(out)


def _edge_starts():
    """(fixture, face, bary, axis, direction, edge k, how the line meets the
    edge): the midpoint of every edge of face 0 and of a face beside a seam,
    both axes, both directions.  The faces are counterclockwise in their
    charts, so a direction whose cross product with the edge is negative
    leaves the face across it."""
    for name in ("rectangle", "l_domain", "annulus_35", "flat_torus"):
        p = fx(name)
        for f in [0] + [h // 3 for h in sorted(p.seams)[:1]]:
            for k in range(3):
                bary = [0.5, 0.5, 0.5]
                bary[(k + 2) % 3] = 0.0
                a, b = p.uv[f, k], p.uv[f, (k + 1) % 3]
                for axis in (0, 1):
                    for d in (1, -1):
                        step = [0.0, 0.0]
                        step[1 - axis] = d
                        cross = (b - a)[0] * step[1] - (b - a)[1] * step[0]
                        meets = "along" if cross == 0 else "leaves" if cross < 0 else "enters"
                        yield name, f, tuple(bary), axis, d, k, meets


class TestEdgeStarts:
    def test_a_start_leaving_its_face_begins_in_the_face_entered(self):
        """A start on an edge of its face, leaving the face across it, traces
        the curve that starts from the same point written in the entered
        face's barycentrics and chart: the twin face across an uncut edge,
        the twin's chart across a seam; across the boundary it ends at once."""
        seen = set()
        for name, f, bary, axis, d, k, meets in _edge_starts():
            if meets != "leaves":
                continue
            p = fx(name)
            curve = trace_quotient_curve(p, SurfacePoint(f, bary), axis, direction=d)
            h = 3 * f + k
            th = int(p.mesh.twin[h])
            if th == -1:
                assert curve.status == FINITE
                assert [e.kind for e in curve.terminal_events] == ["HitBoundaryTransverse"]
                assert curve.pieces == [] and curve.segments_used == 0
                seen.add("boundary")
                continue
            g = th // 3
            axis2, d2 = axis, d
            if th in p.seams:
                step = [0.0, 0.0]
                step[1 - axis] = float(d)
                axis2, _, turned, _ = continue_across_seam(p.seams[th], axis, tuple(step), (0.0, 0.0))
                d2 = int(turned[1 - axis2])
                seen.add("seam")
            else:
                seen.add("uncut")
            want = trace_quotient_curve(p, SurfacePoint(g, _in_face(p, f, g, bary)), axis2, direction=d2)
            assert curve == want, (name, f, bary, axis, d)
        assert seen == {"boundary", "seam", "uncut"}

    def test_a_start_along_its_edge_is_unchanged(self):
        """A start that runs along its edge stays in its face: written in
        the twin face it traces the same chart points and crossings, only
        its first segment lies in the other face.  Its first step ends at a
        corner, so the trace takes the face-mode vertex snap."""
        p = fx("flat_torus")
        curve = trace_quotient_curve(p, SurfacePoint(0, (0.5, 0.5, 0.0)), 1, direction=1)
        g = int(p.mesh.twin[0]) // 3
        twin = trace_quotient_curve(p, SurfacePoint(g, _in_face(p, 0, g, (0.5, 0.5, 0.0))), 1,
                                    direction=1)
        segs = [s for piece in curve.pieces for s in piece.chart_segments]
        twin_segs = [s for piece in twin.pieces for s in piece.chart_segments]
        assert segs[0] == (0, (0.5, 0.0), (1.0, 0.0))
        assert twin_segs[0] == (g, (0.5, 0.0), (1.0, 0.0))
        assert segs[1:] == twin_segs[1:]
        assert curve.status == twin.status == PERIODIC
        assert curve.crossings == twin.crossings
        assert any(meets == "along" for *_, meets in _edge_starts())

    def test_every_edge_start_traces(self):
        """No edge-midpoint start stalls, whichever way it meets its edge."""
        for name, f, bary, axis, d, _, _ in _edge_starts():
            curve = trace_quotient_curve(fx(name), SurfacePoint(f, bary), axis, direction=d)
            assert curve.status in (FINITE, PERIODIC), (name, f, bary, axis, d)


class TestChartBarycentrics:
    def test_degenerate_chart_falls_back_point_by_point(self):
        """A chart whose UVs are collinear makes the batched solve raise;
        the point-by-point fallback then gives every other point the bits
        of the batched solve, and the degenerate chart's points (1, 0, 0)."""
        param = fx("annulus_35")
        rng = np.random.default_rng(7)
        faces = rng.integers(len(param.mesh.faces), size=400)
        b = rng.uniform(0.05, 1.0, size=(400, 3))
        b /= b.sum(axis=1, keepdims=True)
        points = np.matmul(b[:, None, :], param.uv[faces])[:, 0]
        bad = int(faces[0])
        uv = np.array(param.uv)
        uv[bad, :, 1] = uv[bad, 0, 1]  # all three corners on one v isoline
        flat = SeamlessParam(param.mesh, uv, param.seams)
        batched = chart_barycentrics(param, faces, points)
        fallback = chart_barycentrics(flat, faces, points)
        singular = faces == bad
        assert 0 < singular.sum() < len(faces)
        assert np.array_equal(fallback[~singular], batched[~singular])
        assert (fallback[singular] == (1.0, 0.0, 0.0)).all()


def _ref_face(tracer, f, axis):
    """Face f's snap corners and its exit rows for a line holding `axis`,
    built from `param.uv` in the 9-field layout `(k, A[axis], denom, A[c],
    dB[c], A0, dB0, A1, dB1)`, once per tracer."""
    cache = tracer.__dict__.setdefault("_ref_faces", {})
    if (f, axis) not in cache:
        c = 1 - axis
        tri = tuple(map(tuple, tracer.uv[f].tolist()))
        rows = []
        for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
            A, B = tri[i], tri[j]
            denom = B[axis] - A[axis]
            if abs(denom) < tracer.par_tol:
                continue
            rows.append((k, A[axis], denom, A[c], B[c] - A[c],
                         A[0], B[0] - A[0], A[1], B[1] - A[1]))
        cache[f, axis] = tri, rows
    return cache[f, axis]


def _face_exit_ref(tracer, f, axis, value, pc, dc):
    """Reference face exit: (k, X) for the first edge k of face f that the
    line holding `axis` at `value` meets past moving coordinate pc in
    direction dc, X the chart point; None if stuck.  One call per step."""
    best = None
    for row in _ref_face(tracer, f, axis)[1]:
        t = (value - row[1]) / row[2]
        if t < tracer.t_lo or t > tracer.t_hi:
            continue
        travel = (row[3] + t * row[4] - pc) * dc
        if travel <= tracer.pos_tol:
            continue
        if best is None or travel < best_travel:
            best, best_t, best_travel = row, t, travel
    if best is None:
        return None
    return best[0], (best[5] + best_t * best[6], best[7] + best_t * best[8])


def _walk_ref(tracer, state, segs, limit):
    """Reference for `_Tracer.walk`: one `_face_exit_ref` call and one
    three-corner snap test per step."""
    axis, value = state.axis, state.value
    c = 1 - axis
    dc = state.direction[c]
    f, P = state.face, state.point
    for n in range(limit):
        exit_ = _face_exit_ref(tracer, f, axis, value, P[c], dc)
        if exit_ is None:
            raise PropertyViolation(f"tracer stalled in face {f} (degenerate UV chart?)")
        k, X = exit_
        corner = -1
        x0, x1 = X
        for i, (c0, c1) in enumerate(_ref_face(tracer, f, axis)[0]):
            dx = x0 - c0
            if -tracer.vtol <= dx <= tracer.vtol:
                dy = x1 - c1
                if -tracer.vtol <= dy <= tracer.vtol and math.hypot(dx, dy) <= tracer.vtol:
                    corner = i
                    break
        h = 3 * f + k
        if corner != -1 or tracer.twin[h] == -1 or tracer.is_cut[h]:
            state.face, state.point = f, P
            return n, (k, X, corner)
        segs.append((f, P, X))
        f, P = tracer.twin[h] // 3, X
    state.face, state.point = f, P
    return limit, None


def _bits(curve):
    """A curve's chart segments with every coordinate as its float bits,
    its crossings, status and segments used."""
    segs = [
        (piece.axis, f, *map(float.hex, p + q))
        for piece in curve.pieces for (f, p, q) in piece.chart_segments
    ]
    crossings = [(h, a, v.hex()) for h, a, v in curve.crossings]
    return segs, crossings, curve.status, curve.segments_used


class TestOneLoop:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_fused_walk_matches_the_face_exit_reference(self, name, monkeypatch):
        """The walk with its exit rule and snap test in one loop gives every
        chart point the bits of one face-exit call and one snap loop per
        step, on the fixture and its re-rooting, from seeded interior starts
        and edge-midpoint starts, both axes and both directions."""
        param = fx(name)
        rng = np.random.default_rng(53)
        for p in (param, apply_global_motion(param, 3, (0.3, -1.7))):
            starts = [random_interior_start(p, rng) for _ in range(50)]
            starts += [SurfacePoint(f, bary) for n, f, bary, *_ in _edge_starts() if n == name]
            for start in starts:
                for axis in (0, 1):
                    for d in (1, -1):
                        fused = trace_quotient_curve(p, start, axis, direction=d)
                        with monkeypatch.context() as m:
                            m.setattr(_Tracer, "walk", _walk_ref)
                            ref = trace_quotient_curve(p, start, axis, direction=d)
                        assert _bits(fused) == _bits(ref), (name, start, axis, d)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_coordinate_line_is_first_piece_of_ray(self, name):
        """The first piece of a ray is the chart line from its start, the
        single coordinate line the golden record pins: it holds the start's
        axis and value, its steps chain point to point, and it ends at the
        ray's first seam crossing or, when there is none, where the ray
        ends."""
        param = fx(name)
        rng = np.random.default_rng(41)
        for _ in range(10):
            start = random_interior_start(param, rng)
            for axis in (0, 1):
                for d in (1, -1):
                    curve = trace_quotient_curve(param, start, axis, direction=d)
                    first = curve.pieces[0]
                    segs = first.chart_segments
                    assert segs and first.axis == axis
                    assert segs[0][1][axis] == first.value
                    assert all(q == p for (_, _, q), (_, p, _) in zip(segs, segs[1:]))
                    if curve.crossings:
                        assert first.end_event == EndEvent("HitSeam")
                    else:
                        assert curve.pieces == [first]
                        assert curve.terminal_events == (
                            (first.end_event,) if first.end_event else ())


class TestStraightness:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_pieces_hold_constant_coordinate(self, name):
        param = fx(name)
        rng = np.random.default_rng(11)
        for _ in range(100):
            start = random_interior_start(param, rng)
            axis = int(rng.integers(2))
            curve = trace_quotient_curve(param, start, axis)
            assert np.all(held_offsets(param, curve) < 1e-9)


class TestReversal:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_restart_from_curve_midpoint(self, name):
        """A quotient curve is independent of which of its points it is
        traced from: restarting from a segment midpoint reproduces the same
        face sequence up to reversal (same status, same crossings)."""
        param = fx(name)
        rng = np.random.default_rng(23)
        for _ in range(100):
            start = random_interior_start(param, rng)
            axis = int(rng.integers(2))
            c1 = trace_quotient_curve(param, start, axis)
            piece = c1.pieces[len(c1.pieces) // 2]
            f, p, q = piece.chart_segments[len(piece.chart_segments) // 2]
            a, b = chart_barycentrics(param, [f, f], [p, q])
            mid = tuple((a + b) / 2.0)
            c2 = trace_quotient_curve(param, SurfacePoint(f, mid), piece.axis)
            assert c2.status == c1.status
            if c1.status == FINITE:
                f1, f2 = collapsed(c1.faces()), collapsed(c2.faces())
                assert f1 == f2 or f1 == f2[::-1]
                k1 = sorted(e.kind for e in c1.terminal_events)
                k2 = sorted(e.kind for e in c2.terminal_events)
                assert k1 == k2


def _end_kinds(param, piece):
    """The events possible at a piece's last chart point X, in face f: at a
    corner, a seam if a cut edge meets its vertex, the boundary if the
    vertex is on it and a singularity if it is a cone; on an edge, a seam if
    it is cut and the boundary if it has no twin."""
    mesh = param.mesh
    f, _, X = piece.chart_segments[-1]
    uv, tol = param.uv[f], 1e-9 * param.uv_scale()
    for k in range(3):
        if math.dist(uv[k], X) <= tol:
            v = mesh.faces[f][k]
            cut = any(mesh.edge_id[h] in param.cut_edges for h in mesh.vertex_fan(v))
            flags = (cut, mesh.is_boundary_vertex[v], v in param.cone_vertices())
            return {e for e, on in zip(("HitSeam", "HitBoundaryTransverse", "HitSingularity"),
                                       flags) if on}
    for k in range(3):
        (a0, a1), (b0, b1) = uv[k], uv[(k + 1) % 3]
        off = abs((b0 - a0) * (X[1] - a1) - (b1 - a1) * (X[0] - a0))
        if off <= tol * math.hypot(b0 - a0, b1 - a1):
            h = 3 * f + k
            if mesh.twin[h] == -1:
                return {"HitBoundaryTransverse"}
            return {"HitSeam"} if mesh.edge_id[h] in param.cut_edges else set()
    return set()


def _ends_at_their_events(param, curve):
    return all(pc.end_event.kind in _end_kinds(param, pc) for pc in curve.pieces)


class TestTwoDirectionPieces:
    def test_annulus_pieces_end_at_their_own_events(self):
        # from face 28 the backward ray crosses two seams to the boundary
        # and the forward ray runs to the boundary.  Each reversed backward
        # piece ends at the event that started it, and the piece through the
        # start is one piece, not split there
        p = fx("annulus_35")
        c = trace_quotient_curve(p, SurfacePoint(28, (0.2, 0.3, 0.5)), 0)
        assert c.status == FINITE
        assert [(pc.axis, pc.end_event.kind) for pc in c.pieces] == [
            (1, "HitSeam"), (1, "HitSeam"), (0, "HitBoundaryTransverse")]
        assert [pc.value for pc in c.pieces] == pytest.approx([1.2, 1.2, -0.2])
        assert _ends_at_their_events(p, c)
        for a, b in zip(c.pieces, c.pieces[1:]):
            assert (a.axis, a.value, a.chart_segments[-1][2]) != (
                b.axis, b.value, b.chart_segments[0][1])

    @pytest.mark.parametrize("name", ["rectangle", "l_domain", "annulus_35"])
    def test_every_piece_ends_at_the_event_at_its_last_point(self, name):
        param = fx(name)
        rng = np.random.default_rng(41)
        finite = 0
        for _ in range(100):
            start = random_interior_start(param, rng)
            c = trace_quotient_curve(param, start, int(rng.integers(2)))
            if c.status != FINITE:
                continue
            assert _ends_at_their_events(param, c)
            # the start is inside a face: no piece ends there
            f, bary = start.face, np.asarray(start.bary)
            assert not any(pc.chart_segments[-1][0] == f and np.allclose(
                pc.chart_segments[-1][2], bary @ param.uv[f]) for pc in c.pieces[:-1])
            finite += 1
        assert finite > 20


def _edge_midpoint(h):
    """The midpoint of halfedge h as a start in its face."""
    bary = [0.5, 0.5, 0.5]
    bary[(h + 2) % 3] = 0.0
    return SurfacePoint(h // 3, tuple(bary))


def test_a_start_on_a_seam_or_the_boundary_ends_the_pieces_there():
    # from the midpoint of every cut and boundary edge of annulus_35, on
    # both axes: one ray leaves across the seam (or the surface) at once,
    # so the pieces through the start end there, at the seam or boundary
    p = fx("annulus_35")
    mesh = p.mesh
    cut = np.isin(mesh.edge_id, sorted(p.cut_edges))
    starts = {"seam": np.flatnonzero(cut), "boundary": np.flatnonzero(mesh.twin == -1)}
    split = {"seam": 0, "boundary": 0}
    for where, halfedges in starts.items():
        for h in halfedges.tolist():
            for axis in (0, 1):
                c = trace_quotient_curve(p, _edge_midpoint(h), axis)
                if c.status != FINITE:
                    continue
                assert _ends_at_their_events(p, c), (h, axis)
                start = tuple(np.asarray(_edge_midpoint(h).bary) @ p.uv[h // 3])
                split[where] += any(
                    pc.chart_segments[-1][0] == h // 3
                    and np.allclose(pc.chart_segments[-1][2], start) for pc in c.pieces)
    assert split["seam"] > 0 and split["boundary"] > 0, split


class TestRerooting:
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_quarter_turn_rerooting_preserves_traces(self, name, j):
        param = fx(name)
        moved = apply_global_motion(param, j, (1.5, -0.5))
        rng = np.random.default_rng(37)
        for _ in range(25):
            start = random_interior_start(param, rng)
            axis = int(rng.integers(2))
            sign = int(rng.choice([-1, 1]))
            c1 = trace_quotient_curve(param, start, axis, direction=sign)
            c = 1 - axis
            d = np.zeros(2)
            d[c] = sign
            d2 = ROTS[j] @ d
            axis2 = axis if j % 2 == 0 else 1 - axis
            sign2 = int(np.sign(d2[1 - axis2]))
            c2 = trace_quotient_curve(moved, start, axis2, direction=sign2)
            assert c2.status == c1.status
            assert c2.faces() == c1.faces()


class TestQuotientCurves:
    def test_flat_torus_is_periodic(self):
        p = fx("flat_torus")
        c = trace_quotient_curve(p, SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)), 0)
        assert c.status == PERIODIC
        assert c.period_index >= 0

    def test_sheared_torus_exceeds_budget_without_repeats(self):
        p = fx("sheared_torus")
        c = trace_quotient_curve(p, SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)), 0,
                                 budget=70000, direction=1)
        assert c.status == BUDGET_EXCEEDED
        sigs = {(h, a, round(v / 1e-9)) for (h, a, v) in c.crossings}
        assert len(c.crossings) >= 10000
        assert len(sigs) == len(c.crossings)

    def test_budget_cut_is_exact_and_a_prefix(self):
        """A trace cut by its budget uses exactly that many segments, and
        its chart points and crossings begin every longer trace."""
        p = fx("sheared_torus")
        start = SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3))
        prev = None
        for budget in (1, 2, 11, 12, 13, 4608):
            c = trace_quotient_curve(p, start, 0, budget=budget, direction=1)
            assert c.segments_used == budget
            assert c.status == BUDGET_EXCEEDED
            run = (
                [s for piece in c.pieces for s in piece.chart_segments],
                c.crossings,
            )
            if prev is not None:
                for short, long in zip(prev, run):
                    assert long[: len(short)] == short
            prev = run

    def test_budget_and_periodicity_are_distinguishable(self):
        p = fx("flat_torus")
        start = SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3))
        tight = trace_quotient_curve(p, start, 0, budget=1, direction=1)
        loose = trace_quotient_curve(p, start, 0, budget=1000, direction=1)
        assert tight.status == BUDGET_EXCEEDED
        assert loose.status == PERIODIC

    def test_rectangle_curve_spans_both_boundaries(self):
        p = fx("rectangle")
        c = trace_quotient_curve(p, SurfacePoint(0, (0.4, 0.3, 0.3)), 1)
        assert c.status == FINITE
        assert [e.kind for e in c.terminal_events] == [
            "HitBoundaryTransverse",
            "HitBoundaryTransverse",
        ]

    def test_default_budget_scales_with_mesh(self):
        p = fx("rectangle")
        assert default_budget(p) == 64 * len(p.mesh.faces)

    def test_budget_below_1_is_refused(self):
        p = fx("annulus_35")
        start = SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3))
        rec = detect_cones(p)[0]
        ray = cone_rays(p, rec.vertex)[0]
        for budget in (0, -5):
            with pytest.raises(ValueError, match=f"tracing budget {budget} is below 1"):
                trace_quotient_curve(p, start, 0, budget=budget)
            with pytest.raises(ValueError, match="is below 1"):
                trace_cone_separatrix(p, rec.vertex, ray, budget)
            with pytest.raises(ValueError, match="is below 1"):
                validate_q5(p, budget=budget)
        one = trace_quotient_curve(p, start, 0, budget=1, direction=1)
        assert one.segments_used == 1 and one.budget == 1


class TestConeRays:
    def test_annulus_ray_counts_match_cone_order(self):
        p = fx("annulus_35")
        by_m = {r.m: r for r in detect_cones(p)}
        assert len(cone_rays(p, by_m[3].vertex)) == 3
        assert len(cone_rays(p, by_m[5].vertex)) == 5

    def test_l_domain_reflex_corner_emits_two(self):
        p = fx("l_domain")
        by_m = {r.m: r for r in detect_cones(p)}
        assert len(cone_rays(p, by_m[3].vertex)) == 2  # m - 1 on the boundary
        assert len(cone_rays(p, by_m[1].vertex)) == 0

    def test_annulus_separatrices_are_finite(self):
        p = fx("annulus_35")
        for rec in detect_cones(p):
            for ray in cone_rays(p, rec.vertex):
                c = trace_cone_separatrix(p, rec.vertex, ray)
                assert c.status == FINITE
                ends = [e.kind for e in c.terminal_events]
                assert ends and ends[0] in (
                    "HitSingularity",
                    "HitBoundaryTransverse",
                )

    def test_slid_annulus_rays_leave_along_their_own_sheet(self):
        from test_layout import _slide_boundary

        p = _slide_boundary("annulus_35", 0)
        for rec in detect_cones(p):
            curves = set()
            for ray in cone_rays(p, rec.vertex):
                segs = [s for piece in trace_cone_separatrix(p, rec.vertex, ray).pieces
                        for s in piece.chart_segments]
                assert segs[0][0] == ray["face"], (rec.vertex, ray)
                curves.add(repr(segs))
            assert len(curves) == rec.m, rec.vertex


def _wedge_test_ref(uvt, lengths, g, i, d, half_plane):
    """Reference: the wedge test at corner i of face g, written out on
    floats with short-circuit `and`; on a half-plane side b is -a."""
    tri = uvt[g]
    (A0, A1), (a0, a1), (b0, b1) = tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3]
    a0 -= A0
    a1 -= A1
    b0 -= A0
    b1 -= A1
    ta = tolerances.COLLINEAR_TOL * lengths[3 * g + i]
    tb = tolerances.COLLINEAR_TOL * lengths[3 * g + (i + 2) % 3]
    if half_plane:
        b0, b1, tb = -a0, -a1, ta
    d0, d1 = d
    ca = a0 * d1 - a1 * d0
    cb = d0 * b1 - d1 * b0
    return [ca > ta and cb > tb, abs(ca) <= ta and a0 * d0 + a1 * d1 > 0,
            abs(cb) <= tb and b0 * d0 + b1 * d1 > 0]


def test_wedge_tests_match_the_scalar_reference_at_every_corner():
    # the four axes and two random unit directions at every corner of every
    # fixture, perturbation and jitter, each corner taken as its wedge or,
    # at random, as the half-plane left of its first side; `_wedge_test`,
    # the tracer's scalar call, is checked on the wedges
    from test_immersion import _with_jittered_uvs

    rng = np.random.default_rng(3)
    checked = 0
    for name, p in _with_jittered_uvs():
        uvt = tuple(tuple(map(tuple, tri)) for tri in p.uv.tolist())
        lengths = p.edge_lengths().tolist()
        n = p.mesh.n_halfedges
        r = rng.normal(size=(n, 2, 2))
        d = np.concatenate([np.broadcast_to(AXES, (n, 4, 2)),
                            r / np.linalg.norm(r, axis=2, keepdims=True)], axis=1)
        half = rng.random(n) < 0.5
        got = np.stack(wedge_flags(wedge_sides(p, np.arange(n), half), d), axis=-1)
        want = [[_wedge_test_ref(uvt, lengths, h // 3, h % 3, x, half[h])
                 for x in map(tuple, d[h].tolist())] for h in range(n)]
        assert got.tolist() == want, name
        scalar = [[list(_wedge_test(uvt, lengths, h // 3, h % 3, x)) if not half[h] else w
                   for x, w in zip(map(tuple, d[h].tolist()), want[h])] for h in range(n)]
        assert scalar == want, name
        checked += got[..., 0].size
    assert checked > 7000


def _fan_crossings_ref(tracer, state, crossed):
    """`(halfedge, axis, value)` for the cut halfedges `crossed` in sweep
    order, each seam continued from the last, starting at the state's
    point."""
    out = []
    axis, d, point = state.axis, state.direction, state.point
    for h in crossed:
        axis, value, d, point = continue_across_seam(tracer.seams[h], axis, d, point)
        out.append((h, axis, value))
    return out


def _step_vertex_ref(tracer, state, skip_cone_check=False):
    """Reference for `_Tracer.step_vertex`: a generator over the fan's
    wedges in sweep order that composes each wedge's transform as it goes,
    on corner points converted from `param.uv` here.  Returns the step and
    whether its wedge came from the clockwise legs."""
    v, d = state.vertex, state.direction
    if not skip_cone_check and v in tracer.cones:
        return (None, [], EndEvent("HitSingularity", vertex=v), None, False), False
    if "_ref_uvt" not in tracer.__dict__:
        tracer._ref_uvt = tuple(tuple(map(tuple, tri)) for tri in tracer.uv.tolist())
    uvt = tracer._ref_uvt
    mesh, twin = tracer.mesh, tracer.twin
    boundary = bool(mesh.is_boundary_vertex[v])

    def sweep(h, seam, T, crossed):
        if tracer.is_cut[h]:
            tr = tracer.seams[seam]
            j = tr.rotation
            return ((j + T[0]) % 4, _apply(j, tr.translation, T[1])), crossed + (seam,)
        t0, t1 = T[1]
        return (T[0], (t0 + 0.0, t1 + 0.0)), crossed

    def entries():
        fan = mesh.vertex_fan(v)
        start = next((k for k, h in enumerate(fan) if h // 3 == state.face), 0)
        order = list(range(start, len(fan)))
        if not boundary:
            order += range(0, start)
        T, crossed = (0, (0.0, 0.0)), ()
        for step, k in enumerate(order):
            h = fan[k]
            if step > 0:
                T, crossed = sweep(h, h, T, crossed)
            yield h // 3, h % 3, T, crossed, False
        if boundary and start > 0:
            T, crossed = (0, (0.0, 0.0)), ()
            for k in range(start, 0, -1):
                h = fan[k]
                T, crossed = sweep(h, twin[h], T, crossed)
                yield fan[k - 1] // 3, fan[k - 1] % 3, T, crossed, True

    def along(g, i, j, t, crossed, side):
        h_edge, w = (3 * g + i, (i + 1) % 3) if side == "a" else (3 * g + (i + 2) % 3, (i + 2) % 3)
        p_here = _apply(j, t, state.point)
        axis2 = state.axis if j % 2 == 0 else 1 - state.axis
        nxt = _State(g, uvt[g][w], int(mesh.faces[g, w]), axis2, p_here[axis2],
                     _turn(j, d))
        return ((g, p_here, uvt[g][w]), _fan_crossings_ref(tracer, state, crossed), None, nxt,
                twin[h_edge] == -1)

    for g, i, (j, t), crossed, clockwise in entries():
        inside, along_a, along_b = _wedge_test(uvt, tracer.lengths, g, i, _turn(j, d))
        if along_a:
            return along(g, i, j, t, crossed, "a"), clockwise
        if along_b and boundary and twin[3 * g + (i + 2) % 3] == -1:
            return along(g, i, j, t, crossed, "b"), clockwise
        if inside:
            p2 = _apply(j, t, state.point)
            axis2 = state.axis if j % 2 == 0 else 1 - state.axis
            nxt = _State(g, p2, -1, axis2, p2[axis2], _turn(j, d))
            return (None, _fan_crossings_ref(tracer, state, crossed), None, nxt, False), clockwise
    return (None, [], EndEvent("HitBoundaryTransverse", vertex=v), None, False), False


def _hexed(x):
    """x with every float as its hex string, so that -0.0 and 0.0 differ."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return [_hexed(y) for y in x]
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [_hexed(getattr(x, f.name)) for f in dataclasses.fields(x)]
    return x


def _sweep_params():
    """The fixtures and the three benchmark workload params."""
    for name in ALL_FIXTURES:
        yield name, fx(name)
    for name in sorted(WORKLOADS):
        yield name, read_qlim(WORKLOADS[name]().text(0))


_flat_step_vertex = _Tracer.step_vertex


def _compared(tracer, state, skip_cone_check, seen):
    """The flat sweep's step, checked against `_step_vertex_ref` float by
    float; `seen` counts the steps, those whose wedge came from the
    clockwise legs, those that crossed a seam and those that did both."""
    got = _flat_step_vertex(tracer, state, skip_cone_check)
    want, clockwise = _step_vertex_ref(tracer, state, skip_cone_check)
    assert _hexed(got) == _hexed(want), (state, got, want)
    crossed = bool(got[1])
    seen.update(steps=1, clockwise=clockwise, crossed=crossed,
                clockwise_crossed=clockwise and crossed)
    return got


class TestFlatFanSweep:
    def test_every_traced_vertex_step_matches_the_generator_sweep(self, monkeypatch):
        """Each vertex step of each fixture's and each workload's Q5 and
        extract traces returns the reference's tuple.  Q5 traces every cone
        ray, so the steps of the separatrices extract traces only once are
        all compared."""
        seen = Counter()
        monkeypatch.setattr(_Tracer, "step_vertex", lambda tracer, state, skip_cone_check=False:
                            _compared(tracer, state, skip_cone_check, seen))
        for name, p in _sweep_params():
            validate_q5(p)
            try:
                emit_separatrices(p)
            except QlimError:
                pass
        assert seen["steps"] > 300 and seen["crossed"] > 0, seen

    def test_every_vertex_fan_and_axis_matches_the_generator_sweep(self):
        """Every vertex entered from each of its fan's faces along each
        axis direction: boundary vertices entered after their fan start
        reach the clockwise legs, and fans with cut edges cross seams.
        Some clockwise steps cross a seam, so the sweep's restart at the
        chart face, which drops the counterclockwise legs' transform and
        crossings, is checked."""
        seen = Counter()
        for name, p in _sweep_params():
            tracer = _Tracer(p)
            for v in range(len(p.mesh.vertices)):
                for h in p.mesh.vertex_fan(v):
                    g, i = h // 3, h % 3
                    point = tuple(p.uv[g, i].tolist())
                    for d in AXES:
                        axis = 1 if d[1] == 0.0 else 0
                        state = _State(g, point, v, axis, point[axis], d)
                        _compared(tracer, state, True, seen)
        assert seen["clockwise"] > 0 and seen["crossed"] > 0, seen
        assert seen["clockwise_crossed"] > 0, seen

    def test_signed_zero_translations_compose_as_the_generator_sweep(self):
        """Fans that cross cut edges, every seam the half turn with
        translation (-0.0, -1.0): two crossings compose the translation
        (-0.0, 0.0), which the `+ 0.0` of a later uncut edge turns into
        (0.0, 0.0), and from the point (-0.0, -1.0) the step then shows the
        sign of that zero.  Every vertex, fan face and axis direction keeps
        the reference's sign of every zero."""
        seen = Counter()
        for name in ("flat_torus", "annulus_35"):
            p = fx(name)
            seams = dict.fromkeys(p.seams, SeamTransition(2, (-0.0, -1.0)))
            tracer = _Tracer(SeamlessParam(p.mesh, p.uv, seams))
            for v in range(len(p.mesh.vertices)):
                for h in p.mesh.vertex_fan(v):
                    for d in AXES:
                        axis = 1 if d[1] == 0.0 else 0
                        for point in ((-0.0, -1.0), (0.0, 1.0)):
                            state = _State(h // 3, point, v, axis, point[axis], d)
                            _compared(tracer, state, True, seen)
        assert seen["crossed"] > 100, seen


class TestValidateQ5:
    @pytest.mark.parametrize(
        "name", ["flat_torus", "rectangle", "l_domain", "annulus_35"]
    )
    def test_valid_fixtures_pass(self, name):
        rep = validate_q5(fx(name))
        assert rep["passed"], rep

    def test_sheared_torus_reports_premature_termination(self):
        rep = validate_q5(fx("sheared_torus"), budget=3000)
        assert not rep["passed"]
        assert rep["budget_exhausted"]
        assert "terminated prematurely" in rep["note"]
        # the shear only breaks closure transverse to it; the exhausted curve
        # never revisits a crossing signature
        exhausted = [c for c in rep["curves"] if c["status"] == BUDGET_EXCEEDED]
        assert exhausted
        for c in exhausted:
            assert c["n_unique_crossings"] == c["n_crossings"]

    def test_a_cone_with_a_ray_too_many_is_a_ray_count_mismatch(self):
        # every face around l_domain's m=3 boundary cone (vertex 4) turned by
        # 0.004 rad about its corner there: the cones keep their angles, but
        # boundary sides leave the axes, so vertex 4 and the m=1 corners 0
        # and 5, which share its faces, each count one isoline ray too many
        p = fx("l_domain")
        uv = p.uv.copy()
        c, s = math.cos(0.004), math.sin(0.004)
        for f in np.flatnonzero((p.mesh.faces == 4).any(axis=1)):
            o = uv[f][p.mesh.faces[f] == 4][0]
            uv[f] = (uv[f] - o) @ np.array([[c, s], [-s, c]]) + o
        q = SeamlessParam(p.mesh, uv, p.seams)
        assert (4, "boundary", 3) in [(r.vertex, r.location, r.m) for r in q.cone_scan()[0]]
        rep = validate_q5(q)
        assert not rep["passed"]
        counts = [c for c in rep["curves"] if c["kind"] == "cone-ray-count"]
        assert counts == [
            {"kind": "cone-ray-count", "vertex": v, "status": "RayCountMismatch",
             "measured": m, "expected": e}
            for v, m, e in [(0, 1, 0), (4, 3, 2), (5, 1, 0)]
        ]

    def test_a_cone_free_disk_has_no_transverse_rule(self):
        # six triangles around a center, in 3D and UV a regular hexagon: its
        # 120-degree corners are Q2 violations, so the scan records no cone
        ring = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
        vertices = [(0.0, 0.0, 0.0)] + [(x, y, 0.0) for x, y in ring]
        faces = [(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)]
        uv = [[(0.0, 0.0), ring[k], ring[(k + 1) % 6]] for k in range(6)]
        p = SeamlessParam(build_halfedge(vertices, faces), uv, {})
        assert p.cone_scan()[0] == []
        rep = validate_q5(p)
        assert rep["passed"] and rep["curves"] == []
        assert rep["note"] == "no cones and no transverse-curve topology rule"


def _q5_params():
    """(name, param, budget): each fixture and perturbation, each re-rooted
    by every quarter-turn and an offset, at the default budget; the sheared
    torus at a budget its transverse curve exhausts; and a cone-free
    annulus (a flat cylinder)."""
    for name in ALL_FIXTURES:
        params = [(name, fx(name))]
        for kind in PERTURB_KINDS:
            try:
                params.append((f"{name}/{kind}", perturb(fx(name), kind)))
            except QlimError:
                continue  # kind not applicable to this fixture
        for label, p in params:
            yield label, p, None
            for j in (1, 2, 3):
                yield f"{label}/{j}", apply_global_motion(p, j, (0.5 * j, -2.0)), None
    yield "sheared_torus budget 60", fx("sheared_torus"), 60
    yield "cylinder", synth.realize(synth._grid_complex(4, 3, wrap_u=True)), None


class TestQ5FromTheRays:
    """Q5 reports a cone-free surface's transverse curves from their rays'
    facts, building no joined pieces; the report is the one built from
    `trace_quotient_curve`'s joined curves."""

    def test_transverse_curves_match_the_joined_curve_reference(self):
        statuses, refused, checked = set(), set(), 0
        start = SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3))
        for name, p, budget in _q5_params():
            if p.cone_scan()[0]:
                continue
            try:
                want = [_curve_summary(p, trace_quotient_curve(p, start, axis, budget),
                                       kind=f"transverse-axis-{axis}") for axis in (0, 1)]
            except QlimError as exc:  # a stall on a broken chart
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    validate_q5(p, budget)
                refused.add(name)
                continue
            rep = validate_q5(p, budget)
            assert rep["curves"] == want, name
            assert rep["passed"] == all(c["status"] in (FINITE, PERIODIC) for c in want), name
            exhausted = any(c["status"] == BUDGET_EXCEEDED for c in want)
            assert rep["budget_exhausted"] == exhausted, name
            assert rep["note"].startswith("terminated prematurely") == exhausted, name
            statuses.add((name.split("/")[0], tuple(c["status"] for c in want)))
            checked += 1
        assert {
            ("sheared_torus budget 60", (BUDGET_EXCEEDED, PERIODIC)),
            ("cylinder", (FINITE, PERIODIC)),
            ("flat_torus", (PERIODIC, PERIODIC)),
        } <= statuses
        assert refused and checked >= 10, (refused, checked)

    def test_a_curve_whose_rays_both_end_finite_sums_them(self):
        # on the cylinder, axis 0 runs from one boundary to the other
        p = synth.realize(synth._grid_complex(4, 3, wrap_u=True))
        curve = trace_quotient_curve(p, SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)), 0)
        summary = validate_q5(p)["curves"][0]
        assert summary["terminal"] == ["HitBoundaryTransverse"] * 2
        assert summary["segments_used"] == curve.segments_used == sum(
            len(piece.chart_segments) for piece in curve.pieces)

    def test_q5_reverses_no_piece(self, monkeypatch):
        def refused(self):
            raise AssertionError("a piece was reversed")

        monkeypatch.setattr(CoordinateLine, "reversed", refused)
        for name in ("sheared_torus", "flat_torus"):
            validate_q5(fx(name))
        validate_q5(fx("sheared_torus"), 60)
        with pytest.raises(AssertionError, match="a piece was reversed"):
            trace_quotient_curve(fx("sheared_torus"), SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)), 0, 60)
