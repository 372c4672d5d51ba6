import warnings

import numpy as np
import pytest

from qlim.errors import StartOnSingularity
from qlim.immersion import (
    ROTS,
    SeamlessParam,
    SeamTransition,
    apply_global_motion,
    detect_cones,
)
from qlim.mesh import SurfacePoint
from qlim.synth import OverlapWarning, fixture
from qlim.tracer import (
    BUDGET_EXCEEDED,
    FINITE,
    PERIODIC,
    chart_barycentrics,
    cone_rays,
    continue_across_seam,
    default_budget,
    trace_cone_separatrix,
    trace_coordinate_line,
    trace_quotient_curve,
    validate_q5,
)

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


class TestCoordinateLine:
    def test_rectangle_line_hits_boundary(self):
        p = fx("rectangle")
        line = trace_coordinate_line(p, SurfacePoint(0, (0.4, 0.3, 0.3)), axis=1)
        assert line.end_event.kind == "HitBoundaryTransverse"
        assert line.chart_segments

    def test_torus_line_ends_at_seam(self):
        p = fx("flat_torus")
        line = trace_coordinate_line(p, SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)), 0)
        assert line.end_event.kind == "HitSeam"

    def test_segments_are_chained(self):
        p = fx("rectangle")
        line = trace_coordinate_line(p, SurfacePoint(0, (0.4, 0.3, 0.3)), axis=1)
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
            trace_coordinate_line(p, SurfacePoint(f, tuple(bary)), 0)

    def test_start_face_off_the_mesh_raises(self):
        """A face index outside [0, F) is refused, not wrapped by numpy."""
        p = fx("rectangle")
        for face in (-1, len(p.mesh.faces), 999):
            start = SurfacePoint(face, (1 / 3, 1 / 3, 1 / 3))
            with pytest.raises(ValueError, match="start face"):
                trace_quotient_curve(p, start, 0)


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


class TestOneLoop:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_coordinate_line_is_first_piece_of_ray(self, name):
        """A single chart line is the first piece of the ray traced from
        the same start: both come from one tracing loop."""
        param = fx(name)
        rng = np.random.default_rng(41)
        for _ in range(10):
            start = random_interior_start(param, rng)
            for axis in (0, 1):
                for d in (1, -1):
                    line = trace_coordinate_line(param, start, axis, d)
                    curve = trace_quotient_curve(param, start, axis, direction=d)
                    first = curve.pieces[0]
                    assert line.chart_segments
                    assert line.chart_segments == first.chart_segments
                    assert (line.axis, line.value) == (first.axis, first.value)
                    assert line.end_event == first.end_event


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
