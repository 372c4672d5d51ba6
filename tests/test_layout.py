import dataclasses
import json
import math
import os
import re
import sys
import warnings
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from qlim import tolerances
from qlim.errors import ArrangementDegeneracy, NotGridAligned, PropertyViolation, QlimError
from qlim.immersion import SeamlessParam, apply_global_motion, detect_cones, validate_immersion
from qlim.layout import (
    _assemble,
    _boundary_segments_uv,
    _build_layout,
    _chart_points,
    _concat,
    _crossing_cuts,
    _edge_intervals,
    _end_keys,
    _isoline_segments,
    _key,
    _key_paths,
    _lengths,
    _quotient_keys,
    _segments,
    _separatrices,
    _split_and_key,
    _trace_patches,
    emit_separatrices,
    extract_layout,
    layout_oracle_bruteforce,
    verify_coarsening,
)
from qlim.qlimio import read_qlim
from qlim.synth import FIXTURES, OverlapWarning, fixture
import qlim.layout
import qlim.tracer
from qlim.mesh import SurfacePoint, build_halfedge
from qlim.tracer import (
    AXES,
    BUDGET_EXCEEDED,
    FINITE,
    _wedge_test,
    cone_rays,
    keyed_cone_rays,
    trace_cone_separatrix,
    trace_quotient_curve,
    validate_q5,
)

from test_immersion import _corner_angle_ref, _with_jittered_uvs
from test_tolerances import _scaled

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import WORKLOADS  # noqa: E402

warnings.simplefilter("ignore", OverlapWarning)

TWO_PI = 2.0 * math.pi
# the float rotation system's thresholds, kept for its reference below
DIRECTION_TOL = 1e-9  # arc ends this close in angle at a node coincide
ANGLE_EPS = 1e-3  # straight pass-through versus patch corner


def fx(name, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        return fixture(name, **kw)


class TestEmitSeparatrices:
    def test_rectangle_has_no_interior_separatrices(self):
        # the four corner cones have angle pi/2 and emit no interior rays
        assert emit_separatrices(fx("rectangle")) == []

    def test_flat_torus_emits_two_transverse_curves(self):
        curves = emit_separatrices(fx("flat_torus"))
        assert len(curves) == 2

    def test_l_domain_reflex_rays(self):
        assert len(emit_separatrices(fx("l_domain"))) == 2

    def test_annulus_separatrices_deduplicated(self):
        # 3 + 5 = 8 traced rays; curves joining the two cones are traced
        # once from each end and must collapse
        curves = emit_separatrices(fx("annulus_35"))
        assert len(curves) <= 8
        assert all(c.status == "Finite" for c in curves)

    def test_budget_exhaustion_is_a_property_violation(self):
        with pytest.raises(PropertyViolation):
            emit_separatrices(fx("sheared_torus"), budget=500)

    def test_a_separatrix_out_of_budget_fails_q5_and_is_refused(self):
        p = fx("annulus_35")
        q5 = validate_q5(p, budget=3)
        assert not q5["passed"] and q5["budget_exhausted"]
        assert q5["note"].startswith("terminated prematurely")
        assert BUDGET_EXCEEDED in {c["status"] for c in q5["curves"]}
        with pytest.raises(
            PropertyViolation,
            match=r"^separatrix from cone 13 exhausted the tracing budget \(3 segments\)$",
        ):
            extract_layout(p, budget=3)


def _curve_segments_uv(p, curves):
    """The separatrix segments `extract_layout` would arrange for `curves`:
    their chart points, without those of length SEGMENT_MIN or less."""
    faces, P, Q = _chart_points(p, [s for c in curves for s in _segments(c)])
    keep = _lengths(Q - P) > tolerances.SEGMENT_MIN * p.uv_scale()
    return faces[keep], P[keep], Q[keep]


def _curve_key_path(param, curve):
    """Reference: one curve's key path from its own `_chart_points` and
    `_quotient_keys` pass, an end equal to the one before it dropped where
    a segment starts, zeros made +0.0."""
    faces, P, Q = _chart_points(param, _segments(curve))
    keys = _quotient_keys(param, np.repeat(faces, 2), np.stack([P, Q], axis=1))
    keep = np.ones(len(keys), dtype=bool)
    keep[2::2] = (keys[2::2] != keys[1:-1:2]).any(axis=1)
    return keys[keep] + 0.0


def _cone_separatrices(p):
    """Every cone ray's separatrix, cone by cone and ray by ray."""
    return [trace_cone_separatrix(p, rec.vertex, ray)
            for rec in detect_cones(p) for ray in cone_rays(p, rec.vertex)]


def _emit_ref(p, traced):
    """Reference dedupe: the traced separatrices kept one by one, each
    skipped when its `_curve_key_path` or its reversal came before."""
    seen, kept = set(), []
    for curve in traced:
        path = _curve_key_path(p, curve)
        if path.tobytes() not in seen:
            seen.update((path.tobytes(), path[::-1].tobytes()))
            kept.append(curve)
    return kept


def test_batched_key_paths_match_the_per_curve_reference():
    """One key pass over every separatrix gives each curve the path bytes
    of its own pass, and `emit_separatrices` keeps the reference's curves
    in its order, with the segments `extract_layout` arranges those of a
    fresh `_chart_points` call on the kept curves (on a cone-free torus, on
    its two curves)."""
    checked = []
    for name, p in _fan_params():
        try:
            curves, points = _separatrices(p, None)
        except QlimError:
            continue
        if detect_cones(p):
            traced = _cone_separatrices(p)
            bounds = np.cumsum([0] + [len(_segments(c)) for c in traced])
            segs = [s for c in traced for s in _segments(c)]
            got = _key_paths(p, *_chart_points(p, segs), bounds)
            assert [x.tobytes() for x in got] == [
                _curve_key_path(p, c).tobytes() for c in traced], name
            assert repr(curves) == repr(_emit_ref(p, traced)), name
        ref = _curve_segments_uv(p, curves)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(points, ref)), name
        checked.append(name)
    assert set(WORKLOADS) - {"sheared_budget"} <= set(checked)
    assert len(checked) >= 12, checked


def _skip_params():
    """`_fan_params`, then the three workloads re-rooted by seeds 1 to 3."""
    yield from _fan_params()
    for name in sorted(WORKLOADS):
        for seed in (1, 2, 3):
            yield f"{name}/seed {seed}", read_qlim(WORKLOADS[name]().text(seed))


class TestEachSeparatrixOnce:
    """`emit_separatrices` does not trace a cone ray along which an earlier
    separatrix arrived at its cone."""

    def test_the_rays_skipped_are_the_rays_the_dedupe_drops(self, monkeypatch):
        """Tracing every ray, the dedupe drops exactly the rays skipped; so
        it drops none of those traced, and the curves, their order and the
        segments arranged are those of tracing every ray."""
        traced = []

        def recorded(param, vertex, ray, budget=None):
            traced.append((vertex, ray["face"], ray["direction"]))
            return trace_cone_separatrix(param, vertex, ray, budget)

        monkeypatch.setattr(qlim.layout, "trace_cone_separatrix", recorded)
        skips = Counter()
        for name, p in _skip_params():
            traced.clear()
            try:
                curves, points = _separatrices(p, None)
            except QlimError:
                continue
            if not detect_cones(p):
                continue
            rays = [(rec.vertex, ray["face"], ray["direction"])
                    for rec in detect_cones(p) for ray in cone_rays(p, rec.vertex)]
            every = _cone_separatrices(p)
            kept = _emit_ref(p, every)
            dropped = [r for r, c in zip(rays, every) if not any(c is k for k in kept)]
            assert traced == [r for r in rays if r not in dropped], name
            assert len(curves) == len(traced), name
            assert repr(curves) == repr(kept), name
            ref = _curve_segments_uv(p, kept)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(points, ref)), name
            skips[name] = len(dropped)
        assert skips["annulus_cones"] == skips["annulus_35"] == 2
        assert all(skips[f"annulus_cones/seed {s}"] == 2 for s in (1, 2, 3))
        # the skipped ray's charts disagree with the arriving curve's (Q2),
        # so its separatrix is traced, and it is not the reverse
        assert skips["annulus_35/ScaleWedge"] == 1
        assert len(skips) >= 14, skips

    def test_extract_traces_six_of_the_eight_rays_q5_traces(self, monkeypatch):
        """On `annulus_cones` extract traces 6 rays and 96 segments, Q5 all
        8 rays and 156 segments."""
        counts = Counter()

        def counted(param, vertex, ray, budget=None):
            curve = trace_cone_separatrix(param, vertex, ray, budget)
            counts.update(rays=1, segments=curve.segments_used)
            return curve

        monkeypatch.setattr(qlim.layout, "trace_cone_separatrix", counted)
        monkeypatch.setattr(qlim.tracer, "trace_cone_separatrix", counted)
        text = WORKLOADS["annulus_cones"]().text(0)
        extract_layout(read_qlim(text))
        assert counts == {"rays": 6, "segments": 96}
        counts.clear()
        validate_q5(read_qlim(text))
        assert counts == {"rays": 8, "segments": 156}

    def test_a_budget_refuses_as_when_every_ray_is_traced(self):
        """At every budget up to the longest separatrix's length, emission
        refuses naming the first ray, in cone and ray order, that exhausts
        it, or returns the curves, as when every ray is traced."""
        cones = read_qlim(WORKLOADS["annulus_cones"]().text(0))
        for name, p in (("annulus_35", fx("annulus_35")), ("annulus_cones", cones)):
            rays = [(rec.vertex, ray) for rec in detect_cones(p) for ray in cone_rays(p, rec.vertex)]
            longest = max(trace_cone_separatrix(p, v, ray).segments_used for v, ray in rays)
            for budget in range(1, longest + 1):
                every = [(v, trace_cone_separatrix(p, v, ray, budget)) for v, ray in rays]
                out = [v for v, c in every if c.status == BUDGET_EXCEEDED]
                if not out:
                    got = emit_separatrices(p, budget)
                    assert repr(got) == repr(_emit_ref(p, [c for _, c in every])), (name, budget)
                    continue
                with pytest.raises(PropertyViolation, match=(
                        rf"^separatrix from cone {out[0]} exhausted the tracing budget "
                        rf"\({budget} segments\)$")):
                    emit_separatrices(p, budget)

    def test_ray_keys_are_the_end_keys_of_their_directions(self):
        """`keyed_cone_rays` keys each axis direction out of a cone as
        `_end_keys` keys a vertex-node end along it (k there is 2k + 1,
        modulo the fan's span at an interior cone), and each ray by its
        own direction."""
        checked = 0
        for name, p in _skip_params():
            try:
                records = detect_cones(p)
            except QlimError:
                continue
            for rec in records:
                rays, keys, table = keyed_cone_rays(p, rec.vertex)
                assert rays == cone_rays(p, rec.vertex)
                ends = [(h, q) for h, row in table.items() for q in range(4) if row[q] >= 0]
                if not ends:  # a fan that holds no axis direction
                    continue
                got, span = _end_keys(p, _rows([("v", rec.vertex)] * len(ends)),
                                      [h // 3 for h, _ in ends], np.array([AXES[q] for _, q in ends]))
                if rec.location == "interior":
                    got = got % span
                assert [2 * table[h][q] + 1 for h, q in ends] == got.tolist(), (name, rec)
                corner = {h // 3: h for h in table}
                assert keys == [table[corner[r["face"]]][AXES.index(r["direction"])]
                                for r in rays], (name, rec)
                assert len(set(keys)) == len(keys)
                checked += len(ends)
        assert checked > 200


def test_batched_key_paths_match_the_reference_on_a_degenerate_chart():
    """With one traced face's chart collapsed onto a v isoline, the batched
    pass falls back to point-by-point solves for every curve, the reference
    only for the curves through that face; the paths still agree byte for
    byte."""
    p = fx("annulus_35")
    traced = _cone_separatrices(p)
    bad = _segments(traced[0])[0][0]
    uv = np.array(p.uv)
    uv[bad, :, 1] = uv[bad, 0, 1]
    flat = SeamlessParam(p.mesh, uv, p.seams)
    segs = [s for c in traced for s in _segments(c)]
    with pytest.raises(np.linalg.LinAlgError):  # the chart is singular
        np.linalg.solve(uv[bad, 1:] - uv[bad, 0], np.zeros(2))
    assert sum(any(f == bad for f, _, _ in _segments(c)) for c in traced) < len(traced)
    bounds = np.cumsum([0] + [len(_segments(c)) for c in traced])
    got = _key_paths(flat, *_chart_points(flat, segs), bounds)
    assert [x.tobytes() for x in got] == [_curve_key_path(flat, c).tobytes() for c in traced]


TRANSVERSE_BUDGET_MESSAGE = (
    "transverse curve exhausted the tracing budget; the layout complex is "
    "not finite at this resolution"
)


def _cone_free_tori():
    """(name, param): flat tori of several sizes, each also re-rooted by a
    quarter-turn and an offset, and tori sheared by a rational s."""
    for w, h in ((3, 3), (4, 3), (5, 7), (8, 8)):
        p = fx("flat_torus", w=w, h=h)
        yield f"flat_torus {w}x{h}", p
        for j in (1, 2, 3):
            yield f"flat_torus {w}x{h}/{j}", apply_global_motion(p, j, (0.3 * j, -1.7))
    for s in (1 / 2, 1 / 3, 3 / 11):
        yield f"sheared_torus s={s}", fx("sheared_torus", w=4, h=3, s=s)
    yield "sheared_torus", fx("sheared_torus")


def _vertex_0_anchor(param):
    h = param.mesh.vertex_fan(0)[0]
    bary = [0.0, 0.0, 0.0]
    bary[h % 3] = 1.0
    return SurfacePoint(h // 3, tuple(bary))


class TestForwardOnlyTransverseCurves:
    """On a closed cone-free torus `emit_separatrices` traces each
    transverse curve forward only; its answer is the two-direction trace's."""

    def test_curves_and_refusals_match_the_two_direction_trace(self):
        outcomes = set()
        for name, p in _cone_free_tori():
            anchor = _vertex_0_anchor(p)
            for budget in (None, 500, 60):
                want = []
                for axis in (0, 1):
                    want.append(trace_quotient_curve(p, anchor, axis, budget))
                    if want[-1].status == BUDGET_EXCEEDED:
                        break
                if want[-1].status == BUDGET_EXCEEDED:
                    with pytest.raises(PropertyViolation) as err:
                        emit_separatrices(p, budget)
                    assert str(err.value) == TRANSVERSE_BUDGET_MESSAGE, (name, budget)
                    outcomes.add("refused")
                    continue
                got = emit_separatrices(p, budget)
                # pieces, chart segments, crossings, status, segments_used
                assert got == want, (name, budget)
                outcomes.add("curves")
        assert outcomes == {"refused", "curves"}

    def test_no_transverse_curve_is_traced_past_one_budget(self, monkeypatch):
        traced = []
        one_direction = qlim.tracer._one_direction

        def counted(tracer, state, budget, *args, **kw):
            axis = state.axis
            curve = one_direction(tracer, state, budget, *args, **kw)
            traced.append((axis, curve.segments_used, budget))
            return curve

        monkeypatch.setattr(qlim.tracer, "_one_direction", counted)
        for name, p in _cone_free_tori():
            for budget in (None, 500, 60):
                traced.clear()
                try:
                    emit_separatrices(p, budget)
                except PropertyViolation:
                    assert traced[-1][1] == traced[-1][2], name
                axes = [axis for axis, _, _ in traced]
                assert axes == [0, 1][: len(axes)], (name, budget)
                assert all(used <= cap for _, used, cap in traced), (name, budget)

    def test_a_forward_ray_that_ends_finite_is_refused(self, monkeypatch):
        # a cone-free closed torus leaves a ray nothing to end at, so a
        # Finite forward ray is a tracer fault; emit must not return half
        # of a curve
        trace = qlim.layout.trace_quotient_curve

        def ends_finite(*args, **kw):
            return dataclasses.replace(trace(*args, **kw), status=FINITE)

        monkeypatch.setattr(qlim.layout, "trace_quotient_curve", ends_finite)
        with pytest.raises(PropertyViolation) as err:
            emit_separatrices(fx("flat_torus"))
        assert str(err.value) == (
            "transverse curve on axis 0 ended Finite on a closed cone-free "
            "torus instead of closing"
        )


class TestExtractLayout:
    def test_rectangle(self):
        lay = extract_layout(fx("rectangle"))
        assert lay.counts == (4, 4, 1)
        assert lay.patch_corners.tolist() == [4]

    def test_flat_torus(self):
        lay = extract_layout(fx("flat_torus"))
        assert lay.counts == (1, 2, 1)
        assert lay.patch_corners.tolist() == [4]

    def test_l_domain(self):
        lay = extract_layout(fx("l_domain"))
        assert lay.counts == (8, 10, 3)
        assert (lay.patch_corners == 4).all()

    def test_annulus_all_quad_euler_zero(self):
        lay = extract_layout(fx("annulus_35"))
        v, e, f = lay.counts
        assert v - e + f == 0
        assert (lay.patch_corners == 4).all()
        assert sorted(lay.node_degree[lay.node_cone].tolist()) == [3, 5]

    def test_euler_matches_surface(self):
        for name in ["rectangle", "flat_torus", "l_domain", "annulus_35"]:
            lay = extract_layout(fx(name))
            v, e, f = lay.counts
            assert v - e + f == lay.euler

    def test_deterministic(self):
        a = json.dumps(extract_layout(fx("annulus_35")).to_dict(), sort_keys=True)
        b = json.dumps(extract_layout(fx("annulus_35")).to_dict(), sort_keys=True)
        assert a == b


def _tilted_square(a, b, k):
    """A square with integer corners 0, (a, b), (a - b, a + b) and (-b, a),
    each side cut into k rim edges, fanned around its centre, UV = xy: the
    oracle accepts it (no seams, corner cones on the grid), though Q4 fails
    on every side that is not axis-aligned."""
    side = np.array([a, b], dtype=float)
    corners = [np.zeros(2), side, side + [-b, a], np.array([-b, a], dtype=float)]
    rim = [c + t / k * (corners[(i + 1) % 4] - c) for i, c in enumerate(corners) for t in range(k)]
    xy = np.array([sum(corners) / 4, *rim])
    n = len(rim)
    faces = [(0, 1 + j, 1 + (j + 1) % n) for j in range(n)]
    mesh = build_halfedge(np.column_stack([xy, np.zeros(len(xy))]), faces)
    return SeamlessParam(mesh, xy[mesh.faces], {})


class TestOracle:
    def test_rectangle_grid(self):
        o = layout_oracle_bruteforce(fx("rectangle", a=3.0, b=2.0))
        assert o.counts == (12, 17, 6)

    def test_flat_torus_grid(self):
        o = layout_oracle_bruteforce(fx("flat_torus"))  # 4 x 3
        assert o.counts == (12, 24, 12)

    def test_more_candidates_than_the_tracing_budget_are_refused(self):
        # flat_torus with its map scaled by 10**6 passes the grid check and
        # has 48,000,048 (face, isoline) candidates, over the tracing budget
        # of 64 per face; the refusal comes before any array holds them, and
        # the step it suggests gives the unscaled torus's complex
        p = _scaled("flat_torus", 10**6)
        with pytest.raises(PropertyViolation, match=r"^the oracle has 48000048 .* budget of 1536; .*--step"):
            layout_oracle_bruteforce(p)
        assert layout_oracle_bruteforce(p, step=10**6).counts == (12, 24, 12)
        # scaled by 10**19, a face's isoline count is past int64: it is
        # counted in floats, so it is refused too, not wrapped to a small one
        with pytest.raises(PropertyViolation, match=r"^the oracle has 48(0){19} "):
            layout_oracle_bruteforce(_scaled("flat_torus", 1e19))

    @pytest.mark.parametrize("step", [0, -1])
    def test_a_step_below_1_is_refused(self, step):
        with pytest.raises(ValueError, match=f"step must be at least 1, got {step}"):
            layout_oracle_bruteforce(fx("rectangle", a=3.0, b=2.0), step=step)

    def test_a_boundary_end_off_the_axes_ranks_first(self):
        # a square of side (1, 3) with integer corners, a fan around its
        # centre, UV = xy: an integer-grid map the oracle accepts though
        # its tilted sides fail Q4.  At corners 2 and 3 the end along the
        # outgoing boundary edge takes the key of the fan's first side, 0,
        # and ranks first; its float fan angle read 2*pi against a fan
        # total of pi/2 and ranked it last, so the walks wrapped at the
        # wrong ends and three of them counted as outer
        p = _tilted_square(1, 3, 1)
        assert validate_immersion(p).failed_properties() == ["q4"]
        columns, ends = _assemble(p, *_split_and_key(p, _oracle_segments(p)))
        node, faces, D, key, total = _keyed_ends(p, columns, ends)
        for v, outgoing in ((2, (-3.0, 1.0)), (3, (-1.0, -3.0))):
            n = [_key(row) for row in columns["node_keys"]].index(("v", v))
            mine = np.flatnonzero(node == n)
            ranked = mine[np.argsort(key[mine], kind="stable")]
            assert key[ranked].tolist() == [0, 1, 2] and set(total[mine].tolist()) == {2}
            d = D[ranked[0]]
            assert d.tolist() == pytest.approx(np.array(outgoing) / math.sqrt(10.0))
            angle, fan_total = _end_angle_ref(p, ("v", v), int(faces[ranked[0]]), d)
            assert angle == pytest.approx(TWO_PI) and fan_total == pytest.approx(math.pi / 2)
        oracle = layout_oracle_bruteforce(p)
        assert oracle.counts == (21, 36, 16)
        assert sorted(oracle.patch_corners.tolist()) == [3] * 4 + [4] * 12

    def test_no_tilted_square_miscounts_its_outer_walks(self):
        # `_build_layout` checks each oracle's outer walks against the one
        # boundary loop, and its Euler characteristic; the float fan angles
        # of the reference wrap more than one walk on 52 of the squares
        miscounted = 0
        for a in range(1, 5):
            for b in range(1, 6):
                for k in range(1, 8):
                    p = _tilted_square(a, b, k)
                    assert layout_oracle_bruteforce(p).euler == 1
                    columns, _ = _assemble(p, *_split_and_key(p, _oracle_segments(p)))
                    walks, _ = _trace_patches_ref(p, *_records(columns))
                    miscounted += sum(wrapped for _, wrapped in walks) != 1
        assert miscounted == 52

    def test_irrational_rectangle_rejected(self):
        with pytest.raises(NotGridAligned):
            layout_oracle_bruteforce(fx("rectangle"))

    def test_sheared_torus_rejected_at_its_seam(self):
        # seam translation (sqrt 2, 3): an integer-grid map needs Z^2
        with pytest.raises(NotGridAligned, match="on halfedge 28 is not integral"):
            layout_oracle_bruteforce(fx("sheared_torus"))

    def test_annulus_reproduces_source_complex(self):
        from test_synth import fixture_complex

        cx = fixture_complex()
        o = layout_oracle_bruteforce(fx("annulus_35"))
        n_edges = (4 * len(cx.quads) + sum(
            1
            for qi in range(len(cx.quads))
            for s in range(4)
            if cx.adjacent(qi, s) is None
        )) // 2
        assert o.counts == (cx.n_vertices, n_edges, len(cx.quads))

    def test_annulus_valence_multiset(self):
        from test_synth import fixture_complex

        cx = fixture_complex()
        valence = [0] * cx.n_vertices
        seen = set()
        for qi, quad in enumerate(cx.quads):
            for s in range(4):
                a, b = quad[s], quad[(s + 1) % 4]
                key = (min(a, b), max(a, b))
                if key in seen:
                    continue
                seen.add(key)
                valence[a] += 1
                valence[b] += 1
        o = layout_oracle_bruteforce(fx("annulus_35"))
        assert o.node_degrees() == sorted(valence)


class TestCoarsening:
    @pytest.mark.parametrize("name", ["l_domain", "annulus_35"])
    def test_separatrix_layout_coarsens_oracle(self, name):
        p = fx(name)
        assert verify_coarsening(p, extract_layout(p), layout_oracle_bruteforce(p))

    def test_every_oracle_piece_under_a_layout_arc_is_needed(self):
        # the layout's 26 unit segments lie on 26 of the oracle's 35 unit
        # pieces.  Without any one of those, or with a gap cut out of its
        # middle, the layout is no longer covered; split with no gap it is
        p = fx("annulus_35")
        layout, oracle = extract_layout(p), layout_oracle_bruteforce(p)
        f, P, Q = oracle.segments
        n = len(f)

        def covered(k, pieces):
            """Whether the oracle with row k replaced by `pieces`, (start,
            end) fractions along it, is still covered."""
            t = np.array(pieces, dtype=float).reshape(-1, 2)
            R = Q[k] - P[k]
            rows = (np.full(len(t), f[k]), P[k] + t[:, :1] * R, P[k] + t[:, 1:] * R)
            keep = np.arange(n) != k
            segments = tuple(np.concatenate([x[keep], y]) for x, y in zip(oracle.segments, rows))
            return verify_coarsening(p, layout, dataclasses.replace(oracle, segments=segments))

        dropped = [covered(k, []) for k in range(n)]
        assert (n, dropped.count(False)) == (35, len(layout.segments[0])) == (35, 26)
        for k in range(n):
            assert covered(k, [(0.0, 0.4), (0.6, 1.0)]) == dropped[k], k
            assert covered(k, [(0.0, 0.5), (0.5, 1.0)]), k

    def test_detects_foreign_layout(self):
        # a layout from a different surface cannot coarsen this oracle
        p = fx("l_domain")
        other = extract_layout(fx("annulus_35"))
        assert not verify_coarsening(p, other, layout_oracle_bruteforce(p))

    def test_checks_the_layout_segments_inside_faces(self):
        q = _annulus_with_moved_interior()
        assert validate_immersion(q).passed and validate_q5(q)["passed"]
        layout = extract_layout(q)
        oracle = layout_oracle_bruteforce(q)
        eps = tolerances.WELD_TOL * q.uv_scale()
        faces = layout.segments[0]
        inside = faces[~_edge_intervals(q, layout.segments, eps)[0]]
        assert len(inside) > 10
        assert verify_coarsening(q, layout, oracle)
        # without the oracle's pieces in face 2, which a layout arc crosses
        # inside, that arc is no longer covered; the dropped pieces run
        # along no mesh edge and every layout node stays an oracle vertex
        iso = _isoline_segments(q, 1)
        drop = iso[0] == 2
        assert 2 in inside
        assert not _edge_intervals(q, tuple(x[drop] for x in iso), eps)[0].any()
        thinned = _build_layout(
            q, _concat(_boundary_segments_uv(q), tuple(x[~drop] for x in iso)))
        assert set(_node_keys(layout)) <= set(_node_keys(thinned))
        assert not verify_coarsening(q, layout, thinned)


def _annulus_with_moved_interior():
    """annulus_35 with every vertex that is not a cone, not on the boundary
    and not on a cut edge moved by a seeded offset of at most 0.2 per
    coordinate, the same in all its corners: the map stays valid, and its
    separatrices cross faces inside instead of running along mesh edges."""
    p = fx("annulus_35")
    mesh = p.mesh
    fixed = mesh.is_boundary_vertex.copy()
    fixed[list(p.cone_vertices())] = True
    for e in p.cut_edges:
        h = int(mesh.edge_halfedge[e])
        fixed[[mesh.src(h), mesh.dst(h)]] = True
    offset = np.random.default_rng(0).uniform(-0.2, 0.2, (len(mesh.vertices), 2))
    offset[fixed] = 0.0
    return SeamlessParam(mesh, p.uv + offset[mesh.faces], p.seams)


def _slide_boundary(name, seed):
    """The fixture with every boundary vertex that is not a cone and not on
    a cut edge slid along its boundary line by a seeded amount of at most
    0.3, the same in all its corners: the map stays valid, and separatrices
    that ended at boundary vertices now end inside boundary edges."""
    p = fx(name)
    mesh = p.mesh
    fixed = ~mesh.is_boundary_vertex
    fixed[list(p.cone_vertices())] = True
    for e in p.cut_edges:
        h = int(mesh.edge_halfedge[e])
        fixed[[mesh.src(h), mesh.dst(h)]] = True
    h = np.flatnonzero(mesh.twin == -1)
    corners = p.uv.reshape(-1, 2)
    side = corners[h - h % 3 + (h + 1) % 3] - corners[h]
    line = np.zeros((len(mesh.vertices), 2))
    line[mesh.faces.ravel()[h]] = side / np.linalg.norm(side, axis=1)[:, None]
    offset = np.random.default_rng(seed).uniform(-0.3, 0.3, (len(mesh.vertices), 1)) * line
    offset[fixed] = 0.0
    return SeamlessParam(mesh, p.uv + offset[mesh.faces], p.seams)


class TestSlidBoundary:
    """Valid maps whose separatrices end inside boundary edges: the edge
    nodes there take the frame of their one face, and a cone ray leaves
    along its own sheet."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", ["l_domain", "annulus_35"])
    def test_layout_and_oracle_match_the_unslid_fixture(self, name, seed):
        q = _slide_boundary(name, seed)
        assert not np.array_equal(q.uv, fx(name).uv)
        assert validate_immersion(q).passed and validate_q5(q)["passed"]
        layout, oracle = extract_layout(q), layout_oracle_bruteforce(q)
        p = fx(name)
        assert layout.counts == extract_layout(p).counts
        assert oracle.counts == layout_oracle_bruteforce(p).counts
        assert verify_coarsening(q, layout, oracle)


def test_edge_nodes_serialize_their_boundary_flags():
    # a segment from the middle of face 0's boundary edge, bent to end
    # inside edge 7: both ends are edge nodes, one on the boundary
    p = fx("l_domain")
    extra = (np.array([0, 0]), np.array([[0.5, 0.0], [0.5, 0.5]]),
             np.array([[0.5, 0.5], [1.0, 0.5]]))
    layout = _build_layout(p, _concat(_boundary_segments_uv(p), extra))
    doc = json.loads(json.dumps(layout.to_dict()))
    flags = {k: d["boundary"] for k, d in zip(_node_keys(layout), doc["nodes"]) if k[0] == "e"}
    assert flags == {("e", 1, 0.5): True, ("e", 7, 0.5): False}


class TestAssembleRefusals:
    def test_a_lone_closed_curve_has_no_distinguished_points(self):
        p = fx("flat_torus")
        c0 = emit_separatrices(p)[0]
        with pytest.raises(ArrangementDegeneracy, match=re.escape(
                "the layout graph has no distinguished points (closed curves "
                "without crossings)")):
            _build_layout(p, _curve_segments_uv(p, [c0]))

    def test_a_closed_curve_beside_an_open_segment_has_no_node(self):
        # face 5's chart is (2, 0), (3, 1), (2, 1): the open segment's two
        # ends are nodes, the closed curve has none
        p = fx("flat_torus")
        c0 = emit_separatrices(p)[0]
        extra = (np.array([5]), np.array([[2.2833, 0.6667]]), np.array([[2.3833, 0.6667]]))
        with pytest.raises(ArrangementDegeneracy,
                           match="closed layout curves with no node on them"):
            _build_layout(p, _concat(_curve_segments_uv(p, [c0]), extra))


def _vertex_fan_keys(param, v):
    """Reference: per fan wedge (face, corner, the key of an end along its
    first side) and the fan's key span, from `_wedge_test` on each wedge and
    axis direction.  A wedge holds the axes inside it or along its first
    side, one quarter turn each."""
    uvt = tuple(tuple(map(tuple, tri)) for tri in param.uv.tolist())
    lengths = param.edge_lengths().tolist()
    out, passed = [], 0
    for h in param.mesh.vertex_fan(v):
        g, i = h // 3, h % 3
        tests = [_wedge_test(uvt, lengths, g, i, d) for d in AXES]
        out.append((g, i, 2 * passed + any(along_a for _, along_a, _ in tests)))
        passed += sum(inside or along_a for inside, along_a, _ in tests)
    return out, 2 * passed


def _fan_params():
    """The fixtures, their perturbations and UV-jittered copies, and the
    three benchmark workload params."""
    yield from _with_jittered_uvs()
    for name in sorted(WORKLOADS):
        yield name, read_qlim(WORKLOADS[name]().text(0))


def test_vertex_end_keys_match_the_per_wedge_reference():
    checked = 0
    for name, p in _fan_params():
        keys, faces, sides, want = [], [], [], []
        for v in range(len(p.mesh.vertices)):
            wedges, total = _vertex_fan_keys(p, v)
            for g, i, key in wedges:
                # an end along the wedge's first side
                keys.append(("v", v))
                faces.append(g)
                side = p.uv[g, (i + 1) % 3] - p.uv[g, i]
                sides.append(side / np.linalg.norm(side))
                want.append((key, total))
        key, total = _end_keys(p, _rows(keys), faces, np.array(sides))
        assert list(zip(key.tolist(), total.tolist())) == want, name
        checked += len(want)
    assert checked > 8000


# ---------------------------------------------------------------------------
# point-by-point references of the whole-array arrangement helpers


def _quotient_key_ref(param, face, p):
    """Reference: one point's key, tested corner by corner and edge by edge
    with numpy on 2-vectors."""
    mesh = param.mesh
    uvf = param.uv[face]
    scale = param.uv_scale()
    tol = tolerances.WELD_TOL * scale
    for i in range(3):
        if np.linalg.norm(p - uvf[i]) <= tol:
            return ("v", int(mesh.faces[face][i]))
    for k in range(3):
        a, b = uvf[k], uvf[(k + 1) % 3]
        ab = b - a
        L = np.linalg.norm(ab)
        off = abs((p[0] - a[0]) * ab[1] - (p[1] - a[1]) * ab[0]) / L
        t = float((p - a) @ ab) / (L * L)
        if off <= tol and -tolerances.PARAM_TOL <= t <= 1.0 + tolerances.PARAM_TOL:
            va, vb = int(mesh.src(3 * face + k)), int(mesh.dst(3 * face + k))
            tt = t if va < vb else 1.0 - t
            eid = int(mesh.edge_id[3 * face + k])
            return ("e", eid, round(tt, tolerances.KEY_DECIMALS))
    return ("f", int(face), round(float(p[0] / scale), tolerances.KEY_DECIMALS),
            round(float(p[1] / scale), tolerances.KEY_DECIMALS))


def _edge_interval_ref(param, f, p, q, eps):
    """Reference: one segment's interval along a mesh edge of face f, or
    None."""
    mesh = param.mesh
    uvf = param.uv[f]
    for kk in range(3):
        a, b = uvf[kk], uvf[(kk + 1) % 3]
        ab = b - a
        L = float(np.linalg.norm(ab))
        offs = [
            abs((x[0] - a[0]) * ab[1] - (x[1] - a[1]) * ab[0]) / L
            for x in (p, q)
        ]
        if max(offs) > eps:
            continue
        tp = float((p - a) @ ab) / (L * L)
        tq = float((q - a) @ ab) / (L * L)
        if int(mesh.src(3 * f + kk)) > int(mesh.dst(3 * f + kk)):
            tp, tq = 1.0 - tp, 1.0 - tq
        eid = int(mesh.edge_id[3 * f + kk])
        return eid, min(tp, tq) * L, max(tp, tq) * L
    return None


def _ccw_angle(u, v):
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]) % TWO_PI


def _end_angle_ref(param, k, face, d):
    """Reference: the fan angle of one arc end at the node keyed k, with the
    vertex fan summed anew for every end."""
    mesh = param.mesh
    if k[0] == "f":
        return math.atan2(d[1], d[0]) % TWO_PI, TWO_PI
    if k[0] == "e":
        kk = next(j for j in range(3) if int(mesh.edge_id[3 * face + j]) == k[1])
        h = 3 * face + kk
        vec = param.uv[face, (kk + 1) % 3] - param.uv[face, kk]
        ang = _ccw_angle(vec, d)
        if ang > math.pi:  # clamp tiny negative-side noise
            ang = 0.0 if TWO_PI - ang < math.pi / 2 else math.pi
        base = 0.0 if mesh.twin[h] == -1 or mesh.src(h) < mesh.dst(h) else math.pi
        total = math.pi if mesh.twin[h] == -1 else TWO_PI
        return (base + ang) % TWO_PI, total
    start = None
    total = 0.0
    for h in mesh.vertex_fan(k[1]):
        if start is None and h // 3 == face:
            start = (h % 3, total)
        total += _corner_angle_ref(param, h)[0]
    if start is None:
        raise ArrangementDegeneracy(
            f"arc-end chart face {face} is not in the fan of vertex {k[1]}"
        )
    i, cum = start
    a = param.uv[face, (i + 1) % 3] - param.uv[face, i]
    return cum + _ccw_angle(a, d), total


def _split_and_key_ref(param, segments):
    """Reference: `_split_and_key` with one key tuple per point, ranked by
    Python's `sorted` and told apart pair by pair."""
    tol = tolerances.WELD_TOL * param.uv_scale()
    faces, P, Q = segments
    n = len(faces)
    cut_seg, cut_t = _crossing_cuts(param, segments)
    seg = np.concatenate([np.arange(n), np.arange(n), cut_seg])
    t = np.concatenate([np.zeros(n), np.ones(n), cut_t])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    first = np.ones(len(seg), dtype=bool)
    first[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg, t = seg[first], t[first]
    X = P[seg] + t[:, None] * (Q[seg] - P[seg])
    keys = [_key(row) for row in _quotient_keys(param, faces[seg], X)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = [keys[i] != keys[j] for i, j in zip(order[1:], order)]
    order = np.array(order, dtype=np.intp)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    rep = order[new]
    k = np.flatnonzero((seg[1:] == seg[:-1]) & ~(_lengths(X[1:] - X[:-1]) <= tol))
    k = k[rank[k] != rank[k + 1]]
    a, b = rank[k], rank[k + 1]
    _, kept = np.unique(np.minimum(a, b) * len(rep) + np.maximum(a, b), return_index=True)
    k = k[kept][np.lexsort((b[kept], a[kept]))]
    ends = np.stack([k, k + 1], axis=1).ravel()
    _, i = np.unique(rank[ends], return_index=True)
    rep[rank[ends[i]]] = ends[i]
    table = [keys[j] for j in rep.tolist()]
    return table, (rank[k], rank[k + 1], faces[seg[k]], X[k], X[k + 1])


def _node_keys(layout):
    return [_key(row) for row in layout.node_keys]


def _records(columns):
    """Adapter for the references: per-node records (key, is_cone,
    is_boundary) and per-arc records (nodes, segments as (face, p, q) rows)
    from the node and arc columns of `_assemble`."""
    faces, P, Q = columns["segments"]
    rows = list(zip(faces.tolist(), P, Q))
    o = columns["arc_offsets"].tolist()
    nodes = [SimpleNamespace(key=_key(row), is_cone=c, is_boundary=b)
             for row, c, b in zip(columns["node_keys"], columns["node_cone"].tolist(),
                                  columns["node_boundary"].tolist())]
    arcs = [SimpleNamespace(nodes=tuple(ab), segments=rows[i:j])
            for ab, i, j in zip(columns["arc_nodes"].tolist(), o, o[1:])]
    return nodes, arcs


def _trace_patches_ref(param, nodes, arcs):
    """Reference: the patch walks end by end, through an (arc, end) ->
    (node, rank in its sorted end list, angle, total) map."""
    tips = []  # (arc, end, chart face, point at the node, next point along)
    for aidx, arc in enumerate(arcs):
        f, p, q = arc.segments[0]
        tips.append((aidx, 0, f, p, q))
        f, p, q = arc.segments[-1]
        tips.append((aidx, 1, f, q, p))
    D = (np.array([t[4] for t in tips]) - np.array([t[3] for t in tips])).reshape(-1, 2)
    D = (D / _lengths(D)[:, None]).tolist()
    ends = defaultdict(list)  # node index -> [(angle, arc index, end 0|1)]
    for (aidx, end, f, _, _), d in zip(tips, D):
        n = arcs[aidx].nodes[end]
        ang, total = _end_angle_ref(param, nodes[n].key, f, d)
        ends[n].append([float(ang), aidx, end, float(total)])
    for n, lst in ends.items():
        lst.sort(key=lambda e: e[0])
        for e1, e2 in zip(lst, lst[1:]):
            if e2[0] - e1[0] < DIRECTION_TOL:
                raise ArrangementDegeneracy(
                    f"coincident arc directions at node {nodes[n].key}"
                )
    pos = {}
    for n, lst in ends.items():
        for rank, (ang, aidx, end, total) in enumerate(lst):
            pos[(aidx, end)] = (n, rank, ang, total)

    def next_dart(aidx, end_reached):
        n, rank, _, _ = pos[(aidx, end_reached)]
        lst = ends[n]
        wrapped = rank == 0 and nodes[n].is_boundary
        _, a2, e2, _ = lst[(rank - 1) % len(lst)]
        return a2, e2, wrapped

    used = set()
    walks = []
    for aidx in range(len(arcs)):
        for end in (0, 1):
            if (aidx, end) in used:
                continue
            walk = []
            wrapped = False
            a, e = aidx, end
            while (a, e) not in used:
                used.add((a, e))
                walk.append((a, e))
                a, e, w = next_dart(a, 1 - e)
                wrapped = wrapped or w
            walks.append((walk, wrapped))
    return walks, pos


def _count_corners_ref(nodes, walk, pos):
    """Reference: the corners of one patch walk, read from the `pos` map."""
    corners = 0
    for (a1, e1), (a2, e2) in zip(walk, walk[1:] + walk[:1]):
        n, _, ang_in, total = pos[(a1, 1 - e1)]
        _, _, ang_out, _ = pos[(a2, e2)]
        node = nodes[n]
        regular_total = math.pi if node.is_boundary else TWO_PI
        eps = ANGLE_EPS
        regular = (not node.is_cone) and abs(total - regular_total) < eps
        if regular and abs(abs(ang_in - ang_out) - math.pi) < eps:
            continue
        corners += 1
    return corners


def _rows(keys):
    """Tuple keys as the key rows (kind, id, a, b) of `_quotient_keys`."""
    return np.array([("efv".index(k[0]), *k[1:], 0.0, 0.0)[:4] for k in keys], dtype=float)


def _bits(x):
    """`x` with every float as its hex string, so that == also tells -0.0
    from 0.0."""
    if isinstance(x, (tuple, list)):
        return [_bits(y) for y in x]
    return float(x).hex() if isinstance(x, float) else x


def _probe_points(p, rng):
    """(faces, points) in those faces' charts: every corner; points on
    every edge at a random parameter and within 2e-12 of either end, each
    also moved off the edge by half and by twice WELD_TOL; one random
    interior point per face; and, where the oracle accepts the map, the
    ends of its isoline and boundary segments."""
    nf = len(p.mesh.faces)
    tol = tolerances.WELD_TOL * p.uv_scale()
    A = p.uv.reshape(-1, 2)
    B = p.uv[:, [1, 2, 0]].reshape(-1, 2)
    normal = (B - A)[:, ::-1] * [1.0, -1.0]
    normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
    per_corner = np.repeat(np.arange(nf), 3)
    faces, pts = [per_corner], [A]
    for t in (rng.uniform(0.0, 1.0, len(A)), rng.uniform(-2e-12, 2e-12, len(A)),
              1.0 + rng.uniform(-2e-12, 2e-12, len(A))):
        on = A + t[:, None] * (B - A)
        for off in (0.0, 0.5 * tol, -0.5 * tol, 2.0 * tol):
            faces.append(per_corner)
            pts.append(on + off * normal)
    bary = rng.dirichlet([1.0, 1.0, 1.0], nf)
    faces.append(np.arange(nf))
    pts.append(np.einsum("fk,fkc->fc", bary, p.uv))
    try:
        layout_oracle_bruteforce(p)
    except QlimError:
        pass
    else:
        for f, a, b in (_isoline_segments(p, 1), _boundary_segments_uv(p)):
            faces += [f, f]
            pts += [a, b]
    return np.concatenate(faces), np.concatenate(pts)


def test_quotient_keys_match_the_per_point_reference():
    rng = np.random.default_rng(5)
    kinds = {"v": 0, "e": 0, "f": 0}
    for name, p in _fan_params():
        faces, pts = _probe_points(p, rng)
        got = [_key(row) for row in _quotient_keys(p, faces, pts)]
        want = [_quotient_key_ref(p, f, x) for f, x in zip(faces.tolist(), pts)]
        assert _bits(got) == _bits(want), name
        for k in got:
            kinds[k[0]] += 1
    assert min(kinds.values()) > 10000, kinds


def test_edge_intervals_match_the_per_segment_reference():
    rng = np.random.default_rng(9)
    checked = along = 0
    for name, p in _fan_params():
        faces, pts = _probe_points(p, rng)
        # segments between probe points of one face, a sample of them
        order = np.argsort(faces, kind="stable")
        faces, pts = faces[order], pts[order]
        same = np.flatnonzero(faces[1:] == faces[:-1])
        pick = rng.permutation(same)[:4000]
        segs = (faces[pick], pts[pick], pts[pick + 1])
        eps = tolerances.WELD_TOL * p.uv_scale()
        on_edge, eid, lo, hi = _edge_intervals(p, segs, eps)
        got = [
            (e, a, b) if hit else None
            for hit, e, a, b in zip(on_edge.tolist(), eid.tolist(), lo.tolist(), hi.tolist())
        ]
        want = [_edge_interval_ref(p, f, a, b, eps) for f, a, b in zip(segs[0].tolist(), *segs[1:])]
        assert _bits(got) == _bits(want), name
        checked += len(want)
        along += sum(w is not None for w in want)
    assert along > 5000 and checked - along > 5000, (checked, along)


def _dense_ranks(values, close):
    """Each value's rank among the distinct values, where a value within
    `close` above the one before it in sorted order is not distinct."""
    order = np.argsort(values, kind="stable")
    step = np.diff(np.asarray(values, dtype=float)[order]) >= close
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.concatenate([[0], np.cumsum(step)])
    return rank


def test_end_keys_rank_as_the_per_end_float_reference():
    """Axis-direction ends at every vertex, at sampled edges and at face
    points: per node, the keys rank the ends as the float fan angles do,
    ties included (angles within DIRECTION_TOL coincide), and the fan holds
    4 quarter turns (2 on the boundary) where its float total is within
    ANGLE_EPS of 2*pi (pi)."""
    rng = np.random.default_rng(13)
    checked = 0
    apart = set()
    for name, p in _fan_params():
        mesh = p.mesh
        uvt = tuple(tuple(map(tuple, tri)) for tri in p.uv.tolist())
        lengths = p.edge_lengths().tolist()
        ends = []  # (node key, chart face, axis direction)
        for v in range(len(mesh.vertices)):
            for h in mesh.vertex_fan(v):
                ends += [(("v", v), h // 3, d) for d in AXES
                         if any(_wedge_test(uvt, lengths, h // 3, h % 3, d))]
        for h in rng.permutation(mesh.n_halfedges)[:300].tolist():
            g, i = h // 3, h % 3
            side = p.uv[g, (i + 1) % 3] - p.uv[g, i]
            ends += [(("e", int(mesh.edge_id[h]), 0.5), g, d) for d in AXES
                     if side[0] * d[1] - side[1] * d[0] >= 0.0]
            ends += [(("f", g, 0.0, 0.0), g, d) for d in AXES]
        keys, faces, D = zip(*ends)
        key, total = _end_keys(p, _rows(keys), faces, np.array(D))
        ref = np.array([_end_angle_ref(p, k, f, d) for k, f, d in ends])
        boundary = np.array([k[0] == "v" and mesh.is_boundary_vertex[k[1]] or k[0] == "e"
                             and mesh.twin[mesh.edge_halfedge[k[1]]] == -1 for k in keys])
        regular = total == np.where(boundary, 4, 8)
        regular_ref = np.abs(ref[:, 1] - np.where(boundary, math.pi, TWO_PI)) < ANGLE_EPS
        at = defaultdict(list)
        for i, k in enumerate(keys):
            at[k].append(i)
        for k, mine in at.items():
            if not np.array_equal(_dense_ranks(key[mine], 1),
                                  _dense_ranks(ref[mine, 0], DIRECTION_TOL)):
                apart.add((name, k[0], "rank"))
            if regular[mine[0]] != regular_ref[mine[0]]:
                apart.add((name, k[0], "regular"))
        checked += len(ends)
    # The two part only on maps that fail Q1 or Q4.  FlipFace inverts a
    # triangle, whose wedge holds no axis though its float angle is
    # positive.  NudgeBoundary bends annulus_35's boundary vertex 8 to
    # pi - 0.001: it holds one quarter turn, yet its float total is within
    # ANGLE_EPS of pi.  The jitter moves float fan totals off pi and 2*pi,
    # by more or less than ANGLE_EPS, whatever axes the wedges hold.
    flipped = ["annulus_35", "flat_torus", "rectangle", "sheared_torus"]
    assert apart == {
        *((f"{n}/FlipFace", k, "rank") for n in flipped for k in "ev"),
        *((f"{n}/FlipFace", "v", "regular") for n in flipped),
        ("annulus_35/NudgeBoundary", "v", "regular"),
        *((f"{n}/jitter", "v", "regular") for n in ("annulus_35", "l_domain", *flipped[2:])),
    }, sorted(apart)
    assert checked > 20000


@pytest.mark.parametrize("key", [("e", 0, 0.5), ("v", 0)])
def test_an_end_whose_face_misses_its_node_is_a_degeneracy(key):
    p = fx("rectangle")
    mesh = p.mesh
    # a face away from edge 0 and vertex 0: the end's chart cannot hold its node
    face = next(f for f in range(len(mesh.faces))
                if 0 not in mesh.edge_id[3 * f:3 * f + 3] and 0 not in mesh.faces[f])
    want = (f"arc-end chart face {face} does not hold edge 0 of node {key}"
            if key[0] == "e" else
            f"arc-end chart face {face} is not in the fan of vertex 0")
    with pytest.raises(ArrangementDegeneracy, match=re.escape(want)):
        _end_keys(p, _rows([("f", 0, 0.0, 0.0), key]), [0, face], [[1.0, 0.0], [0.0, 1.0]])


def _oracle_segments(p):
    """The segment set the oracle arranges: boundary, then isolines."""
    return _concat(_boundary_segments_uv(p), _isoline_segments(p, 1))


def _arrangements(p):
    """(name, segment set): the integer-isoline arrangement the oracle
    builds, and the separatrix arrangement of `extract_layout` where its
    curves can be traced."""
    yield "oracle", _oracle_segments(p)
    try:
        segments = _separatrices(p, None)[1]
    except QlimError:
        return
    yield "extract", _concat(segments, _boundary_segments_uv(p))


def _keyed_ends(p, columns, ends):
    """The arc-end table's nodes and chart faces, each end's unit direction
    and its `_end_keys` (key, fan span)."""
    node, faces, P, Q = ends
    D = (Q - P) / _lengths(Q - P)[:, None]
    return node, faces, D, *_end_keys(p, columns["node_keys"][node], faces, D)


def _outcome(f, *args):
    try:
        return f(*args)
    except ArrangementDegeneracy as exc:
        return str(exc)


def _walk_params():
    """`_fan_params`, each fixture re-rooted by a quarter turn and a
    fractional translation, and the slid-boundary maps of
    `TestSlidBoundary`."""
    yield from _fan_params()
    for name in sorted(FIXTURES):
        yield f"{name}/reroot", apply_global_motion(fx(name), 1, (0.3, -1.7))
    for name in ("l_domain", "annulus_35"):
        for seed in range(4):
            yield f"{name}/slid{seed}", _slide_boundary(name, seed)


# The arrangements where the integer keys and the float fan angles part,
# each of a map that `extract_layout` and `layout_oracle_bruteforce` refuse
# before arranging it, with the keys' outcome: a refusal, or (walks, outer
# walks, {corners: kept patches}).
KEYED_APART = {
    ("annulus_35/FlipFace", "oracle"): "coincident arc directions at node ('v', 18)",
    ("flat_torus/FlipFace", "oracle"): "coincident arc directions at node ('v', 0)",
    ("sheared_torus/FlipFace", "oracle"): "coincident arc directions at node ('v', 5)",
    ("l_domain/jitter", "oracle"): "coincident arc directions at node ('v', 5)",
    ("annulus_35/jitter", "oracle"): (52, 3, {2: 39, 3: 1, 8: 7, 14: 1, 28: 1}),
    ("rectangle/jitter", "oracle"): (8, 1, {2: 5, 3: 1, 32: 1}),
}


def test_patch_walks_match_the_per_walk_reference():
    """`_trace_patches` on integer keys against `_trace_patches_ref` on
    float fan angles: the same refusal, or the same walks, wrap flags and
    corner counts of the kept (unwrapped) patches, with each node's ends in
    the same order up to rotation, and in the same order at a boundary
    node, whose first end marks the outer face."""
    walks = refusals = 0
    apart = {}
    for name, p in _walk_params():
        for kind, segments in _arrangements(p):
            try:
                columns, ends = _assemble(p, *_split_and_key(p, segments))
            except ArrangementDegeneracy:
                continue
            nodes, arcs = _records(columns)
            ref = _outcome(_trace_patches_ref, p, nodes, arcs)
            got = _outcome(_trace_patches, p, columns, ends)
            if not isinstance(got, str):
                darts, offsets, wrapped, corners = (x.tolist() for x in got)
                got = [
                    ([(d >> 1, 1 - 2 * (d & 1)) for d in darts[i:j]], w, None if w else c)
                    for i, j, w, c in zip(offsets, offsets[1:], wrapped, corners)
                ]
            if not isinstance(ref, str):
                ref_walks, pos = ref
                ref = [
                    ([(a, 1 if e == 0 else -1) for a, e in walk], wrapped,
                     None if wrapped else _count_corners_ref(nodes, walk, pos))
                    for walk, wrapped in ref_walks
                ]
            if got != ref:
                apart[(name, kind)] = got if isinstance(got, str) else (
                    len(got), sum(w for _, w, _ in got),
                    dict(sorted(Counter(c for _, w, c in got if not w).items())))
                continue
            if isinstance(got, str):
                refusals += 1
                continue
            node, _, _, key, _ = _keyed_ends(p, columns, ends)
            order = np.lexsort((key, node)).tolist()
            ref_order = sorted(range(len(order)), key=lambda d: pos[(d >> 1, d & 1)][:2])
            at = node[order].tolist()
            for n in set(at):
                mine = [d for d, m in zip(order, at) if m == n]
                theirs = [d for d, m in zip(ref_order, at) if m == n]
                k = 0 if nodes[n].is_boundary else theirs.index(mine[0])
                assert mine == theirs[k:] + theirs[:k], (name, kind, nodes[n].key)
            walks += len(got)
    assert apart == KEYED_APART
    # five refusals agree; the three FlipFace refusals name other nodes
    assert walks > 1000 and refusals == 5, (walks, refusals)


def test_split_and_key_matches_the_tuple_ranking_reference():
    # the re-rooted torus's oracle has equal keys that differ in a zero's
    # sign: its node 9 is named by +0.0, where it first ends a micro edge
    reroot = ("flat_torus/reroot", apply_global_motion(fx("flat_torus"), 1, (0.3, -1.7)))
    checked = 0
    for name, p in [*_fan_params(), reroot]:
        for kind, segments in _arrangements(p):
            keys, micro = _split_and_key(p, segments)
            want_keys, want_micro = _split_and_key_ref(p, segments)
            assert _bits([_key(row) for row in keys]) == _bits(want_keys), (name, kind)
            assert _bits([x.tolist() for x in micro]) == _bits([x.tolist() for x in want_micro])
            checked += len(want_keys)
            if (name, kind) == ("flat_torus/reroot", "oracle"):
                node_keys = _assemble(p, keys, micro)[0]["node_keys"]
                assert _bits(_key(node_keys[9])) == _bits(("f", 18, 0.2, 0.0))
    assert checked > 2000, checked


def test_every_oracle_patch_has_four_corners():
    params = [(name, fx(name)) for name in sorted(FIXTURES)]
    params += [(name, read_qlim(WORKLOADS[name]().text(0))) for name in sorted(WORKLOADS)]
    checked = 0
    for name, p in params:
        try:
            oracle = layout_oracle_bruteforce(p)
        except NotGridAligned:
            continue
        assert (oracle.patch_corners == 4).all(), name
        checked += len(oracle.patch_corners)
    assert checked > 1000


def test_the_arrangement_takes_no_per_point_norm(monkeypatch):
    p = fx("annulus_35")
    p.completion  # built once per param, calling no norm (0 counted here)
    calls = []
    norm = np.linalg.norm

    def counting_norm(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    layout = extract_layout(p)
    assert verify_coarsening(p, layout, layout_oracle_bruteforce(p))
    assert calls == []


def test_edge_parameters_round_as_numpy_rounds_a_numpy_float():
    # t = 0.3972363295 lies so near a tie at 9 decimals that Python's round
    # (0.397236329) and numpy's (0.39723633) part: the per-point key rounds
    # a numpy float, so the batched key must round as numpy does
    p = fx("rectangle", a=3.0, b=2.0)
    assert p.uv[0, :2].tolist() == [[0.0, 0.0], [1.0, 0.0]]
    x = 0.3972363295
    point = np.array([[x, 0.0]])  # on edge 0 of face 0, where t == u exactly
    want = _quotient_key_ref(p, 0, point[0])
    assert _bits([_key(row) for row in _quotient_keys(p, [0], point)]) == _bits([want])
    assert want[2] == 0.39723633 != round(x, tolerances.KEY_DECIMALS)
