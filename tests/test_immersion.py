import gc
import math
import os
import sys
import weakref

import numpy as np
import pytest

import qlim.immersion
import qlim.tolerances
from qlim.errors import NonQuantizedCone, QlimError, ZeroAreaFace
from qlim.immersion import (
    ConeRecord,
    PropertyResult,
    SeamTransition,
    SeamlessParam,
    _chart_mismatches,
    charts_agree,
    _jacobian_bounds,
    _jacobian_screen,
    apply_global_motion,
    check_gauss_bonnet,
    detect_cones,
    grid_misalignment,
    validate_immersion,
)
from qlim.layout import extract_layout, layout_oracle_bruteforce
from qlim.mesh import SurfacePoint, TriMesh, build_halfedge, topology_info
from qlim.qlimio import read_qlim
from qlim.svg import export_svg
from qlim.synth import FIXTURES, PERTURB_KINDS, fixture, perturb
from qlim.tracer import _tracer, trace_quotient_curve, validate_q5

from meshes import completion_mesh, walk_vertex_fan

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import WORKLOADS  # noqa: E402

TWO_PI = 2 * math.pi


def _apply(t, p):
    """The seam transition `t` applied to the UV point(s) `p`."""
    R = qlim.immersion.ROTS[t.rotation]
    return np.asarray(p, dtype=float) @ R.T + np.asarray(t.translation)


def flat_disk_param(n=3):
    """Trivial seam-free parameterization of a planar grid disk."""
    from meshes import grid_disk

    mesh = grid_disk(n, n)
    uv = mesh.vertices[mesh.faces][:, :, :2]
    return SeamlessParam(mesh, uv, {})


class TestSeamTransition:
    def test_inverse_round_trip(self):
        t = SeamTransition(3, (1.25, -2.0))
        p = np.array([0.3, 0.7])
        assert np.allclose(_apply(t.inverse(), _apply(t, p)), p)

    def test_compose(self):
        a = SeamTransition(1, (1.0, 0.0))
        b = SeamTransition(2, (0.0, 3.0))
        p = np.array([0.5, -0.25])
        assert np.allclose(_apply(a.compose(b), p), _apply(a, _apply(b, p)))

    def test_inverse_rotation_pairing(self):
        for j in range(4):
            t = SeamTransition(j, (0.5, 1.5))
            assert t.inverse().rotation == (4 - j) % 4


def _param(name, uv=None, seams=None):
    p = fixture(name)
    return SeamlessParam(p.mesh, p.uv if uv is None else uv, p.seams if seams is None else seams)


# flat_torus has 24 faces, and halfedges 13 and 23 are the two sides of a
# seam; halfedge 0 of rectangle lies on its boundary
@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: _param("flat_torus", uv=np.zeros((23, 3, 2))),
                     r"^uv must have shape \(24, 3, 2\)$", id="uv-shape"),
        pytest.param(lambda: _param("flat_torus", seams={13: (0, (0.0, 0.0))}),
                     "^seam values must be SeamTransition$", id="not-a-transition"),
        pytest.param(lambda: _param("rectangle", seams={0: SeamTransition(0, (0.0, 0.0))}),
                     "^seam halfedge 0 is not an interior halfedge$", id="boundary-seam"),
        pytest.param(lambda: _param("flat_torus", seams={13: SeamTransition(0, (0.0, 0.0))}),
                     "^seam halfedge 13 lacks its opposite record$", id="no-opposite"),
        pytest.param(lambda: SeamTransition(0, (1.0, 2.0, 3.0)),
                     "^translation must be a 2-vector$", id="translation-length"),
    ],
)
def test_input_refusals(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestConeDetection:
    def test_flat_disk_has_no_interior_cones(self):
        p = flat_disk_param()
        records = detect_cones(p)
        assert all(r.location == "boundary" for r in records)
        # square corners are m=1 boundary cones
        corner_ms = sorted(r.m for r in records)
        assert corner_ms == [1, 1, 1, 1]

    def test_rectangle_corner_cones(self):
        p = fixture("rectangle")
        records = detect_cones(p)
        assert sorted((r.location, r.m) for r in records) == [("boundary", 1)] * 4

    def test_l_domain_reflex_corner(self):
        p = fixture("l_domain")
        records = detect_cones(p)
        ms = sorted(r.m for r in records if r.location == "boundary")
        assert ms == [1, 1, 1, 1, 1, 3]

    def test_non_quantized_angle_rejected(self):
        p = flat_disk_param()
        uv = p.uv.copy()
        # shear the whole chart: corners are no longer multiples of pi/2
        shear = np.array([[1.0, 0.4], [0.0, 1.0]])
        uv = uv @ shear.T
        with pytest.raises(NonQuantizedCone):
            detect_cones(SeamlessParam(p.mesh, uv, {}))


def _bits(*xs):
    return [float(x).hex() for x in xs]


@pytest.mark.parametrize("m", range(1, 9))
def test_cone_record_angle_and_defect_match_the_formulas_they_replace(m):
    inner, border = ConeRecord(0, "interior", m), ConeRecord(0, "boundary", m)
    got = _bits(inner.angle, inner.defect, border.angle, border.defect)
    # cone_scan
    assert got == _bits(
        m * math.pi / 2.0, 2.0 * math.pi - m * math.pi / 2.0,
        m * math.pi / 2.0, math.pi - m * math.pi / 2.0,
    )
    # read_qlim
    angle = m * np.pi / 2
    assert got == _bits(angle, 2 * np.pi - angle, angle, np.pi - angle)
    # AbstractQuadComplex.cone_records
    assert got == _bits(
        m * math.pi / 2, 2 * math.pi - m * math.pi / 2,
        m * math.pi / 2, math.pi - m * math.pi / 2,
    )


class TestGaussBonnet:
    @pytest.mark.parametrize(
        "name", ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]
    )
    def test_residual_below_tolerance(self, name):
        p = fixture(name)
        residual = check_gauss_bonnet(detect_cones(p), topology_info(p.mesh))
        assert abs(residual) < 1e-9

    def test_l_domain_defect_arithmetic(self):
        # five convex corners (+pi/2) and one reflex corner (-pi/2) sum to
        # 2*pi for a disk
        p = fixture("l_domain")
        records = detect_cones(p)
        assert abs(sum(r.defect for r in records) - TWO_PI) < 1e-12

    def test_missing_record_breaks_balance(self):
        p = fixture("l_domain")
        records = [r for r in detect_cones(p) if r.m != 3]
        residual = check_gauss_bonnet(records, topology_info(p.mesh))
        # dropping the m=3 record removes its -pi/2 defect from the sum
        assert abs(residual - math.pi / 2) < 1e-12

    def test_a_disk_with_no_detected_cone_fails_gauss_bonnet(self):
        # a fan over a regular 700-gon, UV = xy: each rim angle pi - 2*pi/700
        # lies within CONE_DETECT_TOL of pi, so no cone is detected and the
        # disk's defects sum to 0 instead of 2*pi
        n = 700
        rim = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
        xy = np.array([(0.0, 0.0)] + rim)
        faces = [(0, 1 + k, 1 + (k + 1) % n) for k in range(n)]
        mesh = build_halfedge(np.column_stack([xy, np.zeros(n + 1)]), faces)
        report = validate_immersion(SeamlessParam(mesh, xy[mesh.faces], {}))
        assert report.cones == []
        assert report.failed_properties() == ["q4", "gauss_bonnet"]
        assert report.gauss_bonnet.violations == [{"measured": -TWO_PI, "expected": 0.0}]


class TestSeamFit:
    def test_torus_seams_recovered(self):
        p = fixture("flat_torus")
        fits = _reported_fits(p)
        assert sorted(fits) == list(range(len(p.cut_graph.arcs)))
        for a, arc in enumerate(p.cut_graph.arcs):
            assert fits[a] == _seam_transition_fit_ref(p, arc)
            stored = p.seams[arc.halfedges[0]]
            assert fits[a].rotation == stored.rotation
            assert np.allclose(fits[a].translation, stored.translation)

    def test_deviations_are_tiny_on_valid_fixture(self):
        p = fixture("sheared_torus")
        fits = _reported_fits(p)
        for a, arc in enumerate(p.cut_graph.arcs):
            assert fits[a] == _seam_transition_fit_ref(p, arc)
            for h in arc.halfedges:
                # the fit carries each twin-side end onto the face side
                f, i = divmod(h, 3)
                tf, ti = divmod(int(p.mesh.twin[h]), 3)
                for face_side, twin_side in [
                    (p.uv[f, i], p.uv[tf, (ti + 1) % 3]),
                    (p.uv[f, (i + 1) % 3], p.uv[tf, ti]),
                ]:
                    assert np.linalg.norm(_apply(fits[a], twin_side) - face_side) < 1e-9

    def test_a_kink_along_an_arc_is_inconsistent(self):
        kinked = _kinked_torus()
        got = validate_immersion(kinked).q3.violations
        assert repr(got) == repr(_q3_ref(kinked))
        # the moved corner also ends arc 1's first halfedge
        assert [(v["arc"], v["measured"][:45]) for v in got] == [
            (0, "transition varies along arc at halfedge 37 (d"),
            (1, "no quarter-turn rotation matches halfedge 66 "),
        ]

    def test_a_seam_that_is_not_its_twins_inverse_fails_q3(self):
        p = fixture("flat_torus")
        seams = dict(p.seams)
        back = int(p.mesh.twin[min(seams)])
        r, (tu, tv) = seams[back].rotation, seams[back].translation
        seams[back] = SeamTransition(r, (tu + 0.5, tv))
        report = validate_immersion(SeamlessParam(p.mesh, p.uv, seams))
        assert report.failed_properties() == ["q3"]
        assert [v["halfedge"] for v in report.q3.violations] == [13, 23]
        assert all(
            v["expected"] == "inverse of the opposite transition"
            for v in report.q3.violations
        )


class TestHolonomy:
    def test_expected_residues(self):
        # a cone of angle m*pi/2 wants holonomy (4 - m) % 4; breaking one
        # seam pair's rotation makes validate report what each vertex wants
        p = fixture("annulus_35")
        m = {c.vertex: c.m for c in detect_cones(p)}
        assert sorted(m.values()) == [3, 5]
        h = min(p.seams)
        t = p.seams[h]
        seams = {**p.seams, h: SeamTransition(t.rotation + 1, t.translation)}
        seams[int(p.mesh.twin[h])] = seams[h].inverse()
        q = SeamlessParam(p.mesh, p.uv, seams)
        got = validate_immersion(q).holonomy.violations
        assert repr(got) == repr(_holonomy_ref(q))
        assert got
        for v in got:
            assert v["expected"] == {3: 1, 5: 3}.get(m.get(v["vertex"]), 0)
            assert v["measured"] == _vertex_holonomy_ref(q, v["vertex"])

    def test_annulus_cone_holonomy(self):
        p = fixture("annulus_35")
        for rec in detect_cones(p):
            assert rec.location == "interior"
            assert _vertex_holonomy_ref(p, rec.vertex) == (4 - rec.m) % 4
        assert validate_immersion(p).holonomy.violations == _holonomy_ref(p) == []

    def test_regular_cut_vertices_have_zero_holonomy(self):
        p = fixture("flat_torus")
        cut_vertices = {int(v) for e in p.cut_edges for v in p.mesh.edges[e]}
        for v in cut_vertices:
            assert _vertex_holonomy_ref(p, v) == 0
        assert validate_immersion(p).holonomy.violations == _holonomy_ref(p) == []


class TestValidateImmersion:
    @pytest.mark.parametrize(
        "name", ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]
    )
    def test_fixtures_pass(self, name):
        report = validate_immersion(fixture(name))
        assert report.passed, report.failed_properties()
        assert report.jacobian_min > 0

    def test_report_lists_cones(self):
        report = validate_immersion(fixture("annulus_35"))
        assert sorted((c.location, c.m) for c in report.cones) == [
            ("interior", 3),
            ("interior", 5),
        ]

    def test_declared_cone_mismatch_fails_q2(self):
        p = fixture("rectangle")
        wrong = [r for r in detect_cones(p)][:-1]  # drop one declaration
        p2 = SeamlessParam(p.mesh, p.uv, p.seams, declared_cones=wrong)
        report = validate_immersion(p2)
        assert report.failed_properties() == ["q2"]


class TestGlobalMotion:
    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_rerooting_preserves_validity(self, j):
        p = fixture("annulus_35")
        moved = apply_global_motion(p, j, (2.0, -1.0))
        report = validate_immersion(moved)
        assert report.passed, report.failed_properties()

    def test_rerooting_preserves_cones(self):
        p = fixture("l_domain")
        moved = apply_global_motion(p, 1, (0.5, 0.25))
        before = sorted((r.vertex, r.location, r.m) for r in detect_cones(p))
        after = sorted((r.vertex, r.location, r.m) for r in detect_cones(moved))
        assert before == after


class TestIntegerGrid:
    def test_irrational_rectangle_not_grid_aligned(self):
        p = fixture("rectangle")  # sides sqrt(2) x sqrt(3)
        assert validate_immersion(p).passed
        assert grid_misalignment(p) is not None

    def test_unit_fixtures_are_grid_aligned(self):
        assert grid_misalignment(fixture("l_domain")) is None
        assert grid_misalignment(fixture("annulus_35")) is None

    def test_seam_translations_must_be_integral(self):
        assert grid_misalignment(fixture("flat_torus")) is None
        p = fixture("sheared_torus")  # one seam translates by (sqrt 2, 3)
        assert p.seams[28].translation == (2 ** 0.5, 3.0)
        assert grid_misalignment(p) is not None
        assert grid_misalignment(p) == (
            "seam translation (1.4142135623730951, 3.0) on halfedge 28 is not integral"
        )

    def test_cone_reason_is_unchanged(self):
        assert grid_misalignment(fixture("rectangle")) == (
            "cone images do not lie on the integer grid"
        )

    def test_misalignment_matches_the_per_copy_walk(self):
        reasons = set()
        for name, p in _per_copy_cases():
            for q in (p, apply_global_motion(p, 1, (0.5, 0.0))):
                want = _outcome(_grid_misalignment_ref, q)
                assert _outcome(grid_misalignment, q) == want, name
                if isinstance(want, str):
                    reasons.add(want.split()[0])
        assert reasons == {"cone", "seam"}
        # one corner of a cone vertex off the grid, one corner at a time
        moved = 0
        for name in ("l_domain", "annulus_35"):
            p = fixture(name)
            for v in p.cone_vertices():
                for h in np.flatnonzero(p.mesh.faces.ravel() == v).tolist():
                    uv = np.array(p.uv)
                    uv[h // 3, h % 3, moved % 2] += 1e-5
                    q = SeamlessParam(p.mesh, uv, p.seams)
                    assert q.cone_vertices() == p.cone_vertices()
                    assert grid_misalignment(q) == _grid_misalignment_ref(q) == (
                        "cone images do not lie on the integer grid"
                    ), (name, h)
                    moved += 1
        assert moved > 20


def test_reindexing_invariance():
    """Relabeling mesh vertices does not change validation outcomes."""
    p = fixture("l_domain")
    mesh = p.mesh
    n = len(mesh.vertices)
    rng = np.random.default_rng(7)
    perm = rng.permutation(n)
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    mesh2 = build_halfedge(mesh.vertices[perm], inv[mesh.faces])
    # faces keep their ids, so uv and seams carry over unchanged
    p2 = SeamlessParam(mesh2, p.uv, p.seams)
    report = validate_immersion(p2)
    assert report.passed, report.failed_properties()
    before = sorted((r.location, r.m) for r in detect_cones(p))
    after = sorted((r.location, r.m) for r in detect_cones(p2))
    assert before == after


def _jacobian_bounds_per_face(param, masked):
    """Reference: the face-by-face loop the stacked `_jacobian_bounds`
    replaced.  The two must agree bit for bit."""
    mesh = param.mesh
    jmin, jmax = np.inf, 0.0
    for f in range(len(mesh.faces)):
        if f in masked:
            continue
        p = mesh.vertices[mesh.faces[f]]
        a = p[1] - p[0]
        b = p[2] - p[0]
        u1 = a / np.linalg.norm(a)
        n = np.cross(a, b)
        nn = np.linalg.norm(n)
        if nn == 0:
            continue
        u2 = np.cross(n / nn, u1)
        E = np.array([[a @ u1, b @ u1], [a @ u2, b @ u2]])
        U = np.column_stack(
            [param.uv[f, 1] - param.uv[f, 0], param.uv[f, 2] - param.uv[f, 0]]
        )
        try:
            J = U @ np.linalg.inv(E)
        except np.linalg.LinAlgError:
            continue
        s = np.linalg.svd(J, compute_uv=False)
        jmin = min(jmin, float(s[-1]))
        jmax = max(jmax, float(s[0]))
    if not np.isfinite(jmin):
        jmin = 0.0
    return jmin, jmax


def _parametric_angle_per_corner(param, cmesh, cv):
    """Reference: the corner-by-corner loop the cached `copy_angles`
    replaced.  The two must agree bit for bit."""
    scale = param.uv_scale()
    total = 0.0
    for h in cmesh.vertex_fan(cv):
        f, i = h // 3, h % 3
        a = param.uv[f, (i + 1) % 3] - param.uv[f, i]
        b = param.uv[f, (i + 2) % 3] - param.uv[f, i]
        cross = a[0] * b[1] - a[1] * b[0]
        if abs(cross) <= 1e-16 * scale * scale:
            raise ZeroAreaFace(f"face {f} has (near) zero UV area")
        total += math.atan2(abs(cross), float(np.dot(a, b)))
    return total


def _chart_mismatches_per_edge(param, masked):
    """Reference: the edge-by-edge Q2 chart-consistency loop the stacked
    `_chart_mismatches` replaced, as (edges, d1, d2) lists."""
    mesh, uv = param.mesh, param.uv
    edges, d1s, d2s = [], [], []
    for e in range(mesh.n_edges):
        h = int(mesh.edge_halfedge[e])
        th = int(mesh.twin[h])
        if th == -1 or e in param.cut_edges:
            continue
        if (h // 3) in masked or (th // 3) in masked:
            continue
        f, i = h // 3, h % 3
        tf, ti = th // 3, th % 3
        edges.append(e)
        d1s.append(float(np.linalg.norm(uv[f, i] - uv[tf, (ti + 1) % 3])))
        d2s.append(float(np.linalg.norm(uv[f, (i + 1) % 3] - uv[tf, ti])))
    return edges, d1s, d2s


def _flipped_faces(param):
    """The faces Q1 masks: UV determinant <= 0."""
    e1 = param.uv[:, 1] - param.uv[:, 0]
    e2 = param.uv[:, 2] - param.uv[:, 0]
    dets = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    return {int(f) for f in np.nonzero(dets <= 0)[0]}


def _corner_angle_ref(param, h):
    """Reference: (angle, tiny), the unsigned UV wedge angle at corner
    h = 3*f + i, one corner at a time, and whether its wedge has (near)
    zero area."""
    f, i = h // 3, h % 3
    a = param.uv[f, (i + 1) % 3] - param.uv[f, i]
    b = param.uv[f, (i + 2) % 3] - param.uv[f, i]
    cross = abs(a[0] * b[1] - a[1] * b[0])
    scale = param.uv_scale()
    tiny = cross <= qlim.tolerances.ZERO_AREA * scale * scale
    return math.atan2(cross, float(np.dot(a, b))), tiny


def _wedge_angle_sum_ref(param, corners):
    """Reference: the sum of the wedge angles at `corners`, in their order,
    raising at the first (near) zero-area wedge."""
    total = 0.0
    for h in corners:
        angle, tiny = _corner_angle_ref(param, h)
        if tiny:
            raise ZeroAreaFace(f"face {h // 3} has (near) zero UV area")
        total += angle
    return total


def _cone_scan_ref(param, masked=frozenset()):
    """Reference: the vertex-by-vertex cone scan that the cached
    `copy_angles()` replaced, walking and summing every copy's fan."""
    comp, mesh = param.completion, param.mesh
    cmesh = completion_mesh(mesh, comp)
    records, violations = [], []
    for v in range(len(mesh.vertices)):
        if masked and any((h // 3) in masked for h in walk_vertex_fan(mesh, v)):
            continue
        phi = 0.0
        for cv in np.flatnonzero(comp.vertex_map == v).tolist():
            phi += _wedge_angle_sum_ref(param, walk_vertex_fan(cmesh, cv))
        boundary = bool(mesh.is_boundary_vertex[v])
        regular = math.pi if boundary else 2.0 * math.pi
        if abs(phi - regular) <= qlim.tolerances.CONE_DETECT_TOL:
            continue
        m = int(round(phi / (math.pi / 2.0)))
        err = abs(phi - m * math.pi / 2.0)
        if err > qlim.tolerances.CONE_DETECT_TOL or m < 1:
            violations.append(
                {
                    "vertex": v,
                    "measured": phi,
                    "expected": m * math.pi / 2.0,
                    "reason": "non-quantized cone angle" if m >= 1 else "polar cone",
                }
            )
            continue
        records.append(ConeRecord(v, "boundary" if boundary else "interior", m))
    return records, violations


def _q1_ref(param):
    """Reference: Q1's violations from the determinant test and the
    copy-by-copy loop that walked and summed every copy's fan."""
    q1 = PropertyResult()
    masked = _flipped_faces(param)
    e1 = param.uv[:, 1] - param.uv[:, 0]
    e2 = param.uv[:, 2] - param.uv[:, 0]
    dets = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    for f in sorted(masked):
        q1.fail(face=f, measured=float(dets[f]), expected="positive UV area")
    comp = param.completion
    cmesh = completion_mesh(param.mesh, comp)
    skip = {c.vertex for c in _cone_scan_ref(param)[0]} | param.cut_graph.nodes
    for cv, ov in enumerate(comp.vertex_map.tolist()):
        if ov in skip:
            continue
        corners = walk_vertex_fan(cmesh, cv)
        if not corners or any((h // 3) in masked for h in corners):
            continue
        try:
            theta = _wedge_angle_sum_ref(param, corners)
        except ZeroAreaFace:
            continue
        if cmesh.is_boundary_vertex[cv]:
            if theta >= 2.0 * math.pi - qlim.tolerances.ANGLE_TOL:
                q1.fail(
                    completion_vertex=cv,
                    measured=theta,
                    expected="copy angle < 2*pi (locally injective)",
                )
        elif abs(theta - 2.0 * math.pi) > qlim.tolerances.ANGLE_TOL:
            q1.fail(completion_vertex=cv, measured=theta, expected=2.0 * math.pi)
    return q1.violations


def _transition_distance_ref(a, b):
    if a.rotation != b.rotation:
        return np.inf
    return float(np.linalg.norm(np.asarray(a.translation) - np.asarray(b.translation)))


def _seam_transition_fit_ref(param, arc):
    """Reference: the arc-by-arc fit that Q3 stacks.  The quarter-turn rigid
    map carrying the twin-side UVs of the arc's first halfedge onto its face
    side, or the message of the arc-wide failure: no turn fits, or the fit
    misses a corner further along."""
    mesh = param.mesh
    tol = qlim.tolerances.REL_TOL * param.uv_scale()
    fit = None
    for h in arc.halfedges:
        th = int(mesh.twin[h])
        f, i = h // 3, h % 3
        p_a = param.uv[f, i]  # at src(h)
        p_b = param.uv[f, (i + 1) % 3]  # at dst(h)
        tf, ti = th // 3, th % 3
        q_a = param.uv[tf, (ti + 1) % 3]  # at src(h), twin side
        q_b = param.uv[tf, ti]  # at dst(h), twin side
        if fit is None:
            vp = p_b - p_a
            vq = q_b - q_a
            best, best_err = None, np.inf
            for j in range(4):
                err = float(np.linalg.norm(qlim.immersion.ROTS[j] @ vq - vp))
                if err < best_err:
                    best, best_err = j, err
            if best_err > tol:
                return (
                    f"no quarter-turn rotation matches halfedge {h} "
                    f"(best residual {best_err:.3e})"
                )
            t = p_a - qlim.immersion.ROTS[best] @ q_a
            fit = SeamTransition(best, tuple(t))
        err = max(
            float(np.linalg.norm(_apply(fit, q_a) - p_a)),
            float(np.linalg.norm(_apply(fit, q_b) - p_b)),
        )
        if err > tol:
            return f"transition varies along arc at halfedge {h} (deviation {err:.3e})"
    return fit


def _q3_ref(param):
    """Reference: Q3's violations from the per-arc fit, the per-halfedge
    check of each stored record against it, and the per-seam check of each
    record against the inverse of its opposite."""
    q3 = PropertyResult()
    tol = qlim.tolerances.REL_TOL * param.uv_scale()
    for aidx, arc in enumerate(param.cut_graph.arcs):
        fit = _seam_transition_fit_ref(param, arc)
        if isinstance(fit, str):
            q3.fail(arc=aidx, measured=fit, expected="constant rigid quarter-turn map")
            continue
        for h in arc.halfedges:
            stored = param.seams[h]
            if _transition_distance_ref(stored, fit) > tol:
                q3.fail(
                    arc=aidx,
                    halfedge=int(h),
                    measured=(stored.rotation, stored.translation),
                    expected=(fit.rotation, fit.translation),
                )
    for h, t in param.seams.items():
        back = param.seams[int(param.mesh.twin[h])]
        if _transition_distance_ref(back, t.inverse()) > tol:
            q3.fail(
                halfedge=int(h),
                measured=(back.rotation, back.translation),
                expected="inverse of the opposite transition",
            )
    return q3.violations


def _vertex_holonomy_ref(param, vertex):
    """Reference: the mod-4 sum of seam rotations around an interior
    vertex's fan."""
    mesh = param.mesh
    total = 0
    for g in mesh.vertex_fan(vertex):
        # crossing into face(g) from the fan's previous face; the shared
        # edge's halfedge on the entered side is g itself
        if int(mesh.edge_id[g]) in param.cut_edges:
            total += param.seams[g].rotation
    return total % 4


def _holonomy_ref(param):
    """Reference: holonomy's violations from the vertex-by-vertex fan walk
    over the interior vertices on the cut, each against (4 - m) % 4 for a
    cone of angle m*pi/2 (m = 4 off the cones)."""
    hol = PropertyResult()
    mesh = param.mesh
    records = param.cone_scan(masked=frozenset(_flipped_faces(param)))[0]
    m_by_vertex = {c.vertex: c.m for c in records}
    on_cut = set(mesh.edges[sorted(param.cut_edges)].ravel().tolist())
    for v, boundary in enumerate(mesh.is_boundary_vertex.tolist()):
        if boundary or v not in on_cut:
            continue  # single chart, trivially zero
        r = _vertex_holonomy_ref(param, v)
        want = (4 - m_by_vertex.get(v, 4)) % 4
        if r != want:
            hol.fail(vertex=int(v), measured=r, expected=want)
    return hol.violations


def _identity_seams(param):
    """`param` with every seam record the identity, so that Q3 reports the
    fit of every arc whose true transition is not."""
    ident = {h: SeamTransition(0, (0.0, 0.0)) for h in param.seams}
    return SeamlessParam(param.mesh, param.uv, ident)


def _reported_fits(param):
    """Each arc's fit as Q3 reports it, {arc: SeamTransition}."""
    q3 = validate_immersion(_identity_seams(param)).q3
    return {v["arc"]: SeamTransition(*v["expected"]) for v in q3.violations}


def _kinked_torus():
    """`flat_torus` with the twin side of its first arc's last halfedge
    (37) moved, so the arc's transition changes along it."""
    p = fixture("flat_torus")
    tf, ti = divmod(int(p.mesh.twin[p.cut_graph.arcs[0].halfedges[-1]]), 3)
    uv = p.uv.copy()
    uv[tf, ti] += (0.0, 0.01)
    return SeamlessParam(p.mesh, uv, p.seams)


def _unfit_torus():
    """`flat_torus` with the twin side of its first arc's first halfedge
    stretched, so no quarter turn carries it onto the face side."""
    p = fixture("flat_torus")
    tf, ti = divmod(int(p.mesh.twin[p.cut_graph.arcs[0].halfedges[0]]), 3)
    uv = p.uv.copy()
    uv[tf, ti] += (0.01, 0.01)
    return SeamlessParam(p.mesh, uv, p.seams)



def _tied_torus():
    """`flat_torus` with both sides of its first arc's first halfedge cut to
    2**-24 of a unit, the face side along (1, 1) and the twin side along
    (2, 0): quarter turns 0 and 1 then fit with bit-equal residuals."""
    p = fixture("flat_torus")
    h = p.cut_graph.arcs[0].halfedges[0]
    (f, i), (tf, ti) = divmod(h, 3), divmod(int(p.mesh.twin[h]), 3)
    a = 2.0**-24
    uv = p.uv.copy()
    uv[f, (i + 1) % 3] = uv[f, i] + (a, a)
    uv[tf, ti] = uv[tf, (ti + 1) % 3] + (2 * a, 0.0)
    return SeamlessParam(p.mesh, uv, p.seams)


def _off_cut_cone_torus():
    """`flat_torus` with two pi/4 corners at vertex 0, which is off the cut,
    opened to pi/2: an m=5 cone in one chart, which holonomy skips."""
    p = fixture("flat_torus")
    uv = p.uv.copy()
    opened = 0
    for g in p.mesh.vertex_fan(0):
        f, i = divmod(g, 3)
        a, b = uv[f, (i + 1) % 3] - uv[f, i], uv[f, (i + 2) % 3] - uv[f, i]
        if opened < 2 and abs(math.atan2(a[0] * b[1] - a[1] * b[0], a @ b) - math.pi / 4) < 1e-12:
            uv[f, (i + 2) % 3] = uv[f, i] + (-a[1], a[0])
            opened += 1
    return SeamlessParam(p.mesh, uv, p.seams)

def _outcome(fn, *args):
    """fn's result, or the type and message of the QlimError it raises."""
    try:
        return fn(*args)
    except QlimError as exc:
        return type(exc), str(exc)


def _grid_misalignment_ref(param):
    """Reference: `grid_misalignment` walking every corner of each cone
    copy's fan, copy by copy, before the seams."""
    comp = param.completion
    cmesh = completion_mesh(param.mesh, comp)
    for cone in param.cone_scan()[0]:
        for cv in np.flatnonzero(comp.vertex_map == cone.vertex).tolist():
            for h in walk_vertex_fan(cmesh, cv):
                p = param.uv[h // 3, h % 3]
                off = max(abs(p[0] - round(p[0])), abs(p[1] - round(p[1])))
                if off > qlim.tolerances.GRID_TOL:
                    return "cone images do not lie on the integer grid"
    for h in sorted(param.seams):
        t = param.seams[h].translation
        if max(abs(x - round(x)) for x in t) > qlim.tolerances.GRID_TOL:
            return f"seam translation ({t[0]!r}, {t[1]!r}) on halfedge {h} is not integral"
    return None


def _collapsed_rectangle():
    """`rectangle` with face 5's UVs collapsed to one point."""
    p = fixture("rectangle")
    uv = np.array(p.uv)
    uv[5] = uv[5, 0]
    return SeamlessParam(p.mesh, uv, p.seams)


def _mismatched_seams():
    """`flat_torus` with one seam record moved off the inverse of its
    opposite, by translation and by rotation."""
    p = fixture("flat_torus")
    h = min(p.seams)
    t = p.seams[h]
    for bad in (
        SeamTransition(t.rotation, (t.translation[0] + 0.25, t.translation[1])),
        SeamTransition(t.rotation + 1, t.translation),
    ):
        yield SeamlessParam(p.mesh, p.uv, {**p.seams, h: bad})


def _fixtures_and_perturbations():
    for name in FIXTURES:
        yield name, fixture(name)
        for kind in PERTURB_KINDS:
            try:
                yield f"{name}/{kind}", perturb(fixture(name), kind)
            except QlimError:
                continue  # kind not applicable to this fixture


def _with_jittered_uvs():
    """The fixtures and their perturbations, then each fixture with every
    UV moved by a seeded random offset of 1e-4 of its UV diagonal, so that
    the arithmetic meets generic floats and not only grid values."""
    yield from _fixtures_and_perturbations()
    rng = np.random.default_rng(7)
    for name in sorted(FIXTURES):
        p = fixture(name)
        noise = rng.normal(scale=1e-4 * p.uv_scale(), size=p.uv.shape)
        yield f"{name}/jitter", SeamlessParam(p.mesh, p.uv + noise, p.seams)


def _per_copy_cases():
    """The fixtures with their perturbations and jitters, the collapsed-UV
    rectangle and the benchmark workloads."""
    yield from _with_jittered_uvs()
    yield "rectangle/collapsed", _collapsed_rectangle()
    for name in sorted(WORKLOADS):
        yield f"workload/{name}", read_qlim(WORKLOADS[name]().text(0))


def _random_cut_params():
    """Each fixture's map cut open along seeded random sets of interior
    edges, with identity seam records, in place of its own seams: copies
    that split fans at arbitrary places, open and one-edge slits.  Every UV
    moves by a random 1e-2 of the UV diagonal, so that most vertices are
    reported as non-quantized cones, each with its angle sum, whose bits
    depend on the order in which a vertex's three or more copies are
    added."""
    rng = np.random.default_rng(26)
    for name in sorted(FIXTURES):
        p = fixture(name)
        mesh = p.mesh
        interior = np.flatnonzero(mesh.twin[mesh.edge_halfedge] != -1)
        for i in range(4):
            k = int(rng.integers(1, min(40, len(interior)) + 1))
            seams = {}
            for e in rng.choice(interior, size=k, replace=False).tolist():
                h = int(mesh.edge_halfedge[e])
                seams[h] = seams[int(mesh.twin[h])] = SeamTransition(0, (0.0, 0.0))
            uv = p.uv + rng.normal(scale=1e-2 * p.uv_scale(), size=p.uv.shape)
            yield f"{name}/cut{i}", SeamlessParam(mesh, uv, seams)


def _collapsed_fan():
    """`annulus_35` with the UVs of two faces of one interior vertex's fan,
    not the first, each collapsed to a point: that vertex's copy has two
    (near) zero-area wedges, and the scan names the first in fan order."""
    p = fixture("annulus_35")
    v = next(v for v in range(len(p.mesh.vertices))
             if not p.mesh.is_boundary_vertex[v] and len(p.mesh.vertex_fan(v)) >= 4)
    uv = np.array(p.uv)
    for h in p.mesh.vertex_fan(v)[2:0:-1]:
        uv[h // 3] = uv[h // 3, 0]
    return SeamlessParam(p.mesh, uv, p.seams)


def _copy_angles_ref(param):
    """Reference: (total, tiny_face) as lists, walking each copy's fan in
    the completion mesh and adding its corners' angles one at a time."""
    cmesh = completion_mesh(param.mesh, param.completion)
    total, tiny_face = [], []
    for cv in range(len(cmesh.vertices)):
        theta, face = 0.0, -1
        for h in walk_vertex_fan(cmesh, cv):
            angle, tiny = _corner_angle_ref(param, h)
            if tiny and face < 0:
                face = h // 3
            theta += angle
        total.append(theta)
        tiny_face.append(face)
    return total, tiny_face


def _seam_cases():
    """The fixtures with their perturbations and jitters, each fixture
    re-rooted, the mismatched seams, and the kinked, unfit, tied and
    off-cut-cone tori."""
    yield from _with_jittered_uvs()
    for name in sorted(FIXTURES):
        yield f"{name}/reroot", apply_global_motion(fixture(name), 1, (0.3, -1.7))
    for i, q in enumerate(_mismatched_seams()):
        yield f"flat_torus/mismatch{i}", q
    yield "flat_torus/kink", _kinked_torus()
    yield "flat_torus/nofit", _unfit_torus()
    yield "flat_torus/tie", _tied_torus()
    yield "flat_torus/off-cut-cone", _off_cut_cone_torus()


def test_q3_and_holonomy_match_the_per_arc_and_per_vertex_reference():
    # with identity records Q3 reports every arc's fit, so the fitted
    # translations are compared bit for bit too
    kinds = set()
    cases = [(f"{name}{tag}", q) for name, p in _seam_cases()
             for tag, q in (("", p), ("/identity", _identity_seams(p)))]
    for name, p in cases:
        q3, hol = _q3_ref(p), _holonomy_ref(p)
        report = validate_immersion(p)
        got = (report.q3.violations, report.holonomy.violations)
        assert repr(got) == repr((q3, hol)), name
        for v in q3:
            if "arc" not in v:
                kinds.add("opposite")
            elif "halfedge" in v:
                kinds.add("stored")
            else:
                kinds.add(v["measured"].split()[0])
        kinds |= {"holonomy"} if hol else set()
    assert kinds == {"no", "transition", "stored", "opposite", "holonomy"}


class TestPerCopyAngles:
    def test_cone_scan_matches_the_per_vertex_reference(self):
        raised = set()
        for name, p in _per_copy_cases():
            masked = frozenset(_flipped_faces(p))
            for mask in (frozenset(), masked) if masked else (frozenset(),):
                want = _outcome(_cone_scan_ref, p, mask)
                assert _outcome(p.cone_scan, mask) == want, (name, sorted(mask))
                if isinstance(want[0], type):
                    raised.add((name, bool(mask)))
        assert raised == {("rectangle/collapsed", False)}

    def test_q1_matches_the_per_copy_reference(self):
        failing = set()
        for name, p in _per_copy_cases():
            want = _outcome(_q1_ref, p)
            got = _outcome(lambda: validate_immersion(p).q1.violations)
            assert got == want, name
            if want and not isinstance(want[0], type):
                failing.add(name)
        assert "rectangle/FlipFace" in failing

    def test_cut_cone_scan_and_q1_walk_no_fan_and_sum_once(self, monkeypatch):
        p = read_qlim(WORKLOADS["torus_periodic"]().text(0))

        def no_walk(mesh, v):
            raise AssertionError(f"walked the fan of vertex {v}")

        monkeypatch.setattr(TriMesh, "vertex_fan", no_walk)
        p.completion
        p.cone_scan()
        p.cone_scan(masked=frozenset({0}))
        sums = p.copy_angles()
        validate_immersion(p)
        assert p.copy_angles() is sums

    def test_copy_tables_angles_and_cone_scan_match_the_per_copy_walk(self):
        """`cut_mesh`'s fan table is the completion mesh's, and the column
        sums over it give every copy's angle, first tiny face and cone scan
        with the bits of the copy-by-copy walk."""
        cases = list(_per_copy_cases()) + list(_random_cut_params())
        cases.append(("annulus_35/collapsed-fan", _collapsed_fan()))
        cases += [(f"{name}/reroot{j}", apply_global_motion(fixture(name), j, (0.3, -1.7)))
                  for name in sorted(FIXTURES) for j in (1, 2)]
        tiny_seen = order_seen = 0
        for name, p in cases:
            comp = p.completion
            fan, offsets = comp.fans
            assert (fan.tolist(), offsets.tolist()) == completion_mesh(p.mesh, comp).vertex_fans(), name
            total, tiny_face = p.copy_angles()
            want_total, want_tiny = _copy_angles_ref(p)
            assert [x.hex() for x in total.tolist()] == [x.hex() for x in want_total], name
            assert tiny_face.tolist() == want_tiny, name
            tiny_seen += sum(f >= 0 for f in want_tiny)
            got, want = _outcome(p.cone_scan), _outcome(_cone_scan_ref, p)
            assert repr(got) == repr(want), name
            if not isinstance(want[0], type):
                copies = np.bincount(comp.vertex_map)
                for v in want[1]:
                    assert type(v["measured"]) is float, name
                    order_seen += copies[v["vertex"]] >= 3
        assert tiny_seen >= 3 and order_seen >= 20
        assert len(cases) > 50

    def test_sums_in_order_on_a_long_fan(self):
        # one run far longer than the rest, as a 700-gon fan gives: the
        # column pass adds its tail one position at a time, alone
        rng = np.random.default_rng(3)
        sizes = [700, 0, 3, 1, 0, 6]
        values = rng.random(sum(sizes)) * 10.0 ** rng.integers(-8, 8, sum(sizes))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        want = []
        for lo, hi in zip(offsets, offsets[1:]):
            theta = 0.0
            for x in values[lo:hi].tolist():
                theta += x
            want.append(theta)
        got = qlim.immersion._sums_in_order(values, offsets)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    def test_no_trimesh_is_built_after_the_parse(self, monkeypatch):
        """The completion is its copy tables, so validation, Q5, extraction,
        the oracle and SVG export build no `TriMesh` of their own."""
        builds = []
        build = TriMesh._build

        def counting_build(mesh):
            builds.append(len(mesh.faces))
            build(mesh)

        monkeypatch.setattr(TriMesh, "_build", counting_build)
        cases = [(name, lambda name=name: fixture(name), None) for name in sorted(FIXTURES)]
        cases += [(name, lambda w=WORKLOADS[name](): read_qlim(w.text(0)), WORKLOADS[name]().budget)
                  for name in sorted(WORKLOADS)]
        runs = {
            "validate": lambda p, budget: validate_immersion(p),
            "q5": lambda p, budget: validate_q5(p, budget=budget),
            "extract": lambda p, budget: extract_layout(p, budget=budget),
            "oracle": lambda p, budget: layout_oracle_bruteforce(p),
            "svg": lambda p, budget: export_svg(p),
        }
        answered = 0
        for name, make, budget in cases:
            for run_name, run in runs.items():
                p = make()
                assert builds, name  # the parse builds the mesh
                builds.clear()
                try:
                    run(p, budget)
                    answered += 1
                except QlimError:
                    pass
                assert builds == [], (name, run_name)
        assert answered >= 3 * len(cases)

    def test_seam_inverse_deviations_match_the_per_seam_loop(self):
        cases = list(_with_jittered_uvs())
        cases += [(f"flat_torus/mismatch{i}", q) for i, q in enumerate(_mismatched_seams())]
        failing = set()
        for name, p in cases:
            want = [v for v in _q3_ref(p) if "arc" not in v]
            got = [v for v in validate_immersion(p).q3.violations if "arc" not in v]
            assert repr(got) == repr(want), name
            if want:
                failing.add(name)
        # one by translation (a finite deviation), one by rotation
        assert {"flat_torus/mismatch0", "flat_torus/mismatch1"} <= failing

    def test_face_record_corners_equal_the_nested_conversion(self):
        for name, p in _with_jittered_uvs():
            tracer = _tracer(p)
            for f in range(len(p.mesh.faces)):
                corners, vertices = tracer.record(f)[:2]
                assert corners == tuple(map(tuple, p.uv[f].tolist())), (name, f)
                assert vertices == tuple(p.mesh.faces[f].tolist()), (name, f)
                assert {type(x) for q in corners for x in q} == {float}, (name, f)
            assert len(tracer.records) == len(p.mesh.faces), name

    def test_q5_builds_records_only_for_the_faces_it_traces(self):
        # validate_q5 on flat_torus 64x64 traces two transverse curves:
        # the param then holds records for their faces and the fans of the
        # vertices they pass, a few hundred of 8,192 faces
        p = fixture("flat_torus", w=64, h=64)
        assert not _tracer(p).records
        report = validate_q5(p)
        records = set(_tracer(p).records)
        traced = set()
        for axis in (0, 1):
            curve = trace_quotient_curve(p, SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3)), axis)
            traced |= set(curve.faces())
        assert records == set(_tracer(p).records)  # the retrace added none
        # every face with a corner on a traced face
        near = np.isin(p.mesh.faces, p.mesh.faces[sorted(traced)]).any(axis=1)
        assert traced <= records <= set(np.flatnonzero(near).tolist())
        assert report["passed"] and len(records) < 8192 // 16

    def test_a_param_shares_one_tracer_that_goes_with_it(self):
        p = fixture("flat_torus")
        validate_q5(p)
        tracer = weakref.ref(_tracer(p))
        assert _tracer(p) is tracer() and tracer().records
        del p
        gc.collect()
        assert tracer() is None


def _tilt(xyz):
    """xyz turned by 0.3 about z, then by 0.7 about x, out of every
    coordinate plane, so that the faces' Gram determinants round."""
    (c, s), (C, S) = (math.cos(0.3), math.sin(0.3)), (math.cos(0.7), math.sin(0.7))
    return np.asarray(xyz, dtype=float) @ np.array([[c, -s, 0], [C * s, C * c, -S], [S * s, S * c, C]]).T


SIMILARITY = np.array([[1.3, 0.4], [-0.4, 1.3]])


def _sliver_params():
    """(name, param, faces the screen must keep): a tilted unit square of
    two faces with a 3D sliver on each side.  Each face's UVs are a linear
    map of its corners' untilted x, y.
    - "both": slivers of width 1e-11, so of area 1.6 times the
      DEGENERACY_FACTOR bound, map by moderate maps between the square's
      two, so UV slivers with a tiny positive determinant meet 3D slivers;
    - "3d": they map to normal UV triangles;
    - "uv": a square face also maps to a UV sliver;
    - "tie": slivers of width 1e-5 and the square map by one similarity, so
      all four faces tie, and the slivers' estimates are off by far more
      than JACOBIAN_SLACK."""

    def square(w):
        xy = np.array([(0, 0), (1, 0), (0, 1), (1, 1), (1 + w, 0.5), (-w, 0.5)])
        mesh = build_halfedge(_tilt(np.column_stack([xy, np.zeros(6)])),
                              [(0, 1, 3), (0, 3, 2), (1, 4, 3), (0, 2, 5)])
        return mesh, xy[mesh.faces]

    mesh, xy = square(1e-11)
    low, high = np.array([[0.5, 0.1], [0.0, 0.6]]), np.array([[2.0, -0.3], [0.2, 2.5]])
    mid = [np.array([[1.0, 0.2], [-0.1, 1.2]]), np.array([[1.1, 0.0], [0.3, 0.9]])]
    both = np.stack([xy[f] @ A.T for f, A in enumerate([low, high] + mid)])
    yield "slivers/both", SeamlessParam(mesh, both, {}), [2, 3]
    normal = both.copy()
    normal[2:] = [[(0, 0), (1, 0), (0.5, 0.7)], [(0, 0), (0.4, -0.3), (0.3, 0.9)]]
    yield "slivers/3d", SeamlessParam(mesh, normal, {}), [2, 3]
    flat = normal.copy()
    flat[1] = [(0, 0), (1, 0), (1, 1e-9)]
    yield "slivers/uv", SeamlessParam(mesh, flat, {}), [1, 2, 3]
    mesh, xy = square(1e-5)
    yield "slivers/tie", SeamlessParam(mesh, xy @ SIMILARITY.T, {}), range(4)


class TestParamInvariants:
    def test_jacobian_bounds_match_per_face_loop_exactly(self):
        # beside the fixtures, the inputs the screen must send to the exact
        # pass: a tilted planar grid mapped by one similarity, where every
        # face ties within rounding, and the slivers, whose ill-conditioned
        # estimates it cannot trust
        flat = flat_disk_param(6)
        grid = SeamlessParam(build_halfedge(_tilt(flat.mesh.vertices), flat.mesh.faces),
                             flat.uv @ SIMILARITY.T, {})
        cases = [(name, p, []) for name, p in _with_jittered_uvs()]
        cases.append(("flat_torus 24x24", fixture("flat_torus", w=24, h=24), []))
        cases.append(("planar grid", grid, range(len(grid.mesh.faces))))
        cases.extend(_sliver_params())
        for name, p, exact in cases:
            masked = _flipped_faces(p)
            got = _jacobian_bounds(p, masked)
            assert got == _jacobian_bounds_per_face(p, masked), name
            assert set(exact) <= set(_jacobian_screen(p, masked).tolist()), name
        # the slivers of "both" hold neither extreme, so only their estimates
        # send them to the exact pass
        p = next(_sliver_params())[1]
        lo, hi = _jacobian_bounds_per_face(p, {2, 3})
        sliver_lo, sliver_hi = _jacobian_bounds_per_face(p, {0, 1})
        assert lo < sliver_lo <= sliver_hi < hi
        assert len(cases) > 3 * len(FIXTURES)

    def test_jacobian_bounds_send_few_faces_to_lapack(self, monkeypatch):
        # the screen's gain: a handful of faces reach the exact pass, where
        # the parent ran svd on every face
        rows = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda J, **kw: rows.append(len(J)) or svd(J, **kw))
        for p in (fixture("flat_torus", w=24, h=24), fixture("annulus_35")):
            rows.clear()
            _jacobian_bounds(p, _flipped_faces(p))
            assert len(rows) == 1 and 1 <= rows[0] <= 8, rows

    def test_parametric_angle_matches_per_corner_loop_exactly(self):
        # each copy's angle sum in `copy_angles`, or the face it names
        checked = 0
        for name, p in _with_jittered_uvs():
            cmesh = completion_mesh(p.mesh, p.completion)
            total, tiny_face = p.copy_angles()
            for cv in range(len(cmesh.vertices)):
                try:
                    want = _parametric_angle_per_corner(p, cmesh, cv)
                except ZeroAreaFace as exc:
                    assert str(exc) == f"face {tiny_face[cv]} has (near) zero UV area"
                    continue
                assert tiny_face[cv] == -1 and total[cv] == want, (name, cv)
                checked += 1
        assert checked > 300

    def test_collapsed_uv_raises_zero_area_face_naming_it(self):
        p = fixture("rectangle")
        uv = np.array(p.uv)
        uv[5] = uv[5, 0]
        q = SeamlessParam(p.mesh, uv, p.seams)
        cmesh = completion_mesh(q.mesh, q.completion)
        tiny_face = q.copy_angles()[1]
        for cv in cmesh.faces[5]:
            with pytest.raises(ZeroAreaFace, match="^face 5 has [(]near[)] zero UV area$"):
                _parametric_angle_per_corner(q, cmesh, cv)
            assert tiny_face[cv] == 5
        with pytest.raises(ZeroAreaFace, match="face 5 has"):
            q.cone_scan()

    def test_chart_check_matches_per_edge_loop_exactly(self):
        failing = set()
        for name, p in _with_jittered_uvs():
            masked = _flipped_faces(p)
            want = _chart_mismatches_per_edge(p, masked)
            edges, worst = _chart_mismatches(p, masked)
            assert edges.tolist() == want[0], name
            assert worst.tolist() == [max(d1, d2) for d1, d2 in zip(*want[1:])], name
            tol = qlim.tolerances.REL_TOL * p.uv_scale()
            fails = [
                {
                    "edge": e,
                    "measured": max(d1, d2),
                    "expected": "matching corner UVs across a non-seam edge",
                }
                for e, d1, d2 in zip(*want)
                if max(d1, d2) > tol
            ]
            got = [v for v in validate_immersion(p).q2.violations if "edge" in v]
            assert got == fails, name
            if fails:
                failing.add(name.split("/")[-1])
        assert {"ScaleWedge", "jitter"} <= failing

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-5, 0.02])
    def test_chart_failures_match_the_per_edge_loop_at_any_tolerance(self, monkeypatch, rel_tol):
        """Q2's chart failures, picked by one comparison, are the per-edge
        loop's `max(d1, d2) > tol` failures in edge order, each with that
        max as a Python float: at 0, which fails every mismatched edge, at
        one the jitter exceeds and at one only four edges exceed."""
        monkeypatch.setattr(qlim.tolerances, "REL_TOL", rel_tol)
        failing = 0
        for name, p in _with_jittered_uvs():
            tol = rel_tol * p.uv_scale()
            edges, d1s, d2s = _chart_mismatches_per_edge(p, _flipped_faces(p))
            want = [(e, max(d1, d2)) for e, d1, d2 in zip(edges, d1s, d2s) if max(d1, d2) > tol]
            got = [(v["edge"], v["measured"]) for v in validate_immersion(p).q2.violations
                   if "edge" in v]
            assert [(e, m.hex()) for e, m in got] == [(e, m.hex()) for e, m in want], name
            assert all(type(m) is float for _, m in got)
            failing += len(want)
        assert failing == {0.0: 112, 1e-5: 112, 0.02: 4}[rel_tol]

    def test_charts_agree_on_faces_as_the_per_edge_loop_does(self):
        """`charts_agree(param, faces)`: no edge of `faces` among the per-edge
        loop's Q2 failures, for every face alone and for runs of faces."""
        seen = set()
        for name, p in _with_jittered_uvs():
            tol = qlim.tolerances.REL_TOL * p.uv_scale()
            edges, d1s, d2s = _chart_mismatches_per_edge(p, set())
            bad = [e for e, d1, d2 in zip(edges, d1s, d2s) if max(d1, d2) > tol]
            h = p.mesh.edge_halfedge[bad]
            doubtful = set((h // 3).tolist()) | set((p.mesh.twin[h] // 3).tolist())
            n = len(p.mesh.faces)
            for faces in [[f] for f in range(n)] + [list(range(i, n, 7)) for i in range(7)]:
                want = not doubtful.intersection(faces)
                assert charts_agree(p, faces) == want, (name, faces)
                seen.add(want)
        assert seen == {True, False}

    def test_uv_is_read_only(self):
        p = fixture("annulus_35")
        with pytest.raises(ValueError):
            p.uv[0, 0, 0] = 1.0

    def test_uv_is_a_copy(self):
        p = fixture("rectangle")
        uv = np.array(p.uv)
        q = SeamlessParam(p.mesh, uv, p.seams)
        uv[0, 0, 0] += 1.0
        assert q.uv[0, 0, 0] == p.uv[0, 0, 0]

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_uv_scale_is_the_bounding_box_diagonal(self, name):
        p = fixture(name)
        flat = p.uv.reshape(-1, 2)
        span = flat.max(axis=0) - flat.min(axis=0)
        assert p.uv_scale() == float(np.hypot(span[0], span[1]))

    def test_edge_lengths_match_the_per_edge_norm_both_ways(self):
        checked = 0
        for name, p in _with_jittered_uvs():
            got = p.edge_lengths().tolist()
            for f, tri in enumerate(p.uv):
                for i in range(3):
                    a, b = tri[i], tri[(i + 1) % 3]
                    want = float(np.linalg.norm(b - a))
                    assert got[3 * f + i] == want == float(np.linalg.norm(a - b)), name
                    checked += 1
        assert checked > 1000

    def test_oracle_reduces_the_bounding_box_once(self, monkeypatch):
        p = fixture("flat_torus")
        p = SeamlessParam(p.mesh, p.uv, p.seams, declared_cones=p.declared_cones)
        calls = []
        hypot = qlim.immersion.np.hypot

        def counting_hypot(*args):
            calls.append(args)
            return hypot(*args)

        monkeypatch.setattr(qlim.immersion.np, "hypot", counting_hypot)
        layout_oracle_bruteforce(p)
        assert len(calls) == 1
