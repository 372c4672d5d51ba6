import math
import os
import sys

import numpy as np
import pytest

import qlim.immersion
import qlim.tolerances
from qlim.errors import InconsistentAlongArc, NonQuantizedCone, QlimError, ZeroAreaFace
from qlim.immersion import (
    ConeRecord,
    PropertyResult,
    SeamTransition,
    SeamlessParam,
    _chart_mismatches,
    _jacobian_bounds,
    _seam_inverse_deviations,
    _transition_distance,
    apply_global_motion,
    check_gauss_bonnet,
    cones_on_integer_grid,
    detect_cones,
    expected_holonomy,
    grid_misalignment,
    parametric_angle,
    seam_transition_fit,
    validate_immersion,
    vertex_holonomy,
)
from qlim.layout import layout_oracle_bruteforce
from qlim.mesh import TriMesh, build_halfedge, topology_info
from qlim.qlimio import read_qlim
from qlim.synth import FIXTURES, PERTURB_KINDS, fixture, perturb

from meshes import walk_vertex_fan

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import WORKLOADS  # noqa: E402

TWO_PI = 2 * math.pi


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
        assert np.allclose(t.inverse().apply(t.apply(p)), p)

    def test_compose(self):
        a = SeamTransition(1, (1.0, 0.0))
        b = SeamTransition(2, (0.0, 3.0))
        p = np.array([0.5, -0.25])
        assert np.allclose((a.compose(b)).apply(p), a.apply(b.apply(p)))

    def test_inverse_rotation_pairing(self):
        for j in range(4):
            t = SeamTransition(j, (0.5, 1.5))
            assert t.inverse().rotation == (4 - j) % 4


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


class TestSeamFit:
    def test_torus_seams_recovered(self):
        p = fixture("flat_torus")
        for arc in p.cut_graph.arcs:
            fit = seam_transition_fit(p, arc)
            stored = p.seams[arc.halfedges[0]]
            assert fit.rotation == stored.rotation
            assert np.allclose(fit.translation, stored.translation)

    def test_deviations_are_tiny_on_valid_fixture(self):
        p = fixture("sheared_torus")
        for arc in p.cut_graph.arcs:
            fit = seam_transition_fit(p, arc)
            for h in arc.halfedges:
                # the fit carries each twin-side end onto the face side
                f, i = divmod(h, 3)
                tf, ti = divmod(int(p.mesh.twin[h]), 3)
                for face_side, twin_side in [
                    (p.uv[f, i], p.uv[tf, (ti + 1) % 3]),
                    (p.uv[f, (i + 1) % 3], p.uv[tf, ti]),
                ]:
                    assert np.linalg.norm(fit.apply(twin_side) - face_side) < 1e-9

    def test_a_kink_along_an_arc_is_inconsistent(self):
        p = fixture("flat_torus")
        arc = p.cut_graph.arcs[0]
        assert len(arc.halfedges) >= 2
        last = arc.halfedges[-1]
        tf, ti = divmod(int(p.mesh.twin[last]), 3)
        uv = p.uv.copy()
        uv[tf, ti] += (0.0, 0.01)  # the twin side of the arc's last halfedge
        kinked = SeamlessParam(p.mesh, uv, p.seams)
        with pytest.raises(InconsistentAlongArc, match="at halfedge 37 "):
            seam_transition_fit(kinked, arc)

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
        assert expected_holonomy(4) == 0
        assert expected_holonomy(3) == 1
        assert expected_holonomy(5) == 3
        assert expected_holonomy(1) == 3

    def test_annulus_cone_holonomy(self):
        p = fixture("annulus_35")
        for rec in detect_cones(p):
            assert rec.location == "interior"
            assert vertex_holonomy(p, rec.vertex) == expected_holonomy(rec.m)

    def test_regular_cut_vertices_have_zero_holonomy(self):
        p = fixture("flat_torus")
        cut_vertices = {int(v) for e in p.cut_edges for v in p.mesh.edges[e]}
        for v in cut_vertices:
            assert vertex_holonomy(p, v) == 0


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
        assert not cones_on_integer_grid(p)

    def test_unit_fixtures_are_grid_aligned(self):
        assert cones_on_integer_grid(fixture("l_domain"))
        assert cones_on_integer_grid(fixture("annulus_35"))

    def test_seam_translations_must_be_integral(self):
        assert cones_on_integer_grid(fixture("flat_torus"))
        p = fixture("sheared_torus")  # one seam translates by (sqrt 2, 3)
        assert p.seams[28].translation == (2 ** 0.5, 3.0)
        assert not cones_on_integer_grid(p)
        assert grid_misalignment(p) == (
            "seam translation (1.4142135623730951, 3.0) on halfedge 28 is not integral"
        )

    def test_cone_reason_is_unchanged(self):
        assert grid_misalignment(fixture("rectangle")) == (
            "cone images do not lie on the integer grid"
        )


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


def _parametric_angle_per_corner(param, cv):
    """Reference: the corner-by-corner loop the cached `corner_angles`
    replaced.  The two must agree bit for bit."""
    scale = max(param.uv_scale(), 1e-30)
    total = 0.0
    for h in param.completion.mesh.vertex_fan(cv):
        f, i = h // 3, h % 3
        a = param.uv[f, (i + 1) % 3] - param.uv[f, i]
        b = param.uv[f, (i + 2) % 3] - param.uv[f, i]
        cross = a[0] * b[1] - a[1] * b[0]
        if abs(cross) < 1e-16 * scale * scale:
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


def _wedge_angle_sum_ref(param, corners):
    """Reference: the sum of `corner_angles()` at `corners`, in their order,
    raising at the first (near) zero-area wedge."""
    angle, tiny = param.corner_angles()
    total = 0.0
    for h in corners:
        if h in tiny:
            raise ZeroAreaFace(f"face {h // 3} has (near) zero UV area")
        total += angle[h]
    return total


def _cone_scan_ref(param, masked=frozenset()):
    """Reference: the vertex-by-vertex cone scan that the cached
    `copy_angles()` replaced, walking and summing every copy's fan."""
    comp, mesh = param.completion, param.mesh
    records, violations = [], []
    for v in range(len(mesh.vertices)):
        if masked and any((h // 3) in masked for h in walk_vertex_fan(mesh, v)):
            continue
        phi = 0.0
        for cv in comp.vertex_copies[v]:
            phi += _wedge_angle_sum_ref(param, walk_vertex_fan(comp.mesh, cv))
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
    skip = {c.vertex for c in _cone_scan_ref(param)[0]} | param.cut_graph.nodes
    for cv, ov in enumerate(comp.vertex_map.tolist()):
        if ov in skip:
            continue
        corners = walk_vertex_fan(comp.mesh, cv)
        if not corners or any((h // 3) in masked for h in corners):
            continue
        try:
            theta = _wedge_angle_sum_ref(param, corners)
        except ZeroAreaFace:
            continue
        if comp.mesh.is_boundary_vertex[cv]:
            if theta >= 2.0 * math.pi - qlim.tolerances.ANGLE_TOL:
                q1.fail(
                    completion_vertex=cv,
                    measured=theta,
                    expected="copy angle < 2*pi (locally injective)",
                )
        elif abs(theta - 2.0 * math.pi) > qlim.tolerances.ANGLE_TOL:
            q1.fail(completion_vertex=cv, measured=theta, expected=2.0 * math.pi)
    return q1.violations


def _seam_inverse_deviations_ref(param):
    """Reference: the seam-by-seam distance of each opposite record from
    the inverse transition, which `_seam_inverse_deviations` stacks."""
    return [
        _transition_distance(param.seams[int(param.mesh.twin[h])], t.inverse())
        for h, t in param.seams.items()
    ]


def _outcome(fn, *args):
    """fn's result, or the type and message of the QlimError it raises."""
    try:
        return fn(*args)
    except QlimError as exc:
        return type(exc), str(exc)


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
        walk = TriMesh.vertex_fan

        def no_walk(mesh, v):
            raise AssertionError(f"walked the fan of vertex {v}")

        monkeypatch.setattr(TriMesh, "vertex_fan", no_walk)
        p.completion
        p.cone_scan()
        p.cone_scan(masked=frozenset({0}))
        sums = p.copy_angles()

        def no_copy_walk(mesh, v):
            # the cut graph and holonomy still walk fans of the mesh itself
            assert mesh is not p.completion.mesh, f"walked the fan of copy {v}"
            return walk(mesh, v)

        monkeypatch.setattr(TriMesh, "vertex_fan", no_copy_walk)
        validate_immersion(p)
        assert p.copy_angles() is sums

    def test_seam_inverse_deviations_match_the_per_seam_loop(self):
        cases = list(_with_jittered_uvs())
        cases += [(f"flat_torus/mismatch{i}", q) for i, q in enumerate(_mismatched_seams())]
        finite, infinite = 0, 0
        for name, p in cases:
            want = _seam_inverse_deviations_ref(p)
            assert _seam_inverse_deviations(p) == want, name
            finite += any(0 < d < np.inf for d in want)
            infinite += np.inf in want
        assert finite and infinite

    def test_uv_tuples_equal_the_nested_conversion(self):
        for name, p in _with_jittered_uvs():
            want = tuple(tuple(tuple(q) for q in tri) for tri in p.uv.tolist())
            got = p.uv_tuples()
            assert got == want, name
            assert {type(x) for tri in got for q in tri for x in q} == {float}


class TestParamInvariants:
    def test_jacobian_bounds_match_per_face_loop_exactly(self):
        checked = 0
        for name, p in _fixtures_and_perturbations():
            masked = _flipped_faces(p)
            got = _jacobian_bounds(p, masked)
            assert got == _jacobian_bounds_per_face(p, masked), name
            checked += 1
        assert checked > len(FIXTURES)

    def test_parametric_angle_matches_per_corner_loop_exactly(self):
        checked = 0
        for name, p in _with_jittered_uvs():
            for cv in range(len(p.completion.mesh.vertices)):
                try:
                    want = _parametric_angle_per_corner(p, cv)
                except ZeroAreaFace as exc:
                    with pytest.raises(ZeroAreaFace, match=str(exc)):
                        parametric_angle(p, cv)
                    continue
                assert parametric_angle(p, cv) == want, (name, cv)
                checked += 1
        assert checked > 300

    def test_collapsed_uv_raises_zero_area_face_naming_it(self):
        p = fixture("rectangle")
        uv = np.array(p.uv)
        uv[5] = uv[5, 0]
        q = SeamlessParam(p.mesh, uv, p.seams)
        for cv in q.completion.mesh.faces[5]:
            with pytest.raises(ZeroAreaFace) as ref:
                _parametric_angle_per_corner(q, cv)
            with pytest.raises(ZeroAreaFace) as got:
                parametric_angle(q, cv)
            assert str(got.value) == str(ref.value) == "face 5 has (near) zero UV area"
        with pytest.raises(ZeroAreaFace, match="face 5 has"):
            q.cone_scan()

    def test_chart_check_matches_per_edge_loop_exactly(self):
        failing = set()
        for name, p in _with_jittered_uvs():
            masked = _flipped_faces(p)
            want = _chart_mismatches_per_edge(p, masked)
            assert _chart_mismatches(p, masked) == want, name
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
