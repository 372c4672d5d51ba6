import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from qlim import tolerances
from qlim.errors import ArrangementDegeneracy, NotGridAligned, PropertyViolation, QlimError
from qlim.layout import (
    TWO_PI,
    LayoutNode,
    _boundary_segments_uv,
    _ccw_angle,
    _edge_intervals,
    _end_angle,
    _isoline_segments,
    _quotient_keys,
    emit_separatrices,
    extract_layout,
    layout_oracle_bruteforce,
    verify_coarsening,
)
from qlim.qlimio import parse_qlay, read_qlim
from qlim.synth import OverlapWarning, fixture

from test_immersion import _with_jittered_uvs

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import WORKLOADS  # noqa: E402

warnings.simplefilter("ignore", OverlapWarning)


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


class TestExtractLayout:
    def test_rectangle(self):
        lay = extract_layout(fx("rectangle"))
        assert lay.counts == (4, 4, 1)
        assert lay.patches[0].corners == 4

    def test_flat_torus(self):
        lay = extract_layout(fx("flat_torus"))
        assert lay.counts == (1, 2, 1)
        assert lay.patches[0].corners == 4

    def test_l_domain(self):
        lay = extract_layout(fx("l_domain"))
        assert lay.counts == (8, 10, 3)
        assert all(p.corners == 4 for p in lay.patches)

    def test_annulus_all_quad_euler_zero(self):
        lay = extract_layout(fx("annulus_35"))
        v, e, f = lay.counts
        assert v - e + f == 0
        assert all(p.corners == 4 for p in lay.patches)
        cone_nodes = [n for n in lay.nodes if n.is_cone]
        assert sorted(n.degree for n in cone_nodes) == [3, 5]

    def test_euler_matches_surface(self):
        for name in ["rectangle", "flat_torus", "l_domain", "annulus_35"]:
            lay = extract_layout(fx(name))
            v, e, f = lay.counts
            assert v - e + f == lay.euler

    def test_deterministic(self):
        a = json.dumps(extract_layout(fx("annulus_35")).to_dict(), sort_keys=True)
        b = json.dumps(extract_layout(fx("annulus_35")).to_dict(), sort_keys=True)
        assert a == b


class TestOracle:
    def test_rectangle_grid(self):
        o = layout_oracle_bruteforce(fx("rectangle", a=3.0, b=2.0))
        assert o.counts == (12, 17, 6)

    def test_flat_torus_grid(self):
        o = layout_oracle_bruteforce(fx("flat_torus"))  # 4 x 3
        assert o.counts == (12, 24, 12)

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

    def test_detects_foreign_layout(self):
        # a layout from a different surface cannot coarsen this oracle
        p = fx("l_domain")
        other = extract_layout(fx("annulus_35"))
        assert not verify_coarsening(p, other, layout_oracle_bruteforce(p))


def _vertex_fan_angles(param, v):
    """Reference: per fan wedge (face, corner, cumulative start angle), and
    the total, with each wedge angle computed on its own with numpy."""
    mesh = param.mesh
    out = []
    cum = 0.0
    for h in mesh.vertex_fan(v):
        g, i = h // 3, h % 3
        a = param.uv[g, (i + 1) % 3] - param.uv[g, i]
        b = param.uv[g, (i + 2) % 3] - param.uv[g, i]
        out.append((g, i, cum))
        cross = a[0] * b[1] - a[1] * b[0]
        cum += math.atan2(abs(cross), float(a @ b))
    return out, cum


def _fan_params():
    """The fixtures, their perturbations and UV-jittered copies, and the
    three benchmark workload params."""
    yield from _with_jittered_uvs()
    for name in sorted(WORKLOADS):
        yield name, read_qlim(WORKLOADS[name]().text(0))


def test_vertex_end_angles_match_the_per_wedge_reference():
    checked = 0
    for name, p in _fan_params():
        fans = {}
        for v in range(len(p.mesh.vertices)):
            wedges, total = _vertex_fan_angles(p, v)
            node = LayoutNode(key=("v", v), face=-1, uv=(0.0, 0.0))
            for g, i, cum in wedges:
                # along the wedge's first side the end angle is its start
                side = p.uv[g, (i + 1) % 3] - p.uv[g, i]
                got = _end_angle(p, node, g, side.tolist(), fans)
                assert got == (cum, total), (name, v, g)
                checked += 1
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


def _end_angle_ref(param, node, face, d):
    """Reference: one arc end's fan angle, with the vertex fan summed anew
    for every end."""
    mesh = param.mesh
    k = node.key
    if k[0] == "f":
        return math.atan2(d[1], d[0]) % TWO_PI, TWO_PI
    if k[0] == "e":
        kk = next(j for j in range(3) if int(mesh.edge_id[3 * face + j]) == k[1])
        h = 3 * face + kk
        vec = param.uv[face, (kk + 1) % 3] - param.uv[face, kk]
        ang = _ccw_angle(vec, d)
        if ang > math.pi:
            ang = 0.0 if TWO_PI - ang < math.pi / 2 else math.pi
        base = 0.0 if mesh.src(h) < mesh.dst(h) else math.pi
        total = math.pi if mesh.twin[h] == -1 else TWO_PI
        return (base + ang) % TWO_PI, total
    angle = param.corner_angles()[0]
    start = None
    total = 0.0
    for h in mesh.vertex_fan(k[1]):
        if start is None and h // 3 == face:
            start = (h % 3, total)
        total += angle[h]
    if start is None:
        raise ArrangementDegeneracy(
            f"arc-end chart face {face} is not in the fan of vertex {k[1]}"
        )
    i, cum = start
    a = param.uv[face, (i + 1) % 3] - param.uv[face, i]
    return cum + _ccw_angle(a, d), total


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
        got = _quotient_keys(p, faces, pts)
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


def test_end_angles_match_the_per_end_reference():
    rng = np.random.default_rng(13)
    checked = 0
    for name, p in _fan_params():
        mesh = p.mesh
        fans = {}
        ends = []  # (node key, chart face)
        for v in range(len(mesh.vertices)):
            ends += [(("v", v), h // 3) for h in mesh.vertex_fan(v)]
        for h in rng.permutation(mesh.n_halfedges)[:300].tolist():
            ends += [(("e", int(mesh.edge_id[h])), h // 3), (("f", h // 3, 0.0, 0.0), h // 3)]
        for key, face in ends:
            node = LayoutNode(key=key, face=face, uv=(0.0, 0.0))
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            got = _end_angle(p, node, face, d.tolist(), fans)
            assert _bits(got) == _bits(_end_angle_ref(p, node, face, d)), (name, key)
            checked += 1
    assert checked > 10000


def test_the_arrangement_takes_no_per_point_norm(monkeypatch):
    p = fx("annulus_35")
    p.completion  # built once per param; its mesh takes two whole-array norms
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
    assert _bits(_quotient_keys(p, [0], point)) == _bits([want])
    assert want[2] == 0.39723633 != round(x, tolerances.KEY_DECIMALS)
