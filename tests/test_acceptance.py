"""End-to-end acceptance criteria.

Each test prints exactly one machine-greppable pass/fail line of the form
``criterion N (<short name>): PASS|FAIL``.
"""

import json
import time
import warnings

import numpy as np
import pytest

from qlim.cutgraph import build_cutting_graph, cut_mesh, validate_cutting_graph
from qlim.immersion import (
    apply_global_motion,
    check_gauss_bonnet,
    detect_cones,
    grid_misalignment,
    validate_immersion,
)
from qlim.layout import (
    extract_layout,
    layout_oracle_bruteforce,
    verify_coarsening,
)
from qlim.mesh import SurfacePoint, topology_info
from qlim.qlimio import dumps_report, read_qlim, validation_report_dict, write_qlim
from qlim.svg import export_svg
from qlim.synth import OverlapWarning, fixture, fixture_complex, perturb
from qlim.tracer import (
    BUDGET_EXCEEDED,
    PERIODIC,
    chart_barycentrics,
    trace_quotient_curve,
    validate_q5,
)

warnings.simplefilter("ignore", OverlapWarning)

ALL_FIXTURES = ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]


def fx(name, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        return fixture(name, **kw)


def report(n, name, ok):
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_annulus_end_to_end():
    t0 = time.perf_counter()
    p = fx("annulus_35")
    cones = detect_cones(p)
    ok = sorted((c.location, c.m) for c in cones) == [
        ("interior", 3),
        ("interior", 5),
    ]
    residual = check_gauss_bonnet(cones, topology_info(p.mesh))
    ok = ok and abs(residual) < 1e-9
    ok = ok and validate_immersion(p).passed
    ok = ok and validate_q5(p)["passed"]
    lay = extract_layout(p)
    v, e, f = lay.counts
    ok = ok and bool((lay.patch_corners == 4).all())
    ok = ok and (v - e + f == 0)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, "annulus_35 end-to-end", ok)


def test_criterion_2_gauss_bonnet_suite():
    ok = True
    for name in ALL_FIXTURES:
        p = fx(name)
        residual = check_gauss_bonnet(detect_cones(p), topology_info(p.mesh))
        ok = ok and abs(residual) < 1e-9
    report(2, "conical Gauss-Bonnet suite", ok)


def test_criterion_3_q5_dichotomy():
    start = SurfacePoint(0, (1 / 3, 1 / 3, 1 / 3))
    flat = trace_quotient_curve(fx("flat_torus"), start, 0)
    ok = flat.status == PERIODIC

    sheared = trace_quotient_curve(
        fx("sheared_torus"), start, 0, budget=70000, direction=1
    )
    ok = ok and sheared.status == BUDGET_EXCEEDED
    ok = ok and len(sheared.crossings) >= 10**4
    sigs = {(h, a, round(v / 1e-9)) for (h, a, v) in sheared.crossings}
    ok = ok and len(sigs) == len(sheared.crossings)

    # the two verdicts must be distinguishable in reports
    ok = ok and flat.status != sheared.status
    q5 = validate_q5(fx("sheared_torus"), budget=2000)
    ok = ok and q5["budget_exhausted"]
    ok = ok and "terminated prematurely" in q5["note"]
    report(3, "Q5 dichotomy", ok)


def test_criterion_4_integer_grid_separation():
    p = fx("rectangle")  # sqrt(2) x sqrt(3)
    ok = validate_immersion(p).passed
    ok = ok and validate_q5(p)["passed"]
    ok = ok and grid_misalignment(p) is not None
    report(4, "integer-grid-map separation", ok)


def test_criterion_5_mutation_exactness():
    applicable = {
        "FlipFace": ["flat_torus", "sheared_torus", "rectangle", "annulus_35"],
        "ScaleWedge": ["rectangle", "l_domain", "annulus_35"],
        "BumpRotation": ["flat_torus", "sheared_torus", "annulus_35"],
        "NudgeBoundary": ["rectangle", "l_domain", "annulus_35"],
    }
    expected = {
        "FlipFace": {"q1"},
        "ScaleWedge": {"q2"},
        "BumpRotation": {"q3", "holonomy"},
        "NudgeBoundary": {"q4"},
    }
    ok = True
    for kind, names in applicable.items():
        for name in names:
            failed = set(validate_immersion(perturb(fx(name), kind)).failed_properties())
            ok = ok and failed == expected[kind]
    report(5, "mutation exactness", ok)


def test_criterion_6_oracle_equivalence():
    grid_fixtures = [
        ("flat_torus", {}),
        ("rectangle", {"a": 3.0, "b": 2.0}),
        ("l_domain", {}),
        ("annulus_35", {}),
    ]
    ok = True
    for name, kw in grid_fixtures:
        p = fx(name, **kw)
        oracle = layout_oracle_bruteforce(p)
        ok = ok and oracle.counts == fixture_complex(name, **kw).counts
        ok = ok and verify_coarsening(p, extract_layout(p), oracle)
    report(6, "oracle equivalence and coarsening", ok)


def test_criterion_7_cut_graph_contract():
    from meshes import completion_mesh, surface_mesh

    rng = np.random.default_rng(2024)
    ok = True
    trials = 0
    while trials < 20:
        g = int(rng.integers(0, 3))
        k = int(rng.integers(0, 3))
        mesh = surface_mesh(g, k, rng=rng)
        interior = [
            v for v in range(len(mesh.vertices)) if not mesh.is_boundary_vertex[v]
        ]
        n_sing = int(rng.integers(0, 5))
        sing = list(rng.choice(interior, size=min(n_sing, len(interior)),
                               replace=False))
        graph = build_cutting_graph(mesh, sing)
        checks = validate_cutting_graph(mesh, graph, sing)
        ok = ok and checks["all"]
        comp = cut_mesh(mesh, graph.cut_edges)
        cmesh = completion_mesh(mesh, comp)
        info = topology_info(cmesh)
        ok = ok and info.euler == 1 and info.boundary_count == 1
        # re-glue: pushing completion faces through the quotient map must
        # reproduce the original connectivity exactly
        glued = comp.vertex_map[cmesh.faces]
        ok = ok and np.array_equal(glued, mesh.faces)
        trials += 1
    report(7, "cut-graph contract (20 randomized fixtures)", ok)


def _collapsed(faces):
    out = []
    for f in faces:
        if not out or out[-1] != f:
            out.append(f)
    return out


def test_criterion_8_tracer_laws():
    ok = True
    rng = np.random.default_rng(5)
    budget = 600
    for name in ALL_FIXTURES:
        p = fx(name)
        moved = apply_global_motion(p, 1, (0.5, -2.0))
        for _ in range(100):
            f = int(rng.integers(len(p.mesh.faces)))
            b = rng.uniform(0.15, 0.45, size=3)
            b /= b.sum()
            start = SurfacePoint(f, tuple(b))
            axis = int(rng.integers(2))
            curve = trace_quotient_curve(p, start, axis, budget=budget)
            # straightness: every snapped waypoint sits on the constant
            # coordinate (one barycentric pass for the whole curve)
            pieces = [
                (pf, point, piece.axis, piece.value)
                for piece in curve.pieces
                for (pf, a, bb) in piece.chart_segments
                for point in (a, bb)
            ]
            pf, points, axes, values = zip(*pieces)
            bary = chart_barycentrics(p, pf, points)
            uvp = np.matmul(bary[:, None, :], p.uv[list(pf)])[:, 0]
            held = uvp[np.arange(len(axes)), axes]
            ok = ok and bool(np.all(np.abs(held - values) < 1e-9))
            # reversal symmetry: retracing from a point on the curve gives
            # the same curve up to orientation
            if curve.status == "Finite":
                piece = curve.pieces[len(curve.pieces) // 2]
                sf, sa, sb = piece.chart_segments[len(piece.chart_segments) // 2]
                ba, bb = chart_barycentrics(p, [sf, sf], [sa, sb])
                mid = tuple((ba + bb) / 2)
                c2 = trace_quotient_curve(
                    p, SurfacePoint(sf, mid), piece.axis, budget=budget
                )
                ok = ok and c2.status == curve.status
                f1, f2 = _collapsed(curve.faces()), _collapsed(c2.faces())
                ok = ok and (f1 == f2 or f1 == f2[::-1])
            # quarter-turn re-rooting: same outcome, same face sequence
            curve90 = trace_quotient_curve(moved, start, 1 - axis, budget=budget)
            ok = ok and curve90.status == curve.status
            if curve.status == "Finite":
                f1 = _collapsed(curve.faces())
                f90 = _collapsed(curve90.faces())
                ok = ok and (f1 == f90 or f1 == f90[::-1])
        ok = ok and validate_immersion(moved).passed
    report(8, "tracer laws (reversal, straightness, re-rooting)", ok)


def test_criterion_9_determinism():
    ok = True
    for name in ALL_FIXTURES:
        p, q = fx(name), fx(name)
        rep_a = dumps_report(validation_report_dict(p, validate_immersion(p)))
        rep_b = dumps_report(validation_report_dict(q, validate_immersion(q)))
        ok = ok and rep_a == rep_b
        ok = ok and export_svg(p) == export_svg(q)
        text = write_qlim(p)
        ok = ok and write_qlim(read_qlim(text)) == text
    lay_a = json.dumps(extract_layout(fx("annulus_35")).to_dict())
    lay_b = json.dumps(extract_layout(fx("annulus_35")).to_dict())
    ok = ok and lay_a == lay_b
    report(9, "determinism and byte-exact round trips", ok)
