import json
import warnings

import pytest

from qlim.errors import NotGridAligned, PropertyViolation
from qlim.layout import (
    emit_separatrices,
    extract_layout,
    layout_oracle_bruteforce,
    verify_coarsening,
)
from qlim.qlimio import parse_qlay
from qlim.synth import OverlapWarning, fixture

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
