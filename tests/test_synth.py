import warnings

import numpy as np
import pytest

from qlim import synth
from qlim.errors import QlimError
from qlim.immersion import SeamlessParam, SeamTransition, detect_cones, validate_immersion
from qlim.mesh import topology_info
from qlim.qlimio import parse_qlay
from qlim.synth import (
    PERTURB_KINDS,
    AbstractQuadComplex,
    OverlapWarning,
    fixture,
    perturb,
    realize,
)

ALL_FIXTURES = ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]


class TestAbstractQuadComplex:
    def test_degenerate_quad_rejected(self):
        with pytest.raises(QlimError, match=r"^quad 0 must have 4 distinct vertices$"):
            AbstractQuadComplex(3, [(0, 1, 2, 2)])

    def test_overused_edge_rejected(self):
        # an edge of more than two quads has two sides in one direction, so
        # the directed-edge test refuses it
        quads = [(0, 1, 2, 3), (0, 1, 4, 5), (1, 0, 6, 7), (1, 0, 8, 9)]
        with pytest.raises(QlimError, match=r"^directed edge 0->1 repeated: "):
            AbstractQuadComplex(10, quads)

    @pytest.mark.parametrize("n, quads, message", [
        (4, [(0, 1, 2, 3), (1, 0, 3, 4)], "quad 1 vertex index out of range"),
        (4, [(-1, 0, 1, 2)], "quad 0 vertex index out of range"),
        (5, [(0, 1, 2, 3)], "vertex 4 belongs to no quad"),
    ])
    def test_input_refusals_name_what_they_refuse(self, n, quads, message):
        with pytest.raises(QlimError) as err:
            AbstractQuadComplex(n, quads)
        assert str(err.value) == message

    def test_disconnected_rejected(self):
        with pytest.raises(QlimError):
            AbstractQuadComplex(8, [(0, 1, 2, 3), (4, 5, 6, 7)])

    def test_pinched_vertex_rejected_by_name(self):
        # a ring of cells in which (0, 0) and (1, 1) share only grid point (1, 1)
        points = {}
        quads = [
            tuple(points.setdefault(p, len(points))
                  for p in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)))
            for i, j in [(0, 0), (0, -1), (1, -1), (2, -1), (2, 0), (2, 1), (1, 1)]
        ]
        with pytest.raises(QlimError, match=r"^vertex 2 star is not a single fan$"):
            AbstractQuadComplex(len(points), quads)
        assert points[(1, 1)] == 2

    def test_parse_qlay_reads_the_listed_quads(self):
        from importlib import resources

        text = resources.files("qlim").joinpath("data/annulus_35.qlay").read_text()
        rows = [line.split() for line in text.splitlines()]
        cx = parse_qlay(text)
        assert cx.n_vertices == next(int(r[1]) for r in rows if r[:1] == ["vertices"])
        assert list(cx.quads) == [tuple(map(int, r[1:])) for r in rows if r[:1] == ["q"]]
        assert len(cx.quads) == 15


def fixture_complex():
    from importlib import resources

    data = resources.files("qlim").joinpath("data/annulus_35.qlay").read_text()
    return parse_qlay(data)


class TestFixtures:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_all_fixtures_valid(self, name):
        report = validate_immersion(fixture(name))
        assert report.passed, report.failed_properties()

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            fixture("moebius")

    def test_torus_topology(self):
        info = topology_info(fixture("flat_torus").mesh)
        assert (info.genus, info.boundary_count) == (1, 0)

    def test_annulus_topology_and_cones(self):
        p = fixture("annulus_35")
        info = topology_info(p.mesh)
        assert (info.genus, info.boundary_count) == (0, 2)
        assert sorted((r.location, r.m) for r in detect_cones(p)) == [
            ("interior", 3),
            ("interior", 5),
        ]

    def test_annulus_overlap_warning(self):
        with pytest.warns(OverlapWarning):
            fixture("annulus_35")

    def test_rectangle_has_no_seams(self):
        assert not fixture("rectangle").seams

    def test_sheared_torus_parameter(self):
        p = fixture("sheared_torus", s=0.0)
        q = fixture("flat_torus")
        assert np.allclose(p.uv, q.uv)

    def test_realize_deterministic(self):
        cx = fixture_complex()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverlapWarning)
            a, b = realize(cx), realize(cx)
        assert np.array_equal(a.uv, b.uv)
        assert a.seams == b.seams


# which mutation applies to which fixture (geometry constraints: FlipFace
# needs a face free of boundary and seam edges; ScaleWedge needs a cone with
# such a face incident; BumpRotation needs seams; NudgeBoundary needs a
# regular boundary vertex)
APPLICABLE = {
    "FlipFace": ["flat_torus", "sheared_torus", "rectangle", "annulus_35"],
    "ScaleWedge": ["rectangle", "l_domain", "annulus_35"],
    "BumpRotation": ["flat_torus", "sheared_torus", "annulus_35"],
    "NudgeBoundary": ["rectangle", "l_domain", "annulus_35"],
}

EXPECTED_FAILURES = {
    "FlipFace": {"q1"},
    "ScaleWedge": {"q2"},
    "BumpRotation": {"q3", "holonomy"},
    "NudgeBoundary": {"q4"},
}


class TestMutationExactness:
    @pytest.mark.parametrize("kind", PERTURB_KINDS)
    def test_each_kind_fails_exactly_its_property(self, kind):
        for name in APPLICABLE[kind]:
            mutant = perturb(fixture(name), kind)
            report = validate_immersion(mutant)
            assert set(report.failed_properties()) == EXPECTED_FAILURES[kind], (
                kind,
                name,
                report.failed_properties(),
            )

    @pytest.mark.parametrize("kind", PERTURB_KINDS)
    def test_inapplicable_kinds_raise(self, kind):
        for name in ALL_FIXTURES:
            if name in APPLICABLE[kind]:
                continue
            with pytest.raises(QlimError):
                perturb(fixture(name), kind)

    def test_base_fixture_unmodified(self):
        p = fixture("flat_torus")
        uv_before = p.uv.copy()
        perturb(p, "FlipFace")
        assert np.array_equal(p.uv, uv_before)

    def test_unknown_kind(self):
        with pytest.raises(QlimError):
            perturb(fixture("flat_torus"), "Wobble")


def _with_identity_seams(param, halfedges):
    """`param` with identity seams on `halfedges` and their twins."""
    seams = dict(param.seams)
    for h in halfedges:
        seams[h] = seams[int(param.mesh.twin[h])] = SeamTransition(0, (0.0, 0.0))
    return SeamlessParam(param.mesh, param.uv, seams, declared_cones=param.declared_cones)


def _interior_cut(param):
    """`param` with an identity seam on every interior edge."""
    twin = param.mesh.twin
    return _with_identity_seams(param, np.flatnonzero(twin != -1).tolist())


def _perturbed_faces(param, kind):
    """The faces `perturb(param, kind)` moves, and the properties it fails."""
    mutant = perturb(param, kind)
    moved = np.flatnonzero((mutant.uv != param.uv).any(axis=(1, 2))).tolist()
    return moved, validate_immersion(mutant).failed_properties()


RARE_BRANCHES = {
    # rectangle's default sides are sqrt(2) x sqrt(3), off the integer grid
    "rectangle-complex": (lambda: synth.fixture_complex("rectangle"),
                          (QlimError, "rectangle complex requires integer side lengths")),
    "sheared-torus-complex": (lambda: synth.fixture_complex("sheared_torus"),
                              (KeyError, "no grid-aligned source complex")),
    # faces 0 and 1 border the seams on face 0's edges, so face 2 is flipped
    "flip-face-skips-seam-faces": (
        lambda: _perturbed_faces(_with_identity_seams(fixture("flat_torus"), (0, 1, 2)),
                                 "FlipFace"),
        ([2], ["q1"])),
    # every face of every cone fan has a seam edge
    "scale-wedge-no-face": (lambda: perturb(_interior_cut(fixture("l_domain")), "ScaleWedge"),
                            (QlimError, "no scalable wedge face at any cone")),
    # both faces at the 1x1 rectangle's corner 0 have a boundary edge away
    # from it, so face 0 is scaled about corner 1
    "scale-wedge-skips-boundary-faces": (
        lambda: _perturbed_faces(fixture("rectangle", a=1.0, b=1.0), "ScaleWedge"),
        ([0], ["q2"])),
}


@pytest.mark.parametrize("case", sorted(RARE_BRANCHES))
def test_rarely_taken_branches(case):
    """The refusals of `fixture_complex` and `perturb` and the face skips of
    `perturb`'s face pickers, each on an input made to reach it."""
    make, want = RARE_BRANCHES[case]
    if isinstance(want[0], type):
        with pytest.raises(want[0], match=want[1]):
            make()
    else:
        assert make() == want
