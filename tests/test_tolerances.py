"""The tolerance policy: verdicts and layouts do not change when the whole
map is scaled, and every small threshold of the core modules is named in
`qlim.tolerances`."""

import ast
import os
import warnings

import numpy as np
import pytest

import qlim
from qlim.errors import PropertyViolation, ZeroAreaFace
from qlim.immersion import (
    SeamlessParam,
    SeamTransition,
    apply_global_motion,
    validate_immersion,
)
from qlim.layout import extract_layout
from qlim.synth import OverlapWarning, fixture
from qlim.tracer import PERIODIC, validate_q5


def _scaled(name, k):
    """Fixture `name` with its UVs and seam translations scaled by 2**k."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        p = fixture(name)
    s = 2.0**k
    seams = {
        h: SeamTransition(t.rotation, tuple(s * x for x in t.translation))
        for h, t in p.seams.items()
    }
    return SeamlessParam(p.mesh, s * p.uv, seams, declared_cones=p.declared_cones)


def _check_scale_covariant(name, p, sheared_axis=0):
    assert validate_immersion(p).passed
    q5 = validate_q5(p)
    if name == "sheared_torus":
        # the sqrt(2)-sheared family never closes: no periodicity proof
        assert q5["curves"][sheared_axis]["status"] != PERIODIC
        with pytest.raises(PropertyViolation):
            extract_layout(p)
        return
    assert q5["passed"]
    if name == "flat_torus":
        assert [c["status"] for c in q5["curves"]] == [PERIODIC, PERIODIC]
        assert extract_layout(p).counts == (1, 2, 1)
    else:
        assert extract_layout(p).counts == (8, 14, 6)


@pytest.mark.parametrize("name", ["sheared_torus", "flat_torus", "annulus_35"])
def test_verdicts_and_layouts_do_not_change_under_scaling(name):
    for k in range(-30, 31):
        _check_scale_covariant(name, _scaled(name, k))


@pytest.mark.parametrize("name", ["sheared_torus", "flat_torus", "annulus_35"])
def test_small_map_far_from_the_origin(name):
    p = apply_global_motion(_scaled(name, -20), 1, (1e3, -1.7e3))
    # the quarter turn makes the sheared family hold v
    _check_scale_covariant(name, p, sheared_axis=1)


def test_core_modules_name_every_small_threshold():
    """A float literal 0 < |x| < 1e-5 in a core module is a threshold that
    belongs in `tolerances.py`, with its unit and its reason."""
    src = os.path.dirname(qlim.__file__)
    found = []
    for name in ("immersion.py", "tracer.py", "layout.py", "mesh.py"):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-5
            ):
                found.append(f"{name}:{node.lineno}: {node.value!r}")
    assert not found, "thresholds outside tolerances.py: " + ", ".join(found)


def _sliver(k):
    """`rectangle` scaled by 2**k, with face 0's third corner 1e-9 (before
    scaling) off the midpoint of its first side: a thin wedge, not a
    zero-area one, at every scale."""
    p = fixture("rectangle")
    uv = np.array(p.uv)
    a, b = uv[0, 0], uv[0, 1]
    d = b - a
    uv[0, 2] = (a + b) / 2 + 1e-9 * np.array([-d[1], d[0]]) / np.linalg.norm(d)
    return SeamlessParam(p.mesh, 2.0**k * uv, p.seams)


def test_thin_wedge_is_judged_alike_at_every_scale():
    want = validate_immersion(_sliver(0)).failed_properties()
    assert want == ["q1", "q2", "q4"]
    for k in (-60, -100, -120, -200):
        assert validate_immersion(_sliver(k)).failed_properties() == want, k


def test_all_zero_map_is_refused():
    p = fixture("rectangle")
    q = SeamlessParam(p.mesh, 0.0 * p.uv, p.seams)
    assert q.uv_scale() == 0.0
    with pytest.raises(ZeroAreaFace, match=r"^face 0 has \(near\) zero UV area$"):
        validate_immersion(q)
