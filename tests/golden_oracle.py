"""Golden record of the oracle complex and the extracted layout, for
exact-equality regression tests.

For each input the record holds the integer-isoline complex of
`layout_oracle_bruteforce` (or the refusal it raises), the layout of
`extract_layout` (or its refusal), and `verify_coarsening`'s verdict when
both exist.  A complex is written in full: every node's quotient key, chart
face, chart point, degree and flags; every arc's node pair with the SHA-256
of its segment rows (`face px py qx qy`, one line per segment); every
patch's darts and corner count.  Floats are written with `float.hex`, so a
last-bit change anywhere in the arrangement shows up as a diff.

The inputs are the five fixtures, every `perturb` kind that applies to
each, each fixture re-rooted by a quarter turn and a fractional translation
(the oracle refuses those), the same re-rooting with an integral
translation, a 3 x 2 `rectangle` (the default one is not on the grid), and
the three benchmark workloads at their pinned seed.

Regenerate (only when an arrangement change is intended) with:

    PYTHONPATH=src python tests/golden_oracle.py tests/data/golden_oracle.json
"""

import hashlib
import json
import os
import sys
import warnings

from qlim.errors import QlimError
from qlim.immersion import apply_global_motion
from qlim.layout import _key as node_key
from qlim.layout import extract_layout, layout_oracle_bruteforce, verify_coarsening
from qlim.qlimio import read_qlim
from qlim.synth import FIXTURES, PERTURB_KINDS, OverlapWarning, fixture, perturb

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REROOTS = {
    "reroot": (1, (0.3, -1.7)),  # quarter turn, fractional translation
    "reroot_integral": (1, (3.0, -2.0)),
}


def _fx(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        return fixture(name)


def inputs():
    """(name, param) for every recorded input, in record order."""
    out = []
    for name in sorted(FIXTURES):
        out.append((name, _fx(name)))
        for kind in PERTURB_KINDS:
            try:
                out.append((f"{name}/{kind}", perturb(_fx(name), kind)))
            except QlimError:
                continue  # kind not applicable to this fixture
        for tag, (j, t) in REROOTS.items():
            out.append((f"{name}/{tag}", apply_global_motion(_fx(name), j, t)))
    out.append(("rectangle_3x2", fixture("rectangle", a=3.0, b=2.0)))
    for name in sorted(WORKLOADS):
        out.append((f"workload/{name}", read_qlim(WORKLOADS[name]().text(DEFAULT_SEED))))
    return out


def _hex(x):
    return float(x).hex()


def _key(row):
    return [x if isinstance(x, (str, int)) else _hex(x) for x in node_key(row)]


def _complex(layout):
    faces, P, Q = (x.tolist() for x in layout.segments)
    rows = [f"{f} {_hex(p[0])} {_hex(p[1])} {_hex(q[0])} {_hex(q[1])}\n"
            for f, p, q in zip(faces, P, Q)]
    arcs, walks, darts = (x.tolist() for x in (layout.arc_offsets, layout.patch_offsets,
                                                layout.patch_darts))
    return {
        "euler": int(layout.euler),
        # key, face, chart point, degree, cone, boundary
        "nodes": [
            [_key(row), f, [_hex(x) for x in uv], d, c, b]
            for row, f, uv, d, c, b in zip(
                layout.node_keys, layout.node_faces.tolist(), layout.node_uv.tolist(),
                layout.node_degree.tolist(), layout.node_cone.tolist(),
                layout.node_boundary.tolist())
        ],
        # node a, node b, SHA-256 of the segment rows
        "arcs": [
            [a, b, hashlib.sha256("".join(rows[i:j]).encode()).hexdigest()]
            for (a, b), i, j in zip(layout.arc_nodes.tolist(), arcs, arcs[1:])
        ],
        # corners, darts
        "patches": [
            [c, [[d >> 1, 1 - 2 * (d & 1)] for d in darts[i:j]]]
            for i, j, c in zip(walks, walks[1:], layout.patch_corners.tolist())
        ],
    }


def _attempt(fn, param):
    try:
        return fn(param), None
    except QlimError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def record_one(param):
    oracle, oracle_err = _attempt(layout_oracle_bruteforce, param)
    layout, layout_err = _attempt(extract_layout, param)
    coarsens = None
    if oracle is not None and layout is not None:
        coarsens = bool(verify_coarsening(param, layout, oracle))
    return {
        "oracle": _complex(oracle) if oracle is not None else {"error": oracle_err},
        "layout": _complex(layout) if layout is not None else {"error": layout_err},
        "coarsens": coarsens,
    }


def record():
    """The golden entry of every input, as a JSON-ready list of dicts."""
    return [{"input": name, **record_one(p)} for name, p in inputs()]


if __name__ == "__main__":
    with open(sys.argv[1], "w") as fh:
        json.dump(record(), fh, separators=(",", ":"))
        fh.write("\n")
