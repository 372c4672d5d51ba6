"""Text file formats: `.qlim` (mesh + UV + seams + cones), `.qlay` (abstract
quad complexes), OBJ import, and JSON report serialization.

Both custom formats are line oriented.  Floats are written with 17
significant digits so that parsing and rewriting a canonical file is
byte-exact.  Indices are 0-based throughout.
"""

import json
import math

import numpy as np

from .errors import ParseError, SeamTwinMismatch, VersionUnsupported
from .immersion import ConeRecord, SeamTransition, SeamlessParam
from .mesh import TriMesh, build_halfedge

QLIM_VERSION = 1
QLAY_VERSION = 1


def _fmt(x):
    return format(float(x), ".17g")


class _Lines:
    """Cursor over non-comment lines that tracks 1-based line numbers."""

    def __init__(self, text):
        self.raw = text.splitlines()
        self.pos = 0

    def next(self, reason="unexpected end of file"):
        while self.pos < len(self.raw):
            self.pos += 1
            line = self.raw[self.pos - 1].strip()
            if line and not line.startswith("#"):
                return line
        raise ParseError(self.pos, reason)

    def peek(self):
        p = self.pos
        while p < len(self.raw):
            line = self.raw[p].strip()
            p += 1
            if line and not line.startswith("#"):
                return line
        return None


def _expect_count(lines, keyword):
    line = lines.next(f"expected '{keyword} <count>'")
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(lines.pos, f"expected '{keyword} <count>', got {line!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lines.pos, f"bad count in {line!r}")
    if n < 0:
        raise ParseError(lines.pos, f"negative count in {line!r}")
    return n


def _check_finite(values, row_lines, what):
    """Raise ParseError at the first row of `values` holding inf or nan."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise ParseError(row_lines[row], f"{what} must be finite")


def _expect_row(lines, tag, n_fields):
    line = lines.next(f"expected '{tag}' record")
    parts = line.split()
    if parts[0] != tag or len(parts) != n_fields + 1:
        raise ParseError(
            lines.pos, f"expected '{tag}' record with {n_fields} fields, got {line!r}"
        )
    return parts[1:], lines.pos


# ---------------------------------------------------------------------------
# .qlay - abstract quad complexes


def parse_qlay(text):
    from .synth import AbstractQuadComplex

    lines = _Lines(text)
    header = lines.next("empty file").split()
    if len(header) != 2 or header[0] != "qlay":
        raise ParseError(lines.pos, "expected 'qlay <version>' header")
    if int(header[1]) != QLAY_VERSION:
        raise VersionUnsupported(f"qlay version {header[1]} not supported")
    n_vertices = _expect_count(lines, "vertices")
    n_quads = _expect_count(lines, "quads")
    quads = []
    for _ in range(n_quads):
        fields, lineno = _expect_row(lines, "q", 4)
        try:
            quad = tuple(int(x) for x in fields)
        except ValueError:
            raise ParseError(lineno, "quad corners must be integers")
        if any(v < 0 or v >= n_vertices for v in quad):
            raise ParseError(lineno, "quad corner index out of range")
        quads.append(quad)
    return AbstractQuadComplex(n_vertices, quads)


def write_qlay(complex):
    out = [f"qlay {QLAY_VERSION}", f"vertices {complex.n_vertices}",
           f"quads {len(complex.quads)}"]
    for quad in complex.quads:
        out.append("q " + " ".join(str(int(v)) for v in quad))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# .qlim - seamless parameterizations


def write_qlim(param: SeamlessParam) -> str:
    mesh = param.mesh
    out = [f"qlim {QLIM_VERSION}"]
    out.append(f"vertices {len(mesh.vertices)}")
    for v in mesh.vertices:
        out.append("v " + " ".join(_fmt(x) for x in v))
    out.append(f"faces {len(mesh.faces)}")
    for f in mesh.faces:
        out.append("f " + " ".join(str(int(x)) for x in f))
    out.append(f"uv {len(mesh.faces)}")
    for tri in param.uv:
        out.append("t " + " ".join(_fmt(x) for x in tri.reshape(-1)))

    arc_of_edge = {}
    for k, arc in enumerate(param.cut_graph.arcs):
        for e in arc.edge_ids(mesh):
            arc_of_edge[int(e)] = k
    out.append(f"seams {len(param.seams)}")
    for h in sorted(param.seams):
        t = param.seams[h]
        arc = arc_of_edge.get(int(mesh.edge_id[h]), -1)
        out.append(
            f"s {h // 3} {h % 3} {t.rotation} "
            f"{_fmt(t.translation[0])} {_fmt(t.translation[1])} {arc}"
        )

    cones = param.declared_cones
    if cones is None:
        cones = param.cone_scan()[0]
    out.append(f"cones {len(cones)}")
    for c in cones:
        out.append(f"c {c.vertex} {c.location} {c.m}")
    return "\n".join(out) + "\n"


def read_qlim(text) -> SeamlessParam:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _Lines(text)
    header = lines.next("empty file").split()
    if len(header) != 2 or header[0] != "qlim":
        raise ParseError(lines.pos, "expected 'qlim <version>' header")
    try:
        version = int(header[1])
    except ValueError:
        raise ParseError(lines.pos, "bad version number")
    if version != QLIM_VERSION:
        raise VersionUnsupported(f"qlim version {version} not supported")

    n_vertices = _expect_count(lines, "vertices")
    if n_vertices == 0:
        raise ParseError(lines.pos, "empty vertex table")
    vertices = np.empty((n_vertices, 3), dtype=float)
    v_lines = []
    for i in range(n_vertices):
        fields, lineno = _expect_row(lines, "v", 3)
        v_lines.append(lineno)
        try:
            vertices[i] = [float(x) for x in fields]
        except ValueError:
            raise ParseError(lineno, "vertex coordinates must be numbers")
    _check_finite(vertices, v_lines, "vertex coordinates")

    n_faces = _expect_count(lines, "faces")
    faces = np.empty((n_faces, 3), dtype=np.int64)
    for i in range(n_faces):
        fields, lineno = _expect_row(lines, "f", 3)
        try:
            faces[i] = [int(x) for x in fields]
        except ValueError:
            raise ParseError(lineno, "face indices must be integers")
        if faces[i].min() < 0 or faces[i].max() >= n_vertices:
            raise ParseError(lineno, "face vertex index out of range")

    n_uv = _expect_count(lines, "uv")
    if n_uv != n_faces:
        raise ParseError(lines.pos, "uv table must have one row per face")
    uv = np.empty((n_faces, 3, 2), dtype=float)
    uv_lines = []
    for i in range(n_faces):
        fields, lineno = _expect_row(lines, "t", 6)
        uv_lines.append(lineno)
        try:
            uv[i] = np.asarray([float(x) for x in fields]).reshape(3, 2)
        except ValueError:
            raise ParseError(lineno, "uv coordinates must be numbers")
    _check_finite(uv, uv_lines, "uv coordinates")

    mesh = build_halfedge(vertices, faces)

    n_seams = _expect_count(lines, "seams")
    seams = {}
    for _ in range(n_seams):
        fields, lineno = _expect_row(lines, "s", 6)
        try:
            face, edge, j = int(fields[0]), int(fields[1]), int(fields[2])
            tu, tv = float(fields[3]), float(fields[4])
            int(fields[5])  # arc id, informational
        except ValueError:
            raise ParseError(lineno, "bad seam record")
        if not (math.isfinite(tu) and math.isfinite(tv)):
            raise ParseError(lineno, "seam translation must be finite")
        if face < 0 or face >= n_faces or edge < 0 or edge > 2:
            raise ParseError(lineno, "seam face/edge out of range")
        h = 3 * face + edge
        if mesh.twin[h] == -1:
            raise ParseError(lineno, f"seam record on boundary halfedge {h}")
        if h in seams:
            raise ParseError(lineno, f"duplicate seam record for halfedge {h}")
        seams[h] = SeamTransition(j, (tu, tv))
    for h, t in seams.items():
        g = int(mesh.twin[h])
        if g not in seams:
            raise SeamTwinMismatch(f"seam halfedge {h} lacks its twin record")

    declared = None
    if lines.peek() is not None:
        n_cones = _expect_count(lines, "cones")
        declared = []
        for _ in range(n_cones):
            fields, lineno = _expect_row(lines, "c", 3)
            try:
                vertex, m = int(fields[0]), int(fields[2])
            except ValueError:
                raise ParseError(lineno, "bad cone record")
            location = fields[1]
            if location not in ("interior", "boundary"):
                raise ParseError(lineno, f"bad cone location {location!r}")
            if vertex < 0 or vertex >= n_vertices:
                raise ParseError(lineno, "cone vertex out of range")
            if location == "interior":
                angle = m * np.pi / 2
                defect = 2 * np.pi - angle
            else:
                angle = m * np.pi / 2
                defect = np.pi - angle
            declared.append(ConeRecord(vertex, location, m, angle, defect))

    return SeamlessParam(mesh, uv, seams, declared_cones=declared)


# ---------------------------------------------------------------------------
# OBJ import (positions and triangles only)


def read_obj(text) -> TriMesh:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    vertices = []
    v_lines = []
    faces = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(lineno, "vertex line needs 3 coordinates")
            try:
                vertices.append([float(x) for x in parts[1:4]])
            except ValueError:
                raise ParseError(lineno, "bad vertex coordinate")
            v_lines.append(lineno)
        elif parts[0] == "f":
            if len(parts) != 4:
                raise ParseError(lineno, "only triangular faces are supported")
            try:
                idx = [int(p.split("/")[0]) for p in parts[1:]]
            except ValueError:
                raise ParseError(lineno, "bad face index")
            idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
            faces.append(idx)
    if not vertices:
        raise ParseError(0, "empty vertex table")
    vertices = np.asarray(vertices, dtype=float)
    _check_finite(vertices, v_lines, "vertex coordinates")
    return build_halfedge(vertices, faces)


# ---------------------------------------------------------------------------
# JSON reports


def validation_report_dict(param, report):
    """JSON-ready dict for a validation run."""
    from .mesh import topology_info

    info = topology_info(param.mesh)
    props = {}
    for name in ("q1", "q2", "q3", "q4", "gauss_bonnet", "holonomy"):
        res = getattr(report, name)
        props[name] = {
            "passed": bool(res.passed),
            "violations": [_jsonable(v) for v in res.violations],
        }
    return {
        "schema": "qlim-validation/1",
        "topology": {
            "genus": info.genus,
            "boundary_count": info.boundary_count,
            "euler": info.euler,
            "n_vertices": int(len(param.mesh.vertices)),
            "n_faces": int(len(param.mesh.faces)),
        },
        "cones": [
            {
                "vertex": int(c.vertex),
                "location": c.location,
                "m": int(c.m),
                "angle": float(c.angle),
                "defect": float(c.defect),
            }
            for c in report.cones
        ],
        "jacobian_min": float(report.jacobian_min),
        "jacobian_max": float(report.jacobian_max),
        "properties": props,
        "passed": bool(report.passed),
        "failed_properties": report.failed_properties(),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def dumps_report(d) -> str:
    """Deterministic JSON serialization."""
    return json.dumps(d, indent=2, sort_keys=True) + "\n"
