"""Text file formats: `.qlim` (mesh + UV + seams + cones), `.qlay` (abstract
quad complexes), OBJ import, and JSON report serialization.

Both custom formats are line oriented.  Floats are written with 17
significant digits so that parsing and rewriting a canonical file is
byte-exact.  Indices are 0-based throughout.

The three large `.qlim` tables (`v`, `f` and `t`) are read a section at a
time by `_table`.  It takes the section's next n content lines, splits
each once, checks every tag and field count over the whole list, and
converts all values into one array with one `map` of Python's `float` or
`int`, so the accepted number syntax is Python's.  Face indices are
range-checked as Python ints, before any int64 array exists.  Only when a
check or a conversion fails are the lines scanned one by one, and the
`ParseError` names the first line that fails any per-row check, in
per-row order: tag and field count, then conversion, then (faces) range.
The finite check of `v` and `t` runs after the whole table has converted,
so a malformed row anywhere in a table wins over an inf or nan above it.
Comment and blank lines may sit inside a table; they count toward line
numbers.  A declared count never sizes an allocation: a section reads at
most the rest of the file.  Content after the last section is refused.

Reports are written by `dumps_report`, whose bytes are those of
``json.dumps(d, indent=2, sort_keys=True)`` plus a newline, from one pass
that appends into one list (`_write_json`) and takes Python values only.
"""

import json
import math
from itertools import chain
from operator import itemgetter

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

    def take(self, n):
        """The next n content lines, each split into fields, and their line
        numbers; fewer only at the end of the file."""
        rows, linenos = [], []
        while len(rows) < n and self.pos < len(self.raw):
            start = self.pos
            chunk = list(map(str.split, self.raw[start:start + n - len(rows)]))
            self.pos += len(chunk)
            # a blank line has no fields, a comment's first field starts
            # with '#'; a table's first fields are nearly all one tag
            if all(chunk) and not any(
                t[0] == "#" for t in set(map(itemgetter(0), chunk))
            ):
                rows += chunk
                linenos += range(start + 1, self.pos + 1)
                continue
            for lineno, fields in enumerate(chunk, start + 1):
                if fields and fields[0][0] != "#":
                    rows.append(fields)
                    linenos.append(lineno)
        return rows, linenos


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


def _refuse_unused(faces, v_lines):
    """Raise ParseError at the `v` line of the first vertex no face uses: it
    is no part of the surface, yet it would count in every Euler
    characteristic taken of the mesh."""
    used = np.bincount(faces.ravel(), minlength=len(v_lines))
    if not used.all():
        v = int(np.argmin(used))
        raise ParseError(v_lines[v], f"vertex {v} is used by no face")


def _table(lines, tag, n_fields, n, reason, n_vertices=None):
    """The next n `tag` records of n_fields numbers each, as one flat array,
    and each record's line number.  The numbers are floats, or with
    `n_vertices` face indices: ints in range(n_vertices).

    The whole table is checked and converted at once.  Only when that fails
    are its lines scanned in order, to name the first that fails a check."""
    rows, linenos = lines.take(n)
    width = n_fields + 1
    if (
        len(rows) == n
        and set(map(len, rows)) <= {width}
        and set(map(itemgetter(0), rows)) <= {tag}
    ):
        flat = list(chain.from_iterable(rows))
        del flat[::width]
        del rows  # the row lists are not needed while the numbers convert
        try:
            if n_vertices is None:
                return np.fromiter(map(float, flat), float, len(flat)), linenos
            values = list(map(int, flat))
        except ValueError:
            pass
        else:
            if not values or (min(values) >= 0 and max(values) < n_vertices):
                return np.array(values, dtype=np.int64), linenos
    convert = float if n_vertices is None else int
    for lineno in linenos:
        line = lines.raw[lineno - 1].strip()
        fields = line.split()
        if fields[0] != tag or len(fields) != width:
            raise ParseError(
                lineno, f"expected '{tag}' record with {n_fields} fields, got {line!r}"
            )
        try:
            row = list(map(convert, fields[1:]))
        except ValueError:
            raise ParseError(lineno, reason)
        if n_vertices is not None and (min(row) < 0 or max(row) >= n_vertices):
            raise ParseError(lineno, "face vertex index out of range")
    raise ParseError(lines.pos, f"expected '{tag}' record")


def _refuse_trailing(lines):
    """Raise ParseError at the first content line left after the last
    section."""
    rest, linenos = lines.take(1)
    if rest:
        line = lines.raw[linenos[0] - 1].strip()
        raise ParseError(linenos[0], f"unexpected {line!r} after the last section")


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
    try:
        version = int(header[1])
    except ValueError:
        raise ParseError(lines.pos, "bad version number")
    if version != QLAY_VERSION:
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
    _refuse_trailing(lines)
    return AbstractQuadComplex(n_vertices, quads)


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
    values, v_lines = _table(lines, "v", 3, n_vertices, "vertex coordinates must be numbers")
    vertices = values.reshape(n_vertices, 3)
    _check_finite(vertices, v_lines, "vertex coordinates")

    n_faces = _expect_count(lines, "faces")
    values, _ = _table(
        lines, "f", 3, n_faces, "face indices must be integers", n_vertices=n_vertices
    )
    faces = values.reshape(n_faces, 3)
    _refuse_unused(faces, v_lines)

    n_uv = _expect_count(lines, "uv")
    if n_uv != n_faces:
        raise ParseError(lines.pos, "uv table must have one row per face")
    values, uv_lines = _table(lines, "t", 6, n_faces, "uv coordinates must be numbers")
    uv = values.reshape(n_faces, 3, 2)
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
        if j < 0 or j > 3:
            raise ParseError(lineno, "seam rotation out of range")
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
            declared.append(ConeRecord(vertex, location, m))
        _refuse_trailing(lines)

    return SeamlessParam(mesh, uv, seams, declared_cones=declared)


# ---------------------------------------------------------------------------
# OBJ import (positions and triangles only)


def read_obj(text) -> TriMesh:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    vertices = []
    v_lines = []
    faces = []
    f_lines = []
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
            # 1-based, or relative to the vertices read so far; never 0
            resolved = [i - 1 if i > 0 else len(vertices) + i for i in idx]
            if 0 in idx or min(resolved) < 0:
                raise ParseError(lineno, "face vertex index out of range")
            faces.append(resolved)
            f_lines.append(lineno)
    if not vertices:
        raise ParseError(0, "empty vertex table")
    for idx, lineno in zip(faces, f_lines):
        if max(idx) >= len(vertices):
            raise ParseError(lineno, "face vertex index out of range")
    vertices = np.asarray(vertices, dtype=float)
    _check_finite(vertices, v_lines, "vertex coordinates")
    _refuse_unused(np.asarray(faces, dtype=np.int64).reshape(-1, 3), v_lines)
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
            "violations": list(res.violations),
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


def dumps_report(d) -> str:
    """The text of ``json.dumps(d, indent=2, sort_keys=True)`` and a
    newline, written in one pass into one list.  `json` encodes with its C
    encoder only when `indent` is None, and its pure-Python one costs more
    than most reports' computation, so the writer takes the values reports
    hold by exact type: dicts with str keys, lists and tuples, str, int,
    float (NaN and the infinities as `json` writes them), bool and None.  A
    list or tuple of one scalar type is joined in one call.  Reports hold
    Python values only, so any other value, a subclass included, raises
    TypeError."""
    out = []
    _write_json(d, out, "\n")
    return "".join(out) + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x):
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


_JSON_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(o, out, newline):
    """Append `o` to `out` as `dumps_report` writes it, at the indent that
    `newline` ends with."""
    kind = type(o)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(o))
        return
    if kind is not dict and kind is not list and kind is not tuple:
        raise TypeError(f"a report value of type {kind.__name__}")
    if not o:
        out.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        sep = "{" + inner
        for key in sorted(o):
            out += (sep, json.encoder.encode_basestring_ascii(key), ": ")
            _write_json(o[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
        return
    first = type(o[0])
    scalar = _JSON_SCALARS.get(first)
    if scalar is not None and all(type(x) is first for x in o):
        out += ("[", inner, ("," + inner).join(map(scalar, o)), newline, "]")
        return
    sep = "[" + inner
    for x in o:
        out.append(sep)
        _write_json(x, out, inner)
        sep = "," + inner
    out.append(newline + "]")
