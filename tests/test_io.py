import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlim.cli
import qlim.cutgraph
from qlim.cli import main
from qlim.errors import ParseError, PropertyViolation, SeamTwinMismatch, VersionUnsupported
from qlim.immersion import ConeRecord, SeamlessParam, SeamTransition, validate_immersion
from qlim.mesh import TriMesh, build_halfedge
from qlim.qlimio import (
    QLIM_VERSION,
    _check_finite,
    _expect_count,
    _expect_row,
    _Lines,
    parse_qlay,
    read_obj,
    read_qlim,
    validation_report_dict,
    write_qlim,
)
from qlim.svg import export_svg
from qlim.synth import OverlapWarning, fixture, perturb

warnings.simplefilter("ignore", OverlapWarning)

ALL_FIXTURES = ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]


def fx(name, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        return fixture(name, **kw)


def _run_qlim(args, **env):
    """`python -m qlim *args` in a subprocess, run on the package under test
    wherever it was imported from, with `env` added to the environment."""
    src = os.path.dirname(os.path.dirname(qlim.__file__))
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qlim", *args], capture_output=True,
                          timeout=60, env=env)


class TestQlimFormat:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_canonical_round_trip_is_byte_exact(self, name):
        text = write_qlim(fx(name))
        assert write_qlim(read_qlim(text)) == text

    def test_read_preserves_geometry_and_seams(self):
        p = fx("annulus_35")
        q = read_qlim(write_qlim(p))
        assert (q.uv == p.uv).all()
        assert q.seams == p.seams
        assert (q.mesh.faces == p.mesh.faces).all()

    def test_missing_twin_record_rejected(self):
        text = write_qlim(fx("flat_torus"))
        lines = text.splitlines(keepends=True)
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("s "))
        del lines[idx]
        count_idx = next(
            i for i, ln in enumerate(lines) if ln.startswith("seams ")
        )
        n = int(lines[count_idx].split()[1]) - 1
        lines[count_idx] = f"seams {n}\n"
        with pytest.raises(SeamTwinMismatch):
            read_qlim("".join(lines))

    def test_empty_vertex_table_rejected(self):
        with pytest.raises(ParseError):
            read_qlim("qlim 1\nvertices 0\nfaces 0\nuv 0\nseams 0\n")

    def test_unsupported_version_rejected(self):
        with pytest.raises(VersionUnsupported):
            read_qlim("qlim 99\nvertices 1\nv 0 0 0\n")

    def test_garbage_line_number_reported(self):
        text = "qlim 1\nvertices 1\nv 0 0 bogus\n"
        with pytest.raises(ParseError) as err:
            read_qlim(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("tag", ["v", "t", "s"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_number_rejected_at_its_line(self, tag, value):
        lines = write_qlim(fx("annulus_35")).splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith(tag + " "))
        idx += 2  # not the first row of its table
        fields = lines[idx].split()
        fields[{"v": 3, "t": 4, "s": 4}[tag]] = value  # a float field
        lines[idx] = " ".join(fields)
        with pytest.raises(ParseError) as err:
            read_qlim("\n".join(lines) + "\n")
        assert err.value.line == idx + 1
        assert "finite" in str(err.value)


def _edited_rectangle(changes):
    """The rectangle fixture's `.qlim` text with field `field` of the k-th
    `tag` row set to `value`, for each ((tag, k, field), value)."""
    lines = write_qlim(fx("rectangle")).splitlines()
    for (tag, k, field), value in changes:
        i = [i for i, ln in enumerate(lines) if ln.startswith(tag + " ")][k]
        parts = lines[i].split()
        parts[field] = value
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


# (edits, line, reason); vertex rows start at line 3, face rows at 13 and
# uv rows at 22.  A table is checked for inf and nan only after all its
# rows have parsed, so a malformed row later in the table wins.
PARSE_ERRORS = {
    "v_non_numeric": (
        [(("v", 2, 2), "x")], 5, "vertex coordinates must be numbers"),
    "t_non_numeric": (
        [(("t", 1, 5), "1.5.2")], 23, "uv coordinates must be numbers"),
    "f_non_integer": (
        [(("f", 1, 2), "1.0")], 14, "face indices must be integers"),
    "f_range_before_malformed": (
        [(("f", 0, 3), "99"), (("f", 1, 1), "a")], 13,
        "face vertex index out of range"),
    "f_negative": (
        [(("f", 1, 1), "-1")], 14, "face vertex index out of range"),
    "f_beyond_int64": (
        [(("f", 0, 1), "99999999999999999999")], 13,
        "face vertex index out of range"),
    "v_nan": (
        [(("v", 1, 1), "nan")], 4, "vertex coordinates must be finite"),
    "t_inf": (
        [(("t", 1, 3), "-inf")], 23, "uv coordinates must be finite"),
    "v_nan_before_malformed": (
        [(("v", 0, 3), "nan"), (("v", 2, 1), "y")], 5,
        "vertex coordinates must be numbers"),
    "t_inf_before_malformed": (
        [(("t", 0, 1), "inf"), (("t", 1, 1), "z")], 23,
        "uv coordinates must be numbers"),
    "v_nan_then_f_malformed": (
        [(("v", 0, 3), "nan"), (("f", 0, 1), "z")], 3,
        "vertex coordinates must be finite"),
}


class TestQlimErrors:
    @pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
    def test_error_line_and_reason(self, case):
        changes, line, reason = PARSE_ERRORS[case]
        with pytest.raises(ParseError) as err:
            read_qlim(_edited_rectangle(changes))
        assert (err.value.line, err.value.reason) == (line, reason)
        assert str(err.value) == f"line {line}: {reason}"


class TestQlayRefusals:
    ONE_QUAD = "qlay 1\nvertices 4\nquads 1\nq 0 1 2 3\n"

    def test_non_integer_version_rejected_at_its_line(self):
        with pytest.raises(ParseError) as err:
            parse_qlay("# a quad complex\nqlay x\n")
        assert (err.value.line, err.value.reason) == (2, "bad version number")

    def test_content_after_the_last_quad_rejected(self):
        text = self.ONE_QUAD + "# a comment is fine\n\ngarbage here\n"
        with pytest.raises(ParseError) as err:
            parse_qlay(text)
        assert err.value.line == 7
        assert err.value.reason == "unexpected 'garbage here' after the last section"
        assert parse_qlay(self.ONE_QUAD + "# a comment is fine\n\n").quads == [(0, 1, 2, 3)]


def _qlim_refusal(case):
    """`.qlim` text (as lines) that `read_qlim` refuses, the line it names
    and its reason: the header, the version, a table the file ends inside,
    a seam record's face, a seam record on a boundary halfedge and a cone's
    vertex."""
    name = "flat_torus" if case == "seam face" else "rectangle"
    lines = write_qlim(fx(name)).splitlines()

    def row(tag):
        return next(i for i, ln in enumerate(lines) if ln.split()[0] == tag)

    def edit(i, field, value):
        fields = lines[i].split()
        fields[field] = value
        lines[i] = " ".join(fields)
        return i + 1

    if case == "header":
        return lines, edit(0, 0, "qlin"), "expected 'qlim <version>' header"
    if case == "version":
        return lines, edit(0, 1, "one"), "bad version number"
    if case == "table cut short":
        return lines[:row("v") + 2], row("v") + 2, "expected 'v' record"
    if case == "seam face":
        return lines, edit(row("s"), 1, "99"), "seam face/edge out of range"
    if case == "seam on the boundary":
        h = int(np.flatnonzero(fx(name).mesh.twin == -1)[0])
        i = row("seams")
        lines[i:i + 1] = ["seams 1", f"s {h // 3} {h % 3} 0 0 0 -1"]
        return lines, i + 2, f"seam record on boundary halfedge {h}"
    return lines, edit(row("c"), 1, "999"), "cone vertex out of range"


@pytest.mark.parametrize("case", ["header", "version", "table cut short", "seam face",
                                  "seam on the boundary", "cone vertex"])
def test_qlim_refusals_name_their_line(tmp_path, capsys, case):
    lines, line, reason = _qlim_refusal(case)
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as err:
        read_qlim(text)
    assert (err.value.line, err.value.reason) == (line, reason)
    path = tmp_path / "bad.qlim"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr() == ("", f"qlim: error: line {line}: {reason}\n")


QLAY_REFUSALS = {
    "header": ("qlya 1\nvertices 4\nquads 1\nq 0 1 2 3\n", ParseError,
               "line 1: expected 'qlay <version>' header"),
    "version": ("qlay 2\nvertices 4\nquads 1\nq 0 1 2 3\n", VersionUnsupported,
                "qlay version 2 not supported"),
    "corner not an integer": ("qlay 1\nvertices 4\nquads 1\nq 0 1 2 3.0\n", ParseError,
                              "line 4: quad corners must be integers"),
    "corner out of range": ("qlay 1\nvertices 4\nquads 1\nq 0 1 2 4\n", ParseError,
                            "line 4: quad corner index out of range"),
}


@pytest.mark.parametrize("case", sorted(QLAY_REFUSALS))
def test_qlay_refusals_say_what_they_refuse(case):
    # no subcommand reads `.qlay`: the packaged annulus complex is its one use
    text, error, message = QLAY_REFUSALS[case]
    with pytest.raises(error) as err:
        parse_qlay(text)
    assert str(err.value) == message


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
OBJ_REFUSALS = {
    "vertex short": ("v 0 0\n", 1, "vertex line needs 3 coordinates"),
    "vertex not a number": ("v 0 0 0\nv 1 x 0\n", 2, "bad vertex coordinate"),
    "vertex not finite": ("v 0 0 0\n# c\nv 1 nan 0\nv 0 1 0\nf 1 2 3\n", 3,
                          "vertex coordinates must be finite"),
    "quad face": (TRIANGLE + "v 1 1 0\nf 1 2 4 3\n", 5, "only triangular faces are supported"),
    "face index not an integer": (TRIANGLE + "f 1 b 3\n", 4, "bad face index"),
    "face index 0": (TRIANGLE + "f 0 1 2\n", 4, "face vertex index out of range"),
    "face index after the last vertex": (TRIANGLE + "f 1 2 4\n", 4,
                                         "face vertex index out of range"),
    "no vertices": ("# empty\nf 1 2 3\n", 0, "empty vertex table"),
}


@pytest.mark.parametrize("case", sorted(OBJ_REFUSALS))
def test_obj_refusals_name_their_line(tmp_path, capsys, case):
    text, line, reason = OBJ_REFUSALS[case]
    with pytest.raises(ParseError) as err:
        read_obj(text)
    assert (err.value.line, err.value.reason) == (line, reason)
    path = tmp_path / "bad.obj"
    path.write_text(text)
    assert main(["cut", str(path)]) == 1
    assert capsys.readouterr() == ("", f"qlim: error: line {line}: {reason}\n")


# read without complaint: two vertices and no face, uv row or seam
FACELESS_QLIM = "qlim 1\nvertices 2\nv 0 0 0\nv 1 0 0\nfaces 0\nuv 0\nseams 0\n"


@pytest.mark.parametrize("case", ["cut", "complement", "uv scale", "bbox", "qlim bytes",
                                  "obj bytes"])
def test_empty_meshes_and_bytes_reach_their_guards(tmp_path, capsys, case):
    """The guards only an empty mesh reaches, and the readers' bytes input."""
    if case == "cut":
        # no face, so no dual tree, and no two edges for a seed slit
        path = tmp_path / "faceless.qlim"
        path.write_text(FACELESS_QLIM)
        assert main(["cut", str(path)]) == 1
        assert capsys.readouterr() == ("", "qlim: error: no seed slit found\n")
    elif case == "complement":
        mesh = read_qlim(FACELESS_QLIM).mesh
        graph = qlim.cutgraph.make_cut_graph(mesh, [])
        report = qlim.cutgraph.validate_cutting_graph(mesh, graph, [])
        # a faceless complement is connected, but its Euler characteristic is 2
        assert report["complement_connected"] is True
        assert report["complement_simply_connected"] is False
    elif case == "uv scale":
        param = read_qlim(FACELESS_QLIM)
        assert (len(param.mesh.vertices), param.uv.shape, param.seams) == (2, (0, 3, 2), {})
        assert param.uv_scale() == 0.0
    elif case == "bbox":
        assert TriMesh(np.zeros((0, 3)), np.zeros((0, 3), int)).bbox_diagonal() == 0.0
    elif case == "qlim bytes":
        text = write_qlim(fx("rectangle"))
        assert write_qlim(read_qlim(text.encode("utf-8"))) == text
    else:
        text = "# caf\u00e9\n" + TRIANGLE + "f 1 2 3\n"
        got, want = read_obj(text.encode("utf-8")), read_obj(text)
        assert np.array_equal(got.vertices, want.vertices)
        assert np.array_equal(got.faces, want.faces) and len(got.faces) == 1


class TestQlimRefusals:
    def test_content_after_the_last_section_rejected(self):
        text = write_qlim(fx("annulus_35")) + "# a comment is fine\n\ngarbage here\n"
        with pytest.raises(ParseError) as err:
            read_qlim(text)
        assert err.value.line == len(text.splitlines())
        assert err.value.reason == "unexpected 'garbage here' after the last section"
        read_qlim(write_qlim(fx("annulus_35")) + "# a comment is fine\n\n")

    @pytest.mark.parametrize("rotation", ["4", "7", "-1"])
    def test_seam_rotation_outside_0_to_3_rejected_at_its_line(self, rotation):
        lines = write_qlim(fx("annulus_35")).splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("s "))
        fields = lines[idx].split()
        fields[3] = rotation
        lines[idx] = " ".join(fields)
        with pytest.raises(ParseError) as err:
            read_qlim("\n".join(lines) + "\n")
        assert (err.value.line, err.value.reason) == (idx + 1, "seam rotation out of range")

    def test_comment_and_blank_lines_inside_tables(self):
        lines = write_qlim(fx("rectangle")).splitlines()
        for tag in ("v", "f", "t"):
            idx = [i for i, ln in enumerate(lines) if ln.startswith(tag + " ")]
            lines[idx[1]:idx[1]] = ["# inside", "", "  #indented"]
        p = read_qlim("\n".join(lines) + "\n")
        assert write_qlim(p) == write_qlim(fx("rectangle"))
        # the second uv row, three lines further down than without comments
        t = [i for i, ln in enumerate(lines) if ln.startswith("t ")][1]
        fields = lines[t].split()
        fields[1] = "nan"
        lines[t] = " ".join(fields)
        with pytest.raises(ParseError) as err:
            read_qlim("\n".join(lines) + "\n")
        assert (err.value.line, err.value.reason) == (t + 1, "uv coordinates must be finite")

    def test_a_huge_count_is_read_against_the_file(self):
        text = write_qlim(fx("rectangle")).replace("vertices 9\n", "vertices 99999999999\n")
        with pytest.raises(ParseError) as err:
            read_qlim(text)
        assert err.value.line == 12
        assert err.value.reason.startswith("expected 'v' record with 3 fields, got 'faces ")


# ---------------------------------------------------------------------------
# the section-at-a-time reader against the row-by-row reference


def _read_qlim_ref(text):
    """`read_qlim` one row at a time, kept as the reference for the table
    reader: the same param, or the same error."""
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
    rows, v_lines = [], []
    for _ in range(n_vertices):
        fields, lineno = _expect_row(lines, "v", 3)
        v_lines.append(lineno)
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise ParseError(lineno, "vertex coordinates must be numbers")
    vertices = np.array(rows, dtype=float)
    _check_finite(vertices, v_lines, "vertex coordinates")

    n_faces = _expect_count(lines, "faces")
    rows = []
    for _ in range(n_faces):
        fields, lineno = _expect_row(lines, "f", 3)
        try:
            row = [int(x) for x in fields]
        except ValueError:
            raise ParseError(lineno, "face indices must be integers")
        if min(row) < 0 or max(row) >= n_vertices:
            raise ParseError(lineno, "face vertex index out of range")
        rows.append(row)
    faces = np.array(rows, dtype=np.int64).reshape(n_faces, 3)

    n_uv = _expect_count(lines, "uv")
    if n_uv != n_faces:
        raise ParseError(lines.pos, "uv table must have one row per face")
    rows, uv_lines = [], []
    for _ in range(n_faces):
        fields, lineno = _expect_row(lines, "t", 6)
        uv_lines.append(lineno)
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise ParseError(lineno, "uv coordinates must be numbers")
    uv = np.array(rows, dtype=float).reshape(n_faces, 3, 2)
    _check_finite(uv, uv_lines, "uv coordinates")

    mesh = build_halfedge(vertices, faces)

    n_seams = _expect_count(lines, "seams")
    seams = {}
    for _ in range(n_seams):
        fields, lineno = _expect_row(lines, "s", 6)
        try:
            face, edge, j = int(fields[0]), int(fields[1]), int(fields[2])
            tu, tv = float(fields[3]), float(fields[4])
            int(fields[5])
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
    for h in seams:
        if int(mesh.twin[h]) not in seams:
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
        line = lines.peek()
        if line is not None:
            lines.next()
            raise ParseError(lines.pos, f"unexpected {line!r} after the last section")

    return SeamlessParam(mesh, uv, seams, declared_cones=declared)


MUTATED_TEXTS = {name: write_qlim(fx(name)).splitlines() for name in ("rectangle", "annulus_35")}
COUNT_KEYWORDS = ("vertices", "faces", "uv", "seams", "cones")


@st.composite
def one_line_mutations(draw):
    """A fixture's `.qlim` text with one line changed, dropped, doubled or
    inserted."""
    lines = list(MUTATED_TEXTS[draw(st.sampled_from(sorted(MUTATED_TEXTS)))])
    kind = draw(st.sampled_from(["field", "drop", "duplicate", "count", "comment", "trailing"]))
    i = draw(st.integers(1, len(lines) - 1))
    if kind == "field":
        fields = lines[i].split()
        k = draw(st.integers(0, len(fields) - 1))
        fields[k] = draw(st.sampled_from(["x", "nan", "-inf", "1.0", "-1", "99999999999999999999"]))
        lines[i] = " ".join(fields)
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "count":
        i = draw(st.sampled_from([j for j, ln in enumerate(lines) if ln.split()[0] in COUNT_KEYWORDS]))
        keyword, n = lines[i].split()
        n = draw(st.sampled_from([int(n) - 1, int(n) + 1, 0, 99999999999]))
        lines[i] = f"{keyword} {n}"
    elif kind == "comment":
        lines.insert(i, draw(st.sampled_from(["# note", "", "   ", "\t#x 1 2"])))
    else:
        lines.append(draw(st.sampled_from(["garbage here", "c 0 interior 1", "# note", ""])))
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    """The arrays parsed and the text written back, or the error raised."""
    try:
        p = parse(text)
        arrays = (p.mesh.vertices, p.mesh.faces, p.uv)
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays], write_qlim(p)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "reason", None)


@settings(max_examples=500, deadline=2000, derandomize=True, database=None)
@given(one_line_mutations())
def test_table_reader_matches_the_row_by_row_reference(text):
    assert _outcome(read_qlim, text) == _outcome(_read_qlim_ref, text)


def _python_values(x):
    """Whether `x` is built from Python's own JSON types only."""
    if type(x) is dict:
        return all(type(k) is str and _python_values(v) for k, v in x.items())
    if type(x) in (list, tuple):
        return all(map(_python_values, x))
    return x is None or type(x) in (bool, int, float, str)


def test_validation_reports_hold_python_values_only():
    # so `json.dumps` writes each report as it is, a tuple as a list
    from test_immersion import _with_jittered_uvs

    kinds = set()
    for name, p in _with_jittered_uvs():
        report = validate_immersion(p)
        assert _python_values(validation_report_dict(p, report)), name
        kinds.update(n for n in ("q1", "q2", "q3", "q4", "gauss_bonnet", "holonomy")
                     if getattr(report, n).violations)
    assert kinds == {"q1", "q2", "q3", "q4", "holonomy"}


class TestObjImport:
    def test_single_triangle(self):
        mesh = read_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert len(mesh.faces) == 1

    def test_quad_face_rejected(self):
        with pytest.raises(ParseError):
            read_obj("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")

    def test_non_finite_vertex_rejected_at_its_line(self):
        with pytest.raises(ParseError) as err:
            read_obj("v 0 0 0\n# comment\nv 1 nan 0\nv 0 1 0\nf 1 2 3\n")
        assert err.value.line == 3


class TestSvg:
    def test_rectangle_triangles_and_corner_dots(self):
        p = fx("rectangle", a=3.0, b=2.0)
        svg = export_svg(p)
        assert svg.count("<polygon") == 2 * 3 * 2
        assert svg.count("<circle") == 4

    def test_deterministic_bytes(self):
        p = fx("annulus_35")
        assert export_svg(p) == export_svg(p)

    def test_layout_arcs_rendered(self):
        from qlim.layout import extract_layout

        p = fx("l_domain")
        plain = export_svg(p)
        with_layout = export_svg(p, layout=extract_layout(p))
        assert with_layout.count("<line") > plain.count("<line")


class TestCli:
    def synth(self, tmp_path, name, *params):
        out = tmp_path / f"{name}.qlim"
        args = ["synth", name, "-o", str(out)]
        for kv in params:
            args += ["--param", kv]
        assert main(args) == 0
        return out

    def test_synth_validate_pass(self, tmp_path, capsys):
        f = self.synth(tmp_path, "flat_torus", "w=4", "h=3")
        assert main(["validate", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"]
        assert doc["failed_properties"] == []

    def test_validate_mutant_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.qlim"
        bad.write_text(write_qlim(perturb(fx("flat_torus"), "BumpRotation")))
        assert main(["validate", str(bad)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert "q3" in doc["failed_properties"]

    def test_validate_refuses_coincident_vertices(self, tmp_path, capsys):
        # l_domain with every vertex at the origin: each face has area 0,
        # which is not above a threshold of 0
        lines = [("v 0 0 0" if ln.startswith("v ") else ln)
                 for ln in write_qlim(fx("l_domain")).splitlines()]
        bad = tmp_path / "coincident.qlim"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr() == (
            "", "qlim: error: face 0 has area 0.000e+00, not above threshold 0.000e+00\n")

    def test_validate_sheared_torus_fails_only_q5(self, tmp_path, capsys):
        f = self.synth(tmp_path, "sheared_torus")
        assert main(["validate", str(f), "--budget", "3000"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed_properties"] == ["q5"]
        assert "terminated prematurely" in doc["q5"]["note"]

    def test_separatrix_out_of_budget_fails_q5_and_extract(self, tmp_path, capsys):
        f = self.synth(tmp_path, "annulus_35")
        assert main(["validate", str(f), "--budget", "3"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed_properties"] == ["q5"]
        assert doc["q5"]["budget_exhausted"]
        out = tmp_path / "layout.json"
        assert main(["extract", str(f), "-o", str(out), "--budget", "3"]) == 1
        assert "exhausted the tracing budget (3 segments)" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_reports_a_q5_refusal_as_its_note(self, tmp_path, capsys, monkeypatch):
        def refuse(param, budget=None):
            raise PropertyViolation("no chart to trace in")

        monkeypatch.setattr(qlim.cli, "validate_q5", refuse)
        f = self.synth(tmp_path, "flat_torus")
        assert main(["validate", str(f)]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed_properties"] == ["q5"]
        assert doc["q5"] == {"passed": False, "curves": [], "note": "no chart to trace in"}

    @pytest.mark.parametrize("name", ["flat_torus", "sheared_torus"])
    def test_validate_report_file_holds_the_printed_report(self, tmp_path, capsys, name):
        f = self.synth(tmp_path, name)
        printed = main(["validate", str(f)])
        want = capsys.readouterr().out
        report = tmp_path / "report.json"
        assert main(["validate", str(f), "--report", str(report)]) == printed
        assert capsys.readouterr().out == ""
        assert report.read_text() == want

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.qlim")]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_uv_exits_1_with_error(self, tmp_path, capsys):
        lines = write_qlim(fx("annulus_35")).splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("t "))
        lines[idx] = "t inf " + lines[idx].split(maxsplit=2)[2]
        bad = tmp_path / "bad.qlim"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("qlim: error:")

    def test_python_dash_m_runs_the_cli(self):
        run = _run_qlim(["--help"])
        assert run.returncode == 0
        assert run.stdout.startswith(b"usage: qlim")

    def test_extract_and_oracle_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        f = self.synth(tmp_path, "annulus_35")
        outputs = []
        for seed in ("0", "1"):
            layout = tmp_path / f"layout{seed}.json"
            extract = _run_qlim(["extract", str(f), "-o", str(layout)], PYTHONHASHSEED=seed)
            oracle = _run_qlim(["oracle", str(f)], PYTHONHASHSEED=seed)
            assert (extract.returncode, oracle.returncode) == (0, 0)
            outputs.append((layout.read_bytes(), oracle.stdout))
        assert outputs[0] == outputs[1]

    def test_unknown_fixture_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.qlim"
        assert main(["synth", "moebius", "-o", str(out)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "name, param",
        [("flat_torus", "w=2"), ("flat_torus", "bogus=1"), ("annulus_35", "k=2"),
         ("rectangle", "a=x"), ("rectangle", "a=-1")],
    )
    def test_synth_refuses_a_bad_param(self, tmp_path, capsys, name, param):
        out = tmp_path / "x.qlim"
        assert main(["synth", name, "--param", param, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qlim: error: bad --param for fixture {name!r}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_synth_refuses_a_param_without_a_value(self, tmp_path, capsys):
        out = tmp_path / "x.qlim"
        assert main(["synth", "flat_torus", "--param", "w4", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "qlim: error: --param expects key=value, got 'w4'\n"
        assert not out.exists()

    def test_trace_reports_status(self, tmp_path, capsys):
        f = self.synth(tmp_path, "flat_torus")
        rc = main(
            ["trace", str(f), "--face", "0", "--bary", "0.33,0.33,0.34",
             "--axis", "u"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "Periodic"

    @pytest.mark.parametrize(
        "face, bary",
        [("-1", "0.2,0.3,0.5"), ("999", "0.2,0.3,0.5"), ("0", "nan,0.5,0.5"),
         ("0", "inf,0,0"), ("0", "2,-0.5,-0.5"), ("0", "a,b,c")],
    )
    def test_trace_refuses_bad_start(self, tmp_path, capsys, face, bary):
        f = self.synth(tmp_path, "rectangle")
        rc = main(["trace", str(f), "--face", face, "--bary", bary, "--axis", "u"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qlim: error: bad start point: ")

    def test_trace_refuses_two_barycentric_numbers(self, tmp_path, capsys):
        f = self.synth(tmp_path, "rectangle")
        rc = main(["trace", str(f), "--face", "0", "--bary", "0.5,0.5", "--axis", "u"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qlim: error: --bary expects three comma-separated numbers\n"

    def test_trace_from_an_edge_point_leaving_its_face(self, tmp_path, capsys):
        # (0.5, 0.5, 0) lies on the bottom edge of face 0, whose u line
        # leaves the face downward through it: that ray ends at the boundary
        f = self.synth(tmp_path, "rectangle")
        rc = main(["trace", str(f), "--face", "0", "--bary", "0.5,0.5,0", "--axis", "u"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "Finite"
        assert doc["terminal_events"] == ["HitBoundaryTransverse", "HitBoundaryTransverse"]

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", ["trace", "validate", "extract"])
    def test_budget_below_1_exits_1(self, tmp_path, capsys, command, value):
        f = self.synth(tmp_path, "flat_torus")
        more = {
            "trace": ["--face", "0", "--bary", "0.2,0.3,0.5", "--axis", "u"],
            "validate": [],
            "extract": ["-o", str(tmp_path / "layout.json")],
        }[command]
        assert main([command, str(f), *more, "--budget", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --budget: must be at least 1, got {value}" in err

    def test_extract_rectangle_layout(self, tmp_path, capsys):
        f = self.synth(tmp_path, "rectangle")
        out = tmp_path / "layout.json"
        svg = tmp_path / "layout.svg"
        assert main(["extract", str(f), "-o", str(out), "--svg", str(svg)]) == 0
        doc = json.loads(out.read_text())
        assert doc["counts"] == {"nodes": 4, "arcs": 4, "patches": 1}
        assert svg.read_text().startswith("<svg")

    def test_oracle_counts(self, tmp_path, capsys):
        f = self.synth(tmp_path, "annulus_35")
        assert main(["oracle", str(f), "--step", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"nodes": 20, "arcs": 35, "patches": 15}

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_oracle_step_below_1_exits_1(self, tmp_path, capsys, value):
        f = self.synth(tmp_path, "rectangle", "a=3", "b=2")
        assert main(["oracle", str(f), "--step", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --step: must be at least 1, got {value}" in err

    def test_oracle_refuses_non_integral_seam(self, tmp_path, capsys):
        f = self.synth(tmp_path, "sheared_torus")
        assert main(["oracle", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qlim: error: seam translation")
        assert "halfedge 28" in err

    def test_cut_from_qlim(self, tmp_path, capsys):
        f = self.synth(tmp_path, "flat_torus")
        assert main(["cut", str(f), "--singularities", ""]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completion"]["euler"] == 1
        assert doc["completion"]["boundary_loops"] == 1

    def test_cut_cuts_the_mesh_once(self, tmp_path, capsys, monkeypatch):
        f = self.synth(tmp_path, "annulus_35")
        sing = sorted(
            c.vertex for c in fx("annulus_35").declared_cones if c.location == "interior"
        )
        calls = []
        cut_mesh = qlim.cutgraph.cut_mesh

        def counting_cut_mesh(*args):
            calls.append(args)
            return cut_mesh(*args)

        monkeypatch.setattr(qlim.cutgraph, "cut_mesh", counting_cut_mesh)
        assert main(["cut", str(f), "--singularities", ",".join(map(str, sing))]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["checks"]["all"]

    def test_cut_refuses_a_singularity_left_on_the_cut_graph(self, tmp_path, capsys):
        # vertex 10 shares faces with vertices 3 and 6, and the dual spanning
        # tree leaves it inside the pruned cut graph
        f = self.synth(tmp_path, "flat_torus")
        assert main(["cut", str(f), "--singularities", "3,6,7,10"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qlim: error: could not free singular vertex 10 from the cut graph\n"

    def test_cut_names_the_failed_checks(self, tmp_path, capsys, monkeypatch):
        # two parallel loops around the torus cut it into two annuli
        f = self.synth(tmp_path, "flat_torus")
        make_cut_graph = qlim.cutgraph.make_cut_graph

        def two_loops(mesh, cut, sing):
            row = np.rint(2 * mesh.vertices[:, 1])[mesh.edges]  # 0, 1 or 2
            loops = np.flatnonzero((row[:, 0] == row[:, 1]) & (row[:, 0] < 2))
            assert len(loops) == 8
            return make_cut_graph(mesh, loops.tolist(), sing)

        monkeypatch.setattr(qlim.cutgraph, "make_cut_graph", two_loops)
        assert main(["cut", str(f), "--singularities", ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("qlim: error: cut graph is not simple: failed complement_connected, "
                       "complement_simply_connected\n")

    def test_cut_from_obj(self, tmp_path, capsys):
        from meshes import grid_disk

        mesh = grid_disk(3, 3)
        lines = [f"v {x} {y} {z}" for (x, y, z) in mesh.vertices]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for (a, b, c) in mesh.faces]
        obj = tmp_path / "disk.obj"
        obj.write_text("\n".join(lines) + "\n")
        assert main(["cut", str(obj), "--singularities", ""]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completion"]["euler"] == 1

    @pytest.mark.parametrize("face", ["f 0 1 2", "f 1 2 4", "f 1 -4 2", "f 1 2 99999999999999999999"])
    def test_cut_refuses_an_obj_face_index_out_of_range(self, tmp_path, capsys, face):
        obj = tmp_path / "bad.obj"
        obj.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
        run = _run_qlim(["cut", str(obj)])
        assert run.returncode == 1
        assert run.stderr == b"qlim: error: line 4: face vertex index out of range\n"

    @pytest.mark.parametrize(
        "value, reason",
        [("99", "singularity 99 out of range"), ("-1", "singularity -1 out of range"),
         ("x", "invalid literal for int() with base 10: 'x'")],
    )
    def test_cut_refuses_bad_singularities(self, tmp_path, capsys, value, reason):
        obj = tmp_path / "tri.obj"
        obj.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        assert main(["cut", str(obj), "--singularities", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"qlim: error: bad --singularities: {reason}\n"

    def test_reports_are_deterministic(self, tmp_path, capsys):
        f = self.synth(tmp_path, "annulus_35")
        assert main(["validate", str(f)]) == 0
        first = capsys.readouterr().out
        assert main(["validate", str(f)]) == 0
        assert capsys.readouterr().out == first
