import json
import os
import subprocess
import sys
import warnings

import pytest

import qlim.cutgraph
from qlim.cli import main
from qlim.errors import ParseError, SeamTwinMismatch, VersionUnsupported
from qlim.qlimio import read_obj, read_qlim, write_qlim
from qlim.svg import export_svg
from qlim.synth import OverlapWarning, fixture, perturb

warnings.simplefilter("ignore", OverlapWarning)

ALL_FIXTURES = ["flat_torus", "sheared_torus", "rectangle", "l_domain", "annulus_35"]


def fx(name, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        return fixture(name, **kw)


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

    def test_validate_sheared_torus_fails_only_q5(self, tmp_path, capsys):
        f = self.synth(tmp_path, "sheared_torus")
        assert main(["validate", str(f), "--budget", "3000"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["failed_properties"] == ["q5"]
        assert "terminated prematurely" in doc["q5"]["note"]

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
        import qlim

        # run the package under test, wherever it was imported from
        src = os.path.dirname(os.path.dirname(qlim.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        run = subprocess.run(
            [sys.executable, "-m", "qlim", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert run.returncode == 0
        assert run.stdout.startswith("usage: qlim")

    def test_unknown_fixture_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.qlim"
        assert main(["synth", "moebius", "-o", str(out)]) == 1
        capsys.readouterr()

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

    def test_reports_are_deterministic(self, tmp_path, capsys):
        f = self.synth(tmp_path, "annulus_35")
        assert main(["validate", str(f)]) == 0
        first = capsys.readouterr().out
        assert main(["validate", str(f)]) == 0
        assert capsys.readouterr().out == first
