"""The CLI writes the same bytes as its golden record (data/cli_digests.json).

Each input is written as `.qlim` and run through `validate`, `oracle`,
`cut`, `trace` and `extract` in process.  The record holds every run's exit
code and the SHA-256 of its stdout, of its stderr and of each file it
writes (the `extract` JSON and SVG, the `trace` SVG).  The inputs are the
five fixtures, every `perturb` kind that applies to each, and each fixture
re-rooted by a quarter turn and a fractional translation.

Regenerate (only when an output change is intended) with:

    PYTHONPATH=src python tests/test_cli_digests.py tests/data/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import warnings
from pathlib import Path

from qlim.cli import main
from qlim.errors import QlimError
from qlim.immersion import apply_global_motion
from qlim.qlimio import write_qlim
from qlim.synth import FIXTURES, PERTURB_KINDS, OverlapWarning, fixture, perturb

GOLDEN = Path(__file__).parent / "data" / "cli_digests.json"
REROOT = (1, (0.3, -1.7))  # quarter turn, fractional translation


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
        out.append((f"{name}/reroot", apply_global_motion(_fx(name), *REROOT)))
    return out


def _sha256(data):
    return hashlib.sha256(data.encode()).hexdigest()


def _run(argv, files):
    """Exit code, stdout, stderr and written `files` of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    entry = {
        "exit": code,
        "stdout": _sha256(out.getvalue()),
        "stderr": _sha256(err.getvalue()),
    }
    for key, path in files.items():
        entry[key] = _sha256(path.read_text()) if path.exists() else None
    return entry


def record_one(param, tmp):
    """The digests of every subcommand run on one param, in directory `tmp`."""
    src = tmp / "in.qlim"
    src.write_text(write_qlim(param))
    sing = sorted(
        c.vertex for c in param.declared_cones or () if c.location == "interior"
    )
    out_json, out_svg, trace_svg = tmp / "out.json", tmp / "out.svg", tmp / "trace.svg"
    return {
        "validate": _run(["validate", src], {}),
        "oracle": _run(["oracle", src], {}),
        "cut": _run(["cut", src, "--singularities", ",".join(map(str, sing))], {}),
        "trace": _run(
            ["trace", src, "--face", 0, "--bary", "0.2,0.3,0.5", "--axis", "u",
             "--svg", trace_svg],
            {"svg": trace_svg},
        ),
        "extract": _run(
            ["extract", src, "-o", out_json, "--svg", out_svg],
            {"json": out_json, "svg": out_svg},
        ),
    }


def test_inputs_are_the_recorded_ones():
    assert [name for name, _ in inputs()] == list(json.loads(GOLDEN.read_text()))


def test_cli_output_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    for name, param in inputs():
        tmp = tmp_path / name.replace("/", "-")
        tmp.mkdir()
        got = record_one(param, tmp)
        for command, want in expected[name].items():
            assert got[command] == want, f"{name}: {command} output differs"


if __name__ == "__main__":
    import tempfile

    record = {}
    with tempfile.TemporaryDirectory() as d:
        for name, param in inputs():
            tmp = Path(d) / name.replace("/", "-")
            tmp.mkdir()
            record[name] = record_one(param, tmp)
    with open(sys.argv[1], "w") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")
