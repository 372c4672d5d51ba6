"""The tracer reproduces its golden record exactly (see golden_traces.py)."""

import json
from pathlib import Path

from golden_traces import record

GOLDEN = Path(__file__).parent / "data" / "golden_traces.json"


def test_traces_match_golden_record():
    expected = json.loads(GOLDEN.read_text())
    # round-trip through JSON so tuples and lists compare alike
    got = json.loads(json.dumps(record()))
    assert len(got) == len(expected)
    for idx, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"trace {idx} ({e['fixture']}, {e['kind']}) differs"
