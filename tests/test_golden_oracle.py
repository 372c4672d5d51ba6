"""The oracle complex, the extracted layout and the coarsening verdict
reproduce their golden record exactly (see golden_oracle.py)."""

import json
from pathlib import Path

from golden_oracle import inputs, record_one

GOLDEN = Path(__file__).parent / "data" / "golden_oracle.json"


def test_oracle_matches_golden_record():
    expected = json.loads(GOLDEN.read_text())
    cases = inputs()
    assert [name for name, _ in cases] == [e["input"] for e in expected]
    for (name, param), e in zip(cases, expected):
        # round-trip through JSON so tuples and lists compare alike
        got = json.loads(json.dumps(record_one(param)))
        for part in ("oracle", "layout", "coarsens"):
            assert got[part] == e[part], f"{name}: {part} differs"
