"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs one round of each workload family (annulus k=1, torus 4x4, sheared
torus 3x3 with a 200-segment budget), checks that every metric in
BENCHMARK.json prints with its unit in both modes, that a wrong expected
count shows up as a failed operation, and how host-speed scaling treats
one interval.
"""

import argparse
import dataclasses
import json
import sys
import time

import pytest

from run import CONFIG, SRC, main, print_result

sys.path.insert(0, SRC)

import bench  # noqa: E402
from workloads import annulus_cones, sheared_budget, torus_periodic  # noqa: E402

TINY = {
    "annulus_cones": lambda: annulus_cones(k=1),
    "torus_periodic": lambda: torus_periodic(n=4),
    "sheared_budget": lambda: sheared_budget(n=3, budget=200),
}


def _units(trace):
    with open(CONFIG, encoding="utf-8") as fh:
        config = json.load(fh)
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(name, trace, capsys):
    result = bench.run(TINY[name](), 7, 0, trace, SRC)
    assert result.failed == 0, result.problems
    units = _units(trace)
    print_result(result, units, argparse.Namespace(workload=name, seed=7, trace=trace))
    lines = capsys.readouterr().out.splitlines()
    for metric, unit in units.items():
        assert any(
            line.split()[:1] == [metric] and line.split()[2] == unit for line in lines
        ), f"{metric} [{unit}] not printed"
    assert any(line.startswith("error_rate ") for line in lines)
    doc = json.loads(lines[-1])
    assert doc["correct"] is True and doc["failed"] == 0
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == units


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("annulus_cones", {"layout": (9, 14, 6)}),
        ("torus_periodic", {"oracle": (16, 32, 17)}),
        ("sheared_budget", {"q5_statuses": ("Periodic", "Periodic")}),
    ],
)
def test_wrong_expected_count_raises_error_rate(name, wrong):
    workload = TINY[name]()
    expected = dataclasses.replace(workload.expected, **wrong)
    result = bench.run(dataclasses.replace(workload, expected=expected), 7, 0, 0, SRC)
    assert result.failed > 0 and result.attempted > result.failed


def test_refuses_to_run_under_qlim_budget(monkeypatch):
    monkeypatch.setenv("QLIM_BUDGET", "10")
    with pytest.raises(SystemExit) as exc:
        main(["--workload", "sheared_budget", "--seed", "0", "--seconds", "0"])
    assert "QLIM_BUDGET" in str(exc.value)


@pytest.mark.parametrize("kind", sorted(bench.CALIBRATION_LOOPS))
def test_host_speed_takes_calibration_out_and_scales(kind):
    with bench.HostSpeed(kind) as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        t1 = time.perf_counter()
    runs = list(zip(speed.starts, speed.ends))
    inside = [i for i, (b, e) in enumerate(runs) if t0 <= b and e <= t1]
    assert len(inside) >= 3
    busy, factor = speed.window(t0, t1)
    assert busy == pytest.approx(sum(runs[i][1] - runs[i][0] for i in inside))
    # the samples inside and the nearest one on either side
    loop = [e - b for b, e in runs[inside[0] - 1:inside[-1] + 2]]
    assert factor == pytest.approx(bench.REF_CALIBRATION_S[kind] * len(loop) / sum(loop))
    assert speed.seconds(t0, t1) == pytest.approx((t1 - t0 - busy) * factor)
