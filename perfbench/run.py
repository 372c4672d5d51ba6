"""qlim benchmark: one workload, one run.

    python3 perfbench/run.py --workload annulus_cones --seed 0 --seconds 40 --trace 0

Run from the repository root.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The lines before
it print the same metrics as a table, with sample counts, percentiles and
the error rate.  Times are seconds at a reference host speed; the table
also gives each end-to-end time unscaled.  See perfbench/NOTES.md for what
each workload and metric is for.
"""

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(ROOT, "BENCHMARK.json")
SPAN_DIR = os.path.join(HERE, "out")


def _percentile_line(xs):
    """The highest percentile with at least ten samples beyond it, when
    that is above the median."""
    n = len(xs)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return ""
    value = sorted(xs)[math.ceil(p / 100 * n) - 1]
    return f"  p{p}={value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("QLIM_BUDGET"):
        sys.exit("perfbench: QLIM_BUDGET is set; it would change the "
                 "sheared_budget workload, so unset it")
    if not os.path.isfile(os.path.join(SRC, "qlim", "__init__.py")):
        sys.exit(f"perfbench: no qlim sources under {SRC}")
    with open(CONFIG, encoding="utf-8") as fh:
        config = json.load(fh)
    sys.path.insert(0, SRC)

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choices: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    result = bench.run(workload, args.seed, args.seconds, args.trace, SRC)
    units = {m["name"]: m["unit"]
             for m in config["per_layer" if args.trace else "end_to_end"]}
    print_result(result, units, args)
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result.spans, fh)


def print_result(result, units, args):
    if set(result.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(result.metrics)} do not match BENCHMARK.json "
            f"{sorted(units)}"
        )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in units:
        line = f"{name:28s} {result.metrics[name]:.6g} {units[name]}"
        xs = result.samples.get(name)
        if xs:
            line += f"  (median of n={len(xs)}){_percentile_line(xs)}"
        if name in result.wall:
            line += f"  unscaled {result.wall[name]:.6g}"
        print(line)
    rate = result.failed / result.attempted
    print(f"{'error_rate':28s} {rate:.6g} ratio  ({result.failed} of "
          f"{result.attempted} operations failed)")
    for problem in result.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": units[name]}
            for name in units
        },
    }))


if __name__ == "__main__":
    # one process with single-threaded BLAS, the way one CLI call runs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # String hashing orders qlim's sets of node keys, and with them how far
    # the oracle gets before it refuses sheared_budget.  A fixed hash seed
    # gives every run the same work; the interpreter reads it only at
    # start-up, hence the exec.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    main()
