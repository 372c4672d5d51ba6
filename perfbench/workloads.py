"""Seeded benchmark inputs and the answers qlim must give on them.

Each workload is one seamless parameterization, written as `.qlim` text so
that every timed operation starts from what a CLI call would read.  The seed
only picks a rigid re-rooting of the chart (a quarter-turn and an integer
translation through `qlim.apply_global_motion`); it changes no verdict and
no layout or oracle count, so one set of expectations holds for every seed.
"""

import json
import random
import sys
import warnings
from dataclasses import dataclass

import qlim
from qlim.qlimio import write_qlim
from qlim.synth import AbstractQuadComplex, OverlapWarning, realize

# Seed whose output bytes are pinned by the digests below.
DEFAULT_SEED = 0

# Segments per face, the CLI default.  The benchmark passes the resulting
# budget explicitly so that QLIM_BUDGET cannot change a workload.
BUDGET_PER_FACE = 64


@dataclass(frozen=True)
class Expected:
    """What a correct run answers on one workload.

    Q1-Q4, Gauss-Bonnet and holonomy pass on every workload.  `layout` and
    `oracle` are (nodes, arcs, patches); None means the operation must
    refuse the input.  `digests` maps "validate", "layout" and "oracle" to
    the SHA-256 of the CLI's JSON output for DEFAULT_SEED, or is None where
    no golden output is pinned.
    """

    cones: tuple  # sorted (location, m) of the detected cones
    q5_passed: bool
    q5_statuses: tuple  # sorted statuses of the curves Q5 traces
    layout: tuple
    oracle: tuple
    digests: dict = None


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict  # size keywords of the family constructor
    build: object  # () -> SeamlessParam, before re-rooting
    budget: int
    expected: Expected
    # bench.CALIBRATION_LOOPS key: the kind of work the operations spend
    # most time in, which host speed is measured with
    calibration: str

    def text(self, seed):
        """The workload's `.qlim` text, re-rooted by `seed`."""
        rng = random.Random(seed)
        j = rng.randrange(4)
        t = (rng.randint(-8, 8), rng.randint(-8, 8))
        return write_qlim(qlim.apply_global_motion(self.build(), j, t))


def refine(complex, k):
    """Split every quad of `complex` into k x k quads; vertices on a shared
    edge are shared by both sides."""
    n = complex.n_vertices
    edge_points = {}

    def on_edge(a, b, i):
        # i-th of the k - 1 interior points walking from a to b
        nonlocal n
        key = (min(a, b), max(a, b))
        if key not in edge_points:
            edge_points[key] = range(n, n + k - 1)
            n += k - 1
        return edge_points[key][(i if a < b else k - i) - 1]

    quads = []
    for a, b, c, d in complex.quads:
        inner = n
        n += (k - 1) ** 2

        def vid(i, j):
            if j == 0:
                return a if i == 0 else b if i == k else on_edge(a, b, i)
            if j == k:
                return d if i == 0 else c if i == k else on_edge(d, c, i)
            if i == 0:
                return on_edge(a, d, j)
            if i == k:
                return on_edge(b, c, j)
            return inner + (j - 1) * (k - 1) + (i - 1)

        for j in range(k):
            for i in range(k):
                quads.append(
                    (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
                )
    return AbstractQuadComplex(n, quads)


def annulus_cones(k=6, digests=None):
    """annulus_35 with every quad split k x k: interior cones m=3 and m=5,
    two boundary loops, 30 k^2 faces."""

    def build():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverlapWarning)
            return realize(refine(qlim.fixture_complex("annulus_35"), k))

    return Workload(
        "annulus_cones",
        {"k": k},
        build,
        BUDGET_PER_FACE * 30 * k * k,
        Expected(
            cones=(("interior", 3), ("interior", 5)),
            q5_passed=True,
            q5_statuses=("Finite",) * 8,
            layout=(8, 14, 6),
            oracle=(15 * k * k + 5 * k, 30 * k * k + 5 * k, 15 * k * k),
            digests=digests,
        ),
        calibration="reductions",
    )


def torus_periodic(n=24, digests=None):
    """flat_torus n x n: closed, cone-free, every seam a pure translation."""
    return Workload(
        "torus_periodic",
        {"n": n},
        lambda: qlim.fixture("flat_torus", w=n, h=n),
        BUDGET_PER_FACE * 2 * n * n,
        Expected(
            cones=(),
            q5_passed=True,
            q5_statuses=("Periodic", "Periodic"),
            layout=(1, 2, 1),
            oracle=(n * n, 2 * n * n, n * n),
            digests=digests,
        ),
        calibration="reductions",
    )


def sheared_budget(n=6, budget=None, digests=None):
    """sheared_torus n x n: one transverse curve never closes, so Q5 ends
    on the tracing budget and both layout operations refuse the input."""
    return Workload(
        "sheared_budget",
        {"n": n, "budget": budget},
        lambda: qlim.fixture("sheared_torus", w=n, h=n),
        budget if budget is not None else BUDGET_PER_FACE * 2 * n * n,
        Expected(
            cones=(),
            q5_passed=False,
            q5_statuses=("BudgetExceeded", "Periodic"),
            layout=None,
            oracle=None,
            digests=digests,
        ),
        calibration="calls",
    )


# Digests of `qlim validate`, `qlim extract` and `qlim oracle` output on
# each workload's DEFAULT_SEED input, taken from the CLI at the commit that
# introduced this benchmark.  The default output may not change by a byte.
WORKLOADS = {
    "annulus_cones": lambda: annulus_cones(
        digests={
            "validate": "32bd3f1d861171da4fbd5925059faae1800e14c1af2b251feba9b0e6a7a985d9",
            "layout": "b6c0d3c6315ad59ea4415f7ec972094496559c62acdc1d9817f3812f4800365b",
            "oracle": "f44fc5921d29ccd8c280e786b0684bff9916a45b15f69201110a7a34892d06e8",
        }
    ),
    "torus_periodic": lambda: torus_periodic(
        digests={
            "validate": "82feebc2464d49845494ab825d3426fca22fd525d2a4bc82aeb8e6290fb138d9",
            "layout": "2b4b3d6a6887de571b18c7c970d224c74a52d87f6a82d055cfadf82734af3eff",
            "oracle": "4a7ab92be7fa981e0f803d8c585d1cc6d74dddd89fa511884574cc1296a2d8f0",
        }
    ),
    "sheared_budget": lambda: sheared_budget(
        digests={
            "validate": "72ed24056abb8f3dd438fa18fd26e94a5377bfd795ed77f65baa9e8142346f7c",
        }
    ),
}

FAMILIES = {
    "annulus_cones": annulus_cones,
    "torus_periodic": torus_periodic,
    "sheared_budget": sheared_budget,
}


if __name__ == "__main__":
    # python3 workloads.py NAME SEED PARAMS_JSON: print the input text, so
    # that the measuring process never holds the generator's memory
    name, seed, params = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    sys.stdout.write(FAMILIES[name](**params).text(seed))
