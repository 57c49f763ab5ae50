"""Self-test of the benchmark, kept out of the tier-1 suite (the file name
does not match pytest's test_*.py pattern).  Run it with

    python3 -m pytest -q bench/selftest.py

It takes about a minute: each workload is run traced, twice, for one second.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def exact(metrics):
    """The per-layer metrics that are counts and must repeat exactly."""
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith((".calls", ".nfev", "_failed", "_misses"))
            or k in ("oracle.grid.axes", "cli.csv_bytes")}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = bench(workload, 11, 1), bench(workload, 11, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(m["name"] for m in DECLARED["per_layer"])
    assert exact(first["metrics"]) == exact(second["metrics"])
    assert any(v > 0 for k, v in exact(first["metrics"]).items() if k.endswith(".calls"))


def test_untraced_run_reports_every_end_to_end_metric():
    result = bench("point", 11, 0)
    assert result["correct"] and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def draws(cls, seed, tmp_path):
    wl = cls(run.import_xyzmin(), seed, tmp_path)
    return {
        run.Figures: lambda: wl.order,
        run.Point: lambda: (wl.points, [list(o) for o in wl.orders], wl.lowtemp),
        run.Verify: lambda: wl.base_seed,
        run.OracleGrid: lambda: [rho.matrix.tolist() for rho in wl.states[:8]],
    }[cls]()


@pytest.mark.parametrize("cls", list(run.WORKLOADS.values()), ids=list(run.WORKLOADS))
def test_seed_decides_the_draws(cls, tmp_path):
    assert draws(cls, 5, tmp_path) == draws(cls, 5, tmp_path)
    assert draws(cls, 5, tmp_path) != draws(cls, 6, tmp_path)
