"""Tiny-scale runs of every workload through the benchmark's command line.

Each run is a fresh process, as the benchmark is run for real.  The runs
check that every metric ``BENCHMARK.json`` names is printed with its unit,
that a tiny run has no failed op, and that the simulated metrics and every
count repeat exactly for a given seed.
"""

import functools
import json
import pathlib
import shutil
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SIMULATED = ("sim_overhead_pct", "containment_rate")


def command(workload, seed, trace):
    return BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--tiny",
    ]


@functools.lru_cache(maxsize=None)
def run(workload, seed, trace, repeat=0):
    done = subprocess.run(
        command(workload, seed, trace), cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = run(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_and_counts_repeat_for_a_seed(workload):
    for trace, names in ((0, SIMULATED), (1, None)):
        first, second = run(workload, 3, trace), run(workload, 3, trace, repeat=1)
        names = names or [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
        for name in names:
            assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        command(WORKLOADS[0], 1, 0), cwd=tmp_path, capture_output=True, text=True, timeout=180
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

