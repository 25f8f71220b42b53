"""The repository benchmark: one workload per process, metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload drain_replay --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it untraced and then traced for half the time each and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Optional

from layers import PER_LAYER, install, per_layer
from spans import BEYOND, Tracer, median, tail
from workloads import make_workload

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Untraced passes per run, at least: each op's fastest pass is then the best
#: of 11, and on the drains the slowest op has 11 samples, so ``op_tail_ms``
#: always reads inside that op's distribution.
MIN_PASSES = BEYOND + 1
TINY_MIN_PASSES = 3
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "txn_per_s": "txn/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_overhead_pct": "%",
    "containment_rate": "fraction",
}


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="scale-1 drains, fuzz budget 3 (for tests)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from a fresh interpreter to the end of the workload's setup."""
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.wait(timeout=120)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {child.returncode}): {line!r}")
    return elapsed


def run_passes(workload, seconds: float, min_passes: int, tracer=None) -> List[Dict[str, Any]]:
    """Timed passes until ``seconds`` have elapsed and ``min_passes`` ran.

    Each pass is ``{"wall": {label: op seconds}, "results": {label: output}}``.
    """
    passes: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        walls, results = {}, {}
        for index, (label, op) in enumerate(workload.ops()):
            if tracer is not None:
                tracer.op_id = f"{len(passes)}:{index}"
                op = tracer.wrap(f"op:{label}", op)
            gc.collect()  # so no op pays for collecting an earlier op's garbage
            started = time.perf_counter()
            results[label] = op()
            walls[label] = time.perf_counter() - started
        passes.append({"wall": walls, "results": results})
    return passes


def best_walls(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each op's fastest pass: the estimate least disturbed by other load."""
    return {label: min(p["wall"][label] for p in passes) for label in passes[0]["wall"]}


def judge(workload, passes: List[Dict[str, Any]]) -> List[str]:
    """Failure reasons of every op; each must also match its first pass."""
    failures, expected = [], {}
    for number, record in enumerate(passes):
        for label, result in record["results"].items():
            fingerprint = workload.fingerprint(label, result)
            reason = (
                workload.check(label, result)
                or workload.reference_failure(label, fingerprint)
                or (
                    "output differs from an earlier pass"
                    if expected.setdefault(label, fingerprint) != fingerprint
                    else None
                )
            )
            if reason:
                failures.append(f"pass {number} {label}: {reason}")
    return failures


def end_to_end(workload, passes, setup_times, rss_mb) -> Dict[str, float]:
    best = best_walls(passes)
    # A pass of more than BEYOND ops has a tail of its own, read from each op's
    # fastest pass like op_p50_ms; the drains' few ops per pass need every sample.
    samples = list(best.values()) if len(best) > BEYOND else [
        wall for record in passes for wall in record["wall"].values()
    ]
    tail_s, tail_pct = tail(samples)
    print(f"op_tail_ms is p{tail_pct:.2f} of {len(samples)} samples", file=sys.stderr)
    stats = workload.pass_stats(passes[0]["results"])
    return {
        "setup_s": median(setup_times),
        "txn_per_s": workload.txns_per_pass / sum(best.values()),
        "op_p50_ms": median(list(best.values())) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss_mb,
        "sim_overhead_pct": 100.0
        * (stats["protected_makespan"] / stats["unprotected_makespan"] - 1.0),
        "containment_rate": stats["contained"] / stats["attacks"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.tiny, OUT)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    try:
        probes = 0 if args.trace else 1 if args.tiny else SETUP_PROBES
        setup_times = [probe_setup(args) for _ in range(probes)]
        workload.setup()
        workload.warm_up()
        min_passes = TINY_MIN_PASSES if args.tiny else MIN_PASSES
        if args.trace:
            min_passes = 1 if args.tiny else 2
            untraced = run_passes(workload, args.seconds / 2, min_passes)
            tracer, history = Tracer(), Counter()
            with tracer:
                install(tracer, history)
                traced = run_passes(workload, args.seconds / 2, min_passes, tracer)
        else:
            untraced = run_passes(workload, args.seconds, min_passes)
            traced = []
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.verify()
        failures = judge(workload, untraced + traced)
        stats = {json.dumps(workload.pass_stats(r["results"]), sort_keys=True)
                 for r in untraced + traced}
        consistent = len(stats) == 1
        if args.trace:
            untraced_best = best_walls(untraced)
            metrics = per_layer(
                tracer.spans, traced[-1]["results"], history, workload.drain_s, untraced_best,
                sum(best_walls(traced).values()) / sum(untraced_best.values()) - 1.0,
            )
            tracer.write(OUT / f"spans-{args.workload}.jsonl")
            units = PER_LAYER
        else:
            metrics = end_to_end(workload, untraced, setup_times, rss_mb)
            units = END_TO_END
    finally:
        workload.close()
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not consistent:
        print(f"FAILED simulated totals differ between passes: {stats}", file=sys.stderr)
    attempted = sum(len(r["results"]) for r in untraced + traced)
    print(json.dumps({
        "correct": not failures and consistent,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
