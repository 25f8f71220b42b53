"""Which calls the traced run wraps, and the per-layer metrics it derives.

Every wrapper is installed on an attribute looked up at call time: a class
method, or a name in the module that calls it.  ``repro.engine.vector`` binds
``build_batch`` and the prepass functions at import time, and
``repro.api.experiment`` binds the metrics-fold functions, so those names are
patched there.  ``Processor`` methods are never wrapped: the vector engine
recognises its callbacks by identity.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Dict, Sequence

from spans import END, NAME, OP, START, Tracer, has_ancestor, self_times
from workloads import security_counts, transactions

#: metric name -> unit, in the order they are printed.
PER_LAYER = {
    "scenarios.build_ms": "ms",
    "scenarios.builds": "count",
    "workloads.lower_ms": "ms",
    "staticcheck.verify_ms": "ms",
    "engine.prepass_ms": "ms",
    "engine.drain_us_per_event": "us",
    "engine.replay_frac": "fraction",
    "engine.replayed": "count",
    "engine.real_calls": "count",
    "engine.fallback_runs": "count",
    "engine.vector_speedup": "x",
    "core.filter_us_per_call": "us",
    "core.filter_calls": "count",
    "core.decision_hit_frac": "fraction",
    "core.security_us_per_event": "us",
    "core.protection_cost_ratio": "x",
    "baselines.central_us_per_call": "us",
    "crypto.cipher_us_per_block": "us",
    "crypto.hash_us_per_block": "us",
    "crypto.blocks": "count",
    "soc.events": "count",
    "soc.issue_us_per_txn": "us",
    "metrics.fold_ms": "ms",
    "metrics.history_records": "count",
    "attacks.campaign_ms": "ms",
    "fuzz.case_ms": "ms",
    "fuzz.build_share": "fraction",
    "sweep.put_ms": "ms",
    "sweep.get_ms": "ms",
    "sweep.points_computed": "count",
    "sweep.points_cached": "count",
    "analysis.render_ms": "ms",
    "api.run_self_ms": "ms",
    "trace.overhead_frac": "fraction",
}


def history_records(built) -> int:
    """Per-transaction records held for the post-drain metrics fold."""
    return len(built.system.bus.monitor.history) + transactions(built)


def install(tracer: Tracer, history: Counter) -> None:
    """Wrap the entry point of every layer; ``history`` counts fold records."""
    import repro.api.experiment as experiment
    import repro.engine
    import repro.engine.vector as vector
    from repro.api import Experiment
    from repro.attacks.runner import CampaignRunner
    from repro.baselines.centralized import CentralizedEnforcementInterface
    from repro.core.ciphering_firewall import (
        ConfidentialityCore,
        IntegrityCore,
        LocalCipheringFirewall,
    )
    from repro.core.local_firewall import LocalFirewall
    from repro.fuzz.oracle import BypassOracle
    from repro.scenarios.builder import BuiltScenario, ScenarioBuilder
    from repro.soc.ports import MasterPort
    from repro.sweep.store import ResultStore

    def count_history(args, _result) -> None:
        history[tracer.op_id.split(":")[0]] += history_records(args[0])

    tracer.patch(Experiment, "run", "api.run")
    tracer.patch(ScenarioBuilder, "build", "scenarios.build")
    tracer.patch(BuiltScenario, "load_workload", "workloads.lower")
    tracer.patch(BuiltScenario, "run_workload", "workloads.run", after=count_history)
    tracer.patch(repro.engine, "drive_workload", "engine.drive")
    for name in ("build_batch", "decode_prepass", "fabric_route_prepass"):
        tracer.patch(vector, name, "engine.prepass")
    for cls in (LocalFirewall, LocalCipheringFirewall):
        tracer.patch(cls, "filter_request", "core.filter")
        tracer.patch(cls, "filter_response", "core.filter")
    tracer.patch(CentralizedEnforcementInterface, "filter_request", "baselines.central")
    tracer.patch(ConfidentialityCore, "encipher", "crypto.cipher")
    tracer.patch(ConfidentialityCore, "decipher", "crypto.cipher")
    tracer.patch(IntegrityCore, "verify", "crypto.hash")
    tracer.patch(IntegrityCore, "update", "crypto.hash")
    tracer.patch(MasterPort, "issue", "soc.issue")
    for name in ("aggregate_hop_latency", "generate_table2", "placement_split", "_memory_digests"):
        tracer.patch(experiment, name, "metrics.fold")
    tracer.patch(CampaignRunner, "run", "attacks.campaign")
    tracer.patch(BypassOracle, "run", "fuzz.case")
    tracer.patch(ResultStore, "put", "sweep.put")
    tracer.patch(ResultStore, "get", "sweep.get")


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count / scale if count else 0.0


def per_layer(
    spans: Sequence[list],
    last_pass: Dict[str, Any],
    history: Counter,
    drain_s: Dict[str, Dict[str, float]],
    untraced_best: Dict[str, float],
    overhead: float,
) -> Dict[str, float]:
    """Per-layer metrics from the traced passes' spans and results.

    Times are per call over every traced pass; counts are those of the last
    traced pass (``last_pass``: label -> result), which repeat on every pass.
    The security cost per event comes from each op's fastest untraced pass
    (``untraced_best``: label -> seconds), the engine speedup from the
    output-check re-runs (``drain_s``: engine -> label -> drain seconds).
    """
    selfs = self_times(spans)
    total: Dict[str, int] = defaultdict(int)  # summed duration, ns
    own: Dict[str, int] = defaultdict(int)  # summed self time, ns
    calls: Counter = Counter()
    outer_calls: Counter = Counter()  # calls not nested in a same-name span
    pass_ids = {int(span[OP].split(":")[0]) for span in spans}
    last, passes = str(max(pass_ids)), len(pass_ids)
    last_outer: Counter = Counter()
    for index, span in enumerate(spans):
        name = span[NAME]
        total[name] += span[END] - span[START]
        own[name] += selfs[index]
        calls[name] += 1
        if not has_ancestor(spans, index, name):
            outer_calls[name] += 1
            if span[OP].split(":")[0] == last:
                last_outer[name] += 1

    def subtree(name: str, under: str) -> int:
        return sum(
            span[END] - span[START]
            for index, span in enumerate(spans)
            if span[NAME] == name
            and has_ancestor(spans, index, under)
            and not has_ancestor(spans, index, name)
        )

    def self_under(name: str, under: str) -> int:
        return sum(
            selfs[index]
            for index, span in enumerate(spans)
            if span[NAME] == name and has_ancestor(spans, index, under)
        )

    runs = [r for label, r in last_pass.items() if label.startswith(("drain/", "run/"))]
    engines = [r.meta["engine"] for r in runs]
    replayed = sum(e.get("replayed") or 0 for e in engines)
    real = sum(e.get("real_calls") or 0 for e in engines)
    fallback = sum(e["requested"] != "object" and e["used"] != "vector" for e in engines)
    events = sum(r.workload["events_processed"] for r in runs)
    vector_events = sum(
        r.workload["events_processed"] for r, e in zip(runs, engines) if e["used"] == "vector"
    )
    security: Counter = Counter()
    for run in runs:
        security.update(security_counts(run))
    papers = [r for label, r in last_pass.items() if label.startswith("paper/")]

    def us_per_event(variant: str) -> float:
        labels = [label for label in untraced_best if label.endswith(variant)]
        return _per(
            sum(untraced_best[x] for x in labels) * 1e6,
            sum(last_pass[x].workload["events_processed"] for x in labels),
        )

    prot_us, unprot_us = us_per_event("/protected"), us_per_event("/unprotected")

    verify_ns = sum(total[n] for n in total if n.startswith("op:verify/"))
    verify_calls = sum(calls[n] for n in calls if n.startswith("op:verify/"))
    ms, us = 1e6, 1e3
    return {
        "scenarios.build_ms": _per(own["scenarios.build"], calls["scenarios.build"], ms),
        "scenarios.builds": last_outer["scenarios.build"],
        "workloads.lower_ms": _per(total["workloads.lower"], calls["workloads.lower"], ms),
        "staticcheck.verify_ms": _per(verify_ns, verify_calls, ms),
        "engine.prepass_ms": _per(total["engine.prepass"], calls["engine.drive"], ms),
        "engine.drain_us_per_event": _per(own["engine.drive"], vector_events * passes, us),
        "engine.replay_frac": _per(replayed, replayed + real),
        "engine.replayed": replayed,
        "engine.real_calls": real,
        "engine.fallback_runs": fallback,
        "engine.vector_speedup": _per(
            sum(drain_s["object"].values()), sum(drain_s["vector"].values())
        ),
        "core.filter_us_per_call": _per(own["core.filter"], outer_calls["core.filter"], us),
        "core.filter_calls": last_outer["core.filter"],
        "core.decision_hit_frac": _per(
            security["sb_cache_hits"], security["sb_cache_hits"] + security["sb_cache_misses"]
        ),
        "core.security_us_per_event": prot_us - unprot_us,
        "core.protection_cost_ratio": _per(prot_us, unprot_us),
        "baselines.central_us_per_call": _per(
            own["baselines.central"], calls["baselines.central"], us
        ),
        "crypto.cipher_us_per_block": _per(
            self_under("crypto.cipher", "workloads.run"), security["cc_blocks"] * passes, us
        ),
        "crypto.hash_us_per_block": _per(
            self_under("crypto.hash", "workloads.run"), security["ic_blocks"] * passes, us
        ),
        "crypto.blocks": security["cc_blocks"] + security["ic_blocks"],
        "soc.events": events,
        "soc.issue_us_per_txn": _per(own["soc.issue"], calls["soc.issue"], us),
        "metrics.fold_ms": _per(total["metrics.fold"], calls["api.run"], ms),
        "metrics.history_records": history[last],
        "attacks.campaign_ms": _per(total["attacks.campaign"], calls["attacks.campaign"], ms),
        "fuzz.case_ms": _per(total["fuzz.case"], calls["fuzz.case"], ms),
        "fuzz.build_share": _per(subtree("scenarios.build", "fuzz.case"), total["fuzz.case"]),
        "sweep.put_ms": _per(total["sweep.put"], calls["sweep.put"], ms),
        "sweep.get_ms": _per(total["sweep.get"], calls["sweep.get"], ms),
        "sweep.points_computed": sum(len(p.sweep.computed) for p in papers),
        "sweep.points_cached": sum(len(p.sweep.cached) for p in papers),
        "analysis.render_ms": _per(
            total["op:paper/warm"] - subtree("sweep.get", "op:paper/warm"),
            calls["op:paper/warm"],
            ms,
        ),
        "api.run_self_ms": _per(own["api.run"], calls["api.run"], ms),
        "trace.overhead_frac": overhead,
    }
