"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload resolves its scenario specs from a seed, builds its platforms
once in :meth:`setup` (the part ``setup_s`` times), and yields one pass of
named operations from :meth:`ops`.  :meth:`check` turns an operation's output
into a failure reason, and :meth:`fingerprint` gives the simulated values that
must repeat on every pass.  :meth:`verify` runs after the timed passes and
re-derives each drain result on the object engine.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import Tracer

WORKLOADS = ("drain_replay", "drain_secure", "default_scale")

DRAIN_SCENARIOS = {
    "drain_replay": ("many_master_contention", "deep_hierarchy_3seg"),
    "drain_secure": (
        "crypto_heavy",
        "bridge_firewalled_centralized",
        "centralized_baseline_mirror",
    ),
}

#: Workload multiplier of the drain workloads and fuzz budget of
#: ``default_scale``; ``tiny`` shrinks both for the benchmark's own tests.
FULL = {"scale": 30, "fuzz_budget": 30}
TINY = {"scale": 1, "fuzz_budget": 3}

GOAL_REACHED = ("succeeded", "detected_but_effective")

Op = Tuple[str, Callable[[], Any]]


def seeded(spec, seed: int, scale: int = 1):
    """``spec`` with its workload seed replaced and its operations scaled."""
    if spec.workload is None:
        return spec
    workload = dataclasses.replace(
        spec.workload, seed=seed, n_operations=spec.workload.n_operations * scale
    )
    return dataclasses.replace(spec, workload=workload)


def transactions(built) -> int:
    """Bus transactions the built platform's processors completed."""
    return sum(len(proc.transactions) for proc in built.system.processors.values())


def security_counts(result) -> Dict[str, int]:
    """Decision-cache and crypto block counters of a run's firewalls."""
    counts = {"sb_cache_hits": 0, "sb_cache_misses": 0, "cc_blocks": 0, "ic_blocks": 0}
    for record in ((result.security or {}).get("firewalls") or {}).values():
        counts["sb_cache_hits"] += record.get("sb_cache_hits", 0)
        counts["sb_cache_misses"] += record.get("sb_cache_misses", 0)
        counts["cc_blocks"] += record.get("cc_blocks", 0)
        counts["ic_blocks"] += record.get("ic_blocks_verified", 0) + record.get(
            "ic_blocks_updated", 0
        )
    return counts


def run_fingerprint(result, with_engine: bool = True) -> tuple:
    """The simulated observables of one ``Experiment.run``."""
    engine = result.meta["engine"]
    core = (
        result.workload["final_cycle"],
        result.workload["makespan"],
        result.workload["events_processed"],
        tuple(sorted(result.memories.items())),
        json.dumps(result.alerts, sort_keys=True),
    )
    if not with_engine:
        return core
    return core + (engine.get("used"), engine.get("replayed"), engine.get("real_calls"))


class Workload:
    """Shared shape of the three workloads."""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.params = TINY if tiny else FULL
        self.txns_per_pass = 0
        #: Drain seconds per engine and op label, from :meth:`verify`
        #: (drain workloads only).
        self.drain_s: Dict[str, Dict[str, float]] = {"object": {}, "vector": {}}

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def check(self, label: str, result: Any) -> Optional[str]:
        return None

    def fingerprint(self, label: str, result: Any) -> Any:
        raise NotImplementedError

    def verify(self) -> None:
        """Untimed re-derivation of the outputs, after the timed passes."""

    def reference_failure(self, label: str, fingerprint: Any) -> Optional[str]:
        """Why an op's fingerprint disagrees with :meth:`verify` (None = agrees)."""
        return None

    def pass_stats(self, results: Dict[str, Any]) -> Dict[str, int]:
        """Simulated totals of one pass: makespans and attacks contained."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class DrainWorkload(Workload):
    """Attack-free vector-engine drains of scaled scenarios, both variants."""

    def __init__(self, name: str, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.scenarios = DRAIN_SCENARIOS[name]
        self.specs: Dict[str, Any] = {}
        self.built: List[Any] = []
        self.reference: Dict[str, Dict[str, tuple]] = {}
        self.campaign = {"attacks": 0, "contained": 0}

    def cases(self):
        for scenario in self.scenarios:
            for protected in (True, False):
                label = f"drain/{scenario}/{'protected' if protected else 'unprotected'}"
                yield label, self.specs[scenario], protected

    def experiment(self, spec, protected: bool, engine: str = "vector"):
        from repro.api import Experiment

        return (
            Experiment.from_spec(spec).with_engine(engine).protected(protected).no_attacks()
        )

    def setup(self) -> None:
        import repro.api.cli  # noqa: F401  (the CLI user's import cost)
        from repro.scenarios import get_scenario

        scale = self.params["scale"]
        self.specs = {n: seeded(get_scenario(n), self.seed, scale) for n in self.scenarios}
        self.built = [self.experiment(spec, p).build() for _, spec, p in self.cases()]

    def warm_up(self) -> None:
        for built in self.built:
            built.run_workload()
            self.txns_per_pass += transactions(built)
        self.built = []

    def ops(self) -> List[Op]:
        return [
            (label, self.experiment(spec, protected).run)
            for label, spec, protected in self.cases()
        ]

    def check(self, label: str, result: Any) -> Optional[str]:
        engine = result.meta["engine"]
        if engine.get("used") != "vector":
            return f"fell back to {engine.get('used')}: {engine.get('fallback_reason')}"
        return None

    def fingerprint(self, label: str, result: Any) -> Any:
        return run_fingerprint(result)

    def pass_stats(self, results: Dict[str, Any]) -> Dict[str, int]:
        stats = {"protected_makespan": 0, "unprotected_makespan": 0, **self.campaign}
        for result in results.values():
            variant = "protected" if result.protected else "unprotected"
            stats[f"{variant}_makespan"] += result.workload["makespan"]
        return stats

    def verify(self) -> None:
        """Re-run each op on both engines under drain-only spans.

        The object run must give the timed run's simulated fingerprint and
        the vector re-run its engine counts too.  The drain time of each is
        ``run_workload`` minus its workload lowering.  The scenarios' own
        attack mixes then run once each, for ``containment_rate``.
        """
        from repro.attacks.runner import CampaignRunner
        from repro.scenarios.builder import BuiltScenario

        with Tracer() as tracer:
            tracer.patch(BuiltScenario, "run_workload", "workloads.run")
            tracer.patch(BuiltScenario, "load_workload", "workloads.lower")
            for engine in ("object", "vector"):
                for label, spec, protected in self.cases():
                    first = len(tracer.spans)
                    result = self.experiment(spec, protected, engine).run()
                    self.reference.setdefault(label, {})[engine] = run_fingerprint(
                        result, with_engine=engine == "vector"
                    )
                    span_ns = {
                        name: sum(s[2] - s[1] for s in tracer.spans[first:] if s[0] == name)
                        for name in ("workloads.run", "workloads.lower")
                    }
                    self.drain_s[engine][label] = (
                        span_ns["workloads.run"] - span_ns["workloads.lower"]
                    ) / 1e9
        for label, object_s in self.drain_s["object"].items():
            vector_s = self.drain_s["vector"][label]
            print(f"{label}: object drain {object_s:.3f} s, vector drain {vector_s:.3f} s, "
                  f"speedup {object_s / vector_s:.2f}x", file=sys.stderr)
        for spec in self.specs.values():
            for row in CampaignRunner.from_spec(spec, n_workers=1).run().rows:
                self.campaign["attacks"] += 1
                self.campaign["contained"] += row.prevented or row.detected

    def reference_failure(self, label: str, fingerprint: tuple) -> Optional[str]:
        expected = self.reference[label]
        if fingerprint[: len(expected["object"])] != expected["object"]:
            return "differs from the object-engine run"
        if fingerprint != expected["vector"]:
            return "engine counts differ from the vector re-run"
        return None


class DefaultScaleWorkload(Workload):
    """Every registered scenario at default size, driven like a CLI user."""

    def __init__(self, seed: int, tiny: bool, scratch: pathlib.Path) -> None:
        super().__init__(seed, tiny)
        self.scratch = scratch
        self.specs: Dict[str, Any] = {}
        self.built: Dict[str, Tuple[Any, Any]] = {}
        self.unprotected_makespan = 0
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

    def setup(self) -> None:
        import repro.api.cli  # noqa: F401  (the CLI user's import cost)
        from repro.api import Experiment
        from repro.scenarios import get_scenario, list_scenarios

        self.specs = {n: seeded(get_scenario(n), self.seed) for n in list_scenarios()}
        self.built = {
            name: (
                Experiment.from_spec(spec).protected(True).build(),
                Experiment.from_spec(spec).protected(False).build(),
            )
            for name, spec in self.specs.items()
        }

    def warm_up(self) -> None:
        for protected, unprotected in self.built.values():
            protected.run_workload()
            unprotected.run_workload()
            self.txns_per_pass += transactions(protected)
            self.unprotected_makespan += unprotected.system.execution_cycles()
        self.built = {}

    def ops(self) -> List[Op]:
        from repro.api import Experiment
        from repro.fuzz.runner import fuzz_scenario
        from repro.staticcheck.analyzer import verify_spec
        from repro.sweep import regenerate_paper

        if self._tmp is not None:
            self._tmp.cleanup()
        self._tmp = tempfile.TemporaryDirectory(dir=self.scratch)
        store, out = pathlib.Path(self._tmp.name, "store"), pathlib.Path(self._tmp.name, "out")
        budget = self.params["fuzz_budget"]
        ops: List[Op] = []
        for name, spec in self.specs.items():
            ops.append((f"run/{name}", Experiment.from_spec(spec).campaign(1).run))
        for name, spec in self.specs.items():
            ops.append(
                (f"fuzz/{name}", functools.partial(fuzz_scenario, spec, seed=self.seed, budget=budget))
            )
        for name, spec in self.specs.items():
            ops.append((f"verify/{name}", functools.partial(verify_spec, spec)))
        paper = functools.partial(regenerate_paper, store, out, sweep_workers=1)
        ops.append(("paper/cold", paper))
        ops.append(("paper/warm", paper))
        return ops

    def check(self, label: str, result: Any) -> Optional[str]:
        kind = label.split("/")[0]
        if kind == "run":
            for row in result.latency["table2"]:
                if row["operations"] and row["measured_cycles"] != row["paper_cycles"]:
                    return f"Table II {row['module']}: {row['measured_cycles']} cycles"
        elif kind == "fuzz" and result.findings:
            return f"fuzzing found {len(result.findings)} bypass(es)"
        elif kind == "verify" and result.has_errors:
            return f"verifier errors: {[f.code for f in result.errors()]}"
        elif label == "paper/cold" and (result.sweep.skipped or not result.sweep.computed):
            return "cold paper pass computed nothing or skipped points"
        elif label == "paper/warm" and result.sweep.computed:
            return f"warm paper pass computed {len(result.sweep.computed)} point(s)"
        return None

    def fingerprint(self, label: str, result: Any) -> Any:
        kind = label.split("/")[0]
        if kind == "run":
            campaign = result.campaign and result.campaign["summary"]
            return run_fingerprint(result, with_engine=False) + (
                json.dumps(campaign, sort_keys=True),
            )
        if kind == "fuzz":
            return (result.cases_run, result.steps_run, result.blocked_steps, len(result.findings))
        if kind == "verify":
            return json.dumps(result.counts(), sort_keys=True)
        return result.sweep.store_digest

    def pass_stats(self, results: Dict[str, Any]) -> Dict[str, int]:
        stats = {
            "protected_makespan": 0,
            "unprotected_makespan": self.unprotected_makespan,
            "attacks": 0,
            "contained": 0,
        }
        for label, result in results.items():
            if not label.startswith("run/"):
                continue
            stats["protected_makespan"] += result.workload["makespan"]
            for row in (result.campaign or {}).get("rows", ()):
                stats["attacks"] += 1
                stats["contained"] += (
                    row["unprotected"] in GOAL_REACHED and row["protected"] not in GOAL_REACHED
                ) or row["detected"] == "yes"
        return stats

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def make_workload(name: str, seed: int, tiny: bool, scratch: pathlib.Path) -> Workload:
    if name in DRAIN_SCENARIOS:
        return DrainWorkload(name, seed, tiny)
    if name == "default_scale":
        return DefaultScaleWorkload(seed, tiny, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
