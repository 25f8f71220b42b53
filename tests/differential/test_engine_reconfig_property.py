"""Property test: batch boundaries versus mid-stream reconfigurations.

The vector engine replays interned policy-decision profiles; a mid-stream
reconfiguration (rule flip or removal) must invalidate those tables at the
exact cycle the object path first sees the new rule, so the *tail* of the
stream is judged by the new rules and every alert lands at the same cycle in
the same order.  This test sweeps seeded random placements of the
reconfiguration cycles against random workload sizes — moving the swap point
across batch rows, compute bursts and arbitration boundaries — and requires
fingerprint identity (alert ordering included) on every draw.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.scenarios import registry
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.differential import _variant_fingerprint, diff_fingerprints


def _randomized_spec(seed: int):
    rng = random.Random(0x5EED ^ (seed * 7919))
    base = registry.get_scenario("reconfiguration_under_load")
    workload = replace(
        base.workload,
        n_operations=rng.choice([23, 40, 77, 120, 150]),
        write_fraction=rng.choice([0.3, 0.5, 0.7]),
        compute_burst_cycles=rng.choice([0, 5, 10]),
        seed=rng.randrange(1, 10_000),
        stagger=rng.choice([1, 3, 7, 13]),
    )
    # Shuffle the swap points across the run (including very early and very
    # late cycles, so some draws reconfigure before the first grant and some
    # after the last batch row retires).
    reconfigs = tuple(
        replace(event, at_cycle=rng.randrange(1, 6000)) for event in base.reconfigs
    )
    return replace(base, workload=workload, reconfigs=reconfigs)


def _run(spec, engine: str):
    built = ScenarioBuilder(spec).build(True, _warn=False)
    final = built.run_workload(engine=engine)
    return _variant_fingerprint(built, final), built.engine_report


@pytest.mark.parametrize("seed", range(8))
def test_reconfiguration_interleaving_matches_object_path(seed):
    spec = _randomized_spec(seed)
    fp_object, _ = _run(spec, "object")
    fp_vector, report = _run(spec, "vector")

    # The property is only exercised if the engine actually engaged.
    assert report is not None and report.used == "vector", report.fallback_reason

    # Alert stream first (the sharpest observable: cycle, firewall, master,
    # violation, address — in emission order), then the full fingerprint.
    assert fp_vector["alerts"] == fp_object["alerts"]
    diffs = diff_fingerprints(fp_object, fp_vector)
    assert not diffs, (
        f"seed {seed} diverged (reconfigs at "
        f"{[e.at_cycle for e in spec.reconfigs]}):\n  " + "\n  ".join(diffs)
    )
