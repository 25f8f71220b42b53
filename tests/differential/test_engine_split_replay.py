"""Object ≡ vector where the vector engine splits a filter into halves.

The vector engine replays the *shape half* of the Local Ciphering Firewall
(its Local Firewall base) and of the centralized SEM (the policy check), and
runs their *live halves* (the Confidentiality/Integrity Cores, the SEM's FIFO
queue) for real on every call.  These tests pin the cases where a live half
or a guard change must land at the object path's exact cycle: a ciphertext
tampered mid-drain, a ciphering-firewall rule replaced mid-drain, counting
instrumentation over split chains, and the replay coverage the split buys.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.tables import REAL_CALL_REASONS
from repro.scenarios import registry
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.differential import _variant_fingerprint, diff_fingerprints
from repro.scenarios.spec import ReconfigSpec
from repro.soc.transaction import TransactionStatus

_TAMPER_CYCLE = 3000


def _secure_region(built):
    """The crypto_heavy DDR's integrity-protected region."""
    lcf = built.security.ciphering_firewalls["ddr"]
    return lcf, next(r for r in lcf.protected_regions if r.tree is not None)


def _run_tampered(engine: str):
    spec = registry.get_scenario("crypto_heavy")
    built = ScenarioBuilder(spec).build(True, _warn=False)
    lcf, region = _secure_region(built)

    def tamper():
        # Flip every stored byte of the secure window: every later read or
        # partial write of it must fail hash-tree verification.
        base, size = region.rule.base, region.rule.size
        stored = lcf.device.peek(base, size)
        lcf.device.poke(base, bytes(b ^ 0xA5 for b in stored))

    built.system.sim.schedule_at(_TAMPER_CYCLE, tamper)
    final = built.run_workload(engine=engine)
    return built, _variant_fingerprint(built, final)


def test_tampered_ciphertext_alerts_at_the_same_cycle():
    built_object, fp_object = _run_tampered("object")
    built_vector, fp_vector = _run_tampered("vector")
    report = built_vector.engine_report
    assert report.used == "vector", report.fallback_reason

    integrity = [a for a in fp_object["alerts"] if a[3] == "integrity_failure"]
    assert integrity, "the tamper must be detected"
    assert all(alert[0] >= _TAMPER_CYCLE for alert in integrity)
    assert fp_vector["alerts"] == fp_object["alerts"]
    assert not diff_fingerprints(fp_object, fp_vector)

    # The failing calls were replays whose live half denied, not real calls.
    statuses = [
        txn.status
        for proc in built_vector.system.processors.values()
        for txn in proc.transactions
    ]
    assert TransactionStatus.INTEGRITY_ERROR in statuses
    assert report.extra["real_calls_by_reason"]["alert"] == 0
    assert report.extra["live_calls"] > 0


def test_mid_drain_ciphering_rule_replacement_matches_object_path():
    """A reconfiguration of the LCF's own rule bumps its configuration
    memory generation: the replayed shape half must be dropped at that cycle
    and the now read-only secure window deny writes from there on."""
    base = registry.get_scenario("crypto_heavy")
    probe = ScenarioBuilder(base).build(True, _warn=False)
    _, region = _secure_region(probe)
    spec = replace(
        base,
        reconfigs=(ReconfigSpec(at_cycle=_TAMPER_CYCLE, firewall="lcf_ddr",
                                rule_base=region.rule.base),),
    )

    def run(engine):
        built = ScenarioBuilder(spec).build(True, _warn=False)
        final = built.run_workload(engine=engine)
        return _variant_fingerprint(built, final), built.engine_report

    fp_object, _ = run("object")
    fp_vector, report = run("vector")
    assert report.used == "vector", report.fallback_reason
    assert any(
        alert[1] == "lcf_ddr" and alert[0] >= _TAMPER_CYCLE for alert in fp_object["alerts"]
    ), "writes to the read-only window must be denied after the swap"
    assert fp_vector["alerts"] == fp_object["alerts"]
    assert not diff_fingerprints(fp_object, fp_vector)
    assert report.extra["real_calls_by_reason"]["deny"] > 0


@pytest.mark.parametrize(
    "name", ["crypto_heavy", "bridge_firewalled_centralized", "centralized_baseline_mirror"]
)
def test_split_chains_replay_at_registered_size(name):
    """Replaying the shape halves keeps real chain calls to warm-up only."""
    built = ScenarioBuilder(registry.get_scenario(name)).build(True, _warn=False)
    built.run_workload(engine="vector")
    report = built.engine_report
    assert report.used == "vector", report.fallback_reason
    assert report.real_calls * 10 <= report.replayed + report.real_calls, report
    by_reason = report.extra["real_calls_by_reason"]
    assert tuple(by_reason) == REAL_CALL_REASONS
    assert sum(by_reason.values()) == report.real_calls
    assert report.extra["live_calls"] > 0
    assert report.to_dict()["extra"]["live_calls"] == report.extra["live_calls"]
