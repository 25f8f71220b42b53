"""Differential harness for the vectorized batch engine.

The vector engine's contract is *fingerprint identity*: for every registered
scenario — flat segments and bridged-segment fabrics alike — draining the
workload through the batch engine must produce exactly the observables the
object path produces: same alert stream (cycle, firewall, master, violation,
address — in order), same event and cycle counts, same memory images, same
firewall verdict counters, same bridge containment/posted-failure statistics,
same reaction log.  Platforms the engine cannot mirror (payload-recording
sinks, custom ports) must *decline* with a recorded reason and leave the
object path to run, never approximate.
"""

from __future__ import annotations

import pytest

from repro.api.events import EventBus, InMemorySink, StatsSink, attach_instrumentation
from repro.engine import drive_workload
from repro.scenarios import registry
from repro.scenarios.builder import ScenarioBuilder
from repro.scenarios.differential import _variant_fingerprint, diff_fingerprints
from repro.soc.address_map import AddressMap
from repro.soc.bus import SystemBus
from repro.soc.fabric import InterconnectFabric
from repro.soc.kernel import Simulator
from repro.soc.memory import BlockRAM
from repro.soc.processor import MemoryOperation, ProcessorProgram
from repro.soc.system import SoCConfig, SoCSystem
from repro.soc.transaction import TransactionStatus

ALL_SCENARIOS = registry.list_scenarios()

#: Scenarios on a bridged-segment fabric: the engine must engage *and*
#: report the fabric shape it mirrored.
FABRIC_SCENARIOS = {
    "two_segment_dma_isolation",
    "bridge_firewalled_centralized",
    "deep_hierarchy_3seg",
    "cross_segment_attack_storm",
    "secure_boot_bay",
}


def _fingerprint(spec, protected: bool, engine: str):
    built = ScenarioBuilder(spec).build(protected, _warn=False)
    final = built.run_workload(engine=engine)
    return _variant_fingerprint(built, final), built.engine_report


@pytest.mark.parametrize("protected", [True, False], ids=["protected", "unprotected"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_vector_engine_is_fingerprint_identical(name, protected):
    spec = registry.get_scenario(name)
    fp_object, _ = _fingerprint(spec, protected, "object")
    fp_vector, report = _fingerprint(spec, protected, "vector")

    diffs = diff_fingerprints(fp_object, fp_vector)
    assert not diffs, (
        f"{name} (protected={protected}) diverged under the vector engine:\n  "
        + "\n  ".join(diffs)
    )

    assert report is not None, "vector runs must leave an engine report"
    assert report.requested == "vector"
    # Every registered scenario runs natively — no run-level fallbacks left.
    assert report.used == "vector", report.fallback_reason
    assert report.fallback_reason is None
    assert report.events > 0
    assert len(report.batches) > 0
    if name in FABRIC_SCENARIOS:
        fabric = report.extra.get("fabric")
        assert fabric is not None, "fabric runs must report their shape"
        assert fabric["segments"] >= 2
        assert fabric["bridges"] >= 1
    else:
        assert "fabric" not in report.extra


def test_registry_covers_both_fabric_shapes():
    """The identity claim is only meaningful if the registry exercises both
    flat segments and bridged fabrics through the engaged path."""
    names = set(ALL_SCENARIOS)
    assert FABRIC_SCENARIOS <= names
    assert names - FABRIC_SCENARIOS, "expected at least one flat scenario"


def test_auto_mode_engages_on_hierarchical_fabrics():
    spec = registry.get_scenario("deep_hierarchy_3seg")
    fp_object, _ = _fingerprint(spec, True, "object")
    fp_auto, report = _fingerprint(spec, True, "auto")
    assert not diff_fingerprints(fp_object, fp_auto)
    assert report is not None and report.requested == "auto"
    assert report.used == "vector" and report.fallback_reason is None


@pytest.mark.parametrize(
    "name",
    sorted(FABRIC_SCENARIOS) + ["attack_heavy", "crypto_heavy", "centralized_baseline_mirror"],
)
def test_counting_instrumentation_is_count_identical(name):
    """A counting-only event bus no longer forces the object path: settled
    batch counts must equal the object path's per-event emission counts —
    including ``firewall.decision`` counts settled for ciphering-firewall
    replays (its Local Firewall base decides) and SEM replays (the SEM emits
    none)."""
    spec = registry.get_scenario(name)

    def run(engine):
        built = ScenarioBuilder(spec).build(True, _warn=False)
        sink = StatsSink()
        attach_instrumentation(built.system, built.security, EventBus([sink]))
        built.run_workload(engine=engine)
        return sink.counts, built.engine_report

    counts_object, _ = run("object")
    counts_vector, report = run("vector")
    assert report.used == "vector", report.fallback_reason
    assert counts_object == counts_vector
    assert counts_object.get("txn.issued", 0) > 0
    assert counts_object.get("sim.run", 0) >= 1


def test_payload_sinks_still_fall_back():
    """Sinks that record full events need the object path's emission order."""
    spec = registry.get_scenario("two_segment_dma_isolation")
    built = ScenarioBuilder(spec).build(True, _warn=False)
    attach_instrumentation(built.system, built.security, EventBus([InMemorySink()]))
    built.run_workload(engine="vector")
    report = built.engine_report
    assert report.used == "object"
    assert "payload sinks" in report.fallback_reason


def test_split_transaction_slaves_still_fall_back():
    """A slave port flying the split-transaction flag is outside the engine's
    mirrored subset: the run must decline with the pinned reason and the
    object path must produce the same observables it always does."""

    def run(engine):
        built = ScenarioBuilder(registry.get_scenario("paper_baseline")).build(
            True, _warn=False
        )
        name = built.system.bus.slave_names[0]
        built.system.bus.slave_port(name).split_transactions = True
        final = built.run_workload(engine=engine)
        return _variant_fingerprint(built, final), built.engine_report, name

    fp_object, _, _ = run("object")
    fp_vector, report, name = run("vector")
    assert report.used == "object"
    assert report.fallback_reason == f"slave endpoint {name} uses split transactions"
    assert not diff_fingerprints(fp_object, fp_vector)


def test_completion_hooks_still_fall_back():
    """Processor completion hooks observe per-transaction ordering the batch
    engine does not replay; the run must decline with the pinned reason and
    stay observationally identical on the object path."""

    def run(engine):
        built = ScenarioBuilder(registry.get_scenario("paper_baseline")).build(
            True, _warn=False
        )
        proc = next(iter(built.system.processors.values()))
        calls = []
        proc.on_finished = lambda p: calls.append((p.name, p.finished_at))
        final = built.run_workload(engine=engine)
        return _variant_fingerprint(built, final), built.engine_report, proc.name, calls

    fp_object, _, _, calls_object = run("object")
    fp_vector, report, name, calls_vector = run("vector")
    assert report.used == "object"
    assert report.fallback_reason == f"processor {name} has a completion hook"
    assert not diff_fingerprints(fp_object, fp_vector)
    assert calls_object and calls_object == calls_vector


def test_replay_actually_happens_on_steady_workloads():
    """The engine must not degenerate into per-transaction real calls: on the
    paper baseline the interned policy tables carry most of the stream."""
    spec = registry.get_scenario("paper_baseline")
    _, report = _fingerprint(spec, True, "vector")
    assert report.used == "vector"
    assert report.replayed > report.real_calls
    assert report.unique_shapes > 0


def test_fabric_replay_engages_on_bridge_chains():
    """Bridge-placed chains must profile/replay too, not fall back to real
    calls per transaction."""
    spec = registry.get_scenario("bridge_firewalled_centralized")
    _, report = _fingerprint(spec, True, "vector")
    assert report.used == "vector"
    assert report.replayed > 0


# ---------------------------------------------------------------------------
# Decode errors: unmapped addresses and mapped-but-unconnected regions
# ---------------------------------------------------------------------------

_GHOST_BASE = 0x2000   # mapped to slave "ghost", which has no port
_REMOTE_GHOST_BASE = 0x3000
_UNMAPPED = 0x7000_0000


def _decode_error_program(ghost_base: int, salt: int) -> ProcessorProgram:
    """Live accesses interleaved with both decode-error shapes, so grants
    after each error still contend for the bus."""
    ops = []
    for i in range(6):
        ops.append(MemoryOperation.write(0x100 * salt + 8 * i, bytes([i + salt] * 4)))
        ops.append(MemoryOperation.read(_UNMAPPED + 4 * i))
        ops.append(MemoryOperation.read(0x100 * salt + 8 * i))
        ops.append(MemoryOperation.write(ghost_base + 4 * i, b"\x5a" * 4))
        ops.append(MemoryOperation.compute(i))
    return ProcessorProgram(operations=ops, name=f"decode_errors_{salt}")


def _flat_decode_error_platform() -> SoCSystem:
    sim = Simulator()
    address_map = AddressMap()
    address_map.add_region("bram", 0x0, 0x1000, slave="bram")
    address_map.add_region("ghost", _GHOST_BASE, 0x1000, slave="ghost")
    system = SoCSystem(sim, SystemBus(sim, address_map=address_map),
                       SoCConfig(n_processors=2, with_dma=False))
    system.add_memory(BlockRAM(sim, "bram", base=0x0, size=0x1000))
    for salt in range(2):
        system.add_processor(f"cpu{salt}").load_program(
            _decode_error_program(_GHOST_BASE, salt)
        )
    return system


def _fabric_decode_error_platform() -> SoCSystem:
    """The same accesses issued on one fabric segment; a second ghost region
    lives across the bridge, so its decode error lands on the far segment."""
    sim = Simulator()
    fabric = InterconnectFabric(sim)
    fabric.add_segment("seg0")
    fabric.add_segment("seg1")
    fabric.add_bridge("br0", "seg0", "seg1")
    fabric.add_region("bram", 0x0, 0x1000, slave="bram", segment="seg0")
    fabric.add_region("ghost", _GHOST_BASE, 0x1000, slave="ghost", segment="seg0")
    fabric.add_region("ghost_far", _REMOTE_GHOST_BASE, 0x1000, slave="ghost_far",
                      segment="seg1")
    fabric.finalize()
    system = SoCSystem(sim, fabric, SoCConfig(n_processors=2, with_dma=False))
    system.add_memory(BlockRAM(sim, "bram", base=0x0, size=0x1000), segment="seg0")
    for salt, ghost in enumerate((_GHOST_BASE, _REMOTE_GHOST_BASE)):
        system.add_processor(f"cpu{salt}", segment="seg0").load_program(
            _decode_error_program(ghost, salt)
        )
    return system


def _run_decode_errors(build, engine: str):
    system = build()
    system.start_all()
    report = None
    if engine == "vector":
        final, report = drive_workload(system, requested="vector")
        assert final is not None, report.fallback_reason
    else:
        final = system.run()
    bus = system.bus
    segments = bus.segments if isinstance(bus, InterconnectFabric) else {bus.name: bus}
    observables = {
        "final": final,
        "events": system.sim.events_processed,
        "statuses": {
            name: [t.status for t in proc.transactions]
            for name, proc in system.processors.items()
        },
        "blocked": {
            name: [(t.address, t.status, t.annotations.get("block_reason"))
                   for t in proc.blocked_transactions]
            for name, proc in system.processors.items()
        },
        "processors": {
            name: dict(proc.stats) for name, proc in system.processors.items()
        },
        "ports": {
            name: dict(port.stats) for name, port in system.master_ports.items()
        },
        "slave_ports": {
            name: dict(port.stats) for name, port in system.slave_ports.items()
        },
        "segments": {
            name: (dict(seg.stats), dict(seg.monitor.per_master),
                   dict(seg.monitor.per_slave))
            for name, seg in segments.items()
        },
        "memory": system.memories["bram"].peek(0x0, 0x1000),
    }
    return observables, report


@pytest.mark.parametrize(
    "build", [_flat_decode_error_platform, _fabric_decode_error_platform],
    ids=["flat", "fabric"],
)
def test_decode_errors_match_object_path(build):
    obj, _ = _run_decode_errors(build, "object")
    vec, report = _run_decode_errors(build, "vector")

    decode_errors = sum(stats["decode_errors"] for stats, _, _ in obj["segments"].values())
    # Per processor: six unmapped reads plus six writes to a portless region.
    assert decode_errors == 24
    assert all(
        status is TransactionStatus.DECODE_ERROR
        for blocked in obj["blocked"].values() for _, status, _ in blocked
    )
    assert report is not None and report.used == "vector"
    assert vec == obj
