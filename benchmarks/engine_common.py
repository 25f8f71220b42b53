"""Paired object-vs-vector engine measurements shared by the benchmarks.

Two levels are measured and recorded side by side in the ``BENCH_*.json``
artifacts:

* **Drain wall-clock** — the same scenario workload drained to completion by
  the object kernel loop and by the vector engine, on fresh platforms.  The
  vector engine mirrors the object path's event calendar one event at a time
  (that identity is the differential suite's contract), so this ratio is
  bounded by the events it must still dispatch and the real device/arbiter
  work both engines share.
* **Policy-pass throughput** — the per-transaction cost of the firewall
  policy evaluation itself: the vector engine's interned chain-table replay
  against the object path's per-transaction filter-chain evaluation (a
  policy lookup and every checking module per call), on the same warmed
  protected chain.  This is
  the pass the batch engine actually vectorizes, and where the ≥5x CI gate
  lives.

For bridged platforms :func:`measure_fabric_policy_pass` extends the second
level to the full cross-fabric stack — the leaf chain at the issuing master
plus the Security Builder chain on every bridge of the route — which is the
per-hop work ``repro.engine.vector._drain_fabric`` serves from its interned
tables.  :func:`measure_spec_drain_pair` is the drain-level pairing for
locally built (unregistered) specs, reported as a median of paired ratios.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from typing import Dict


def _drain_spec(spec, engine: str):
    """Drain one freshly built platform for ``spec``: seconds, final, events."""
    from repro.scenarios.builder import ScenarioBuilder

    built = ScenarioBuilder(spec).build(True, _warn=False)
    built.load_workload()
    built.schedule_reconfigurations()
    built.system.start_all(stagger=built.spec.workload.stagger)
    started = time.perf_counter()
    if engine == "vector":
        from repro.engine import drive_workload

        final, report = drive_workload(built.system, requested="vector")
        assert final is not None, report.fallback_reason
    else:
        final = built.system.run()
    seconds = time.perf_counter() - started
    return seconds, final, built.system.sim.events_processed


def measure_drain_pair(
    scenario_name: str, n_operations: int, repeats: int = 3
) -> Dict[str, float]:
    """Best-of-``repeats`` drain seconds for both engines on one scenario.

    Returns drain seconds per engine, the speedup, and the (asserted
    identical) final cycle and kernel event count.
    """
    from repro.scenarios import registry

    base = registry.get_scenario(scenario_name)
    spec = replace(base, workload=replace(base.workload, n_operations=n_operations))

    object_runs = [_drain_spec(spec, "object") for _ in range(repeats)]
    vector_runs = [_drain_spec(spec, "vector") for _ in range(repeats)]
    # Engine choice must not move a single observable; the differential suite
    # checks the full fingerprint, this keeps the benchmark honest too.
    finals = {run[1] for run in object_runs} | {run[1] for run in vector_runs}
    events = {run[2] for run in object_runs} | {run[2] for run in vector_runs}
    assert len(finals) == 1 and len(events) == 1, (finals, events)

    object_s = min(run[0] for run in object_runs)
    vector_s = min(run[0] for run in vector_runs)
    return {
        "drain_scenario": scenario_name,
        "drain_operations": n_operations,
        "drain_events": events.pop(),
        "drain_final_cycle": finals.pop(),
        "drain_object_seconds": object_s,
        "drain_vector_seconds": vector_s,
        "drain_speedup": object_s / vector_s,
    }


def measure_policy_pass(n_calls: int = 20_000) -> Dict[str, float]:
    """Steady-state policy-evaluation throughput, vector pass vs object path.

    Builds one protected reference platform (no flood heuristic, so the
    chain is pure policy evaluation), warms both paths over the same
    transaction shapes, then times ``n_calls`` evaluations each.
    """
    from repro.core.secure import SecurityConfiguration, secure_reference_platform
    from repro.engine.tables import ChainTable
    from repro.soc.ports import apply_filter_chain
    from repro.soc.system import build_reference_platform
    from repro.soc.transaction import BusOperation, BusTransaction

    system = build_reference_platform()
    secure_reference_platform(
        system, SecurityConfiguration(ddr_secure_size=2048, ddr_cipher_only_size=2048)
    )
    port = system.master_ports["cpu0"]
    cfg = system.config

    # A mix of internal (BRAM) and external (secure-window DDR) shapes, the
    # request-side unit of work of every workload sweep.
    txns = [
        BusTransaction(master="cpu0", operation=BusOperation.READ,
                       address=cfg.bram_base + 0x40 + 4 * k, width=4)
        for k in range(32)
    ] + [
        BusTransaction(master="cpu0", operation=BusOperation.READ,
                       address=cfg.ddr_base + 0x100 + 4 * k, width=4)
        for k in range(32)
    ]

    table = ChainTable(port.filters, "request")

    def object_call(txn, _filters=port.filters, _apply=apply_filter_chain):
        return _apply(_filters, txn, "request")

    # Warm both paths (interning the table's profiles) and check verdict +
    # latency agreement while at it.
    for txn in txns:
        expected = object_call(txn)
        for _ in range(3):
            allowed, latency, _result = table.call(txn)
            assert allowed is expected.allowed
            assert latency == expected.latency

    chunks = 5
    per_chunk = max(1, n_calls // (chunks * len(txns)))

    def timed(fn):
        started = time.perf_counter()
        for _ in range(per_chunk):
            for txn in txns:
                fn(txn)
        return time.perf_counter() - started

    table.flush()  # replay totals are deferred statistics, settled at flush
    replayed_before = table.replayed
    # Median of paired ratios: each chunk times both paths back to back, so
    # slow drift (frequency scaling, background load) hits both sides of a
    # ratio equally, and the median discards the occasional noisy chunk.
    pairs = [(timed(object_call), timed(table.call)) for _ in range(chunks)]
    calls = chunks * per_chunk * len(txns)
    # The vector side must actually be replaying, not taking real calls.
    table.flush()
    assert table.replayed - replayed_before == calls

    object_s = sum(o for o, _ in pairs)
    vector_s = sum(v for _, v in pairs)
    return {
        "policy_calls": calls,
        "policy_object_seconds": object_s,
        "policy_vector_seconds": vector_s,
        "policy_object_us_per_call": 1e6 * object_s / calls,
        "policy_vector_us_per_call": 1e6 * vector_s / calls,
        "policy_speedup": statistics.median(o / v for o, v in pairs),
    }


def measure_spec_drain_pair(spec, repeats: int = 3) -> Dict[str, float]:
    """Median-of-paired-ratios drain speedup for one locally built spec.

    Unlike :func:`measure_drain_pair` (best-of per engine), every round times
    both engines back to back on fresh platforms and the speedup is the median
    of the per-round object/vector ratios, so slow drift hits both sides of a
    ratio equally.  One untimed warm pair runs first to prime imports.
    """
    _drain_spec(spec, "object")
    _drain_spec(spec, "vector")
    finals, events = set(), set()
    pairs = []
    for _ in range(repeats):
        object_s, object_final, object_events = _drain_spec(spec, "object")
        vector_s, vector_final, vector_events = _drain_spec(spec, "vector")
        finals |= {object_final, vector_final}
        events |= {object_events, vector_events}
        pairs.append((object_s, vector_s))
    assert len(finals) == 1 and len(events) == 1, (finals, events)
    return {
        "drain_scenario": spec.name,
        "drain_operations": spec.workload.n_operations,
        "drain_events": events.pop(),
        "drain_final_cycle": finals.pop(),
        "drain_object_seconds": min(o for o, _ in pairs),
        "drain_vector_seconds": min(v for _, v in pairs),
        "drain_speedup": statistics.median(o / v for o, v in pairs),
    }


def measure_fabric_policy_pass(
    system, master: str, local_base: int, remote_base: int,
    n_calls: int = 20_000,
) -> Dict[str, float]:
    """Cross-fabric policy-stack throughput on a bridged platform.

    A cross-fabric transaction is judged once per hop: the leaf chain at the
    issuing master port, then the Security Builder chain on every bridge it
    crosses.  This times that full request-direction stack per transaction —
    the object path's ``apply_filter_chain`` walk against the vector engine's
    interned ``ChainTable`` replay (the pass ``_drain_fabric`` serves from its
    tables) — over a mix of segment-local and whole-chain shapes.
    """
    from repro.engine.tables import ChainTable
    from repro.soc.ports import apply_filter_chain
    from repro.soc.transaction import BusOperation, BusTransaction

    port = system.master_ports[master]
    bridge_chains = [bridge.filters for bridge in system.bus.bridges.values()]
    assert bridge_chains and all(bridge_chains), "every bridge must carry an SB"
    local_chains = [port.filters]
    remote_chains = [port.filters] + bridge_chains

    shapes = [
        (BusTransaction(master=master, operation=BusOperation.READ,
                        address=local_base + 0x40 + 4 * k, width=4),
         local_chains)
        for k in range(32)
    ] + [
        (BusTransaction(master=master, operation=BusOperation.READ,
                        address=remote_base + 0x400 + 4 * k, width=4),
         remote_chains)
        for k in range(32)
    ]

    tables: Dict[int, ChainTable] = {}
    work = []
    chain_calls_per_pass = 0
    for txn, chains in shapes:
        row_tables = []
        for chain in chains:
            key = id(chain)
            if key not in tables:
                tables[key] = ChainTable(chain, "request")
            row_tables.append(tables[key])
        work.append((txn, chains, row_tables))

    def object_eval(txn, chains):
        for chain in chains:
            if not apply_filter_chain(chain, txn, "request").allowed:
                return False
        return True

    def vector_eval(txn, row_tables):
        for table in row_tables:
            allowed, _latency, _result = table.call(txn)
            if not allowed:
                return False
        return True

    # Warm both paths (interned profiles) and check per-hop
    # verdict + latency agreement while at it.
    for txn, chains, row_tables in work:
        expected = []
        for chain in chains:
            verdict = apply_filter_chain(chain, txn, "request")
            expected.append(verdict)
            if not verdict.allowed:
                break
        chain_calls_per_pass += len(expected)
        for _ in range(3):
            for verdict, table in zip(expected, row_tables):
                allowed, latency, _result = table.call(txn)
                assert allowed is verdict.allowed
                assert latency == verdict.latency

    chunks = 5
    per_chunk = max(1, n_calls // (chunks * len(work)))

    def timed(evaluate, column):
        started = time.perf_counter()
        for _ in range(per_chunk):
            for item in work:
                evaluate(item[0], item[column])
        return time.perf_counter() - started

    for table in tables.values():
        table.flush()  # replay totals are deferred statistics
    replayed_before = sum(table.replayed for table in tables.values())
    pairs = [(timed(object_eval, 1), timed(vector_eval, 2)) for _ in range(chunks)]
    calls = chunks * per_chunk * len(work)
    chain_calls = chunks * per_chunk * chain_calls_per_pass
    for table in tables.values():
        table.flush()
    replayed = sum(table.replayed for table in tables.values()) - replayed_before
    # Every hop of every timed vector pass must come from table replay.
    assert replayed == chain_calls, (replayed, chain_calls)

    object_s = sum(o for o, _ in pairs)
    vector_s = sum(v for _, v in pairs)
    return {
        "policy_calls": calls,
        "policy_chain_calls": chain_calls,
        "policy_max_hops": max(len(chains) for _, chains, _ in work),
        "policy_object_seconds": object_s,
        "policy_vector_seconds": vector_s,
        "policy_object_us_per_call": 1e6 * object_s / calls,
        "policy_vector_us_per_call": 1e6 * vector_s / calls,
        "policy_speedup": statistics.median(o / v for o, v in pairs),
    }
