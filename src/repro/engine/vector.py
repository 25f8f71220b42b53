"""The vector execution engine: batch drain of a workload's calendar.

The object path executes a workload as ~7 kernel events per transaction, each
a generic ``Event`` dispatch into port/bus/filter code.  The vector engine
replaces :meth:`Simulator.run` for the workload phase with a specialised loop
over *opcodes*: it lowers every processor program into parallel arrays
(:mod:`repro.engine.batch`), pre-resolves address decode for every unique
shape, front-ends every filter chain with a profile/replay table
(:mod:`repro.engine.tables`), and drains the whole stream through a mirrored
calendar heap whose entries are plain tuples keyed by a single
``time·2⁴⁴ + sequence`` integer instead of Event objects.

**The identity contract.**  The engine is a 1:1 event mirror, not an
approximation: each heap pop corresponds to exactly one object-path kernel
event, at the same cycle, with the same sequence number, performing the same
state transitions on the *real* platform objects (transactions, devices,
monitors, arbiters, firewalls).  Anything shape-independent is replayed from
tables; anything data-, time- or state-dependent — alerts, denials,
reconfiguration, ciphering, flood trips, centralized SEM queueing — runs
the real code at the right simulated time.  The differential harness
(:mod:`repro.scenarios.differential`) holds the two engines to byte-identical
fingerprints on every registered scenario.

**One loop for every interconnect.**  A flat bus is drained as a fabric of
one segment with no bridges, so flat and bridged platforms share the same
mirrored event loop (:func:`_drain_fabric`).  The prepass resolves every
unique (address, size) shape once — through the flat bus's address map
(:func:`repro.engine.batch.decode_prepass`) or, hop by hop, through the
fabric router (:func:`repro.engine.batch.fabric_route_prepass`) — into each
segment's route table.  The loop mirrors per-segment arbitration, bridge
forward latency, the bounded posted-write buffer (with non-posted fallback
and failure statistics) and bridge-placed filter chains — the latter through
the same :class:`~repro.engine.tables.ChainTable` profile/replay front-end as
the leaf chains.  Reply paths are modelled as nested continuation tuples, so
an event that completes on a far segment unwinds through each bridge and
segment release exactly as the object path's nested callbacks would; on a
flat bus the continuation is one segment release around the master's reply.

**Instrumented runs** with counting-only sinks (:class:`~repro.api.events.
StatsSink`) also run natively: per-transaction event counts (``txn.*``,
``bus.granted``, replayed ``firewall.decision``\\ s, the run's ``sim.run``)
are settled in bulk at batch flush through :meth:`~repro.api.events.EventBus.
count_n`, while data-dependent events (containment, posted failures, alerts,
reconfigurations) are emitted live by the mirrored loop or the real code it
calls, at the exact cycle the object path would emit them.

**Fallback triggers.**  The engine declines (and the caller runs the object
path, observationally identical) when the platform is outside its mirrored
subset: an instrumentation event bus with payload-recording sinks (JSONL
trace, in-memory event streams), processor completion hooks, custom
interconnect/port/processor subclasses, split-transaction device slaves, or
a workload whose operations would fail transaction validation.
Per-transaction fallbacks (a shape that denies, transforms data or needs
ciphering) stay *inside* the engine as real chain calls — only
platform-level features force the object path.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.engine.batch import (
    BatchError,
    build_batch,
    decode_prepass,
    fabric_route_prepass,
)
from repro.engine.spec import EngineReport
from repro.engine.tables import ChainTable
from repro.soc.fabric.bridge import BridgeEndpoint, BusBridge
from repro.soc.fabric.fabric import InterconnectFabric
from repro.soc.fabric.segment import BusSegment
from repro.soc.ports import MasterPort, SlavePort
from repro.soc.processor import Processor
from repro.soc.system import SoCSystem
from repro.soc.transaction import BusTransaction, TransactionStatus

__all__ = ["EngineError", "eligibility", "drive_workload"]


class EngineError(RuntimeError):
    """Internal invariant violation in the vector engine (a mirroring bug —
    never a property of the scenario)."""


_EXECUTE_NEXT = Processor._execute_next
_NEW = BusTransaction.__new__

# Heap keys pack (time, sequence) into one integer so every heap comparison
# is a single int compare (sequences are unique, so ties cannot occur).
_SEQ_BITS = 44


class _PState:
    """Per-processor engine state: the batch's parallel arrays (bound
    directly for one-hop access in the hot loop) plus deferred statistics for
    the processor and its (1:1) master port."""

    __slots__ = (
        "proc", "port", "batch", "master", "pc", "n", "mreq", "mresp",
        "kinds", "operations", "addresses", "widths", "bursts", "datas",
        "computes", "threads", "transactions", "home",
        "issued", "p_blocked_requests", "p_blocked_responses",
        "p_completed", "p_terminated",
        "compute_ops", "compute_cycles", "memory_ops",
        "completed_accesses", "blocked_accesses", "access_cycles",
    )

    def __init__(self, proc: Processor, batch, home: "_SegState") -> None:
        self.proc = proc
        self.port = proc.port
        self.batch = batch
        self.home = home
        self.master = batch.master
        self.pc = 0
        self.n = len(batch)
        self.mreq = ChainTable(proc.port.filters, "request")
        self.mresp = ChainTable(proc.port.filters, "response")
        self.kinds = batch.kinds
        self.operations = batch.operations
        self.addresses = batch.addresses
        self.widths = batch.widths
        self.bursts = batch.bursts
        self.datas = batch.datas
        self.computes = batch.computes
        self.threads = batch.thread_ids
        self.transactions = proc.transactions
        self.issued = 0
        self.p_blocked_requests = 0
        self.p_blocked_responses = 0
        self.p_completed = 0
        self.p_terminated = 0
        self.compute_ops = 0
        self.compute_cycles = 0
        self.memory_ops = 0
        self.completed_accesses = 0
        self.blocked_accesses = 0
        self.access_cycles = 0


class _SState:
    """Per-slave-port engine state: chain tables plus deferred statistics."""

    __slots__ = ("port", "device", "access", "device_name", "slave_name",
                 "req", "resp", "delivered", "blocked_requests",
                 "blocked_responses")

    def __init__(self, slave_name: str, port: SlavePort) -> None:
        self.port = port
        self.device = port.device
        self.access = port.device.access
        self.device_name = port.device.name
        self.slave_name = slave_name
        self.req = ChainTable(port.filters, "request")
        self.resp = ChainTable(port.filters, "response")
        self.delivered = 0
        self.blocked_requests = 0
        self.blocked_responses = 0


class _BridgeHop:
    """Route-table entry for a shape that leaves its segment via a bridge."""

    __slots__ = ("bs", "side", "slave_key")

    def __init__(self, bs: "_BridgeState", side: str, slave_key: str) -> None:
        self.bs = bs
        self.side = side
        self.slave_key = slave_key  # "bridge:<name>" (the monitor's slave key)


class _SegState:
    """Per-segment engine state: mirror-local arbitration (busy flag, pending
    count), the segment's route table, its device slave states, and deferred
    statistics (stats counters + monitor per-master/per-slave counts)."""

    __slots__ = (
        "seg", "name", "stage", "ap", "dp", "waiting", "select", "add_master",
        "history_append", "busy", "pending", "route", "sstates",
        "submitted", "granted", "completed", "decode_errors",
        "mon_master", "mon_slave",
    )

    def __init__(self, seg: BusSegment) -> None:
        self.seg = seg
        self.name = seg.name
        self.stage = seg.latency_stage
        self.ap = seg.address_phase_cycles
        self.dp = seg.data_phase_cycles_per_beat
        self.waiting = seg._waiting
        self.select = seg.arbiter.select
        self.add_master = seg.arbiter.add_master
        self.history_append = seg.monitor.history.append
        self.busy = False
        self.pending = 0
        # (address, size) -> _SState | _BridgeHop | None (decode error).
        self.route: Dict[Tuple[int, int], object] = {}
        self.sstates = {
            name: _SState(name, port)
            for name, port in seg._slave_ports.items()
            if type(port) is SlavePort
        }
        self.submitted = 0
        self.granted = 0
        self.completed = 0
        self.decode_errors = 0
        self.mon_master: Dict[str, int] = {}
        self.mon_slave: Dict[str, int] = {}


class _BridgeState:
    """Per-bridge engine state: chain tables over the bridge's filter chain,
    the mirrored forwarding FIFO (posted clones + ordered followers), and
    deferred statistics for every counter the object path bumps."""

    __slots__ = (
        "bridge", "name", "stage", "fwd", "posted", "depth", "req", "resp",
        "buffer", "draining", "posted_pending", "target",
        "ingress_a", "ingress_b", "blocked_requests", "blocked_responses",
        "posted_writes", "posted_stalls", "ordered_behind_posted",
        "forwarded", "posted_completed", "posted_write_failures",
    )

    def __init__(self, bridge: BusBridge, segstates: Dict[str, "_SegState"]) -> None:
        self.bridge = bridge
        self.name = bridge.name
        self.stage = f"bridge:{bridge.name}"
        self.fwd = bridge.forward_latency
        self.posted = bridge.posted_writes
        self.depth = bridge.buffer_depth
        self.req = ChainTable(bridge.filters, "request")
        self.resp = ChainTable(bridge.filters, "response")
        # Mirror of BusBridge._buffer: ("posted", clone, target _SegState) or
        # ("ordered", txn, continuation, target _SegState).
        self.buffer: deque = deque()
        self.draining = False
        self.posted_pending = 0
        self.target = {
            "a": segstates[bridge.b_segment.name],
            "b": segstates[bridge.a_segment.name],
        }
        self.ingress_a = 0
        self.ingress_b = 0
        self.blocked_requests = 0
        self.blocked_responses = 0
        self.posted_writes = 0
        self.posted_stalls = 0
        self.ordered_behind_posted = 0
        self.forwarded = 0
        self.posted_completed = 0
        self.posted_write_failures = 0


def _topology(bus) -> Tuple[Dict[str, BusSegment], Dict[str, BusBridge]]:
    """The interconnect as segments and bridges; a flat bus is one segment
    with no bridges."""
    if type(bus) is InterconnectFabric:
        return bus.segments, bus.bridges
    return {bus.name: bus}, {}


def eligibility(system: SoCSystem) -> Optional[str]:
    """Why this platform cannot run under the vector engine (None = it can).

    These are *run-level* fallback triggers; per-transaction concerns
    (alerts, ciphering, floods) are handled inside the engine by real calls.
    """
    bus = system.bus
    fabric = type(bus) is InterconnectFabric
    if not fabric:
        if not isinstance(bus, BusSegment):
            return (
                f"custom interconnect {type(bus).__name__} "
                "(not a plain BusSegment or InterconnectFabric)"
            )
        # A flat bus may subclass BusSegment (SystemBus does) as long as it
        # keeps the arbitration the loop mirrors.
        if type(bus).submit is not BusSegment.submit or (
            type(bus)._try_grant is not BusSegment._try_grant
        ):
            return f"custom interconnect {type(bus).__name__} overrides arbitration"
    reason = _event_bus_reason(system)
    if reason is not None:
        return reason
    segments, bridges = _topology(bus)
    for seg_name, seg in segments.items():
        if fabric and type(seg) is not BusSegment:
            return f"custom segment {type(seg).__name__} ({seg_name})"
        for name, port in seg._slave_ports.items():
            if type(port) is BridgeEndpoint:
                if fabric:
                    continue
                return f"slave endpoint {name} uses split transactions"
            if type(port) is not SlavePort:
                return f"custom slave port {type(port).__name__} on {name}"
            if getattr(port, "split_transactions", False):
                return f"slave endpoint {name} uses split transactions"
    for name, bridge in bridges.items():
        if type(bridge) is not BusBridge:
            return f"custom bridge {type(bridge).__name__} ({name})"
    reason = _processors_reason(system)
    if reason is not None:
        return reason
    for proc in system.processors.values():
        if proc.port.bus is not segments.get(getattr(proc.port.bus, "name", None)):
            return f"master {proc.name} attached outside the fabric's segments"
    return None


def _event_bus_reason(system: SoCSystem) -> Optional[str]:
    """Counting-only buses run natively (counts settle at batch flush);
    payload-recording sinks need the per-event emission order of the object
    path."""
    event_bus = system.sim.event_bus
    if event_bus is not None and not getattr(event_bus, "count_only", False):
        return "instrumentation event bus with payload sinks attached"
    return None


def _processors_reason(system: SoCSystem) -> Optional[str]:
    for proc in system.processors.values():
        if type(proc) is not Processor:
            return f"custom processor {type(proc).__name__}"
        if proc.on_finished is not None:
            return f"processor {proc.name} has a completion hook"
        if type(proc.port) is not MasterPort:
            return f"custom master port {type(proc.port).__name__}"
    return None


def drive_workload(
    system: SoCSystem, requested: str = "vector"
) -> Tuple[Optional[int], EngineReport]:
    """Drain the started workload under the vector engine.

    Call *after* workload load / reconfiguration arming / ``start_all`` — the
    engine takes ownership of the pending calendar.  Returns
    ``(final_cycle, report)``; ``final_cycle`` is None when the engine
    declined, in which case nothing was touched and the caller must run the
    object path (``system.run()``).
    """
    reason = eligibility(system)
    if reason is not None:
        return None, EngineReport(requested=requested, used="object",
                                  fallback_reason=reason)

    try:
        batches = [build_batch(proc) for proc in system.processors.values()]
    except BatchError as exc:
        return None, EngineReport(
            requested=requested, used="object",
            fallback_reason=f"workload fails transaction validation ({exc})",
        )

    bus = system.bus
    fabric = type(bus) is InterconnectFabric
    segments, bridges = _topology(bus)
    segstates = {name: _SegState(seg) for name, seg in segments.items()}
    bridgestates = {
        name: _BridgeState(bridge, segstates) for name, bridge in bridges.items()
    }
    pstates = {
        proc: _PState(proc, batch, segstates[proc.port.bus.name])
        for proc, batch in zip(system.processors.values(), batches)
    }

    # Resolve every unique shape once: hop by hop through the fabric router
    # (one batched resolve_many per home segment), or through the flat bus's
    # own address map.
    if fabric:
        streams: Dict[str, set] = {}
        for ps in pstates.values():
            streams.setdefault(ps.home.name, set()).update(ps.batch.memory_shapes)
        per_segment = fabric_route_prepass(bus, streams)
    else:
        per_segment = {bus.name: decode_prepass(bus.address_map, batches)}
    unique_shapes = set()
    for seg_name, shape_slaves in per_segment.items():
        st = segstates[seg_name]
        seg_ports = st.seg._slave_ports
        for shape, slave in shape_slaves.items():
            unique_shapes.add(shape)
            if slave is None:
                st.route[shape] = None
            elif slave.startswith("bridge:"):
                endpoint = seg_ports[slave]
                st.route[shape] = _BridgeHop(
                    bridgestates[endpoint.device.name], endpoint.side, slave
                )
            else:
                # A region whose slave has no port here is a decode error too.
                st.route[shape] = st.sstates.get(slave)

    final = _drain_fabric(system, pstates, segstates, bridgestates)

    tables = [t for ps in pstates.values() for t in (ps.mreq, ps.mresp)]
    tables += [
        t for st in segstates.values()
        for ss in st.sstates.values() for t in (ss.req, ss.resp)
    ]
    tables += [t for bs in bridgestates.values() for t in (bs.req, bs.resp)]
    report = EngineReport(
        requested=requested,
        used="vector",
        events=final[1],
        batches=tuple((ps.proc.name, ps.n) for ps in pstates.values()),
        unique_shapes=len(unique_shapes),
        profiles=sum(len(t.profiles) for t in tables),
        replayed=sum(t.replayed for t in tables),
        real_calls=sum(t.real_calls for t in tables),
        extra={
            "fabric": {"segments": len(segstates), "bridges": len(bridgestates)}
        } if fabric else {},
    )
    return final[0], report


# Opcodes of the mirrored calendar.  Each heap entry is ``(key, opcode, a, b)``
# with ``key = time << _SEQ_BITS | sequence``.  The loop is continuation-based:
# entries carry a *continuation* mirroring the reply callable the object path
# would have closed over, so multi-hop completions unwind through nested
# bridge/segment continuations exactly as the object path's nested callbacks.
_F_EXEC = 0      # processor _execute_next
_F_ISSUE = 1     # segment.submit (scheduled by MasterPort.issue)
_F_DELIVER = 2   # slave_port.deliver
_F_ACCESS = 3    # slave_port._access_device
_F_SRESP = 4     # slave_port._run_response_filters
_F_REPLY = 5     # a scheduled `reply(txn)` -> resume the continuation
_F_BLOCKED = 6   # slave/bridge _reply_blocked (mark + resume)
_F_MFIN = 7      # master_port._finish_completed
_F_MBLOCK = 8    # master_port._finish_blocked
_F_DECODE = 9    # segment._finish_decode_error
_F_INGRESS = 10  # bridge._ingress (scheduled endpoint deliver)
_F_FORWARD = 11  # bridge._forward (non-posted submit on the far segment)
_F_DRAIN_P = 12  # bridge._drain_submit_posted
_F_DRAIN_O = 13  # bridge._drain_submit_ordered
_F_HANDOFF = 14  # segment._release_after_handoff (split release)
_F_ALIEN = 15    # any other scheduled callback (reconfiguration closures)

# Continuation tags (first element of every continuation tuple).
_C_MASTER = 0    # MasterPort._on_response
_C_RELEASE = 1   # segment._release_and_reply (busy release + inner reply)
_C_SPLIT = 2     # segment._on_split_reply (completed bump + inner reply)
_C_REMOTE = 3    # bridge._on_remote_reply (response chain + inner reply)
_C_DRAIN_P = 4   # bridge._drain_done_posted
_C_DRAIN_O = 5   # bridge._drain_done_ordered


def _drain_fabric(system, pstates, segstates, bridgestates) -> Tuple[int, int]:
    """The mirrored event loop over the platform's segments and bridges.

    A flat bus arrives as one segment with no bridges; a fabric as all of its
    segments and bridges.  One heap pop per object-path kernel event, at the
    same cycle, with the same sequence number and the same state transitions.
    Returns (final cycle, events executed).
    """
    sim = system.sim
    event_bus = sim.event_bus

    heap: List[tuple] = []
    push = heapq.heappush
    pop = heapq.heappop

    by_proc = {ps.proc: ps for ps in pstates.values()}
    for ev in sim.drain_pending():
        key = ev.time << _SEQ_BITS | ev.sequence
        cb = ev.callback
        if getattr(cb, "__func__", None) is _EXECUTE_NEXT:
            heap.append((key, _F_EXEC, by_proc[cb.__self__], None))
        else:
            heap.append((key, _F_ALIEN, cb, ev.args))
    heapq.heapify(heap)

    seq = sim._sequence
    for st in segstates.values():
        if st.seg._busy:
            raise EngineError(f"segment {st.name} busy at workload start")
    for bs in bridgestates.values():
        if bs.bridge._buffer or bs.bridge._draining:
            raise EngineError(f"bridge {bs.name} draining at workload start")

    n_events = 0
    final_time = sim._now

    READ_OP = _READ
    ISSUED = TransactionStatus.ISSUED
    GRANTED = TransactionStatus.GRANTED
    COMPLETED = TransactionStatus.COMPLETED
    BLOCKED_AT_MASTER = TransactionStatus.BLOCKED_AT_MASTER
    BLOCKED_AT_SLAVE = TransactionStatus.BLOCKED_AT_SLAVE
    BLOCKED_AT_BRIDGE = TransactionStatus.BLOCKED_AT_BRIDGE
    DECODE_ERROR = TransactionStatus.DECODE_ERROR
    FAILED = _FAILED

    def step(ps: _PState, time: int) -> None:
        """Mirror of Processor._execute_next (one operation per activation)."""
        nonlocal seq
        pc = ps.pc
        if pc >= ps.n:
            proc = ps.proc
            if proc.finished_at is None:
                proc.finished_at = time
                stats = proc.stats
                stats["finished_at"] = time
                if proc.started_at is not None:
                    stats["execution_cycles"] = time - proc.started_at
            return
        ps.pc = pc + 1
        kind = ps.kinds[pc]
        if not kind:  # COMPUTE
            cycles = ps.computes[pc]
            ps.compute_ops += 1
            ps.compute_cycles += cycles
            push(heap, ((time + cycles) << _SEQ_BITS | seq, _F_EXEC, ps, None))
            seq += 1
            return
        txn = _NEW(BusTransaction)
        txn.master = ps.master
        txn.operation = ps.operations[pc]
        txn.address = ps.addresses[pc]
        txn.width = ps.widths[pc]
        txn.burst_length = ps.bursts[pc]
        txn.data = ps.datas[pc]
        txn.txn_id = _next_txn_id()
        txn.status = ISSUED
        txn.issued_at = time
        txn.granted_at = -1
        txn.completed_at = -1
        txn.latency_breakdown = {}
        thread_id = ps.threads[pc]
        txn.annotations = {} if thread_id is None else {"thread_id": thread_id}
        ps.memory_ops += 1
        ps.transactions.append(txn)
        ps.issued += 1
        allowed, latency, result = ps.mreq.call(txn)
        if allowed:
            push(heap, ((time + latency) << _SEQ_BITS | seq, _F_ISSUE, ps, txn))
        else:
            ps.p_blocked_requests += 1
            push(heap, (
                (time + latency) << _SEQ_BITS | seq, _F_MBLOCK, ps,
                (txn, result.status or BLOCKED_AT_MASTER, result.reason),
            ))
        seq += 1

    def complete_master(ps: _PState, txn: BusTransaction, time: int) -> None:
        """Mirror of MasterPort._complete + Processor._on_transaction_done."""
        if txn.status is COMPLETED:
            ps.p_completed += 1
            ps.completed_accesses += 1
        else:
            ps.p_terminated += 1
            ps.blocked_accesses += 1
            ps.proc.blocked_transactions.append(txn)
        latency = txn.completed_at - txn.issued_at
        if latency > 0:
            ps.access_cycles += latency
        step(ps, time)

    def submit(st: _SegState, txn: BusTransaction, cont: tuple, time: int) -> None:
        """Mirror of BusSegment.submit."""
        master = txn.master
        queue = st.waiting.get(master)
        if queue is None:
            queue = st.waiting[master] = deque()
            st.add_master(master)
        queue.append((txn, cont))
        st.pending += 1
        st.submitted += 1
        if not st.busy:
            try_grant(st, time)

    def try_grant(st: _SegState, time: int) -> None:
        """Mirror of BusSegment._try_grant (per-segment phases, fabric routes)."""
        nonlocal seq
        if st.busy or not st.pending:
            return
        winner = st.select(st.waiting)
        if winner is None:
            return
        txn, cont = st.waiting[winner].popleft()
        st.pending -= 1
        st.busy = True
        txn.granted_at = time
        txn.status = GRANTED
        st.granted += 1
        transfer = st.ap + st.dp * txn.burst_length
        bd = txn.latency_breakdown
        stage = st.stage
        bd[stage] = bd.get(stage, 0) + transfer
        target = st.route.get((txn.address, txn.width * txn.burst_length), _NO_ROUTE)
        if target is None:
            st.decode_errors += 1
            push(heap, ((time + transfer) << _SEQ_BITS | seq,
                        _F_DECODE, st, (txn, cont)))
            seq += 1
            return
        if target is _NO_ROUTE:
            raise EngineError(
                f"unrouted shape ({txn.address:#x}, {txn.size}) on {st.name}"
            )
        st.history_append(txn)
        master = txn.master
        st.mon_master[master] = st.mon_master.get(master, 0) + 1
        if target.__class__ is _SState:
            slave = target.slave_name
            st.mon_slave[slave] = st.mon_slave.get(slave, 0) + 1
            push(heap, ((time + transfer) << _SEQ_BITS | seq, _F_DELIVER,
                        target, (txn, (_C_RELEASE, st, cont))))
            seq += 1
        else:  # _BridgeHop: split handoff — release at delivery, not at reply.
            slave = target.slave_key
            st.mon_slave[slave] = st.mon_slave.get(slave, 0) + 1
            push(heap, ((time + transfer) << _SEQ_BITS | seq, _F_INGRESS,
                        target.bs, (target.side, txn, (_C_SPLIT, st, cont))))
            seq += 1
            push(heap, ((time + transfer) << _SEQ_BITS | seq, _F_HANDOFF,
                        st, None))
            seq += 1

    def br_drain(bs: _BridgeState, time: int) -> None:
        """Mirror of BusBridge._drain (head stays buffered while in flight)."""
        nonlocal seq
        if bs.draining or not bs.buffer:
            return
        bs.draining = True
        entry = bs.buffer[0]
        if entry[0] == "posted":
            push(heap, ((time + bs.fwd) << _SEQ_BITS | seq, _F_DRAIN_P,
                        bs, (entry[1], entry[2])))
        else:
            push(heap, (time << _SEQ_BITS | seq, _F_DRAIN_O,
                        bs, (entry[1], entry[2], entry[3])))
        seq += 1

    def resume(cont: tuple, txn: BusTransaction, time: int) -> None:
        """Run one reply continuation (the object path's `reply(txn)`)."""
        nonlocal seq
        tag = cont[0]
        if tag == _C_MASTER:
            ps = cont[1]
            status = txn.status
            if status in FAILED:
                complete_master(ps, txn, time)
                return
            allowed, latency, result = ps.mresp.call(txn)
            if allowed:
                push(heap, ((time + latency) << _SEQ_BITS | seq,
                            _F_MFIN, ps, txn))
            else:
                ps.p_blocked_responses += 1
                push(heap, (
                    (time + latency) << _SEQ_BITS | seq, _F_MBLOCK, ps,
                    (txn, result.status or BLOCKED_AT_MASTER, result.reason),
                ))
            seq += 1
        elif tag == _C_RELEASE:
            st = cont[1]
            st.busy = False
            st.completed += 1
            # The object path replies synchronously before re-arbitrating, so
            # the inner continuation's schedules take earlier sequence numbers
            # than the next grant's.
            resume(cont[2], txn, time)
            if st.pending:
                try_grant(st, time)
        elif tag == _C_SPLIT:
            cont[1].completed += 1
            resume(cont[2], txn, time)
        elif tag == _C_REMOTE:
            bs = cont[1]
            bs.forwarded += 1
            status = txn.status
            if status in FAILED:
                resume(cont[2], txn, time)
                return
            allowed, latency, result = bs.resp.call(txn)
            if allowed:
                push(heap, ((time + latency) << _SEQ_BITS | seq,
                            _F_REPLY, cont[2], txn))
            else:
                bs.blocked_responses += 1
                push(heap, (
                    (time + latency) << _SEQ_BITS | seq, _F_BLOCKED, cont[2],
                    (txn, result.status or BLOCKED_AT_BRIDGE, result.reason),
                ))
            seq += 1
        elif tag == _C_DRAIN_P:
            bs = cont[1]
            bs.buffer.popleft()
            bs.posted_pending -= 1
            bs.draining = False
            bs.posted_completed += 1
            status = txn.status
            if status in FAILED:
                # Posted-write hazard: the issuer was acknowledged long ago.
                bs.posted_write_failures += 1
                if event_bus is not None:
                    event_bus.emit(
                        "bridge.posted_failure", time, bs.name,
                        master=txn.master, address=txn.address,
                        status=status.value,
                    )
            br_drain(bs, time)
        else:  # _C_DRAIN_O
            bs = cont[1]
            bs.buffer.popleft()
            bs.draining = False
            resume((_C_REMOTE, bs, cont[2]), txn, time)
            br_drain(bs, time)

    while heap:
        key, op, a, b = pop(heap)
        time = key >> _SEQ_BITS
        sim._now = time
        n_events += 1

        if op == _F_EXEC:
            step(a, time)
        elif op == _F_ISSUE:
            submit(a.home, b, (_C_MASTER, a), time)
        elif op == _F_DELIVER:
            txn, cont = b
            a.delivered += 1
            allowed, latency, result = a.req.call(txn)
            if allowed:
                push(heap, ((time + latency) << _SEQ_BITS | seq,
                            _F_ACCESS, a, b))
            else:
                a.blocked_requests += 1
                push(heap, (
                    (time + latency) << _SEQ_BITS | seq, _F_BLOCKED, cont,
                    (txn, result.status or BLOCKED_AT_SLAVE, result.reason),
                ))
            seq += 1
        elif op == _F_ACCESS:
            txn, cont = b
            latency, data = a.access(txn)
            bd = txn.latency_breakdown
            name = a.device_name
            bd[name] = bd.get(name, 0) + latency
            if data is not None and txn.operation is READ_OP:
                txn.data = data
            push(heap, ((time + latency) << _SEQ_BITS | seq, _F_SRESP, a, b))
            seq += 1
        elif op == _F_SRESP:
            txn, cont = b
            allowed, latency, result = a.resp.call(txn)
            if allowed:
                push(heap, ((time + latency) << _SEQ_BITS | seq,
                            _F_REPLY, cont, txn))
            else:
                a.blocked_responses += 1
                push(heap, (
                    (time + latency) << _SEQ_BITS | seq, _F_BLOCKED, cont,
                    (txn, result.status or BLOCKED_AT_SLAVE, result.reason),
                ))
            seq += 1
        elif op == _F_REPLY:
            resume(a, b, time)
        elif op == _F_BLOCKED:
            txn, status, reason = b
            txn.mark_blocked(time, status, reason)
            resume(a, txn, time)
        elif op == _F_MFIN:
            txn = b
            txn.completed_at = time
            txn.status = COMPLETED
            complete_master(a, txn, time)
        elif op == _F_MBLOCK:
            txn, status, reason = b
            txn.mark_blocked(time, status, reason)
            complete_master(a, txn, time)
        elif op == _F_DECODE:
            txn, cont = b
            txn.mark_blocked(time, DECODE_ERROR, "address decode error")
            a.busy = False
            a.completed += 1
            resume(cont, txn, time)
            try_grant(a, time)
        elif op == _F_INGRESS:
            side, txn, cont = b
            bs = a
            if side == "a":
                bs.ingress_a += 1
            else:
                bs.ingress_b += 1
            allowed, latency, result = bs.req.call(txn)
            if not allowed:
                bs.blocked_requests += 1
                if event_bus is not None:
                    event_bus.emit(
                        "bridge.containment", time, bs.name,
                        master=txn.master, address=txn.address,
                        txn_id=txn.txn_id, reason=result.reason, side=side,
                    )
                push(heap, (
                    (time + latency) << _SEQ_BITS | seq, _F_BLOCKED, cont,
                    (txn, result.status or BLOCKED_AT_BRIDGE, result.reason),
                ))
                seq += 1
            else:
                bd = txn.latency_breakdown
                stage = bs.stage
                bd[stage] = bd.get(stage, 0) + bs.fwd
                target = bs.target[side]
                if (
                    txn.operation is not READ_OP
                    and bs.posted
                    and bs.posted_pending < bs.depth
                ):
                    bs.posted_writes += 1
                    clone = txn.clone_for_retry()
                    bs.buffer.append(("posted", clone, target))
                    bs.posted_pending += 1
                    push(heap, ((time + latency + bs.fwd) << _SEQ_BITS | seq,
                                _F_REPLY, cont, txn))
                    seq += 1
                    br_drain(bs, time)
                else:
                    if txn.operation is not READ_OP and bs.posted:
                        bs.posted_stalls += 1
                    if bs.buffer:
                        bs.ordered_behind_posted += 1
                        bs.buffer.append(("ordered", txn, cont, target))
                        br_drain(bs, time)
                    else:
                        push(heap, (
                            (time + latency + bs.fwd) << _SEQ_BITS | seq,
                            _F_FORWARD, bs, (txn, cont, target),
                        ))
                        seq += 1
        elif op == _F_FORWARD:
            txn, cont, target = b
            submit(target, txn, (_C_REMOTE, a, cont), time)
        elif op == _F_DRAIN_P:
            clone, target = b
            submit(target, clone, (_C_DRAIN_P, a), time)
        elif op == _F_DRAIN_O:
            txn, cont, target = b
            submit(target, txn, (_C_DRAIN_O, a, cont), time)
        elif op == _F_HANDOFF:
            a.busy = False
            try_grant(a, time)
        elif op == _F_ALIEN:
            sim._sequence = seq
            a(*b)
            if sim._queue:
                for ev in sim.drain_pending():
                    ekey = ev.time << _SEQ_BITS | ev.sequence
                    cb = ev.callback
                    if getattr(cb, "__func__", None) is _EXECUTE_NEXT:
                        push(heap, (ekey, _F_EXEC, by_proc[cb.__self__], None))
                    else:
                        push(heap, (ekey, _F_ALIEN, cb, ev.args))
            seq = sim._sequence
        else:  # pragma: no cover - unreachable
            raise EngineError(f"unknown opcode {op}")
        final_time = time

    for st in segstates.values():
        if st.busy or any(st.waiting.values()):
            raise EngineError(
                f"transactions left in flight on {st.name} after drain"
            )
    for bs in bridgestates.values():
        if bs.buffer or bs.draining:
            raise EngineError(f"bridge {bs.name} still draining after drain")

    # Settle deferred state back onto the real platform objects.
    sim._sequence = seq
    sim.resync(final_time, n_events)

    for ps in pstates.values():
        _merge(ps.proc.stats, (
            ("compute_ops", ps.compute_ops),
            ("compute_cycles", ps.compute_cycles),
            ("memory_ops", ps.memory_ops),
            ("completed_accesses", ps.completed_accesses),
            ("blocked_accesses", ps.blocked_accesses),
            ("access_cycles", ps.access_cycles),
        ))
        _merge(ps.port.stats, (
            ("issued", ps.issued),
            ("blocked_requests", ps.p_blocked_requests),
            ("blocked_responses", ps.p_blocked_responses),
            ("completed", ps.p_completed),
            ("terminated", ps.p_terminated),
        ))
        ps.mreq.flush()
        ps.mresp.flush()
    request_tables = [ps.mreq for ps in pstates.values()]
    granted_ok = 0
    for st in segstates.values():
        for ss in st.sstates.values():
            _merge(ss.port.stats, (
                ("delivered", ss.delivered),
                ("blocked_requests", ss.blocked_requests),
                ("blocked_responses", ss.blocked_responses),
            ))
            ss.req.flush()
            ss.resp.flush()
            request_tables.append(ss.req)
        _merge(st.seg.stats, (
            ("submitted", st.submitted),
            ("granted", st.granted),
            ("completed", st.completed),
            ("decode_errors", st.decode_errors),
        ))
        per_master = st.seg.monitor.per_master
        for master, count in st.mon_master.items():
            per_master[master] = per_master.get(master, 0) + count
        per_slave = st.seg.monitor.per_slave
        for slave, count in st.mon_slave.items():
            per_slave[slave] = per_slave.get(slave, 0) + count
        granted_ok += st.granted - st.decode_errors
    for bs in bridgestates.values():
        _merge(bs.bridge.stats, (
            ("ingress_a", bs.ingress_a),
            ("ingress_b", bs.ingress_b),
            ("blocked_requests", bs.blocked_requests),
            ("blocked_responses", bs.blocked_responses),
            ("posted_writes", bs.posted_writes),
            ("posted_stalls", bs.posted_stalls),
            ("ordered_behind_posted", bs.ordered_behind_posted),
            ("forwarded", bs.forwarded),
            ("posted_completed", bs.posted_completed),
            ("posted_write_failures", bs.posted_write_failures),
        ))
        bs.req.flush()
        bs.resp.flush()
        request_tables.append(bs.req)
    _settle_event_counts(sim, pstates, request_tables, granted_ok)

    return final_time, n_events


_NO_ROUTE = object()

# Terminal statuses other than COMPLETED, as a tuple: a membership test is
# several times cheaper than the ``is_terminal`` property on the hot path.
_FAILED = tuple(
    s for s in TransactionStatus
    if s.is_terminal and s is not TransactionStatus.COMPLETED
)


def _settle_event_counts(sim, pstates, request_tables, granted_ok) -> None:
    """Settle the per-transaction event counts of one drained workload.

    Called after every table flushed: replayed chain calls never ran the real
    firewall code, so their ``firewall.decision`` emissions (one per
    LocalFirewall per allowed request — denies always take real calls) are
    counted here in bulk; real calls emitted their own live.  Likewise the
    ``txn.*``/``bus.granted`` counts the mirrored loop deferred, and the one
    ``sim.run`` the object path's kernel drain would have published.
    """
    event_bus = sim.event_bus
    if event_bus is None:
        return
    count_n = event_bus.count_n
    count_n("txn.issued", sum(ps.issued for ps in pstates.values()))
    count_n("txn.completed", sum(ps.p_completed for ps in pstates.values()))
    count_n("txn.blocked", sum(ps.p_terminated for ps in pstates.values()))
    count_n("bus.granted", granted_ok)
    count_n(
        "firewall.decision",
        sum(t.replayed * len(t.handles) for t in request_tables),
    )
    if event_bus.active:
        count_n("sim.run", 1)


def _merge(stats: dict, items: Tuple[Tuple[str, int], ...]) -> None:
    for key, value in items:
        if value:
            stats[key] = stats.get(key, 0) + value


# Bound late to keep module import order simple.
from repro.soc import transaction as _transaction_mod  # noqa: E402

_READ = _transaction_mod.BusOperation.READ


def _next_txn_id() -> int:
    return next(_transaction_mod._txn_ids)
