"""Batch representation of a workload's transaction stream.

The vector engine does not interpret :class:`~repro.soc.processor.
MemoryOperation` objects one at a time.  At setup it lowers every processor's
program into a :class:`ProcessorBatch` — parallel arrays of the fields the
hot loop needs (operation kind, address, width, burst length, payload) —
plus a *decode prepass* that resolves the address map for every unique
``(address, size)`` shape in the whole stream before the first cycle
executes.  Policy evaluation is handled the same way by
:mod:`repro.engine.tables`, keyed on the decision-cache shape of
:class:`repro.core.local_firewall.SecurityBuilder`.

Programs are validated once here (the object path validates inside
``BusTransaction.__post_init__`` on every issue); a program the object path
would reject raises :class:`BatchError`, which the engine turns into a
run-level fallback so the object path reports the identical error.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.soc.address_map import AddressMap, DecodeError
from repro.soc.processor import OperationKind, Processor
from repro.soc.transaction import BusOperation, BusTransaction

__all__ = [
    "COMPUTE",
    "READ",
    "WRITE",
    "BatchError",
    "ProcessorBatch",
    "build_batch",
    "decode_prepass",
    "fabric_route_prepass",
    "make_transaction",
]


#: Operation codes of the ``kinds`` array.
COMPUTE, READ, WRITE = 0, 1, 2

_OPERATION = {READ: BusOperation.READ, WRITE: BusOperation.WRITE}


class BatchError(ValueError):
    """A program cannot be lowered to a batch (the object path would raise
    the matching error mid-run)."""


class ProcessorBatch:
    """One processor's program as parallel arrays (struct-of-arrays layout).

    ``kinds[i]`` selects the union member: COMPUTE rows use ``computes[i]``;
    READ/WRITE rows use ``operations/addresses/widths/bursts/sizes/datas/
    thread_ids``.  ``generation`` snapshots the policy
    generation visible when the batch was built (reporting only — the engine
    re-checks generations per lookup, which is what keeps mid-stream
    reconfiguration exact).
    """

    __slots__ = (
        "master",
        "kinds",
        "operations",
        "addresses",
        "widths",
        "bursts",
        "sizes",
        "datas",
        "computes",
        "thread_ids",
        "generation",
    )

    def __init__(self, master: str) -> None:
        self.master = master
        self.kinds: List[int] = []
        self.operations: List[Optional[BusOperation]] = []
        self.addresses: List[int] = []
        self.widths: List[int] = []
        self.bursts: List[int] = []
        self.sizes: List[int] = []
        self.datas: List[Optional[bytes]] = []
        self.computes: List[int] = []
        self.thread_ids: List[Optional[int]] = []
        self.generation: int = 0

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def memory_shapes(self) -> List[Tuple[int, int]]:
        """Unique ``(address, size)`` pairs of the batch's memory accesses."""
        seen = {}
        for kind, address, size in zip(self.kinds, self.addresses, self.sizes):
            if kind != COMPUTE:
                seen[(address, size)] = None
        return list(seen)


def build_batch(processor: Processor) -> ProcessorBatch:
    """Lower one processor's program into parallel arrays.

    Raises :class:`BatchError` for any operation the object path's
    ``BusTransaction`` constructor would reject, so the engine can fall back
    and let the object path produce the identical exception.
    """
    batch = ProcessorBatch(processor.name)
    append_kind = batch.kinds.append
    for op in processor.program.operations:
        if op.kind is OperationKind.COMPUTE:
            if op.compute_cycles < 0:
                raise BatchError(f"{processor.name}: negative compute burst")
            append_kind(COMPUTE)
            batch.operations.append(None)
            batch.addresses.append(0)
            batch.widths.append(0)
            batch.bursts.append(0)
            batch.sizes.append(0)
            batch.datas.append(None)
            batch.computes.append(op.compute_cycles)
            batch.thread_ids.append(None)
            continue
        is_write = op.kind is OperationKind.WRITE
        size = op.width * op.burst_length
        if op.address < 0:
            raise BatchError(f"{processor.name}: negative address {op.address:#x}")
        if op.width not in (1, 2, 4):
            raise BatchError(f"{processor.name}: width {op.width} not in (1, 2, 4)")
        if op.burst_length < 1:
            raise BatchError(f"{processor.name}: burst_length {op.burst_length} < 1")
        if op.burst_length >= 1 << 16:
            # Keeps the chain tables' packed (address, width, burst, op)
            # shape keys collision-free.
            raise BatchError(
                f"{processor.name}: burst_length {op.burst_length} too large"
            )
        if is_write:
            if op.data is None:
                raise BatchError(f"{processor.name}: write without data")
            if len(op.data) != size:
                raise BatchError(
                    f"{processor.name}: write data length {len(op.data)} != {size}"
                )
        append_kind(WRITE if is_write else READ)
        batch.operations.append(_OPERATION[WRITE if is_write else READ])
        batch.addresses.append(op.address)
        batch.widths.append(op.width)
        batch.bursts.append(op.burst_length)
        batch.sizes.append(size)
        batch.datas.append(op.data if is_write else None)
        batch.computes.append(0)
        batch.thread_ids.append(op.thread_id)
    return batch


def decode_prepass(
    address_map: AddressMap,
    batches: List[ProcessorBatch],
) -> Dict[Tuple[int, int], Optional[str]]:
    """Vectorized address-decode pass over every batch.

    Resolves each unique ``(address, size)`` shape of the combined stream to
    its target slave name — or ``None`` when the object path would raise a
    :class:`~repro.soc.address_map.DecodeError` (the engine then mirrors the
    bus's decode-error termination, as it does for a mapped slave name with
    no connected port).  The returned table is the route lookup
    the hot loop uses instead of per-transaction map scans, so every shape
    the loop meets must come from this prepass: an unrouted shape is an
    engine error, never a live decode.
    """
    table: Dict[Tuple[int, int], Optional[str]] = {}
    decode = address_map.decode
    for batch in batches:
        for shape in batch.memory_shapes:
            if shape in table:
                continue
            try:
                region = decode(shape[0], shape[1])
            except DecodeError:
                table[shape] = None
            else:
                table[shape] = region.slave
    return table


def fabric_route_prepass(
    fabric,
    streams: Dict[str, set],
) -> Dict[str, Dict[Tuple[int, int], Optional[str]]]:
    """Resolve every unique shape of a fabric workload to its per-hop targets.

    ``streams`` maps each home segment name to the set of ``(address, size)``
    shapes issued there.  Each shape is first resolved through
    :meth:`~repro.soc.fabric.routing.FabricRouter.resolve_many` (one batched
    control-plane query per stream — an unroutable shape terminates with a
    decode error on its home segment, exactly as the object path would), then
    walked hop by hop through the *datapath* mechanism itself: each segment's
    own address map decodes the shape to either a local slave or the proxy
    region of the next-hop bridge.  Walking the maps rather than trusting
    ``Route.bridges`` keeps the prepass exact even when BFS tie-breaking and
    per-segment proxy installation could disagree on equal-length paths.

    Returns ``{segment name: {shape: slave name}}`` where the slave name is
    that segment's decode result (``"bridge:<name>"`` for a hop, the device's
    slave name at the final segment, ``None`` for a decode error).
    """
    per_segment: Dict[str, Dict[Tuple[int, int], Optional[str]]] = {
        name: {} for name in fabric.segments
    }
    segments = fabric.segments
    bridges = fabric.bridges
    max_hops = len(segments)
    for home, shapes in streams.items():
        routes = fabric.router.resolve_many(home, sorted(shapes))
        for shape, route in routes.items():
            if route is None:
                # Globally unmapped (or unroutable): the home segment's own
                # decode fails identically — proxy regions mirror the exact
                # geometry of the regions they forward to.
                per_segment[home].setdefault(shape, None)
                continue
            seg_name = home
            for _ in range(max_hops + 1):
                seg_map = per_segment[seg_name]
                slave = seg_map.get(shape, _UNRESOLVED)
                if slave is _UNRESOLVED:
                    seg = segments[seg_name]
                    try:
                        region = seg.address_map.decode(shape[0], shape[1])
                    except DecodeError:
                        seg_map[shape] = None
                        break
                    slave = region.slave
                    if slave not in seg._slave_ports:
                        # Mapped but unconnected: the segment reports a decode
                        # error (BusSegment._try_grant's second error branch).
                        seg_map[shape] = None
                        break
                    seg_map[shape] = slave
                if slave is None or not slave.startswith("bridge:"):
                    break
                seg_name = bridges[slave[7:]].other_segment(seg_name).name
            else:  # pragma: no cover - routing is loop-free by construction
                raise BatchError(f"route walk for shape {shape} did not terminate")
    return per_segment


_UNRESOLVED = object()


def make_transaction(
    master: str,
    operation: BusOperation,
    address: int,
    width: int,
    burst_length: int,
    data: Optional[bytes],
) -> BusTransaction:
    """Construct a pre-validated :class:`BusTransaction` without re-running
    the dataclass validation (the batch already performed it)."""
    return BusTransaction.blank(
        master=master,
        operation=operation,
        address=address,
        width=width,
        burst_length=burst_length,
        data=data,
    )
