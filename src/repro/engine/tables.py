"""Per-batch filter-chain lookup tables (the vector engine's policy pass).

The object path runs every transaction through
:func:`repro.soc.ports.apply_filter_chain` — a Python call per filter, a
policy lookup, four checking modules.  The vector engine instead *profiles*
each chain once per transaction shape and then *replays* the recorded
outcome for every later transaction of the same shape.

**Shape and live halves.**  Every security filter splits into a *shape half*,
whose effect depends only on the transaction's shape, and a *live half*,
which depends on data or time.  A table replays the shape half and always
calls the live half, at the cycle the object path would:

* a :class:`~repro.core.local_firewall.LocalFirewall` is all shape (policy
  lookup, checking modules, gating) except for its DoS heuristic, whose
  sliding window (:meth:`~repro.core.local_firewall.LocalFirewall.
  flood_window_full`) is its live half;
* a :class:`~repro.core.ciphering_firewall.LocalCipheringFirewall`'s shape
  half is its Local Firewall base; its live half is the Confidentiality and
  Integrity Cores (``_handle_protected_write``/``_handle_protected_read``),
  called with the protected region resolved once per interned shape;
* a :class:`~repro.baselines.centralized.CentralizedEnforcementInterface`'s
  shape half is the SEM's policy check
  (:meth:`~repro.baselines.centralized.CentralizedSecurityModule.check`); its
  live half is the SEM's FIFO queue (:meth:`~repro.baselines.centralized.
  CentralizedSecurityModule.enqueue`), which sets the ``sem_check`` latency.

A ciphering firewall or an SEM interface is split only as the *last* filter
of its chain (as on every registered port); anywhere else the chain is
unprofileable and takes real calls.

A :class:`repro.core.local_firewall.SecurityBuilder` with stateless
checking modules decides as a pure function of the *policy rule* covering
the address (not the address itself), the operation, the width and the
burst length — given the rule set, the quarantine flag and the
address-range windows, which are hoisted into a *guard*.  One profile
therefore covers every address a rule spans, which is what makes replay the
common case on synthetic workloads whose working sets sweep whole regions.
The profile records everything the shape half of a chain call does:

* the verdict latency,
* the latency-breakdown writes (including zero-cycle stage entries, which
  create keys),
* the annotation writes (``secpol_req_by`` via setdefault, per-firewall SPI),
* the exact statistic deltas (LFCB/SB/FI counters, alert counts,
  configuration memory lookup counts) — applied in bulk when the run drains,
  which is sound because nothing observes firewall counters mid-workload.

Profiles are keyed by rule, but *resolved* per address-shape: the first
transaction of a given ``(address, width, burst, operation)`` pays the rule
lookup and interns the resolved profile (and its live-half target) in a flat
map under a single packed integer, so every later same-shape transaction
replays after one guard check and one int-keyed probe.  A guard change
clears the interned map, so entries need no guard storage of their own.

**Real calls.**  A shape whose shape half denies, raises an alert or
transforms data always takes the real call — the real call *is* the object
path, so alert ordering and side effects are identical by construction.  So
does a request that would trip a flood heuristic (raising TRAFFIC_FLOOD at
that exact cycle), every call of a chain holding a custom or stateful filter,
and the first call of each shape under a guard, which is measured.
``real_calls_by_reason`` counts each cause.  A live half that fails (an
integrity check) raises its alert and denies at the same cycle as the object
path; the shape profile stays valid.

Guard changes (reconfiguration bumping the configuration-memory generation,
quarantine flipping, any edit of the address-range windows) invalidate the
whole table: pending counter deltas are flushed and the next transaction of
each shape takes real calls again — so the post-reconfiguration verdicts and
alerts land at the exact cycle the object path raises them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.centralized import (
    CentralizedEnforcementInterface,
    CentralizedSecurityModule,
)
from repro.core.checks import (
    AddressRangeCheck,
    BurstLengthCheck,
    DataFormatCheck,
    ReadWriteAccessCheck,
    SecurityCheck,
)
from repro.core.ciphering_firewall import LocalCipheringFirewall
from repro.core.local_firewall import LocalFirewall
from repro.soc.ports import (
    FilterAction,
    FilterResult,
    PassthroughFilter,
    TransactionFilter,
    apply_filter_chain,
)
from repro.soc.transaction import BusOperation, BusTransaction

__all__ = ["ChainTable", "REAL_CALL_REASONS"]

_WRITE = BusOperation.WRITE
_ALLOW = FilterAction.ALLOW
_DENY = FilterAction.DENY


# Profile lifecycle.
_FRESH = 0      # never called under the current guard: measure next call
_REPLAY = 1     # template recorded; replay while the guard holds
_REAL = 2       # shape denies/transforms/alerts: always take the real call

#: Why a chain call took the real (object-path) code instead of a replay.
REAL_CALL_REASONS = (
    "measure",               # first call of a shape under a guard
    "deny",                  # the shape half denies
    "alert",                 # the shape half raises an alert
    "data_transform",        # the shape half rewrites the payload
    "unprofileable_filter",  # the chain holds a custom or stateful filter
    "flood_trip",            # this request trips a DoS heuristic
)

# How the last filter of a chain splits into shape and live halves.
_SPLIT_NONE = 0
_SPLIT_LCF = 1
_SPLIT_SEM = 2

# Rule tokens for addresses no rule covers.
_DEFAULT_POLICY = -1
_POLICY_MISS = -2

_TRIVIAL = (True, 0, None)

# Checking modules whose verdict is a pure function of the policy, the
# transaction's shape and the guarded address-range windows: a chain whose
# policy owners run only these may replay a shape's recorded verdict.
_STATELESS_CHECKS = (
    ReadWriteAccessCheck,
    DataFormatCheck,
    BurstLengthCheck,
    AddressRangeCheck,
)


class _NeverQuarantined:
    """Quarantine stand-in for policy owners that cannot be quarantined."""

    quarantined = False


_NEVER_QUARANTINED = _NeverQuarantined()


def _stateless(checks: Sequence[SecurityCheck]) -> bool:
    return all(type(check) in _STATELESS_CHECKS for check in checks)


class _Handle:
    """Pre-resolved attribute handles for one policy owner in a chain: a
    LocalFirewall (including a ciphering firewall's base) or the SEM."""

    __slots__ = ("fw", "cm", "arc", "q_owner", "alert_attr", "is_lf",
                 "cb", "sb", "fi", "spi_key", "g_gen", "g_q", "g_wins")

    def __init__(self, owner) -> None:
        self.fw = owner
        self.is_lf = isinstance(owner, LocalFirewall)
        if self.is_lf:
            sb = owner.security_builder
            self.cb = owner.communication_block
            self.sb = sb
            self.fi = owner.firewall_interface
            self.cm = sb.config_memory
            self.arc = sb.address_range_check()
            self.spi_key = f"{owner.name}.spi"
            self.q_owner = owner
            self.alert_attr = "alerts_raised"
        else:  # the central SEM: never quarantined
            self.cm = owner.config_memory
            self.arc = next(
                (c for c in owner.checks if isinstance(c, AddressRangeCheck)), None
            )
            self.q_owner = _NEVER_QUARANTINED
            self.alert_attr = "violations"
        self.refresh_guard()

    def counter_cells(self) -> Tuple[Tuple[object, str], ...]:
        """Statistic cells the shape half of a call can touch."""
        if not self.is_lf:
            return ((self.cm, "lookup_count"), (self.cm, "miss_count"),
                    (self.fw, "violations"))
        return (
            (self.cb, "secpol_requests"),
            (self.sb, "evaluations"), (self.sb, "violations"),
            (self.sb, "cycles_charged"),
            (self.fi, "passed"), (self.fi, "discarded"),
            (self.fw, "alerts_raised"),
            (self.cm, "lookup_count"), (self.cm, "miss_count"),
        )

    def refresh_guard(self) -> None:
        """Re-baseline the guard state this handle's profiles assume.

        ``g_wins`` snapshots the address-range windows' contents as a list of
        ``(base, size)`` tuples.  The windows are a plain list a caller may
        extend or edit in place, so the guard compares contents, not length;
        windows held in any other form compare unequal and invalidate on
        every call, which is slow but never stale.
        """
        self.g_gen = self.cm.generation
        self.g_q = self.q_owner.quarantined
        arc = self.arc
        self.g_wins = [] if arc is None else [tuple(w) for w in arc.windows or ()]


class _Profile:
    """Recorded shape-half outcome of one (chain, transaction shape) pair."""

    __slots__ = ("phase", "reason", "reply", "bd_items", "bd_prefix",
                 "prefix_latency", "base", "ann_ops", "counter_deltas", "count")

    def __init__(self) -> None:
        self.phase = _FRESH
        # Why a _REAL shape takes real calls.
        self.reason = ""
        # Preallocated (allowed, latency, result) return value of a replay
        # with no live half.
        self.reply: Tuple[bool, int, None] = (True, 0, None)
        # Breakdown writes of a replay with no live half, and of the filters
        # before a split last filter (a live half adds its own after them).
        self.bd_items: Tuple[Tuple[str, int], ...] = ()
        self.bd_prefix: Tuple[Tuple[str, int], ...] = ()
        self.prefix_latency = 0
        # The split last filter's shape-half result, handed to its live half.
        self.base: Optional[FilterResult] = None
        self.ann_ops: Tuple[Tuple[int, str, object], ...] = ()
        self.counter_deltas: Tuple[Tuple[object, str, int], ...] = ()
        self.count = 0


def _apply_last(
    txn: BusTransaction, head_latency: int, result: FilterResult
) -> Tuple[bool, int, Optional[FilterResult]]:
    """Apply the last filter's result after ``head_latency`` cycles of
    earlier filters, as the chain does, and merge the chain's verdict."""
    bd = txn.latency_breakdown
    if result.breakdown:
        for stage, cycles in result.breakdown.items():
            bd[stage] = bd.get(stage, 0) + cycles
    else:
        stage = result.stage
        bd[stage] = bd.get(stage, 0) + result.latency
    if result.transformed_data is not None:
        txn.data = result.transformed_data
    latency = head_latency + result.latency
    if result.action is _ALLOW:
        return True, latency, None
    return False, latency, FilterResult(
        _DENY, latency=latency, stage=result.stage,
        reason=result.reason, status=result.status,
    )


class ChainTable:
    """Profile/replay front-end for one port filter chain and direction."""

    __slots__ = ("call", "filters", "direction", "prefix", "last", "split",
                 "live_handler", "handles", "keyed", "flood_fws", "sim",
                 "counter_pairs", "profiles", "shape_map",
                 "real_calls", "replayed", "live_calls", "reasons", "_guards")

    def __init__(self, filters: Sequence[TransactionFilter], direction: str) -> None:
        self.filters = list(filters)
        self.direction = direction
        self.split = _SPLIT_NONE
        self.last: Optional[TransactionFilter] = None
        self.live_handler = None
        profileable = self._classify()
        self.prefix = self.filters[:-1] if self.split else self.filters
        self.handles: List[_Handle] = [
            _Handle(f) for f in self.filters if isinstance(f, LocalFirewall)
        ] if profileable else []
        # Handles whose rule tokens key a profile and whose guards invalidate
        # it: every LocalFirewall plus the SEM of a split SEM chain.
        self.keyed: List[_Handle] = list(self.handles)
        if profileable and self.split == _SPLIT_SEM:
            self.keyed.append(_Handle(self.last.sem))  # type: ignore[union-attr]
        # Flood-armed firewalls run their live half (the sliding window) on
        # every replayed request; the heuristic only observes requests.
        self.flood_fws: List[LocalFirewall] = [
            h.fw for h in self.handles
            if direction == "request" and h.fw.flood_threshold is not None
        ]
        self.sim = self.flood_fws[0].sim if self.flood_fws else None
        # Statistic cells a chain call can touch, deduplicated (firewalls may
        # share a configuration memory).
        pairs: List[Tuple[object, str]] = []
        seen = set()
        for h in self.keyed:
            for obj, attr in h.counter_cells():
                if (id(obj), attr) not in seen:
                    seen.add((id(obj), attr))
                    pairs.append((obj, attr))
        self.counter_pairs = pairs
        self.profiles: Dict[tuple, _Profile] = {}
        # Packed (address, width, burst, op) -> (profile, live target); the
        # interned steady-state view of `profiles`, cleared on guard changes.
        self.shape_map: Dict[int, tuple] = {}
        self.real_calls = 0
        self.replayed = 0
        self.live_calls = 0
        self.reasons: Dict[str, int] = dict.fromkeys(REAL_CALL_REASONS, 0)
        self._rebuild_guards()
        # ``call`` dispatches once, at construction: the replay hot path
        # never re-tests the trivial/unprofileable chain classification.
        if not self.filters:
            self.call = self._call_trivial
        elif not profileable:
            self.call = self._call_unprofileable
        else:
            self.call = self._call_replayable

    def _classify(self) -> bool:
        """Whether the chain can be profiled; records a split last filter.

        Plain LocalFirewalls with stateless checking modules and passthrough
        filters are all shape.  A ciphering firewall or an SEM interface is
        split into shape and live halves when it is the last filter.  An SEM
        interface's response path is the default zero-cost allow, all shape.
        Anything else (thread-aware firewalls, custom filters, stateful
        checks) makes the chain unprofileable.
        """
        n = len(self.filters)
        for index, filt in enumerate(self.filters):
            kind = type(filt)
            last = index == n - 1
            if kind is PassthroughFilter:
                continue
            if kind is LocalFirewall:
                if not _stateless(filt.security_builder.checks):
                    return False
                continue
            if kind is LocalCipheringFirewall and last:
                if not _stateless(filt.security_builder.checks):
                    return False
                self.split = _SPLIT_LCF
                self.last = filt
                self.live_handler = (
                    filt._handle_protected_write if self.direction == "request"
                    else filt._handle_protected_read
                )
                continue
            if kind is CentralizedEnforcementInterface:
                if self.direction == "response":
                    continue
                sem = filt.sem
                if (
                    last
                    and type(sem) is CentralizedSecurityModule
                    and _stateless(sem.checks)
                ):
                    self.split = _SPLIT_SEM
                    self.last = filt
                    continue
            return False
        return True

    # -- guard ----------------------------------------------------------------

    def _rebuild_guards(self) -> None:
        """Flatten each handle's guard baseline into one tuple so the hot
        path's staleness test costs single attribute loads instead of
        ``h.cm.generation``-style double hops."""
        self._guards = [
            (h.cm, h.g_gen, h.q_owner, h.g_q, h.arc, h.g_wins) for h in self.keyed
        ]

    def _invalidate(self) -> None:
        """A guard changed (reconfiguration, quarantine, fencing): flush every
        profile's deferred statistics, drop the profiles and re-baseline — the
        next call of each shape takes real calls again, so any fresh verdict
        or alert lands at the object path's exact cycle."""
        self.flush()
        self.profiles.clear()
        self.shape_map.clear()
        for h in self.keyed:
            h.refresh_guard()
        self._rebuild_guards()

    def _profile_for(self, txn: BusTransaction) -> _Profile:
        """The profile of ``txn``'s shape: rule identity per policy owner plus
        the shape parameters the stateless checks read.  When any owner
        carries address-range windows (a quarantine fence), the raw address
        joins the key — the window check is the one check that reads it."""
        address = txn.address
        width = txn.width
        burst = txn.burst_length
        size = width * burst
        windowed = False
        tokens = []
        for h in self.keyed:
            # The rule's base identifies it; sentinels stand for the
            # default-policy and default-deny shapes.
            cm = h.cm
            rule = cm.rule_for(address, size)
            if rule is not None:
                tokens.append(rule.base)
            elif cm.default_policy is not None:
                tokens.append(_DEFAULT_POLICY)
            else:
                tokens.append(_POLICY_MISS)
            if h.g_wins:
                windowed = True
        key = (
            txn.operation is _WRITE,
            width,
            burst,
            address if windowed else None,
            *tokens,
        )
        prof = self.profiles.get(key)
        if prof is None:
            prof = self.profiles[key] = _Profile()
        return prof

    def _live_target(self, txn: BusTransaction):
        """What the split last filter's live half runs against for this
        address-shape: the SEM, the protected region a ciphering firewall
        (de)ciphers (writes on requests, reads on responses), or None."""
        split = self.split
        if split == _SPLIT_SEM:
            return self.last.sem  # type: ignore[union-attr]
        if split == _SPLIT_LCF and txn.is_read == (self.direction == "response"):
            return self.last.region_for(txn.address, txn.size)  # type: ignore[union-attr]
        return None

    # -- hot path --------------------------------------------------------------

    def _call_trivial(self, txn: BusTransaction) -> Tuple[bool, int, None]:
        return _TRIVIAL

    def _call_unprofileable(
        self, txn: BusTransaction
    ) -> Tuple[bool, int, FilterResult]:
        return self._real(txn, "unprofileable_filter")

    def _real(
        self, txn: BusTransaction, reason: str
    ) -> Tuple[bool, int, FilterResult]:
        self.real_calls += 1
        self.reasons[reason] += 1
        result = apply_filter_chain(self.filters, txn, self.direction)
        return result.allowed, result.latency, result

    def _call_replayable(
        self, txn: BusTransaction
    ) -> Tuple[bool, int, Optional[FilterResult]]:
        """Run ``txn`` through the chain: replay the shape half when a valid
        profile exists (and run the live half), real call otherwise.

        Returns ``(allowed, latency, result)``; ``result`` is the merged
        :class:`FilterResult` of a denial (needed for its status/reason) and
        None for an allow.
        """
        for cm, gen, q_owner, q, arc, wins in self._guards:
            if (
                cm.generation != gen
                or q_owner.quarantined != q
                or (arc is not None and arc.windows != wins)
            ):
                self._invalidate()
                break

        # width and burst_length are validated < 2**16 at batch build, so the
        # packed key is collision-free.
        ikey = (
            ((txn.address << 16 | txn.width) << 16 | txn.burst_length) << 1
            | (txn.operation is _WRITE)
        )
        entry = self.shape_map.get(ikey)
        if entry is None:
            prof = self._profile_for(txn)
            if prof.phase != _REPLAY:
                return self._profile_call(prof, txn, ikey)
            entry = self.shape_map[ikey] = (
                prof, self._live_target(txn) if self.split else None
            )
        prof, live = entry

        # Live half of the DoS heuristic.  When this request would trip it,
        # take the real call (which raises the TRAFFIC_FLOOD alert — and
        # denies, under flood_block — at this exact cycle); the profile itself
        # stays valid.
        flood_fws = self.flood_fws
        if flood_fws:
            now = self.sim._now  # type: ignore[union-attr]
            for fw in flood_fws:
                if fw.flood_window_full(now):
                    return self._real(txn, "flood_trip")
            for fw in flood_fws:
                fw._request_cycles.append(now)

        ann_ops = prof.ann_ops
        if ann_ops:
            ann = txn.annotations
            for op, k, v in ann_ops:
                if op or k not in ann:
                    ann[k] = v
        prof.count += 1
        if live is None:
            bd = txn.latency_breakdown
            for stage, delta in prof.bd_items:
                bd[stage] = bd.get(stage, 0) + delta
            return prof.reply
        return self._run_live(prof, live, txn)

    def _run_live(
        self, prof: _Profile, live, txn: BusTransaction
    ) -> Tuple[bool, int, Optional[FilterResult]]:
        """The split last filter's live half, after a replayed shape half."""
        bd = txn.latency_breakdown
        sem = self.split == _SPLIT_SEM
        if not sem and txn.data is None:
            # A read response with no data: nothing to decipher.
            for stage, delta in prof.bd_items:
                bd[stage] = bd.get(stage, 0) + delta
            return prof.reply
        for stage, delta in prof.bd_prefix:
            bd[stage] = bd.get(stage, 0) + delta
        self.live_calls += 1
        if sem:
            # The SEM interface's stage, charged the queue delay plus check.
            stage = prof.base.stage  # type: ignore[union-attr]
            latency = live.enqueue()
            bd[stage] = bd.get(stage, 0) + latency
            return True, prof.prefix_latency + latency, None
        result = self.live_handler(txn, live, prof.base)  # type: ignore[misc]
        return _apply_last(txn, prof.prefix_latency, result)

    def _profile_call(
        self, prof: _Profile, txn: BusTransaction, ikey: int
    ) -> Tuple[bool, int, Optional[FilterResult]]:
        """A real call of a shape with no replayable profile.

        A ``_REAL`` shape runs the chain as the object path does.  A
        ``_FRESH`` shape's first call under the guard is measured: its
        shape-half side effects are exactly what every later same-shape
        transaction would observe, so they are recorded.  The call runs the
        shape half, then the live half, in object-path order.
        """
        if prof.phase == _REAL:
            return self._real(txn, prof.reason)
        self.real_calls += 1
        self.reasons["measure"] += 1
        before = [getattr(obj, attr) for obj, attr in self.counter_pairs]
        ann_before = set(txn.annotations)
        bd_before = dict(txn.latency_breakdown)
        data_before = txn.data
        alerts_before = [getattr(h.fw, h.alert_attr) for h in self.keyed]

        # Shape half: the filters before a split last filter as one chain,
        # then the last filter's shape half (unapplied: a live half may
        # replace its breakdown, as the object path's merged result does).
        direction = self.direction
        head = apply_filter_chain(self.prefix, txn, direction)
        base: Optional[FilterResult] = None
        if head.allowed and self.split:
            last = self.last
            if self.split == _SPLIT_SEM:
                # The SEM interface's real call: queue (live) then check.
                base = last.filter_request(txn)  # type: ignore[union-attr]
            elif direction == "request":
                base = LocalFirewall.filter_request(last, txn)  # type: ignore[arg-type]
            else:
                base = LocalFirewall.filter_response(last, txn)  # type: ignore[arg-type]

        if not head.allowed or (base is not None and not base.allowed):
            prof.phase = _REAL
            prof.reason = "deny"
        elif [getattr(h.fw, h.alert_attr) for h in self.keyed] != alerts_before:
            prof.phase = _REAL
            prof.reason = "alert"
        elif txn.data is not data_before:
            prof.phase = _REAL
            prof.reason = "data_transform"
        else:
            self._record(prof, txn, head, base, before, bd_before, ann_before)

        if not head.allowed:
            return False, head.latency, head
        # Finish the call as the object path: the live half, if any.
        live = self._live_target(txn) if base is not None else None
        if prof.phase == _REPLAY:
            self.shape_map[ikey] = (prof, live)
        if base is None:
            return True, head.latency, None
        if base.allowed and live is not None and self.split == _SPLIT_LCF and (
            txn.data is not None
        ):
            result = self.live_handler(txn, live, base)  # type: ignore[misc]
        else:
            result = base
        return _apply_last(txn, head.latency, result)

    def _record(
        self,
        prof: _Profile,
        txn: BusTransaction,
        head: FilterResult,
        base: Optional[FilterResult],
        before: List[int],
        bd_before: Dict[str, int],
        ann_before: set,
    ) -> None:
        """Record a measured call's shape-half side effects into ``prof``."""
        pairs = self.counter_pairs
        prof.counter_deltas = tuple(
            (obj, attr, getattr(obj, attr) - b)
            for (obj, attr), b in zip(pairs, before)
            if getattr(obj, attr) != b
        )
        bd_after = txn.latency_breakdown
        prof.bd_prefix = tuple(
            (stage, cycles - bd_before.get(stage, 0))
            for stage, cycles in bd_after.items()
            if stage not in bd_before or cycles != bd_before[stage]
        )
        prof.prefix_latency = head.latency
        prof.base = base
        if base is None:
            prof.bd_items = prof.bd_prefix
            latency = head.latency
        else:
            own = tuple(base.breakdown.items()) if base.breakdown else (
                (base.stage, base.latency),
            )
            prof.bd_items = prof.bd_prefix + own
            latency = head.latency + base.latency
        prof.reply = (True, latency, None)
        ops: List[Tuple[int, str, object]] = []
        if self.direction == "request":
            for h in self.handles:
                ops.append((0, "secpol_req_by", h.cb.name))
                spi = txn.annotations.get(h.spi_key)
                if spi is not None and h.spi_key not in ann_before:
                    ops.append((1, h.spi_key, spi))
        prof.ann_ops = tuple(ops)
        prof.count = 0
        prof.phase = _REPLAY

    # -- deferred statistics ----------------------------------------------------

    def flush(self) -> None:
        """Apply every profile's deferred statistics — counter deltas and the
        replay total (end of drain, and before a guard change drops them)."""
        for prof in self.profiles.values():
            count = prof.count
            if count:
                for obj, attr, delta in prof.counter_deltas:
                    setattr(obj, attr, getattr(obj, attr) + delta * count)
                self.replayed += count
                prof.count = 0
