"""The Local Firewall (LF).

"Local Firewalls monitor the communications using the security parameters
[...].  For a write operation, before reaching the bus all data are checked.
If the security rules are respected the data can be sent to the bus.  For a
read operation, all data are checked before reaching the IP. [...] In case
there is a violation of one of the security rules, the data is discarded."
(paper, section IV-B1)

The LF is modelled as a :class:`repro.soc.ports.TransactionFilter` so it can
be interposed on any master or slave port.  Internally it keeps the three
blocks of the paper's Figure 1:

* :class:`CommunicationBlock` (LFCB) -- snoops the port and raises
  ``secpol_req`` for every transaction (modelled as a counter plus the entry
  point into the firewall),
* :class:`SecurityBuilder` (SB) -- fetches the Security Policy from the
  Configuration Memory and runs the checking modules; charges the 12-cycle
  latency of Table II,
* :class:`FirewallInterface` (FI) -- gates the datapath according to the alert
  signals (modelled by returning ALLOW/DENY filter results and notifying the
  :class:`~repro.core.alerts.SecurityMonitor`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.alerts import SecurityAlert, SecurityMonitor, ViolationType
from repro.core.checks import (
    AddressRangeCheck,
    CheckResult,
    SecurityCheck,
    default_check_suite,
)
from repro.core.constants import SECURITY_BUILDER_CYCLES
from repro.core.policy import ConfigurationMemory, PolicyLookupError, SecurityPolicy
from repro.soc.kernel import Simulator
from repro.soc.ports import FilterResult, TransactionFilter
from repro.soc.transaction import BusTransaction

__all__ = [
    "CommunicationBlock",
    "SecurityBuilder",
    "FirewallInterface",
    "LocalFirewall",
]


class CommunicationBlock:
    """LF Communication Block: receives/transmits bus signals and triggers the
    security-policy request (``secpol_req``)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.secpol_requests = 0

    def trigger(self, txn: BusTransaction) -> None:
        """Raise ``secpol_req`` for a transaction entering the firewall."""
        self.secpol_requests += 1
        txn.annotations.setdefault("secpol_req_by", self.name)


class SecurityBuilder:
    """Security Builder: policy fetch plus the checking modules.

    Charges :data:`~repro.core.constants.SECURITY_BUILDER_CYCLES` per
    evaluation, matching Table II.  Every evaluation is one policy lookup
    followed by every checking module, as in the hardware.
    """

    def __init__(
        self,
        name: str,
        config_memory: ConfigurationMemory,
        checks: Optional[Sequence[SecurityCheck]] = None,
        latency_cycles: int = SECURITY_BUILDER_CYCLES,
    ) -> None:
        self.name = name
        self.config_memory = config_memory
        self.checks: List[SecurityCheck] = list(checks) if checks is not None else default_check_suite()
        self.latency_cycles = latency_cycles
        self.evaluations = 0
        self.violations = 0
        self.cycles_charged = 0

    def evaluate(
        self, txn: BusTransaction, charge_latency: bool = True
    ) -> Tuple[Optional[SecurityPolicy], List[CheckResult]]:
        """Look up the policy and run every checking module.

        Returns ``(policy, results)``; ``policy`` is None on a lookup miss, in
        which case ``results`` contains a single synthetic POLICY_MISS failure.
        ``charge_latency=False`` is used for response-path re-validation, which
        the hardware overlaps with the data transfer.
        """
        if charge_latency:
            self.evaluations += 1
            self.cycles_charged += self.latency_cycles
        try:
            policy = self.config_memory.lookup(txn.address, txn.size)
        except PolicyLookupError as exc:
            self.violations += 1
            return None, [
                CheckResult.fail("policy_lookup", ViolationType.POLICY_MISS, detail=str(exc))
            ]
        results = [check.check(policy, txn) for check in self.checks]
        for result in results:
            if not result.passed:
                self.violations += 1
                break
        return policy, results

    def address_range_check(self) -> Optional[AddressRangeCheck]:
        """The address-range checking module, if instantiated.

        Nothing in the platform sets its windows after construction, but a
        caller may edit them in place at any time; every evaluation reads
        them afresh.
        """
        for check in self.checks:
            if isinstance(check, AddressRangeCheck):
                return check
        return None


class FirewallInterface:
    """Firewall Interface: the datapath gate driven by the alert signals."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.passed = 0
        self.discarded = 0

    def gate(self, allowed: bool) -> bool:
        """Record the gating decision; returns it unchanged."""
        if allowed:
            self.passed += 1
        else:
            self.discarded += 1
        return allowed


class LocalFirewall(TransactionFilter):
    """A complete Local Firewall, usable on master and slave ports.

    Parameters
    ----------
    sim:
        Simulator (for timestamping alerts).
    name:
        Firewall instance name, e.g. ``"lf_cpu0"``.
    config_memory:
        The trusted Configuration Memory holding this firewall's policy rules.
    monitor:
        The platform's :class:`SecurityMonitor`; may be None for standalone use.
    protected_ip:
        Name of the IP this firewall guards (reporting only).
    check_responses:
        Also re-validate the policy on the response path (the paper checks
        read data "before reaching the IP"); the check is overlapped with the
        data transfer in hardware, so it adds no extra latency here.
    flood_threshold / flood_window:
        Optional DoS heuristic: if more than ``flood_threshold`` requests are
        observed within ``flood_window`` cycles, a TRAFFIC_FLOOD alert is
        raised (and the excess requests are dropped when ``flood_block`` is
        True).
    """

    name = "local_firewall"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config_memory: ConfigurationMemory,
        monitor: Optional[SecurityMonitor] = None,
        protected_ip: str = "",
        checks: Optional[Sequence[SecurityCheck]] = None,
        sb_latency: int = SECURITY_BUILDER_CYCLES,
        check_responses: bool = True,
        flood_threshold: Optional[int] = None,
        flood_window: int = 100,
        flood_block: bool = True,
    ) -> None:
        self.sim = sim
        self.name = name
        self.monitor = monitor
        self.protected_ip = protected_ip or name
        self.check_responses = check_responses

        self.communication_block = CommunicationBlock(f"{name}.lfcb")
        self.security_builder = SecurityBuilder(
            f"{name}.sb", config_memory, checks=checks, latency_cycles=sb_latency
        )
        self.firewall_interface = FirewallInterface(f"{name}.fi")

        self.flood_threshold = flood_threshold
        self.flood_window = flood_window
        self.flood_block = flood_block
        self._request_cycles: Deque[int] = deque()

        self.quarantined = False
        self.alerts_raised = 0

    # -- configuration memory passthroughs -------------------------------------------

    @property
    def config_memory(self) -> ConfigurationMemory:
        return self.security_builder.config_memory

    # -- alert plumbing -----------------------------------------------------------------

    def _raise(self, txn: BusTransaction, violation: ViolationType, detail: str) -> None:
        self.alerts_raised += 1
        if self.monitor is not None:
            self.monitor.raise_alert(
                SecurityAlert.for_violation(
                    cycle=self.sim.now,
                    firewall=self.name,
                    master=txn.master,
                    violation=violation,
                    address=txn.address,
                    txn_id=txn.txn_id,
                    detail=detail,
                )
            )

    def _emit_decision(self, txn: BusTransaction, allowed: bool, reason: str = "") -> None:
        """Publish the gating verdict on the instrumentation bus, if any."""
        event_bus = self.sim.event_bus
        if event_bus is not None:
            # Hot path: counting-only buses take the payload-free lane.
            if event_bus.count_only:
                event_bus.count("firewall.decision")
            else:
                event_bus.emit(
                    "firewall.decision", self.sim.now, self.name,
                    master=txn.master, address=txn.address, write=txn.is_write,
                    allowed=allowed, reason=reason,
                )

    # -- DoS heuristic ---------------------------------------------------------------------

    def _flood_detected(self) -> bool:
        if self.flood_threshold is None:
            return False
        now = self.sim.now
        tripped = self.flood_window_full(now)
        self._request_cycles.append(now)
        return tripped

    def flood_window_full(self, now: int) -> bool:
        """Whether one more request at cycle ``now`` trips the DoS heuristic.

        The *live* half of the request check: it drops entries that fell out
        of the sliding window but does not record the request — the caller
        appends ``now`` to ``_request_cycles`` once the request is admitted
        (or, as :meth:`_flood_detected` does, unconditionally).
        """
        cycles = self._request_cycles
        cutoff = now - self.flood_window
        while cycles and cycles[0] < cutoff:
            cycles.popleft()
        assert self.flood_threshold is not None
        return len(cycles) >= self.flood_threshold

    # -- TransactionFilter interface ----------------------------------------------------------

    def filter_request(self, txn: BusTransaction) -> FilterResult:
        self.communication_block.trigger(txn)

        if self.quarantined:
            self._raise(txn, ViolationType.UNAUTHORIZED_WRITE if txn.is_write else ViolationType.UNAUTHORIZED_READ,
                        detail=f"{self.protected_ip} is quarantined")
            self.firewall_interface.gate(False)
            self._emit_decision(txn, False, reason="quarantined")
            return FilterResult.deny(
                reason=f"{self.name}: IP quarantined",
                latency=self.security_builder.latency_cycles,
                stage="security_builder",
            )

        if self._flood_detected():
            self._raise(txn, ViolationType.TRAFFIC_FLOOD,
                        detail=f"more than {self.flood_threshold} requests in {self.flood_window} cycles")
            if self.flood_block:
                self.firewall_interface.gate(False)
                self._emit_decision(txn, False, reason="traffic_flood")
                return FilterResult.deny(
                    reason=f"{self.name}: traffic flood",
                    latency=self.security_builder.latency_cycles,
                    stage="security_builder",
                )

        policy, results = self.security_builder.evaluate(txn)
        failures = [r for r in results if not r.passed]
        if failures:
            first = failures[0]
            assert first.violation is not None
            self._raise(txn, first.violation, first.detail)
            self.firewall_interface.gate(False)
            self._emit_decision(txn, False, reason=first.violation.value)
            return FilterResult.deny(
                reason=f"{self.name}: {first.violation.value} ({first.detail})",
                latency=self.security_builder.latency_cycles,
                stage="security_builder",
            )

        if policy is not None:
            txn.annotations[f"{self.name}.spi"] = policy.spi
        self.firewall_interface.gate(True)
        self._emit_decision(txn, True)
        return FilterResult.allow(
            latency=self.security_builder.latency_cycles, stage="security_builder"
        )

    def filter_response(self, txn: BusTransaction) -> FilterResult:
        if not self.check_responses or not txn.is_read:
            return FilterResult.allow(stage=self.name)
        # Response-path re-validation: the policy may have been reconfigured
        # while the transaction was in flight, and read data must be checked
        # "before reaching the IP".  The hardware overlaps this with the data
        # transfer, so no extra cycles are charged.
        policy, results = self.security_builder.evaluate(txn, charge_latency=False)
        failures = [r for r in results if not r.passed]
        if failures:
            first = failures[0]
            assert first.violation is not None
            self._raise(txn, first.violation, first.detail)
            self.firewall_interface.gate(False)
            return FilterResult.deny(
                reason=f"{self.name}: response {first.violation.value}",
                stage=self.name,
            )
        self.firewall_interface.gate(True)
        return FilterResult.allow(stage=self.name)

    # -- reporting ----------------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-firewall statistics used by reports and tests."""
        return {
            "name": self.name,
            "protected_ip": self.protected_ip,
            "secpol_requests": self.communication_block.secpol_requests,
            "evaluations": self.security_builder.evaluations,
            "violations": self.security_builder.violations,
            "sb_cycles_charged": self.security_builder.cycles_charged,
            "passed": self.firewall_interface.passed,
            "discarded": self.firewall_interface.discarded,
            "alerts": self.alerts_raised,
            "rules": len(self.config_memory),
            "quarantined": self.quarantined,
        }
