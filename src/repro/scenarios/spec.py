"""Declarative scenario specifications for arbitrary SoC topologies.

The paper argues that distributed firewalls protect *any* bus-based MPSoC
layout, not just the three-processor evaluation platform of Figure 1.  This
module makes the layout itself data: a :class:`TopologySpec` describes N
masters and M slaves with their address windows, and a :class:`ScenarioSpec`
adds the security policy map, a synthetic workload mix, an attack mix and
optional runtime reconfiguration events.  :class:`repro.scenarios.builder.
ScenarioBuilder` turns a spec into a live platform; the registry in
:mod:`repro.scenarios.registry` holds the named scenarios the differential
test harness and the benchmarks sweep over.

Everything in a spec is plain data (ints, strings, tuples), so specs are
picklable — which is what lets :class:`repro.attacks.runner.CampaignRunner`
ship the spec itself to worker processes and rebuild the exact platform in
each shard (registry names would not resolve for user-registered scenarios
under the ``spawn`` start method).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.secure import FIREWALL_PLACEMENTS
from repro.engine.spec import EngineSpec

__all__ = [
    "WindowSpec",
    "SlaveSpec",
    "MasterSpec",
    "SegmentSpec",
    "BridgeSpec",
    "WorkloadSpec",
    "AttackSpec",
    "ReconfigSpec",
    "TopologySpec",
    "ScenarioSpec",
]


#: Protection levels a DDR window can request from the ciphering firewall.
WINDOW_PROTECTIONS = ("secure", "cipher_only", "plain")

#: Device kinds a slave spec can instantiate.
SLAVE_KINDS = ("bram", "ddr", "ip", "firmware", "dma_ring", "secure_boot")

#: Slave kinds backed by a word-addressed register bank (``size`` is derived
#: from ``n_registers`` and the address map region is ``<name>_regs``).  The
#: last three are the stateful protocol devices from :mod:`repro.soc.devices`.
REGISTER_SLAVE_KINDS = ("ip", "firmware", "dma_ring", "secure_boot")

#: Master kinds a master spec can instantiate.
MASTER_KINDS = ("cpu", "dma")

#: Arbitration policies a segment spec can request.
SEGMENT_ARBITERS = ("round_robin", "fixed_priority")


@dataclass(frozen=True)
class WindowSpec:
    """One protection window inside an external (DDR) slave.

    Windows are allocated back-to-back from the slave's base address, in
    order; any remaining space is implicitly an unprotected (``plain``)
    window, mirroring the paper's observation that "many systems do not
    provide a uniform protection".
    """

    protection: str  # "secure" (cipher + hash tree), "cipher_only", or "plain"
    size: int

    def __post_init__(self) -> None:
        if self.protection not in WINDOW_PROTECTIONS:
            raise ValueError(
                f"window protection must be one of {WINDOW_PROTECTIONS}, got {self.protection!r}"
            )
        if self.size <= 0:
            raise ValueError("window size must be positive")


@dataclass(frozen=True)
class SlaveSpec:
    """One slave device on the bus.

    ``kind`` selects the device model: ``"bram"`` (on-chip BlockRAM),
    ``"ddr"`` (off-chip external memory, eligible for an LCF) or one of the
    register-bank kinds (``size`` derived from ``n_registers``): ``"ip"``
    (plain register-file IP), ``"firmware"`` (firmware-update state
    machine), ``"dma_ring"`` (DMA descriptor ring) or ``"secure_boot"``
    (secure-boot sequencer guarding a key bank).  ``firewall`` controls
    whether the security plan guards this slave (an LF for internal slaves,
    an LCF for DDR slaves).
    """

    name: str
    kind: str
    base: int
    size: int = 0
    firewall: bool = True
    #: Fabric segment this slave attaches to ("" = the default segment).
    segment: str = ""

    # bram
    latency: int = 1

    # ddr
    row_hit_latency: int = 10
    row_miss_latency: int = 30
    windows: Tuple[WindowSpec, ...] = ()

    # register-bank kinds (ip / firmware / dma_ring / secure_boot)
    n_registers: int = 64
    access_latency: int = 2
    sensitive_registers: Tuple[int, ...] = (0, 1, 2, 3)

    # secure_boot only
    boot_key_seed: int = 0xB007_0001
    debug_unlock: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SLAVE_KINDS:
            raise ValueError(f"slave kind must be one of {SLAVE_KINDS}, got {self.kind!r}")
        if self.is_register_kind:
            if self.n_registers <= 0:
                raise ValueError(f"{self.kind} slave needs at least one register")
            object.__setattr__(self, "size", 4 * self.n_registers)
        elif self.size <= 0:
            raise ValueError(f"slave {self.name}: size must be positive")
        if self.windows and self.kind != "ddr":
            raise ValueError(f"slave {self.name}: only ddr slaves take protection windows")
        if sum(w.size for w in self.windows) > self.size:
            raise ValueError(f"slave {self.name}: windows exceed the device size")

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def is_register_kind(self) -> bool:
        """Whether this slave is a word-addressed register bank."""
        return self.kind in REGISTER_SLAVE_KINDS

    @property
    def region_name(self) -> str:
        """Name of this slave's region in the platform address map."""
        return f"{self.name}_regs" if self.is_register_kind else self.name


@dataclass(frozen=True)
class MasterSpec:
    """One bus master.

    ``accessible`` lists the slave names this master's Local Firewall
    authorises (``None`` = every slave); ``readonly`` narrows some of those to
    read-only access.  A master with ``firewall=False`` gets no LF at all —
    the unguarded-injection-point case.
    """

    name: str
    kind: str = "cpu"
    accessible: Optional[Tuple[str, ...]] = None
    readonly: Tuple[str, ...] = ()
    firewall: bool = True
    #: Fabric segment this master attaches to ("" = the default segment).
    segment: str = ""

    def __post_init__(self) -> None:
        if self.kind not in MASTER_KINDS:
            raise ValueError(f"master kind must be one of {MASTER_KINDS}, got {self.kind!r}")

    def can_access(self, slave: str) -> bool:
        return self.accessible is None or slave in self.accessible


@dataclass(frozen=True)
class SegmentSpec:
    """One bus segment of a hierarchical fabric.

    A topology with no segments is the classic flat single bus; with
    segments, every master and slave names the segment it attaches to (empty
    = the first declared segment).
    """

    name: str
    arbiter: str = "round_robin"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("segment needs a name")
        if self.arbiter not in SEGMENT_ARBITERS:
            raise ValueError(
                f"segment arbiter must be one of {SEGMENT_ARBITERS}, got {self.arbiter!r}"
            )


@dataclass(frozen=True)
class BridgeSpec:
    """A bus bridge joining two segments of the fabric.

    ``deny`` lists slave names whose regions get *no* rule in this bridge's
    firewall under bridge/both placement — cross-segment accesses to them are
    default-denied at the bridge (per-bridge isolation).  ``posted_writes``
    and ``buffer_depth`` configure the bridge's write-posting buffer;
    ``forward_latency`` is the per-crossing cycle cost.
    """

    name: str
    a: str
    b: str
    forward_latency: int = 2
    posted_writes: bool = False
    buffer_depth: int = 4
    deny: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("bridge needs a name")
        if self.a == self.b:
            raise ValueError(f"bridge {self.name} must join two distinct segments")
        if self.forward_latency < 0:
            raise ValueError(f"bridge {self.name}: forward_latency must be non-negative")
        if self.buffer_depth < 1:
            raise ValueError(f"bridge {self.name}: buffer_depth must be >= 1")


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic workload mix loaded onto every CPU master.

    Mirrors :class:`repro.workloads.generators.SyntheticWorkloadConfig`; each
    CPU gets a decorrelated seed (``seed + 1000 * (index + 1)``) but identical
    ratios, and ``stagger`` offsets the processors' start cycles.
    """

    n_operations: int = 120
    communication_ratio: float = 0.5
    external_share: float = 0.3
    write_fraction: float = 0.5
    compute_burst_cycles: int = 20
    burst_length: int = 1
    width: int = 4
    internal_working_set: int = 2048
    external_working_set: int = 2048
    ip_share_of_internal: float = 0.1
    seed: int = 1
    stagger: int = 7


@dataclass
class AttackSpec:
    """One attack in a scenario's attack mix.

    ``kind`` names a class in :data:`repro.scenarios.builder.ATTACK_KINDS`
    (``spoofing``, ``replay``, ``relocation``, ``sensitive_register_probe``,
    ``hijacked_ip_write``, ``exfiltration``, ``dos_flood``, or the stateful
    chains ``firmware_update_chain``, ``descriptor_hijack_chain``,
    ``boot_rollback_chain``); ``params`` are keyword arguments forwarded to
    its constructor.
    """

    kind: str
    params: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ReconfigSpec:
    """A runtime reconfiguration applied while the workload is in flight.

    At cycle ``at_cycle`` the Security Policy Manager swaps the policy of the
    rule starting at ``rule_base`` in ``firewall`` (e.g. ``"lf_cpu1"``).
    ``action`` is ``"make_readonly"`` (clone the current policy with
    RWA=READ_ONLY) or ``"remove_rule"`` (drop the rule, reverting the range to
    default-deny).  Both paths bump the Configuration Memory's generation
    counter, which is what the vector engine's replay tables key their
    invalidation on — the reconfiguration-under-load scenario pins that.
    """

    at_cycle: int
    firewall: str
    rule_base: int
    action: str = "make_readonly"

    def __post_init__(self) -> None:
        if self.action not in ("make_readonly", "remove_rule"):
            raise ValueError(f"unknown reconfiguration action {self.action!r}")
        if self.at_cycle < 0:
            raise ValueError("at_cycle must be non-negative")


@dataclass
class TopologySpec:
    """An arbitrary bus-based SoC layout: N masters, M slaves.

    ``segments`` and ``bridges`` describe a hierarchical interconnect
    fabric; both empty means the classic flat shared bus (and every master
    and slave must then leave its ``segment`` field empty).
    """

    masters: Tuple[MasterSpec, ...]
    slaves: Tuple[SlaveSpec, ...]
    segments: Tuple[SegmentSpec, ...] = ()
    bridges: Tuple[BridgeSpec, ...] = ()

    def validate(self) -> None:
        names = (
            [m.name for m in self.masters]
            + [s.name for s in self.slaves]
            + [s.name for s in self.segments]
            + [b.name for b in self.bridges]
        )
        if len(set(names)) != len(names):
            raise ValueError("master/slave/segment/bridge names must be unique")
        if not any(m.kind == "cpu" for m in self.masters):
            raise ValueError("topology needs at least one cpu master")
        slave_names = {s.name for s in self.slaves}
        for master in self.masters:
            for referenced in tuple(master.accessible or ()) + tuple(master.readonly):
                if referenced not in slave_names:
                    raise ValueError(
                        f"master {master.name} references unknown slave {referenced!r}"
                    )
        ordered = sorted(self.slaves, key=lambda s: s.base)
        for left, right in zip(ordered, ordered[1:]):
            if left.end > right.base:
                raise ValueError(
                    f"slave regions {left.name} and {right.name} overlap"
                )
        self._validate_fabric()

    def _validate_fabric(self) -> None:
        if not self.segments:
            if self.bridges:
                raise ValueError("bridges need segments to join")
            for endpoint in tuple(self.masters) + tuple(self.slaves):
                if endpoint.segment:
                    raise ValueError(
                        f"{endpoint.name} names segment {endpoint.segment!r} "
                        "but the topology declares no segments"
                    )
            return
        segment_names = {s.name for s in self.segments}
        for endpoint in tuple(self.masters) + tuple(self.slaves):
            if endpoint.segment and endpoint.segment not in segment_names:
                raise ValueError(
                    f"{endpoint.name} references unknown segment {endpoint.segment!r}"
                )
        slave_names = {s.name for s in self.slaves}
        adjacency = {name: set() for name in segment_names}
        for bridge in self.bridges:
            for side in (bridge.a, bridge.b):
                if side not in segment_names:
                    raise ValueError(
                        f"bridge {bridge.name} references unknown segment {side!r}"
                    )
            adjacency[bridge.a].add(bridge.b)
            adjacency[bridge.b].add(bridge.a)
            for denied in bridge.deny:
                if denied not in slave_names:
                    raise ValueError(
                        f"bridge {bridge.name} denies unknown slave {denied!r}"
                    )
        # Every segment must be reachable from the first (bridges form a
        # connected graph); otherwise some region could never be routed.
        reachable = {self.segments[0].name}
        frontier = [self.segments[0].name]
        while frontier:
            for neighbour in adjacency[frontier.pop()]:
                if neighbour not in reachable:
                    reachable.add(neighbour)
                    frontier.append(neighbour)
        if reachable != segment_names:
            unreachable = sorted(segment_names - reachable)
            raise ValueError(f"segments not connected by any bridge path: {unreachable}")

    @property
    def hierarchical(self) -> bool:
        """Whether this topology declares a multi-segment fabric."""
        return bool(self.segments)

    def default_segment(self) -> Optional[str]:
        """Name of the first declared segment, or None for a flat bus."""
        return self.segments[0].name if self.segments else None

    def segment_of(self, endpoint) -> Optional[str]:
        """Resolved segment of a master/slave spec (None on a flat bus)."""
        if not self.segments:
            return None
        return endpoint.segment or self.segments[0].name

    # -- convenience lookups -------------------------------------------------------

    def cpu_masters(self) -> List[MasterSpec]:
        return [m for m in self.masters if m.kind == "cpu"]

    def slaves_of_kind(self, kind: str) -> List[SlaveSpec]:
        return [s for s in self.slaves if s.kind == kind]

    def primary(self, kind: str) -> Optional[SlaveSpec]:
        """First slave of a kind (the one legacy attacks address)."""
        for slave in self.slaves:
            if slave.kind == kind:
                return slave
        return None

    def slave(self, name: str) -> SlaveSpec:
        for slave in self.slaves:
            if slave.name == name:
                return slave
        raise KeyError(f"no slave named {name!r}")


@dataclass
class ScenarioSpec:
    """A complete, self-contained experiment description.

    A scenario bundles everything needed to build, drive and score one
    platform configuration:

    Parameters
    ----------
    name:
        Registry key; also used by ``examples/scenario_matrix.py`` and
        ``CampaignRunner.from_scenario``.
    description:
        One-line human summary shown by the matrix driver.
    topology:
        The :class:`TopologySpec` (masters, slaves, address windows).
    workload:
        Synthetic traffic loaded onto every CPU master before the run, or
        ``None`` for attack-only scenarios.
    attacks:
        Attack mix; each entry is instantiated fresh per run, and every attack
        runs against both the protected and the unprotected build.
    reconfigs:
        Runtime policy reconfigurations applied mid-workload (protected runs
        only — the unprotected platform has no firewalls to reconfigure).
    enforcement:
        ``"distributed"`` (the paper's LFs + LCF) or ``"centralized"`` (the
        SECA-style single-checker baseline from :mod:`repro.baselines`).
    placement:
        Where the distributed plan puts its Local Firewalls: ``"leaf"`` (every
        master/slave interface, the paper's layout), ``"bridge"`` (only on the
        fabric's bus bridges — the centralized baseline *inside* a
        hierarchical topology) or ``"both"``.  Bridge placement requires a
        topology with bridges.
    flood_threshold / flood_window:
        DoS heuristic installed on every master-side LF (``None`` disables).
    key_seed:
        Root seed for the per-window AES keys (deterministic, reproducible).
    quarantine_after:
        Reaction threshold forwarded to the Security Policy Manager.
    config_memory_capacity:
        Rule capacity of each trusted Configuration Memory.
    engine:
        Which execution engine drains the protected workload
        (:class:`repro.engine.EngineSpec`): ``"object"`` (the event-driven
        kernel, the default), ``"vector"`` (the batch engine, falling back to
        the object path when the platform is outside its mirrored subset) or
        ``"auto"``.  Engine choice never changes results, only wall-clock
        speed — the differential harness enforces fingerprint identity.

    Examples
    --------
    >>> from repro.scenarios import ScenarioSpec, TopologySpec, MasterSpec, SlaveSpec
    >>> spec = ScenarioSpec(
    ...     name="tiny",
    ...     description="one CPU, one BRAM",
    ...     topology=TopologySpec(
    ...         masters=(MasterSpec("cpu0"),),
    ...         slaves=(SlaveSpec("bram", "bram", base=0x0, size=4096),),
    ...     ),
    ... )
    >>> spec.validate()
    """

    name: str
    description: str
    topology: TopologySpec
    workload: Optional[WorkloadSpec] = None
    attacks: Tuple[AttackSpec, ...] = ()
    reconfigs: Tuple[ReconfigSpec, ...] = ()
    enforcement: str = "distributed"
    placement: str = "leaf"
    flood_threshold: Optional[int] = None
    flood_window: int = 100
    key_seed: int = 0x5CE2_0001
    quarantine_after: int = 1000  # effectively off unless a scenario opts in
    config_memory_capacity: int = 16
    engine: EngineSpec = field(default_factory=EngineSpec)

    def validate(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        self.engine.validate()
        if self.enforcement not in ("distributed", "centralized"):
            raise ValueError(f"unknown enforcement model {self.enforcement!r}")
        if self.placement not in FIREWALL_PLACEMENTS:
            raise ValueError(
                f"placement must be one of {FIREWALL_PLACEMENTS}, got {self.placement!r}"
            )
        self.topology.validate()
        if self.placement in ("bridge", "both") and not self.topology.bridges:
            raise ValueError(
                f"placement {self.placement!r} needs a topology with bridges"
            )
        firewall_names = {
            f"lcf_{s.name}" for s in self.topology.slaves if s.firewall and s.kind == "ddr"
        }
        if self.placement in ("leaf", "both"):
            firewall_names |= {f"lf_{m.name}" for m in self.topology.masters if m.firewall}
            firewall_names |= {
                f"lf_{s.name}"
                for s in self.topology.slaves
                if s.firewall and s.kind != "ddr"
            }
        if self.placement in ("bridge", "both"):
            firewall_names |= {f"lf_{b.name}" for b in self.topology.bridges}
        for event in self.reconfigs:
            if event.firewall not in firewall_names:
                raise ValueError(
                    f"reconfiguration targets unknown firewall {event.firewall!r}; "
                    f"known: {sorted(firewall_names)}"
                )
        if self.enforcement == "centralized":
            for kind in ("bram", "ddr", "ip"):
                if self.topology.primary(kind) is None:
                    raise ValueError(
                        "centralized enforcement mirrors the reference platform "
                        f"and needs a primary {kind} slave"
                    )
