"""Named scenario registry.

Each entry is a zero-argument factory returning a fresh
:class:`~repro.scenarios.spec.ScenarioSpec`, so callers can never mutate the
registry's copy.  The stock scenarios sweep the axes the paper's claim spans:
topology size (1x1 up to many-master contention), protection density
(sparse/dense external windows), workload mix (crypto-heavy, attack-heavy),
runtime reconfiguration, and the centralized-enforcement baseline.

Register additional scenarios with :func:`register_scenario`::

    @register_scenario
    def my_scenario() -> ScenarioSpec:
        return ScenarioSpec(name="my_scenario", ...)
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.scenarios.spec import (
    AttackSpec,
    BridgeSpec,
    MasterSpec,
    ReconfigSpec,
    ScenarioSpec,
    SegmentSpec,
    SlaveSpec,
    TopologySpec,
    WindowSpec,
    WorkloadSpec,
)

__all__ = [
    "register_scenario",
    "get_scenario",
    "get_scenario_factory",
    "list_scenarios",
    "iter_scenarios",
]


_REGISTRY: Dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(factory: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
    """Register a scenario factory under the name of the spec it builds."""
    spec = factory()
    spec.validate()
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    from repro.staticcheck.gate import enforce

    enforce(spec, where=f"register_scenario({spec.name!r})")
    _REGISTRY[spec.name] = factory
    return factory


def get_scenario(name: str) -> ScenarioSpec:
    """A fresh spec for the named scenario."""
    try:
        factory = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"no scenario named {name!r}; registered: {sorted(_REGISTRY)}"
        ) from exc
    return factory()


def get_scenario_factory(name: str) -> Callable[[], ScenarioSpec]:
    """The registered factory itself (its docstring feeds the catalog)."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"no scenario named {name!r}; registered: {sorted(_REGISTRY)}"
        ) from exc


def list_scenarios() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def iter_scenarios():
    """Yield a fresh spec per registered scenario."""
    for name in _REGISTRY:
        yield get_scenario(name)


# ---------------------------------------------------------------------------
# Stock topology fragments
# ---------------------------------------------------------------------------

_BRAM_BASE = 0x0000_0000
_IP_BASE = 0x4000_0000
_DDR_BASE = 0x9000_0000


def _paper_topology(n_cpus: int = 3, with_dma: bool = True, ddr_size: int = 64 * 1024,
                    ddr_windows=(WindowSpec("secure", 2048), WindowSpec("cipher_only", 2048)),
                    ip_masters=("cpu0", "cpu1")) -> TopologySpec:
    """The Figure-1 shape: CPUs + DMA, BRAM + dedicated IP + external DDR."""
    masters = []
    for index in range(n_cpus):
        name = f"cpu{index}"
        accessible = ("bram", "ddr", "ip0") if name in ip_masters else ("bram", "ddr")
        masters.append(MasterSpec(name, accessible=accessible))
    if with_dma:
        masters.append(MasterSpec("dma", kind="dma", accessible=("bram", "ddr")))
    slaves = (
        SlaveSpec("bram", "bram", base=_BRAM_BASE, size=32 * 1024),
        SlaveSpec("ip0", "ip", base=_IP_BASE, n_registers=64),
        SlaveSpec("ddr", "ddr", base=_DDR_BASE, size=ddr_size, windows=tuple(ddr_windows)),
    )
    return TopologySpec(masters=tuple(masters), slaves=slaves)


_CLASSIC_ATTACKS = (
    AttackSpec("spoofing"),
    AttackSpec("replay"),
    AttackSpec("relocation"),
    AttackSpec("sensitive_register_probe"),
    AttackSpec("hijacked_ip_write"),
    AttackSpec("exfiltration"),
    AttackSpec("dos_flood", {"n_requests": 60}),
)


# ---------------------------------------------------------------------------
# Stock scenarios
# ---------------------------------------------------------------------------


@register_scenario
def minimal_1x1() -> ScenarioSpec:
    """Smallest protectable system: one CPU, one BRAM, one LF pair."""
    return ScenarioSpec(
        name="minimal_1x1",
        description="1 CPU x 1 BRAM: the smallest distributed-firewall deployment",
        topology=TopologySpec(
            masters=(MasterSpec("cpu0", accessible=("bram",)),),
            slaves=(SlaveSpec("bram", "bram", base=_BRAM_BASE, size=8 * 1024),),
        ),
        workload=WorkloadSpec(n_operations=100, external_share=0.0,
                              ip_share_of_internal=0.0, seed=11),
        attacks=(AttackSpec("dos_flood", {"hijacked_master": "cpu0", "n_requests": 60}),),
        flood_threshold=20,
    )


@register_scenario
def paper_baseline() -> ScenarioSpec:
    """The evaluation platform of the paper (Figure 1) as a scenario."""
    return ScenarioSpec(
        name="paper_baseline",
        description="3 MicroBlaze + DMA, BRAM + dedicated IP + DDR (Figure 1)",
        topology=_paper_topology(),
        workload=WorkloadSpec(n_operations=120, seed=21),
        attacks=_CLASSIC_ATTACKS,
        flood_threshold=20,
    )


@register_scenario
def many_master_contention() -> ScenarioSpec:
    """Six CPUs hammering two BRAM banks plus a DDR through one shared bus."""
    masters = tuple(
        MasterSpec(f"cpu{i}", accessible=("bram", "bram1", "ddr")) for i in range(6)
    )
    return ScenarioSpec(
        name="many_master_contention",
        description="6 CPUs, 2 BRAM banks, 1 DDR: arbitration + firewall latency under load",
        topology=TopologySpec(
            masters=masters,
            slaves=(
                SlaveSpec("bram", "bram", base=_BRAM_BASE, size=16 * 1024),
                SlaveSpec("bram1", "bram", base=0x0001_0000, size=16 * 1024),
                SlaveSpec("ddr", "ddr", base=_DDR_BASE, size=32 * 1024,
                          windows=(WindowSpec("secure", 1024),)),
            ),
        ),
        workload=WorkloadSpec(n_operations=90, communication_ratio=0.9,
                              compute_burst_cycles=5, external_share=0.2,
                              ip_share_of_internal=0.0, seed=31),
        attacks=(AttackSpec("dos_flood", {"hijacked_master": "cpu5", "n_requests": 80}),),
        flood_threshold=20,
    )


@register_scenario
def sparse_protection() -> ScenarioSpec:
    """A large DDR with one tiny secure window; everything else unprotected."""
    return ScenarioSpec(
        name="sparse_protection",
        description="128 KiB DDR with a single 512 B secure window (sparse map)",
        topology=_paper_topology(
            n_cpus=2,
            ddr_size=128 * 1024,
            ddr_windows=(WindowSpec("secure", 512),),
            ip_masters=("cpu0",),
        ),
        workload=WorkloadSpec(n_operations=110, external_share=0.6,
                              external_working_set=4096, seed=41),
        attacks=(
            AttackSpec("spoofing", {"target_offset": 0x40}),
            AttackSpec("exfiltration"),
        ),
    )


@register_scenario
def dense_protection() -> ScenarioSpec:
    """Every byte of the external memory ciphered and authenticated."""
    return ScenarioSpec(
        name="dense_protection",
        description="DDR fully covered by a secure (cipher + hash tree) window",
        topology=_paper_topology(
            n_cpus=2,
            with_dma=False,
            ddr_size=8 * 1024,
            ddr_windows=(WindowSpec("secure", 8 * 1024),),
            ip_masters=("cpu0", "cpu1"),
        ),
        workload=WorkloadSpec(n_operations=80, external_share=0.5,
                              external_working_set=2048, seed=51),
        attacks=(
            AttackSpec("spoofing"),
            AttackSpec("replay"),
            AttackSpec("relocation"),
        ),
    )


@register_scenario
def reconfiguration_under_load() -> ScenarioSpec:
    """Policies are rewritten while traffic is in flight.

    cpu1's BRAM rule flips to read-only at cycle 600 and cpu0's DDR rule is
    removed at cycle 900, so the tail of the workload must be judged by the
    *new* rules — the engine differential proves the vector engine's replay
    tables invalidate at the same cycle as the object path.
    """
    return ScenarioSpec(
        name="reconfiguration_under_load",
        description="mid-run policy swap + rule removal under live traffic",
        topology=_paper_topology(n_cpus=2, with_dma=False,
                                 ddr_size=16 * 1024, ip_masters=("cpu0",)),
        workload=WorkloadSpec(n_operations=120, write_fraction=0.7,
                              compute_burst_cycles=10, seed=61),
        reconfigs=(
            ReconfigSpec(at_cycle=600, firewall="lf_cpu1", rule_base=_BRAM_BASE,
                         action="make_readonly"),
            ReconfigSpec(at_cycle=900, firewall="lf_cpu0", rule_base=_DDR_BASE,
                         action="remove_rule"),
        ),
        attacks=(AttackSpec("hijacked_ip_write", {"hijacked_master": "cpu1"}),),
    )


@register_scenario
def attack_heavy() -> ScenarioSpec:
    """Every attack vector, several twice with different parameters."""
    return ScenarioSpec(
        name="attack_heavy",
        description="9-attack battery across every vector of the threat model",
        topology=_paper_topology(),
        workload=WorkloadSpec(n_operations=40, seed=71),
        attacks=_CLASSIC_ATTACKS + (
            AttackSpec("spoofing", {"target_offset": 0x200, "payload": b"MOREEVILMOREEVIL"}),
            AttackSpec("dos_flood", {"hijacked_master": "cpu0", "n_requests": 40}),
        ),
        flood_threshold=20,
        quarantine_after=3,
    )


@register_scenario
def crypto_heavy() -> ScenarioSpec:
    """Write-heavy external traffic keeping the AES and hash-tree cores hot."""
    return ScenarioSpec(
        name="crypto_heavy",
        description="external write-heavy mix over secure + cipher-only windows",
        topology=_paper_topology(
            n_cpus=2,
            with_dma=False,
            ddr_size=16 * 1024,
            ddr_windows=(WindowSpec("secure", 4096), WindowSpec("cipher_only", 4096)),
        ),
        workload=WorkloadSpec(n_operations=90, communication_ratio=0.8,
                              external_share=0.9, write_fraction=0.6,
                              external_working_set=8192, compute_burst_cycles=5,
                              seed=81),
        attacks=(
            AttackSpec("replay"),
            AttackSpec("relocation"),
        ),
    )


# ---------------------------------------------------------------------------
# Hierarchical-fabric scenarios
# ---------------------------------------------------------------------------
#
# These four exercise the multi-segment interconnect: bus segments joined by
# bridges, firewall placement at the leaves, at the bridges, or both.  They
# run through exactly the same differential harness as the flat scenarios.


@register_scenario
def two_segment_dma_isolation() -> ScenarioSpec:
    """A CPU segment bridged to a DMA/peripheral segment.

    The bridge posts writes and — under ``both`` placement — its firewall
    carries no rule for the dedicated IP (``deny``), so the DMA segment is
    structurally unable to reach the IP's registers even before the DMA's own
    leaf firewall gets a say: containment in depth across the hierarchy.
    """
    return ScenarioSpec(
        name="two_segment_dma_isolation",
        description="2 CPUs + BRAM + IP on one segment, DMA + DDR behind a posted-write bridge",
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", accessible=("bram", "ddr", "ip0"), segment="seg_cpu"),
                MasterSpec("cpu1", accessible=("bram", "ddr"), segment="seg_cpu"),
                MasterSpec("dma", kind="dma", accessible=("bram", "ddr"), segment="seg_io"),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=_BRAM_BASE, size=32 * 1024, segment="seg_cpu"),
                SlaveSpec("ip0", "ip", base=_IP_BASE, n_registers=64, segment="seg_cpu"),
                SlaveSpec("ddr", "ddr", base=_DDR_BASE, size=64 * 1024, segment="seg_io",
                          windows=(WindowSpec("secure", 2048), WindowSpec("cipher_only", 2048))),
            ),
            segments=(SegmentSpec("seg_cpu"), SegmentSpec("seg_io")),
            bridges=(BridgeSpec("br_io", "seg_cpu", "seg_io", forward_latency=2,
                                posted_writes=True, buffer_depth=4, deny=("ip0",)),),
        ),
        placement="both",
        workload=WorkloadSpec(n_operations=100, external_share=0.4, seed=91),
        attacks=(
            AttackSpec("exfiltration"),
            AttackSpec("cross_segment_probe", {"hijacked_master": "dma"}),
            AttackSpec("dos_flood", {"hijacked_master": "dma", "n_requests": 60}),
        ),
        flood_threshold=20,
    )


@register_scenario
def bridge_firewalled_centralized() -> ScenarioSpec:
    """The paper's centralized baseline rebuilt *inside* a fabric.

    No leaf firewalls at all: one bridge firewall checks every cross-segment
    access at the chokepoint between the CPU segment and the peripheral
    segment.  Format violations still die at the bridge, but the word-wide
    sensitive-register probe sails through — the per-master policies only
    leaf placement can express are exactly what centralization loses.
    """
    return ScenarioSpec(
        name="bridge_firewalled_centralized",
        description="bridge-placed firewall as the in-topology centralized baseline",
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", accessible=("bram", "ddr", "ip0"), segment="seg_cpu"),
                MasterSpec("cpu1", accessible=("bram", "ddr", "ip0"), segment="seg_cpu"),
                MasterSpec("cpu2", accessible=("bram", "ddr"), segment="seg_cpu"),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=_BRAM_BASE, size=32 * 1024, segment="seg_cpu"),
                SlaveSpec("ip0", "ip", base=_IP_BASE, n_registers=64, segment="seg_ext"),
                SlaveSpec("ddr", "ddr", base=_DDR_BASE, size=32 * 1024, segment="seg_ext",
                          windows=(WindowSpec("secure", 2048),)),
            ),
            segments=(SegmentSpec("seg_cpu"), SegmentSpec("seg_ext")),
            bridges=(BridgeSpec("br_sec", "seg_cpu", "seg_ext", forward_latency=4),),
        ),
        placement="bridge",
        workload=WorkloadSpec(n_operations=100, external_share=0.4, seed=92),
        attacks=(
            AttackSpec("hijacked_ip_write", {"hijacked_master": "cpu1"}),
            AttackSpec("sensitive_register_probe", {"hijacked_master": "cpu2"}),
            AttackSpec("cross_segment_write_storm", {"hijacked_master": "cpu2", "n_requests": 16}),
            AttackSpec("spoofing"),
        ),
    )


@register_scenario
def deep_hierarchy_3seg() -> ScenarioSpec:
    """Three segments in a chain; CPU traffic to the DDR crosses two bridges.

    Firewalls everywhere (``both``): leaf LFs at every interface plus a
    firewall on each bridge, so per-hop latency attribution can split leaf
    cycles from bridge cycles on a genuinely multi-hop path.
    """
    return ScenarioSpec(
        name="deep_hierarchy_3seg",
        description="3-segment chain (CPU / infrastructure / external), 2 bridges, both placements",
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", accessible=("bram", "bram1", "ddr", "ip0"), segment="seg0"),
                MasterSpec("cpu1", accessible=("bram", "bram1", "ddr"), segment="seg0"),
                MasterSpec("dma", kind="dma", accessible=("bram1", "ddr"), segment="seg1"),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=_BRAM_BASE, size=16 * 1024, segment="seg0"),
                SlaveSpec("bram1", "bram", base=0x0001_0000, size=16 * 1024, segment="seg1"),
                SlaveSpec("ip0", "ip", base=_IP_BASE, n_registers=64, segment="seg2"),
                SlaveSpec("ddr", "ddr", base=_DDR_BASE, size=32 * 1024, segment="seg2",
                          windows=(WindowSpec("secure", 1024), WindowSpec("cipher_only", 1024))),
            ),
            segments=(SegmentSpec("seg0"), SegmentSpec("seg1"), SegmentSpec("seg2")),
            bridges=(
                BridgeSpec("br01", "seg0", "seg1", forward_latency=2),
                BridgeSpec("br12", "seg1", "seg2", forward_latency=3, posted_writes=True),
            ),
        ),
        placement="both",
        workload=WorkloadSpec(n_operations=90, external_share=0.5,
                              external_working_set=1024, seed=93),
        attacks=(
            AttackSpec("replay"),
            AttackSpec("relocation"),
            AttackSpec("cross_segment_probe", {"hijacked_master": "dma"}),
        ),
    )


@register_scenario
def cross_segment_attack_storm() -> ScenarioSpec:
    """Attack mix hammering the bridge from both sides under live traffic.

    A malformed write storm and a DoS flood originate on the CPU segment
    while a hijacked DMA probes backwards from the peripheral segment; the
    bridge's small posted-write buffer back-pressures under the storm.
    """
    return ScenarioSpec(
        name="cross_segment_attack_storm",
        description="write storm + DoS flood + reverse probe across one congested bridge",
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", accessible=("bram", "ddr"), segment="seg_cpu"),
                MasterSpec("cpu1", accessible=("bram", "ddr"), segment="seg_cpu"),
                MasterSpec("dma", kind="dma", accessible=("ddr",), segment="seg_io"),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=_BRAM_BASE, size=16 * 1024, segment="seg_cpu"),
                SlaveSpec("ip0", "ip", base=_IP_BASE, n_registers=32, segment="seg_io"),
                SlaveSpec("ddr", "ddr", base=_DDR_BASE, size=32 * 1024, segment="seg_io",
                          windows=(WindowSpec("secure", 1024),)),
            ),
            segments=(SegmentSpec("seg_cpu"), SegmentSpec("seg_io")),
            bridges=(BridgeSpec("br_storm", "seg_cpu", "seg_io", forward_latency=2,
                                posted_writes=True, buffer_depth=2),),
        ),
        workload=WorkloadSpec(n_operations=80, external_share=0.6, write_fraction=0.7,
                              compute_burst_cycles=5, seed=94),
        attacks=(
            AttackSpec("cross_segment_write_storm", {"hijacked_master": "cpu1", "n_requests": 24}),
            AttackSpec("dos_flood", {"hijacked_master": "cpu0", "n_requests": 50}),
            AttackSpec("cross_segment_probe", {"hijacked_master": "dma"}),
        ),
        flood_threshold=20,
    )


@register_scenario
def centralized_baseline_mirror() -> ScenarioSpec:
    """The paper topology guarded by the SECA-style centralized checker.

    Same layout and workload as ``paper_baseline``, but one global Security
    Enforcement Module performs every check on the slave side of the bus —
    the comparison point for containment and contention claims.
    """
    return ScenarioSpec(
        name="centralized_baseline_mirror",
        description="Figure-1 layout with centralized (SECA-style) enforcement",
        topology=_paper_topology(),
        workload=WorkloadSpec(n_operations=120, seed=21),
        attacks=(
            AttackSpec("sensitive_register_probe"),
            AttackSpec("hijacked_ip_write"),
            AttackSpec("spoofing"),
            AttackSpec("dos_flood", {"n_requests": 60}),
        ),
        enforcement="centralized",
    )


@register_scenario
def firmware_update_bay() -> ScenarioSpec:
    """Stateful firmware/DMA devices under multi-step chain attacks.

    A maintenance CPU legitimately drives the firmware-update state machine
    and the DMA descriptor ring; a hijacked application CPU tries the same
    unlock->arm->stage->commit chain and is cut off at its own Local
    Firewall, while the maintenance CPU itself is turned against the secret
    BRAM through a rewritten DMA descriptor — latching succeeds (the ring is
    within its policy) but the programmed exfiltration read breaks at the
    last hop, pinning per-step containment attribution.
    """
    return ScenarioSpec(
        name="firmware_update_bay",
        description="firmware state machine + DMA descriptor ring vs. chained attacks",
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", accessible=("bram", "fw0", "ring0")),
                MasterSpec("cpu1", accessible=("bram",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=_BRAM_BASE, size=16 * 1024),
                SlaveSpec("secret", "bram", base=0x0001_0000, size=4 * 1024),
                SlaveSpec("fw0", "firmware", base=_IP_BASE, n_registers=16,
                          sensitive_registers=(2, 3)),
                SlaveSpec("ring0", "dma_ring", base=0x4100_0000, n_registers=20,
                          sensitive_registers=()),
            ),
        ),
        workload=WorkloadSpec(n_operations=80, seed=101),
        attacks=(
            AttackSpec("firmware_update_chain", {"hijacked_master": "cpu1", "device": "fw0"}),
            AttackSpec("descriptor_hijack_chain", {
                "hijacked_master": "cpu0", "ring": "ring0",
                "target_address": 0x0001_0000,
            }),
            AttackSpec("dos_flood", {"hijacked_master": "cpu1", "n_requests": 40}),
        ),
        flood_threshold=20,
    )


@register_scenario
def secure_boot_bay() -> ScenarioSpec:
    """Secure-boot sequencer isolated behind a bridge, rollback chain attack.

    The boot device (keys wiped, no debug backdoor) lives on its own security
    segment behind a firewalled bridge under ``both`` placement.  A hijacked
    application CPU runs the debug-unlock -> stage-rollback -> key-read
    chain; distributed placement stops it at the master's own interface
    before a single transaction crosses the bridge.
    """
    return ScenarioSpec(
        name="secure_boot_bay",
        description="bridged secure-boot sequencer vs. stage-rollback chain",
        topology=TopologySpec(
            masters=(
                MasterSpec("cpu0", accessible=("bram", "bram1", "boot0"), segment="seg_app"),
                MasterSpec("cpu1", accessible=("bram", "bram1"), segment="seg_app"),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=_BRAM_BASE, size=16 * 1024, segment="seg_app"),
                SlaveSpec("bram1", "bram", base=0x0001_0000, size=8 * 1024, segment="seg_sec"),
                SlaveSpec("boot0", "secure_boot", base=_IP_BASE, n_registers=8,
                          sensitive_registers=(4, 5, 6, 7), segment="seg_sec"),
            ),
            segments=(SegmentSpec("seg_app"), SegmentSpec("seg_sec")),
            bridges=(BridgeSpec("br_sec", "seg_app", "seg_sec", forward_latency=2),),
        ),
        placement="both",
        workload=WorkloadSpec(n_operations=80, seed=102),
        attacks=(
            AttackSpec("boot_rollback_chain", {"hijacked_master": "cpu1", "device": "boot0"}),
            AttackSpec("dos_flood", {"hijacked_master": "cpu1", "n_requests": 40}),
        ),
        flood_threshold=20,
    )
