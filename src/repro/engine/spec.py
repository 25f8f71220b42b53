"""Engine selection: which execution core drives a scenario's workload.

The simulator has two ways to execute a workload's protected transaction
stream:

* the **object** engine — the original event-at-a-time kernel loop of
  :mod:`repro.soc.kernel`, one :class:`~repro.soc.kernel.Event` per pipeline
  hop of every transaction,
* the **vector** engine (:mod:`repro.engine.vector`) — a batch execution core
  that pre-decodes each processor's program into parallel arrays, resolves
  address decode and firewall policy as memoised passes over whole batches,
  and drains matched transactions through a mirrored calendar queue in one
  pass.  It replays the shape half of every filter chain and runs each
  filter's live half (flood window, ciphering, SEM queueing) for real,
  falling back to whole real chain calls only for alerts, denials and the
  first call of each shape after a reconfiguration.

Both engines are *required* to be observationally identical: same alerts,
same cycle counts, same ciphertexts, same structural fingerprints (the
differential harness in :mod:`repro.scenarios.differential` is the contract).
``EngineSpec`` makes the choice explicit, serialisable and sweepable — it
lives on :class:`~repro.scenarios.spec.ScenarioSpec`, is threaded through the
:class:`~repro.api.experiment.Experiment` façade and the CLI, and is part of
the sweep store's cache key for non-default engines.

This module is plain data with no intra-package imports, so every layer
(scenarios, api, sweep) can use it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["ENGINE_MODES", "EngineSpec", "EngineReport"]


#: Selectable execution engines.  ``auto`` picks the vector engine whenever
#: the platform is eligible and silently uses the object engine otherwise;
#: ``vector`` does the same but records the fallback reason prominently in
#: the engine report (the result is identical either way — eligibility is a
#: performance property, never a correctness one).
ENGINE_MODES: Tuple[str, ...] = ("object", "vector", "auto")


@dataclass(frozen=True)
class EngineSpec:
    """Which execution engine a scenario's workload phase runs on."""

    mode: str = "object"

    def validate(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ValueError(
                f"engine mode must be one of {ENGINE_MODES}, got {self.mode!r}"
            )


@dataclass
class EngineReport:
    """What actually executed one workload phase.

    ``used`` is ``"vector"`` or ``"object"``; when a vector/auto request fell
    back to the object path, ``fallback_reason`` says why.  The batch counters
    quantify how much of the stream the vector engine served from its
    per-batch lookup tables (``replayed``) versus real firewall-chain calls
    (``real_calls`` — warm-up, denied, alert-raising and flood-tripping
    traffic).  ``extra`` carries engine-specific detail: vector runs record
    ``extra["real_calls_by_reason"]`` (real calls per cause, in
    :data:`repro.engine.tables.REAL_CALL_REASONS` order) and
    ``extra["live_calls"]`` (replays whose filter ran a live half:
    ciphering or SEM queueing); fabric runs also record
    ``extra["fabric"] = {"segments": n, "bridges": n}`` for the topology the
    mirrored drain covered.
    """

    requested: str
    used: str
    fallback_reason: Optional[str] = None
    events: int = 0
    batches: Tuple[Tuple[str, int], ...] = ()  # (master, operations)
    unique_shapes: int = 0
    profiles: int = 0
    replayed: int = 0
    real_calls: int = 0
    extra: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "requested": self.requested,
            "used": self.used,
            "fallback_reason": self.fallback_reason,
            "events": self.events,
            "batches": [list(entry) for entry in self.batches],
            "unique_shapes": self.unique_shapes,
            "profiles": self.profiles,
            "replayed": self.replayed,
            "real_calls": self.real_calls,
            **({"extra": dict(self.extra)} if self.extra else {}),
        }
