"""Fault plans: seeded, deterministic fault schedules for a machine.

A :class:`ChaosScenario` describes *how much* of each fault kind to throw
at a system; :func:`compile_plan` turns a scenario plus a seed into a
concrete :class:`FaultPlan` against one built machine -- every fault bound
to a real site (a bus segment, FIFO direction, arbiter, memory, bridge or
PE) and a deterministic trigger point.

Trigger points come in two flavours:

* **ordinal** -- "the N-th qualifying operation at this site" (the N-th
  checked transfer on a segment, the N-th push into a FIFO, the N-th
  queued grant dispatch, ...).  Ordinals are counted by the injector in
  simulation order, which both scheduler backends reproduce bit-identically
  (``tests/test_scheduler_parity.py``), so a plan injects at exactly the
  same logical point on the heap and compiled kernels.
* **cycle** -- an absolute simulation cycle (used by stuck-grant faults,
  which are injected by a scheduled timer rather than a data-path hook).

Compilation never touches the live simulation: the same ``(machine shape,
scenario, seed)`` triple always yields the same plan, and an empty plan
installs as a no-op (bit-identical run; enforced by tests/test_faults.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "ChaosScenario",
    "BusTimeoutError",
    "DEFAULT_SCENARIO",
    "SMOKE_SCENARIO",
    "HEAVY_SCENARIO",
    "SCENARIOS",
    "compile_plan",
    "empty_plan",
]


class BusTimeoutError(RuntimeError):
    """A CBI gave up on a bus grant after its bounded timeout escalation.

    Raised only when recovery (the arbiter watchdog) failed to free the
    bus within every escalated timeout window -- it converts a would-be
    simulation deadlock into a detected, attributable error.
    """


class FaultKind:
    """The fault taxonomy (see docs/robustness.md for the fault model)."""

    BUS_FLIP = "bus_flip"  # data corruption on a segment transfer
    FIFO_DROP = "fifo_drop"  # token(s) lost on a Bi-FIFO link
    FIFO_DUP = "fifo_dup"  # token duplicated on a Bi-FIFO link
    GRANT_LOST = "grant_lost"  # a dispatched grant pulse never reaches the master
    GRANT_STUCK = "grant_stuck"  # a (ghost) master seizes the arbiter and hangs
    MEM_JITTER = "mem_jitter"  # extra wait states on a memory burst
    BRIDGE_STALL = "bridge_stall"  # extra latency on a bridge crossing
    PE_CRASH = "pe_crash"  # PE crash + cold restart (caches lost)

    ALL = (
        BUS_FLIP,
        FIFO_DROP,
        FIFO_DUP,
        GRANT_LOST,
        GRANT_STUCK,
        MEM_JITTER,
        BRIDGE_STALL,
        PE_CRASH,
    )


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault: *kind* at *site*, triggering at *at*.

    ``at`` is an ordinal for data-path faults and an absolute cycle for
    :data:`FaultKind.GRANT_STUCK`.  ``param`` is kind-specific: the bit
    index for a flip, the word count for a drop, extra cycles for jitter/
    stall/restart, the hold window for a stuck grant.  ``persist`` widens
    the ordinal trigger window: a persist-``n`` fault re-fires on ``n``
    consecutive qualifying operations, so a flip that outlasts the bounded
    retry budget exercises the *residual* path deterministically.
    """

    kind: str
    site: str
    at: int
    param: int = 0
    persist: int = 1

    def key(self) -> Tuple[str, str, int]:
        return (self.kind, self.site, self.at)


@dataclass
class ChaosScenario:
    """How many faults of each kind to compile into a plan.

    ``ordinal_window`` bounds the ordinal draw: data-path faults land on
    one of the first ``ordinal_window`` qualifying operations at their
    site, so short (smoke) runs still reach them.  ``stuck_window`` is the
    absolute-cycle range for stuck-grant injection.
    """

    name: str = "default"
    bus_flips: int = 2
    fifo_drops: int = 1
    fifo_dups: int = 1
    grant_losses: int = 1
    grant_stucks: int = 1
    mem_jitters: int = 2
    bridge_stalls: int = 1
    pe_crashes: int = 1
    ordinal_window: int = 40
    stuck_window: Tuple[int, int] = (500, 4000)
    jitter_cycles: Tuple[int, int] = (4, 24)
    stall_cycles: Tuple[int, int] = (4, 16)
    restart_cycles: Tuple[int, int] = (50, 400)
    stuck_hold_cycles: Tuple[int, int] = (100, 600)
    drop_words: Tuple[int, int] = (1, 4)
    # Flip persistence draw: mostly one-shot (recovered on first retry),
    # occasionally sticky beyond the retry budget (deterministic residuals).
    flip_persist_choices: Tuple[int, ...] = (1, 1, 1, 1, 6)

    def scaled(self, factor: int) -> "ChaosScenario":
        """A scenario with every fault count multiplied by ``factor``."""
        return replace(
            self,
            name="%sx%d" % (self.name, factor),
            bus_flips=self.bus_flips * factor,
            fifo_drops=self.fifo_drops * factor,
            fifo_dups=self.fifo_dups * factor,
            grant_losses=self.grant_losses * factor,
            grant_stucks=self.grant_stucks * factor,
            mem_jitters=self.mem_jitters * factor,
            bridge_stalls=self.bridge_stalls * factor,
            pe_crashes=self.pe_crashes * factor,
        )


DEFAULT_SCENARIO = ChaosScenario()
SMOKE_SCENARIO = ChaosScenario(
    name="smoke",
    bus_flips=1,
    fifo_drops=1,
    fifo_dups=1,
    grant_losses=1,
    grant_stucks=1,
    mem_jitters=1,
    bridge_stalls=1,
    pe_crashes=1,
    ordinal_window=12,
    stuck_window=(200, 1500),
)
HEAVY_SCENARIO = ChaosScenario(
    name="heavy",
    bus_flips=6,
    fifo_drops=3,
    fifo_dups=3,
    grant_losses=3,
    grant_stucks=2,
    mem_jitters=6,
    bridge_stalls=3,
    pe_crashes=2,
    ordinal_window=120,
)

SCENARIOS: Dict[str, ChaosScenario] = {
    "default": DEFAULT_SCENARIO,
    "smoke": SMOKE_SCENARIO,
    "heavy": HEAVY_SCENARIO,
}


@dataclass
class FaultPlan:
    """A compiled, site-bound fault schedule for one machine."""

    faults: List[FaultSpec] = field(default_factory=list)
    seed: Optional[int] = None
    scenario: Optional[str] = None

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def by_kind(self) -> Dict[str, List[FaultSpec]]:
        grouped: Dict[str, List[FaultSpec]] = {}
        for spec in self.faults:
            grouped.setdefault(spec.kind, []).append(spec)
        return grouped

    def describe(self) -> List[str]:
        return [
            "%-12s %-24s at=%-6d param=%d" % (s.kind, s.site, s.at, s.param)
            for s in sorted(self.faults, key=lambda s: s.key())
        ]


def empty_plan() -> FaultPlan:
    return FaultPlan([], seed=None, scenario="empty")


def _sites(machine) -> Dict[str, List[str]]:
    """Name-sorted fault sites per category, derived from a built machine."""
    fifos: List[str] = []
    for _ban, block in sorted(machine.fifo_blocks.items()):
        fifos.extend([block.up.name, block.down.name])
    # A lost grant can only occur on the queued-dispatch path, which needs
    # contention: either several masters directly on the segment, or bridged
    # traffic arriving from a neighbour.  Single-master bridge-less segments
    # (BFBA local buses, GBAVIII local buses) never dispatch from the queue,
    # so a grant_lost planted there would be structurally dormant.
    master_count: Dict[str, int] = {name: 0 for name in machine.segments}
    for segments in machine.direct_segments.values():
        for segment in segments:
            master_count[segment.name] += 1
    for bridge in machine.bridges:
        master_count[bridge.side_a.name] += 1
        master_count[bridge.side_b.name] += 1
    contended = sorted(
        segment.arbiter.name
        for name, segment in machine.segments.items()
        if master_count[name] >= 2
    )
    return {
        "segments": sorted(machine.segments),
        "fifos": sorted(fifos),
        "arbiters": sorted(
            segment.arbiter.name for segment in machine.segments.values()
        ),
        "arbiters_contended": contended,
        "memories": sorted(
            name
            for name, device in machine.devices.items()
            if device.kind == "memory"
        ),
        "bridges": sorted(bridge.name for bridge in machine.bridges),
        "pes": sorted(machine.pes),
    }


def compile_plan(machine, scenario: ChaosScenario, seed: int) -> FaultPlan:
    """Compile ``scenario`` into a concrete plan for ``machine``.

    Deterministic: sites are drawn from name-sorted lists with a
    ``random.Random`` seeded from ``(seed, scenario.name)``.  Fault kinds
    whose site category is empty on this topology (no FIFOs on GBAVIII, no
    bridges on BFBA, ...) are skipped, so one scenario sweeps every
    architecture.  Duplicate ``(kind, site, at)`` draws collapse to one
    fault.
    """
    rng = random.Random("%s:%s" % (seed, scenario.name))
    sites = _sites(machine)
    chosen: Dict[Tuple[str, str, int], FaultSpec] = {}

    def draw(count: int, kind: str, category: str, param_of) -> None:
        pool = sites[category]
        if not pool:
            return
        for _ in range(count):
            spec = FaultSpec(
                kind=kind,
                site=rng.choice(pool),
                at=(
                    rng.randrange(*scenario.stuck_window)
                    if kind == FaultKind.GRANT_STUCK
                    else rng.randrange(scenario.ordinal_window)
                ),
                param=param_of(rng),
                persist=(
                    rng.choice(scenario.flip_persist_choices)
                    if kind == FaultKind.BUS_FLIP
                    else 1
                ),
            )
            chosen.setdefault(spec.key(), spec)

    draw(scenario.bus_flips, FaultKind.BUS_FLIP, "segments", lambda r: r.randrange(32))
    draw(
        scenario.fifo_drops,
        FaultKind.FIFO_DROP,
        "fifos",
        lambda r: r.randint(*scenario.drop_words),
    )
    draw(scenario.fifo_dups, FaultKind.FIFO_DUP, "fifos", lambda r: 1)
    draw(
        scenario.grant_losses, FaultKind.GRANT_LOST, "arbiters_contended", lambda r: 0
    )
    draw(
        scenario.grant_stucks,
        FaultKind.GRANT_STUCK,
        "arbiters",
        lambda r: r.randint(*scenario.stuck_hold_cycles),
    )
    draw(
        scenario.mem_jitters,
        FaultKind.MEM_JITTER,
        "memories",
        lambda r: r.randint(*scenario.jitter_cycles),
    )
    draw(
        scenario.bridge_stalls,
        FaultKind.BRIDGE_STALL,
        "bridges",
        lambda r: r.randint(*scenario.stall_cycles),
    )
    draw(
        scenario.pe_crashes,
        FaultKind.PE_CRASH,
        "pes",
        lambda r: r.randint(*scenario.restart_cycles),
    )

    faults = [chosen[key] for key in sorted(chosen)]
    return FaultPlan(faults, seed=seed, scenario=scenario.name)
