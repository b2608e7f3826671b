"""Per-run resilience telemetry.

A :class:`ResilienceReport` snapshots one chaos run: how many faults the
plan held, how many actually fired, and how each episode ended.  The core
invariant -- checked by :meth:`ResilienceReport.check` and asserted by the
chaos harness -- is that **nothing is silent**::

    injected == recovered + residual + accounted        (unaccounted == 0)

``residual`` episodes are real data corruption (retries exhausted), but
they are *reported* corruption; a nonzero ``unaccounted`` means a fault
fired and the recovery machinery lost track of it, which is the failure
mode chaos testing exists to catch.

Reports are plain dicts underneath so they pickle across the parallel
runner and diff cleanly across scheduler backends (the heap/compiled parity
check compares entire ``outcomes`` lists, cycle numbers included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["ResilienceReport", "LATENCY_BUCKETS"]

# Recovery-latency histogram bucket upper bounds (bus cycles); the final
# bucket is open-ended.
LATENCY_BUCKETS = (0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def _latency_histogram(latencies: List[int]) -> Dict[str, int]:
    counts = [0] * (len(LATENCY_BUCKETS) + 1)
    for value in latencies:
        for index, bound in enumerate(LATENCY_BUCKETS):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    histogram: Dict[str, int] = {}
    for index, bound in enumerate(LATENCY_BUCKETS):
        if counts[index]:
            histogram["<=%d" % bound] = counts[index]
    if counts[-1]:
        histogram[">%d" % LATENCY_BUCKETS[-1]] = counts[-1]
    return histogram


@dataclass
class ResilienceReport:
    """What the fault plan did to one run, and what recovery did about it."""

    name: str = ""
    scenario: str = ""
    seed: Any = None
    planned: int = 0
    injected: int = 0
    detected: int = 0
    recovered: int = 0
    residual: int = 0
    accounted: int = 0
    dormant: int = 0
    retries: int = 0
    timeouts: int = 0
    grant_redeliveries: int = 0
    watchdog_reclaims: int = 0
    recovery_latency: Dict[str, int] = field(default_factory=dict)
    outcomes: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def unaccounted(self) -> int:
        return self.injected - self.recovered - self.residual - self.accounted

    @classmethod
    def from_injector(cls, injector, name: str = "") -> "ResilienceReport":
        plan = injector.plan
        return cls(
            name=name or injector.machine.name,
            scenario=plan.scenario or "",
            seed=plan.seed,
            planned=len(plan.faults),
            injected=injector.injected,
            detected=injector.detected,
            recovered=injector.recovered,
            residual=injector.residual,
            accounted=injector.accounted,
            dormant=len(plan.faults) - len(injector._fired_keys),
            retries=injector.retries,
            timeouts=injector.timeouts,
            grant_redeliveries=injector.grant_redeliveries,
            watchdog_reclaims=injector.watchdog_reclaims,
            recovery_latency=_latency_histogram(injector.recovery_latencies),
            outcomes=[dict(episode) for episode in injector.outcomes],
        )

    def check(self) -> List[str]:
        """Invariant violations (empty list == clean)."""
        failures: List[str] = []
        if self.unaccounted != 0:
            failures.append(
                "%s: %d injected fault(s) neither recovered, residual nor "
                "accounted" % (self.name, self.unaccounted)
            )
        for episode in self.outcomes:
            if episode.get("outcome") is None:
                failures.append(
                    "%s: open episode %s@%s (fired cycle %s)"
                    % (self.name, episode["kind"], episode["site"], episode["cycle"])
                )
        return failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "seed": self.seed,
            "planned": self.planned,
            "injected": self.injected,
            "detected": self.detected,
            "recovered": self.recovered,
            "residual": self.residual,
            "accounted": self.accounted,
            "dormant": self.dormant,
            "unaccounted": self.unaccounted,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "grant_redeliveries": self.grant_redeliveries,
            "watchdog_reclaims": self.watchdog_reclaims,
            "recovery_latency": dict(self.recovery_latency),
            "outcomes": [dict(episode) for episode in self.outcomes],
        }

    def summary_line(self) -> str:
        return (
            "%-24s planned %2d  fired %2d  recovered %2d  residual %2d  "
            "accounted %2d  dormant %2d  unaccounted %d"
            % (
                self.name,
                self.planned,
                self.injected,
                self.recovered,
                self.residual,
                self.accounted,
                self.dormant,
                self.unaccounted,
            )
        )
