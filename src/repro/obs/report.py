"""Run telemetry: structured per-run reports and deterministic aggregation.

A :class:`RunReport` captures what one simulation (or generation) run did:
wall time, simulated cycles, kernel events, peak event-queue depth, and
per-segment / per-PE / per-FIFO breakdowns including utilization and
arbitration-wait percentiles.  Experiment case workers record one report
per case (:func:`record_run`); the parallel runner drains the process-local
recorder after each case (:func:`drain_recorded`) so reports ride back to
the parent attached to the case telemetry, in deterministic input order.

:func:`aggregate_run_reports` folds a list of report dicts into one
summary: integer counters sum exactly, peaks take the max, per-segment
rows merge keyed by name -- the same result regardless of ``--jobs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "RunReport",
    "build_run_report",
    "aggregate_run_reports",
    "record_run",
    "drain_recorded",
]


@dataclass
class RunReport:
    """Telemetry for one run.  All cycle fields are bus-clock cycles."""

    name: str = ""
    wall_seconds: float = 0.0
    simulated_cycles: int = 0
    events_processed: int = 0
    peak_queue_depth: int = 0
    segments: List[Dict[str, Any]] = field(default_factory=list)
    pes: List[Dict[str, Any]] = field(default_factory=list)
    fifos: List[Dict[str, Any]] = field(default_factory=list)
    bridges: List[Dict[str, Any]] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "simulated_cycles": self.simulated_cycles,
            "events_processed": self.events_processed,
            "events_per_second": self.events_per_second(),
            "peak_queue_depth": self.peak_queue_depth,
            "segments": self.segments,
            "pes": self.pes,
            "fifos": self.fifos,
            "bridges": self.bridges,
            "extras": self.extras,
        }

    def to_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def summary_lines(self) -> List[str]:
        """Human-oriented digest (used by ``repro trace`` / ``repro stats``)."""
        lines = [
            "%s: %d cycles, %d events (%.0f events/sec), peak queue depth %d"
            % (
                self.name or "run",
                self.simulated_cycles,
                self.events_processed,
                self.events_per_second(),
                self.peak_queue_depth,
            )
        ]
        for segment in self.segments:
            lines.append(
                "  %-20s util %5.1f%%  %6d txns  busy %8d  arb-wait mean %6.1f"
                % (
                    segment["name"],
                    100.0 * segment["utilization"],
                    segment["transactions"],
                    segment["busy_cycles"],
                    segment["mean_arbitration_wait"],
                )
            )
        return lines


def _segment_entry(segment, elapsed_cycles: int, detail) -> Dict[str, Any]:
    stats = segment.stats
    held = stats.held_cycles
    entry: Dict[str, Any] = {
        "name": segment.name,
        "transactions": stats.transactions,
        "reads": stats.read_transactions,
        "writes": stats.write_transactions,
        "words_moved": stats.words_moved,
        "busy_cycles": stats.busy_cycles,
        "arbitration_cycles": stats.arbitration_cycles,
        "memory_cycles": stats.memory_cycles,
        "held_cycles": held,
        "elapsed_cycles": elapsed_cycles,
        "utilization": stats.utilization(elapsed_cycles),
        "mean_arbitration_wait": stats.mean_arbitration_wait(),
        "peak_pending_requests": segment.arbiter.peak_pending,
        "arbiter_grants": segment.arbiter.grants,
        "attached_interfaces": segment.attached_interfaces,
    }
    if detail is not None:
        histogram, occupancy = detail
        entry["arb_wait_p50"] = histogram.percentile(50)
        entry["arb_wait_p90"] = histogram.percentile(90)
        entry["arb_wait_p99"] = histogram.percentile(99)
        entry["occupancy_peak_fraction"] = occupancy.peak()
    return entry


def build_run_report(
    machine, wall_seconds: float = 0.0, name: Optional[str] = None
) -> RunReport:
    """Snapshot a machine (post-run) into a :class:`RunReport`.

    Works on any machine -- observability attached or not; the percentile
    and occupancy fields appear only for the segments that the machine's
    :class:`~repro.obs.Observability` watches.
    """
    sim = machine.sim
    elapsed = sim.now
    report = RunReport(
        name=name or machine.name,
        wall_seconds=wall_seconds,
        simulated_cycles=elapsed,
        events_processed=sim.events_processed,
        peak_queue_depth=getattr(sim, "peak_queue_depth", 0),
    )
    obs = machine.obs
    segment_detail = obs.segment_detail if obs is not None else {}
    for segment_name in sorted(machine.segments):
        report.segments.append(
            _segment_entry(
                machine.segments[segment_name],
                elapsed,
                segment_detail.get(segment_name),
            )
        )
    for pe_name in sorted(machine.pes):
        report.pes.append(machine.pes[pe_name].stats.as_dict())
    for ban in sorted(machine.fifo_blocks):
        block = machine.fifo_blocks[ban]
        for fifo in (block.up, block.down):
            report.fifos.append(
                {
                    "name": fifo.name,
                    "pushes": fifo.pushes,
                    "pops": fifo.pops,
                    "peak_fill": fifo.peak_fill,
                    "depth_words": fifo.depth_words,
                    "interrupts_raised": fifo.interrupts_raised,
                }
            )
    for bridge in machine.bridges:
        report.bridges.append(
            {
                "name": bridge.name,
                "crossings": bridge.crossings,
                "hop_cycles": bridge.hop_cycles,
                "enabled": bridge.enabled,
            }
        )
    faults = getattr(machine, "_faults", None)
    if faults is not None:
        report.extras["resilience"] = faults.resilience_report().as_dict()
    return report


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

_SEGMENT_SUM_KEYS = (
    "transactions",
    "reads",
    "writes",
    "words_moved",
    "busy_cycles",
    "arbitration_cycles",
    "memory_cycles",
    "held_cycles",
    "elapsed_cycles",
)


def aggregate_run_reports(reports: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold report dicts into one summary, independent of worker layout.

    Counters sum (exact integer arithmetic), peaks take the max, and
    per-segment rows merge keyed by segment name with utilization
    recomputed as total held cycles over total elapsed cycles.  The
    output depends only on the report *sequence*, which the runner keeps
    in case order for any ``jobs`` value.
    """
    segments: Dict[str, Dict[str, Any]] = {}
    aggregate: Dict[str, Any] = {
        "runs": len(reports),
        "wall_seconds": 0.0,
        "simulated_cycles": 0,
        "events_processed": 0,
        "peak_queue_depth": 0,
    }
    for report in reports:
        aggregate["wall_seconds"] += report.get("wall_seconds", 0.0)
        aggregate["simulated_cycles"] += report.get("simulated_cycles", 0)
        aggregate["events_processed"] += report.get("events_processed", 0)
        aggregate["peak_queue_depth"] = max(
            aggregate["peak_queue_depth"], report.get("peak_queue_depth", 0)
        )
        for row in report.get("segments", ()):
            merged = segments.setdefault(
                row["name"],
                {"name": row["name"], "peak_pending_requests": 0},
            )
            for key in _SEGMENT_SUM_KEYS:
                merged[key] = merged.get(key, 0) + row.get(key, 0)
            merged["peak_pending_requests"] = max(
                merged["peak_pending_requests"], row.get("peak_pending_requests", 0)
            )
    for merged in segments.values():
        elapsed = merged.get("elapsed_cycles", 0)
        merged["utilization"] = (
            merged.get("held_cycles", 0) / elapsed if elapsed > 0 else 0.0
        )
        transactions = merged.get("transactions", 0)
        merged["mean_arbitration_wait"] = (
            merged.get("arbitration_cycles", 0) / transactions if transactions else 0.0
        )
    aggregate["segments"] = [segments[name] for name in sorted(segments)]
    total_elapsed = sum(row["elapsed_cycles"] for row in aggregate["segments"])
    total_held = sum(row["held_cycles"] for row in aggregate["segments"])
    aggregate["overall_utilization"] = (
        total_held / total_elapsed if total_elapsed > 0 else 0.0
    )
    return aggregate


# ----------------------------------------------------------------------
# Process-local run recorder (threaded through the parallel runner)
# ----------------------------------------------------------------------

_RECORDED: List[Dict[str, Any]] = []


def record_run(report) -> None:
    """Record a report (``RunReport`` or dict) for the current process.

    Case workers call this after a run; :func:`drain_recorded` (called by
    ``repro.experiments.runner._invoke`` around each case) moves the
    reports onto the case's telemetry, including inside pool workers.
    """
    _RECORDED.append(report.as_dict() if isinstance(report, RunReport) else dict(report))


def drain_recorded() -> List[Dict[str, Any]]:
    """Return and clear all reports recorded in this process."""
    drained = list(_RECORDED)
    del _RECORDED[:]
    return drained
