"""Statistics counters for buses and PEs.

Every bus segment and PE keeps a stats object so experiments can report not
just end-to-end throughput but *why* one architecture wins: arbitration wait,
bus occupancy, transaction mix.  These are the quantities behind the paper's
observations (A)-(D) under Table II.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

__all__ = ["BusStats", "PeStats", "segment_totals"]


class BusStats:
    """Aggregate counters for one bus segment.

    Every tenure adds to them when it ends, in
    :meth:`repro.sim.bus.BusSegment.end_tenure`, on every fabric path and
    backend, whether or not an observer is attached (an
    :class:`repro.obs.Observability` keeps the arbitration-wait
    distribution and occupancy over time itself).  A tenure's arbitration
    runs from its request (a bridged transfer's entry) to the cycle its
    master claims the segment.
    """

    def __init__(self, name: str):
        self.name = name
        self.transactions = 0
        self.read_transactions = 0
        self.write_transactions = 0
        self.words_moved = 0
        self.busy_cycles = 0
        self.arbitration_cycles = 0
        self.memory_cycles = 0
        self.per_master: Dict[str, int] = {}

    @property
    def held_cycles(self) -> int:
        """Cycles a master actually owned the segment (tenure only).

        ``busy_cycles`` spans request to completion and therefore counts
        overlapping arbitration *waits* from multiple queued masters more
        than once; ownership is exclusive, so tenure can never exceed
        elapsed time.  In a fault-free run it equals the arbiter's
        ``busy_cycles``, which runs from grant to release.
        """
        return self.busy_cycles - self.arbitration_cycles

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of elapsed cycles the segment was held by a master.

        Computed from :attr:`held_cycles` and deliberately *not* clamped:
        a ratio above 1.0 means double-counted tenure (a bookkeeping bug),
        and the old ``min(1.0, ...)`` silently hid exactly that.  A debug
        assertion flags it instead.
        """
        if elapsed_cycles <= 0:
            return 0.0
        ratio = self.held_cycles / elapsed_cycles
        assert ratio <= 1.0 + 1e-9, (
            "segment %s utilization %.4f > 1.0: %d held cycles in %d elapsed "
            "-- tenure double-counting bug"
            % (self.name, ratio, self.held_cycles, elapsed_cycles)
        )
        return ratio

    def mean_arbitration_wait(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.arbitration_cycles / self.transactions

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "transactions": self.transactions,
            "reads": self.read_transactions,
            "writes": self.write_transactions,
            "words_moved": self.words_moved,
            "busy_cycles": self.busy_cycles,
            "arbitration_cycles": self.arbitration_cycles,
            "memory_cycles": self.memory_cycles,
        }


def segment_totals(segments: Mapping[str, Any]) -> Dict[str, Dict[str, int]]:
    """``{segment: {"transactions", "grants", "wait_cycles"}}``, name-sorted.

    The per-segment totals that chaos, verify and the fuzz parity check
    compare across backends, read from each segment's :class:`BusStats`:
    tenures completed, the grants they retired (one per tenure, so the
    same number; the pinned fuzz fingerprints hash both) and their summed
    request->grant arbitration wait.  In a fault-free run ``grants``
    equals the segment arbiter's ``grants``; a watchdog redelivery under
    fault injection can grant again.
    """
    totals: Dict[str, Dict[str, int]] = {}
    for name in sorted(segments):
        stats = segments[name].stats
        totals[name] = {
            "transactions": stats.transactions,
            "grants": stats.transactions,
            "wait_cycles": stats.arbitration_cycles,
        }
    return totals


class PeStats:
    """Aggregate counters for one processing element."""

    def __init__(self, name: str):
        self.name = name
        self.compute_cycles = 0
        self.bus_cycles = 0
        self.stall_cycles = 0
        self.handshake_polls = 0
        self.interrupts_taken = 0
        self.words_read = 0
        self.words_written = 0
        self.icache_hits = 0
        self.icache_misses = 0
        self.dcache_hits = 0
        self.dcache_misses = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "compute_cycles": self.compute_cycles,
            "bus_cycles": self.bus_cycles,
            "stall_cycles": self.stall_cycles,
            "handshake_polls": self.handshake_polls,
            "interrupts_taken": self.interrupts_taken,
            "words_read": self.words_read,
            "words_written": self.words_written,
            "icache_hits": self.icache_hits,
            "icache_misses": self.icache_misses,
            "dcache_hits": self.dcache_hits,
            "dcache_misses": self.dcache_misses,
        }
