"""Bus segments and bus bridges.

A *Segment of Bus* (SB, definition E in the paper) is a contiguous set of
address/data/control wires with no bridges.  Masters win a segment through
its arbiter, pay a grant latency that models the request/grant protocol
(3 cycles for BusSyn-generated buses; 5 cycles for read on the
CoreConnect-style CCBA baseline -- the margin Table III attributes to the
generated buses), then stream data at one beat per cycle with
``data_width/32`` words per beat.

A *Bus Bridge* (BB, definition B) is an on-off connection point between two
segments.  When enabled, it is a pass gate, not a store-and-forward
buffer: a bridged transaction (``Machine._occupy_bridged``) wins every
segment on its route and holds them all for the whole transfer, paying
each bridge's hop latency on the way.  Segments are acquired in name-sorted
order, so two transactions crossing in opposite directions cannot each
hold what the other waits for, and crossing traffic stays deadlock-free.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, Optional, Tuple

from .arbiter import Arbiter, FCFSArbiter
from .kernel import Simulator
from .stats import BusStats

__all__ = ["BusSegment", "BusBridge"]


class BusSegment:
    """One arbitrated bus segment (an SB plus its arbiter and GBI logic)."""

    __slots__ = (
        "sim",
        "name",
        "data_width",
        "address_width",
        "arbiter",
        "grant_cycles",
        "write_grant_cycles",
        "beat_cycles",
        "attached_interfaces",
        "stats",
        "probe",
        "faults",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        data_width: int = 64,
        address_width: int = 32,
        arbiter: Optional[Arbiter] = None,
        grant_cycles: int = 3,
        write_grant_cycles: Optional[int] = None,
        beat_cycles: int = 1,
    ):
        if data_width % 32 != 0:
            raise ValueError("data_width must be a multiple of 32 bits")
        self.sim = sim
        self.name = name
        self.data_width = data_width
        self.address_width = address_width
        self.arbiter = arbiter or FCFSArbiter(sim, name + ".arb")
        self.grant_cycles = grant_cycles
        self.write_grant_cycles = (
            grant_cycles if write_grant_cycles is None else write_grant_cycles
        )
        # Cycles per data beat.  Long, heavily-loaded buses run slower due
        # to parasitic resistance/capacitance -- the argument the paper
        # borrows from Hsieh & Pedram [19] for SplitBA's short buses.  The
        # fabric builder raises this above 1 on segments with many attached
        # interfaces (see Machine "bus loading" finalization).
        self.beat_cycles = beat_cycles
        self.attached_interfaces = 0
        self.stats = BusStats(name)
        # Observer (repro.obs.Probe), set by Machine.attach_probe; None
        # keeps occupy() on the zero-cost path.
        self.probe = None
        # Fault injector (repro.faults); None keeps occupy() hook-free.
        self.faults = None

    @property
    def words_per_beat(self) -> int:
        return self.data_width // 32

    def occupy(
        self,
        master: str,
        words: int,
        write: bool,
        extra_cycles: int = 0,
        items: int = 1,
    ) -> Generator:
        """Own the segment for one burst; yields inside the process.

        The one generator that runs a one-segment tenure: FIFO pushes and
        pops, fault retransmissions and every fabric transfer that stays on
        one segment (``Machine._occupy_path``).  It claims the segment and
        charges the grant latency, once per item, the data beats and
        ``extra_cycles`` -- a slave's (memory's) burst latency, held on the
        bus as on a non-split-transaction bus -- as one kernel event.
        ``items`` is the number of cache misses a grouped refill carries:
        each re-arbitrates, so each pays a grant.  Arbitration ends at the
        cycle the master claims the segment; :meth:`end_tenure` counts the
        tenure.

        An interrupted burst ends at the interruption: it releases the
        segment and is counted like a completed one.
        """
        sim = self.sim
        start = sim.now
        faults = self.faults
        if faults is not None and self.name in faults.guarded_segments:
            # Grant pulses on this segment can be lost or stuck: acquire
            # through the injector's timeout/escalation path.
            yield from faults.acquire(self, master)
        elif not self.arbiter.try_claim(master):
            yield self.arbiter.request(master)
        acquired = sim.now
        probe = self.probe
        if probe is not None:
            probe.on_transfer_open(self, master)
        grant = self.write_grant_cycles if write else self.grant_cycles
        words_per_beat = self.data_width // 32
        try:
            yield (
                grant * items
                + (max(words, 1) + words_per_beat - 1) // words_per_beat * self.beat_cycles
                + extra_cycles
            )
        except GeneratorExit:
            raise  # closed with a discarded machine: releases and counts nothing
        except BaseException:
            self.end_tenure(master, start, acquired, words, write, extra_cycles, probe)
            raise
        self.end_tenure(master, start, acquired, words, write, extra_cycles, probe)

    def end_tenure(
        self,
        master: str,
        start: int,
        acquired: int,
        words: int,
        write: bool,
        memory_cycles: int,
        probe,
    ) -> None:
        """End ``master``'s tenure now: release the segment and count it.

        The one place a tenure ends, completed or interrupted, on every
        path: it releases the arbiter and adds to :class:`BusStats`.
        ``start`` is the cycle the master asked for the segment and
        ``acquired`` where arbitration ends; the tenure is held from there
        to release.  ``probe`` is the observer the tenure opened with (None
        when it opened unobserved); it sees the close and the tenure.
        """
        end = self.sim.now
        self.arbiter.release(master)
        if probe is not None:
            probe.on_transfer_close(self, master)
        stats = self.stats
        stats.transactions += 1
        if write:
            stats.write_transactions += 1
        else:
            stats.read_transactions += 1
        stats.words_moved += words
        stats.busy_cycles += end - start
        stats.arbitration_cycles += acquired - start
        stats.memory_cycles += memory_cycles
        per_master = stats.per_master
        per_master[master] = per_master.get(master, 0) + 1
        if probe is not None:
            probe.on_tenure(self, master, start, acquired, end, words, write, memory_cycles)


class BusBridge:
    """On-off connection between two segments (definition B).

    The bridge itself is not arbitrated; it simply charges ``hop_cycles``
    for a transaction passing from one side to the other, and refuses to
    route while disabled.  Both attached segments are still individually
    arbitrated, so a disabled bridge really does isolate traffic.
    """

    __slots__ = (
        "sim",
        "name",
        "side_a",
        "side_b",
        "hop_cycles",
        "enabled",
        "crossings",
        "probe",
        "faults",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        side_a: BusSegment,
        side_b: BusSegment,
        hop_cycles: int = 1,
        enabled: bool = True,
    ):
        self.sim = sim
        self.name = name
        self.side_a = side_a
        self.side_b = side_b
        self.hop_cycles = hop_cycles
        self.enabled = enabled
        self.crossings = 0
        # Observer (repro.obs.Probe), set by Machine.attach_probe.
        self.probe = None
        # Fault injector (repro.faults); None keeps cross() hook-free.
        self.faults = None

    def other_side(self, segment: BusSegment) -> BusSegment:
        if segment is self.side_a:
            return self.side_b
        if segment is self.side_b:
            return self.side_a
        raise ValueError(
            "segment %r is not attached to bridge %r" % (segment.name, self.name)
        )

    def connects(self, seg1: BusSegment, seg2: BusSegment) -> bool:
        return {seg1, seg2} == {self.side_a, self.side_b}

    def cross(self, master: str) -> int:
        """Count one crossing by ``master`` and return the hop's cycles.

        Raises if the bridge is disabled.  The caller holds the segments
        on both sides and charges the returned cycles with its data beats.
        """
        if not self.enabled:
            raise RuntimeError("bus bridge %r is disabled" % self.name)
        self.crossings += 1
        if self.probe is not None:
            self.probe.on_bridge_cross(self, master)
        if self.faults is not None:
            return self.hop_cycles + self.faults.bridge_delay(self.name)
        return self.hop_cycles


def find_route(
    start: BusSegment,
    goal: BusSegment,
    bridges: List[BusBridge],
) -> List[Tuple[BusSegment, Optional[BusBridge]]]:
    """Breadth-first route across enabled bridges.

    Returns ``[(segment, bridge_into_next), ..., (goal, None)]``.
    Raises ``LookupError`` when the goal is unreachable (e.g. all bridges
    on the way are disabled).
    """
    if start is goal:
        return [(start, None)]
    adjacency: Dict[BusSegment, List[Tuple[BusSegment, BusBridge]]] = {}
    for bridge in bridges:
        if not bridge.enabled:
            continue
        adjacency.setdefault(bridge.side_a, []).append((bridge.side_b, bridge))
        adjacency.setdefault(bridge.side_b, []).append((bridge.side_a, bridge))
    frontier = deque([start])
    came_from: Dict[BusSegment, Tuple[BusSegment, BusBridge]] = {}
    seen = {start}
    while frontier:
        current = frontier.popleft()
        for neighbor, bridge in adjacency.get(current, []):
            if neighbor in seen:
                continue
            seen.add(neighbor)
            came_from[neighbor] = (current, bridge)
            if neighbor is goal:
                frontier = []
                break
            frontier.append(neighbor)
    if goal not in came_from:
        raise LookupError(
            "no enabled route from segment %r to %r" % (start.name, goal.name)
        )
    # Reconstruct: list of (segment, bridge leading to the next segment).
    path: List[Tuple[BusSegment, Optional[BusBridge]]] = [(goal, None)]
    node = goal
    while node is not start:
        previous, bridge = came_from[node]
        path.insert(0, (previous, bridge))
        node = previous
    return path
