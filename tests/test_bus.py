"""Tests for bus segments, bridges, and routing."""

import pytest

from repro.obs import Probe
from repro.options import presets
from repro.sim.bus import BusBridge, BusSegment, find_route
from repro.sim.fabric import build_machine
from repro.sim.kernel import KERNEL_BACKENDS, Interrupt, Simulator


@pytest.fixture
def sim():
    return Simulator()


class Tenures(Probe):
    """Records each tenure as ``(master, start, acquired, end, words, memory)``."""

    def __init__(self):
        self.seen = []

    def on_tenure(self, segment, master, start, acquired, end, words, write, memory):
        self.seen.append((master, start, acquired, end, words, memory))


def observe(segment):
    """The tenures ``segment`` ends from here on."""
    probe = Tenures()
    segment.probe = probe
    return probe.seen


def occupy(sim, segment, master, words, write=False, extra=0):
    return sim.process(segment.occupy(master, words, write, extra_cycles=extra))


def cycles(segment):
    stats = segment.stats
    return stats.busy_cycles, stats.arbitration_cycles, stats.held_cycles


class TestBusSegment:
    def test_read_timing(self, sim):
        segment = BusSegment(sim, "bus", grant_cycles=3)
        tenures = observe(segment)
        occupy(sim, segment, "m0", 64)
        sim.run()
        # Claimed at once: 3 grant + 32 beats (64-bit bus = 2 words/beat),
        # all of it held.
        assert sim.now == 35
        assert tenures == [("m0", 0, 0, 35, 64, 0)]
        assert cycles(segment) == (35, 0, 35)

    def test_write_grant_override(self, sim):
        segment = BusSegment(sim, "bus", grant_cycles=5, write_grant_cycles=3)
        tenures = observe(segment)
        occupy(sim, segment, "r", 2, write=False)
        sim.run()
        occupy(sim, segment, "w", 2, write=True)
        sim.run()
        assert tenures == [("r", 0, 0, 6, 2, 0), ("w", 6, 6, 10, 2, 0)]
        stats = segment.stats
        assert (stats.read_transactions, stats.write_transactions) == (1, 1)

    def test_beat_cycles_scale_transfer(self, sim):
        segment = BusSegment(sim, "bus", beat_cycles=2)
        occupy(sim, segment, "m", 64)
        sim.run()
        assert sim.now == 3 + 64  # 32 beats x 2 cycles
        assert cycles(segment) == (67, 0, 67)

    def test_memory_latency_held_on_bus(self, sim):
        segment = BusSegment(sim, "bus")
        tenures = observe(segment)
        occupy(sim, segment, "m", 2, extra=7)
        sim.run()
        assert tenures == [("m", 0, 0, 3 + 1 + 7, 2, 7)]
        assert segment.stats.memory_cycles == 7
        assert cycles(segment) == (11, 0, 11)

    def test_items_pay_one_grant_each(self, sim):
        segment = BusSegment(sim, "bus", grant_cycles=3)
        sim.process(segment.occupy("m", 8, False, extra_cycles=4, items=4))
        sim.run()
        assert sim.now == 4 * 3 + 4 + 4
        assert cycles(segment) == (20, 0, 20)

    def test_zero_words_still_one_beat(self, sim):
        segment = BusSegment(sim, "bus")
        occupy(sim, segment, "m", 0)
        sim.run()
        assert sim.now == 3 + 1

    def test_data_width_must_be_word_multiple(self, sim):
        with pytest.raises(ValueError):
            BusSegment(sim, "bad", data_width=48)

    def test_contention_serializes(self, sim):
        segment = BusSegment(sim, "bus")
        tenures = observe(segment)
        occupy(sim, segment, "a", 64)
        occupy(sim, segment, "b", 64)
        sim.run()
        # b asks at 0 and claims the segment when a releases it.
        assert tenures == [("a", 0, 0, 35, 64, 0), ("b", 0, 35, 70, 64, 0)]
        assert segment.stats.transactions == 2
        assert cycles(segment) == (105, 35, 70)
        arbiter = segment.arbiter
        assert (arbiter.busy_cycles, arbiter.wait_cycles) == (70, 35)

    def test_closed_tenure_releases_nothing(self, sim):
        """A FIFO tenure whose generator is closed mid-burst (collected
        with a discarded machine) moves no arbiter or bus counter; the
        waiting master is not granted."""
        segment = BusSegment(sim, "bus")
        first = sim.process(segment.occupy("a", 64, write=False))
        occupy(sim, segment, "b", 64)
        sim.run(until=10)
        arbiter = segment.arbiter
        before = (arbiter.grants, arbiter.busy_cycles, arbiter.wait_cycles, arbiter.owner)
        first.generator.close()
        assert (arbiter.grants, arbiter.busy_cycles, arbiter.wait_cycles, arbiter.owner) == before
        assert before == (1, 0, 0, "a")
        assert segment.stats.transactions == 0

    @pytest.mark.parametrize("at", [10, 2])
    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    def test_interrupted_tenure_is_counted(self, kernel, at):
        """A burst interrupted mid-tenure -- in its data beats at 10, in
        its grant latency at 2 -- releases the segment and counts as one
        transaction ending at the interruption.  Its arbitration ended at
        the claim, where the arbiter counts the grant."""
        sim = Simulator(kernel=kernel)
        segment = BusSegment(sim, "bus", grant_cycles=3)
        tenures = observe(segment)

        def burst():
            with pytest.raises(Interrupt):
                yield from segment.occupy("m", 64, write=False)

        process = sim.process(burst())

        def reset():
            yield at
            process.interrupt("reset")

        sim.process(reset())
        sim.run()
        arbiter = segment.arbiter
        assert (arbiter.grants, arbiter.busy_cycles, arbiter.wait_cycles, arbiter.owner) == (
            1,
            at,
            0,
            None,
        )
        stats = segment.stats
        assert (stats.transactions, stats.busy_cycles, stats.arbitration_cycles) == (1, at, 0)
        assert stats.per_master == {"m": 1}
        assert tenures == [("m", 0, 0, at, 64, 0)]

    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    def test_fifo_push_counts_like_a_fabric_write(self, kernel):
        """A FIFO push and a fabric write of the same words on one segment
        add the same arbitration, busy and held cycles: both claim the
        segment at once and hold it through the grant latency."""
        machine = build_machine(presets.preset("BFBA", 4), kernel=kernel)
        pe = machine.pe("A")
        device, fifo = machine.fifo_for("A", "B")
        registers = machine.hsregs_for("A", "B")
        segment = machine.home_segment[pe.name]
        added = []

        def program():
            before = cycles(segment)
            yield from machine.fifo_push(pe, device, fifo, [7])
            middle = cycles(segment)
            yield from machine.reg_write(pe, registers.name, "DONE_OP", 1)
            after = cycles(segment)
            for old, new in ((before, middle), (middle, after)):
                added.append(tuple(b - a for a, b in zip(old, new)))

        pe.run(program())
        machine.sim.run()
        # busy, arbitration, held: 3 grant cycles and one beat.
        assert added == [(4, 0, 4), (4, 0, 4)]
        assert segment.stats.held_cycles == segment.arbiter.busy_cycles

    def test_stats_utilization(self, sim):
        segment = BusSegment(sim, "bus")
        occupy(sim, segment, "a", 64)
        sim.run()
        util = segment.stats.utilization(sim.now)
        assert 0.9 <= util <= 1.0

    def test_words_per_beat(self, sim):
        assert BusSegment(sim, "b32", data_width=32).words_per_beat == 1
        assert BusSegment(sim, "b64", data_width=64).words_per_beat == 2
        assert BusSegment(sim, "b128", data_width=128).words_per_beat == 4


class TestBusBridge:
    def test_cross_charges_hop(self, sim):
        a = BusSegment(sim, "a")
        b = BusSegment(sim, "b")
        bridge = BusBridge(sim, "bb", a, b, hop_cycles=4)
        assert bridge.cross("m") == 4
        assert bridge.crossings == 1

    def test_disabled_bridge_refuses(self, sim):
        a = BusSegment(sim, "a")
        b = BusSegment(sim, "b")
        bridge = BusBridge(sim, "bb", a, b, enabled=False)
        with pytest.raises(RuntimeError, match="disabled"):
            bridge.cross("m")
        assert bridge.crossings == 0

    def test_other_side(self, sim):
        a = BusSegment(sim, "a")
        b = BusSegment(sim, "b")
        bridge = BusBridge(sim, "bb", a, b)
        assert bridge.other_side(a) is b
        assert bridge.other_side(b) is a
        with pytest.raises(ValueError):
            bridge.other_side(BusSegment(sim, "c"))

    def test_connects(self, sim):
        a, b, c = (BusSegment(sim, n) for n in "abc")
        bridge = BusBridge(sim, "bb", a, b)
        assert bridge.connects(a, b) and bridge.connects(b, a)
        assert not bridge.connects(a, c)


class TestRouting:
    def _chain(self, sim, n):
        segments = [BusSegment(sim, "s%d" % i) for i in range(n)]
        bridges = [
            BusBridge(sim, "bb%d" % i, segments[i], segments[i + 1])
            for i in range(n - 1)
        ]
        return segments, bridges

    def test_trivial_route(self, sim):
        segments, bridges = self._chain(sim, 2)
        route = find_route(segments[0], segments[0], bridges)
        assert route == [(segments[0], None)]

    def test_single_hop(self, sim):
        segments, bridges = self._chain(sim, 2)
        route = find_route(segments[0], segments[1], bridges)
        assert [seg.name for seg, _b in route] == ["s0", "s1"]
        assert route[0][1] is bridges[0]
        assert route[-1][1] is None

    def test_multi_hop_shortest(self, sim):
        segments, bridges = self._chain(sim, 4)
        # Add a shortcut s0 <-> s3.
        shortcut = BusBridge(sim, "short", segments[0], segments[3])
        route = find_route(segments[0], segments[3], bridges + [shortcut])
        assert len(route) == 2  # takes the shortcut

    def test_disabled_bridges_excluded(self, sim):
        segments, bridges = self._chain(sim, 3)
        bridges[1].enabled = False
        with pytest.raises(LookupError):
            find_route(segments[0], segments[2], bridges)

    def test_ring_route(self, sim):
        segments, bridges = self._chain(sim, 4)
        ring = BusBridge(sim, "ring", segments[3], segments[0])
        route = find_route(segments[0], segments[3], bridges + [ring])
        assert len(route) == 2  # around the back
