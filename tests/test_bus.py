"""Tests for bus segments, bridges, and routing."""

import pytest

from repro.obs import Probe
from repro.sim.bus import BusBridge, BusSegment, find_route
from repro.sim.kernel import KERNEL_BACKENDS, Interrupt, Simulator


@pytest.fixture
def sim():
    return Simulator()


def occupy(sim, segment, master, words, write=False, extra=0, start=0):
    timings = []

    def body():
        yield sim.timeout(start)
        timing = yield from segment.occupy(master, words, write, extra_cycles=extra)
        timings.append(timing)

    sim.process(body())
    return timings


class TestBusSegment:
    def test_read_timing(self, sim):
        segment = BusSegment(sim, "bus", grant_cycles=3)
        timings = occupy(sim, segment, "m0", 64)
        sim.run()
        timing = timings[0]
        # 3 grant + 32 beats (64-bit bus = 2 words/beat).
        assert timing.arbitration == 3
        assert timing.transfer == 32
        assert timing.total == 35

    def test_write_grant_override(self, sim):
        segment = BusSegment(sim, "bus", grant_cycles=5, write_grant_cycles=3)
        reads = occupy(sim, segment, "r", 2, write=False)
        sim.run()
        assert reads[0].arbitration == 5
        writes = occupy(sim, segment, "w", 2, write=True)
        sim.run()
        assert writes[0].arbitration == 3

    def test_beat_cycles_scale_transfer(self, sim):
        segment = BusSegment(sim, "bus", beat_cycles=2)
        timings = occupy(sim, segment, "m", 64)
        sim.run()
        assert timings[0].transfer == 64  # 32 beats x 2 cycles

    def test_memory_latency_held_on_bus(self, sim):
        segment = BusSegment(sim, "bus")
        timings = occupy(sim, segment, "m", 2, extra=7)
        sim.run()
        assert timings[0].memory == 7
        assert timings[0].total == 3 + 1 + 7

    def test_zero_words_still_one_beat(self, sim):
        segment = BusSegment(sim, "bus")
        assert segment.beats_for(0) == 1

    def test_data_width_must_be_word_multiple(self, sim):
        with pytest.raises(ValueError):
            BusSegment(sim, "bad", data_width=48)

    def test_contention_serializes(self, sim):
        segment = BusSegment(sim, "bus")
        first = occupy(sim, segment, "a", 64)
        second = occupy(sim, segment, "b", 64)
        sim.run()
        assert second[0].start == 0
        assert second[0].end > first[0].end
        assert segment.stats.transactions == 2

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

    @pytest.mark.parametrize("at, arbitration", [(10, 3), (2, 2)])
    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    def test_interrupted_tenure_is_counted(self, kernel, at, arbitration):
        """A burst interrupted mid-tenure releases the segment and counts
        as one transaction ending at the interruption, its grant boundary
        no later than that, where the arbiter counts the grant."""
        sim = Simulator(kernel=kernel)
        segment = BusSegment(sim, "bus", grant_cycles=3)
        tenures = []

        class Tenures(Probe):
            def on_tenure(self, segment, master, start, acquired, end, words, write, memory):
                tenures.append((master, start, acquired, end, words))

        segment.probe = Tenures()

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
        assert (arbiter.grants, arbiter.busy_cycles, arbiter.owner) == (1, at, None)
        stats = segment.stats
        assert (stats.transactions, stats.busy_cycles, stats.arbitration_cycles) == (
            1,
            at,
            arbitration,
        )
        assert stats.per_master == {"m": 1}
        assert tenures == [("m", 0, arbitration, at, 64)]

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
