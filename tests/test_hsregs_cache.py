"""Tests for handshake registers, shared variables, and the L1 cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import Cache, CacheStats, mpc755_dcache, mpc755_icache
from repro.sim.hsregs import HandshakeRegisters, SharedVariables
from repro.sim.kernel import Simulator
from repro.sim.memory import Sram


@pytest.fixture
def sim():
    return Simulator()


class TestHandshakeRegisters:
    def test_initial_values(self, sim):
        block = HandshakeRegisters(sim, "hs", done_op=1, done_rv=0)
        assert block.done_op == 1 and block.done_rv == 0

    def test_write_read(self, sim):
        block = HandshakeRegisters(sim, "hs")
        block.write("DONE_OP", 1)
        assert block.read("DONE_OP") == 1

    def test_one_bit_masking(self, sim):
        block = HandshakeRegisters(sim, "hs")
        block.write("DONE_RV", 3)
        assert block.read("DONE_RV") == 1

    def test_unknown_register(self, sim):
        block = HandshakeRegisters(sim, "hs")
        with pytest.raises(KeyError):
            block.read("REQ")

    def test_wait_for_value_change(self, sim):
        block = HandshakeRegisters(sim, "hs")
        event = block.wait_for("DONE_OP", 1, 100)
        assert not event.triggered
        block.write("DONE_OP", 1)
        sim.run(until=1)  # the watcher's same-cycle hop
        assert event.triggered and event.value == 1

    def test_wait_for_already_satisfied(self, sim):
        block = HandshakeRegisters(sim, "hs", done_op=1)
        event = block.wait_for("DONE_OP", 1, 100)
        assert event.triggered

    def test_wait_for_wrong_value_stays_pending(self, sim):
        block = HandshakeRegisters(sim, "hs")
        event = block.wait_for("DONE_OP", 1, 100)
        block.write("DONE_RV", 1)  # other register
        sim.run(until=100)  # up to, not including, the timeout
        assert not event.triggered

    def test_wait_for_times_out_and_withdraws(self, sim):
        block = HandshakeRegisters(sim, "hs")
        event = block.wait_for("DONE_OP", 1, 100)
        sim.run()
        assert event.triggered and event.value is None
        assert sim.now == 100
        assert block._watchers["DONE_OP"] == []
        block.write("DONE_OP", 1)  # nobody left to wake
        assert sim.peek() is None

    def test_trace_records_changes(self, sim):
        block = HandshakeRegisters(sim, "hs", trace=True)
        block.write("DONE_OP", 1)
        block.write("DONE_OP", 1)  # no change: not traced
        block.write("DONE_OP", 0)
        assert [(reg, val) for _t, reg, val in block.trace] == [
            ("DONE_OP", 1),
            ("DONE_OP", 0),
        ]


class TestSharedVariables:
    def test_slots_are_stable_and_distinct(self):
        memory = Sram("m", 128)
        shared = SharedVariables(memory, 100)
        a = shared.slot("A")
        b = shared.slot("B")
        assert a != b
        assert shared.slot("A") == a

    def test_peek_poke(self):
        memory = Sram("m", 128)
        shared = SharedVariables(memory, 64)
        shared.poke("FLAG", 1)
        assert shared.peek("FLAG") == 1
        assert memory.read_word(shared.slot("FLAG")) == 1


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        hit, fill, writeback = cache.access(0)
        assert (hit, fill, writeback) == (False, 8, 0)
        hit, fill, writeback = cache.access(4)  # same line
        assert (hit, fill, writeback) == (True, 0, 0)

    def test_lru_eviction(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=2)  # 2 sets
        line = cache.line_words
        sets = cache.sets
        # Three lines mapping to set 0: indices 0, sets, 2*sets.
        cache.access(0)
        cache.access(sets * line)
        cache.access(0)  # refresh line 0
        cache.access(2 * sets * line)  # evicts line 'sets' (LRU)
        assert cache.access(0)[0] is True
        assert cache.access(sets * line)[0] is False

    def test_dirty_writeback(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=1)
        line = cache.line_words
        cache.access(0, write=True)
        _hit, _fill, writeback = cache.access(cache.sets * line)  # evicts dirty
        assert writeback == cache.line_words
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=1)
        cache.access(0, write=False)
        _hit, _fill, writeback = cache.access(cache.sets * cache.line_words)
        assert writeback == 0

    def test_flush_returns_dirty_words(self):
        cache = Cache("c", size_bytes=256, line_bytes=32, ways=2)
        cache.access(0, write=True)
        cache.access(64, write=False)
        assert cache.flush() == cache.line_words
        assert cache.access(0)[0] is False  # invalidated

    def test_hit_rate(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        for _ in range(10):
            cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(0.9)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache("c", size_bytes=1000, line_bytes=32, ways=3)

    def test_mpc755_shapes(self):
        icache = mpc755_icache()
        dcache = mpc755_dcache()
        for cache in (icache, dcache):
            assert cache.size_bytes == 32 * 1024
            assert cache.ways == 8
            assert cache.line_words == 8

    def test_sequential_streaming_miss_rate(self):
        """A stream longer than the cache misses once per line, every pass."""
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        span_words = 2 * 1024 // 4  # twice the capacity
        for _pass in range(3):
            for address in range(0, span_words, cache.line_words):
                cache.access(address)
        lines = span_words // cache.line_words
        assert cache.stats.misses == 3 * lines  # no reuse survives

    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300))
    @settings(max_examples=25, deadline=None)
    def test_determinism_property(self, addresses):
        def run():
            cache = Cache("c", size_bytes=512, line_bytes=32, ways=2)
            return [cache.access(a, write=(a % 3 == 0)) for a in addresses]

        assert run() == run()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_access_lines_matches_per_line_access(self, data):
        """One range call leaves the cache exactly as one ``access`` per
        line would: totals, statistics, and every set's contents and LRU
        order (D-cache evictions depend on the order)."""
        line_bytes = data.draw(st.sampled_from([16, 32]))
        ways = data.draw(st.sampled_from([1, 2, 4, 8]))
        n_sets = data.draw(st.sampled_from([1, 2, 4, 16]))
        geometry = dict(size_bytes=line_bytes * ways * n_sets, line_bytes=line_bytes, ways=ways)
        ranged = Cache("ranged", **geometry)
        reference = Cache("reference", **geometry)
        capacity = ways * n_sets
        # A few ranges, reused so that repeated passes over the same range
        # (the resident shortcut) come up; lengths from one line to several
        # times the capacity wrap the set index, and the lengths around the
        # capacity are where a range stops fitting.
        span = st.one_of(
            st.integers(min_value=1, max_value=3 * capacity),
            st.sampled_from([capacity, capacity + 1, capacity + n_sets]),
        )
        ranges = data.draw(
            st.lists(st.tuples(st.integers(0, 4 * capacity), span), min_size=1, max_size=3)
        )
        operation = st.one_of(
            st.tuples(st.just("range"), st.sampled_from(ranges), st.booleans()),
            st.tuples(st.just("word"), st.integers(0, 6 * capacity), st.booleans()),
            st.tuples(st.just("flush"), st.just(None), st.just(False)),
        )
        warm = data.draw(st.lists(st.integers(0, 6 * capacity), max_size=3 * capacity))
        for line in warm:  # a warm cache, or a cold one when empty
            for cache in (ranged, reference):
                cache.access(line * cache.line_words, line % 3 == 0)
        for kind, arg, write in data.draw(st.lists(operation, min_size=1, max_size=12)):
            if kind == "flush":
                assert ranged.flush() == reference.flush()
                continue
            if kind == "word":
                assert ranged.access(arg * ranged.line_words, write) == reference.access(
                    arg * reference.line_words, write
                )
                continue
            first, length = arg
            got = ranged.access_lines(first, first + length - 1, write)
            expected = [0, 0, 0]
            for line in range(first, first + length):
                hit, _fill, writeback = reference.access(line * reference.line_words, write)
                expected[0 if hit else 1] += 1
                expected[2] += writeback > 0
            assert got == tuple(expected)
            for name in CacheStats.__slots__:
                assert getattr(ranged.stats, name) == getattr(reference.stats, name)
            assert [list(lines.items()) for lines in ranged._sets] == [
                list(lines.items()) for lines in reference._sets
            ]

    def test_access_lines_empty_range(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        assert cache.access_lines(5, 4) == (0, 0, 0)
        assert cache.stats.accesses == 0

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    @settings(max_examples=25, deadline=None)
    def test_small_working_set_always_fits(self, addresses):
        """Addresses within one cache-capacity window never conflict-miss
        more than the number of distinct lines."""
        cache = Cache("c", size_bytes=2048, line_bytes=32, ways=4)
        for address in addresses:
            cache.access(address)
        distinct_lines = len({a // cache.line_words for a in addresses})
        assert cache.stats.misses == distinct_lines
