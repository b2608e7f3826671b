"""Tests for Bi-FIFO blocks and threshold interrupts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.fifo import BiFifo, FifoEmptyError, FifoFullError, HardwareFifo
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestHardwareFifo:
    def test_push_pop_order(self, sim):
        fifo = HardwareFifo(sim, "f", 16)
        fifo.push([1, 2, 3])
        assert fifo.pop(3) == [1, 2, 3]

    def test_whole_and_partial_pops_keep_order(self, sim):
        fifo = HardwareFifo(sim, "f", 8)
        fifo.push([1, 2, 3, 4])
        assert fifo.pop(1) == [1]
        assert fifo.pop(3) == [2, 3, 4]  # the whole content at once
        assert fifo.is_empty and fifo.pops == 4
        fifo.push([5, 6])
        assert fifo.pop(2) == [5, 6]

    def test_counts(self, sim):
        fifo = HardwareFifo(sim, "f", 16)
        fifo.push([1, 2])
        assert fifo.count == 2 and fifo.space == 14
        fifo.pop(1)
        assert fifo.count == 1

    def test_overflow_raises(self, sim):
        fifo = HardwareFifo(sim, "f", 2)
        with pytest.raises(FifoFullError):
            fifo.push([1, 2, 3])

    def test_underflow_raises(self, sim):
        fifo = HardwareFifo(sim, "f", 2)
        with pytest.raises(FifoEmptyError):
            fifo.pop(1)

    def test_word_masking(self, sim):
        fifo = HardwareFifo(sim, "f", 4)
        fifo.push([2**40 + 5])
        assert fifo.pop(1) == [5]

    def test_threshold_interrupt_fires_once_per_crossing(self, sim):
        fifo = HardwareFifo(sim, "f", 32)
        hits = []
        fifo.on_threshold = lambda f: hits.append(f.count)
        fifo.set_threshold(4)
        fifo.push([0, 1, 2])
        assert hits == []
        fifo.push([3])
        assert hits == [4]
        fifo.push([4, 5])  # still above threshold: no re-fire
        assert hits == [4]

    def test_threshold_rearms_after_drain(self, sim):
        fifo = HardwareFifo(sim, "f", 32)
        hits = []
        fifo.on_threshold = lambda f: hits.append(sim.now)
        fifo.set_threshold(2)
        fifo.push([1, 2])
        fifo.pop(2)
        fifo.push([3, 4])
        assert len(hits) == 2
        assert fifo.interrupts_raised == 2

    def test_zero_threshold_disables(self, sim):
        fifo = HardwareFifo(sim, "f", 8)
        hits = []
        fifo.on_threshold = lambda f: hits.append(1)
        fifo.set_threshold(0)
        fifo.push(list(range(8)))
        assert hits == []

    def test_threshold_bounds(self, sim):
        fifo = HardwareFifo(sim, "f", 8)
        with pytest.raises(ValueError):
            fifo.set_threshold(9)
        with pytest.raises(ValueError):
            fifo.set_threshold(-1)

    def test_wait_data_event(self, sim):
        fifo = HardwareFifo(sim, "f", 8)
        event = fifo.wait_data()
        assert not event.triggered
        fifo.push([1])
        assert event.triggered

    def test_wait_space_event(self, sim):
        fifo = HardwareFifo(sim, "f", 1)
        fifo.push([1])
        event = fifo.wait_space()
        assert not event.triggered
        fifo.pop(1)
        assert event.triggered

    def test_flags(self, sim):
        fifo = HardwareFifo(sim, "f", 2)
        assert fifo.is_empty and not fifo.is_full
        fifo.push([1, 2])
        assert fifo.is_full and not fifo.is_empty

    def test_positive_depth_required(self, sim):
        with pytest.raises(ValueError):
            HardwareFifo(sim, "f", 0)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_fifo_order_property(self, values):
        sim = Simulator()
        fifo = HardwareFifo(sim, "f", 64)
        fifo.push(values)
        assert fifo.pop(len(values)) == values


class TestBiFifo:
    def test_directions_are_independent(self, sim):
        block = BiFifo(sim, "b", 8)
        block.up.push([1])
        block.down.push([2])
        assert block.up.pop(1) == [1]
        assert block.down.pop(1) == [2]

    def test_direction_selector(self, sim):
        block = BiFifo(sim, "b", 8)
        assert block.direction(True) is block.up
        assert block.direction(False) is block.down
