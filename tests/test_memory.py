"""Tests for memory models (SRAM / DRAM)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.memory import PAGE_WORDS, Dram, Memory, Sram, make_memory


class TestSram:
    def test_read_back(self):
        sram = Sram("m", 1024)
        sram.write(10, [1, 2, 3])
        assert sram.read(10, 3) == [1, 2, 3]

    def test_uninitialized_reads_zero(self):
        sram = Sram("m", 16)
        assert sram.read(0, 4) == [0, 0, 0, 0]

    def test_word_masking(self):
        sram = Sram("m", 4)
        sram.write_word(0, 0x1_FFFF_FFFF)
        assert sram.read_word(0) == 0xFFFFFFFF

    def test_bounds_check(self):
        sram = Sram("m", 8)
        with pytest.raises(IndexError):
            sram.read(7, 2)
        with pytest.raises(IndexError):
            sram.write(-1, [0])

    def test_constant_latency(self):
        sram = Sram("m", 64, access_cycles=2)
        assert sram.burst_latency(0, 10, False) == 2
        assert sram.burst_latency(50, 1, True) == 2

    def test_counters(self):
        sram = Sram("m", 64)
        sram.write(0, [1, 2])
        sram.read(0, 2)
        assert sram.writes == 2 and sram.reads == 2

    def test_clear(self):
        sram = Sram("m", 8)
        sram.write_word(3, 9)
        sram.clear()
        assert sram.read_word(3) == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Sram("m", 0)

    @given(st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        sram = Sram("m", 256)
        sram.write(0, values)
        assert sram.read(0, len(values)) == values


# A memory of three pages and a partial fourth, and the addresses where
# paging can go wrong: both sides of every page edge, and both ends.
_SIZE = 3 * PAGE_WORDS + 17
_EDGES = sorted(
    {-1, 0, 1, _SIZE - 1, _SIZE}
    | {page * PAGE_WORDS + delta for page in (1, 2, 3) for delta in (-1, 0, 1)}
)
# (address, count) spans: anywhere, or straddling an edge by a few words.
_spans = st.one_of(
    st.tuples(
        st.one_of(st.sampled_from(_EDGES), st.integers(-2, _SIZE + 2)),
        st.one_of(
            st.sampled_from([0, 1, 2, PAGE_WORDS, PAGE_WORDS + 1]),
            st.integers(0, 2 * PAGE_WORDS + 3),
        ),
    ),
    st.builds(
        lambda edge, before, after: (edge - before, before + after),
        st.sampled_from(_EDGES),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
)
# A burst's values are start + i * stride: long bursts stay cheap to draw,
# and both reach below zero and past 32 bits.  As bools they are the
# stride's parity pattern.
_bursts = st.tuples(
    st.one_of(
        st.sampled_from([-1, 2**32 - 1, 2**32, 2**64 + 3, -(2**32)]),
        st.integers(-(2**40), 2**40),
    ),
    st.integers(-(2**33), 2**33),
    st.booleans(),
)
# How the burst reaches write(): a list, a tuple or a one-shot generator.
_shapes = st.sampled_from([list, tuple, iter])
_operations = st.one_of(
    st.tuples(st.just("write"), _spans, _bursts, _shapes),
    st.tuples(st.just("read"), _spans),
    st.tuples(st.just("clear")),
)


class TestPagedStore:
    @given(st.lists(_operations, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, operations):
        memory = Sram("m", _SIZE)
        model = {}
        reads = writes = 0
        for operation in operations:
            if operation[0] == "clear":
                memory.clear()
                model.clear()
                continue
            kind, (address, count) = operation[:2]
            in_range = 0 <= address and address + count <= _SIZE
            if kind == "write":
                start, stride, as_bools = operation[2]
                values = [start + index * stride for index in range(count)]
                if as_bools:
                    values = [bool(value & 1) for value in values]
                shape = operation[3]
                if not in_range:
                    with pytest.raises(IndexError):
                        memory.write(address, shape(values))
                else:
                    memory.write(address, shape(values))
                    for index, value in enumerate(values):
                        model[address + index] = value & 0xFFFFFFFF
                    writes += count
            elif not in_range:
                with pytest.raises(IndexError):
                    memory.read(address, count)
            else:
                expected = [model.get(word, 0) for word in range(address, address + count)]
                assert memory.read(address, count) == expected
                reads += count
            assert (memory.reads, memory.writes) == (reads, writes)

    def test_write_rejects_non_integers_before_storing(self):
        memory = Sram("m", _SIZE)
        memory.write(0, [1, 2])
        for values in ([3, 4.5], [2**32, "x"], (value for value in [5, None])):
            with pytest.raises(TypeError):
                memory.write(0, values)
        assert memory.read(0, 2) == [1, 2] and memory.writes == 2

    def test_burst_across_a_page_edge(self):
        memory = Sram("m", _SIZE)
        memory.write(PAGE_WORDS - 2, [1, 2, 3, 4])
        assert memory.read(PAGE_WORDS - 3, 6) == [0, 1, 2, 3, 4, 0]
        assert memory.read(PAGE_WORDS - 1, 2) == [2, 3]
        assert memory.read_word(PAGE_WORDS) == 3

    def test_pages_allocated_on_first_write_only(self):
        memory = Sram("m", _SIZE)
        assert memory.read(0, _SIZE) == [0] * _SIZE
        memory.write_word(_SIZE - 1, 5)
        memory.write(2 * PAGE_WORDS - 1, [6, 7])
        # The last word's page, and the two pages the burst touched.
        assert sorted(memory._pages) == [1, 2, 3]


class TestDram:
    def test_row_miss_then_hit(self):
        dram = Dram("d", 4096, row_words=256, hit_cycles=2, miss_cycles=6)
        assert dram.burst_latency(0, 8, False) == 6  # cold row
        assert dram.burst_latency(16, 8, False) == 2  # same row
        assert dram.burst_latency(300, 8, False) == 6  # new row

    def test_burst_spanning_rows(self):
        dram = Dram("d", 4096, row_words=256, hit_cycles=2, miss_cycles=6)
        latency = dram.burst_latency(250, 16, False)  # rows 0 and 1, both cold
        assert latency == 12
        assert dram.row_misses == 2

    def test_row_stats(self):
        dram = Dram("d", 1024, row_words=128)
        dram.burst_latency(0, 1, False)
        dram.burst_latency(1, 1, False)
        assert dram.row_hits == 1 and dram.row_misses == 1

    def test_data_independent_of_rows(self):
        dram = Dram("d", 1024)
        dram.write(700, [5, 6])
        assert dram.read(700, 2) == [5, 6]

    def test_bad_row_words(self):
        with pytest.raises(ValueError):
            Dram("d", 64, row_words=0)


class TestFactory:
    def test_make_sram(self):
        memory = make_memory("SRAM", "m", 128)
        assert isinstance(memory, Sram)
        assert memory.kind == "SRAM"

    def test_make_dram_case_insensitive(self):
        assert isinstance(make_memory("dram", "m", 128), Dram)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            make_memory("FLASH", "m", 128)
