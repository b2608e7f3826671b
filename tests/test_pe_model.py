"""Tests for the processing-element cost model (caches -> bus traffic)."""

import pytest

from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.kernel import KERNEL_BACKENDS, Simulator
from repro.sim.pe import MISS_GROUP, DataTouch, ProcessingElement, ProgramError


def fresh_pe(preset_name="GBAVIII", ban="A"):
    machine = build_machine(presets.preset(preset_name, 4))
    return machine, machine.pe_by_ban[ban]


class TestComputeCharging:
    def test_cycles_scale_with_instructions(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.compute(10_000)

        pe.run(program())
        machine.sim.run()
        expected = int(10_000 * pe.cycles_per_instruction)
        assert pe.stats.compute_cycles == expected

    def test_fractional_cycles_carry(self):
        """Sub-cycle remainders accumulate instead of being dropped."""
        machine, pe = fresh_pe()

        def program():
            for _ in range(10):
                yield from pe.compute(1)  # 0.4 cycles each

        pe.run(program())
        machine.sim.run()
        assert pe.stats.compute_cycles == 4  # 10 x 0.4

    def test_negative_instructions_rejected(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.compute(-1)

        process = pe.run(program())
        with pytest.raises(ProgramError, match="negative instruction count"):
            machine.sim.run()
        with pytest.raises(ValueError):
            process.value


class TestInstructionFetchTraffic:
    def test_cold_code_misses_then_warm_hits(self):
        machine, pe = fresh_pe()

        def program():
            # Two passes over the whole code footprint.
            yield from pe.compute(pe.code_footprint_words)
            yield from pe.compute(pe.code_footprint_words)

        pe.run(program())
        machine.sim.run()
        lines = pe.code_footprint_words // pe.icache.line_words
        assert pe.stats.icache_misses == lines  # cold pass only
        assert pe.stats.icache_hits == lines  # warm pass

    def test_miss_traffic_reaches_program_memory(self):
        machine, pe = fresh_pe()
        before = machine.memory(pe.program_device).reads

        def program():
            yield from pe.compute(pe.code_footprint_words)

        pe.run(program())
        machine.sim.run()
        refilled = machine.memory(pe.program_device).reads - before
        assert refilled == pe.code_footprint_words

    def test_ggba_fetches_hit_the_shared_bus(self):
        machine, pe = fresh_pe("GGBA")

        def program():
            yield from pe.compute(4096)

        pe.run(program())
        machine.sim.run()
        shared = machine.segments["GLOBAL_BUS_SUB1"]
        assert shared.stats.transactions > 0


class _MissRecorder:
    """Stands in for the machine: records each miss-traffic call."""

    def __init__(self):
        self.calls = []

    def miss_traffic(self, pe, device, misses, line_words, write):
        self.calls.append((device, misses, line_words, write))
        return iter(())


def _per_line_fetch(pe, instructions):
    """The reference walk: one ``Cache.access`` per fetch, then the warm
    check once at the end.  Returns the misses that go to the bus."""
    icache = pe.icache
    line_words = icache.line_words
    cursor = pe._fetch_cursor
    hits = misses = 0
    for _ in range(int(instructions) // line_words):
        if icache.access(pe.program_base + cursor)[0]:
            hits += 1
        else:
            misses += 1
        cursor += line_words
        if cursor >= pe.code_footprint_words:
            cursor %= pe.code_footprint_words
    pe._fetch_cursor = cursor
    pe.stats.icache_hits += hits
    pe.stats.icache_misses += misses
    cache_stats = icache.stats
    if (
        pe._footprint_lines is not None
        and cache_stats.evictions == 0
        and cache_stats.misses == pe._footprint_lines
        and (cache_stats.misses, cache_stats.hits)
        == (pe.stats.icache_misses, pe.stats.icache_hits)
    ):
        pe._fetch_warm = True
    return misses


def _cold_pe(footprint, base):
    recorder = _MissRecorder()
    pe = ProcessingElement(
        Simulator(),
        "pe",
        recorder,
        program_device="PROG",
        program_base=base,
        code_footprint_words=footprint,
    )
    return pe, recorder


class TestFetchWalk:
    """The range walk with its mid-call warm shortcut ends where the
    per-line walk ends."""

    @pytest.mark.parametrize(
        "footprint,base",
        [
            (2048, 0),  # aligned: warm after the first lap
            (2048, 5),  # unaligned base, aligned footprint
            (2044, 0),  # unaligned footprint: never warm
            (2044, 3),
            (12_000, 0),  # larger than the cache: evictions every lap
            (12_004, 3),
        ],
    )
    def test_first_phase_matches_per_line_walk(self, footprint, base):
        pe, recorder = _cold_pe(footprint, base)
        reference, _unused = _cold_pe(footprint, base)
        pe.sim.process(pe.compute(100_000))
        pe.sim.run()
        misses = _per_line_fetch(reference, 100_000)
        reference.stats.compute_cycles = pe.stats.compute_cycles
        assert pe.stats.as_dict() == reference.stats.as_dict()
        for name in ("hits", "misses", "evictions", "writebacks"):
            assert getattr(pe.icache.stats, name) == getattr(reference.icache.stats, name)
        assert pe._fetch_cursor == reference._fetch_cursor
        assert pe._fetch_warm == reference._fetch_warm
        assert recorder.calls == ([("PROG", misses, 8, False)] if misses else [])
        assert pe.icache._sets == reference.icache._sets  # same lines, same dirt
        if footprint % pe.icache.line_words:
            # No shortcut: the walk touched every line, so the LRU order
            # matches too.
            assert not pe._fetch_warm
            assert [list(lines) for lines in pe.icache._sets] == [
                list(lines) for lines in reference.icache._sets
            ]

    def test_warm_shortcut_starts_mid_call(self):
        pe, _recorder = _cold_pe(2048, 0)
        walked = []
        access_lines = pe.icache.access_lines

        def spy(first, last, write):
            walked.append((first, last))
            return access_lines(first, last, write)

        pe.icache.access_lines = spy
        pe.sim.process(pe.compute(100_000))
        pe.sim.run()
        # One cold lap of 256 lines is walked; the other 12,244 fetches of
        # the phase are counted as hits without touching the cache.
        assert walked == [(0, 255)]
        assert pe._fetch_warm
        assert pe.stats.icache_misses == 256
        assert pe.stats.icache_hits == 100_000 // 8 - 256

    def test_warm_shortcut_rearms_after_a_flush(self):
        """A crash restart flushes the I-cache: the footprint refills from
        the flush on, a few lines per short phase, and the shortcut takes
        over again once it is resident, with the full walk's statistics."""
        pe, _recorder = _cold_pe(2048, 0)
        reference, _unused = _cold_pe(2048, 0)
        walked = []
        access_lines = pe.icache.access_lines

        def spy(first, last, write):
            walked.append((first, last))
            return access_lines(first, last, write)

        pe.icache.access_lines = spy
        phases = [100_000, "crash"] + [25] * 120 + [100_000]

        def program():
            for phase in phases:
                if phase == "crash":
                    # What FaultInjector.crash_restart does to the fetch state.
                    pe.icache.flush()
                    pe._fetch_cursor = 0
                else:
                    yield from pe.compute(phase)

        pe.sim.process(program())
        pe.sim.run()
        for phase in phases:
            if phase == "crash":
                reference.icache.flush()
                reference._fetch_cursor = 0
            else:
                _per_line_fetch(reference, phase)
        reference.stats.compute_cycles = pe.stats.compute_cycles
        assert pe.stats.as_dict() == reference.stats.as_dict()
        for name in ("hits", "misses", "evictions", "writebacks"):
            assert getattr(pe.icache.stats, name) == getattr(reference.icache.stats, name)
        assert pe._fetch_cursor == reference._fetch_cursor
        assert pe.icache._sets == reference.icache._sets
        assert pe._fetch_warm and pe.stats.icache_misses == 2 * 256
        # Walked: the first cold lap, then 3 lines per short phase until the
        # 86th phase fills line 255, then nothing.
        assert walked[0] == (0, 255) and walked[-1][1] == 255
        assert len(walked) == 1 + 86


class TestDataStreamTraffic:
    def test_small_buffer_cached_after_first_pass(self):
        machine, pe = fresh_pe()
        touch = DataTouch("SRAM_A", 4096, 512, write=False)

        def program():
            yield from pe.compute(100, [touch])
            yield from pe.compute(100, [touch])

        pe.run(program())
        machine.sim.run()
        lines = 512 // pe.dcache.line_words
        assert pe.stats.dcache_misses == lines
        assert pe.stats.dcache_hits == lines

    def test_writeback_traffic_on_eviction(self):
        machine, pe = fresh_pe()
        capacity_words = pe.dcache.size_bytes // 4
        big = DataTouch("SRAM_A", 0, 2 * capacity_words, write=True)

        def program():
            yield from pe.compute(100, [big])
            yield from pe.compute(100, [big])  # second pass evicts dirty lines

        pe.run(program())
        machine.sim.run()
        memory = machine.memory("SRAM_A")
        assert memory.writes > 0  # write-backs happened
        assert pe.stats.dcache_misses > pe.stats.dcache_hits

    def test_miss_groups_bound_bus_tenures(self):
        machine, pe = fresh_pe()
        lines = 10 * MISS_GROUP
        touch = DataTouch("SRAM_A", 0, lines * pe.dcache.line_words, write=False)

        def program():
            yield from pe.compute(1, [touch])

        pe.run(program())
        machine.sim.run()
        segment = machine.home_segment[pe.name]
        # One tenure per MISS_GROUP misses (plus possible fetch tenures).
        assert segment.stats.transactions <= lines // MISS_GROUP + 5


class TestBusAccessors:
    def test_bus_rw_accounting(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.bus_write("SRAM_A", 100, [1, 2, 3])
            values = yield from pe.bus_read("SRAM_A", 100, 3)
            return values

        process = pe.run(program())
        machine.sim.run()
        assert process.value == [1, 2, 3]
        assert pe.stats.words_written == 3
        assert pe.stats.words_read == 3
        assert pe.stats.bus_cycles > 0

    def test_stall_counts(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.stall(123)

        pe.run(program())
        machine.sim.run()
        assert pe.stats.stall_cycles == 123
        assert machine.sim.now == 123

    def test_finished_at_recorded(self):
        machine, pe = fresh_pe()

        def program():
            yield from pe.stall(10)

        pe.run(program())
        machine.sim.run()
        assert pe.finished_at == 10


@pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
class TestFinishedAt:
    @staticmethod
    def _pe(kernel):
        machine = build_machine(presets.preset("GBAVIII", 4), kernel=kernel)
        return machine, machine.pe_by_ban["A"]

    def test_equals_the_return_cycle(self, kernel):
        machine, pe = self._pe(kernel)
        returned = []

        def program():
            yield from pe.compute(1000)
            yield 7
            returned.append(machine.sim.now)
            return "done"

        process = pe.run(program())
        assert pe.finished_at is None
        machine.sim.run()
        assert pe.finished_at == returned[0] > 0
        assert process.value == "done"

    def test_none_when_the_program_raises(self, kernel):
        machine, pe = self._pe(kernel)

        def program():
            yield 5
            raise RuntimeError("boom")

        process = pe.run(program())
        # The run stops in the cycle the program failed.
        with pytest.raises(ProgramError, match="MPC755_A's program raised RuntimeError: boom"):
            machine.sim.run()
        assert machine.sim.now == 5
        assert pe.finished_at is None
        with pytest.raises(RuntimeError):
            process.value
        assert str(pe.program_error) == "boom"
        with pytest.raises(ProgramError, match="MPC755_A's program raised RuntimeError: boom"):
            machine.program_cycles()

    def test_joiner_resumes_in_the_same_cycle(self, kernel):
        machine, pe = self._pe(kernel)
        sim = machine.sim
        log = []

        def program():
            yield 12
            return 3

        process = pe.run(program())

        def joiner():
            value = yield process
            log.append((sim.now, value, pe.finished_at))

        sim.process(joiner())
        sim.run()
        assert log == [(12, 3, 12)]
