"""Tests for the parallel experiment runner and repeated BusSyn generation.

Covers DESIGN.md section 4's runner contract: results in input order,
parallel runs bit-identical to sequential ones, per-case telemetry; and
that one :class:`~repro.core.busyn.BusSyn` generating a spec again, as the
Table V driver does for every case, makes a new but identical system.
"""

import gc
import weakref

import pytest

from repro.core.busyn import BusSyn
from repro.experiments.runner import CaseTelemetry, run_cases
from repro.options import presets


def _square(case, offset=0):
    return case * case + offset


class _Node:
    pass


_CYCLES = []


def _make_cycle(case):
    """A case leaving cyclic garbage behind, as a simulated machine does."""
    node = _Node()
    node.self = node
    _CYCLES.append(weakref.ref(node))
    return case


class TestRunCases:
    def test_inline_preserves_order_and_telemetry(self):
        results, telemetry = run_cases(_square, [3, 1, 2])
        assert results == [9, 1, 4]
        assert [t.case for t in telemetry] == [3, 1, 2]
        assert all(t.wall_seconds >= 0 for t in telemetry)
        assert all(isinstance(t, CaseTelemetry) for t in telemetry)

    def test_kwargs_forwarded(self):
        results, _telemetry = run_cases(_square, [2], kwargs={"offset": 10})
        assert results == [14]

    def test_parallel_matches_inline(self):
        sequential, _ = run_cases(_square, list(range(6)), jobs=1)
        parallel, telemetry = run_cases(_square, list(range(6)), jobs=2)
        assert parallel == sequential
        assert [t.case for t in telemetry] == list(range(6))

    def test_single_case_skips_the_pool(self):
        # len(cases) <= 1 runs inline even with jobs > 1.
        results, _ = run_cases(_square, [5], jobs=8)
        assert results == [25]

    def test_rejects_non_module_level_callables(self):
        with pytest.raises(ValueError):
            run_cases(lambda case: case, [1])

        class Holder:
            @staticmethod
            def worker(case):
                return case

        with pytest.raises(ValueError):
            run_cases(Holder.worker, [1])

    def test_a_case_cyclic_garbage_is_collected_before_the_next_case(self):
        del _CYCLES[:]
        gc.disable()  # only the runner's own collection may free them
        try:
            results, _ = run_cases(_make_cycle, [1, 2], jobs=1)
            assert [ref() for ref in _CYCLES] == [None, None]
        finally:
            gc.enable()
        assert results == [1, 2]

    def test_telemetry_counts_kernel_events(self):
        from repro.experiments.table4 import run_table4_case

        _result, telemetry = run_cases(run_table4_case, [(15, "GGBA")])
        assert telemetry[0].events_processed > 0
        assert telemetry[0].events_per_second() > 0

    def test_table4_parallel_rows_identical(self):
        from repro.experiments.table4 import run_table4

        sequential = run_table4(jobs=1)
        parallel = run_table4(jobs=2)
        assert [vars(row) for row in parallel] == [vars(row) for row in sequential]


class TestBusSyn:
    def test_two_generations_of_one_spec_emit_same_verilog(self):
        tool = BusSyn()
        spec = presets.preset("SPLITBA", 2)
        first = tool.generate(spec)
        second = tool.generate(spec)
        assert second is not first
        assert first.verilog() == second.verilog()
