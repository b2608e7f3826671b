"""Counter plane: per-segment counters read from BusStats.

Pins the contracts documented in ``repro.obs.counters``:

* attaching a :class:`CounterPlane` never changes a run's cycle count, on
  any backend -- and on the compiled backend a counted run still
  fast-forwards its polls;
* per-segment totals agree with :class:`BusStats` (transactions,
  arbitration-wait cycles) and, fault-free, with the arbiters' grant
  counts, identically on heap and compiled;
* the plane survives the hook life cycle: attach to a live machine, keep
  accumulating after a later probe;
* a plane attached mid-run counts exactly the tenures after it.
"""

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.obs import COUNTER_KINDS, CounterPlane, Observability
from repro.options import presets
from repro.sim.fabric import MachineBuilder, build_machine
from repro.sim.kernel import KERNEL_BACKENDS

# (preset, style): BFBA/GBAVI have no shared memory, so FPA is undefined
# for them -- same mapping as Table II.
PRESET_STYLES = [
    ("BFBA", "PPA"),
    ("GBAVI", "PPA"),
    ("GBAVIII", "FPA"),
    ("HYBRID", "FPA"),
    ("SPLITBA", "FPA"),
    ("GGBA", "FPA"),
    ("CCBA", "FPA"),
]


def counted_run(arch, style, backend, packets=2, pes=4):
    machine = MachineBuilder(presets.preset(arch, pes)).with_kernel(backend).build()
    machine.attach_counters()
    result = run_ofdm(machine, style, OfdmParameters(packets=packets))
    return machine, machine.counters, result


class TestCounterPlane:
    def test_unbound_plane_is_empty(self):
        plane = CounterPlane()
        assert not plane.bound
        assert plane.segment_order == []
        assert plane.totals() == {}

    def test_bind_reports_three_kinds_per_segment(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        plane = machine.attach_counters()
        assert plane.bound
        assert plane.segment_order == sorted(machine.segments)
        assert plane.totals() == {
            name: dict.fromkeys(COUNTER_KINDS, 0) for name in sorted(machine.segments)
        }

    def test_rebind_same_machine_is_noop(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        plane = machine.attach_counters()
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        counted = plane.totals()
        plane.bind(machine)
        # Still counting from the first bind, not restarted.
        assert plane.totals() == counted
        assert plane.check_against_stats(machine) == []

    def test_rebind_other_machine_rejected(self):
        plane = CounterPlane()
        plane.bind(build_machine(presets.preset("GBAVIII", 4)))
        with pytest.raises(ValueError, match="already bound"):
            plane.bind(build_machine(presets.preset("HYBRID", 4)))

    def test_as_dict_shape(self):
        machine, plane, _result = counted_run("GBAVIII", "FPA", "heap")
        snapshot = plane.as_dict()
        assert snapshot["kinds"] == list(COUNTER_KINDS)
        assert sorted(snapshot["segments"]) == plane.segment_order
        for kinds in snapshot["segments"].values():
            assert all(value >= 0 for value in kinds.values())


class TestCountersMatchStats:
    @pytest.mark.parametrize("arch,style", PRESET_STYLES)
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_totals_match_busstats_and_arbiter(self, arch, style, backend):
        machine, plane, _result = counted_run(arch, style, backend)
        assert plane.check_against_stats(machine) == []
        for name in plane.segment_order:
            segment = machine.segments[name]
            assert plane.value(name, "transactions") == segment.stats.transactions
            assert plane.value(name, "wait_cycles") == segment.stats.arbitration_cycles
            # Fault-free: one retired tenure per arbiter grant.
            assert plane.value(name, "grants") == segment.arbiter.grants
        assert any(
            plane.value(name, "transactions") > 0 for name in plane.segment_order
        )

    @pytest.mark.parametrize("arch,style", PRESET_STYLES)
    def test_three_way_backend_parity(self, arch, style):
        reference = None
        for backend in KERNEL_BACKENDS:
            _machine, plane, result = counted_run(arch, style, backend)
            snapshot = (result.cycles, plane.totals())
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference, backend


class TestZeroDespecialization:
    """A counter plane hooks nothing: a counted machine keeps the inline
    tenures and poll fast-forward."""

    def test_counted_compiled_run_still_jumps(self):
        machine, _plane, _result = counted_run("GBAVIII", "PPA", "compiled")
        assert machine.sim.events_skipped > 0

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_counters_do_not_change_cycles(self, backend):
        bare = build_machine(presets.preset("GBAVIII", 4), kernel=backend)
        plain = run_ofdm(bare, "FPA", OfdmParameters(packets=2))
        _machine, _plane, counted = counted_run("GBAVIII", "FPA", backend)
        assert counted.cycles == plain.cycles

    def test_attach_to_live_machine(self):
        machine = build_machine(presets.preset("GBAVIII", 4), kernel="compiled")
        plane = machine.attach_counters()
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        assert plane.check_against_stats(machine) == []

    def test_counters_survive_a_later_probe(self):
        machine = build_machine(presets.preset("GBAVIII", 4), kernel="compiled")
        plane = machine.attach_counters()
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        first = _transactions(plane)
        assert first > 0
        # Observability routes every later tenure through the hooked
        # path; the plane must keep accumulating regardless.
        machine.attach_observability(Observability())
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        assert _transactions(plane) > first
        assert plane.check_against_stats(machine) == []

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_mid_run_plane_counts_later_tenures(self, backend):
        machine = build_machine(presets.preset("GBAVIII", 4), kernel=backend)
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        start = _stats(machine)
        plane = machine.attach_counters()
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        # After a later probe the plane keeps counting.
        machine.attach_observability(Observability())
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        end = _stats(machine)
        for name in plane.segment_order:
            done = end[name][0] - start[name][0]
            assert plane.value(name, "transactions") == done
            assert plane.value(name, "grants") == done
            assert plane.value(name, "wait_cycles") == end[name][1] - start[name][1]
        assert _transactions(plane) > 0
        # Bound after traffic: the totals miss the first run's tenures.
        assert plane.check_against_stats(machine) != []


def _transactions(plane):
    return sum(plane.value(name, "transactions") for name in plane.segment_order)


def _stats(machine):
    return {
        name: (segment.stats.transactions, segment.stats.arbitration_cycles)
        for name, segment in machine.segments.items()
    }
