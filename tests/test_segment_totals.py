"""Per-segment bus totals, read from BusStats.

Pins what chaos, verify and the fuzz parity fingerprint rely on in
:func:`repro.sim.stats.segment_totals`:

* in a fault-free run every segment's ``transactions`` equals its
  arbiter's ``grants`` -- one grant per completed tenure -- and its
  ``held_cycles`` the arbiter's ``busy_cycles`` -- every tenure, FIFO
  bursts included, is held from its claim to its release -- on every
  backend;
* the per-segment totals, and the run's cycles, are identical on heap and
  compiled.
"""

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.kernel import KERNEL_BACKENDS
from repro.sim.stats import segment_totals

# (preset, style): BFBA/GBAVI have no shared memory, so FPA is undefined
# for them -- same mapping as Table II.
PRESET_STYLES = [
    ("BFBA", "PPA"),
    ("GBAVI", "PPA"),
    ("GBAVII", "FPA"),
    ("GBAVIII", "FPA"),
    ("HYBRID", "FPA"),
    ("HYBRID", "PPA"),
    ("SPLITBA", "FPA"),
    ("GGBA", "FPA"),
    ("CCBA", "FPA"),
]


def run(arch, style, backend, packets=2, pes=4):
    machine = build_machine(presets.preset(arch, pes), kernel=backend)
    result = run_ofdm(machine, style, OfdmParameters(packets=packets))
    return machine, result


class TestSegmentTotals:
    def test_totals_read_busstats_in_name_order(self):
        machine, _result = run("GBAVIII", "FPA", "heap", packets=1)
        totals = segment_totals(machine.segments)
        assert list(totals) == sorted(machine.segments)
        for name, row in totals.items():
            stats = machine.segments[name].stats
            assert row == {
                "transactions": stats.transactions,
                "grants": stats.transactions,
                "wait_cycles": stats.arbitration_cycles,
            }

    @pytest.mark.parametrize("arch,style", PRESET_STYLES)
    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_fault_free_tenures_match_arbiter(self, arch, style, backend):
        machine, _result = run(arch, style, backend)
        for name, segment in machine.segments.items():
            assert segment.stats.transactions == segment.arbiter.grants, name
            assert segment.stats.held_cycles == segment.arbiter.busy_cycles, name
        assert any(segment.stats.transactions for segment in machine.segments.values())

    @pytest.mark.parametrize("arch,style", PRESET_STYLES)
    def test_backend_parity(self, arch, style):
        reference = None
        for backend in KERNEL_BACKENDS:
            machine, result = run(arch, style, backend)
            snapshot = (result.cycles, segment_totals(machine.segments))
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference, backend
