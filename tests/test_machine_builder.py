"""MachineBuilder: one composition point for kernels, CPI and arbiter
policy.

``build_machine`` stays a thin keyword wrapper over the builder and is
tested as such.  Hooks attach to the built machine: a machine with a
probe or a fault injector runs every tenure through the hooked path, and
on the compiled backend its polls fast-forward only when every hook
declares the counters it keeps, which is pinned here.
"""

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.faults import RecoveryPolicy, SMOKE_SCENARIO, compile_plan, install_faults
from repro.obs import Observability
from repro.options import presets
from repro.sim.fabric import Machine, MachineBuilder, build_machine
from repro.sim.kernel import KERNEL_BACKENDS, KERNEL_ENV, Simulator

BACKENDS = list(KERNEL_BACKENDS)


def _spec():
    return presets.preset("BFBA", 4)


def _smoke_plan():
    # Plans bind fault sites by *name*, so one compiled against a throwaway
    # machine of the same spec drives any other machine built from it.
    scratch = build_machine(_spec())
    return compile_plan(scratch, SMOKE_SCENARIO, seed=3)


class TestBuilderComposition:
    def test_with_sim_uses_given_simulator(self):
        sim = Simulator(kernel="compiled")
        machine = MachineBuilder(_spec()).with_sim(sim).build()
        assert machine.sim is sim

    def test_fluent_calls_return_builder(self):
        builder = MachineBuilder(_spec())
        assert builder.with_kernel("heap") is builder
        assert builder.with_cycles_per_instruction(0.5) is builder
        assert builder.with_arbiter_policy(None) is builder

    @pytest.mark.parametrize("hooks", ["tracer", "monitor", "faults"])
    def test_compiled_with_hooks_stays_generic(self, hooks):
        """A hooked compiled machine runs its tenures through the hooked
        path and ends as the heap machine does.  A tracer needs every hook
        call, so its polls register no loop and nothing is skipped; a
        protocol monitor and a fault injector declare their counters, so
        the polls still jump."""
        runs = {}
        for kernel in BACKENDS:
            machine = MachineBuilder(_spec()).with_kernel(kernel).build()
            if hooks == "tracer":
                machine.attach_observability(Observability())
            elif hooks == "monitor":
                machine.attach_monitors()
            else:
                install_faults(machine, _smoke_plan(), RecoveryPolicy())
            result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
            runs[kernel] = (
                result.cycles,
                machine.sim.events_processed,
                {name: pe.stats.as_dict() for name, pe in machine.pes.items()},
                {name: seg.stats.as_dict() for name, seg in machine.segments.items()},
            )
            skipped = machine.sim.events_skipped
        assert runs["compiled"] == runs["heap"]
        if hooks == "tracer":
            assert skipped == 0
        else:
            assert skipped > 0


class TestBuildMachineBackCompat:
    """The legacy keyword entry point stays a thin wrapper of the builder."""

    def test_returns_machine(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)  # the default backend
        machine = build_machine(_spec())
        assert isinstance(machine, Machine)
        assert machine.sim.kernel_name == "heap"

    def test_kernel_kwarg_forwards(self):
        for kernel in BACKENDS:
            assert build_machine(_spec(), kernel=kernel).sim.kernel_name == kernel

    def test_sim_kwarg_forwards(self):
        sim = Simulator(kernel="heap")
        assert build_machine(_spec(), sim=sim).sim is sim

    def test_elaboration_kwargs_match_builder(self):
        legacy = build_machine(
            _spec(), cycles_per_instruction=0.5, arbiter_policy="round_robin"
        )
        built = (
            MachineBuilder(_spec())
            .with_cycles_per_instruction(0.5)
            .with_arbiter_policy("round_robin")
            .build()
        )
        assert {
            name: type(segment.arbiter).__name__
            for name, segment in legacy.segments.items()
        } == {
            name: type(segment.arbiter).__name__
            for name, segment in built.segments.items()
        }
        for machine in (legacy, built):
            assert {pe.cycles_per_instruction for pe in machine.pes.values()} == {0.5}
