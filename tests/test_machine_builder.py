"""MachineBuilder: one composition point for kernels, tracers, monitors,
fault injectors.

The builder must be *behaviour-preserving*: for every combination of
{tracer, monitor, faults} x {heap, compiled}, a machine composed
through :class:`repro.sim.fabric.MachineBuilder` must produce RunReport
telemetry identical to the legacy path (``build_machine`` + manual
``attach_*``/``install_faults`` calls).  ``build_machine`` itself stays as
a thin keyword wrapper over the builder and is tested as such.

The compiled backend makes the ordering rules observable: hooks force the
generic instrumented fabric paths (no specialization), while a hook-free
compiled build installs specialized dispatch -- both are pinned here.
"""

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.faults import RecoveryPolicy, SMOKE_SCENARIO, compile_plan, install_faults
from repro.obs import Observability
from repro.options import presets
from repro.sim.fabric import Machine, MachineBuilder, build_machine
from repro.sim.kernel import KERNEL_BACKENDS, KERNEL_ENV, Simulator
from repro.verify import ProtocolMonitor

BACKENDS = list(KERNEL_BACKENDS)
HOOKS = ["none", "tracer", "monitor", "faults", "all"]


def _spec():
    return presets.preset("BFBA", 4)


def _smoke_plan():
    # Plans bind fault sites by *name*, so one compiled against a throwaway
    # machine of the same spec drives any other machine built from it.
    scratch = build_machine(_spec())
    return compile_plan(scratch, SMOKE_SCENARIO, seed=3)


def _run_and_report(machine, hooks):
    result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
    report = machine.run_report(name="builder-parity")
    summary = dict(vars(report))
    summary["throughput_mbps"] = result.throughput_mbps
    summary["app_cycles"] = result.cycles
    if machine._faults is not None:
        fault_report = machine._faults.resilience_report()
        summary["faults"] = (fault_report.injected, fault_report.recovered)
        assert fault_report.check() == []
    monitors = [probe for probe in machine._probes if isinstance(probe, ProtocolMonitor)]
    assert len(monitors) == (1 if hooks in ("monitor", "all") else 0)
    for monitor in monitors:
        assert monitor.finalize(cycle=machine.sim.now) == []
        summary["monitor"] = (monitor.grants_observed, monitor.transfers_opened)
    return summary


def _legacy_machine(kernel, hooks, plan):
    machine = build_machine(_spec(), kernel=kernel)
    if hooks in ("tracer", "all"):
        machine.attach_observability(Observability())
    if hooks in ("monitor", "all"):
        machine.attach_monitors()
    if hooks in ("faults", "all"):
        install_faults(machine, plan, RecoveryPolicy())
    return machine


def _built_machine(kernel, hooks, plan):
    builder = MachineBuilder(_spec()).with_kernel(kernel)
    if hooks in ("tracer", "all"):
        builder.with_observability(Observability())
    if hooks in ("monitor", "all"):
        builder.with_monitors()
    if hooks in ("faults", "all"):
        builder.with_faults(plan, RecoveryPolicy())
    return builder.build()


class TestBuilderMatchesLegacyPath:
    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("hooks", HOOKS)
    def test_identical_run_report_telemetry(self, kernel, hooks):
        plan = _smoke_plan() if hooks in ("faults", "all") else None
        legacy = _run_and_report(_legacy_machine(kernel, hooks, plan), hooks)
        built = _run_and_report(_built_machine(kernel, hooks, plan), hooks)
        assert built == legacy


class TestBuilderComposition:
    def test_with_sim_uses_given_simulator(self):
        sim = Simulator(kernel="compiled")
        machine = MachineBuilder(_spec()).with_sim(sim).build()
        assert machine.sim is sim

    def test_fluent_calls_return_builder(self):
        builder = MachineBuilder(_spec())
        assert builder.with_kernel("heap") is builder
        assert builder.with_trace_hsregs() is builder
        assert builder.with_cycles_per_instruction(0.5) is builder
        assert builder.with_arbiter_policy(None) is builder
        assert builder.without_specialization() is builder

    def test_compiled_without_hooks_specializes(self):
        machine = MachineBuilder(_spec()).with_kernel("compiled").build()
        assert machine._specialized
        assert "transaction" in machine.__dict__
        assert "miss_traffic" in machine.__dict__
        # Pairs bind on their first transaction, not at build.
        assert machine.transaction.bindings == {}
        assert machine.miss_traffic.bindings == {}

    @pytest.mark.parametrize("hooks", ["tracer", "monitor", "faults"])
    def test_compiled_with_hooks_stays_generic(self, hooks):
        plan = _smoke_plan() if hooks == "faults" else None
        machine = _built_machine("compiled", hooks, plan)
        assert not machine._specialized
        assert "transaction" not in machine.__dict__

    def test_without_specialization_opts_out(self):
        machine = (
            MachineBuilder(_spec())
            .with_kernel("compiled")
            .without_specialization()
            .build()
        )
        assert not machine._specialized

    def test_non_compiled_backends_never_specialize(self):
        machine = MachineBuilder(_spec()).with_kernel("heap").build()
        assert not machine._specialized


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
            _spec(), trace_hsregs=True, cycles_per_instruction=0.5,
            arbiter_policy="round_robin",
        )
        built = (
            MachineBuilder(_spec())
            .with_trace_hsregs()
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
        for ban, block in legacy.hs_blocks.items():
            assert block.trace_enabled and built.hs_blocks[ban].trace_enabled

    def test_compiled_kwarg_specializes_like_builder(self):
        machine = build_machine(_spec(), kernel="compiled")
        assert machine._specialized
