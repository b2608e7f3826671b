"""Tests for the fault-injection subsystem (repro.faults).

Covers the chaos invariants end to end -- empty-plan bit-identity, plan
determinism, per-kind recovery behaviour, watchdog reclaim, timeout
withdrawal, backend parity -- plus the ``repro chaos`` CLI verb.
"""

import json

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.cli import main
from repro.faults import (
    BusTimeoutError,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RecoveryPolicy,
    SCENARIOS,
    compile_plan,
    empty_plan,
    install_faults,
)
from repro.faults.chaos import run_chaos, run_chaos_case
from repro.obs import Observability, Probe
from repro.options import presets
from repro.sim.fabric import build_machine


def _machine(arch="GBAVIII", pes=2, kernel="heap"):
    return build_machine(presets.preset(arch, pes), kernel=kernel)


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        machine_a = _machine()
        machine_b = _machine()
        plan_a = compile_plan(machine_a, SCENARIOS["default"], seed=7)
        plan_b = compile_plan(machine_b, SCENARIOS["default"], seed=7)
        assert plan_a.faults == plan_b.faults
        assert plan_a.describe() == plan_b.describe()

    def test_different_seed_different_plan(self):
        machine = _machine()
        plan_a = compile_plan(machine, SCENARIOS["default"], seed=0)
        plan_b = compile_plan(machine, SCENARIOS["default"], seed=1)
        assert plan_a.faults != plan_b.faults

    def test_sites_are_real(self):
        machine = _machine("BFBA", 4)
        plan = compile_plan(machine, SCENARIOS["heavy"], seed=3)
        segment_names = set(machine.segments)
        arbiter_names = {s.arbiter.name for s in machine.segments.values()}
        fifo_names = set()
        for block in machine.fifo_blocks.values():
            fifo_names.update((block.up.name, block.down.name))
        memory_names = {
            name for name, d in machine.devices.items() if d.kind == "memory"
        }
        for spec in plan.faults:
            if spec.kind == FaultKind.BUS_FLIP:
                assert spec.site in segment_names
            elif spec.kind in (FaultKind.FIFO_DROP, FaultKind.FIFO_DUP):
                assert spec.site in fifo_names
            elif spec.kind in (FaultKind.GRANT_LOST, FaultKind.GRANT_STUCK):
                assert spec.site in arbiter_names
            elif spec.kind == FaultKind.MEM_JITTER:
                assert spec.site in memory_names
            elif spec.kind == FaultKind.PE_CRASH:
                assert spec.site in machine.pes

    def test_grant_lost_needs_contention(self):
        # BFBA local buses each carry one master; a grant_lost planted there
        # would be structurally dormant, so the pool must exclude them.
        from repro.faults.plan import _sites

        sites = _sites(_machine("BFBA", 4))
        assert set(sites["arbiters_contended"]) <= set(sites["arbiters"])

    def test_empty_plan(self):
        plan = empty_plan()
        assert plan.is_empty
        assert plan.by_kind() == {}


# ---------------------------------------------------------------------------
# Per-kind recovery behaviour
# ---------------------------------------------------------------------------


def _run_wedged_victim(machine):
    """Wedge the machine's first segment with a hog that never releases,
    guard it, and run a victim's guarded acquisition (2, 4 and 8-cycle
    timeouts) to exhaustion; returns the segment, the injector and the
    victim's outcome."""
    segment = machine.segments[sorted(machine.segments)[0]]
    arbiter = segment.arbiter
    # Guard the segment via a stuck-grant fault that never fires.
    plan = FaultPlan(
        [FaultSpec(FaultKind.GRANT_STUCK, arbiter.name, at=10**9, param=1)]
    )
    policy = RecoveryPolicy(timeout_cycles=2, max_escalations=3)
    injector = install_faults(machine, plan, policy)
    outcome = []

    def victim():
        try:
            yield from injector.acquire(segment, "victim")
        except BusTimeoutError:
            outcome.append("timeout")
        else:  # pragma: no cover - the hog never releases
            outcome.append("granted")

    assert arbiter.try_claim("hog")  # wedge the bus forever
    machine.sim.process(victim(), "victim")
    machine.sim.run(until=1000)
    return segment, injector, outcome


class TestInjectorUnits:
    def test_corrupt_flips_one_bit(self):
        spec = FaultSpec(FaultKind.BUS_FLIP, "seg", at=1, param=5)
        values = [0, 0, 0]
        out = FaultInjector.corrupt(values, spec)
        assert values == [0, 0, 0]  # input untouched
        assert out == [0, 1 << 5, 0]

    def test_memory_jitter_is_accounted(self):
        machine = _machine()
        memory = sorted(
            name for name, d in machine.devices.items() if d.kind == "memory"
        )[0]
        plan = FaultPlan([FaultSpec(FaultKind.MEM_JITTER, memory, at=1, param=9)])
        injector = install_faults(machine, plan)
        assert injector.memory_jitter(memory) == 0  # ordinal 0: dormant
        assert injector.memory_jitter(memory) == 9  # ordinal 1: fires
        assert injector.memory_jitter(memory) == 0  # window passed
        report = injector.resilience_report()
        assert report.injected == 1
        assert report.accounted == 1
        assert report.check() == []

    def test_fifo_drop_goes_on_retransmit_ledger(self):
        machine = _machine("BFBA", 2)
        block = machine.fifo_blocks[sorted(machine.fifo_blocks)[0]]
        fifo = block.up
        plan = FaultPlan([FaultSpec(FaultKind.FIFO_DROP, fifo.name, at=0, param=2)])
        injector = install_faults(machine, plan)
        kept = injector.filter_push(fifo, [1, 2, 3, 4])
        assert kept == [1, 2]
        assert injector.has_fifo_event(fifo)
        [(episode, lost)] = injector._pending_drops[fifo.name]
        assert lost == [3, 4]
        assert episode["outcome"] is None  # open until retransmitted

    def test_fifo_dup_is_discarded_not_queued(self):
        machine = _machine("BFBA", 2)
        fifo = machine.fifo_blocks[sorted(machine.fifo_blocks)[0]].down
        plan = FaultPlan([FaultSpec(FaultKind.FIFO_DUP, fifo.name, at=0, param=1)])
        injector = install_faults(machine, plan)
        kept = injector.filter_push(fifo, [7, 8])
        assert kept == [7, 8]  # dup never enters the FIFO payload
        assert injector.has_fifo_event(fifo)

    def test_stuck_grant_watchdog_reclaims(self):
        machine = _machine()
        segment = machine.segments[sorted(machine.segments)[0]]
        arbiter = segment.arbiter
        plan = FaultPlan(
            [FaultSpec(FaultKind.GRANT_STUCK, arbiter.name, at=10, param=40)]
        )
        injector = install_faults(machine, plan, RecoveryPolicy(watchdog_cycles=50))
        machine.sim.run(until=200)
        assert injector.watchdog_reclaims == 1
        assert arbiter.owner is None  # reclaimed, not wedged
        report = injector.resilience_report()
        assert report.recovered == 1
        assert report.check() == []

    def test_lost_grant_is_redelivered(self):
        machine = _machine()
        segment = machine.segments[sorted(machine.segments)[0]]
        arbiter = segment.arbiter
        plan = FaultPlan([FaultSpec(FaultKind.GRANT_LOST, arbiter.name, at=0)])
        injector = install_faults(machine, plan, RecoveryPolicy(watchdog_cycles=20))
        sim = machine.sim
        granted_at = []

        def hog():
            assert arbiter.try_claim("hog")
            yield 5
            arbiter.release("hog")

        def victim():
            grant = arbiter.request("victim")
            yield grant
            granted_at.append(sim.now)
            arbiter.release("victim")

        sim.process(hog(), "hog")
        sim.process(victim(), "victim")
        sim.run()
        # Dispatch at cycle 5 lost its pulse; the watchdog redelivered it.
        assert granted_at == [25]
        assert injector.grant_redeliveries == 1
        assert injector.resilience_report().recovered == 1

    def test_timeout_exhaustion_withdraws_the_request(self):
        machine = _machine()
        segment, injector, outcome = _run_wedged_victim(machine)
        assert segment.name in injector.guarded_segments
        assert outcome == ["timeout"]
        assert injector.timeouts == injector.policy.max_escalations
        # The withdrawn request must not linger: a posthumous dispatch to a
        # dead master would wedge the segment for every later requester.
        assert segment.arbiter.pending_count == 0

    def test_pe_crash_restart_flushes_caches(self):
        machine = _machine()
        pe_name = sorted(machine.pes)[0]
        plan = FaultPlan([FaultSpec(FaultKind.PE_CRASH, pe_name, at=0, param=30)])
        injector = install_faults(machine, plan)
        assert injector.crash_due(pe_name)
        assert not injector.crash_due(pe_name)  # one-shot window


# ---------------------------------------------------------------------------
# Fault episodes reach observers through Probe.on_fault
# ---------------------------------------------------------------------------


class _FaultLog(Probe):
    """Records every ``on_fault`` call."""

    def __init__(self):
        self.calls = []

    def on_fault(self, *args):
        self.calls.append(args)


def _faulted_run(kernel, *probes, attach_first=True):
    """GBAVIII/FPA at two packets under the heavy scenario (stuck grants
    and PE crashes: recovered and accounted episodes), observed by
    ``probes`` attached before or after the faults are installed; returns
    the injector."""
    machine = _machine("GBAVIII", 4, kernel)

    def attach():
        for probe in probes:
            if isinstance(probe, Observability):
                machine.attach_observability(probe)
            else:
                machine.attach_probe(probe)

    if attach_first:
        attach()
    injector = install_faults(
        machine, compile_plan(machine, SCENARIOS["heavy"], 5), RecoveryPolicy()
    )
    if not attach_first:
        attach()
    run_ofdm(machine, "FPA", OfdmParameters(packets=2))
    assert injector.injected and injector.recovered and injector.accounted
    assert all(episode["outcome"] for episode in injector.outcomes)
    return injector


class TestFaultObservation:
    @pytest.mark.parametrize("attach_first", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("kernel", ["heap", "compiled"])
    def test_plain_probe_receives_on_fault(self, kernel, attach_first):
        # The injector reads the machine's probe slot at each episode, so
        # a probe attached after install_faults sees every fault too.
        log = _FaultLog()
        injector = _faulted_run(kernel, log, attach_first=attach_first)
        episodes = injector.outcomes
        # Injections arrive in firing order, each outcome with its latency.
        assert [call for call in log.calls if call[3] == "inject"] == [
            (episode["cycle"], episode["site"], episode["kind"], "inject", None)
            for episode in episodes
        ]
        assert sorted(call for call in log.calls if call[3] != "inject") == sorted(
            (
                episode["resolved"],
                episode["site"],
                episode["kind"],
                episode["outcome"],
                episode["latency"],
            )
            for episode in episodes
        )

    @pytest.mark.parametrize("kernel", ["heap", "compiled"])
    def test_traced_run_records_fault_marks_and_metrics(self, kernel):
        obs = Observability()
        log = _FaultLog()
        injector = _faulted_run(kernel, obs, log)
        episodes = injector.outcomes
        marks = [
            (cycle, name, args["site"])
            for cycle, lane, name, args in obs.tracer.instants
            if lane == "faults"
        ]
        expected = [
            (episode["cycle"], "%s inject" % episode["kind"], episode["site"])
            for episode in episodes
        ] + [
            (
                episode["resolved"],
                "%s %s" % (episode["kind"], episode["outcome"]),
                episode["site"],
            )
            for episode in episodes
        ]
        assert sorted(marks) == sorted(expected)
        # The fan-out hands the same episodes to every probe.
        assert len(log.calls) == len(marks)

        registry = obs.registry
        assert registry.get("faults.injected").value == injector.injected
        for kind in {episode["kind"] for episode in episodes}:
            assert registry.get("faults.injected.%s" % kind).value == sum(
                episode["kind"] == kind for episode in episodes
            )
        assert registry.get("faults.recovered").value == injector.recovered
        assert registry.get("faults.accounted").value == injector.accounted
        assert registry.get("faults.residual") is None  # created on first use
        latency = registry.get("faults.recovery_latency")
        assert latency.count == len(injector.recovery_latencies)
        assert latency.total == sum(injector.recovery_latencies)

    @pytest.mark.parametrize("kernel", ["heap", "compiled"])
    def test_bus_timeouts_are_marked_detect(self, kernel):
        machine = _machine(kernel=kernel)
        obs = Observability()
        machine.attach_observability(obs)
        segment, injector, outcome = _run_wedged_victim(machine)
        assert outcome == ["timeout"]
        assert obs.tracer.instants == [
            (cycle, "faults", "bus_timeout detect", {"site": segment.name})
            for cycle in (2, 6, 14)
        ]
        # A detection opens no episode, so it counts nothing.
        assert not [name for name in obs.registry.names() if name.startswith("faults")]


# ---------------------------------------------------------------------------
# End-to-end chaos invariants
# ---------------------------------------------------------------------------


class TestChaosInvariants:
    @pytest.mark.parametrize("backend", ["heap", "compiled"])
    def test_empty_plan_is_bit_identical(self, backend):
        case = ("GBAVIII", "FPA", backend, "baseline")
        baseline = run_chaos_case(case, packets=2)
        empty = run_chaos_case(("GBAVIII", "FPA", backend, "empty"), packets=2)
        assert empty["cycles"] == baseline["cycles"]
        assert empty["throughput_mbps"] == baseline["throughput_mbps"]
        assert empty["resilience"]["injected"] == 0

    def test_faulted_outcomes_identical_across_backends(self):
        heap = run_chaos_case(("BFBA", "PPA", "heap", "faulted"), packets=2)
        compiled = run_chaos_case(("BFBA", "PPA", "compiled", "faulted"), packets=2)
        assert heap["cycles"] == compiled["cycles"]
        heap_res = dict(heap["resilience"], name="")
        compiled_res = dict(compiled["resilience"], name="")
        assert heap_res == compiled_res
        assert heap["resilience"]["injected"] > 0

    def test_full_smoke_sweep_holds_all_invariants(self):
        summary = run_chaos(seed=0, scenario="smoke", packets=2, jobs=1)
        assert summary["failures"] == []
        assert summary["ok"]
        for row in summary["cases"]:
            if row["mode"] == "faulted":
                resilience = row["resilience"]
                assert resilience["unaccounted"] == 0
                assert (
                    resilience["injected"]
                    == resilience["recovered"]
                    + resilience["residual"]
                    + resilience["accounted"]
                )

    def test_a_dead_pe_is_an_invariant_failure(self):
        # FPA at 33 packets runs out of shared variables, so PE A's program
        # raises: the case reports it instead of timing the survivors.
        row = run_chaos_case(("GBAVIII", "FPA", "heap", "baseline"), packets=33)
        assert row["cycles"] is None and row["throughput_mbps"] is None
        assert row["invariant_failures"] == ["GBAVIII: PE MPC755_A did not complete"]

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_chaos(scenario="nope")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestChaosCli:
    def test_chaos_smoke_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        code = main(
            [
                "chaos",
                "--smoke",
                "--arch",
                "GBAVIII",
                "--backend",
                "heap",
                "--packets",
                "2",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "all invariants hold" in captured.out
        summary = json.loads(out.read_text())
        assert summary["ok"]
        assert summary["architectures"] == ["GBAVIII"]
