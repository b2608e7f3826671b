"""Compiled backend: a calendar run loop, and the fabric's inline tenures.

Observational parity with the heap backend is pinned in
``test_scheduler_parity.py`` (random workloads over every run mode); this
file covers what is *specific* to the compiled backend -- its selection
and the direct-entry representation -- and pins the fabric's inline
one-segment tenures (``Machine.miss_traffic``, ``Machine.poll``): which
tenures run inline, lazy route plans, and parity with the hooked path on
both backends for every arbiter policy.
"""

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.experiments.table2 import TABLE2_CASES
from repro.options import presets
from repro.obs import Probe
from repro.sim.compiled import CompiledSimulator
from repro.sim.fabric import MachineBuilder
from repro.sim.kernel import Interrupt, SimulationError, Simulator
from repro.soc.api import SocAPI


class TestCompiledSimulatorSelection:
    def test_kernel_kwarg(self):
        sim = Simulator(kernel="compiled")
        assert type(sim) is CompiledSimulator
        assert sim.kernel_name == "compiled"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "compiled")
        assert type(Simulator()) is CompiledSimulator

    def test_listed_in_backends(self):
        from repro.sim.kernel import KERNEL_BACKENDS

        assert "compiled" in KERNEL_BACKENDS


def _is_direct_entry(entry, process):
    return type(entry) is tuple and len(entry) == 1 and entry[0] is process


class TestDirectEntries:
    def test_in_horizon_int_yield_uses_bare_tuple(self):
        # Every int yield is a direct entry; a delay of 2 or more sits on
        # the calendar's heap as (when, seq, (process,)).
        sim = Simulator(kernel="compiled")

        def worker():
            yield 5
            yield 5

        process = sim.process(worker())
        sim.step()  # fires the spawn event; reschedules via direct entry
        assert [(when, entry) for when, _seq, entry in sim._queue] == [
            (5, process._target)
        ]
        assert _is_direct_entry(process._target, process)
        sim.run()
        assert sim.now == 10

    @pytest.mark.parametrize(
        "delay, container", [(0, "_current"), (1, "_next"), (2, "_queue"), (300, "_queue")]
    )
    def test_int_yield_lands_in_its_calendar_slot(self, delay, container):
        sim = Simulator(kernel="compiled")

        def worker():
            yield 3  # leave the spawn cycle, so _current is otherwise empty
            yield delay

        process = sim.process(worker())
        sim.step()
        sim.step()  # resumes the worker at cycle 3; it yields ``delay``
        assert sim.now == 3
        entries = getattr(sim, container)
        if container == "_queue":
            entries = [entry for when, _seq, entry in entries if when == 3 + delay]
        assert len(entries) == 1 and _is_direct_entry(entries[0], process)
        assert sim.pending_events == 1
        assert sim.peek() == 3 + delay
        # The spawn proxy, recycled; the delays built no proxy event.
        assert len(sim._timeout_pool) == 1
        sim.run()
        assert sim.now == 3 + delay

    def test_stale_direct_entry_still_delivers_interrupt(self):
        """An interrupt cancels the pending direct entry (stale), but a
        *second* interrupt queued before the stale entry drains must be
        delivered when it fires -- the heap does, so the compiled drain
        must delegate stale entries instead of skipping them."""
        sim = Simulator(kernel="compiled")
        caught = []

        def victim():
            for _ in range(3):
                try:
                    yield 10
                except Interrupt as exc:
                    caught.append((sim.now, str(exc.cause)))

        target = sim.process(victim())

        def attacker():
            yield 2
            target.interrupt("a")
            target.interrupt("b")

        sim.process(attacker())
        sim.run()
        assert caught[:2] == [(2, "a"), (2, "b")]

    def test_event_limit_raises(self):
        sim = Simulator(kernel="compiled")

        def livelock():
            while True:
                yield 1

        sim.process(livelock())
        with pytest.raises(SimulationError):
            sim.run(limit=100)

    def test_negative_delay_rejected(self):
        sim = Simulator(kernel="compiled")

        def bad():
            yield -3

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_non_event_yield_rejected(self):
        sim = Simulator(kernel="compiled")

        def bad():
            yield "soon"

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()


# ---------------------------------------------------------------------------
# Inline tenures against the hooked path
# ---------------------------------------------------------------------------
#
# A bare machine runs its one-segment cache refills and poll reads inline
# (Machine.miss_traffic, Machine.poll); a machine with a probe attached runs
# every tenure through Machine._occupy_path, the reference.  In the names
# below, "specialized" is the bare machine and "generic" the probed one;
# both are run on both backends.


def _machine(preset="GBAVIII", pes=4, kernel="compiled"):
    return MachineBuilder(presets.preset(preset, pes)).with_kernel(kernel).build()


class TestEligibility:
    """Which tenures run inline: one-segment ones of a bare machine."""

    def test_every_preset_has_pairs(self):
        """Every PE of every preset reaches its program memory over one
        segment, so its I-cache refills run inline."""
        for preset in sorted(presets.PRESETS):
            machine = _machine(preset)
            for pe in machine.pes.values():
                plan = machine._plan_for(pe, machine.devices[pe.program_device])
                assert plan.single is not None, (preset, pe.name)

    def test_traced_segment_is_ineligible(self):
        """A traced machine runs no tenure inline: its tracer records
        every tenure, the polls' reads and the cache refills included,
        and its polls never fast-forward."""
        from repro.obs import Observability

        machine = _machine()
        obs = Observability()
        machine.attach_observability(obs)
        run_ofdm(machine, "PPA", OfdmParameters(packets=1))
        tenures = sum(segment.stats.transactions for segment in machine.segments.values())
        assert len(obs.tracer.transactions) == tenures
        assert machine.sim.events_skipped == 0


_ENTRY_POINTS = ("transaction", "miss_traffic", "poll", "atomic_rmw")


class TestLazyBinding:
    @pytest.mark.parametrize(
        "preset,style", [("GBAVIII", "FPA"), ("GBAVII", "PPA"), ("GBAVI", "PPA")]
    )
    def test_run_binds_only_the_pairs_it_uses(self, preset, style):
        """Route plans are bound on a pair's first use: none at build, and
        after a run exactly the (PE, device) pairs the run asked for."""
        machine = _machine(preset)
        assert machine._plan_cache == {}
        used = set()
        for name in _ENTRY_POINTS:
            method = getattr(machine, name)

            def record(pe, device_name, *args, _method=method, **kwargs):
                used.add((pe.name, device_name))
                return _method(pe, device_name, *args, **kwargs)

            setattr(machine, name, record)
        run_ofdm(machine, style, OfdmParameters(packets=1))
        assert used
        assert set(machine._plan_cache) == used


def _parity_machine(preset, kernel, hooked, policy=None):
    machine = (
        MachineBuilder(presets.preset(preset, 4))
        .with_kernel(kernel)
        .with_arbiter_policy(policy)
        .build()
    )
    if hooked:
        machine.attach_probe(Probe())
    return machine


def _on_every_path(run):
    """``run(kernel, hooked)`` on both backends, bare and probed; the bare
    compiled result, after checking that the others equal it."""
    runs = {
        (kernel, hooked): run(kernel, hooked)
        for kernel in ("compiled", "heap")
        for hooked in (False, True)
    }
    reference = runs["compiled", False]
    for path, result in runs.items():
        assert result == reference, path
    return reference


class TestSpecializedParity:
    @pytest.mark.parametrize("preset,style", [("GBAVIII", "FPA"), ("GBAVII", "PPA")])
    def test_specialized_matches_generic(self, preset, style):
        """Inline tenures are bit-identical to the hooked path (GBAVII adds
        DMA masters, whose routes are bridged)."""

        def run(kernel, hooked):
            machine = _parity_machine(preset, kernel, hooked)
            result = run_ofdm(machine, style, OfdmParameters(packets=1))
            return result.cycles, result.throughput_mbps, vars(
                machine.run_report(name="parity")
            )

        _on_every_path(run)

    @pytest.mark.parametrize("policy", ["fcfs", "round_robin", "priority"])
    @pytest.mark.parametrize("preset", ["GBAVIII", "SPLITBA", "GBAVI"])
    def test_every_policy_matches_generic(self, preset, policy):
        """On contended PPA traffic the inline tenures grant, queue and
        count exactly like the hooked path under every arbiter policy."""

        def run(kernel, hooked):
            machine = _parity_machine(preset, kernel, hooked, policy)
            result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
            waited = sum(
                segment.arbiter.wait_cycles for segment in machine.segments.values()
            )
            return (
                result.cycles,
                result.throughput_mbps,
                vars(machine.run_report(name="parity")),
                waited,
            )

        assert _on_every_path(run)[-1] > 0, "the case must contend for a bus"


def _run_snapshot(machine):
    """Everything a run leaves behind that an inline poll could get
    wrong."""
    return {
        "report": vars(machine.run_report(name="parity")),
        "pes": {name: vars(pe.stats) for name, pe in machine.pes.items()},
        "finished": {name: pe.finished_at for name, pe in machine.pes.items()},
        "segments": {name: vars(seg.stats) for name, seg in machine.segments.items()},
        # Where each shared control variable landed: slots are allocated
        # at a variable's first read or write.
        "slots": {name: dict(shared._slots) for name, shared in machine.shared_vars.items()},
    }


class TestPollParity:
    """``Machine.poll`` with its inline probe and read against the hooked
    path."""

    @pytest.mark.parametrize(
        "case", TABLE2_CASES, ids=["%d-%s-%s" % case for case in TABLE2_CASES]
    )
    def test_table2_case_matches_generic(self, case):
        _number, preset, style = case
        skipped = {}

        def run(kernel, hooked):
            machine = _parity_machine(preset, kernel, hooked)
            result = run_ofdm(machine, style, OfdmParameters(packets=1))
            skipped[kernel, hooked] = machine.sim.events_skipped
            snapshot = _run_snapshot(machine)
            snapshot["cycles"] = result.cycles
            return snapshot

        _on_every_path(run)
        # Only the bare compiled machine fast-forwards its polls.
        jumped = {path for path, count in skipped.items() if count}
        assert jumped <= {("compiled", False)}
        if style == "PPA":
            assert jumped == {("compiled", False)}

    @pytest.mark.parametrize("preset,kind", [("GBAVI", "reg"), ("GBAVIII", "var")])
    def test_cold_icache_probe_matches_generic(self, preset, kind):
        """A PE whose first instructions are a poll probe misses in its
        cold I-cache; the inline probe turns the misses into the same bus
        traffic as ``ProcessingElement.compute``, and allocates a shared
        variable's slot at its first read, after the probe, so a variable
        another PE writes meanwhile comes first."""

        def run(kernel, hooked):
            machine = _parity_machine(preset, kernel, hooked)
            waiter, setter = SocAPI(machine, "B"), SocAPI(machine, "A")
            waiter.poll_probe_instructions = 200  # 25 I-cache lines

            def wait():
                if kind == "reg":
                    yield from waiter.reg_wait("HS_REGS_B", "DONE_OP", 1)
                else:
                    yield from waiter.var_wait("GO", 1)

            def release():
                if kind == "var":
                    yield from setter.var_write("OTHER", 1)
                yield from setter.stall(900)
                if kind == "reg":
                    machine.devices["HS_REGS_B"].target.write("DONE_OP", 1)
                else:
                    machine.shared_vars[machine.global_memory].poke("GO", 1)

            waiter.pe.run(wait())
            setter.pe.run(release())
            machine.sim.run()
            # Every probe walks 25 lines of a cold 256-line footprint.
            assert waiter.pe.stats.icache_misses == 25 * waiter.pe.stats.handshake_polls
            assert waiter.pe.stats.handshake_polls > 2
            if kind == "var":
                slots = machine.shared_vars[machine.global_memory]._slots
                assert list(slots) == ["OTHER", "GO"]
            return _run_snapshot(machine)

        _on_every_path(run)
