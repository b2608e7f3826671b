"""Gen-3 compiled backend: a calendar run loop + fabric specializer.

Observational parity with the heap backend is pinned in
``test_scheduler_parity.py`` (random workloads over every run mode); this
file covers what is *specific* to the compiled backend: the direct-entry
representation, the specializer's eligibility rules, lazy per-pair
binding, install/remove life cycle, and parity with the generic fabric
for every arbiter policy.
"""

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.experiments.table2 import TABLE2_CASES
from repro.options import presets
from repro.sim.compiled import CompiledSimulator
from repro.sim.compiled.specializer import eligible_pairs, specialize_machine
from repro.sim.fabric import MachineBuilder, build_machine
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
# Fabric specializer
# ---------------------------------------------------------------------------


def _machine(preset="GBAVIII", pes=4, kernel="compiled"):
    return build_machine(presets.preset(preset, pes), kernel=kernel)


class TestEligibility:
    def test_memory_and_hsregs_only(self):
        machine = _machine()
        kinds = {device.kind for _pe, device, _seg in eligible_pairs(machine)}
        assert kinds <= {"memory", "hsregs"}

    def test_every_preset_has_pairs(self):
        for preset in sorted(presets.PRESETS):
            machine = _machine(preset)
            assert machine._specialized, preset
            pairs = list(eligible_pairs(machine))
            assert pairs, "no eligible pairs on %s" % preset

    def test_traced_segment_is_ineligible(self):
        from repro.obs import Observability

        machine = _machine()
        machine.attach_observability(Observability())
        assert list(eligible_pairs(machine)) == []


def _bound_constants(function):
    """The int and str values a bound pair's closure captured: master name,
    grant cycles, words per beat, beat cycles and counter base."""
    return {
        name: cell.cell_contents
        for name, cell in zip(function.__code__.co_freevars, function.__closure__)
        if type(cell.cell_contents) in (int, str)
    }


def _bind_every_pair(machine):
    """Look up every eligible pair in both tables, binding each one."""
    bound = []
    for table in (machine.transaction.bindings, machine.miss_traffic.bindings):
        for pe, device, _segment in eligible_pairs(machine):
            function = table[pe.name, device.name]
            if function is not None:
                bound.append(((pe.name, device.name), function))
    return bound


class TestSpecializeLifecycle:
    def test_binding_is_deterministic(self):
        bound_a = _bind_every_pair(_machine())
        bound_b = _bind_every_pair(_machine())
        assert bound_a
        assert [pair for pair, _fn in bound_a] == [pair for pair, _fn in bound_b]
        assert [_bound_constants(fn) for _pair, fn in bound_a] == [
            _bound_constants(fn) for _pair, fn in bound_b
        ]

    def test_bound_pairs_run_standalone(self):
        # Every eligible pair binds a function that moves real data on its
        # own, outside any application: a write, a read-back and, for a
        # memory, one group of cache misses, each one bus tenure.
        machine = _machine()
        pairs = list(eligible_pairs(machine))
        assert pairs
        results = []

        def drive():
            for pe, device, segment in pairs:
                before = segment.stats.transactions
                address = 0 if device.kind == "memory" else 1
                yield from machine.transaction(pe, device.name, address, 1, True, [7])
                values = yield from machine.transaction(pe, device.name, address, 1, False)
                if device.kind == "memory":
                    yield from machine.miss_traffic(pe, device.name, 3, 8, False)
                results.append((values, segment.stats.transactions - before))

        machine.sim.process(drive())
        machine.sim.run()
        assert results == [
            ([7], 3 if device.kind == "memory" else 2) for _pe, device, _seg in pairs
        ]
        for pe, device, _segment in pairs:
            assert machine.transaction.bindings[pe.name, device.name] is not None

    def test_install_is_idempotent(self):
        machine = _machine()
        assert machine._specialized
        dispatch = machine.__dict__["transaction"]
        assert specialize_machine(machine)  # second call: no-op, still True
        assert machine.__dict__["transaction"] is dispatch

    def test_heap_machine_never_specializes(self):
        # The builder gates specialization on the compiled kernel; a heap
        # build keeps the generic class-level dispatch.
        machine = _machine(kernel="heap")
        assert not machine._specialized
        assert "transaction" not in machine.__dict__

    def test_despecialize_restores_class_methods(self):
        machine = _machine()
        assert "transaction" in machine.__dict__
        machine._despecialize()
        assert "transaction" not in machine.__dict__
        assert "miss_traffic" not in machine.__dict__
        assert not machine._specialized
        # The class-level generic path still works after removal.
        assert machine.transaction.__self__ is machine

    def test_attach_monitors_despecializes(self):
        machine = _machine()
        machine.attach_monitors()
        assert not machine._specialized

    def test_install_faults_despecializes(self):
        from repro.faults import SMOKE_SCENARIO, compile_plan, install_faults

        machine = _machine()
        plan = compile_plan(machine, SMOKE_SCENARIO, seed=1)
        install_faults(machine, plan)
        assert not machine._specialized


class TestSpecializedParity:
    @pytest.mark.parametrize("preset,style", [("GBAVIII", "FPA"), ("GBAVII", "PPA")])
    def test_specialized_matches_generic(self, preset, style):
        """Specialized dispatch is bit-identical to the generic fabric path
        on the same compiled kernel (GBAVII adds DMA masters, which fall
        through the jump table to the generic path)."""

        def run(specialize):
            builder = MachineBuilder(presets.preset(preset, 4)).with_kernel("compiled")
            if not specialize:
                builder.without_specialization()
            machine = builder.build()
            assert machine._specialized == specialize
            result = run_ofdm(machine, style, OfdmParameters(packets=1))
            return result.cycles, result.throughput_mbps, vars(
                machine.run_report(name="parity")
            )

        assert run(True) == run(False)

    @pytest.mark.parametrize("policy", ["fcfs", "round_robin", "priority"])
    @pytest.mark.parametrize("preset", ["GBAVIII", "SPLITBA", "GBAVI"])
    def test_every_policy_matches_generic(self, preset, policy):
        """Every arbiter policy is eligible: on contended PPA traffic the
        closures grant, queue and count exactly like the generic path
        (GBAVI's register polls take the fused poll loops)."""

        def run(specialize):
            builder = (
                MachineBuilder(presets.preset(preset, 4))
                .with_kernel("compiled")
                .with_arbiter_policy(policy)
            )
            if not specialize:
                builder.without_specialization()
            machine = builder.build()
            machine.attach_counters()
            result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
            assert machine._specialized == specialize
            plane = machine.counters
            assert plane.check_against_stats(machine) == []
            waited = sum(
                segment.arbiter.wait_cycles for segment in machine.segments.values()
            )
            return (
                result.cycles,
                result.throughput_mbps,
                vars(machine.run_report(name="parity")),
                plane.totals(),
                waited,
            )

        specialized = run(True)
        assert specialized[-1] > 0, "the case must contend for a bus"
        assert specialized == run(False)


def _counted_snapshot(machine):
    """Everything a counted run leaves behind that the fused poll loops
    could get wrong."""
    plane = machine.counters
    assert plane.check_against_stats(machine) == []
    return {
        "report": vars(machine.run_report(name="parity")),
        "pes": {name: vars(pe.stats) for name, pe in machine.pes.items()},
        "finished": {name: pe.finished_at for name, pe in machine.pes.items()},
        "segments": {name: vars(seg.stats) for name, seg in machine.segments.items()},
        "counters": plane.totals(),
        # Where each shared control variable landed: slots are allocated
        # at a variable's first read or write.
        "slots": {name: dict(shared._slots) for name, shared in machine.shared_vars.items()},
    }


def _counted_machine(preset, specialize):
    builder = MachineBuilder(presets.preset(preset, 4)).with_kernel("compiled")
    if not specialize:
        builder.without_specialization()
    machine = builder.build()
    machine.attach_counters()
    assert machine._specialized == specialize
    return machine


class TestPollParity:
    """The fused poll loops against ``Machine.poll`` on the same kernel."""

    @pytest.mark.parametrize(
        "case", TABLE2_CASES, ids=["%d-%s-%s" % case for case in TABLE2_CASES]
    )
    def test_table2_case_matches_generic(self, case):
        _number, preset, style = case

        def run(specialize):
            machine = _counted_machine(preset, specialize)
            result = run_ofdm(machine, style, OfdmParameters(packets=1))
            snapshot = _counted_snapshot(machine)
            snapshot["cycles"] = result.cycles
            return snapshot, machine

        specialized, machine = run(True)
        generic, _ = run(False)
        assert specialized == generic
        if style == "PPA":
            assert any(machine.poll.bindings.values())

    @pytest.mark.parametrize("preset,kind", [("GBAVI", "reg"), ("GBAVIII", "var")])
    def test_cold_icache_probe_matches_generic(self, preset, kind):
        """A PE whose first instructions are a poll probe misses in its
        cold I-cache; the fused loop turns the misses into the same bus
        traffic as ``ProcessingElement.compute``, and allocates a shared
        variable's slot at its first read, after the probe, so a variable
        another PE writes meanwhile comes first."""

        def run(specialize):
            machine = _counted_machine(preset, specialize)
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
            if specialize:
                pair = (waiter.pe.name, "HS_REGS_B" if kind == "reg" else machine.global_memory)
                assert machine.poll.bindings[pair] is not None
            return _counted_snapshot(machine)

        assert run(True) == run(False)


_DISPATCH = ("transaction", "miss_traffic", "poll")


def _used_pairs(preset, style):
    """(transaction, miss-traffic, poll) pairs a generic run asks for.

    A generic poll reads through ``transaction``, so its pairs are
    transaction pairs too.
    """
    machine = (
        MachineBuilder(presets.preset(preset, 4))
        .with_kernel("compiled")
        .without_specialization()
        .build()
    )
    used = (set(), set(), set())
    for index, name in enumerate(_DISPATCH):
        generic = getattr(machine, name)

        def record(pe, device_name, *args, _generic=generic, _used=used[index], **kw):
            _used.add((pe.name, device_name))
            return _generic(pe, device_name, *args, **kw)

        setattr(machine, name, record)
    run_ofdm(machine, style, OfdmParameters(packets=1))
    return used


class TestLazyBinding:
    def test_despecialized_machine_binds_nothing(self):
        machine = _machine()
        dispatch = [getattr(machine, name) for name in _DISPATCH]
        machine.attach_monitors()
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        assert [len(function.bindings) for function in dispatch] == [0, 0, 0]

    @pytest.mark.parametrize(
        "preset,style", [("GBAVIII", "FPA"), ("GBAVII", "PPA"), ("GBAVI", "PPA")]
    )
    def test_run_binds_only_the_pairs_it_uses(self, preset, style):
        machine = MachineBuilder(presets.preset(preset, 4)).with_kernel("compiled").build()
        run_ofdm(machine, style, OfdmParameters(packets=1))
        txn, miss, poll = (getattr(machine, name).bindings for name in _DISPATCH)
        used_txn, used_miss, used_poll = _used_pairs(preset, style)
        fused = {pair for pair, function in poll.items() if function is not None}
        # A fused poll reads inline; a generic one through transaction.
        assert set(txn) | fused == used_txn
        assert set(miss) == used_miss
        assert set(poll) == used_poll
        eligible = {(pe.name, device.name) for pe, device, _seg in eligible_pairs(machine)}
        bound = {pair for pair, function in txn.items() if function is not None}
        assert bound == set(txn) & eligible
        assert fused == used_poll & eligible
        assert bound < eligible
        if style == "PPA":
            assert fused, "the pipeline's polls must take the fused loops"
