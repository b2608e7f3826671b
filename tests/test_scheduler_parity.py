"""Differential tests: heap vs compiled scheduler backends.

The compiled backend (``repro.sim.compiled.CompiledSimulator``) must be
observationally identical to the heap backend: same event firing order,
same process wake order, same final clock, same event accounting.  These
tests execute the *same* workload on every backend and compare execution
logs, concentrating on the places where the compiled backend's calendar
(this cycle's list, next cycle's list, a heap for later) -- and its direct
entries (bare ``(process,)`` tuples with no proxy event) and inline event
resumes -- could plausibly diverge from the heap's ``(when, seq)`` order:

* same-cycle tie-breaks between events scheduled through different paths
  (int fast path, ``timeout()``, composite re-arms, interrupts);
* the delay 0/1/2 boundary, where an entry moves between the two lists
  and the heap, and long delays around 256 (the retired wheel's horizon);
* heap entries landing on the same cycle as list entries (the
  heap-drains-first rule);
* ``Interrupt`` delivered while the victim waits on a pooled timeout (on
  the compiled backend: a *stale direct entry* that must still deliver a
  queued interrupt when it drains);
* request withdrawal via ``Arbiter.cancel`` mid-contention;
* ``run(until=...)`` deadline splits mid-stream.
"""

import random

import pytest

from repro.experiments.table2 import TABLE2_CASES
from repro.sim.compiled import CompiledSimulator
from repro.sim.hsregs import HandshakeRegisters
from repro.sim.kernel import (
    KERNEL_BACKENDS,
    Interrupt,
    SimulationError,
    Simulator,
    default_kernel,
    set_default_kernel,
    total_events_processed,
)

pytestmark = []

BACKENDS = list(KERNEL_BACKENDS)


# ---------------------------------------------------------------------------
# Seeded pseudo-random workloads
# ---------------------------------------------------------------------------

def _random_workload(sim, log, seed, procs=12, steps=10):
    """Spawn ``procs`` processes doing a seeded mix of every yield kind.

    Each process appends ``(cycle, name, step, action)`` to ``log`` at every
    resume -- the cross-backend comparison key.  The RNG drives *structure*
    only (which action, which delay); both backends replay the identical
    structure because the seed is shared.
    """
    rng = random.Random(seed)
    # Pre-plan the actions so the RNG is never consumed inside a process
    # (process interleaving must not perturb the plan).
    plans = []
    for index in range(procs):
        plan = []
        for _ in range(steps):
            plan.append(
                (
                    rng.choice(
                        ["int", "int", "int", "big", "timeout", "any", "all", "zero"]
                    ),
                    rng.randint(1, 9),
                    rng.randint(254, 258),
                )
            )
        plans.append(plan)

    handles = {}

    def body(name, plan):
        for step, (action, small, big) in enumerate(plan):
            if action == "int":
                yield small
            elif action == "big":
                yield big
            elif action == "timeout":
                yield sim.timeout(small, value=name)
            elif action == "zero":
                yield sim.timeout(0)
            elif action == "any":
                yield sim.any_of([sim.timeout(small), sim.timeout(small + 3)])
            elif action == "all":
                yield sim.all_of([sim.timeout(small), sim.timeout(2)])
            log.append((sim.now, name, step, action))

    def interrupter(victims):
        for round_index in range(4):
            yield 7
            for victim in victims:
                if victim.is_alive():
                    victim.interrupt("poke-%d" % round_index)
                    log.append((sim.now, "interrupter", round_index, "poke"))
                    break

    def sleeper(name):
        woken = 0
        for _attempt in range(6):  # bounded: interrupts may stop coming
            try:
                yield 50
            except Interrupt as exc:
                woken += 1
                log.append((sim.now, name, woken, str(exc.cause)))
            if woken >= 3:
                break
        log.append((sim.now, name, woken, "done"))

    for index, plan in enumerate(plans):
        handles[index] = sim.process(body("p%d" % index, plan), name="p%d" % index)
    sleepers = [sim.process(sleeper("s%d" % i), name="s%d" % i) for i in range(2)]
    sim.process(interrupter(sleepers), name="interrupter")

    def joiner():
        yield handles[0]
        yield handles[procs - 1]
        log.append((sim.now, "joiner", 0, "joined"))

    sim.process(joiner(), name="joiner")


def _run_backend(kernel, seed, until=None):
    sim = Simulator(kernel=kernel)
    log = []
    _random_workload(sim, log, seed)
    sim.run(until=until)
    return log, sim.now, sim.events_processed


class TestRandomWorkloadParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_logs_identical(self, seed):
        heap = _run_backend("heap", seed)
        for kernel in BACKENDS[1:]:
            other = _run_backend(kernel, seed)
            assert heap[0] == other[0], (
                "wake order diverged for seed %d on %s" % (seed, kernel)
            )
            assert heap[1] == other[1]  # final clock
            assert heap[2] == other[2]  # events_processed

    @pytest.mark.parametrize("kernel", BACKENDS[1:])
    @pytest.mark.parametrize("seed", range(4))
    def test_deadline_split_identical(self, seed, kernel):
        """Stopping at a deadline and resuming must not perturb the order."""
        whole = _run_backend("heap", seed)

        sim = Simulator(kernel=kernel)
        log = []
        _random_workload(sim, log, seed)
        sim.run(until=40)
        assert sim.now == 40
        sim.run(until=95)
        assert sim.now == 95
        sim.run()
        assert log == whole[0]
        assert sim.now == whole[1]
        assert sim.events_processed == whole[2]


def _run_in_mode(kernel, seed, until, monitored, at):
    """One ``run()`` of the random workload in a mode, then a plain
    ``run()``: (log, now, events_processed, peak_queue_depth, return
    value) after each.

    The stop event is a timeout due at cycle ``at``, scheduled before the
    workload, so it fires first in its cycle; ``at`` is a cycle in which
    the workload resumes processes, so a loop that stops late (after the
    event, or at the deadline) fires entries it must leave queued.
    """
    sim = Simulator(kernel=kernel)
    sim.monitor_depth = monitored
    stop = sim.timeout(at, value="stop")
    log = []
    _random_workload(sim, log, seed)
    value = sim.run(until={"none": None, "cycle": at, "event": stop}[until])
    first = (list(log), sim.now, sim.events_processed, sim.peak_queue_depth, value)
    value = sim.run()
    return first, (log, sim.now, sim.events_processed, sim.peak_queue_depth, value)


class TestRunModeParity:
    """Every way to call ``run()`` -- to quiescence, to a deadline, until a
    pending event -- with depth monitoring off and on, leaves the same
    state and returns the same value on every backend."""

    @pytest.mark.parametrize("monitored", [False, True], ids=["bare", "monitored"])
    @pytest.mark.parametrize("until", ["none", "cycle", "event"])
    @pytest.mark.parametrize("seed", range(4))
    def test_modes_identical(self, seed, until, monitored):
        log = _run_backend("heap", seed)[0]
        at = log[len(log) // 2][0]
        heap = _run_in_mode("heap", seed, until, monitored, at)
        for kernel in BACKENDS[1:]:
            assert _run_in_mode(kernel, seed, until, monitored, at) == heap, kernel
        first, last = heap
        if until != "none":
            assert first[1] == at
            assert first[0] == [entry for entry in last[0] if entry[0] < at]
            assert first[4] == ("stop" if until == "event" else None)
        # Stopping early and resuming ends where one run() ends.
        assert last[:4] == _run_in_mode("heap", seed, "none", monitored, at)[1][:4]
        assert (last[3] > 0) == monitored


class TestMonitoredDepth:
    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_run_split_and_step_agree(self, kernel):
        """Peak queue depth is tracked at each pop whichever way the
        schedule is driven: one run(), a deadline split, or step()."""

        def drive(mode):
            sim = Simulator(kernel=kernel)
            sim.monitor_depth = True
            _random_workload(sim, [], seed=0)
            if mode == "run":
                sim.run()
            elif mode == "split":
                sim.run(until=40)
                sim.run()
            else:
                while sim.peek() is not None:
                    sim.step()
            return sim.peak_queue_depth, sim.events_processed, sim.now

        results = {mode: drive(mode) for mode in ("run", "split", "step")}
        assert results["run"] == results["split"] == results["step"]
        assert results["run"] == (21, 223, 812)


# ---------------------------------------------------------------------------
# Targeted edge cases
# ---------------------------------------------------------------------------

class TestSameCycleTieBreak:
    def test_mixed_scheduling_paths_keep_seq_order(self):
        """Events reaching one cycle through int yields, timeouts, and event
        callbacks must fire in scheduling order on both backends."""

        def run(kernel):
            sim = Simulator(kernel=kernel)
            order = []

            def via_int(name, delay):
                yield delay
                order.append(name)

            def via_timeout(name, delay):
                yield sim.timeout(delay)
                order.append(name)

            # All land on cycle 6, scheduled in interleaved order.
            sim.process(via_int("a", 6))
            sim.process(via_timeout("b", 6))
            sim.process(via_int("c", 6))
            sim.process(via_timeout("d", 6))
            sim.run()
            return order

        reference = run("heap")
        for kernel in BACKENDS[1:]:
            assert run(kernel) == reference, kernel

    def test_overflow_meets_bucket_on_same_cycle(self):
        """An event scheduled far ahead (the calendar's heap) fires before
        events scheduled later onto the same cycle (next cycle's list) --
        matching the heap's global sequence order."""

        def run(kernel):
            sim = Simulator(kernel=kernel)
            order = []

            def far(name):
                # Scheduled at cycle 0 for cycle 266.
                yield 266
                order.append(name)

            def late(name):
                # Re-scheduled at 265 for 266: next cycle's list.
                yield 265
                yield 1
                order.append(name)

            sim.process(far("overflow-first"))
            sim.process(late("bucket-second"))
            sim.process(far("overflow-third"))
            sim.run()
            assert sim.now == 266
            return order

        heap_order = run("heap")
        assert heap_order == ["overflow-first", "overflow-third", "bucket-second"]
        for kernel in BACKENDS[1:]:
            assert run(kernel) == heap_order, kernel

    @pytest.mark.parametrize("delay", [0, 1, 2, 255, 256, 257])
    def test_wheel_size_boundary(self, delay):
        """Delays straddling the calendar's list/heap boundary (0, 1, 2)
        and the retired wheel's horizon (255-257) behave alike."""

        def run(kernel):
            sim = Simulator(kernel=kernel)
            order = []

            def worker(name, d):
                yield d
                order.append((sim.now, name))
                yield d
                order.append((sim.now, name))

            sim.process(worker("x", delay))
            sim.process(worker("y", delay))
            sim.run()
            return order, sim.now

        reference = run("heap")
        for kernel in BACKENDS[1:]:
            assert run(kernel) == reference, kernel


class TestInterruptWhilePooled:
    def test_interrupt_during_pooled_timeout(self):
        """Interrupting an int-yield wait leaves a stale pooled proxy in the
        schedule; the compiled run loop must discard it exactly like the
        heap does (no double wake, no pool corruption)."""

        def run(kernel):
            sim = Simulator(kernel=kernel)
            trace = []

            def victim():
                for round_index in range(3):
                    try:
                        yield 100
                        trace.append((sim.now, "slept"))
                    except Interrupt as exc:
                        trace.append((sim.now, "interrupted", str(exc.cause)))
                        yield 2  # reuses a pooled proxy immediately

            def attacker(target):
                yield 5
                target.interrupt("one")
                yield 3
                target.interrupt("two")

            target = sim.process(victim())
            sim.process(attacker(target))
            sim.run()
            return trace, sim.now

        reference = run("heap")
        for kernel in BACKENDS[1:]:
            assert run(kernel) == reference, kernel

    def test_pool_recycling_stays_consistent(self):
        """After interrupts, recycled proxies must still fire correctly."""

        def run(kernel):
            sim = Simulator(kernel=kernel)
            wakes = []

            def sleeper(name):
                try:
                    yield 500
                except Interrupt:
                    pass
                for _ in range(5):
                    yield 1
                wakes.append((sim.now, name))

            def spammer():
                for _ in range(50):
                    yield 1

            victims = [sim.process(sleeper("v%d" % i)) for i in range(4)]

            def attacker():
                yield 3
                for victim in victims:
                    victim.interrupt()

            sim.process(attacker())
            sim.process(spammer())
            sim.run()
            return wakes, sim.now, sim.events_processed

        reference = run("heap")
        for kernel in BACKENDS[1:]:
            assert run(kernel) == reference, kernel


class TestWheelRunSemantics:
    """Heap-equivalent contract details on the compiled (calendar) backend."""

    @pytest.mark.parametrize("kernel", BACKENDS[1:])
    def test_deadline_is_exclusive_and_fast_forwards(self, kernel):
        sim = Simulator(kernel=kernel)
        fired = []

        def worker():
            yield 10
            fired.append(sim.now)

        sim.process(worker())
        sim.run(until=10)  # exclusive: the cycle-10 event must NOT fire
        assert sim.now == 10
        assert fired == []
        sim.run()
        assert fired == [10]

    @pytest.mark.parametrize("kernel", BACKENDS[1:])
    def test_idle_fast_forward_reaches_overflow(self, kernel):
        """With both lists empty, run(until=...) jumps straight to the
        deadline even when the only pending event sits on the heap."""
        sim = Simulator(kernel=kernel)
        fired = []

        def worker():
            yield 1280
            fired.append(sim.now)

        sim.process(worker())
        sim.run(until=768)
        assert sim.now == 768 and fired == []
        sim.run()
        assert fired == [1280]

    def test_step_and_peek_match_heap(self):
        def drive(kernel):
            sim = Simulator(kernel=kernel)
            seen = []

            def worker(name):
                yield 4
                seen.append((sim.now, name))
                yield 260
                seen.append((sim.now, name))
                yield 1
                seen.append((sim.now, name))
                yield 0
                seen.append((sim.now, name))

            sim.process(worker("a"))
            sim.process(worker("b"))
            peeks = []
            while sim.peek() is not None:
                peeks.append(sim.peek())
                sim.step()
            return seen, peeks, sim.now

        reference = drive("heap")
        for kernel in BACKENDS[1:]:
            assert drive(kernel) == reference, kernel

    @pytest.mark.parametrize("kernel", BACKENDS[1:])
    def test_step_on_empty_raises_index_error(self, kernel):
        with pytest.raises(IndexError):
            Simulator(kernel=kernel).step()

    def test_zero_delay_during_drain_fires_same_cycle(self):
        """A callback that schedules a zero-delay event mid-drain must see
        it fire within the same cycle (the live list iteration)."""

        def run(kernel):
            sim = Simulator(kernel=kernel)
            order = []

            def parent():
                yield 3
                order.append((sim.now, "parent"))
                sim.process(child())
                yield 1
                order.append((sim.now, "parent-after"))

            def child():
                yield sim.timeout(0)
                order.append((sim.now, "child"))

            sim.process(parent())
            sim.run()
            return order

        reference = run("heap")
        for kernel in BACKENDS[1:]:
            assert run(kernel) == reference, kernel


class TestCancelParity:
    def test_arbiter_cancel_mid_contention(self):
        """A master that withdraws a queued request (``Arbiter.cancel``,
        the fault layer's timeout-escalation path) must leave the same
        grant sequence, wait accounting, and final clock on every
        backend -- including the dispatch that skips the withdrawn entry."""
        from repro.sim.arbiter import FCFSArbiter

        def run(kernel):
            sim = Simulator(kernel=kernel)
            arbiter = FCFSArbiter(sim, "seg")
            trace = []

            def holder():
                grant = arbiter.request("hold")
                yield grant
                trace.append((sim.now, "hold", "granted"))
                yield 30
                arbiter.release("hold")
                trace.append((sim.now, "hold", "released"))

            def quitter():
                yield 2  # queue behind the holder...
                grant = arbiter.request("quit")
                yield 10  # ...then give up before the grant can land
                arbiter.cancel("quit", grant)
                trace.append((sim.now, "quit", "cancelled"))
                yield 1

            def patient(name, delay):
                yield delay
                grant = arbiter.request(name)
                yield grant
                trace.append((sim.now, name, "granted"))
                yield 5
                arbiter.release(name)
                trace.append((sim.now, name, "released"))

            sim.process(holder())
            sim.process(quitter())
            sim.process(patient("p1", 4))
            sim.process(patient("p2", 6))
            sim.run()
            return trace, sim.now, arbiter.grants, arbiter.wait_cycles

        reference = run("heap")
        # The withdrawn master must never appear granted.
        assert not any(m == "quit" and what == "granted" for _, m, what in reference[0])
        for kernel in BACKENDS[1:]:
            assert run(kernel) == reference, kernel

    def test_cancel_after_grant_landed(self):
        """Cancelling when the grant already landed releases the bus (the
        giver-upper secretly owns it); the hand-off order must match."""
        from repro.sim.arbiter import FCFSArbiter

        def run(kernel):
            sim = Simulator(kernel=kernel)
            arbiter = FCFSArbiter(sim, "seg")
            trace = []

            def holder():
                grant = arbiter.request("hold")
                yield grant
                yield 10
                arbiter.release("hold")

            def racer():
                yield 1
                grant = arbiter.request("racer")
                # Sleep past the grant: it lands at cycle 10 while we doze.
                yield 20
                arbiter.cancel("racer", grant)
                trace.append((sim.now, "racer", "cancelled", arbiter.owner))

            def waiter():
                yield 15
                grant = arbiter.request("waiter")
                yield grant
                trace.append((sim.now, "waiter", "granted", arbiter.owner))
                arbiter.release("waiter")

            sim.process(holder())
            sim.process(racer())
            sim.process(waiter())
            sim.run()
            return trace, sim.now, arbiter.grants, arbiter.owner

        reference = run("heap")
        assert reference[3] is None  # everything retired
        for kernel in BACKENDS[1:]:
            assert run(kernel) == reference, kernel


class TestPastDeadline:
    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_deadline_before_now_raises_before_any_work(self, kernel):
        sim = Simulator(kernel=kernel)
        fired = []

        def worker():
            yield 150
            fired.append(sim.now)
            yield 50
            fired.append(sim.now)

        sim.process(worker())
        sim.run(until=150)
        assert sim.now == 150 and fired == []
        events = sim.events_processed
        with pytest.raises(SimulationError, match="before the current cycle 150"):
            sim.run(until=50)
        assert sim.now == 150 and sim.peek() == 150
        assert sim.events_processed == events
        sim.run(until=150)  # until == now: a no-op, the deadline stays exclusive
        assert sim.now == 150 and fired == [] and sim.events_processed == events
        sim.run()
        assert fired == [150, 200] and sim.now == 200


# ---------------------------------------------------------------------------
# The compiled backend's calendar and inline resumes
# ---------------------------------------------------------------------------


def _drive(sim, stepped):
    """Run ``sim`` to quiescence with run() or one step() at a time."""
    if stepped:
        while sim.peek() is not None:
            sim.step()
    else:
        sim.run()


@pytest.mark.parametrize("stepped", [False, True], ids=["run", "step"])
class TestCalendarOrder:
    """Orders the calendar and the run loop's inline resumes must keep.

    Each scenario runs on every backend, through ``run()`` and through
    ``step()``, and must produce the literal log the heap's
    ``(when, seq)`` order gives, with equal clocks and event counts.
    """

    def _check(self, scenario, stepped, expected):
        results = []
        for kernel in BACKENDS:
            sim = Simulator(kernel=kernel)
            log = []
            scenario(sim, log)
            _drive(sim, stepped)
            results.append((log, sim.now, sim.events_processed))
        assert results[0][0] == expected
        for kernel, result in zip(BACKENDS[1:], results[1:]):
            assert result == results[0], kernel

    def test_heap_next_and_zero_delay_entries_keep_scheduling_order(self, stepped):
        # Due at cycle 10: two heap entries (scheduled at 0), a next-cycle
        # entry (scheduled at 9) and zero-delay entries (scheduled at 10).
        def scenario(sim, log):
            def far(name):
                yield 10
                log.append((sim.now, name))
                yield 0
                log.append((sim.now, name + "+0"))

            def near():
                yield 9
                yield 1
                log.append((sim.now, "next"))

            sim.process(far("heap-1"))
            sim.process(near())
            sim.process(far("heap-2"))

        self._check(
            scenario,
            stepped,
            [(10, "heap-1"), (10, "heap-2"), (10, "next"), (10, "heap-1+0"), (10, "heap-2+0")],
        )

    def test_event_with_two_process_waiters(self, stepped):
        def scenario(sim, log):
            event = sim.event()

            def waiter(name):
                value = yield event
                log.append((sim.now, name, value))
                yield 1
                log.append((sim.now, name, "after"))

            def trigger():
                yield 3
                event.succeed("go")

            sim.process(waiter("a"))
            sim.process(waiter("b"))
            sim.process(trigger())

        self._check(
            scenario,
            stepped,
            [(3, "a", "go"), (3, "b", "go"), (4, "a", "after"), (4, "b", "after")],
        )

    def test_process_waiter_and_any_of_child_on_one_event(self, stepped):
        def scenario(sim, log):
            event, other = sim.event(), sim.event()

            def waiter():
                value = yield event
                log.append((sim.now, "waiter", value))

            def composite():
                first = yield sim.any_of([event, other])
                log.append((sim.now, "any_of", first is event))

            def trigger():
                yield 2
                event.succeed("go")

            sim.process(waiter())
            sim.process(composite())
            sim.process(trigger())

        self._check(scenario, stepped, [(2, "waiter", "go"), (2, "any_of", True)])

    def test_failed_event(self, stepped):
        def scenario(sim, log):
            event = sim.event()

            def waiter():
                try:
                    yield event
                except ValueError as error:
                    log.append((sim.now, "caught", str(error)))

            def trigger():
                yield 2
                event.fail(ValueError("boom"))

            sim.process(waiter())
            sim.process(trigger())

        self._check(scenario, stepped, [(2, "caught", "boom")])

    def test_waiter_interrupted_before_its_event_fires(self, stepped):
        # The waiter's registration on the event goes stale: when the
        # event fires at 5, its only callback is a process no longer
        # waiting on it, which must not be resumed.
        def scenario(sim, log):
            event = sim.event()

            def waiter():
                try:
                    yield event
                except Interrupt as interrupt:
                    log.append((sim.now, "interrupted", interrupt.cause))
                yield 10
                log.append((sim.now, "slept", event.fired))

            def trigger(victim):
                yield 2
                victim.interrupt("poke")
                yield 3
                event.succeed("late")

            victim = sim.process(waiter())
            sim.process(trigger(victim))

        self._check(
            scenario, stepped, [(2, "interrupted", "poke"), (12, "slept", True)]
        )

    def test_interrupt_queued_when_the_event_fires(self, stepped):
        # The event fires before the interrupt wakeup in the same cycle;
        # the queued interrupt wins over the event's value.
        def scenario(sim, log):
            event = sim.event()

            def waiter():
                try:
                    value = yield event
                    log.append((sim.now, "value", value))
                except Interrupt as interrupt:
                    log.append((sim.now, "interrupted", interrupt.cause))
                yield 1
                log.append((sim.now, "done"))

            def trigger(victim):
                yield 2
                event.succeed("go")
                victim.interrupt("poke")

            victim = sim.process(waiter())
            sim.process(trigger(victim))

        self._check(scenario, stepped, [(2, "interrupted", "poke"), (3, "done")])

    def test_waiter_waits_again_after_an_interrupt(self, stepped):
        # Two registrations of one process on one event: the stale one and
        # the live one.  The process resumes once.
        def scenario(sim, log):
            event = sim.event()

            def waiter():
                try:
                    yield event
                except Interrupt:
                    log.append((sim.now, "interrupted"))
                value = yield event
                log.append((sim.now, "value", value))

            def trigger(victim):
                yield 2
                victim.interrupt()
                yield 2
                event.succeed("go")

            victim = sim.process(waiter())
            sim.process(trigger(victim))

        self._check(scenario, stepped, [(2, "interrupted"), (4, "value", "go")])

    def test_process_joining_another_process(self, stepped):
        def scenario(sim, log):
            def child(fail):
                yield 4
                if fail:
                    raise ValueError("child failed")
                return "done"

            def parent():
                good = sim.process(child(False))
                bad = sim.process(child(True))
                value = yield good
                log.append((sim.now, "joined", value))
                try:
                    yield bad
                except ValueError as error:
                    log.append((sim.now, "caught", str(error)))

            sim.process(parent())

        self._check(
            scenario, stepped, [(4, "joined", "done"), (4, "caught", "child failed")]
        )

    def test_joining_a_finished_process(self, stepped):
        # The child returns at 5; the parent only joins it at 10, after its
        # finish event fired, and must get the value that same cycle.
        def scenario(sim, log):
            def child():
                yield 5
                return "done"

            def parent(joined):
                yield 10
                value = yield joined
                log.append((sim.now, "joined", value))
                yield 1
                log.append((sim.now, "after"))

            sim.process(parent(sim.process(child())))

        self._check(scenario, stepped, [(10, "joined", "done"), (11, "after")])

    def test_yielding_a_fired_event(self, stepped):
        def scenario(sim, log):
            event = sim.event()

            def trigger():
                yield 2
                event.succeed("go")

            def late():
                yield 6
                value = yield event
                log.append((sim.now, "value", value))

            sim.process(trigger())
            sim.process(late())

        self._check(scenario, stepped, [(6, "value", "go")])

    def test_yielding_a_fired_failed_event_raises_at_the_yield(self, stepped):
        def scenario(sim, log):
            event = sim.event()

            def trigger():
                yield 2
                event.fail(ValueError("lost"))

            def late():
                yield 6
                try:
                    yield event
                except ValueError as error:
                    log.append((sim.now, "caught", str(error)))
                yield 1
                log.append((sim.now, "after"))

            sim.process(trigger())
            sim.process(late())

        self._check(scenario, stepped, [(6, "caught", "lost"), (7, "after")])

    @pytest.mark.parametrize(
        "write_at, writer_first, expected",
        [
            # The write lands a cycle before the timeout: its hop wakes
            # the poll, and the timer fires at 16 as a no-op.
            (15, True, [(15, "write"), (15, 1)]),
            # Same cycle, writer scheduled first: the timer still fires
            # before the write's hop, so the poll times out.
            (16, True, [(16, "write"), (16, None)]),
            # Same cycle, timer scheduled first: the poll times out and the
            # write finds no watcher.
            (16, False, [(16, "write"), (16, None)]),
        ],
    )
    def test_poll_timeout_and_write_in_one_cycle(
        self, stepped, write_at, writer_first, expected
    ):
        def scenario(sim, log):
            block = HandshakeRegisters(sim, "hs")

            def writer():
                yield write_at
                block.write("DONE_OP", 1)
                log.append((sim.now, "write"))

            def poller():
                value = yield block.wait_for("DONE_OP", 1, 16)
                log.append((sim.now, value))

            if writer_first:
                sim.process(writer())
            sim.process(poller())
            if not writer_first:
                sim.process(writer())

        self._check(scenario, stepped, expected)

    @pytest.mark.parametrize(
        "other_at, other_first",
        [
            # Nothing else in the timer's cycle: the timer resumes the
            # poller itself, with no hop.
            (None, False),
            # Due before the timer in its cycle: already fired, no hop.
            (16, True),
            # Due after the timer in its cycle: the poller resumes after it.
            (16, False),
            # Due in the next cycle: not in the timer's cycle.
            (17, False),
        ],
    )
    def test_poll_timeout_around_other_entries(self, stepped, other_at, other_first):
        def scenario(sim, log):
            block = HandshakeRegisters(sim, "hs")

            def other():
                yield other_at
                log.append((sim.now, "other"))

            def poller():
                value = yield block.wait_for("DONE_OP", 1, 16)
                log.append((sim.now, value))

            if other_at is not None and other_first:
                sim.process(other())
            sim.process(poller())
            if other_at is not None and not other_first:
                sim.process(other())

        expected = sorted(
            [(16, None)] + ([(other_at, "other")] if other_at is not None else []),
            key=lambda item: (item[0], item[1] is None),
        )
        self._check(scenario, stepped, expected)


def _machine_state(machine):
    """Everything a poll touches, and the clock and event count: what the
    compiled backend's poll fast-forward must leave as firing every entry
    would.  Copies, not the live stats: a discarded machine's suspended
    generators still run their ``finally`` blocks when collected."""
    sim = machine.sim
    state = {"now": sim.now, "events": sim.events_processed, "pes": {}, "buses": {}}
    for name, pe in machine.pes.items():
        cache = pe.icache.stats
        state["pes"][name] = (
            pe.stats.as_dict(),
            (cache.hits, cache.misses, cache.evictions, cache.writebacks),
            pe._fetch_cursor,
            pe._cycle_carry,
            pe.finished_at,
        )
    for name, segment in machine.segments.items():
        arbiter = segment.arbiter
        state["buses"][name] = (
            segment.stats.as_dict(),
            dict(segment.stats.per_master),
            (arbiter.grants, arbiter.busy_cycles, arbiter.wait_cycles, arbiter.peak_pending),
        )
    state["memories"] = {
        name: (
            device.target.reads,
            device.target.writes,
            getattr(device.target, "row_hits", None),
            getattr(device.target, "row_misses", None),
        )
        for name, device in machine.devices.items()
        if device.kind == "memory"
    }
    state["bridges"] = {bridge.name: bridge.crossings for bridge in machine.bridges}
    return state


def _poll_spec(bus, data_width=64, policy=None, memory_type=None):
    from repro.options import presets

    spec = presets.preset(bus, 4)
    for subsystem in spec.subsystems:
        for bus_spec in subsystem.buses:
            bus_spec.data_width = data_width
            bus_spec.arbiter_policy = policy or bus_spec.arbiter_policy
        for ban in subsystem.bans:
            for memory in ban.memories:
                memory.data_width = data_width
                memory.memory_type = memory_type or memory.memory_type
    spec.validate()
    return spec


def _ofdm_run(spec, style, packets, kernel):
    from repro.apps.ofdm import OfdmParameters, run_ofdm
    from repro.sim.fabric import build_machine

    machine = build_machine(spec, kernel=kernel)
    result = run_ofdm(machine, style, OfdmParameters(packets=packets))
    out = _machine_state(machine)
    out["row"] = (result.throughput_mbps, result.cycles, result.schedule)
    out["outputs"] = [output.tobytes() for output in result.outputs]
    return out, machine.sim.events_skipped


def _assert_ofdm_parity(spec, style, packets):
    """Heap and compiled agree on an OFDM run; returns the share of its
    events the compiled run skipped."""
    reference, heap_skipped = _ofdm_run(spec, style, packets, "heap")
    assert heap_skipped == 0
    assert any(stats[0]["handshake_polls"] for stats in reference["pes"].values())
    compiled, skipped = _ofdm_run(spec, style, packets, "compiled")
    for key in reference:
        assert compiled[key] == reference[key], key
    return skipped / compiled["events"]


class TestTable2PollTraffic:
    """Heap and compiled agree on the real DONE_OP/DONE_RV poll traffic.

    Every Table II case at two packets: the synthetic workloads above do
    not produce the poll timers, write hops and arbiter grants the tables
    run on.  Any event the calendar, an inline resume or a poll
    fast-forward jump adds, drops or reorders moves the clock, the event
    count or a counter.  The PPA cases poll long enough to jump; the FPA
    cases at two packets do not.
    """

    @pytest.mark.parametrize(
        "case", TABLE2_CASES, ids=["%d-%s-%s" % case for case in TABLE2_CASES]
    )
    def test_case_identical_across_backends(self, case):
        _number, bus, style = case
        skipped = _assert_ofdm_parity(_poll_spec(bus), style, packets=2)
        if style == "PPA":
            assert skipped > 0

    def test_a_loop_set_that_comes_back_reuses_its_model(self, monkeypatch):
        """BFBA/PPA's sets of parked loops come back with every FIFO
        handoff: the run loop builds one model per set of loop routes,
        and the reused models jump as fresh ones would."""
        from repro.sim.compiled import kernel as compiled_kernel

        built = []

        class Counted(compiled_kernel._PollModel):
            __slots__ = ()

            def __init__(self, loops):
                built.append(
                    tuple(
                        (loop.pe, tuple(loop.segments), tuple(loop.bridges), loop.memory,
                         loop.interval)
                        for loop in loops
                    )
                )
                super().__init__(loops)

        monkeypatch.setattr(compiled_kernel, "_PollModel", Counted)
        assert _assert_ofdm_parity(_poll_spec("BFBA"), "PPA", packets=2) > 0
        assert len(built) == len(set(built)) > 1


class TestPollFastForward:
    """The compiled backend jumps parked poll loops over whole
    periods (``CompiledSimulator._skip_periods``); the heap backend fires
    every entry, so it is the reference for the clock, the event count and
    every counter a poll moves."""

    @pytest.mark.parametrize("width", [32, 64])
    @pytest.mark.parametrize("policy", ["fcfs", "round_robin", "priority"])
    @pytest.mark.parametrize("bus", ["GBAVIII", "GGBA", "SPLITBA", "HYBRID", "BFBA"])
    def test_ppa_under_every_policy_and_width(self, bus, policy, width):
        assert _assert_ofdm_parity(_poll_spec(bus, width, policy), "PPA", packets=1) > 0

    @pytest.mark.parametrize("policy", ["fcfs", "round_robin", "priority"])
    def test_dram_open_rows(self, policy):
        spec = _poll_spec("GBAVIII", policy=policy, memory_type="DRAM")
        assert _assert_ofdm_parity(spec, "PPA", packets=1) > 0

    @staticmethod
    def _pollers(kernel, never=False):
        """Two processes on PE A poll shared variables, one on PE C polls
        a third, while PE B stalls long before setting each in turn."""
        from repro.soc import SocAPI
        from repro.sim.fabric import build_machine

        machine = build_machine(_poll_spec("GBAVIII"), kernel=kernel)
        first, second, waiter, setter = (
            SocAPI(machine, ban) for ban in ("A", "A", "C", "B")
        )

        def wait(api, variable):
            def program():
                yield from api.compute(3000)
                yield from api.var_wait(variable, 1)
                yield from api.compute(500)

            return program()

        def release():
            for variable in ("GO_1", "GO_2", "GO_3"):
                yield from setter.stall(40_000)
                if not never:
                    yield from setter.var_write(variable, 1)

        first.pe.run(wait(first, "GO_1"))
        second.pe.run(wait(second, "GO_2"))
        waiter.pe.run(wait(waiter, "GO_3"))
        setter.pe.run(release())
        return machine

    def test_two_processes_polling_on_one_pe(self):
        states = {}
        for kernel in BACKENDS:
            machine = self._pollers(kernel)
            machine.sim.run()
            states[kernel] = _machine_state(machine)
        assert states["compiled"] == states["heap"]
        assert machine.sim.events_skipped > 0
        assert machine.pe("C").finished_at > machine.pe("A").finished_at > 80_000

    def test_deadline_inside_a_jumpable_stretch(self):
        states = {}
        skipped = {}
        for kernel in BACKENDS:
            machine = self._pollers(kernel)
            sim = machine.sim
            sim.run(until=61_234)
            skipped[kernel] = sim.events_skipped
            states[kernel] = [_machine_state(machine)]
            sim.run()
            states[kernel].append(_machine_state(machine))
        assert states["compiled"] == states["heap"]
        assert states["heap"][0]["now"] == 61_234
        assert skipped["heap"] == 0 and skipped["compiled"] > 0

    def test_a_deadline_at_every_cycle_of_a_period(self):
        # A lone poller's period is about 143 cycles, so one of these
        # deadlines falls right after a jump's last whole period: the jump
        # must stop before the deadline's cycle, whose entries stay queued.
        from repro.options import presets
        from repro.sim.fabric import build_machine
        from repro.soc import SocAPI

        def run(kernel, deadline):
            machine = build_machine(presets.preset("GBAVIII", 2), kernel=kernel)
            api = SocAPI(machine, "A")

            def program():
                yield from api.compute(3000)
                yield from api.var_wait("GO", 1)

            api.pe.run(program())
            machine.sim.run(until=deadline)
            return _machine_state(machine), machine.sim.events_skipped

        for deadline in range(30_000, 30_160):
            reference, _ = run("heap", deadline)
            state, skipped = run("compiled", deadline)
            assert state == reference, deadline
            assert skipped > 0

    def test_unsatisfied_poll_hits_the_event_limit_at_the_same_event(self):
        states = {}
        for kernel in BACKENDS:
            machine = self._pollers(kernel, never=True)
            with pytest.raises(SimulationError, match="event limit exceeded"):
                machine.sim.run(limit=20_000)
            states[kernel] = _machine_state(machine)
            if kernel == "compiled":
                assert machine.sim.events_skipped > 0
        assert states["compiled"] == states["heap"]
        assert states["heap"]["events"] == 20_001

    @pytest.mark.parametrize("bus,style", [("GBAVIII", "FPA"), ("BFBA", "PPA")])
    def test_a_dying_program_stops_the_run(self, bus, style):
        """PE B's first instruction fetch goes to a memory that does not
        exist: its partners would poll for it until the event limit, but
        the run stops with ``ProgramError`` naming B, in the cycle its
        program failed, on both backends."""
        from repro.apps.ofdm import OfdmParameters, run_ofdm
        from repro.options import presets
        from repro.sim.fabric import build_machine
        from repro.sim.pe import ProgramError

        outcomes = {}
        for kernel in BACKENDS:
            machine = build_machine(presets.preset(bus, 4), kernel=kernel)
            machine.pe("B").program_device = "NO_SUCH_MEMORY"
            with pytest.raises(ProgramError, match="MPC755_B") as raised:
                run_ofdm(machine, style, OfdmParameters(packets=4))
            assert isinstance(raised.value.__cause__, KeyError)
            outcomes[kernel] = (str(raised.value), _machine_state(machine))
        assert outcomes["compiled"] == outcomes["heap"]
        assert outcomes["heap"][1]["events"] < 1_000

    @pytest.mark.parametrize("hook", ["probe", "faults", "observability", "grant_trace"])
    def test_hooked_machine_never_jumps(self, hook):
        """A plain probe, a tracer and the VCD grant trace need every hook
        call, so their machine never jumps; an installed empty fault plan
        declares its ordinals and jumps as the bare machine does."""
        from repro.faults import install_faults
        from repro.faults.plan import empty_plan
        from repro.obs import Observability, Probe
        from repro.sim.vcd import GrantTrace

        machine = self._pollers("compiled")
        if hook == "faults":
            install_faults(machine, empty_plan())
        elif hook == "observability":
            machine.attach_observability(Observability())
        else:
            machine.attach_probe(GrantTrace() if hook == "grant_trace" else Probe())
        machine.sim.run()
        bare = self._pollers("compiled")
        bare.sim.run()
        assert bare.sim.events_skipped > 0
        if hook == "faults":
            assert machine.sim.events_skipped == bare.sim.events_skipped
        else:
            assert machine.sim.events_skipped == 0
            assert not machine.sim._poll_loops and machine.sim._poll_model is None
        assert _machine_state(machine) == _machine_state(bare)

    # -- bridged polls: Machine.poll parked across a bridge -----------------

    @pytest.mark.parametrize("width", [32, 64])
    @pytest.mark.parametrize("policy", ["fcfs", "round_robin", "priority"])
    @pytest.mark.parametrize("bus", ["GBAVI", "SPLITBA"])
    def test_bridged_polls_jump(self, bus, policy, width):
        """GBAVI reads its neighbours' registers and SplitBA the other
        subsystem's shared variables across a bridge, through
        ``_occupy_path``; such a loop parks like the one-segment ones, so
        their stretches jump."""
        share = _assert_ofdm_parity(_poll_spec(bus, width, policy), "PPA", packets=1)
        assert share > 0
        if bus == "SPLITBA":
            assert share >= 0.8

    @staticmethod
    def _neighbour_poll(kernel):
        """PE A polls B's DONE_OP over BB_AB until B sets it at cycle 80,000."""
        from repro.soc import SocAPI
        from repro.sim.fabric import build_machine

        machine = build_machine(_poll_spec("GBAVI"), kernel=kernel)
        waiter, setter = SocAPI(machine, "A"), SocAPI(machine, "B")

        def wait():
            yield from waiter.reg_wait("HS_REGS_B", "DONE_OP", 1)
            yield from waiter.compute(500)

        def release():
            yield from setter.stall(80_000)
            yield from setter.reg_write("HS_REGS_B", "DONE_OP", 1)

        waiter.pe.run(wait())
        setter.pe.run(release())
        return machine

    def test_bridge_toggled_while_a_bridged_poll_is_parked(self):
        """With BB_AB disabled between two runs, A's parked poll re-routes
        around the ring (over D and C); the jumps after it must count the
        new route's segments and crossings."""
        states, skipped = {}, {}
        for kernel in BACKENDS:
            machine = self._neighbour_poll(kernel)
            sim = machine.sim
            states[kernel] = []
            skipped[kernel] = []
            for until in (30_000, 60_000, None):
                sim.run(until=until)
                states[kernel].append(_machine_state(machine))
                skipped[kernel].append(sim.events_skipped)
                if until == 30_000:
                    next(b for b in machine.bridges if b.name == "BB_AB").enabled = False
        assert states["compiled"] == states["heap"]
        first, second, final = states["heap"]
        assert first["bridges"]["BB_AB"] > 0 and first["bridges"]["BB_CD"] == 0
        assert second["bridges"]["BB_AB"] == first["bridges"]["BB_AB"]
        assert second["bridges"]["BB_CD"] > 0
        assert final["pes"]["MPC755_A"][4] > 80_000
        assert skipped["heap"] == [0, 0, 0]
        assert 0 < skipped["compiled"][0] < skipped["compiled"][1]

    def test_states_are_kept_per_stretch_and_given_up(self, monkeypatch):
        """_skip_periods records at most _POLL_STATES states in a stretch,
        then gives the stretch up.  On Table II's GBAVI case local polls (a
        143-cycle period) and bridged ones (147) share CPU_BUS_B, and their
        joint schedule takes long to recur: at two packets the longest
        stretch needs 255 states, so the backends are compared there with
        the cap lowered to 64; at the case's eight packets six stretches
        need 367 states each, under the real cap, and jump."""
        from repro.apps.ofdm import OfdmParameters, run_ofdm
        from repro.sim.compiled import kernel as compiled_kernel
        from repro.sim.fabric import build_machine

        recorded = {}
        skip_periods = CompiledSimulator._skip_periods

        def counting(sim, steps, limit, deadline):
            stretch = sim._poll_stretch
            before = len(sim._poll_seen)
            result = skip_periods(sim, steps, limit, deadline)
            if sim._poll_stretch != stretch:
                before = 0
            if len(sim._poll_seen) == before + 1:
                recorded[sim._poll_stretch] = recorded.get(sim._poll_stretch, 0) + 1
            return result

        monkeypatch.setattr(CompiledSimulator, "_skip_periods", counting)
        with monkeypatch.context() as lowered:
            lowered.setattr(compiled_kernel, "_POLL_STATES", 64)
            assert _assert_ofdm_parity(_poll_spec("GBAVI"), "PPA", packets=2) > 0
        assert max(recorded.values()) == 64
        recorded.clear()
        machine = build_machine(_poll_spec("GBAVI"), kernel="compiled")
        run_ofdm(machine, "PPA", OfdmParameters(packets=8))
        assert sorted(recorded.values()).count(367) == 6
        assert max(recorded.values()) < compiled_kernel._POLL_STATES
        assert machine.sim.events_skipped > 0.75 * machine.sim.events_processed

    @pytest.mark.parametrize("hook", ["probe", "faults"])
    def test_hooked_bridged_machine_never_jumps(self, hook):
        """As test_hooked_machine_never_jumps, over a bridge."""
        from repro.faults import install_faults
        from repro.faults.plan import empty_plan
        from repro.obs import Probe

        machine = self._neighbour_poll("compiled")
        if hook == "probe":
            machine.attach_probe(Probe())
        else:
            install_faults(machine, empty_plan())
        machine.sim.run()
        assert not machine.sim._poll_loops
        bare = self._neighbour_poll("compiled")
        bare.sim.run()
        assert bare.sim.events_skipped > 0
        if hook == "probe":
            assert machine.sim.events_skipped == 0
        else:
            assert machine.sim.events_skipped == bare.sim.events_skipped
        assert _machine_state(machine) == _machine_state(bare)

    @pytest.mark.parametrize("case", ["register", "device", "route"])
    def test_poll_errors_where_they_were(self, case):
        """An unknown register or device raises KeyError at the poll's
        first step, before any bus traffic; an unreachable route (SplitBA
        with its bridge disabled) raises LookupError at the first read,
        after the probe's compute phase."""
        from repro.soc import SocAPI
        from repro.sim.fabric import build_machine

        outcomes = {}
        for kernel in BACKENDS:
            spec = _poll_spec("SPLITBA" if case == "route" else "GBAVI")
            machine = build_machine(spec, kernel=kernel)
            api = SocAPI(machine, "A")
            if case == "register":
                wait = api.reg_wait("HS_REGS_B", "DONE_XX", 1)
            elif case == "device":
                wait = api.reg_wait("HS_REGS_Z", "DONE_OP", 1)
            else:
                machine.bridges[0].enabled = False
                wait = api.var_wait("GO", 1, "GLOBAL_SRAM_G2")
            caught = []

            def program():
                try:
                    yield from wait
                except Exception as error:  # noqa: BLE001
                    caught.append((type(error), str(error), machine.sim.now))

            api.pe.run(program())
            machine.sim.run()
            outcomes[kernel] = (caught, _machine_state(machine))
        assert outcomes["compiled"] == outcomes["heap"]
        [(error, _message, when)], state = outcomes["heap"]
        pe_stats = state["pes"]["MPC755_A"][0]
        assert pe_stats["handshake_polls"] == 0 and not any(state["bridges"].values())
        if case == "route":
            assert error is LookupError
            # 25 probe instructions at CPI 0.4, and their I-cache refills.
            assert pe_stats["compute_cycles"] == 10 and when > 10
        else:
            assert error is KeyError and when == 0
            assert not any(bus[0]["transactions"] for bus in state["buses"].values())


def _hook_state(monitor, injector):
    """What the hooks keep, copied as _machine_state copies the models:
    the monitor's counts, crossings and findings, the injector's ordinals,
    episodes and report."""
    from dataclasses import asdict

    state = {}
    if monitor is not None:
        state["monitor"] = (
            monitor.grants_observed,
            monitor.requests_observed,
            monitor.cancels_observed,
            monitor.transfers_opened,
            monitor.transfers_closed,
            {bridge.name: seen for bridge, seen in monitor._bridge_seen.items()},
            [str(finding) for finding in monitor.findings],
        )
    if injector is not None:
        state["faults"] = (
            [
                dict(ordinals)
                for ordinals in (
                    injector._seg_n,
                    injector._fifo_n,
                    injector._disp_n,
                    injector._mem_n,
                    injector._bridge_n,
                    injector._pe_n,
                )
            ],
            [dict(episode) for episode in injector.outcomes],
            asdict(injector.resilience_report()),
        )
    return state


class TestHookedFastForward:
    """Poll fast-forward under a protocol monitor and a fault injector,
    which declare the counters they keep (``repro.obs.Probe.counters``):
    the compiled backend jumps their hook calls in bulk, and ends with
    every model and hook counter, finding and fault episode the heap
    backend's run has."""

    @staticmethod
    def _hooked(machine, hook, seed=1):
        from repro.faults import RecoveryPolicy, SMOKE_SCENARIO, compile_plan, install_faults
        from repro.sim.fabric import build_machine

        monitor = injector = None
        if hook in ("monitor", "both"):
            monitor = machine.attach_monitors(fail_fast=False)
        if hook in ("faults", "both"):
            # Plans bind sites by name: compile against a throwaway twin.
            plan = compile_plan(build_machine(machine.spec), SMOKE_SCENARIO, seed)
            injector = install_faults(machine, plan, RecoveryPolicy())
        return monitor, injector

    @pytest.mark.parametrize("bus", ["BFBA", "SPLITBA", "GBAVI", "GBAVIII", "GGBA", "HYBRID"])
    @pytest.mark.parametrize("hook", ["monitor", "faults", "both"])
    def test_hooked_ppa_identical_across_backends(self, hook, bus):
        from repro.apps.ofdm import OfdmParameters, run_ofdm
        from repro.sim.fabric import build_machine

        runs = {}
        for kernel in BACKENDS:
            machine = build_machine(_poll_spec(bus), kernel=kernel)
            monitor, injector = self._hooked(machine, hook)
            result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
            state = _machine_state(machine)
            state["row"] = (result.throughput_mbps, result.cycles)
            state["outputs"] = [output.tobytes() for output in result.outputs]
            state.update(_hook_state(monitor, injector))
            runs[kernel] = state
        assert runs["compiled"] == runs["heap"]
        assert machine.sim.events_skipped > 0
        if injector is not None:
            assert injector.injected > 0

    @staticmethod
    def _crashing_pollers(kernel, until=None):
        """_pollers with PE A's 120th compute phase, one of its polls'
        probes, crashing (a 200-cycle cold restart)."""
        from repro.faults import FaultPlan, FaultSpec, install_faults
        from repro.faults.plan import FaultKind

        machine = TestPollFastForward._pollers(kernel)
        crash = FaultSpec(FaultKind.PE_CRASH, "MPC755_A", 120, param=200)
        injector = install_faults(machine, FaultPlan([crash]))
        skipped = []
        for deadline in (until, None):
            machine.sim.run(until=deadline)
            skipped.append(machine.sim.events_skipped)
        return machine, injector, skipped

    def test_fault_window_caps_the_jump(self):
        """The crash's trigger window lies ahead of the parked loops: the
        jumps stop short of it, the crash fires at the heap's cycle, and
        the jumps resume once the flushed I-cache is warm again."""
        reference, expected, _ = self._crashing_pollers("heap")
        [episode] = expected.outcomes
        assert 0 < episode["cycle"] < 40_000  # inside PE A's first wait
        machine, injector, skipped = self._crashing_pollers("compiled")
        assert _machine_state(machine) == _machine_state(reference)
        assert _hook_state(None, injector) == _hook_state(None, expected)
        # Stopped at the crash cycle, the compiled run has jumped already,
        # and it jumps again after the crash.
        _, _, (before, total) = self._crashing_pollers("compiled", until=episode["cycle"])
        assert 0 < before < total == skipped[-1]
        assert machine.pe("A")._fetch_warm and machine.pe("A").icache.flushes == 1

    def test_monitor_violation_in_a_stretch_is_not_skipped(self):
        """A shadow owner corrupted at cycle 30,000, inside PE A's first
        wait, makes its next poll grant a double grant: with ``fail_fast``
        the violation fails PE A's program, which stops both runs at the
        same cycle, after the compiled run jumped to it."""
        from repro.sim.pe import ProgramError
        from repro.verify.monitors import ProtocolViolationError

        outcomes = {}
        for kernel in BACKENDS:
            machine = TestPollFastForward._pollers(kernel)
            monitor = machine.attach_monitors(fail_fast=True)
            memory = machine.shared_memory_of["A"]
            arbiter = machine.devices[memory].segment.arbiter

            def corrupt():
                yield 30_000
                monitor._owner[arbiter] = "ghost"

            machine.sim.process(corrupt())
            with pytest.raises(ProgramError, match="MPC755_A") as raised:
                machine.sim.run()
            assert isinstance(raised.value.__cause__, ProtocolViolationError)
            outcomes[kernel] = (str(raised.value), _machine_state(machine))
            finding = raised.value.__cause__.finding
            assert finding.category == "grant-onehot" and finding.cycle == machine.sim.now
        assert outcomes["compiled"] == outcomes["heap"]
        assert outcomes["heap"][1]["now"] > 30_000
        assert machine.sim.events_skipped > 0

    def test_a_period_with_a_finding_never_recurs(self):
        """A monitor that flags every release by PE C finds something in
        each of C's polls: the findings count is in the state key, so no
        period of C's polling recurs and every finding is made, where the
        same monitor flagging nothing lets the loops jump."""
        from repro.verify.monitors import ProtocolMonitor

        class Strict(ProtocolMonitor):
            def __init__(self, flagged):
                super().__init__(fail_fast=False)
                self.flagged = flagged

            def on_release(self, arbiter, master):
                super().on_release(arbiter, master)
                if master == self.flagged:
                    self._violation("test", arbiter.name, "flagged", arbiter.sim.now)

        runs = {}
        for flagged in ("MPC755_C", None):
            for kernel in BACKENDS:
                machine = TestPollFastForward._pollers(kernel)
                monitor = Strict(flagged)
                machine.attach_probe(monitor)
                machine.sim.run()
                runs[flagged, kernel] = (_machine_state(machine), _hook_state(monitor, None))
            assert runs[flagged, "compiled"] == runs[flagged, "heap"]
            skipped = machine.sim.events_skipped
            assert skipped == 0 if flagged else skipped > 0
        assert len(runs["MPC755_C", "heap"][1]["monitor"][6]) > 500

    def test_hook_attached_mid_run_rebuilds_the_model(self):
        """A monitor attached at cycle 20,000, while the loops are parked,
        drops the run loop's model; the rebuilt one moves the monitor's
        counts on with every jump after it."""
        states = {}
        for kernel in BACKENDS:
            machine = TestPollFastForward._pollers(kernel)
            sim = machine.sim
            sim.run(until=20_000)
            before = sim.events_skipped
            monitor = machine.attach_monitors(fail_fast=False)
            if kernel == "compiled":
                assert before > 0 and sim._poll_model is None and not sim._poll_models
            sim.run()
            states[kernel] = (_machine_state(machine), _hook_state(monitor, None))
        assert states["compiled"] == states["heap"]
        assert sim.events_skipped > before
        assert states["heap"][1]["monitor"][0] > 0


class TestDiscardedMachine:
    """A machine stopped at a ``run(until=)`` deadline and then discarded
    keeps its counters: when the collector closes a generator suspended
    mid-tenure, the tenure counts nothing and releases nothing.  At
    cycle 1,000 GBAVIII's PE A is inside an I-cache refill tenure; at
    cycle 20,000 SplitBA's PE C is inside a bridged poll read holding both
    global buses."""

    CASES = [("GBAVIII", "FPA", 1000), ("SPLITBA", "PPA", 20_000)]

    @staticmethod
    def _stopped(kernel, bus, style, until, monkeypatch):
        from repro.apps.ofdm import OfdmParameters, mapping, run_ofdm
        from repro.options import presets
        from repro.sim.fabric import build_machine

        monkeypatch.setattr(
            mapping, "_run_and_time", lambda machine, result: machine.sim.run(until=until)
        )
        machine = build_machine(presets.preset(bus, 4), kernel=kernel)
        run_ofdm(machine, style, OfdmParameters(packets=1))
        owners = [segment.arbiter.owner for segment in machine.segments.values()]
        held = [owner for owner in owners if owner is not None]
        assert len(held) == (2 if bus == "SPLITBA" else 1) and len(set(held)) == 1
        return machine

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("case", CASES, ids=["%s-%s-%d" % case for case in CASES])
    def test_collected_machine_keeps_its_bus_stats(self, kernel, case, monkeypatch):
        import gc
        import weakref

        machine = self._stopped(kernel, *case, monkeypatch)
        held = [segment.stats for segment in machine.segments.values()]
        before = [(stats.as_dict(), dict(stats.per_master)) for stats in held]
        alive = weakref.ref(machine)
        del machine
        gc.collect()
        assert alive() is None
        assert [(stats.as_dict(), dict(stats.per_master)) for stats in held] == before

    @pytest.mark.parametrize("kernel", BACKENDS)
    @pytest.mark.parametrize("case", CASES, ids=["%s-%s-%d" % case for case in CASES])
    def test_closed_tenure_changes_no_counter(self, kernel, case, monkeypatch):
        """What the collector does, on a machine still held: close every
        suspended process; no bus, arbiter, bridge or memory counter moves."""
        import gc

        from repro.sim.kernel import Process

        machine = self._stopped(kernel, *case, monkeypatch)
        before = _machine_state(machine)
        processes = [
            item
            for item in gc.get_objects()
            if type(item) is Process and item.sim is machine.sim and not item._triggered
        ]
        assert processes
        for process in processes:
            process.generator.close()
        assert _machine_state(machine) == before

    @pytest.mark.parametrize("route", ["local", "bridged", "poll"])
    def test_interrupted_tenure_still_counts(self, route):
        """An Interrupt thrown into a tenure ends it where it stands: the
        arbiter is released and the transaction counted, on both backends
        alike (a local read, a bridged read, a poll's read)."""
        from repro.soc import SocAPI
        from repro.sim.fabric import build_machine

        states = {}
        for kernel in BACKENDS:
            machine = build_machine(_poll_spec("SPLITBA"), kernel=kernel)
            api = SocAPI(machine, "A")
            sim = machine.sim
            home = machine.segments["GLOBAL_BUS_SUB1"]
            caught = []

            def victim():
                try:
                    if route == "poll":
                        yield from api.var_wait("GO", 1)
                    else:
                        memory = "GLOBAL_SRAM_G1" if route == "local" else "GLOBAL_SRAM_G2"
                        yield from api.pe.bus_read(memory, 0, 64)
                except Interrupt:
                    caught.append(sim.now)

            process = api.pe.run(victim())

            def interrupter():
                yield 12
                assert home.arbiter.owner == api.pe.name
                process.interrupt("stop")

            sim.process(interrupter())
            sim.run()
            states[kernel] = (caught, _machine_state(machine))
        assert states["compiled"] == states["heap"]
        caught, state = states["heap"]
        assert caught == [12]
        segments = ["GLOBAL_BUS_SUB1"] + (["GLOBAL_BUS_SUB2"] if route == "bridged" else [])
        for name in segments:
            stats, per_master, arbiter = state["buses"][name]
            assert stats["transactions"] == 1 and per_master == {"MPC755_A": 1}
            assert arbiter[0] == 1  # one grant, released at the interrupt
        assert state["bridges"]["BB_SYS_1"] == (1 if route == "bridged" else 0)


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------

class TestBackendSelection:
    def test_explicit_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "compiled")
        assert Simulator(kernel="heap").kernel_name == "heap"
        assert type(Simulator()) is CompiledSimulator

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "compiled")
        assert default_kernel() == "compiled"
        assert Simulator().kernel_name == "compiled"
        monkeypatch.delenv("REPRO_SIM_KERNEL")
        assert default_kernel() == "heap"
        assert Simulator().kernel_name == "heap"

    def test_set_default_kernel_roundtrip(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        set_default_kernel("compiled")
        try:
            assert default_kernel() == "compiled"
        finally:
            set_default_kernel("heap")
        assert default_kernel() == "heap"

    def test_unknown_backend_rejected(self, monkeypatch):
        # "wheel" was a backend once; it is now as unknown as a typo.
        for name in ("splay", "wheel"):
            with pytest.raises(SimulationError, match="expected heap or compiled"):
                Simulator(kernel=name)
            monkeypatch.setenv("REPRO_SIM_KERNEL", name)
            with pytest.raises(SimulationError, match=r"in \$REPRO_SIM_KERNEL"):
                default_kernel()
            with pytest.raises(SimulationError):
                set_default_kernel(name)


# ---------------------------------------------------------------------------
# total_events_processed accounting
# ---------------------------------------------------------------------------

class TestEventAccounting:
    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_total_counter_tracks_run(self, kernel):
        def worker():
            for _ in range(25):
                yield 2

        sim = Simulator(kernel=kernel)
        for _ in range(3):
            sim.process(worker())
        before = total_events_processed()
        sim.run()
        assert total_events_processed() - before == sim.events_processed
        assert sim.events_processed > 0

    @pytest.mark.parametrize("kernel", BACKENDS)
    def test_total_counter_tracks_step(self, kernel):
        sim = Simulator(kernel=kernel)

        def worker():
            yield 1
            yield 257

        sim.process(worker())
        before = total_events_processed()
        steps = 0
        while sim.peek() is not None:
            sim.step()
            steps += 1
        assert total_events_processed() - before == steps == sim.events_processed

    def test_backends_count_identically(self):
        """Both backends charge the same number of events for one workload
        (the runner's per-case telemetry depends on this)."""
        results = {}
        for kernel in BACKENDS:
            sim = Simulator(kernel=kernel)
            log = []
            _random_workload(sim, log, seed=99)
            before = total_events_processed()
            sim.run()
            results[kernel] = (total_events_processed() - before, sim.events_processed)
        for kernel in BACKENDS[1:]:
            assert results[kernel] == results["heap"], kernel

    def test_pool_workers_report_same_counts_per_backend(self):
        """Per-case event counts from worker processes match the in-process
        counts, on both backends (REPRO_SIM_KERNEL is inherited by the
        runner's spawned workers through the environment)."""
        from repro.experiments.table2 import run_table2_telemetry

        counts = {}
        for kernel in BACKENDS:
            for jobs in (1, 2):
                rows, telemetry = run_table2_telemetry(
                    packets=2,
                    cases=[(3, "GBAVIII", "FPA"), (7, "SPLITBA", "FPA")],
                    jobs=jobs,
                    telemetry=False,
                    kernel=kernel,
                )
                counts[(kernel, jobs)] = [
                    entry.events_processed for entry in telemetry
                ]
                assert all(count > 0 for count in counts[(kernel, jobs)])
        # Same backend: pool workers must report exactly the inline counts.
        for kernel in BACKENDS:
            assert counts[(kernel, 1)] == counts[(kernel, 2)], kernel
        # Across backends the counts agree too -- the compiled backend
        # fires direct entries and resumes lone waiters inline but still
        # charges one event per fire.
        for kernel in BACKENDS[1:]:
            assert counts[(kernel, 1)] == counts[("heap", 1)], kernel
