"""Differential tests: heap vs compiled scheduler backends.

The compiled backend (``repro.sim.compiled.CompiledSimulator``) must be
observationally identical to the heap backend: same event firing order,
same process wake order, same final clock, same event accounting.  These
tests execute the *same* workload on every backend and compare execution
logs, concentrating on the places where timing-wheel bucket draining --
and the compiled backend's direct entries (bare ``(process,)`` tuples
with no proxy event) -- could plausibly diverge from the heap's
``(when, seq)`` order:

* same-cycle tie-breaks between events scheduled through different paths
  (int fast path, ``timeout()``, composite re-arms, interrupts);
* the ``WHEEL_SIZE`` boundary, where a delay moves between the wheel and
  the overflow heap (and a direct entry falls back to a proxy);
* overflow events landing on the same cycle as bucket events (the
  overflow-drains-first rule);
* ``Interrupt`` delivered while the victim waits on a pooled timeout (on
  the compiled backend: a *stale direct entry* that must still deliver a
  queued interrupt when it drains);
* request withdrawal via ``Arbiter.cancel`` mid-contention;
* ``run(until=...)`` deadline splits mid-stream.
"""

import random

import pytest

from repro.sim.compiled import CompiledSimulator
from repro.sim.kernel import (
    KERNEL_BACKENDS,
    WHEEL_SIZE,
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
                    rng.randint(WHEEL_SIZE - 2, WHEEL_SIZE + 2),
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
        """An event scheduled far ahead (overflow heap) fires before events
        scheduled later onto the same cycle (wheel bucket) -- matching the
        heap's global sequence order."""

        def run(kernel):
            sim = Simulator(kernel=kernel)
            order = []

            def far(name):
                # Scheduled at cycle 0 for cycle WHEEL_SIZE + 10: overflow.
                yield WHEEL_SIZE + 10
                order.append(name)

            def late(name):
                # Re-scheduled at WHEEL_SIZE + 5 for WHEEL_SIZE + 10: bucket.
                yield WHEEL_SIZE + 5
                yield 5
                order.append(name)

            sim.process(far("overflow-first"))
            sim.process(late("bucket-second"))
            sim.process(far("overflow-third"))
            sim.run()
            assert sim.now == WHEEL_SIZE + 10
            return order

        heap_order = run("heap")
        assert heap_order == ["overflow-first", "overflow-third", "bucket-second"]
        for kernel in BACKENDS[1:]:
            assert run(kernel) == heap_order, kernel

    @pytest.mark.parametrize(
        "delay", [WHEEL_SIZE - 1, WHEEL_SIZE, WHEEL_SIZE + 1]
    )
    def test_wheel_size_boundary(self, delay):
        """Delays straddling the wheel/overflow boundary behave alike."""

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
        schedule; the compiled bucket drain must discard it exactly like the
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
    """Heap-equivalent contract details on the timing-wheel backend."""

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
        """With an empty wheel, run(until=...) jumps straight to the
        deadline even when the only pending event sits in the overflow."""
        sim = Simulator(kernel=kernel)
        fired = []

        def worker():
            yield 5 * WHEEL_SIZE
            fired.append(sim.now)

        sim.process(worker())
        sim.run(until=3 * WHEEL_SIZE)
        assert sim.now == 3 * WHEEL_SIZE and fired == []
        sim.run()
        assert fired == [5 * WHEEL_SIZE]

    def test_step_and_peek_match_heap(self):
        def drive(kernel):
            sim = Simulator(kernel=kernel)
            seen = []

            def worker(name):
                yield 4
                seen.append((sim.now, name))
                yield WHEEL_SIZE + 4
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
        it fire within the same cycle (the live bucket-length check)."""

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
            yield WHEEL_SIZE + 1

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
        # batches bucket pops and fires direct entries but still charges
        # one event per fire.
        for kernel in BACKENDS[1:]:
            assert counts[(kernel, 1)] == counts[("heap", 1)], kernel
