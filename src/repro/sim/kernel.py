"""Discrete-event simulation kernel.

This module is the foundation of the cycle-level SoC simulator used to
evaluate generated bus systems.  It is a small, self-contained engine in the
style of SimPy: simulation actors are plain Python generator functions
("processes") that ``yield`` *events*; the kernel advances a virtual clock
(measured in bus-clock cycles) and resumes each process when the event it is
waiting for fires.

The kernel deliberately supports only what the bus models need:

* :class:`Event` -- one-shot occurrence carrying an optional value,
* :class:`Timeout` -- an event scheduled a fixed number of cycles ahead,
* :class:`Process` -- a running generator; itself an event that fires when
  the generator returns (carrying its return value),
* :class:`AnyOf` / :class:`AllOf` -- composite events,
* :meth:`Simulator.run` -- drive the event loop to quiescence or a deadline.

Determinism: events scheduled for the same cycle fire in scheduling order
(a monotonically increasing sequence number breaks ties), so simulations are
exactly reproducible run-to-run.

Performance notes.  The dominant yield in the bus models is ``yield <int>``
(a plain cycle delay); :meth:`Process._resume` serves it from a free list of
:class:`_PooledTimeout` objects instead of allocating a fresh
:class:`Timeout` per delay, and pushes straight onto the scheduler without
the ``Event`` constructor.  A pooled timeout is recycled only after it has
been popped and fired, and a process waits on at most one event at a time,
so reuse is invisible to simulation semantics (same firing cycle, same
tie-break order).  ``run`` additionally inlines the pending-event pop and
binds the scheduler operations locally.  A :class:`Process` is callable as
its own ``_resume``, so waiting on an event registers the process itself
rather than a freshly bound method.

Scheduler backends.  Two interchangeable event-queue implementations:

* ``heap`` (:class:`Simulator`) -- a binary heap of ``(cycle, seq, event)``
  tuples; the reference backend.
* ``compiled`` (:class:`repro.sim.compiled.CompiledSimulator`) -- a
  calendar: this cycle's entries, next cycle's entries and the same heap
  for anything later, drained by its own run loop.  Every ``yield <int>``
  is served by a *direct entry* -- a 1-tuple ``(process,)`` resumed
  straight through ``generator.send`` in the run loop, with no proxy event
  or callback list (see ``_use_direct`` in :meth:`Process._resume`) -- and
  the loop resumes a process waiting alone on an event the same way.

``Simulator(kernel=...)`` selects a backend explicitly; with no argument
the :data:`KERNEL_ENV` environment variable decides (default ``heap``).
Both backends fire same-cycle events in exactly the same order (see
:class:`~repro.sim.compiled.CompiledSimulator` for the argument), so
simulations are bit-identical across backends --
``tests/test_scheduler_parity.py`` enforces this with differential random
workloads.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

__all__ = [
    "SimulationError",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
    "total_events_processed",
    "KERNEL_BACKENDS",
    "KERNEL_ENV",
    "check_kernel",
    "default_kernel",
    "set_default_kernel",
]

# Scheduler backend selection -----------------------------------------------
KERNEL_BACKENDS = ("heap", "compiled")
KERNEL_ENV = "REPRO_SIM_KERNEL"


def check_kernel(name: str, origin: str = "") -> str:
    """Return ``name`` if it is a registered backend, else raise
    :class:`SimulationError`.

    The one backend-name check, shared by :func:`default_kernel`,
    :func:`set_default_kernel`, ``Simulator(kernel=...)`` and the CLI;
    ``origin`` names where a bad value came from in the message.
    """
    if name not in KERNEL_BACKENDS:
        raise SimulationError(
            "unknown scheduler backend %r%s (expected %s)"
            % (name, origin, " or ".join(KERNEL_BACKENDS))
        )
    return name


def default_kernel() -> str:
    """The backend ``Simulator()`` picks: ``$REPRO_SIM_KERNEL`` or ``heap``."""
    name = os.environ.get(KERNEL_ENV, "").strip().lower() or "heap"
    return check_kernel(name, " in $" + KERNEL_ENV)


def set_default_kernel(name: str) -> None:
    """Set the process-wide default backend (exported to worker processes).

    Implemented through :data:`KERNEL_ENV` so ``ProcessPoolExecutor``
    workers forked/spawned afterwards inherit the choice.
    """
    os.environ[KERNEL_ENV] = check_kernel(name)

# Events processed by every Simulator in this interpreter, ever.  The
# parallel experiment runner reads this before/after a case to report
# per-case event counts from worker processes (repro.experiments.runner).
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Events processed across all simulators in this process."""
    return _TOTAL_EVENTS


class SimulationError(Exception):
    """Raised for kernel misuse (double-firing an event, bad yields, ...)."""


class Interrupt(Exception):
    """Raised inside a process that another actor interrupted.

    The Bi-FIFO threshold interrupt (paper section IV.C.2) is delivered to a
    waiting PE process through this exception.  ``cause`` carries an
    arbitrary payload describing the interrupt source.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, may be triggered at most once via
    :meth:`succeed` (or :meth:`fail`), and thereafter holds a value.
    Processes wait on an event by yielding it; callbacks may also be attached
    directly with :meth:`add_callback`.
    """

    __slots__ = ("sim", "_value", "_exception", "_triggered", "_fired", "callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False  # succeed()/fail() called
        self._fired = False  # callbacks have run
        self.callbacks: List[Callable[["Event"], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only after triggering)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value read from a pending event")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; callbacks run this same cycle."""
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes see the exception re-raised at their yield point.
        """
        if self._triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> "Event":
        """Run ``callback`` when this event fires; returns the event that
        will call it: this one, or for a late subscription to a fired
        event, a fresh copy firing at the current cycle."""
        if self._fired:
            proxy = Event(self.sim)
            proxy.callbacks.append(callback)
            proxy._triggered = True
            proxy._value = self._value
            proxy._exception = self._exception
            self.sim._schedule(proxy)
            return proxy
        self.callbacks.append(callback)
        return self

    def _fire(self) -> None:
        """Run the callbacks of a popped event.

        The compiled run loop does not call this for a triggered, unfired
        event whose only callback is a process waiting on it: it resumes
        the process itself.  A subclass overriding ``_fire`` must therefore
        act exactly like this base method on a triggered, unfired event.
        """
        self._fired = True
        callbacks = self.callbacks
        if not callbacks:
            return
        if len(callbacks) == 1:
            # Single-waiter fast case: no list churn.  add_callback cannot
            # append concurrently -- _fired is already set, so any new
            # subscription goes through the late-subscription proxy.
            callback = callbacks[0]
            callbacks.clear()
            callback(self)
            return
        self.callbacks = []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires ``delay`` cycles after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % (delay,))
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay)


class _PooledTimeout(Event):
    """A free-listed timeout used for the internal ``yield <int>`` fast path.

    Never handed to user code: the only reference is the waiting process's
    ``_target``, so after it fires the kernel can reset and reuse it.  It is
    in the heap at most once at any time (pooled only after its single heap
    entry has been popped and fired).
    """

    __slots__ = ()


class Process(Event):
    """A running generator; fires (as an event) when the generator returns.

    A process is callable as its own :meth:`_resume`: it registers itself
    as the callback of the event it waits on, so no bound method is built
    per wait, and the compiled run loop can recognise the waiter.
    """

    __slots__ = ("generator", "name", "_send", "_target", "_interrupts")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ):
        if not hasattr(generator, "send"):
            raise SimulationError("process body must be a generator")
        super().__init__(sim)
        self.generator = generator
        # Bound once: the compiled backend's drain loop resumes processes
        # through this slot without re-binding generator.send per event.
        self._send = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        # While waiting: the Event being waited on, or (compiled backend)
        # the direct-entry 1-tuple sitting in the schedule.  Identity
        # against the firing trigger is the staleness check.
        self._target: Optional[Any] = None
        self._interrupts: Deque[Interrupt] = deque()
        sim._post_callback(self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Deliver an :class:`Interrupt` into the process at its yield point."""
        if not self.is_alive:
            return
        self._interrupts.append(Interrupt(cause))
        self.sim._post_callback(self)

    def _resume(self, trigger: Event) -> None:
        if self._triggered:
            return
        if self._target is not None and trigger is not self._target:
            # A stale wakeup (e.g. interrupt already consumed); deliver only
            # if an interrupt is actually queued.
            if not self._interrupts:
                return
        self._target = None
        try:
            if self._interrupts:
                interrupt = self._interrupts.popleft()
                next_event = self.generator.throw(interrupt)
            elif trigger._exception is not None:
                next_event = self.generator.throw(trigger._exception)
            else:
                next_event = self.generator.send(trigger._value)
        except StopIteration as stop:
            self._triggered = True
            self._value = stop.value
            self.sim._schedule(self)
            return
        except Interrupt:
            raise SimulationError(
                "process %r did not handle an Interrupt" % self.name
            )
        except BaseException as error:
            # An uncaught exception fails the process event: waiters see it
            # re-raised at their yield point.
            self._triggered = True
            self._exception = error
            self.sim._schedule(self)
            return
        if type(next_event) is int:
            # Dominant pattern: ``yield <cycles>``.  Serve it from the
            # timeout pool and schedule directly, skipping Event.__init__
            # and the callback-list append/copy churn.
            if next_event < 0:
                raise SimulationError(
                    "negative timeout delay: %r" % (next_event,)
                )
            sim = self.sim
            if sim._use_direct:
                # Compiled backend: schedule a *direct entry* -- a 1-tuple
                # the compiled run loop resumes via generator.send with no
                # proxy event in between.  The tuple itself is the
                # staleness token: an interrupt wakeup clears _target, and
                # the entry is then skipped when it comes due (counting as
                # one event, exactly like a stale pooled proxy).
                entry = (self,)
                self._target = entry
                sim._schedule(entry, next_event)
                return
            pool = sim._timeout_pool
            if pool:
                proxy = pool.pop()
                proxy._value = None
                proxy._exception = None
                proxy._fired = False
            else:
                proxy = _PooledTimeout(sim)
                proxy._triggered = True
            proxy.callbacks.append(self)
            self._target = proxy
            sim._seq = seq = sim._seq + 1
            heappush(sim._queue, (sim.now + next_event, seq, proxy))
            return
        if isinstance(next_event, int):
            # bool or an int subclass: take the general Timeout path.
            next_event = Timeout(self.sim, int(next_event))
        if not isinstance(next_event, Event):
            raise SimulationError(
                "process %r yielded %r (expected Event or int)"
                % (self.name, next_event)
            )
        # Wait on what will fire: a fired event hands back its proxy.
        self._target = next_event.add_callback(self)

    __call__ = _resume


class _Composite(Event):
    """Shared machinery for AnyOf / AllOf."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Composite):
    """Fires when the first of its child events fires; value is that event."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if not self._triggered:
            if event._exception is not None:
                self.fail(event._exception)
            else:
                self.succeed(event)


class AllOf(_Composite):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


class Simulator:
    """The event loop: a virtual cycle clock plus a pending-event heap.

    ``Simulator(kernel=...)`` is a backend selector: ``"heap"`` (this
    class) or ``"compiled"`` (:class:`repro.sim.compiled.CompiledSimulator`);
    ``None`` defers to ``$REPRO_SIM_KERNEL``.  Instantiating the subclass
    directly also works.

    ``events_processed`` counts the events fired, one per heap pop here.
    On the compiled backend it also counts the entries a poll
    fast-forward jump accounted for without firing them
    (``events_skipped``), so it is equal on both backends for one
    workload.
    """

    __slots__ = (
        "now",
        "_queue",
        "_seq",
        "_timeout_pool",
        "events_processed",
        "monitor_depth",
        "peak_queue_depth",
    )

    # Backend identity; the compiled subclass overrides.  _use_direct is the
    # flag Process._resume branches on in its int-yield fast path: it selects
    # direct-entry scheduling onto the compiled backend's calendar.
    kernel_name = "heap"
    _use_direct = False

    def __new__(cls, kernel: Optional[str] = None):
        if cls is Simulator:
            name = default_kernel() if kernel is None else check_kernel(kernel)
            if name == "compiled":
                # Lazy import: heap users never load the compiled package
                # (its calendar and run loop).
                from .compiled import CompiledSimulator

                return object.__new__(CompiledSimulator)
        return object.__new__(cls)

    def __init__(self, kernel: Optional[str] = None):
        self.now: int = 0
        self._queue: List = []
        self._seq = 0
        self._timeout_pool: List[_PooledTimeout] = []
        # Events processed by this simulator: one per heap pop that fired,
        # and on the compiled backend one per entry that poll fast-forward
        # accounted for without firing it (see events_skipped).
        self.events_processed = 0
        # Observability (repro.obs): when monitor_depth is True, run() and
        # step() track the deepest the pending-event heap ever got.
        self.monitor_depth = False
        self.peak_queue_depth = 0

    @property
    def events_skipped(self) -> int:
        """Entries counted in ``events_processed`` without being fired: 0
        here; the compiled backend's poll fast-forward skips some."""
        return 0

    # -- event construction helpers ------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _post_callback(self, callback: Callable[[Event], None], delay: int = 0) -> None:
        """Schedule ``callback`` to run as an event ``delay`` cycles ahead.

        Kernel-internal: serves process bootstrap and interrupt wakeups from
        the pooled-timeout free list (the callback receives a value-less
        triggered event, exactly like a fired ``Event`` with no payload).
        """
        pool = self._timeout_pool
        if pool:
            proxy = pool.pop()
            proxy._value = None
            proxy._exception = None
            proxy._fired = False
        else:
            proxy = _PooledTimeout(self)
            proxy._triggered = True
        proxy.callbacks.append(callback)
        self._schedule(proxy, delay)

    def _schedule(self, event: Event, delay: int = 0) -> None:
        # heappush is bound at module level (from-import), not looked up
        # through the heapq module on every call.
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, seq, event))

    def peek(self) -> Optional[int]:
        """Cycle of the next pending event, or None when quiescent."""
        return self._queue[0][0] if self._queue else None

    def _others_due(self, entry: Event) -> bool:
        """Whether anything but ``entry``, the firing one, is due this cycle.

        Lets a timer skip a same-cycle hop that would be the very next
        entry anyway (``_Poll._fire`` in :mod:`repro.sim.hsregs`).  The heap
        has popped ``entry`` already.
        """
        queue = self._queue
        return bool(queue) and queue[0][0] == self.now

    def step(self) -> None:
        if self.monitor_depth and len(self._queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(self._queue)
        when, _seq, event = heappop(self._queue)
        if when < self.now:
            raise SimulationError("time ran backwards")
        self.now = when
        event._fire()
        if type(event) is _PooledTimeout:
            # Fired, popped, and unreferenced (the resumed process cleared
            # its _target): safe to recycle.
            self._timeout_pool.append(event)
        self.events_processed += 1
        global _TOTAL_EVENTS
        _TOTAL_EVENTS += 1

    def _split_until(self, until: Optional[Any]):
        """``run()``'s ``until`` as ``(stop_event, deadline)``, one of them None.

        Rejects a deadline before the current cycle: running "until" the
        past would move the clock backwards.
        """
        if until is None:
            return None, None
        if isinstance(until, Event):
            return until, None
        deadline = int(until)
        if deadline < self.now:
            raise SimulationError(
                "run(until=%d) is before the current cycle %d" % (deadline, self.now)
            )
        return None, deadline

    def run(self, until: Optional[Any] = None, limit: int = 50_000_000) -> Any:
        """Run until ``until`` (an Event or a cycle count) or quiescence.

        ``limit`` bounds the number of processed events as a runaway guard.
        Returns the value of ``until`` when it is an event that fired.

        Deadline semantics (``until`` given as a cycle count): the deadline
        is *exclusive*.  Events scheduled for exactly the deadline cycle do
        **not** fire during this call; the clock stops at the deadline with
        those events still queued, and a subsequent ``run()`` fires them
        first (at the deadline cycle) before advancing further.  This
        matches SimPy's ``Environment.run(until=t)`` and keeps
        ``run(until=t)`` + ``run()`` equivalent to a single ``run()``.  A
        deadline before the current cycle raises :class:`SimulationError`
        before any work; ``until == now`` is a no-op.
        """
        stop_event, deadline = self._split_until(until)
        # Hot loop: everything bound locally, heap pop inlined (step() is
        # kept as the single-step public API but not called from here).
        # With monitor_depth on, each pop first records the queue depth.
        queue = self._queue
        pool = self._timeout_pool
        pop = heappop
        pooled_type = _PooledTimeout
        monitor_depth = self.monitor_depth
        peak = self.peak_queue_depth
        steps = 0
        try:
            while queue:
                if stop_event is not None and stop_event._fired:
                    return stop_event.value
                if monitor_depth and len(queue) > peak:
                    peak = len(queue)
                when = queue[0][0]
                if deadline is not None and when >= deadline:
                    self.now = deadline
                    return None
                event = pop(queue)[2]
                self.now = when
                # Counted before it fires, so that an event whose callback
                # raises out of run() counts as on the compiled backend.
                steps += 1
                event._fire()
                if type(event) is pooled_type:
                    pool.append(event)
                if steps > limit:
                    raise SimulationError("event limit exceeded (livelock?)")
            if stop_event is not None:
                if stop_event._fired:
                    return stop_event.value
                raise SimulationError(
                    "simulation ran to quiescence before the awaited event fired"
                )
            if deadline is not None:
                self.now = deadline
            return None
        finally:
            self.peak_queue_depth = peak
            self.events_processed += steps
            global _TOTAL_EVENTS
            _TOTAL_EVENTS += steps
