"""Compiled scheduler backend: a calendar and a run loop that resumes processes.

:class:`CompiledSimulator` keeps pending entries in a three-part calendar
(its docstring gives the containers and the ordering argument) and drains
it with one hand-written run loop, :meth:`CompiledSimulator.run`.  The
loop resumes processes itself wherever it can:

* every ``yield <int>`` is a **direct entry**, a 1-tuple ``(process,)``
  (see ``Process._resume``'s ``_use_direct`` branch), whatever its delay;
  the loop resumes it straight through the bound ``generator.send`` -- no
  proxy ``Event``, no callback list;
* the 1-tuple doubles as the staleness token: any generic wakeup
  (interrupt, finish) rewrites ``process._target``, so an entry whose
  identity no longer matches goes to ``Process._resume``, which skips it --
  counting as one processed event, exactly like a stale pooled proxy on
  the heap backend;
* an event that is triggered and unfired, carries no exception and whose
  only callback is a process waiting on it with no queued interrupt is
  resumed with the same code, bypassing ``Event._fire`` and
  ``Process._resume``;
* a process yielding an unfired event is registered on it by the loop.

Everything else -- process start and interrupt wakeups, events with several
callbacks, composites, failures -- goes through ``Event._fire`` and
``Process._resume`` as on the heap backend, so firing order, final clock
and ``events_processed`` are bit-identical to it
(``tests/test_scheduler_parity.py`` runs the differential).

One loop serves every ``run()`` call.  The stop-event and queue-depth
checks sit behind the event-limit test that each entry and each cycle
makes anyway, and every deadline comparison behind ``deadline is not
None``, so a plain ``run()`` pays only that ``None`` test, once or twice
per cycle, for the modes it does not use (docs/performance.md, "One run
loop").
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional

from ..kernel import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    _PooledTimeout,
)
from .. import kernel as _kernel_mod

__all__ = ["CompiledSimulator"]


def _resume_slow(sim: "CompiledSimulator", process: Process, nxt: Any) -> None:
    """Yields the run loop does not serve itself, as ``Process._resume``
    handles them: a negative delay (an error), a bool or int subclass (a
    general ``Timeout``), a fired event (a late subscription) and anything
    that is not an event (an error)."""
    process._target = None
    if isinstance(nxt, int):
        nxt = Timeout(sim, int(nxt))  # raises on a negative delay
    if not isinstance(nxt, Event):
        raise SimulationError(
            "process %r yielded %r (expected Event or int)" % (process.name, nxt)
        )
    process._target = nxt.add_callback(process)


class CompiledSimulator(Simulator):
    """Calendar backend with a run loop that resumes processes itself.

    Containers:

    * ``_current`` -- the entries due this cycle (``now``), in firing order;
    * ``_next`` -- the entries due next cycle (``now + 1``);
    * ``_queue`` -- the base class's ``(when, seq, entry)`` heap, for
      entries two or more cycles ahead.

    An entry is an :class:`~repro.sim.kernel.Event` or a direct entry
    ``(process,)``.  Scheduling is a list append for delays 0 and 1 and a
    heap push otherwise.  When the clock advances to cycle ``T``, ``_next``
    becomes ``_current`` and the heap's entries due at ``T`` move in front
    of it, so ``_current`` always holds everything due at ``now``.

    Determinism: the heap backend fires same-cycle events in scheduling
    (sequence-number) order.  The calendar reproduces that order
    structurally.  Of the entries due at cycle ``T``:

    * the heap's were scheduled at ``T - 2`` or earlier, and leave the heap
      in sequence order;
    * ``_next``'s were scheduled at ``T - 1``, in append order;
    * the zero-delay ones were scheduled at ``T``, appended to ``_current``
      while it drains.

    Draining the heap's entries, then ``_next``, then the zero-delay ones
    therefore fires in the global scheduling order, with no sequence number
    outside the heap.

    A wheel of one-cycle buckets does not pay on the traffic the paper
    tables generate: a handful of entries are pending at once, most cycles
    hold one, and finding the next populated bucket costs more than the
    heap push it saves (docs/performance.md, "Sparse traffic").

    ``run`` keeps the deadline/stop-event/limit contract and the event
    accounting of :meth:`Simulator.run`; the module docstring covers what
    it resumes itself.
    """

    __slots__ = ("_current", "_next")

    kernel_name = "compiled"
    _use_direct = True

    def __init__(self, kernel: Optional[str] = None):
        super().__init__()
        self._current: list = []
        self._next: list = []

    # -- scheduling -----------------------------------------------------
    def _schedule(self, event: Any, delay: int = 0) -> None:
        if delay == 0:
            self._current.append(event)
        elif delay == 1:
            self._next.append(event)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._queue, (self.now + delay, seq, event))

    # -- introspection --------------------------------------------------
    def peek(self) -> Optional[int]:
        """Cycle of the next pending entry, or None when quiescent."""
        if self._current:
            return self.now
        if self._next:
            return self.now + 1
        return self._queue[0][0] if self._queue else None

    def _others_due(self, entry: Any) -> bool:
        """Whether anything but ``entry``, the firing one, is due this cycle.

        ``_current`` holds every entry due now: under ``run()`` the firing
        entry is still in it, followed by whatever fires after it; under
        ``step()`` it has been popped.
        """
        current = self._current
        return bool(current) and current[-1] is not entry

    @property
    def pending_events(self) -> int:
        """Entries currently scheduled (both lists + the heap)."""
        return len(self._current) + len(self._next) + len(self._queue)

    # -- event loop -----------------------------------------------------
    def run(self, until: Optional[Any] = None, limit: int = 50_000_000) -> Any:
        stop_event, deadline = self._split_until(until)
        if deadline == self.now:
            return None
        # A plain run() tests each entry and each cycle against the event
        # limit only; a stop event or depth monitoring lowers ``guard`` so
        # that every test leads on to their checks.
        monitored = self.monitor_depth
        guard = -1 if monitored or stop_event is not None else limit
        queue = self._queue
        current = self._current
        upcoming = self._next
        pool = self._timeout_pool
        pop = heappop
        push = heappush
        pooled_type = _PooledTimeout
        process_type = Process
        event_type = Event
        entry_type = tuple
        int_type = int
        one = 1
        peak = self.peak_queue_depth
        now = self.now
        # Entries fired by this call, and by this call before the current cycle.
        steps = start = 0
        try:
            while True:
                # One cycle.  ``current`` holds every entry due ``now`` in
                # scheduling order; iterating the live list picks up
                # zero-delay entries appended while it drains.
                for entry in current:
                    if steps > guard:
                        if steps > limit:
                            raise SimulationError("event limit exceeded (livelock?)")
                        if stop_event is not None and stop_event._fired:
                            return stop_event.value
                        if monitored:
                            depth = len(queue) + len(current) - (steps - start) + len(upcoming)
                            if depth > peak:
                                peak = depth
                    steps += 1
                    if type(entry) is entry_type:
                        process = entry[0]
                        if process._target is not entry or process._interrupts:
                            # Stale entry, queued interrupt, or finished
                            # process: the generic resume sorts them out.
                            process._resume(entry)
                            continue
                        value = None
                    elif (
                        entry._triggered
                        and not entry._fired
                        and entry._exception is None
                        and len(entry.callbacks) == 1
                        and type(process := entry.callbacks[0]) is process_type
                        and process._target is entry
                        and not process._interrupts
                    ):
                        # A lone waiter: what Event._fire + Process._resume
                        # would do, inline.
                        entry._fired = True
                        entry.callbacks.clear()
                        value = entry._value
                        process._target = entry = (process,)
                    else:
                        entry._fire()
                        if type(entry) is pooled_type:
                            pool.append(entry)
                        continue
                    try:
                        nxt = process._send(value)
                    except StopIteration as stop:
                        process._target = None
                        process._triggered = True
                        process._value = stop.value
                        current.append(process)
                    except Interrupt:
                        raise SimulationError(
                            "process %r did not handle an Interrupt" % process.name
                        )
                    except BaseException as error:
                        process._target = None
                        process._triggered = True
                        process._exception = error
                        current.append(process)
                    else:
                        if nxt is one:
                            # One pointer compare for the bus-beat cadence; a
                            # 1 that is not the interned object takes the
                            # general branch below.
                            upcoming.append(entry)
                        elif type(nxt) is int_type:
                            if nxt > 1:
                                self._seq = seq = self._seq + 1
                                push(queue, (now + nxt, seq, entry))
                            elif nxt == 0:
                                current.append(entry)
                            elif nxt == 1:
                                upcoming.append(entry)
                            else:
                                _resume_slow(self, process, nxt)
                        elif isinstance(nxt, event_type) and not nxt._fired:
                            process._target = nxt
                            nxt.callbacks.append(process)
                        else:
                            _resume_slow(self, process, nxt)
                current.clear()
                start = steps
                if steps > guard:
                    if steps > limit:
                        raise SimulationError("event limit exceeded (livelock?)")
                    if stop_event is not None and stop_event._fired:
                        return stop_event.value
                # Advance to the next populated cycle: next cycle's list
                # becomes the current one, and the heap's entries due then
                # go first.
                if upcoming:
                    when = now + 1
                    current, upcoming = upcoming, current
                    self._current = current
                    self._next = upcoming
                    if queue and queue[0][0] == when:
                        due = [pop(queue)[2]]
                        while queue and queue[0][0] == when:
                            due.append(pop(queue)[2])
                        current[:0] = due
                elif queue:
                    when = queue[0][0]
                    if deadline is not None and when > deadline:
                        self.now = deadline
                        return None
                    current.append(pop(queue)[2])
                    while queue and queue[0][0] == when:
                        current.append(pop(queue)[2])
                else:
                    break
                self.now = now = when
                if deadline is not None and when == deadline:
                    return None
            if stop_event is not None:
                raise SimulationError(
                    "simulation ran to quiescence before the awaited event fired"
                )
            if deadline is not None:
                self.now = deadline
            return None
        finally:
            # A stop or an error inside a cycle leaves its unfired rest queued.
            del current[: steps - start]
            self.events_processed += steps
            _kernel_mod._TOTAL_EVENTS += steps
            if peak > self.peak_queue_depth:
                self.peak_queue_depth = peak

    # -- stepping -------------------------------------------------------
    def step(self) -> None:
        """Fire the next entry, in run() order."""
        current = self._current
        if not current:
            queue = self._queue
            if self._next:
                when = self.now + 1
                current, self._next = self._next, current
                self._current = current
            elif queue:
                when = queue[0][0]
            else:
                raise IndexError("step from an empty event schedule")
            due = []
            while queue and queue[0][0] == when:
                due.append(heappop(queue)[2])
            current[:0] = due
            self.now = when
        if self.monitor_depth:
            self.peak_queue_depth = max(self.peak_queue_depth, self.pending_events)
        entry = current.pop(0)
        if type(entry) is tuple:
            process = entry[0]
            if process._target is entry:
                # A live direct entry: resume the process as the heap
                # backend does, with a fired event carrying no value.
                entry = Event(self)
                entry._triggered = entry._fired = True
                process._target = entry
            process._resume(entry)
        else:
            entry._fire()
            if type(entry) is _PooledTimeout:
                self._timeout_pool.append(entry)
        self.events_processed += 1
        _kernel_mod._TOTAL_EVENTS += 1
