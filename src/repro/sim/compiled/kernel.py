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

Poll fast-forward: under a plain ``run()`` or a deadline, a cycle that
ends with every running poll loop parked (see
``repro.sim.fabric._PollLoop``) may end in a jump over
whole periods of those loops (:meth:`CompiledSimulator._skip_periods`),
hooks that declare their counters included;
``events_processed`` counts the skipped entries and ``events_skipped``
reports them (docs/performance.md, "Poll fast-forward").
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from typing import Any, Optional, Tuple

from ..fabric import _PollLoop, _PollModel
from ..kernel import (
    AnyOf,
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

# Poll states recorded in one stretch (one ``t_next``) without a recurrence
# before _skip_periods gives the stretch up.  The longest searches in the
# benchmark workloads end in a jump after 367 states (Table II's GBAVI case,
# whose 143- and 147-cycle polls share a bus) and 256 (Table III's).
_POLL_STATES = 512


def _spent(timer: Timeout) -> bool:
    """Whether firing ``timer`` only counts an event: each of its callbacks
    is an ``AnyOf`` that another child already triggered, as a guarded
    bus acquisition leaves its timeout once the grant won the race."""
    for callback in timer.callbacks:
        if getattr(callback, "__func__", None) is not AnyOf._on_child:
            return False
        if not callback.__self__._triggered:
            return False
    return True


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
    it resumes itself.  Where poll loops wait out their capped
    back-offs alone, it also skips whole
    periods of them (:meth:`_skip_periods`), firing only the entries
    before the first recurrence and after the last whole period; the
    clock, the event count and every counter end as if each entry had
    fired.
    """

    __slots__ = (
        "_current",
        "_next",
        "_poll_loops",
        "_polls_busy",
        "_poll_model",
        "_poll_models",
        "_poll_seen",
        "_poll_stretch",
        "_events_skipped",
    )

    kernel_name = "compiled"
    _use_direct = True

    def __init__(self, kernel: Optional[str] = None):
        super().__init__()
        self._current: list = []
        self._next: list = []
        # Poll fast-forward (see _skip_periods): the running poll loops by
        # generator, how many of them are not parked, the model state of the
        # last set of loops seen, the models of every set seen by the loops'
        # routes, the states recorded since the last jump, and the stretch
        # (its ``t_next``) they were recorded in.
        self._poll_loops: dict = {}
        self._polls_busy = 0
        self._poll_model: Optional[_PollModel] = None
        self._poll_models: dict = {}
        self._poll_seen: dict = {}
        self._poll_stretch: Optional[int] = None
        self._events_skipped = 0

    @property
    def events_skipped(self) -> int:
        """Entries that poll fast-forward accounted for without firing
        them; ``events_processed`` includes them."""
        return self._events_skipped

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
        # Poll fast-forward runs under a plain run() or a deadline; ``retry``
        # is the first cycle at whose end another attempt can succeed.
        polls = {} if guard < 0 else self._poll_loops
        retry = 0
        self._poll_seen.clear()
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
                if polls and now >= retry and not self._polls_busy:
                    skipped, retry = self._skip_periods(steps, limit, deadline)
                    if skipped:
                        steps = start = steps + skipped
                        now = self.now
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

    # -- poll fast-forward ----------------------------------------------
    def _skip_periods(
        self, steps: int, limit: int, deadline: Optional[int]
    ) -> Tuple[int, int]:
        """Jump parked poll loops over whole periods; called at the end of
        a cycle in which every running poll loop is parked.

        Records the state of the loops (the calendar part here, the model
        part, every segment, arbiter and bridge on their routes and the
        hooks' counters, from :class:`~repro.sim.fabric._PollModel`); when
        a recorded state recurs ``period`` cycles later with nothing else
        due before ``t_next``, the loops have repeated themselves exactly,
        and will again until something else acts.  So whole periods up to
        ``t_next`` are skipped at once, or up to the next value a hook
        acts on: the loops' heap entries, and the spent timers that fire
        among them, move ``periods * period`` cycles on (with fresh
        sequence numbers, in their order, as the unskipped run would have
        pushed them), their counters move on by as many periods' changes,
        and the skipped entries count as processed.

        States are recorded per stretch, the cycles up to one ``t_next``:
        a new ``t_next`` drops the states recorded before it, which can
        never recur.  A stretch that records ``_POLL_STATES`` states
        without a recurrence is given up until ``t_next``, which bounds
        the work and the memory a stretch that never recurs can take.
        Returns the entries
        skipped and the cycle before which another attempt cannot succeed
        (docs/performance.md, "Poll fast-forward").
        """
        now = self.now
        loops = self._poll_loops
        running = tuple(loops.values())
        seen = self._poll_seen
        model = self._poll_model
        if model is None or model.loops != running:
            # New loops or new hooks: no state recorded before can recur.
            # A set of loops on the routes of one seen before reuses its
            # model, which depends on nothing else.
            routes = tuple([
                (loop.pe, tuple(loop.segments), tuple(loop.bridges), loop.memory, loop.interval)
                for loop in running
            ])
            model = self._poll_models.get(routes)
            if model is None:
                model = self._poll_models[routes] = _PollModel(running)
            model.loops = running
            self._poll_model = model
            seen.clear()
        # A period spans at least one back-off of every loop, and each
        # loop's entry is due within its back-off; so when more entries
        # than loops are due within ``span``, something else acts before
        # a period has passed (the common case, told cheaply).  Timers are
        # left to the sort below, which tells the spent ones.
        span = model.span
        horizon = now + span
        due = len(self._next)
        timer_type = Timeout
        for item in self._queue:
            if item[0] <= horizon and type(item[2]) is not timer_type:
                due += 1
        if due > len(running):
            return 0, now + 1
        # Each loop's process waits on exactly one live entry.
        targets = {}
        for loop in running:
            process = loop.process or self._poll_process(loop)
            if process is None or process._interrupts:
                return 0, now + 1
            targets[id(process._target)] = loop
        # Sort the calendar into the loops' entries and the rest, which
        # bound the jump: ``t_next`` is the first cycle something else acts.
        # A spent timer acts on nothing: it moves with the loops (its
        # offset in the key) rather than ending the stretch.
        t_next = sys.maxsize if deadline is None else deadline
        parked = []
        others = []
        for item in self._queue:
            entry = item[2]
            loop = targets.pop(id(entry), None)
            if loop is not None or (type(entry) is timer_type and _spent(entry)):
                parked.append((item[0], item[1], loop, entry))
            else:
                others.append(item)
                if item[0] < t_next:
                    t_next = item[0]
        following = []
        for entry in self._next:
            loop = targets.pop(id(entry), None)
            if loop is None:
                return 0, now + 1
            following.append(loop)
        if targets:
            return 0, now + 1
        # A jump needs one period to recur in and one more to skip.
        if t_next - now <= span:
            return 0, t_next
        if not model.ready():
            return 0, now + 1
        if t_next != self._poll_stretch:
            # A new stretch: no state recorded before it can recur.
            seen.clear()
            self._poll_stretch = t_next
        parked.sort()
        key = (
            tuple([(when - now, loop) for when, _seq, loop, _entry in parked]),
            tuple(following),
            model.key(),
        )
        recorded = seen.get(key)
        if recorded is None:
            if len(seen) >= _POLL_STATES:
                # The loops' joint schedule has not recurred in as many
                # states: give the stretch up.
                return 0, t_next
            if t_next - now > 2 * span:
                seen[key] = (now, steps, model.counters())
            return 0, now + 1
        then, then_steps, before = recorded
        period = now - then
        per_period = steps - then_steps
        periods = min((t_next - 1 - now) // period, (limit - steps) // per_period)
        seen.clear()
        if periods <= 0:
            return 0, t_next
        after = model.counters()
        retry = t_next
        if model.declared:
            # Stop short of the next value a hook acts on (a fault's
            # trigger window); the periods up to it fire, and the loops
            # may settle into a new period after it, before ``t_next``.
            cleared = model.clear_periods(before, after, periods)
            if cleared < periods:
                if cleared <= 0:
                    return 0, now + 1
                periods = cleared
                retry = now + cleared * period + 1
        model.advance(before, after, periods)
        shift = periods * period
        queue = self._queue
        queue[:] = others
        seq = self._seq
        for when, _seq, _loop, entry in parked:
            seq += 1
            queue.append((when + shift, seq, entry))
        self._seq = seq
        heapify(queue)
        self.now = now + shift
        skipped = periods * per_period
        self._events_skipped += skipped
        return skipped, retry

    def _poll_process(self, loop: _PollLoop) -> Optional[Process]:
        """The process running ``loop``: the waiter of a calendar entry
        whose generator delegates (``yield from``) down to the loop's."""
        for entry in self._next + [item[2] for item in self._queue]:
            if type(entry) is tuple:
                process = entry[0]
            elif len(entry.callbacks) == 1:
                process = entry.callbacks[0]
            else:
                continue
            if not isinstance(process, Process):
                continue
            generator = process.generator
            while generator is not None:
                if generator is loop.generator:
                    loop.process = process
                    return process
                generator = getattr(generator, "gi_yieldfrom", None)
        return None

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
