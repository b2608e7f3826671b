"""Compiled scheduler backend: a timing wheel drained by generated run loops.

:class:`CompiledSimulator` keeps pending events on a timing wheel (its
docstring gives the data structures and the ordering argument) and drains
it with run-loop variants *generated* with ``compile()``/``exec``.  The
dominant ``yield <int>`` traffic skips the pooled-timeout proxy machinery
through **direct entries**:

* a process waiting an in-horizon delay sits in its wheel bucket as a
  1-tuple ``(process,)`` (see ``Process._resume``'s ``_use_direct`` branch);
  the drain loop resumes it straight through the bound ``generator.send``
  -- no proxy ``Event``, no callback list, no allocation;
* the 1-tuple doubles as the staleness token: any generic wakeup
  (interrupt, event, finish) rewrites ``process._target``, so a drained
  entry whose identity no longer matches is skipped -- counting as one
  processed event, exactly like a stale pooled proxy on the heap backend;
* consecutive delay-1 reschedules (bus beats, the dominant cadence) are
  batched into a pending list flushed into the next bucket with one
  ``list.extend`` -- the flush happens before any slow-path call that could
  itself append to that bucket, so same-cycle ordering is untouched;
* ``yield 1`` is recognized with one pointer compare against the interned
  int ``1`` (a miss falls through to the general in-horizon branch, so
  correctness never depends on interning).

Everything else -- overflow heap, bootstrap/interrupt wakeups, ``Timeout``
and composite events -- goes through the pooled-proxy paths shared with
the heap backend, so firing order, final clock and ``events_processed``
are bit-identical to it (``tests/test_scheduler_parity.py`` runs the
differential).

Run-loop **variants** are specialized over (stop-event present, deadline
present, monitored): a run with hooks off executes a loop with *no* hook
call sites compiled into it.  The rendered sources are plain Python kept
in-process for inspection -- ``repro compile -o DIR`` writes them to disk
(:func:`generated_kernel_sources`).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, List, Optional

from ..kernel import (
    WHEEL_SIZE,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    Timeout,
    _PooledTimeout,
    _WHEEL_BITS,
    _WHEEL_MASK,
)
from .. import kernel as _kernel_mod

__all__ = ["CompiledSimulator", "generated_kernel_sources", "KERNEL_VARIANTS"]

# Low-bit masks that rotate the occupancy bitmask so "bit k" means "k
# cycles from now", and precomputed ~bit masks: clearing an occupancy bit
# with a table lookup avoids allocating a fresh (negative) big int per
# drained cycle.
_LOW_MASKS = [(1 << i) - 1 for i in range(WHEEL_SIZE)]
_WHEEL_CLEARS = [~(1 << i) for i in range(WHEEL_SIZE)]

# Variant axes: exactly one of stop/deadline can be active per run() call
# (``until`` is either an Event or a cycle count), and monitored runs take
# one generic variant with hook sites compiled in.
KERNEL_VARIANTS = ("plain", "deadline", "stop", "monitored")


def _render_fast(name: str, has_stop: bool, has_deadline: bool) -> str:
    """Render one unmonitored run-loop variant as Python source.

    Lines prefixed ``?S`` / ``?D`` are kept only when the variant handles a
    stop event / a deadline; the prefix is stripped.  The emitted function
    has no conditional hook sites at all -- stop/deadline checks exist only
    in the variants that need them (free-when-off, enforced structurally).
    """
    template = """\
def {name}(sim, stop_event, deadline, limit):
    buckets = sim._buckets
    overflow = sim._overflow
    pool = sim._timeout_pool
    pop = heappop
    pooled_type = _PooledTimeout
    entry_type = tuple
    mask = _WHEEL_MASK
    size = WHEEL_SIZE
    one = 1
    bits = _WHEEL_BITS
    clears = _WHEEL_CLEARS
    low_masks = _LOW_MASKS
    llen = len
    steps = 0
    pending1 = []
    p1_append = pending1.append
    try:
        while True:
?S          if stop_event._fired:
?S              return stop_event.value
            now = sim.now
            if buckets[now & mask]:
                when = now
            else:
                occupied = sim._occupied
                if occupied and buckets[(now + 1) & mask]:
                    when = now + 1
                elif occupied:
                    index = now & mask
                    ahead = occupied >> index
                    if ahead:
                        when = now + (ahead & -ahead).bit_length() - 1
                    else:
                        low = occupied & low_masks[index]
                        when = (
                            now + size - index + (low & -low).bit_length() - 1
                        )
                else:
                    when = None
            if overflow:
                over_when = overflow[0][0]
                if when is None or over_when < when:
                    when = over_when
            elif when is None:
                break
?D          if when >= deadline:
?D              sim.now = deadline
?D              return None
            sim.now = when
            while overflow and overflow[0][0] == when:
?S              if stop_event._fired:
?S                  return stop_event.value
                event = pop(overflow)[2]
                event._fire()
                if type(event) is pooled_type:
                    pool.append(event)
                steps += 1
                if steps > limit:
                    raise SimulationError("event limit exceeded (livelock?)")
            index = when & mask
            bucket = buckets[index]
            if not bucket:
                continue
            next_index = (when + 1) & mask
            next_bucket = buckets[next_index]
            next_bit = bits[next_index]
            fired = 0
            appended = 0
            add_bits = 0
            limit_left = limit - steps
            try:
                # Iterating the live list: a CPython list iterator picks up
                # entries appended during iteration, so zero-delay events
                # scheduled by a callback still fire this same cycle --
                # without a len() call or subscript per event.  ``steps`` is
                # folded in once per bucket (finally); the per-event limit
                # guard compares ``fired`` against the hoisted remainder.
                for entry in bucket:
?S                  if stop_event._fired:
?S                      return stop_event.value
                    fired += 1
                    if type(entry) is entry_type:
                        process = entry[0]
                        if process._target is not entry or process._interrupts:
                            # Stale entry, queued interrupt, or finished
                            # process: the generic resume sorts them out
                            # with heap-identical semantics.
                            if pending1:
                                next_bucket.extend(pending1)
                                add_bits |= next_bit
                                appended += llen(pending1)
                                del pending1[:]
                            process._resume(entry)
                        else:
                            try:
                                nxt = process._send(None)
                            except StopIteration as stop:
                                process._target = None
                                process._triggered = True
                                process._value = stop.value
                                if pending1:
                                    next_bucket.extend(pending1)
                                    add_bits |= next_bit
                                    appended += llen(pending1)
                                    del pending1[:]
                                sim._schedule(process)
                            except Interrupt:
                                raise SimulationError(
                                    "process %r did not handle an Interrupt"
                                    % process.name
                                )
                            except BaseException as error:
                                process._target = None
                                process._triggered = True
                                process._exception = error
                                if pending1:
                                    next_bucket.extend(pending1)
                                    add_bits |= next_bit
                                    appended += llen(pending1)
                                    del pending1[:]
                                sim._schedule(process)
                            else:
                                if nxt is one:
                                    p1_append(entry)
                                elif type(nxt) is int and 0 <= nxt < size:
                                    j = (when + nxt) & mask
                                    buckets[j].append(entry)
                                    add_bits |= bits[j]
                                    appended += 1
                                else:
                                    if pending1:
                                        next_bucket.extend(pending1)
                                        add_bits |= next_bit
                                        appended += llen(pending1)
                                        del pending1[:]
                                    _resume_slow(sim, process, nxt)
                    else:
                        if pending1:
                            next_bucket.extend(pending1)
                            add_bits |= next_bit
                            appended += llen(pending1)
                            del pending1[:]
                        if type(entry) is pooled_type:
                            entry._fired = True
                            callbacks = entry.callbacks
                            callback = callbacks[0]
                            callbacks.clear()
                            callback(entry)
                            pool.append(entry)
                        else:
                            entry._fire()
                    if fired > limit_left:
                        raise SimulationError("event limit exceeded (livelock?)")
            finally:
                steps += fired
                if pending1:
                    next_bucket.extend(pending1)
                    add_bits |= next_bit
                    appended += llen(pending1)
                    del pending1[:]
                if fired:
                    sim._wheel_count += appended - fired
                    del bucket[:fired]
                occupied = sim._occupied | add_bits
                if not bucket:
                    occupied &= clears[index]
                sim._occupied = occupied
?S      if stop_event._fired:
?S          return stop_event.value
?S      raise SimulationError(
?S          "simulation ran to quiescence before the awaited event fired"
?S      )
?D      sim.now = deadline
        return None
    finally:
        sim.events_processed += steps
        _kernel._TOTAL_EVENTS = _kernel._TOTAL_EVENTS + steps
"""
    lines = []
    for line in template.format(name=name).splitlines():
        if line.startswith("?S"):
            if not has_stop:
                continue
            line = "  " + line[2:]
        elif line.startswith("?D"):
            if not has_deadline:
                continue
            line = "  " + line[2:]
        lines.append(line)
    return "\n".join(lines) + "\n"


def _render_monitored(name: str) -> str:
    """Render the monitored variant: peak-pending-depth tracking per fire.

    Depth is read before each fire as ``wheel_count - fired + overflow``
    (overflow fires read ``wheel_count + overflow``): the pending count
    with the about-to-fire event included, the heap's convention of
    reading ``len(queue)`` before the pop.  Bookkeeping is per-event (no
    delay-1 batching) so the live ``_wheel_count`` stays truthful
    mid-drain.
    """
    return '''\
def {name}(sim, stop_event, deadline, limit):
    buckets = sim._buckets
    overflow = sim._overflow
    pool = sim._timeout_pool
    pop = heappop
    pooled_type = _PooledTimeout
    entry_type = tuple
    mask = _WHEEL_MASK
    size = WHEEL_SIZE
    bits = _WHEEL_BITS
    clears = _WHEEL_CLEARS
    low_masks = _LOW_MASKS
    peak = sim.peak_queue_depth
    steps = 0
    try:
        while True:
            if stop_event is not None and stop_event._fired:
                return stop_event.value
            now = sim.now
            if buckets[now & mask]:
                when = now
            else:
                occupied = sim._occupied
                if occupied and buckets[(now + 1) & mask]:
                    when = now + 1
                elif occupied:
                    index = now & mask
                    ahead = occupied >> index
                    if ahead:
                        when = now + (ahead & -ahead).bit_length() - 1
                    else:
                        low = occupied & low_masks[index]
                        when = (
                            now + size - index + (low & -low).bit_length() - 1
                        )
                else:
                    when = None
            if overflow:
                over_when = overflow[0][0]
                if when is None or over_when < when:
                    when = over_when
            elif when is None:
                break
            if deadline is not None and when >= deadline:
                sim.now = deadline
                return None
            sim.now = when
            while overflow and overflow[0][0] == when:
                if stop_event is not None and stop_event._fired:
                    return stop_event.value
                depth = sim._wheel_count + len(overflow)
                if depth > peak:
                    peak = depth
                event = pop(overflow)[2]
                event._fire()
                if type(event) is pooled_type:
                    pool.append(event)
                steps += 1
                if steps > limit:
                    raise SimulationError("event limit exceeded (livelock?)")
            index = when & mask
            bucket = buckets[index]
            if not bucket:
                continue
            fired = 0
            try:
                while fired < len(bucket):
                    if stop_event is not None and stop_event._fired:
                        return stop_event.value
                    depth = sim._wheel_count - fired + len(overflow)
                    if depth > peak:
                        peak = depth
                    entry = bucket[fired]
                    fired += 1
                    steps += 1
                    if type(entry) is entry_type:
                        process = entry[0]
                        if process._target is not entry or process._interrupts:
                            process._resume(entry)
                        else:
                            try:
                                nxt = process._send(None)
                            except StopIteration as stop:
                                process._target = None
                                process._triggered = True
                                process._value = stop.value
                                sim._schedule(process)
                            except Interrupt:
                                raise SimulationError(
                                    "process %r did not handle an Interrupt"
                                    % process.name
                                )
                            except BaseException as error:
                                process._target = None
                                process._triggered = True
                                process._exception = error
                                sim._schedule(process)
                            else:
                                if type(nxt) is int and 0 <= nxt < size:
                                    j = (when + nxt) & mask
                                    buckets[j].append(entry)
                                    sim._occupied |= bits[j]
                                    sim._wheel_count += 1
                                else:
                                    _resume_slow(sim, process, nxt)
                    else:
                        event = entry
                        event._fire()
                        if type(event) is pooled_type:
                            pool.append(event)
                    if steps > limit:
                        raise SimulationError("event limit exceeded (livelock?)")
            finally:
                if fired:
                    sim._wheel_count -= fired
                    del bucket[:fired]
                if not bucket:
                    sim._occupied &= clears[index]
        if stop_event is not None:
            if stop_event._fired:
                return stop_event.value
            raise SimulationError(
                "simulation ran to quiescence before the awaited event fired"
            )
        if deadline is not None:
            sim.now = deadline
        return None
    finally:
        if peak > sim.peak_queue_depth:
            sim.peak_queue_depth = peak
        sim.events_processed += steps
        _kernel._TOTAL_EVENTS = _kernel._TOTAL_EVENTS + steps
'''.format(name=name)


def _resume_slow(sim: "CompiledSimulator", process, nxt) -> None:
    """Off-fast-path yields from a directly-resumed process.

    Replicates the tail of ``Process._resume`` for yields the drain loop
    does not inline: overflow-horizon ints (pooled proxy on the overflow
    heap, exactly like ``Process._resume``), bool/int subclasses (general
    ``Timeout``), events, and the error cases.
    """
    process._target = None
    if type(nxt) is int:
        if nxt < 0:
            raise SimulationError("negative timeout delay: %r" % (nxt,))
        pool = sim._timeout_pool
        if pool:
            proxy = pool.pop()
            proxy._value = None
            proxy._exception = None
            proxy._fired = False
        else:
            proxy = _PooledTimeout(sim)
            proxy._triggered = True
        proxy.callbacks.append(process._resume)
        process._target = proxy
        sim._overflow_seq = seq = sim._overflow_seq + 1
        heappush(sim._overflow, (sim.now + nxt, seq, proxy))
        return
    if isinstance(nxt, int):
        nxt = Timeout(sim, int(nxt))
    if not isinstance(nxt, Event):
        raise SimulationError(
            "process %r yielded %r (expected Event or int)"
            % (process.name, nxt)
        )
    process._target = nxt
    nxt.add_callback(process._resume)


def _variant_source(variant: str) -> str:
    name = "_compiled_run_%s" % variant
    if variant == "plain":
        return _render_fast(name, has_stop=False, has_deadline=False)
    if variant == "deadline":
        return _render_fast(name, has_stop=False, has_deadline=True)
    if variant == "stop":
        return _render_fast(name, has_stop=True, has_deadline=False)
    if variant == "monitored":
        return _render_monitored(name)
    raise KeyError("unknown kernel variant %r" % variant)


def generated_kernel_sources() -> Dict[str, str]:
    """Rendered source of every run-loop variant (``repro compile -o``)."""
    return {variant: _variant_source(variant) for variant in KERNEL_VARIANTS}


# Compiled variants, built on first use.  The exec namespace carries the
# kernel internals the generated code binds locally.
_VARIANTS: Dict[str, Any] = {}


def _compile_variant(variant: str):
    function = _VARIANTS.get(variant)
    if function is None:
        source = _variant_source(variant)
        namespace = {
            "heappop": heappop,
            "_PooledTimeout": _PooledTimeout,
            "_WHEEL_MASK": _WHEEL_MASK,
            "WHEEL_SIZE": WHEEL_SIZE,
            "_WHEEL_BITS": _WHEEL_BITS,
            "_WHEEL_CLEARS": _WHEEL_CLEARS,
            "_LOW_MASKS": _LOW_MASKS,
            "SimulationError": SimulationError,
            "Interrupt": Interrupt,
            "_resume_slow": _resume_slow,
            "_kernel": _kernel_mod,
        }
        code = compile(source, "<repro.sim.compiled:%s>" % variant, "exec")
        exec(code, namespace)
        function = namespace["_compiled_run_%s" % variant]
        _VARIANTS[variant] = function
    return function


class CompiledSimulator(Simulator):
    """Timing-wheel backend with a generated run loop and direct entries.

    Data structures:

    * ``_buckets`` -- :data:`WHEEL_SIZE` lists, one per cycle; an event due
      ``d < WHEEL_SIZE`` cycles ahead is appended to
      ``_buckets[(now + d) % WHEEL_SIZE]``.  Scheduling and cancellation-free
      firing are plain list ops -- no heap sift, no ``(when, seq, event)``
      tuple per event.
    * ``_occupied`` -- a WHEEL_SIZE-bit mask with bit ``i`` set while bucket
      ``i`` holds events.  Finding the next populated cycle rotates the mask
      so "bit k" means "k cycles ahead" and isolates the lowest set bit --
      idle stretches fast-forward in O(1) instead of iterating empty cycles.
    * ``_overflow`` -- a ``(when, seq, event)`` heap for events at least
      ``WHEEL_SIZE`` cycles ahead (long compute phases, watchdog sleeps).

    Determinism: the heap backend fires same-cycle events in scheduling
    (sequence-number) order.  The wheel reproduces that order structurally:

    * bucket entries are appended, and therefore drained, in scheduling
      order;
    * an overflow event due at cycle ``T`` was scheduled at some
      ``t0 <= T - WHEEL_SIZE``, while any bucket entry for ``T`` was
      scheduled at some ``t1 > T - WHEEL_SIZE`` -- strictly later.  Draining
      a cycle's overflow entries (heap-ordered by their own sequence
      numbers) *before* its bucket therefore yields exactly the global
      scheduling order, with no per-entry sequence number in the buckets.

    Invariant: every bucket entry is due in ``[now, now + WHEEL_SIZE)``, so
    bucket indices never collide across wheel revolutions (``now`` only
    advances to the next populated cycle, never past a pending entry).

    ``run`` keeps the deadline/stop-event/limit contract and event
    accounting of :meth:`Simulator.run`; the module docstring covers what
    is generated.
    """

    __slots__ = ("_buckets", "_occupied", "_overflow", "_overflow_seq", "_wheel_count")

    kernel_name = "compiled"
    _use_direct = True

    def __init__(self, kernel: Optional[str] = None):
        super().__init__()
        self._buckets: List[List[Any]] = [[] for _ in range(WHEEL_SIZE)]
        self._occupied = 0
        self._overflow: List = []
        self._overflow_seq = 0
        self._wheel_count = 0

    # -- scheduling -----------------------------------------------------
    def _schedule(self, event: Event, delay: int = 0) -> None:
        if delay < WHEEL_SIZE:
            index = (self.now + delay) & _WHEEL_MASK
            self._buckets[index].append(event)
            self._occupied |= _WHEEL_BITS[index]
            self._wheel_count += 1
        else:
            self._overflow_seq = seq = self._overflow_seq + 1
            heappush(self._overflow, (self.now + delay, seq, event))

    # -- introspection --------------------------------------------------
    def peek(self) -> Optional[int]:
        """Cycle of the next pending event: wheel bitmask vs overflow top."""
        wheel_when = None
        occupied = self._occupied
        if occupied:
            # Lowest set bit at or after ``now``'s position, wrapping once:
            # cheaper than rotating the whole mask (fewer big-int temps).
            index = self.now & _WHEEL_MASK
            ahead = occupied >> index
            if ahead:
                wheel_when = self.now + (ahead & -ahead).bit_length() - 1
            else:
                low = occupied & _LOW_MASKS[index]
                wheel_when = (
                    self.now + WHEEL_SIZE - index + (low & -low).bit_length() - 1
                )
        overflow = self._overflow
        if overflow:
            over_when = overflow[0][0]
            if wheel_when is None or over_when < wheel_when:
                return over_when
        return wheel_when

    @property
    def pending_events(self) -> int:
        """Events currently scheduled (wheel buckets + overflow heap)."""
        return self._wheel_count + len(self._overflow)

    # -- event loop -----------------------------------------------------
    def run(self, until: Optional[Any] = None, limit: int = 50_000_000) -> Any:
        deadline: Optional[int] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = int(until)
        if self.monitor_depth:
            return _compile_variant("monitored")(self, stop_event, deadline, limit)
        if stop_event is not None:
            return _compile_variant("stop")(self, stop_event, None, limit)
        if deadline is not None:
            return _compile_variant("deadline")(self, None, deadline, limit)
        return _compile_variant("plain")(self, None, None, limit)

    # -- stepping -------------------------------------------------------
    def step(self) -> None:
        """Single-step with direct-entry awareness (run()-identical order)."""
        when = self.peek()
        if when is None:
            raise IndexError("step from an empty event schedule")
        if self.monitor_depth:
            self.peak_queue_depth = max(self.peak_queue_depth, self.pending_events)
        overflow = self._overflow
        if overflow and overflow[0][0] == when:
            entry = heappop(overflow)[2]
        else:
            index = when & _WHEEL_MASK
            bucket = self._buckets[index]
            entry = bucket.pop(0)
            self._wheel_count -= 1
            if not bucket:
                self._occupied &= _WHEEL_CLEARS[index]
        self.now = when
        if type(entry) is tuple:
            self._fire_direct(entry)
        else:
            entry._fire()
            if type(entry) is _PooledTimeout:
                self._timeout_pool.append(entry)
        self.events_processed += 1
        _kernel_mod._TOTAL_EVENTS += 1

    def _fire_direct(self, entry) -> None:
        """Fire one direct entry outside the generated loop (step())."""
        process = entry[0]
        if process._target is not entry or process._interrupts:
            process._resume(entry)
            return
        try:
            nxt = process._send(None)
        except StopIteration as stop:
            process._target = None
            process._triggered = True
            process._value = stop.value
            self._schedule(process)
        except Interrupt:
            raise SimulationError(
                "process %r did not handle an Interrupt" % process.name
            )
        except BaseException as error:
            process._target = None
            process._triggered = True
            process._exception = error
            self._schedule(process)
        else:
            if type(nxt) is int and 0 <= nxt < WHEEL_SIZE:
                index = (self.now + nxt) & _WHEEL_MASK
                self._buckets[index].append(entry)
                self._occupied |= _WHEEL_BITS[index]
                self._wheel_count += 1
                process._target = entry
            else:
                _resume_slow(self, process, nxt)
