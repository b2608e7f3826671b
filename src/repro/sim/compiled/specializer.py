"""Per-architecture fabric specialization for the compiled backend.

:func:`specialize_machine` shadows ``machine.transaction``,
``machine.miss_traffic`` and ``machine.poll`` with a dispatch that serves
every (master, device) pair whose route can never change at runtime through
a closure binding everything the generic path re-derives per transfer:

* the route -- eligible pairs are exactly the bridge-independent
  single-segment routes (point-to-point links and directly-mastered target
  segments), so the per-call ``_plan_for`` bridge-enable revalidation
  disappears;
* the arbiter's grant and release -- an idle arbiter is claimed inline (the
  policy's ``_note`` hook runs when the policy overrides it, as round robin
  does), a contended one still goes through ``arbiter.request`` and
  ``_dispatch``, so every policy is eligible;
* the transfer timing -- grant cycles, words per beat, beat cycles, read
  when the pair is bound (after the builder's bus-loading finalization)
  -- and the device's latency/read/write callables.

Each closure updates the segment's :class:`~repro.sim.stats.BusStats` as
the generic path does and nothing else: the counter plane
(:mod:`repro.obs.counters`) reads those stats, so a counted run keeps the
fast path with no counter code in it.

A pair is bound on its first transaction and cached, ineligible pairs too
(as None): a run builds only the pairs it uses, and a machine a hook
despecializes right after build builds none.  Ineligible pairs (bridged
routes, post-build DMA masters, FIFO devices) take the generic bound
methods.  The closures do exactly what the generic path does, so every
simulated cycle and statistic is bit-identical to it.

Specialization requires both hook slots to be empty: a segment is served
only while it and its arbiter have no ``probe`` and no ``faults``.
:meth:`Machine.attach_probe` and fault injection call
:meth:`Machine._despecialize`, which removes the instance attributes (and
with them every bound pair) and restores the generic path.

A pair's poll closure is a fused loop: the probe's instructions, the
one-word read tenure and the backoff run in one generator, so a poll
iteration resumes one frame instead of a chain of up to four.  Its two
factories, and its dispatch, live in :mod:`repro.sim.fabric` beside the
generic ``Machine.poll``, which serves the bridged pairs.  Both kinds of
loop register with the compiled run loop, which skips whole periods of
them once they all back off at their capped interval (poll fast-forward).

A tenure closed by ``GeneratorExit`` -- its generator collected with a
discarded machine -- counts nothing and releases nothing; an interrupted
one ends through ``repro.sim.fabric._end_tenure``, as the generic path's.

The per-pair functions here are named ``transaction`` and
``miss_traffic``, like the dispatch itself: the end-to-end benchmark
charges functions of this module by those names to the fabric layer and
the rest to machine build; the poll loops are fabric work by module.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..arbiter import note_hook
from ..fabric import _HS_REGISTERS, _end_tenure, _hsregs_poll, _memory_poll, _poll_dispatch
from ..pe import MISS_GROUP

__all__ = ["specialize_machine", "eligible_pairs"]


def _clean_segment(machine, pe, device):
    """The single segment serving ``pe`` -> ``device`` for every bridge
    state, when no hook is attached to it; None when the route is bridged,
    unreachable or multi-segment, or the segment is hooked.

    Mirrors ``Machine._route_plan``: point-to-point devices always ride the
    master's home segment, and a directly-mastered target segment is always
    a one-hop route -- neither consults the bridge-enable mask, so the bound
    route stays valid when bridges toggle.
    """
    if device.point_to_point:
        if device.parties and pe.name not in device.parties:
            return None
        segment = machine.home_segment[pe.name]
    else:
        segment = device.segment
        if segment is None or segment not in machine.direct_segments[pe.name]:
            return None
    arbiter = segment.arbiter
    if (
        segment.probe is None
        and segment.faults is None
        and arbiter.probe is None
        and arbiter.faults is None
    ):
        return segment
    return None


def eligible_pairs(machine):
    """Yield ``(pe, device, segment)`` for every specializable pair."""
    for pe in machine.pes.values():
        for device in machine.devices.values():
            if device.kind not in ("memory", "hsregs"):
                continue
            segment = _clean_segment(machine, pe, device)
            if segment is not None:
                yield pe, device, segment


# ----------------------------------------------------------------------
# Closure factories: one per transfer kind
# ----------------------------------------------------------------------


def _memory_transaction(machine, pe, segment, device):
    """``pe`` -> a memory ``device`` over ``segment``: one burst per call."""
    sim = machine.sim
    master = pe.name
    memory = device.target
    arbiter = segment.arbiter
    stats = segment.stats
    per_master = stats.per_master
    request = arbiter.request
    note = note_hook(arbiter)
    access_latency = memory.access_latency
    read = memory.read
    store = memory.write
    r_grant = segment.grant_cycles
    w_grant = segment.write_grant_cycles
    wpb = segment.words_per_beat
    beat = segment.beat_cycles

    def transaction(address, words, write, data=None):
        latency = access_latency(address, words, write)
        entry = sim.now
        if arbiter.owner is None and not arbiter._pending:
            if note is not None:
                note(master)
            arbiter.owner = master
            arbiter.grants += 1
            arbiter.busy_since = entry
        else:
            yield request(master)
        acquired = sim.now
        try:
            yield (
                (w_grant if write else r_grant)
                + (max(words, 1) + wpb - 1) // wpb * beat
                + latency
            )
        except GeneratorExit:
            raise  # closed with a discarded machine: counts nothing
        except BaseException:
            _end_tenure(segment, master, entry, acquired, words, write, latency)
            raise
        end = sim.now
        arbiter.owner = None
        arbiter.busy_cycles += end - arbiter.busy_since
        arbiter.busy_since = None
        if arbiter._pending:
            arbiter._dispatch()
        stats.transactions += 1
        if write:
            stats.write_transactions += 1
        else:
            stats.read_transactions += 1
        stats.words_moved += words
        stats.busy_cycles += end - entry
        stats.arbitration_cycles += acquired - entry
        stats.memory_cycles += latency
        per_master[master] = per_master.get(master, 0) + 1
        if write:
            store(address, data if data is not None else [0] * words)
            return None
        return read(address, words)

    return transaction


def _hsregs_transaction(machine, pe, segment, device):
    """``pe`` -> a handshake register ``device`` over ``segment``."""
    sim = machine.sim
    master = pe.name
    registers = device.target
    arbiter = segment.arbiter
    stats = segment.stats
    per_master = stats.per_master
    request = arbiter.request
    note = note_hook(arbiter)
    reg_read = registers.read
    reg_write = registers.write
    r_grant = segment.grant_cycles
    w_grant = segment.write_grant_cycles
    wpb = segment.words_per_beat
    beat = segment.beat_cycles

    def transaction(address, words, write, data=None):
        entry = sim.now
        if arbiter.owner is None and not arbiter._pending:
            if note is not None:
                note(master)
            arbiter.owner = master
            arbiter.grants += 1
            arbiter.busy_since = entry
        else:
            yield request(master)
        acquired = sim.now
        try:
            yield (w_grant if write else r_grant) + (max(words, 1) + wpb - 1) // wpb * beat
        except GeneratorExit:
            raise  # closed with a discarded machine: counts nothing
        except BaseException:
            _end_tenure(segment, master, entry, acquired, words, write, 0)
            raise
        end = sim.now
        arbiter.owner = None
        arbiter.busy_cycles += end - arbiter.busy_since
        arbiter.busy_since = None
        if arbiter._pending:
            arbiter._dispatch()
        stats.transactions += 1
        if write:
            stats.write_transactions += 1
        else:
            stats.read_transactions += 1
        stats.words_moved += words
        stats.busy_cycles += end - entry
        stats.arbitration_cycles += acquired - entry
        per_master[master] = per_master.get(master, 0) + 1
        register = _HS_REGISTERS[address]
        if write:
            reg_write(register, (data or [0])[0])
            return None
        return [reg_read(register)]

    return transaction


def _miss_traffic(machine, pe, segment, device):
    """``pe`` -> a memory ``device``: cache-miss bursts over ``segment``."""
    sim = machine.sim
    master = pe.name
    memory = device.target
    arbiter = segment.arbiter
    stats = segment.stats
    per_master = stats.per_master
    request = arbiter.request
    note = note_hook(arbiter)
    access_latency = memory.access_latency
    r_grant = segment.grant_cycles
    w_grant = segment.write_grant_cycles
    wpb = segment.words_per_beat
    beat = segment.beat_cycles

    def miss_traffic(misses, line_words, write):
        per_line = access_latency(0, line_words, write)
        remaining = misses
        while remaining > 0:
            group = remaining if remaining < MISS_GROUP else MISS_GROUP
            remaining -= group
            words = group * line_words
            entry = sim.now
            if arbiter.owner is None and not arbiter._pending:
                if note is not None:
                    note(master)
                arbiter.owner = master
                arbiter.grants += 1
                arbiter.busy_since = entry
            else:
                yield request(master)
            acquired = sim.now
            memory_cycles = per_line * group
            try:
                yield (
                    (w_grant if write else r_grant) * group
                    + (max(words, 1) + wpb - 1) // wpb * beat
                    + memory_cycles
                )
            except GeneratorExit:
                raise  # closed with a discarded machine: counts nothing
            except BaseException:
                _end_tenure(segment, master, entry, acquired, words, write, memory_cycles)
                raise
            end = sim.now
            arbiter.owner = None
            arbiter.busy_cycles += end - arbiter.busy_since
            arbiter.busy_since = None
            if arbiter._pending:
                arbiter._dispatch()
            stats.transactions += 1
            if write:
                stats.write_transactions += 1
            else:
                stats.read_transactions += 1
            stats.words_moved += words
            stats.busy_cycles += end - entry
            stats.arbitration_cycles += acquired - entry
            stats.memory_cycles += memory_cycles
            per_master[master] = per_master.get(master, 0) + 1
            if write:
                memory.writes += words
            else:
                memory.reads += words

    return miss_traffic


_TRANSACTION_FACTORIES = {"memory": _memory_transaction, "hsregs": _hsregs_transaction}
_MISS_FACTORIES = {"memory": _miss_traffic}
# The fused poll loops live in repro.sim.fabric, beside Machine.poll.
_POLL_FACTORIES = {"memory": _memory_poll, "hsregs": _hsregs_poll}


class _Bindings(dict):
    """``(master name, device name)`` -> the pair's bound function, or None
    when the pair takes the generic path; filled on first lookup."""

    __slots__ = ("machine", "factories")

    def __init__(self, machine, factories: Dict[str, Callable]):
        super().__init__()
        self.machine = machine
        self.factories = factories

    def __missing__(self, key):
        master, device_name = key
        machine = self.machine
        pe = machine.pes.get(master)
        device = machine.devices.get(device_name)
        function = None
        if pe is not None and device is not None and device.kind in self.factories:
            segment = _clean_segment(machine, pe, device)
            if segment is not None:
                function = self.factories[device.kind](machine, pe, segment, device)
        self[key] = function
        return function


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def specialize_machine(machine) -> bool:
    """Install the specialized dispatch on ``machine``.

    Returns True when at least one pair is eligible.  No-op (False) on a
    simulator other than the compiled one (the poll loops register
    with its run loop), when a hook is attached or when nothing is
    eligible; safe to call twice.  Pairs are bound on first use (see the
    module docstring).
    """
    if machine.sim.kernel_name != "compiled":
        return False
    if machine._probes or machine._faults is not None:
        return False
    if machine._specialized:
        return True
    if next(eligible_pairs(machine), None) is None:
        return False
    txn_table = _Bindings(machine, _TRANSACTION_FACTORIES)
    miss_table = _Bindings(machine, _MISS_FACTORIES)
    # Bind the generic paths *before* shadowing them with instance attrs.
    generic_txn = machine.transaction
    generic_miss = machine.miss_traffic
    generic_poll = machine.poll

    def transaction(pe, device_name, address, words, write, data=None):
        fn = txn_table[pe.name, device_name]
        if fn is not None:
            return fn(address, words, write, data)
        return generic_txn(pe, device_name, address, words, write, data)

    def miss_traffic(pe, device_name, misses, line_words, write):
        fn = miss_table[pe.name, device_name]
        if fn is not None:
            return fn(misses, line_words, write)
        return generic_miss(pe, device_name, misses, line_words, write)

    # The caches stay reachable for inspection: which pairs a run bound.
    transaction.bindings = txn_table
    miss_traffic.bindings = miss_table
    machine.transaction = transaction
    machine.miss_traffic = miss_traffic
    machine.poll = _poll_dispatch(_Bindings(machine, _POLL_FACTORIES), generic_poll)
    machine._specialized = True
    return True
