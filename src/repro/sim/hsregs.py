"""Handshake register blocks (HS_REGS).

The paper's 2-register handshake protocol (Example 2, Figure 10) uses two
one-bit registers shared by a sender/receiver PE pair:

* ``DONE_OP`` -- sender sets it when processed data is ready,
* ``DONE_RV`` -- receiver sets it when the data has been consumed.

The registers live in the receiver's BAN and are reachable from both sides
of the pair.  This module models the register block itself; the polling /
interrupt protocol state machines built on top live in
:mod:`repro.soc.handshake`.

A :class:`HandshakeRegisters` block reports every value change to its
``probe`` slot (a :class:`repro.obs.Probe`, set by
:meth:`repro.sim.fabric.Machine.attach_probe`); the VCD grant trace records
them as the DONE_OP/DONE_RV waveforms of Figures 11-13.
"""

from __future__ import annotations

from typing import List, Optional

from .kernel import Event, Simulator

__all__ = ["HandshakeRegisters", "SharedVariables"]

_VALID = ("DONE_OP", "DONE_RV")


class _Poll(Event):
    """A bounded wait on one register (see :meth:`HandshakeRegisters.wait_for`).

    The poll is its own timer: ``wait_for`` schedules it, still untriggered,
    ``interval`` cycles ahead.  ``watchers`` is the register's watcher list
    while this poll is in it, and ``None`` otherwise: satisfied at once,
    taken out by a matching write, or timed out.
    """

    __slots__ = ("watchers", "wanted")

    def __init__(self, sim: Simulator, watchers: Optional[List["_Poll"]], wanted: int):
        # Event.__init__ inline: one poll per timed-out probe.
        self.sim = sim
        self._value = None
        self._exception = None
        self._triggered = False
        self._fired = False
        self.callbacks = []
        self.watchers = watchers
        self.wanted = wanted

    def _wake(self, _hop: Event) -> None:
        # The write's hop; the timer may have won in the same cycle.
        if not self._triggered:
            self.succeed(self.wanted)

    def _fire(self) -> None:
        if self._triggered:
            # The hop after a write or a timeout.  The timer of a poll a
            # write already woke finds it fired and does nothing, so a run
            # can still end on it.
            if not self._fired:
                Event._fire(self)
            return
        # The timer, before any matching write: withdraw the watcher.  The
        # waiter resumes one same-cycle hop later, after every entry already
        # due now; when there is none, that hop would be the very next
        # entry, so the timer resumes it itself.
        if self.watchers is not None:
            self.watchers.remove(self)
            self.watchers = None
        self._triggered = True
        if self.sim._others_due(self):
            self.sim._schedule(self)
            return
        # Event._fire, inline.
        self._fired = True
        callbacks = self.callbacks
        self.callbacks = []
        for callback in callbacks:
            callback(self)


class HandshakeRegisters:
    """Two one-bit registers with change notification."""

    def __init__(self, sim: Simulator, name: str, done_op: int = 0, done_rv: int = 0):
        self.sim = sim
        self.name = name
        self._values = {"DONE_OP": done_op & 1, "DONE_RV": done_rv & 1}
        self._watchers = {"DONE_OP": [], "DONE_RV": []}
        # Observer (repro.obs.Probe) of value changes, set by
        # Machine.attach_probe; None records nothing.
        self.probe = None

    def _check_name(self, register: str) -> None:
        if register not in _VALID:
            raise KeyError(
                "%s: unknown handshake register %r (expected DONE_OP/DONE_RV)"
                % (self.name, register)
            )

    def read(self, register: str) -> int:
        self._check_name(register)
        return self._values[register]

    def write(self, register: str, value: int) -> None:
        self._check_name(register)
        value &= 1
        if self._values[register] == value:
            return
        self._values[register] = value
        if self.probe is not None:
            self.probe.on_register_write(self, register, value)
        watchers = self._watchers[register]
        if watchers:
            post = self.sim._post_callback
            waiting = []
            for poll in watchers:
                if poll.wanted == value:
                    poll.watchers = None
                    post(poll._wake)
                else:
                    waiting.append(poll)
            watchers[:] = waiting

    def wait_for(self, register: str, value: int, interval: int) -> Event:
        """Event firing when ``register`` holds ``value`` or after
        ``interval`` cycles, whichever comes first.

        If the register already holds ``value`` the event fires at once,
        modelling level-sensitive polling hardware, and no timer is set.
        Otherwise a matching write fires it through one same-cycle hop (the
        watcher wakeup), and a timeout one hop after the poll's own timer
        entry fires, or at the timer entry itself when nothing else is due
        in that cycle; a timed-out watcher is withdrawn, so no later write
        wakes it.  The event's value is ``value`` on a write and ``None`` on
        a timeout.
        """
        self._check_name(register)
        sim = self.sim
        if self._values[register] == value:
            return _Poll(sim, None, value).succeed(value)
        watchers = self._watchers[register]
        poll = _Poll(sim, watchers, value)
        watchers.append(poll)
        sim._schedule(poll, interval)
        return poll

    # Convenience accessors used by the protocol layer.
    @property
    def done_op(self) -> int:
        return self._values["DONE_OP"]

    @property
    def done_rv(self) -> int:
        return self._values["DONE_RV"]


class SharedVariables:
    """Named one-word flags stored in a region of a shared memory.

    GBAVIII/SplitBA/Hybrid keep their DONE_OP/DONE_RV state as *global
    control variables* in the Global SRAM (section IV.C.3) rather than in
    dedicated registers.  This class maps variable names onto words of a
    :class:`repro.sim.memory.Memory` so that every access really is a memory
    access (and therefore really does cross the bus and the arbiter --
    exactly the traffic the paper's arbitration argument is about).
    """

    def __init__(self, memory, base_address: int):
        self.memory = memory
        self.base_address = base_address
        self._slots = {}

    def slot(self, variable: str) -> int:
        """Word address backing ``variable`` (allocated on first use).

        The variables fill the memory from ``base_address`` to its end;
        a variable past that raises ``ValueError``.
        """
        slot = self._slots.get(variable)
        if slot is None:
            slot = self.base_address + len(self._slots)
            if slot >= self.memory.size_words:
                raise ValueError(
                    "%s: shared variable area full: %d variables fill words %d-%d, "
                    "no room for %r"
                    % (
                        self.memory.name,
                        len(self._slots),
                        self.base_address,
                        self.memory.size_words - 1,
                        variable,
                    )
                )
            self._slots[variable] = slot
        return slot

    def peek(self, variable: str) -> int:
        """Read without bus traffic (testing/debug only)."""
        return self.memory.read_word(self.slot(variable))

    def poke(self, variable: str, value: int) -> None:
        """Write without bus traffic (testing/debug only)."""
        self.memory.write_word(self.slot(variable), value)
