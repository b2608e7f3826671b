"""Bi-FIFO blocks for the BFBA bus architecture.

In BFBA (Figure 4), each BAN carries a bidirectional FIFO pair used to
exchange data with its neighbours.  The paper's Bi-FIFO controller
(section IV.C.2) holds a *threshold register* set by the sender; pushing
data increments a hardware counter, and when the counter reaches the
threshold the controller raises an interrupt toward the receiving PE so its
interrupt handler can pop the data.

:class:`HardwareFifo` models one direction; :class:`BiFifo` pairs an "up"
and a "down" FIFO like the ``fifo_cs_up``/``fifo_cs_dn`` ports of Example 8.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from .kernel import Event, Simulator

__all__ = ["FifoFullError", "FifoEmptyError", "HardwareFifo", "BiFifo"]


class FifoFullError(Exception):
    """Push into a full FIFO (would be data loss in hardware)."""


class FifoEmptyError(Exception):
    """Pop from an empty FIFO."""


class HardwareFifo:
    """One FIFO direction with a threshold-interrupt counter.

    The threshold register is write-once-per-transfer by the sender
    (Example 4 sets it to 64 words).  A threshold of 0 disables the
    interrupt.  ``on_threshold`` is invoked *once* each time the fill
    counter climbs from below the threshold to at or above it, mirroring an
    edge-triggered interrupt line.
    """

    __slots__ = (
        "sim",
        "name",
        "depth_words",
        "_data",
        "threshold",
        "_armed",
        "on_threshold",
        "pushes",
        "pops",
        "peak_fill",
        "interrupts_raised",
        "probe",
        "faults",
        "_space_waiters",
        "_data_waiters",
    )

    def __init__(self, sim: Simulator, name: str, depth_words: int):
        if depth_words <= 0:
            raise ValueError("FIFO %r needs positive depth" % name)
        self.sim = sim
        self.name = name
        self.depth_words = depth_words
        self._data: Deque[int] = deque()
        self.threshold = 0
        self._armed = True
        self.on_threshold: Optional[Callable[["HardwareFifo"], None]] = None
        self.pushes = 0
        self.pops = 0
        self.peak_fill = 0
        self.interrupts_raised = 0
        # Observer (repro.obs.Probe), set by Machine.attach_probe; None
        # keeps push()/pop() hook-free.
        self.probe = None
        # Fault injector (repro.faults); None keeps push() hook-free.
        self.faults = None
        self._space_waiters: List[Event] = []
        self._data_waiters: List[Event] = []

    # -- registers ---------------------------------------------------------
    def set_threshold(self, words: int) -> None:
        if words < 0 or words > self.depth_words:
            raise ValueError(
                "%s: threshold %d outside FIFO depth %d"
                % (self.name, words, self.depth_words)
            )
        self.threshold = words
        self._armed = True

    @property
    def count(self) -> int:
        return len(self._data)

    @property
    def space(self) -> int:
        return self.depth_words - len(self._data)

    @property
    def is_empty(self) -> bool:
        return not self._data

    @property
    def is_full(self) -> bool:
        return len(self._data) >= self.depth_words

    # -- data path -----------------------------------------------------------
    def push(self, values) -> None:
        values = [value & 0xFFFFFFFF for value in values]
        if self.faults is not None:
            # May truncate (dropped tail goes on the injector's retransmit
            # ledger) or mark a duplicate for a sequence-check discard; the
            # recovery side runs in Machine.fifo_push.
            values = self.faults.filter_push(self, values)
            if not values:
                return
        if len(values) > self.space:
            raise FifoFullError(
                "%s: push of %d words with only %d free"
                % (self.name, len(values), self.space)
            )
        self._data.extend(values)
        self.pushes += len(values)
        fill = len(self._data)
        if fill > self.peak_fill:
            self.peak_fill = fill
        if self.probe is not None:
            self.probe.on_fifo_push(self, len(values))
        self._check_threshold()
        self._wake(self._data_waiters)

    def pop(self, count: int) -> List[int]:
        if count > len(self._data):
            raise FifoEmptyError(
                "%s: pop of %d words with only %d present"
                % (self.name, count, len(self._data))
            )
        if count == len(self._data):
            out = list(self._data)
            self._data.clear()
        else:
            out = [self._data.popleft() for _ in range(count)]
        self.pops += count
        if self.probe is not None:
            self.probe.on_fifo_pop(self, count)
        if self.threshold and len(self._data) < self.threshold:
            self._armed = True
        self._wake(self._space_waiters)
        return out

    # -- blocking helpers (events fire when the condition can be retried) ----
    def wait_space(self) -> Event:
        event = self.sim.event()
        self._space_waiters.append(event)
        return event

    def wait_data(self) -> Event:
        event = self.sim.event()
        self._data_waiters.append(event)
        return event

    def _wake(self, waiters: List[Event]) -> None:
        pending, waiters[:] = waiters[:], []
        for event in pending:
            event.succeed()

    def _check_threshold(self) -> None:
        if (
            self.threshold
            and self._armed
            and len(self._data) >= self.threshold
            and self.on_threshold is not None
        ):
            self._armed = False
            self.interrupts_raised += 1
            self.on_threshold(self)


class BiFifo:
    """A bidirectional FIFO block between two adjacent BANs.

    ``up`` carries data from the lower-lettered BAN toward the higher one
    (A->B), ``down`` the reverse; the naming follows the ``_up``/``_dn``
    port suffixes of the generated Verilog (Example 8).
    """

    __slots__ = ("name", "depth_words", "up", "down")

    def __init__(self, sim: Simulator, name: str, depth_words: int):
        self.name = name
        self.depth_words = depth_words
        self.up = HardwareFifo(sim, name + ".up", depth_words)
        self.down = HardwareFifo(sim, name + ".dn", depth_words)

    def direction(self, toward_higher: bool) -> HardwareFifo:
        return self.up if toward_higher else self.down
