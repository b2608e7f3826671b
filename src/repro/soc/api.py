"""Software communication APIs (section IV.C).

The paper wraps the communication procedure in APIs "for the sake of easy
programming and program reliability" -- ``mem_read()`` in Example 3 moves an
exact number of words from a source area of the sender memory to a target
area of the receiver memory.  :class:`SocAPI` is the reproduction of that
layer: one instance is bound to one PE, and every method is a simulation
generator (call with ``yield from``) whose cycle cost flows through the
machine's buses, arbiters, caches and memories.

Addresses are ``(device_name, word_offset)`` pairs; plain integers are also
accepted and interpreted against the PE's default data memory, matching the
flat physical addresses of the paper's examples ("mem_read(64, 0x000000,
0x400000)").
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, List, Optional, Sequence, Tuple, Union

from ..sim.fabric import Machine
from ..sim.pe import DataTouch, ProcessingElement

__all__ = ["Address", "SocAPI"]

Address = Union[int, Tuple[str, int]]


class SocAPI:
    """The per-PE software interface onto a simulated bus system."""

    def __init__(self, machine: Machine, ban: str):
        self.machine = machine
        self.ban = ban
        self.pe: ProcessingElement = machine.pe_by_ban[ban]
        # The PE's "natural" data memory: its local SRAM when it has one,
        # otherwise the shared memory it runs from (GGBA/SplitBA).
        local = machine.local_memory_of(ban)
        self.default_memory = local or machine.shared_memory_of.get(
            ban, machine.global_memory
        )
        # Polling parameters for register/variable waits.
        self.poll_interval = 16
        self.poll_interval_max = 128
        # Software overhead of one communication-API call (Example 3's
        # mem_read and friends): call/return, parameter marshalling, the
        # virtual-to-physical address translation Example 6 requires, and
        # loop setup.  Charged on every data-movement call.
        self.api_call_instructions = 300
        # A software poll iteration: load, mask, compare, branch.
        self.poll_probe_instructions = 25

    def _api_overhead(self) -> Generator:
        if self.api_call_instructions:
            yield from self.pe.compute(self.api_call_instructions)

    # ------------------------------------------------------------------
    # Address handling
    # ------------------------------------------------------------------
    def resolve(self, address: Address) -> Tuple[str, int]:
        if isinstance(address, tuple):
            return address
        return self.default_memory, int(address)

    def alloc(self, words: int, device: Optional[str] = None, label: str = "") -> Tuple[str, int]:
        """Reserve a buffer; returns its (device, offset) address."""
        device = device or self.default_memory
        return device, self.machine.reserve(device, words)

    # ------------------------------------------------------------------
    # Data movement (the paper's mem_read/mem_write APIs)
    # ------------------------------------------------------------------
    def mem_read(self, size: int, source: Address, target: Address) -> Generator:
        """Example 3's API: read ``size`` words at ``source`` (typically a
        remote BAN's memory) and store them at ``target`` (typically local).
        Returns the words moved."""
        yield from self._api_overhead()
        src_device, src_offset = self.resolve(source)
        dst_device, dst_offset = self.resolve(target)
        values = yield from self.pe.bus_read(src_device, src_offset, size)
        yield from self.pe.bus_write(dst_device, dst_offset, values)
        return values

    def mem_write(self, values: Sequence[int], target: Address) -> Generator:
        """Write ``values`` to ``target`` over the bus."""
        yield from self._api_overhead()
        device, offset = self.resolve(target)
        yield from self.pe.bus_write(device, offset, list(values))

    def read(self, source: Address, size: int) -> Generator:
        """Read ``size`` words into the program (registers), no store-back."""
        yield from self._api_overhead()
        device, offset = self.resolve(source)
        values = yield from self.pe.bus_read(device, offset, size)
        return values

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------
    def compute(
        self,
        instructions: float,
        touches: Sequence[DataTouch] = (),
    ) -> Generator:
        """Charge a compute phase (see :meth:`ProcessingElement.compute`)."""
        yield from self.pe.compute(instructions, touches)

    def touch(self, address: Address, words: int, write: bool = False) -> DataTouch:
        """Build a DataTouch for :meth:`compute` from an API-level address."""
        device, offset = self.resolve(address)
        return DataTouch(device, offset, words, write)

    def stall(self, cycles: int) -> Generator:
        yield from self.pe.stall(cycles)

    # ------------------------------------------------------------------
    # Handshake registers (HS_REGS blocks; GBAVI / BFBA)
    # ------------------------------------------------------------------
    def reg_read(self, hs_device: str, register: str) -> Generator:
        value = yield from self.machine.reg_read(self.pe, hs_device, register)
        return value

    def reg_write(self, hs_device: str, register: str, value: int) -> Generator:
        yield from self.machine.reg_write(self.pe, hs_device, register, value)

    def reg_wait(self, hs_device: str, register: str, value: int) -> Generator:
        """Poll a handshake register until it holds ``value``.

        Models software polling: each probe is a real one-word bus read, and
        between probes the PE idles with a capped exponential backoff (so
        event counts stay bounded on long waits while contention from the
        polling traffic is still present).
        """
        block = self.machine.devices[hs_device].target
        interval = self.poll_interval
        while True:
            if self.poll_probe_instructions:
                yield from self.pe.compute(self.poll_probe_instructions)
            observed = yield from self.reg_read(hs_device, register)
            self.pe.stats.handshake_polls += 1
            if observed == value:
                return
            poll = block.wait_for(register, value, interval)
            if poll.triggered:
                continue
            yield poll
            interval = min(interval * 2, self.poll_interval_max)

    # ------------------------------------------------------------------
    # Shared control variables (GBAVIII / SplitBA / Hybrid / GGBA / CCBA)
    # ------------------------------------------------------------------
    def shared_memory(self) -> str:
        name = self.machine.shared_memory_of.get(self.ban, self.machine.global_memory)
        if name is None:
            raise LookupError("bus system %s has no shared memory" % self.machine.name)
        return name

    def var_read(self, variable: str, memory: Optional[str] = None) -> Generator:
        value = yield from self.machine.var_read(
            self.pe, memory or self.shared_memory(), variable
        )
        return value

    def var_write(self, variable: str, value: int, memory: Optional[str] = None) -> Generator:
        yield from self.machine.var_write(
            self.pe, memory or self.shared_memory(), variable, value
        )

    def var_wait(self, variable: str, value: int, memory: Optional[str] = None) -> Generator:
        """Poll a shared control variable until it reads ``value``.

        Unlike :meth:`reg_wait` there is no hardware change notification for
        a plain memory word, so this polls on a capped-backoff timer; every
        probe is a real arbitrated global-bus read (the contention source
        discussed in section IV.C's 'possible bus conflicts').
        """
        interval = self.poll_interval
        while True:
            if self.poll_probe_instructions:
                yield from self.pe.compute(self.poll_probe_instructions)
            observed = yield from self.var_read(variable, memory)
            self.pe.stats.handshake_polls += 1
            if observed == value:
                return
            yield interval
            interval = min(interval * 2, self.poll_interval_max)

    def scattered_access(
        self, address: Address, word_ops: int, write: bool = False
    ) -> Generator:
        """Word-granular accesses to a (cache-inhibited) buffer.

        Each of the ``word_ops`` single-word accesses re-arbitrates for the
        bus; the fabric groups them per tenure so event counts stay bounded
        while per-access grant cost is preserved.  This is how the MPEG2
        decoder's pointer-chasing over its working buffers is charged --
        the traffic class whose arbitration cost (3 vs 5 cycles) the paper
        blames for CCBA's deficit in Table III.
        """
        device, _offset = self.resolve(address)
        yield from self.machine.miss_traffic(
            self.pe, device, word_ops, line_words=1, write=write
        )

    def atomic_update(
        self, address: Address, update: Callable[[int], int]
    ) -> Generator:
        """Bus-locked read-modify-write (used by the RTOS lock manager)."""
        device, offset = self.resolve(address)
        old, new = yield from self.machine.atomic_rmw(self.pe, device, offset, update)
        return old, new

    # ------------------------------------------------------------------
    # Bi-FIFO operations (BFBA / Hybrid)
    # ------------------------------------------------------------------
    def fifo_set_threshold(self, receiver_ban: str, words: int) -> None:
        """Sender-side: program the receiver FIFO's threshold register."""
        _device, fifo = self.machine.fifo_for(self.ban, receiver_ban)
        fifo.set_threshold(words)

    def fifo_push(self, receiver_ban: str, values: Iterable[int]) -> Generator:
        yield from self._api_overhead()
        device, fifo = self.machine.fifo_for(self.ban, receiver_ban)
        yield from self.machine.fifo_push(self.pe, device, fifo, list(values))

    def fifo_pop(self, sender_ban: str, count: int) -> Generator:
        yield from self._api_overhead()
        device, fifo = self.machine.fifo_for(sender_ban, self.ban)
        values = yield from self.machine.fifo_pop(self.pe, device, fifo, count)
        return values

    def on_fifo_interrupt(self, sender_ban: str, handler: Callable) -> None:
        """Attach ``handler(payload)`` to the Bi-FIFO threshold interrupt
        raised when ``sender_ban`` fills this PE's receive FIFO."""
        controller = self.machine.interrupt_controllers[self.pe.name]
        controller.line("fifo_from_%s" % sender_ban).connect(handler)
        self.pe.stats.interrupts_taken += 0  # line exists; counted on delivery

    # ------------------------------------------------------------------
    # Topology helpers for application drivers
    # ------------------------------------------------------------------
    def neighbors(self) -> Tuple[Optional[str], Optional[str]]:
        return self.machine.neighbors_of(self.ban)

    def hs_device(self, sender_ban: str, receiver_ban: str) -> str:
        return self.machine.hsregs_for(sender_ban, receiver_ban).name
