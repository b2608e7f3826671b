"""Handshake protocol adapters (section IV.C, Figures 11-13).

The paper's 2-register protocol (DONE_OP / DONE_RV, Example 2) is adapted to
each bus architecture:

* :class:`GbaviChannel` -- polling over a shared HS_REGS block; the payload
  moves through the *sender's* local SRAM, read by the receiver across the
  segmented global bus (Example 3 / Figure 11).
* :class:`BfbaChannel` -- the sender pushes into the receiver's Bi-FIFO; a
  threshold interrupt fires the receiver's handler, which pops the data and
  flips the registers (Example 4 / Figure 12).
* :class:`GlobalChannel` -- DONE_OP / DONE_RV live as *global control
  variables* in the shared memory, and the payload moves through a shared
  buffer there (Example 5 / Figure 13; used by GBAVIII, SplitBA, Hybrid's
  global path, GGBA and CCBA).

All three expose the same sender/receiver surface::

    yield from channel.send(words)      # sender side
    values = yield from channel.recv()  # receiver side
    yield from channel.release()        # receiver side, after processing

``release()`` is meaningful for BFBA (it re-asserts DONE_OP, Figure 12 step
6) and a no-op elsewhere.  Each channel records a protocol *step trace* --
``(step_label, cycle)`` pairs keyed to the numbered steps of the paper's
state diagrams -- which the figure-reproduction benches assert against.

:class:`FpaDistributor` implements the functional-parallel pattern of
Example 5 proper: one PE distributes raw data chunks to every worker through
the shared memory and collects completion flags.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from .api import Address, SocAPI

__all__ = [
    "Channel",
    "GbaviChannel",
    "ThreeRegisterChannel",
    "BfbaChannel",
    "GlobalChannel",
    "FpaDistributor",
    "make_channel",
]


class Channel:
    """Common base: one direction of communication between two BANs."""

    kind = "abstract"

    def __init__(self, sender: SocAPI, receiver: SocAPI, max_words: int):
        if sender.machine is not receiver.machine:
            raise ValueError("channel endpoints live on different machines")
        self.sender = sender
        self.receiver = receiver
        self.max_words = max_words
        self.transfers = 0
        self.trace: List[Tuple[str, int]] = []

    def _mark(self, label: str) -> None:
        self.trace.append((label, self.sender.machine.sim.now))

    # Sender / receiver surface -----------------------------------------
    def send(self, values: Sequence[int]) -> Generator:
        raise NotImplementedError

    def recv(self) -> Generator:
        raise NotImplementedError

    def release(self) -> Generator:
        """Receiver-side completion hook (no-op unless the protocol needs it)."""
        return
        yield  # pragma: no cover - makes this a generator


class GbaviChannel(Channel):
    """Figure 11: polling handshake; data via the sender's shared SRAM."""

    kind = "GBAVI"

    def __init__(self, sender: SocAPI, receiver: SocAPI, max_words: int):
        super().__init__(sender, receiver, max_words)
        machine = sender.machine
        self.hs_device = machine.hsregs_for(sender.ban, receiver.ban).name
        # Shared mailbox area in the sender's local SRAM (Example 3 uses
        # SRAM_A address 0x000000 for the A->B transfer).
        sender_memory = machine.local_memory_of(sender.ban)
        if sender_memory is None:
            raise LookupError("GBAVI channel needs a sender-local SRAM")
        self.mailbox: Address = (sender_memory, machine.reserve(sender_memory, max_words))
        # Receiver-local landing buffer (SRAM_B address 0x400000 in Ex. 3).
        receiver_memory = machine.local_memory_of(receiver.ban)
        if receiver_memory is None:
            raise LookupError("GBAVI channel needs a receiver-local SRAM")
        self.landing: Address = (receiver_memory, machine.reserve(receiver_memory, max_words))
        self._pending_words = 0

    def send(self, values: Sequence[int]) -> Generator:
        values = list(values)
        if len(values) > self.max_words:
            raise ValueError("transfer exceeds channel mailbox size")
        # Step (2): write processed data into the sender SRAM, assert DONE_OP.
        yield from self.sender.mem_write(values, self.mailbox)
        self._pending_words = len(values)
        yield from self.sender.reg_write(self.hs_device, "DONE_OP", 1)
        self._mark("2:assert DONE_OP")
        # Step (5): wait for DONE_RV and deassert it.
        yield from self.sender.reg_wait(self.hs_device, "DONE_RV", 1)
        yield from self.sender.reg_write(self.hs_device, "DONE_RV", 0)
        self._mark("5:deassert DONE_RV")
        self.transfers += 1

    def recv(self) -> Generator:
        # Step (3): wait DONE_OP, deassert it, mem_read() the payload across
        # the bus bridge into the local SRAM.
        yield from self.receiver.reg_wait(self.hs_device, "DONE_OP", 1)
        yield from self.receiver.reg_write(self.hs_device, "DONE_OP", 0)
        self._mark("3:deassert DONE_OP")
        words = self._pending_words or self.max_words
        values = yield from self.receiver.mem_read(words, self.mailbox, self.landing)
        self._mark("3:transfer data")
        # Step (4): assert DONE_RV.
        yield from self.receiver.reg_write(self.hs_device, "DONE_RV", 1)
        self._mark("4:assert DONE_RV")
        return values


class ThreeRegisterChannel(GbaviChannel):
    """The *typical* 3-register handshake the paper's protocol drops.

    Section IV.C: a conventional handshake keeps (1) read request, (2) data
    ready and (3) acknowledge.  BusSyn's protocol removes (1) by exploiting
    the data dependency between pipeline stages.  This variant restores the
    read-request register (a second HS_REGS pair in the receiver's BAN) so
    the ablation bench can measure what dropping it saves: one extra
    register round-trip per transfer on the sender's critical path.
    """

    kind = "GBAVI-3REG"

    def __init__(self, sender: SocAPI, receiver: SocAPI, max_words: int):
        super().__init__(sender, receiver, max_words)
        # The request register rides a second pair in the receiver's BAN.
        self.req_device = self._alloc_req_device(sender, receiver)

    @staticmethod
    def _alloc_req_device(sender: SocAPI, receiver: SocAPI) -> str:
        machine = sender.machine
        name = "HS_REGS_%s_REQ_%s" % (receiver.ban, sender.ban)
        if name not in machine.devices:
            from ..sim.fabric import Device
            from ..sim.hsregs import HandshakeRegisters

            template = machine.hsregs_for(sender.ban, receiver.ban)
            block = HandshakeRegisters(machine.sim, name)
            block.probe = template.target.probe
            parties = None
            if template.point_to_point:
                parties = {sender.pe.name, receiver.pe.name}
            machine.add_device(
                Device(
                    name,
                    "hsregs",
                    block,
                    template.segment,
                    point_to_point=template.point_to_point,
                    parties=parties,
                )
            )
        return name

    def send(self, values: Sequence[int]) -> Generator:
        # Condition (1): wait for the receiver's read request, clear it.
        yield from self.sender.reg_wait(self.req_device, "DONE_OP", 1)
        yield from self.sender.reg_write(self.req_device, "DONE_OP", 0)
        self._mark("1:consume read request")
        yield from super().send(values)

    def recv(self) -> Generator:
        # Condition (1): raise the read request before waiting for data.
        yield from self.receiver.reg_write(self.req_device, "DONE_OP", 1)
        self._mark("1:assert read request")
        values = yield from super().recv()
        return values


class BfbaChannel(Channel):
    """Figure 12: Bi-FIFO push, threshold interrupt, register handshake."""

    kind = "BFBA"

    def __init__(
        self,
        sender: SocAPI,
        receiver: SocAPI,
        max_words: int,
        threshold: Optional[int] = None,
    ):
        super().__init__(sender, receiver, max_words)
        machine = sender.machine
        self.hs_device = machine.hsregs_for(sender.ban, receiver.ban).name
        self.threshold = threshold or max_words
        receiver_memory = machine.local_memory_of(receiver.ban)
        if receiver_memory is None:
            raise LookupError("BFBA channel needs a receiver-local SRAM")
        self.landing: Address = (
            receiver_memory,
            machine.reserve(receiver_memory, max_words),
        )
        self._mailbox: List[List[int]] = []
        # Initial conditions of Example 4: DONE_OP=1 (sender may push),
        # DONE_RV=0; the sender programs the threshold register.
        hs_block = machine.devices[self.hs_device].target
        hs_block.write("DONE_OP", 1)
        sender.fifo_set_threshold(receiver.ban, self.threshold)
        receiver.on_fifo_interrupt(sender.ban, self._interrupt)

    # -- receiver-side interrupt handler ---------------------------------
    def _interrupt(self, payload) -> None:
        """Threshold interrupt: spawn the handler process on the receiver.

        DONE_OP is deasserted *synchronously* here -- before the sender can
        poll it again -- modelling the interrupt-entry hardware gating the
        register.  (With a purely software deassert, a fast sender could
        read a stale "1" and push a second transfer before the handler of
        the first has run; the generated HS_REGS block ties the deassert to
        the interrupt acknowledge to close that race.)
        """
        self.receiver.pe.stats.interrupts_taken += 1
        self.receiver.machine.devices[self.hs_device].target.write("DONE_OP", 0)
        self._mark("3.1:deassert DONE_OP")
        self.receiver.machine.sim.process(
            self._handler(), "%s.fifo_isr" % self.receiver.pe.name
        )

    def _handler(self) -> Generator:
        # Figure 12 steps (3.2)-(3.3): pop the data into the landing
        # buffer, assert DONE_RV.  A short fixed instruction charge models
        # the handler prologue/epilogue.
        receiver = self.receiver
        yield from receiver.compute(40)
        # The pop streams straight into the landing buffer: the Bi-FIFO
        # controller drives the local bus once, FIFO -> SRAM.
        values = yield from receiver.fifo_pop(self.sender.ban, self.threshold)
        receiver.machine.memory(self.landing[0]).write(self.landing[1], values)
        self._mailbox.append(values)
        self._mark("3.2:pop data")
        yield from receiver.reg_write(self.hs_device, "DONE_RV", 1)
        self._mark("3.3:assert DONE_RV")

    # -- channel surface -----------------------------------------------------
    def send(self, values: Sequence[int]) -> Generator:
        values = list(values)
        if len(values) != self.threshold:
            raise ValueError(
                "BFBA transfer must match the threshold register (%d words, got %d)"
                % (self.threshold, len(values))
            )
        # Step (2): after reading "1" in DONE_OP, push into the Bi-FIFO.
        # (Marked at push start: the threshold interrupt fires the moment
        # the final word lands, i.e. while the push API is still active.)
        yield from self.sender.reg_wait(self.hs_device, "DONE_OP", 1)
        self._mark("2:push data")
        yield from self.sender.fifo_push(self.receiver.ban, values)
        self.transfers += 1

    def recv(self) -> Generator:
        # Step (4): wait DONE_RV, deassert it, hand the popped data over.
        yield from self.receiver.reg_wait(self.hs_device, "DONE_RV", 1)
        yield from self.receiver.reg_write(self.hs_device, "DONE_RV", 0)
        self._mark("4:deassert DONE_RV")
        return self._mailbox.pop(0)

    def release(self) -> Generator:
        # Step (6): processing finished; allow the next push.
        yield from self.receiver.reg_write(self.hs_device, "DONE_OP", 1)
        self._mark("6:assert DONE_OP")


class GlobalChannel(Channel):
    """Figure 13-style handshake over shared-memory control variables."""

    kind = "GLOBAL"

    def __init__(
        self,
        sender: SocAPI,
        receiver: SocAPI,
        max_words: int,
        memory: Optional[str] = None,
    ):
        super().__init__(sender, receiver, max_words)
        machine = sender.machine
        self.memory = memory or sender.shared_memory()
        self.buffer: Address = (self.memory, machine.reserve(self.memory, max_words))
        suffix = "%s_%s" % (sender.ban, receiver.ban)
        self.var_op = "DONE_OP_%s" % suffix
        self.var_rv = "DONE_RV_%s" % suffix
        self._pending_words = 0

    def send(self, values: Sequence[int]) -> Generator:
        values = list(values)
        if len(values) > self.max_words:
            raise ValueError("transfer exceeds channel buffer size")
        yield from self.sender.mem_write(values, self.buffer)
        self._pending_words = len(values)
        yield from self.sender.var_write(self.var_op, 1, self.memory)
        self._mark("2:assert DONE_OP")
        yield from self.sender.var_wait(self.var_rv, 1, self.memory)
        yield from self.sender.var_write(self.var_rv, 0, self.memory)
        self._mark("5:deassert DONE_RV")
        self.transfers += 1

    def recv(self) -> Generator:
        yield from self.receiver.var_wait(self.var_op, 1, self.memory)
        yield from self.receiver.var_write(self.var_op, 0, self.memory)
        self._mark("3:deassert DONE_OP")
        words = self._pending_words or self.max_words
        values = yield from self.receiver.read(self.buffer, words)
        self._mark("3:transfer data")
        yield from self.receiver.var_write(self.var_rv, 1, self.memory)
        self._mark("4:assert DONE_RV")
        return values


class FpaDistributor:
    """Example 5: one PE distributes work chunks through the global memory.

    The distributor BAN writes each worker's input chunk to a per-worker
    buffer in the shared memory and raises that worker's DONE_RV variable
    (step 1); workers wait on it, read their chunk, clear the flag and
    process (step 3); on completion they write results to a per-worker
    output buffer and raise DONE_OP (step 4); the distributor collects by
    waiting on DONE_OP and clearing it (step 5).
    """

    def __init__(
        self,
        distributor: SocAPI,
        workers: Dict[str, SocAPI],
        chunk_words: int,
        result_words: int,
        memory: Optional[str] = None,
    ):
        self.distributor = distributor
        self.workers = dict(workers)
        self.chunk_words = chunk_words
        self.result_words = result_words
        machine = distributor.machine
        self.memory = memory or distributor.shared_memory()
        self.in_buffers: Dict[str, Address] = {}
        self.out_buffers: Dict[str, Address] = {}
        for ban in self.workers:
            self.in_buffers[ban] = (self.memory, machine.reserve(self.memory, chunk_words))
            self.out_buffers[ban] = (self.memory, machine.reserve(self.memory, result_words))
        self.trace: List[Tuple[str, int]] = []

    def _mark(self, label: str) -> None:
        self.trace.append((label, self.distributor.machine.sim.now))

    def _rv(self, ban: str) -> str:
        return "DONE_RV_FPA_%s" % ban

    def _op(self, ban: str) -> str:
        return "DONE_OP_FPA_%s" % ban

    # -- distributor side -------------------------------------------------
    def deliver(self, ban: str, values: Sequence[int]) -> Generator:
        """Step (1): write a worker's input chunk and raise its DONE_RV."""
        api = self.distributor
        yield from api.mem_write(list(values), self.in_buffers[ban])
        yield from api.var_write(self._rv(ban), 1, self.memory)
        self._mark("1:deliver %s" % ban)

    def collect(self, ban: str) -> Generator:
        """Step (5): wait for a worker's DONE_OP, clear it, read results."""
        api = self.distributor
        yield from api.var_wait(self._op(ban), 1, self.memory)
        yield from api.var_write(self._op(ban), 0, self.memory)
        values = yield from api.read(self.out_buffers[ban], self.result_words)
        self._mark("5:collect %s" % ban)
        return values

    # -- worker side ----------------------------------------------------------
    def fetch(self, ban: str) -> Generator:
        """Step (3): wait for DONE_RV, read the chunk, clear the flag."""
        api = self.workers[ban]
        yield from api.var_wait(self._rv(ban), 1, self.memory)
        values = yield from api.read(self.in_buffers[ban], self.chunk_words)
        yield from api.var_write(self._rv(ban), 0, self.memory)
        self._mark("3:fetch %s" % ban)
        return values

    def complete(self, ban: str, values: Sequence[int]) -> Generator:
        """Step (4): write results and raise DONE_OP."""
        api = self.workers[ban]
        yield from api.mem_write(list(values), self.out_buffers[ban])
        yield from api.var_write(self._op(ban), 1, self.memory)
        self._mark("4:complete %s" % ban)


def make_channel(
    sender: SocAPI,
    receiver: SocAPI,
    max_words: int,
    prefer: Optional[str] = None,
) -> Channel:
    """Pick the natural channel type for the machine's bus architecture.

    ``prefer`` forces a kind ('BFBA', 'GBAVI', 'GLOBAL') where the topology
    offers several (the Hybrid system has both FIFOs and a global bus --
    section IV.C.4).
    """
    machine = sender.machine
    have_fifo = bool(machine.fifo_blocks)
    have_hs_bus = (
        sender.ban in machine.hs_blocks or receiver.ban in machine.hs_blocks
    ) and not have_fifo
    have_global = machine.global_memory is not None

    def adjacent() -> bool:
        try:
            machine.fifo_for(sender.ban, receiver.ban)
            return True
        except LookupError:
            return False

    if prefer == "BFBA" or (prefer is None and have_fifo and adjacent()):
        return BfbaChannel(sender, receiver, max_words)
    if prefer == "GBAVI" or (prefer is None and have_hs_bus):
        return GbaviChannel(sender, receiver, max_words)
    if prefer == "GLOBAL" or (prefer is None and have_global):
        return GlobalChannel(sender, receiver, max_words)
    raise LookupError(
        "no usable channel from %s to %s on %s"
        % (sender.ban, receiver.ban, machine.name)
    )
