"""Functional-parallel MPEG2 decoding on a simulated bus system.

Section VI.A.3 / Figure 27: the video stream is a sequence of SH+GOP
chunks; GOP *i* is decoded by BAN ``i mod n`` (round-robin), BAN A performs
raw-stream input, and every decoded frame is handed over to BAN D (the last
BAN) for output.

Two drivers, selected by topology:

* **shared-memory machines** (GBAVIII, Hybrid, SplitBA, GGBA, CCBA): BAN A
  writes each chunk to a shared input buffer and raises a per-GOP ready
  flag (Example 5); workers decode their GOPs and post decoded frames to a
  shared collection area read by the last BAN.  On Hybrid, workers adjacent
  to the last BAN hand their frames over the Bi-FIFO instead, trimming
  global-bus traffic -- the feature mix the paper credits for Hybrid's win
  in Table III.
* **neighbour-only machines** (BFBA, GBAVI): there is no shared memory, so
  BAN A relays each chunk BAN-to-BAN to its destination, and decoded frames
  relay back to the last BAN the same way -- "the data to be processed in
  each BAN has to be passed from BAN A to each BAN sequentially", which is
  exactly why these two architectures trail in Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...sim.fabric import Machine
from ...soc import pack
from ...soc.api import SocAPI
from ...soc.handshake import make_channel
from . import cost
from .codec import (
    Frame,
    encode_sequence,
    iter_decode_chunk,
    sequence_header,
    split_stream,
    synthetic_stream,
)

__all__ = ["Mpeg2Result", "run_mpeg2", "gop_assignment"]

# Minimum relay-message size (words); grows to fit the largest SH+GOP
# chunk or packed 4:2:0 frame of the run, like a DMA descriptor slot.
MSG_WORDS = 192
_KIND_CHUNK = 1
_KIND_FRAME = 2


def _frame_payload_bytes(width: int, height: int) -> int:
    return 5 + width * height + 2 * (width // 2) * (height // 2)


def _message_words(chunks, frame_bytes: int) -> int:
    largest = max([len(chunk) for chunk in chunks] + [frame_bytes])
    return max(MSG_WORDS, 3 + (largest + 3) // 4)


@dataclass
class Mpeg2Result:
    machine_name: str
    cycles: int
    stream_bits: int
    gops: int
    frame_payload_bytes: int = _frame_payload_bytes(16, 16)
    frames: Dict[Tuple[int, int], Frame] = field(default_factory=dict)
    gop_to_ban: Dict[int, str] = field(default_factory=dict)
    # (ban, gop_index, start_cycle, end_cycle) decode intervals.
    schedule: List[Tuple[str, int, int, int]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.cycles / 100e6

    @property
    def throughput_mbps(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.stream_bits / self.seconds / 1e6


def gop_assignment(gop_count: int, bans: List[str]) -> Dict[int, str]:
    """Figure 27b: GOP i -> BAN (i mod n)."""
    return {index: bans[index % len(bans)] for index in range(gop_count)}


# ----------------------------------------------------------------------
# Message packing for the relay driver
# ----------------------------------------------------------------------


def _pack_message(kind: int, tag: int, payload: bytes, msg_words: int = MSG_WORDS) -> List[int]:
    words = [kind, tag, len(payload)]
    words.extend(pack.bytes_to_words(payload))
    if len(words) > msg_words:
        raise ValueError("payload of %d bytes overflows a relay message" % len(payload))
    words.extend([0] * (msg_words - len(words)))
    return words


def _unpack_message(words: List[int]) -> Tuple[int, int, bytes]:
    kind, tag, length = words[0], words[1], words[2]
    payload = pack.words_to_bytes(words[3:], length)
    return kind, tag, payload


def _pack_frame(frame: Frame) -> bytes:
    planes = [
        np.clip(np.round(np.asarray(p)), 0, 255).astype(np.uint8).tobytes()
        for p in frame.planes()
    ]
    height, width = frame.y.shape
    header = bytes(
        [1 if frame.picture_type == "I" else 0, width >> 8, width & 0xFF,
         height >> 8, height & 0xFF]
    )
    return header + planes[0] + planes[1] + planes[2]


def _unpack_frame(payload: bytes) -> Frame:
    picture_type = "I" if payload[0] else "P"
    width = (payload[1] << 8) | payload[2]
    height = (payload[3] << 8) | payload[4]
    body = payload[5:]
    y_size = width * height
    c_size = (width // 2) * (height // 2)
    y = np.frombuffer(body[:y_size], np.uint8).reshape(height, width).astype(float)
    cb = (
        np.frombuffer(body[y_size : y_size + c_size], np.uint8)
        .reshape(height // 2, width // 2)
        .astype(float)
    )
    cr = (
        np.frombuffer(body[y_size + c_size : y_size + 2 * c_size], np.uint8)
        .reshape(height // 2, width // 2)
        .astype(float)
    )
    return Frame(y, cb, cr, picture_type)


# ----------------------------------------------------------------------
# Shared decode body
# ----------------------------------------------------------------------


def _decode_chunk_sim(api: SocAPI, chunk: bytes, buffers, result: Mpeg2Result):
    """Decode one SH+GOP chunk on a PE, charging modelled costs."""
    start = api.machine.sim.now
    yield from api.compute(cost.sh_gop_parse_instructions())
    frames: List[Tuple[int, int, Frame]] = []
    gop_index = -1
    for frame_number, (gop_index, frame, stats) in enumerate(iter_decode_chunk(chunk)):
        touches = [
            api.touch(buffers["frame"], 128, write=True),
            api.touch(buffers["stream"], len(chunk) // 4 + 1),
        ]
        yield from api.compute(cost.picture_instructions(stats), touches)
        yield from api.scattered_access(
            buffers["frame"], cost.UNCACHED_WORD_OPS_PER_PICTURE
        )
        frames.append((gop_index, frame_number, frame))
    result.schedule.append((api.ban, gop_index, start, api.machine.sim.now))
    return frames


def _worker_buffers(api: SocAPI, msg_words: int) -> Dict[str, Tuple[str, int]]:
    return {"frame": api.alloc(max(128, msg_words)), "stream": api.alloc(msg_words)}


# ----------------------------------------------------------------------
# Driver for shared-memory machines
# ----------------------------------------------------------------------


def _run_shared(
    machine: Machine, chunks: List[bytes], result: Mpeg2Result, msg_words: int
) -> None:
    bans = machine.pe_order
    apis = {ban: SocAPI(machine, ban) for ban in bans}
    assignment = gop_assignment(len(chunks), bans)
    result.gop_to_ban.update(assignment)
    first, last = bans[0], bans[-1]
    frame_words = 3 + (result.frame_payload_bytes + 3) // 4

    # Input chunk buffers live in each worker's shared memory (SplitBA has
    # one per subsystem; BAN A reaches the far one across the bus bridge).
    chunk_buffers: Dict[int, Tuple[str, int]] = {}
    for index, ban in assignment.items():
        memory = apis[ban].shared_memory()
        chunk_buffers[index] = (memory, machine.reserve(memory, msg_words))
    # Decoded frames are collected in the *last* BAN's shared memory.
    collect_memory = apis[last].shared_memory()
    frame_slots: Dict[Tuple[int, int], Tuple[str, int]] = {}
    for index in assignment:
        for frame_number in range(2):
            frame_slots[(index, frame_number)] = (
                collect_memory,
                machine.reserve(collect_memory, frame_words),
            )
    buffers = {ban: _worker_buffers(apis[ban], msg_words) for ban in bans}

    # Hybrid feature: workers adjacent to the last BAN hand frames over the
    # Bi-FIFO instead of the global bus.
    fifo_channels = {}
    if machine.fifo_blocks and machine.global_memory:
        for ban in bans:
            if ban == last:
                continue
            try:
                machine.fifo_for(ban, last)
            except LookupError:
                continue
            fifo_channels[ban] = make_channel(
                apis[ban], apis[last], msg_words, prefer="BFBA"
            )

    def input_and_work():
        api = apis[first]
        stream_words = sum(len(chunk) for chunk in chunks) // 4 + len(chunks)
        yield from api.compute(stream_words * cost.INPUT_IO_PER_WORD)
        for index, chunk in enumerate(chunks):
            words = _pack_message(_KIND_CHUNK, index, chunk, msg_words)
            yield from api.mem_write(words, chunk_buffers[index])
            memory = chunk_buffers[index][0]
            yield from api.var_write("GOP_RDY_%d" % index, 1, memory)
        yield from work(first)

    def work(ban: str):
        api = apis[ban]
        decoded: List[Tuple[int, int, Frame]] = []
        for index in sorted(i for i, b in assignment.items() if b == ban):
            memory = chunk_buffers[index][0]
            yield from api.var_wait("GOP_RDY_%d" % index, 1, memory)
            words = yield from api.read(chunk_buffers[index], msg_words)
            _kind, _tag, chunk = _unpack_message(list(words))
            frames = yield from _decode_chunk_sim(api, chunk, buffers[ban], result)
            decoded.extend(frames)
        # "Each decoded frame is handed over to BAN D at the end."
        for gop_index, frame_number, frame in decoded:
            message = _pack_message(
                _KIND_FRAME, gop_index * 16 + frame_number, _pack_frame(frame), msg_words
            )
            if ban == last:
                result.frames[(gop_index, frame_number)] = _unpack_frame(
                    _pack_frame(frame)
                )
            elif ban in fifo_channels:
                yield from fifo_channels[ban].send(message[:msg_words])
            else:
                yield from api.mem_write(
                    message[:frame_words], frame_slots[(gop_index, frame_number)]
                )
                yield from api.var_write(
                    "FRAME_%d_%d" % (gop_index, frame_number), 1, collect_memory
                )

    def collect_and_output():
        api = apis[last]
        yield from work(last)
        expected_fifo = sum(
            2
            for index, ban in assignment.items()
            if ban in fifo_channels
        )
        for _ in range(expected_fifo):
            channel = fifo_channels_by_order.pop(0)
            words = yield from channel.recv()
            yield from channel.release()
            yield from _accept(api, list(words))
        for (gop_index, frame_number), slot in sorted(frame_slots.items()):
            ban = assignment[gop_index]
            if ban == last or ban in fifo_channels:
                continue
            yield from api.var_wait(
                "FRAME_%d_%d" % (gop_index, frame_number), 1, collect_memory
            )
            words = yield from api.read(slot, frame_words)
            yield from _accept(api, list(words))
        total_words = len(result.frames) * frame_words
        yield from api.compute(total_words * cost.OUTPUT_PER_WORD)

    def _accept(api: SocAPI, words: List[int]):
        kind, tag, payload = _unpack_message(words)
        frame = _unpack_frame(payload)
        result.frames[(tag // 16, tag % 16)] = frame
        yield from api.compute(200)

    # Receive order for FIFO-delivered frames: GOP order of the sending BANs.
    fifo_channels_by_order = []
    for index in sorted(assignment):
        ban = assignment[index]
        if ban in fifo_channels:
            fifo_channels_by_order.extend([fifo_channels[ban]] * 2)

    for ban in bans:
        if ban == first and ban == last:
            raise ValueError("MPEG2 driver needs at least two PEs")
    machine.pe(first).run(input_and_work())
    for ban in bans[1:-1]:
        machine.pe(ban).run(work(ban))
    machine.pe(last).run(collect_and_output())


# ----------------------------------------------------------------------
# Driver for neighbour-only machines (BFBA / GBAVI): sequential relay
# ----------------------------------------------------------------------


def _run_relay(
    machine: Machine, chunks: List[bytes], result: Mpeg2Result, msg_words: int
) -> None:
    """Relay-based distribution with picture-granular service points.

    Forwarding PEs only service their incoming channel *between picture
    decodes* (a simple decoder main loop has no other preemption point), so
    a chunk bound two hops away waits for the BANs in between -- this is
    the "passed from BAN A to each BAN sequentially" penalty that puts BFBA
    and GBAVI at the bottom of Table III.
    """
    bans = machine.pe_order
    if len(bans) != 4:
        raise ValueError("the relay driver implements the paper's 4-PE layout")
    a, b, c, d = bans
    apis = {ban: SocAPI(machine, ban) for ban in bans}
    assignment = gop_assignment(len(chunks), bans)
    result.gop_to_ban.update(assignment)
    buffers = {ban: _worker_buffers(apis[ban], msg_words) for ban in bans}

    # Channels along the chain, plus the ring link A->D (Figure 17a).
    ch_ab = make_channel(apis[a], apis[b], msg_words)
    ch_bc = make_channel(apis[b], apis[c], msg_words)
    ch_cd = make_channel(apis[c], apis[d], msg_words)
    ch_ad = make_channel(apis[a], apis[d], msg_words)

    def own(ban: str) -> List[int]:
        return sorted(index for index, owner in assignment.items() if owner == ban)

    class PictureQueue:
        """Pending pictures of received chunks, decoded one at a time."""

        def __init__(self, ban: str):
            self.ban = ban
            self.iterators: List = []
            self.current = None
            self.frames: List[Tuple[int, int, Frame]] = []
            self._frame_number = 0
            self._start = None

        def add_chunk(self, chunk: bytes):
            self.iterators.append(iter_decode_chunk(chunk))

        def decode_one(self):
            """Decode the next pending picture (generator); False if none."""
            api = apis[self.ban]
            while True:
                if self.current is None:
                    if not self.iterators:
                        return False
                    self.current = self.iterators.pop(0)
                    self._frame_number = 0
                    self._start = machine.sim.now
                    yield from api.compute(cost.sh_gop_parse_instructions())
                try:
                    gop_index, frame, stats = next(self.current)
                except StopIteration:
                    result.schedule.append(
                        (self.ban, self.frames[-1][0], self._start, machine.sim.now)
                    )
                    self.current = None
                    continue
                touches = [
                    api.touch(buffers[self.ban]["frame"], 128, write=True),
                    api.touch(buffers[self.ban]["stream"], 64),
                ]
                yield from api.compute(cost.picture_instructions(stats), touches)
                yield from api.scattered_access(
                    buffers[self.ban]["frame"], cost.UNCACHED_WORD_OPS_PER_PICTURE
                )
                self.frames.append((gop_index, self._frame_number, frame))
                self._frame_number += 1
                return True

        def drain(self):
            while True:
                more = yield from self.decode_one()
                if not more:
                    return

    def send_frames(channel, frames):
        for gop_index, frame_number, frame in frames:
            message = _pack_message(
                _KIND_FRAME, gop_index * 16 + frame_number, _pack_frame(frame), msg_words
            )
            yield from channel.send(message)

    def ban_a():
        api = apis[a]
        queue = PictureQueue(a)
        stream_words = sum(len(chunk) for chunk in chunks) // 4 + len(chunks)
        # The stream arrives GOP by GOP from the input source; BAN A keeps
        # its own GOPs and pushes the rest toward their owners, decoding
        # one of its own pending pictures whenever a send is not ready.
        for index in sorted(assignment):
            yield from api.compute(
                (len(chunks[index]) // 4 + 1) * cost.INPUT_IO_PER_WORD
            )
            owner = assignment[index]
            if owner == a:
                queue.add_chunk(chunks[index])
                yield from queue.decode_one()
                continue
            message = _pack_message(_KIND_CHUNK, index, chunks[index], msg_words)
            channel = ch_ad if owner == d else ch_ab
            yield from channel.send(message)
        yield from queue.drain()
        yield from send_frames(ch_ad, queue.frames)

    def middle(ban: str, ch_in, ch_out):
        """BANs B and C: alternate chunk service and picture decodes."""

        def program():
            queue = PictureQueue(ban)
            incoming = [i for i in sorted(assignment) if _routes_through(i, ban)]
            for _index in incoming:
                words = yield from ch_in.recv()
                yield from ch_in.release()
                _kind, tag, payload = _unpack_message(list(words))
                if assignment[tag] == ban:
                    queue.add_chunk(payload)
                else:
                    yield from ch_out.send(list(words))
                # Service point honoured; resume decoding one picture.
                yield from queue.decode_one()
            yield from queue.drain()
            yield from send_frames(ch_out, queue.frames)
            if ban == c:
                # Forward B's decoded frames toward D.
                for _ in range(2 * len(own(b))):
                    words = yield from ch_bc.recv()
                    yield from ch_bc.release()
                    yield from ch_cd.send(list(words))

        return program

    def _routes_through(index: int, ban: str) -> bool:
        owner = assignment[index]
        if owner == d or owner == a:
            return False  # A->D uses the ring link
        if ban == b:
            return owner in (b, c)
        return owner == c

    def ban_d():
        api = apis[d]
        queue = PictureQueue(d)
        for _index in own(d):
            words = yield from ch_ad.recv()
            yield from ch_ad.release()
            _kind, _tag, payload = _unpack_message(list(words))
            queue.add_chunk(payload)
            yield from queue.decode_one()
        yield from queue.drain()
        for gop_index, frame_number, frame in queue.frames:
            result.frames[(gop_index, frame_number)] = _unpack_frame(
                _pack_frame(frame)
            )
        # Collect: C's own frames then B's forwarded frames on ch_cd, then
        # A's frames on the ring link.
        for _ in range(2 * (len(own(c)) + len(own(b)))):
            words = yield from ch_cd.recv()
            yield from ch_cd.release()
            _k, tag, payload = _unpack_message(list(words))
            result.frames[(tag // 16, tag % 16)] = _unpack_frame(payload)
        for _ in range(2 * len(own(a))):
            words = yield from ch_ad.recv()
            yield from ch_ad.release()
            _k, tag, payload = _unpack_message(list(words))
            result.frames[(tag // 16, tag % 16)] = _unpack_frame(payload)
        frame_words = 100
        yield from api.compute(len(result.frames) * frame_words * cost.OUTPUT_PER_WORD)

    machine.pe(a).run(ban_a())
    machine.pe(b).run(middle(b, ch_ab, ch_bc)())
    machine.pe(c).run(middle(c, ch_bc, ch_cd)())
    machine.pe(d).run(ban_d())


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_mpeg2(
    machine: Machine,
    video: Optional[List[Frame]] = None,
    frame_count: int = 16,
) -> Mpeg2Result:
    """Decode an MPEG2 stream functionally parallel on ``machine``.

    The stream is encoded outside the simulation (it is the external input
    source): ``video`` is encoded for this call, and without one the run
    decodes the shared ``synthetic_stream(frame_count)``: ``frame_count // 2`` I+P GOPs.
    """
    stream = synthetic_stream(frame_count) if video is None else encode_sequence(video)
    chunks = split_stream(stream)
    header = sequence_header(stream)
    frame_bytes = _frame_payload_bytes(header.width, header.height)
    msg_words = _message_words(chunks, frame_bytes)
    result = Mpeg2Result(
        machine_name=machine.name,
        cycles=0,
        stream_bits=len(stream) * 8,
        gops=len(chunks),
        frame_payload_bytes=frame_bytes,
    )
    if machine.global_memory is not None:
        _run_shared(machine, chunks, result, msg_words)
    else:
        _run_relay(machine, chunks, result, msg_words)
    machine.sim.run()
    result.cycles = machine.program_cycles()
    return result
