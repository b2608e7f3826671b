"""Function-group assignment and parallel drivers for the OFDM transmitter.

Table I partitions the transmitter across four BANs:

* group E (BAN A): data generation, symbol mapping, bit reversal
* group F (BAN B): inverse FFT butterflies
* group G (BAN C): normalizing the inverse FFT
* group H (BAN D): normalization, guard insertion, data output

Two software programming styles (Figure 26):

* **PPA** -- pipelined parallel: each BAN runs one group, packets stream
  through the chain over the architecture's natural channel (Bi-FIFO,
  bridged handshake, or shared memory).
* **FPA** -- functional parallel: every BAN runs the whole E-F-G-H chain on
  its own packets; raw payload chunks are distributed through the shared
  memory by one PE per subsystem (Example 5's pattern), so FPA is only
  available on architectures with a shared memory.

Both drivers run the *real* transmitter math; the output packets are
checked against the reference :func:`repro.apps.ofdm.transmitter.transmit_packet`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...options.schema import OptionError
from ...sim.fabric import Machine
from ...soc import pack
from ...soc.api import SocAPI
from ...soc.handshake import make_channel
from . import cost
from .transmitter import (
    OfdmParameters,
    bit_reverse,
    generate_bits,
    insert_guard,
    modulate,
    normalize,
    symbol_map,
)

__all__ = ["GROUP_OF_BAN", "OfdmResult", "run_ppa", "run_fpa", "run_ofdm"]

# Table I: function group by pipeline position.
GROUP_OF_BAN = ("E", "F", "G", "H")


@dataclass
class OfdmResult:
    """Outcome of one simulated OFDM run."""

    machine_name: str
    style: str
    cycles: int
    payload_bits: int
    packets: int
    outputs: List[np.ndarray] = field(default_factory=list)
    # (ban, group, packet_index, start_cycle, end_cycle) compute intervals;
    # this is the data behind Figure 26's occupancy charts.
    schedule: List[Tuple[str, str, int, int, int]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.cycles / 100e6

    @property
    def throughput_mbps(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.payload_bits / self.seconds / 1e6


def _check_payload(received: np.ndarray, exact: np.ndarray) -> None:
    """Check a stage's bus-carried float32 payload against the exact values.

    The decision of ``np.testing.assert_allclose`` at ``rtol = atol = 1e-3``
    (equal shapes, NaNs equal), without importing ``numpy.testing`` inside
    a timed run.
    """
    expected = exact.astype(np.complex64)
    if received.shape != expected.shape or not np.allclose(
        received, expected, rtol=1e-3, atol=1e-3, equal_nan=True
    ):
        raise AssertionError(
            "stage payload differs from the exact values beyond rtol = atol = 1e-3"
        )


def _record(result: OfdmResult, api: SocAPI, group: str, packet: int, start: int) -> None:
    result.schedule.append((api.ban, group, packet, start, api.machine.sim.now))


# ----------------------------------------------------------------------
# Function-group bodies: real math + modelled cost + cache traffic
# ----------------------------------------------------------------------


def _group_e(api: SocAPI, params: OfdmParameters, packet: int, buffers, bits=None):
    """Data generation + symbol mapping + bit reversal."""
    if bits is None:
        bits = generate_bits(params, packet)
    symbols = symbol_map(np.asarray(bits))
    reordered = bit_reverse(symbols)
    yield from api.compute(
        cost.group_e_instructions(params.data_samples),
        [api.touch(buffers["symbols"], 2 * params.data_samples, write=True)],
    )
    return reordered


def _group_f(api: SocAPI, params: OfdmParameters, reordered, buffers):
    """IFFT butterflies: log2(N) in-place passes over the work buffer."""
    raw = modulate(reordered)
    passes = params.data_samples.bit_length() - 1
    touches = [
        api.touch(buffers["work"], 2 * params.data_samples, write=True)
        for _ in range(passes)
    ]
    yield from api.compute(cost.group_f_instructions(params.data_samples), touches)
    return raw


def _group_g(api: SocAPI, params: OfdmParameters, raw, buffers):
    """Normalize the inverse FFT output."""
    scaled = normalize(raw)
    yield from api.compute(
        cost.group_g_instructions(params.data_samples),
        [api.touch(buffers["work"], 2 * params.data_samples, write=True)],
    )
    return scaled


def _group_h(api: SocAPI, params: OfdmParameters, scaled, buffers):
    """Final normalization, guard insertion and data output."""
    packet_out = insert_guard(scaled, params.guard_samples)
    yield from api.compute(
        cost.group_h_instructions(params.data_samples, params.guard_samples),
        [api.touch(buffers["out"], 2 * params.packet_samples, write=True)],
    )
    return packet_out


def _startup(api: SocAPI) -> None:
    """One-time functions of BAN A (italicized rows of Table I)."""
    yield from api.compute(cost.INIT_INSTR)
    yield from api.compute(cost.TRAIN_PULSE_INSTR)
    yield from api.compute(cost.SYMBOL_GEN_INSTR)


def _stage_buffers(api: SocAPI, params: OfdmParameters) -> Dict[str, Tuple[str, int]]:
    """Per-PE working buffers in its natural data memory."""
    return {
        "symbols": api.alloc(2 * params.data_samples),
        "work": api.alloc(2 * params.data_samples),
        "out": api.alloc(2 * params.packet_samples),
    }


# ----------------------------------------------------------------------
# PPA driver (Figure 26a)
# ----------------------------------------------------------------------


def _make_pipe(sender: SocAPI, receiver: SocAPI, hop_words: int, prefer):
    """Build a stage-to-stage channel sized for the machine's bus type.

    A Bi-FIFO transfer is bounded by the FIFO capacity, so on BFBA-style
    links large buffers stream in depth-sized blocks; every other channel
    moves the whole hop payload per handshake.
    """
    machine = sender.machine
    if prefer in (None, "BFBA") and machine.fifo_blocks:
        try:
            _device, fifo = machine.fifo_for(sender.ban, receiver.ban)
        except LookupError:
            fifo = None
        if fifo is not None:
            from ...soc.handshake import BfbaChannel

            return BfbaChannel(sender, receiver, min(hop_words, fifo.depth_words))
    return make_channel(sender, receiver, hop_words, prefer=prefer)


def _send_chunked(channel, words: Sequence[int]):
    chunk_size = channel.max_words
    for start in range(0, len(words), chunk_size):
        chunk = list(words[start : start + chunk_size])
        if channel.kind == "BFBA" and len(chunk) < chunk_size:
            chunk.extend([0] * (chunk_size - len(chunk)))  # threshold padding
        yield from channel.send(chunk)


def _recv_chunked(channel, total_words: int):
    words: List[int] = []
    while len(words) < total_words:
        chunk = yield from channel.recv()
        words.extend(chunk)
        yield from channel.release()
    return words[:total_words]


def run_ppa(
    machine: Machine,
    params: Optional[OfdmParameters] = None,
    prefer_channel: Optional[str] = None,
) -> OfdmResult:
    """Pipelined parallel OFDM across the machine's first four PEs."""
    params = params or OfdmParameters()
    params.validate()
    if len(machine.pe_order) < 4:
        raise OptionError("PPA needs four BANs (Table I assigns groups E-H)")
    bans = machine.pe_order[:4]
    apis = {ban: SocAPI(machine, ban) for ban in bans}
    words_per_hop = 2 * params.data_samples
    channels = {}
    for upstream, downstream in zip(bans, bans[1:]):
        channels[(upstream, downstream)] = _make_pipe(
            apis[upstream], apis[downstream], words_per_hop, prefer_channel
        )
    result = OfdmResult(machine.name, "PPA", 0, params.payload_bits_per_packet * params.packets, params.packets)
    buffers = {ban: _stage_buffers(apis[ban], params) for ban in bans}
    handoff: Dict[Tuple[str, int], np.ndarray] = {}

    def stage_a():
        api = apis[bans[0]]
        yield from _startup(api)
        for packet in range(params.packets):
            start = machine.sim.now
            reordered = yield from _group_e(api, params, packet, buffers[bans[0]])
            _record(result, api, "E", packet, start)
            handoff[(bans[0], packet)] = reordered
            words = pack.complex_to_float_words(reordered)
            yield from _send_chunked(channels[(bans[0], bans[1])], words)

    def stage_middle(position: int, body, group: str):
        def program():
            api = apis[bans[position]]
            upstream = channels[(bans[position - 1], bans[position])]
            downstream = channels[(bans[position], bans[position + 1])]
            for packet in range(params.packets):
                words = yield from _recv_chunked(upstream, words_per_hop)
                data = pack.float_words_to_complex(words)
                # Carry exact values from the upstream stage (the packed
                # float32 stream is the bus-visible payload; computation
                # continues in full precision like the C code's doubles).
                exact = handoff.pop((bans[position - 1], packet))
                start = machine.sim.now
                output = yield from body(api, params, exact, buffers[bans[position]])
                _record(result, api, group, packet, start)
                handoff[(bans[position], packet)] = output
                _check_payload(data, exact)
                yield from _send_chunked(
                    downstream, pack.complex_to_float_words(output)
                )

        return program

    def stage_d():
        api = apis[bans[3]]
        upstream = channels[(bans[2], bans[3])]
        for packet in range(params.packets):
            words = yield from _recv_chunked(upstream, words_per_hop)
            exact = handoff.pop((bans[2], packet))
            start = machine.sim.now
            packet_out = yield from _group_h(api, params, exact, buffers[bans[3]])
            _record(result, api, "H", packet, start)
            result.outputs.append(packet_out)
            del words

    machine.pe(bans[0]).run(stage_a())
    machine.pe(bans[1]).run(stage_middle(1, _group_f, "F")())
    machine.pe(bans[2]).run(stage_middle(2, _group_g, "G")())
    machine.pe(bans[3]).run(stage_d())
    _run_and_time(machine, result)
    return result


# ----------------------------------------------------------------------
# FPA driver (Figure 26b)
# ----------------------------------------------------------------------


def run_fpa(machine: Machine, params: Optional[OfdmParameters] = None) -> OfdmResult:
    """Functional parallel OFDM: every PE runs the whole chain.

    Raw payload bits are distributed through the shared memory by one
    distributor PE per subsystem (so SplitBA's two halves source their
    input independently); finished packets are written back to a shared
    output region and completion flags collected.
    """
    params = params or OfdmParameters()
    params.validate()
    if machine.global_memory is None:
        raise OptionError(
            "FPA needs a shared memory (GBAVIII/Hybrid/SplitBA/GGBA/CCBA); "
            "%s has none" % machine.name
        )
    bans = machine.pe_order
    apis = {ban: SocAPI(machine, ban) for ban in bans}
    result = OfdmResult(
        machine.name, "FPA", 0, params.payload_bits_per_packet * params.packets, params.packets
    )
    assignment = {
        packet: bans[packet % len(bans)] for packet in range(params.packets)
    }
    bit_words = params.payload_bits_per_packet // 32
    out_words = 2 * params.packet_samples

    # Group BANs by their shared memory (two groups on SplitBA, one else).
    groups: Dict[str, List[str]] = {}
    for ban in bans:
        groups.setdefault(apis[ban].shared_memory(), []).append(ban)

    # Per-packet input/output areas plus ready/done flags, per shared memory.
    in_buffers: Dict[int, Tuple[str, int]] = {}
    out_buffers: Dict[int, Tuple[str, int]] = {}
    for packet, ban in assignment.items():
        memory = apis[ban].shared_memory()
        in_buffers[packet] = (memory, machine.reserve(memory, bit_words))
        out_buffers[packet] = (memory, machine.reserve(memory, out_words))
    buffers = {ban: _stage_buffers(apis[ban], params) for ban in bans}
    payload: Dict[int, np.ndarray] = {}

    def distributor(ban: str, member_bans: List[str]):
        """First PE of each group: reads the input source, feeds the rest."""
        api = apis[ban]
        memory = api.shared_memory()
        my_packets = [p for p, b in assignment.items() if b in member_bans]
        def feed():
            for packet in my_packets:
                bits = generate_bits(params, packet)
                payload[packet] = bits
                # Reading from the external input device: modelled as a
                # per-word I/O cost, then the write into the shared buffer.
                yield from api.compute(bit_words * 8)
                yield from api.mem_write(pack.bits_to_words(bits), in_buffers[packet])
                yield from api.var_write("PKT_RDY_%d" % packet, 1, memory)
            # Work own packets, then collect completions.
            yield from worker_body(ban)
            for packet in my_packets:
                yield from api.var_wait("PKT_DONE_%d" % packet, 1, memory)
        return feed

    def worker_body(ban: str):
        api = apis[ban]
        memory = api.shared_memory()
        if ban == bans[0]:
            yield from _startup(api)
        for packet in sorted(p for p, b in assignment.items() if b == ban):
            yield from api.var_wait("PKT_RDY_%d" % packet, 1, memory)
            words = yield from api.read(in_buffers[packet], bit_words)
            bits = pack.words_to_bits(words, params.payload_bits_per_packet)
            start = machine.sim.now
            reordered = yield from _group_e(api, params, packet, buffers[ban], bits)
            raw = yield from _group_f(api, params, reordered, buffers[ban])
            scaled = yield from _group_g(api, params, raw, buffers[ban])
            packet_out = yield from _group_h(api, params, scaled, buffers[ban])
            _record(result, api, "EFGH", packet, start)
            result.outputs.append(packet_out)
            yield from api.mem_write(
                pack.complex_to_float_words(packet_out), out_buffers[packet]
            )
            yield from api.var_write("PKT_DONE_%d" % packet, 1, memory)

    def worker(ban: str):
        def program():
            yield from worker_body(ban)
        return program

    for memory, member_bans in groups.items():
        lead = member_bans[0]
        machine.pe(lead).run(distributor(lead, member_bans)())
        for ban in member_bans[1:]:
            machine.pe(ban).run(worker(ban)())
    _run_and_time(machine, result)
    return result


def _run_and_time(machine: Machine, result: OfdmResult) -> None:
    machine.sim.run()
    result.cycles = machine.program_cycles()


def run_ofdm(
    machine: Machine,
    style: str,
    params: Optional[OfdmParameters] = None,
    prefer_channel: Optional[str] = None,
) -> OfdmResult:
    """Run the OFDM transmitter in the given style ('PPA' or 'FPA')."""
    style = style.upper()
    if style == "PPA":
        return run_ppa(machine, params, prefer_channel)
    if style == "FPA":
        return run_fpa(machine, params)
    raise ValueError("style must be 'PPA' or 'FPA', got %r" % style)
