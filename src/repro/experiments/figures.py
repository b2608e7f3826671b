"""Figure reproductions: protocol state diagrams and schedule charts.

* **Figures 11/12/13** -- the numbered handshake steps of the GBAVI, BFBA
  and GBAVIII communication procedures.  We run one transfer over the real
  simulated hardware with tracing enabled and check the recorded step
  sequence against the diagram's ordering.
* **Figure 26** -- PPA vs FPA occupancy: which function groups each BAN
  executes over time, extracted from the OFDM run's schedule records.
* **Figure 27** -- the MPEG2 FPA distribution: GOP i decoded by BAN
  (i mod 4).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..apps.mpeg2.parallel import gop_assignment
from ..apps.ofdm import OfdmParameters, run_ofdm
from ..options import presets
from ..sim.fabric import build_machine
from ..soc.api import SocAPI
from ..soc.handshake import BfbaChannel, GbaviChannel, GlobalChannel

__all__ = [
    "FIGURE11_ORDER",
    "FIGURE12_ORDER",
    "FIGURE13_ORDER",
    "run_handshake_trace",
    "check_step_order",
    "run_figure26",
    "check_figure26",
    "run_figure27",
]

# Expected step label order per transfer, from the state diagrams.
FIGURE11_ORDER = [
    "2:assert DONE_OP",
    "3:deassert DONE_OP",
    "3:transfer data",
    "4:assert DONE_RV",
    "5:deassert DONE_RV",
]
FIGURE12_ORDER = [
    "2:push data",
    "3.1:deassert DONE_OP",
    "3.2:pop data",
    "3.3:assert DONE_RV",
    "4:deassert DONE_RV",
    "6:assert DONE_OP",
]
FIGURE13_ORDER = FIGURE11_ORDER  # shared-variable adaptation, same steps

_CHANNEL_OF = {
    "GBAVI": ("GBAVI", GbaviChannel),
    "BFBA": ("BFBA", BfbaChannel),
    "GBAVIII": ("GBAVIII", GlobalChannel),
}


def run_handshake_trace(protocol: str, words: int = 64) -> List[Tuple[str, int]]:
    """One traced A->B transfer over the given protocol's bus system."""
    preset_name, channel_cls = _CHANNEL_OF[protocol.upper()]
    machine = build_machine(presets.preset(preset_name, 4))
    sender = SocAPI(machine, "A")
    receiver = SocAPI(machine, "B")
    channel = channel_cls(sender, receiver, words)
    payload = list(range(words))
    received: List[List[int]] = []

    def send_program():
        yield from sender.compute(500)
        yield from channel.send(payload)

    def recv_program():
        values = yield from channel.recv()
        received.append(list(values))
        yield from receiver.compute(500)
        yield from channel.release()

    machine.pe("A").run(send_program())
    machine.pe("B").run(recv_program())
    machine.sim.run()
    if received != [payload]:
        raise AssertionError("payload corrupted in %s transfer" % protocol)
    return list(channel.trace)


def check_step_order(trace: List[Tuple[str, int]], expected: List[str]) -> List[str]:
    """Verify the traced steps appear in the diagram's order."""
    failures: List[str] = []
    labels = [label for label, _cycle in trace]
    cycles = [cycle for _label, cycle in trace]
    if labels != expected:
        failures.append("step order %s != expected %s" % (labels, expected))
    if any(b < a for a, b in zip(cycles, cycles[1:])):
        failures.append("step timestamps are not monotonic: %s" % cycles)
    return failures


# ----------------------------------------------------------------------
# Figure 26: PPA vs FPA schedules
# ----------------------------------------------------------------------


def run_figure26(packets: int = 4) -> Dict[str, List[Tuple[str, str, int, int, int]]]:
    """OFDM schedules: {'PPA': [...], 'FPA': [...]} occupancy records."""
    schedules = {}
    for style, preset_name in (("PPA", "BFBA"), ("FPA", "GBAVIII")):
        machine = build_machine(presets.preset(preset_name, 4))
        result = run_ofdm(machine, style, OfdmParameters(packets=packets))
        schedules[style] = list(result.schedule)
    return schedules


def check_figure26(schedules) -> List[str]:
    failures: List[str] = []
    ppa = schedules["PPA"]
    fpa = schedules["FPA"]
    # PPA: each BAN runs exactly one group (Figure 26a's E/F/G/H rows).
    groups_per_ban: Dict[str, set] = {}
    for ban, group, _packet, _start, _end in ppa:
        groups_per_ban.setdefault(ban, set()).add(group)
    for ban, groups in groups_per_ban.items():
        if len(groups) != 1:
            failures.append("PPA BAN %s ran groups %s, expected one" % (ban, groups))
    if sorted(g for groups in groups_per_ban.values() for g in groups) != ["E", "F", "G", "H"]:
        failures.append("PPA should cover groups E, F, G, H")
    # PPA pipeline effect: packet k's F stage starts after packet k's E ends.
    e_ends = {p: end for ban, g, p, start, end in ppa if g == "E"}
    f_starts = {p: start for ban, g, p, start, end in ppa if g == "F"}
    for packet in f_starts:
        if packet in e_ends and f_starts[packet] < e_ends[packet]:
            failures.append("PPA packet %d: F started before E finished" % packet)
    # FPA: every BAN runs the whole chain (Figure 26b's EFGH rows).
    for ban, group, _packet, _start, _end in fpa:
        if group != "EFGH":
            failures.append("FPA BAN %s ran %s, expected the full chain" % (ban, group))
    fpa_bans = {ban for ban, *_rest in fpa}
    fpa_packets = len({packet for _ban, _group, packet, *_rest in fpa})
    if len(fpa_bans) != min(4, fpa_packets):
        failures.append(
            "FPA should occupy %d BANs for %d packets, got %s"
            % (min(4, fpa_packets), fpa_packets, sorted(fpa_bans))
        )
    return failures


# ----------------------------------------------------------------------
# Figure 27: MPEG2 GOP distribution
# ----------------------------------------------------------------------


def run_figure27(gop_count: int = 8) -> Dict[int, str]:
    """GOP -> BAN map for the 4-PE functional parallel decode."""
    machine = build_machine(presets.preset("GBAVIII", 4))
    return gop_assignment(gop_count, machine.pe_order)


def check_figure27(assignment: Dict[int, str]) -> List[str]:
    failures: List[str] = []
    bans = sorted(set(assignment.values()))
    for gop_index, ban in assignment.items():
        expected = bans[gop_index % len(bans)]
        if ban != expected:
            failures.append(
                "GOP %d assigned to %s, expected %s (round-robin)"
                % (gop_index, ban, expected)
            )
    return failures
