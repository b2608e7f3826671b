"""VCD (value-change dump) export of simulation traces.

The paper's environment verified generated buses by watching waveforms in
XRAY/VCS (Figure 28).  This module produces a standard IEEE 1364 VCD file
from a simulated machine so the handshake registers and bus-grant activity
can be inspected in any waveform viewer (GTKWave etc.):

with a :class:`GrantTrace` probe attached before the run,

* every handshake register block contributes its DONE_OP/DONE_RV bits;
* every arbiter contributes a per-master grant bit.

Usage::

    machine = build_machine(spec)
    machine.attach_probe(GrantTrace())
    ... run ...
    open("run.vcd", "w").write(vcd_from_machine(machine))
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import Probe

__all__ = ["GrantTrace", "VcdWriter", "vcd_from_machine"]

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Compact VCD identifier for signal #index."""
    if index == 0:
        return _ID_CHARS[0]
    out = ""
    while index:
        index, digit = divmod(index, len(_ID_CHARS))
        out = _ID_CHARS[digit] + out
    return out


class GrantTrace(Probe):
    """Grant edges per arbiter, ``(cycle, master, granted?)``, and value
    changes per handshake register block, ``(cycle, register, value)``, in
    order."""

    def __init__(self):
        self.edges: Dict[object, List[Tuple[int, str, bool]]] = {}
        self.registers: Dict[object, List[Tuple[int, str, int]]] = {}

    def on_grant(self, arbiter, master: str, waited: Optional[int]) -> None:
        self.edges.setdefault(arbiter, []).append((arbiter.sim.now, master, True))

    def on_release(self, arbiter, master: str) -> None:
        self.edges.setdefault(arbiter, []).append((arbiter.sim.now, master, False))

    def on_register_write(self, block, register: str, value: int) -> None:
        self.registers.setdefault(block, []).append((block.sim.now, register, value))


class VcdWriter:
    """Collects declarations and value changes; renders a VCD text."""

    def __init__(self, timescale: str = "10 ns"):
        self.timescale = timescale
        # scope -> list of (name, width, identifier)
        self._scopes: Dict[str, List[Tuple[str, int, str]]] = {}
        self._changes: List[Tuple[int, str, int, int]] = []  # (t, id, value, width)
        self._count = 0

    def add_signal(self, scope: str, name: str, width: int = 1) -> str:
        identifier = _identifier(self._count)
        self._count += 1
        self._scopes.setdefault(scope, []).append((name, width, identifier))
        return identifier

    def change(self, time: int, identifier: str, value: int, width: int = 1) -> None:
        if time < 0:
            raise ValueError("negative VCD time")
        self._changes.append((time, identifier, value, width))

    @staticmethod
    def _format(identifier: str, value: int, width: int) -> str:
        if width == 1:
            return "%d%s" % (value & 1, identifier)
        return "b%s %s" % (bin(value)[2:], identifier)

    def dumps(self) -> str:
        lines = [
            "$date repro $end",
            "$version repro BusSyn reproduction $end",
            "$timescale %s $end" % self.timescale,
        ]
        for scope in sorted(self._scopes):
            lines.append("$scope module %s $end" % scope)
            for name, width, identifier in self._scopes[scope]:
                lines.append("$var wire %d %s %s $end" % (width, identifier, name))
            lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        # Conflicting writes to one identifier at the same timestamp collapse
        # to a single change -- the last write wins, matching the register
        # semantics the trace models (two lines for one signal at one time
        # would be ambiguous to viewers).
        latest: Dict[Tuple[int, str], Tuple[int, int]] = {}
        for time, identifier, value, width in self._changes:
            latest[(time, identifier)] = (value, width)
        # Time-zero initial values go in a $dumpvars block (required by many
        # viewers to establish a starting value for every declared signal;
        # signals with no recorded value at t=0 dump as 'x').
        initial: Dict[str, Tuple[int, int]] = {}
        for (time, identifier), value_width in list(latest.items()):
            if time == 0:
                initial[identifier] = value_width
                del latest[(time, identifier)]
        lines.append("#0")
        lines.append("$dumpvars")
        for scope in sorted(self._scopes):
            for name, width, identifier in self._scopes[scope]:
                if identifier in initial:
                    lines.append(self._format(identifier, *initial[identifier]))
                elif width == 1:
                    lines.append("x%s" % identifier)
                else:
                    lines.append("bx %s" % identifier)
        lines.append("$end")
        # Later changes, grouped by time; within a timestamp, changes keep
        # the order of each identifier's final write.
        order: Dict[Tuple[int, str], int] = {}
        for index, (time, identifier, _value, _width) in enumerate(self._changes):
            order[(time, identifier)] = index
        current_time: Optional[int] = None
        for (time, identifier), (value, width) in sorted(
            latest.items(), key=lambda item: (item[0][0], order[item[0]])
        ):
            if time != current_time:
                lines.append("#%d" % time)
                current_time = time
            lines.append(self._format(identifier, value, width))
        return "\n".join(lines) + "\n"


def vcd_from_machine(machine) -> str:
    """Render a machine's collected traces (handshake regs, grants) as VCD.

    Both come from the machine's :class:`GrantTrace` probe; without one the
    dump declares no signals.
    """
    writer = VcdWriter()
    grants = next((p for p in machine._probes if isinstance(p, GrantTrace)), None)
    if grants is None:
        return writer.dumps()
    for name, device in sorted(machine.devices.items()):
        if device.kind != "hsregs":
            continue
        scope = name.lower()
        ids = {
            "DONE_OP": writer.add_signal(scope, "done_op"),
            "DONE_RV": writer.add_signal(scope, "done_rv"),
        }
        # Initial values at time 0, then the recorded edges.
        writer.change(0, ids["DONE_OP"], 0)
        writer.change(0, ids["DONE_RV"], 0)
        for time, register, value in grants.registers.get(device.target, ()):
            writer.change(time, ids[register], value)
    for name, segment in sorted(machine.segments.items()):
        scope = "arb_%s" % name.lower()
        master_ids: Dict[str, str] = {}
        for time, master, granted in grants.edges.get(segment.arbiter, ()):
            if master not in master_ids:
                master_ids[master] = writer.add_signal(scope, "gnt_%s" % master.lower())
                writer.change(0, master_ids[master], 0)
            writer.change(time, master_ids[master], 1 if granted else 0)
    return writer.dumps()
