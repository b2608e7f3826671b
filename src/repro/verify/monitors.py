"""Runtime protocol assertion monitors for the simulated bus fabric.

The high-value bus-protocol invariants are small and checkable (the AMBA
formal-specification literature distills essentially the same list):

* **grant one-hot** -- at most one master owns a segment's arbiter at any
  cycle; a second grant while the bus is held is a double grant;
* **REQ held until GNT** -- a queued grant must consume a previously
  asserted request; a request still pending at end of run was starved;
* **FIFO conservation and bounds** -- fill = pushes - pops at all times,
  never below zero (underflow) or above the depth (overflow);
* **bridge forwarding conservation** -- every bridge crossing happens with
  the bridge enabled, with the crossing master holding the grant on both
  attached segments, and every crossing is accounted by a monitored
  transfer;
* **transaction retirement** -- every transfer opened on a segment is
  closed (bus released) by end of run; withdrawals via the fault layer's
  ``Arbiter.cancel`` are accounted, not lost.

A :class:`ProtocolMonitor` is a :class:`repro.obs.Probe`:
:func:`attach_monitors` seeds its shadow state and attaches it with
``Machine.attach_probe``, so an unmonitored run never pays for the hooks.
Monitors only *observe* -- they never yield, never touch simulation
state -- so a monitored run is bit-identical to an unmonitored one.

With ``fail_fast=True`` (the default) a violation raises
:class:`ProtocolViolationError` carrying the offending cycle; with
``fail_fast=False`` violations accumulate as :class:`Finding` objects and
:meth:`ProtocolMonitor.finalize` returns them together with end-of-run
checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..obs import Probe
from .findings import Finding

__all__ = ["ProtocolViolationError", "ProtocolMonitor", "attach_monitors"]

# What the hooks count (ProtocolMonitor.counters).
_COUNTS = (
    "grants_observed",
    "requests_observed",
    "cancels_observed",
    "transfers_opened",
    "transfers_closed",
)


class ProtocolViolationError(AssertionError):
    """A bus-protocol invariant failed during simulation."""

    def __init__(self, finding: Finding):
        super().__init__(str(finding))
        self.finding = finding


class ProtocolMonitor(Probe):
    """Assertion checker probing arbiters, segments, bridges and FIFOs.

    The monitor keeps its *own* shadow of the arbitration state (owner per
    arbiter, pending request counts, FIFO fill), so a model whose internal
    bookkeeping is corrupted -- e.g. an arbiter that overwrites ``owner``
    on a double grant -- is still caught: the shadow state disagrees with
    the sequence of hook events.
    """

    def __init__(self, fail_fast: bool = True):
        self.fail_fast = fail_fast
        self.findings: List[Finding] = []
        # Shadow arbitration state, keyed by model object identity.
        self._owner: Dict[object, Optional[str]] = {}
        self._pending: Dict[object, Dict[str, int]] = {}
        self._fifo_fill: Dict[object, int] = {}
        # (segment name, master) -> currently open transfer count.
        self._open: Dict[Tuple[str, str], int] = {}
        self._bridge_base: Dict[object, int] = {}
        self._bridge_seen: Dict[object, int] = {}
        self.grants_observed = 0
        self.requests_observed = 0
        self.cancels_observed = 0
        self.transfers_opened = 0
        self.transfers_closed = 0

    # -- shadow state ----------------------------------------------------
    # Seeded from the hardware when the monitor attaches, so a monitor
    # attached mid-run starts from the models' current state.  The hooks
    # reach the monitor through the models' ``probe`` slots.
    def watch_arbiter(self, arbiter) -> None:
        self._owner[arbiter] = arbiter.owner
        self._pending.setdefault(arbiter, {})

    def watch_fifo(self, fifo) -> None:
        self._fifo_fill[fifo] = fifo.count

    def watch_bridge(self, bridge) -> None:
        self._bridge_base[bridge] = bridge.crossings
        self._bridge_seen[bridge] = 0

    # -- poll fast-forward -----------------------------------------------
    def counters(self):
        """The observation counts and per-bridge crossings as counters; the
        findings count as the key, so a period that adds a finding never
        recurs and no check is skipped.  A period that recurs without one
        leaves the shadow state where it began: every grant released,
        every transfer closed, every REQ answered."""
        cells = [(self, name) for name in _COUNTS]
        cells += [(self._bridge_seen, bridge) for bridge in self._bridge_seen]
        return cells, len(self.findings)

    # -- violation plumbing ----------------------------------------------
    def _violation(self, category: str, where: str, text: str, cycle: int) -> None:
        finding = Finding("error", category, where, text, cycle=cycle)
        self.findings.append(finding)
        if self.fail_fast:
            raise ProtocolViolationError(finding)

    # -- arbiter hooks ---------------------------------------------------
    def on_request(self, arbiter, master: str) -> None:
        self.requests_observed += 1
        pending = self._pending.setdefault(arbiter, {})
        pending[master] = pending.get(master, 0) + 1

    def on_grant(self, arbiter, master: str, waited: Optional[int]) -> None:
        cycle = arbiter.sim.now
        owner = self._owner.get(arbiter)
        if owner is not None:
            self._violation(
                "grant-onehot",
                arbiter.name,
                "granted %r while %r holds the bus (double grant)"
                % (master, owner),
                cycle,
            )
        self._owner[arbiter] = master
        self.grants_observed += 1
        pending = self._pending.setdefault(arbiter, {})
        held = pending.get(master, 0)
        if waited is not None:
            # A dispatched grant must answer a REQ that was asserted and
            # held; granting a master with no outstanding request means a
            # request was dropped or fabricated somewhere.
            if held <= 0:
                self._violation(
                    "req-gnt",
                    arbiter.name,
                    "queued grant to %r without a held REQ" % master,
                    cycle,
                )
            else:
                pending[master] = held - 1
        elif held > 0:
            # Immediate grant with a stale request still queued counts as
            # answering it (REQ and GNT in the same cycle).
            pending[master] = held - 1

    def on_release(self, arbiter, master: str) -> None:
        cycle = arbiter.sim.now
        owner = self._owner.get(arbiter)
        if owner != master:
            self._violation(
                "grant-onehot",
                arbiter.name,
                "released by %r but the monitor observed owner %r"
                % (master, owner),
                cycle,
            )
        self._owner[arbiter] = None

    def on_cancel(self, arbiter, master: str) -> None:
        cycle = arbiter.sim.now
        self.cancels_observed += 1
        pending = self._pending.setdefault(arbiter, {})
        held = pending.get(master, 0)
        if held <= 0:
            self._violation(
                "req-gnt",
                arbiter.name,
                "cancelled a REQ from %r that was never asserted" % master,
                cycle,
            )
        else:
            # Withdrawn by the fault layer's timeout escalation: the
            # request is *accounted*, not silently lost.
            pending[master] = held - 1

    # -- FIFO hooks ------------------------------------------------------
    def on_fifo_push(self, fifo, count: int) -> None:
        cycle = fifo.sim.now
        fill = self._fifo_fill.get(fifo)
        if fill is None:  # attached mid-run: seed from pre-push state
            fill = fifo.count - count
        fill += count
        self._fifo_fill[fifo] = fill
        if fill > fifo.depth_words:
            self._violation(
                "fifo",
                fifo.name,
                "overflow: fill %d exceeds depth %d" % (fill, fifo.depth_words),
                cycle,
            )
        elif fill != fifo.count:
            self._violation(
                "fifo",
                fifo.name,
                "conservation broken: monitor fill %d != hardware count %d"
                % (fill, fifo.count),
                cycle,
            )

    def on_fifo_pop(self, fifo, count: int) -> None:
        cycle = fifo.sim.now
        fill = self._fifo_fill.get(fifo)
        if fill is None:
            fill = fifo.count + count
        fill -= count
        self._fifo_fill[fifo] = fill
        if fill < 0:
            self._violation(
                "fifo",
                fifo.name,
                "underflow: fill went to %d" % fill,
                cycle,
            )
        elif fill != fifo.count:
            self._violation(
                "fifo",
                fifo.name,
                "conservation broken: monitor fill %d != hardware count %d"
                % (fill, fifo.count),
                cycle,
            )

    # -- segment / bridge hooks ------------------------------------------
    def on_transfer_open(self, segment, master: str) -> None:
        cycle = segment.sim.now
        if self._owner.get(segment.arbiter) != master:
            self._violation(
                "retire",
                segment.name,
                "transfer by %r opened without holding the grant" % master,
                cycle,
            )
        key = (segment.name, master)
        self._open[key] = self._open.get(key, 0) + 1
        self.transfers_opened += 1

    def on_transfer_close(self, segment, master: str) -> None:
        cycle = segment.sim.now
        key = (segment.name, master)
        held = self._open.get(key, 0)
        if held <= 0:
            self._violation(
                "retire",
                segment.name,
                "transfer by %r closed but was never opened" % master,
                cycle,
            )
        else:
            self._open[key] = held - 1
        self.transfers_closed += 1

    def on_bridge_cross(self, bridge, master: str) -> None:
        cycle = bridge.sim.now
        self._bridge_seen[bridge] = self._bridge_seen.get(bridge, 0) + 1
        if bridge not in self._bridge_base:
            self._bridge_base[bridge] = bridge.crossings - 1
        if not bridge.enabled:
            self._violation(
                "bridge",
                bridge.name,
                "crossing while the bridge is disabled",
                cycle,
            )
        # Forwarding conservation: the crossing master must hold the grant
        # on both attached segments while data moves.
        for side in (bridge.side_a, bridge.side_b):
            if self._owner.get(side.arbiter) != master:
                self._violation(
                    "bridge",
                    bridge.name,
                    "crossing master %r does not hold segment %s"
                    % (master, side.name),
                    cycle,
                )

    # -- end-of-run checks -----------------------------------------------
    def finalize(self, cycle: Optional[int] = None) -> List[Finding]:
        """End-of-run accounting; returns *all* findings (runtime + final)."""
        for (segment_name, master), count in sorted(self._open.items()):
            if count > 0:
                self.findings.append(
                    Finding(
                        "error",
                        "retire",
                        segment_name,
                        "%d transfer(s) by %r issued but never retired"
                        % (count, master),
                        cycle=cycle,
                    )
                )
        for arbiter, owner in self._owner.items():
            if owner is not None:
                self.findings.append(
                    Finding(
                        "error",
                        "grant-onehot",
                        arbiter.name,
                        "still owned by %r at end of run" % owner,
                        cycle=cycle,
                    )
                )
        for arbiter, pending in self._pending.items():
            for master, count in sorted(pending.items()):
                if count > 0:
                    self.findings.append(
                        Finding(
                            "error",
                            "req-gnt",
                            arbiter.name,
                            "%d REQ(s) from %r still held at end of run "
                            "(never granted, never withdrawn)" % (count, master),
                            cycle=cycle,
                        )
                    )
        for bridge, seen in self._bridge_seen.items():
            actual = bridge.crossings - self._bridge_base.get(bridge, 0)
            if actual != seen:
                self.findings.append(
                    Finding(
                        "error",
                        "bridge",
                        bridge.name,
                        "forwarding conservation broken: hardware counted %d "
                        "crossing(s), monitor observed %d" % (actual, seen),
                        cycle=cycle,
                    )
                )
        return self.findings


def attach_monitors(machine, fail_fast: bool = True) -> ProtocolMonitor:
    """Attach one :class:`ProtocolMonitor` to every model of ``machine``."""
    monitor = ProtocolMonitor(fail_fast=fail_fast)
    for segment in machine.segments.values():
        monitor.watch_arbiter(segment.arbiter)
    for bridge in machine.bridges:
        monitor.watch_bridge(bridge)
    for block in machine.fifo_blocks.values():
        monitor.watch_fifo(block.up)
        monitor.watch_fifo(block.down)
    machine.attach_probe(monitor)
    return monitor
