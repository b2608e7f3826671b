"""Counter plane: per-segment tenure counters, read from :class:`BusStats`.

The plane answers *how much did each bus segment do* since it was
attached, on any backend, without a hook on any tenure, so a counted
machine keeps the fabric's inline tenures and poll fast-forward.  Every
tenure already adds one transaction and its arbitration wait to its
segment's :class:`~repro.sim.stats.BusStats` -- in
``Machine._occupy_path``, in the inline tenures of
``Machine.miss_traffic`` and ``Machine.poll`` and in
``BusSegment.occupy`` alike -- so the plane is a view of those counters: :meth:`CounterPlane.bind` records each
segment's ``transactions`` and ``arbitration_cycles``, and every read
reports the change since then.  A plane attached mid-run therefore counts
only the tenures after it.

Per segment, in name-sorted order:

* ``transactions`` -- tenures completed;
* ``grants`` -- tenures retired, one per completed tenure; it equals the
  segment arbiter's ``grants`` in fault-free runs (watchdog redelivery
  under fault injection can legitimately re-grant, so chaos asserts
  cross-backend parity instead);
* ``wait_cycles`` -- the summed request->grant arbitration wait.

Attaching a plane never changes a simulation's cycle count: it reads, it
never writes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["COUNTER_KINDS", "CounterPlane"]

#: Per-segment counter kinds, in report order.
COUNTER_KINDS: Tuple[str, ...] = ("transactions", "grants", "wait_cycles")


class CounterPlane:
    """Per-segment counters since :meth:`bind`, as a view of ``BusStats``.

    Unbound planes report nothing.  A plane binds to one machine; binding
    it to the same machine again is a no-op (it keeps counting from its
    first bind), and binding it to another machine raises.
    """

    __slots__ = ("segment_order", "_machine", "_start")

    def __init__(self):
        self.segment_order: List[str] = []
        self._machine = None
        # segment name -> (segment, transactions, arbitration_cycles) at bind
        self._start: Dict[str, Tuple[Any, int, int]] = {}

    # -- binding ---------------------------------------------------------
    def bind(self, machine) -> None:
        """Start counting ``machine``'s tenures from now."""
        if self._machine is not None:
            if self._machine is not machine:
                raise ValueError(
                    "counter plane already bound to machine %r; build one "
                    "plane per machine" % self._machine.name
                )
            return
        self._machine = machine
        self.segment_order = sorted(machine.segments)
        self._start = {
            name: (segment, segment.stats.transactions, segment.stats.arbitration_cycles)
            for name, segment in machine.segments.items()
        }

    @property
    def bound(self) -> bool:
        return self._machine is not None

    # -- lookup ----------------------------------------------------------
    def _counts(self, segment_name: str) -> Dict[str, int]:
        segment, transactions, wait_cycles = self._start[segment_name]
        stats = segment.stats
        done = stats.transactions - transactions
        return {
            "transactions": done,
            "grants": done,
            "wait_cycles": stats.arbitration_cycles - wait_cycles,
        }

    def value(self, segment_name: str, kind: str) -> int:
        return self._counts(segment_name)[kind]

    # -- export ----------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, int]]:
        """``{segment: {kind: value}}`` in name-sorted segment order."""
        return {name: self._counts(name) for name in self.segment_order}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kinds": list(COUNTER_KINDS),
            "segments": self.totals(),
        }

    def check_against_stats(self, machine) -> List[str]:
        """Consistency failures vs the machine's :class:`BusStats` counters.

        ``transactions`` and ``wait_cycles`` must equal the stats' totals
        exactly, which holds when the plane was bound before the machine's
        first tenure; a plane bound after traffic is flagged.
        """
        failures: List[str] = []
        for name in self.segment_order:
            segment = machine.segments.get(name)
            if segment is None:
                failures.append("segment %r missing from machine" % name)
                continue
            stats = segment.stats
            got_txn = self.value(name, "transactions")
            if got_txn != stats.transactions:
                failures.append(
                    "%s: counter transactions %d != BusStats %d"
                    % (name, got_txn, stats.transactions)
                )
            got_wait = self.value(name, "wait_cycles")
            if got_wait != stats.arbitration_cycles:
                failures.append(
                    "%s: counter wait_cycles %d != BusStats %d"
                    % (name, got_wait, stats.arbitration_cycles)
                )
        return failures
