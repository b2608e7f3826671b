"""Counter plane: preallocated slot-array counters for the fabric hot path.

The plane exists to answer one question the tracer and metrics registry
cannot: *how much did each bus segment do* on the compiled backend's
specialized fast path, **without** despecializing it.  Attaching an
:class:`~repro.obs.Observability`, a protocol monitor or a fault injector
forces :meth:`Machine._despecialize` because those hooks need the generic
instrumented paths; a :class:`CounterPlane` instead is bound into the
specialized per-pair closures themselves (those of
:mod:`repro.sim.compiled.specializer` and the fused poll loops of
:mod:`repro.sim.fabric` capture the slot list and the segment's base index,
and increment only when a plane is bound), so a counted run keeps the
specialized fast path.

Layout: one flat ``list`` of ints (``slots``), three slots per bus segment
in name-sorted order -- transactions completed, grants observed at tenure
end, and arbitration-wait cycles.  A segment's base index is a closure
variable of the specialized functions and a precomputed
``segment.counter_base`` attribute on the generic paths, so every increment
is ``slots[i] += n`` with no dict lookup and no allocation.  The invariants
gated by ``tests/test_counters.py``:

* ``transactions`` equals ``BusStats.transactions`` per segment,
* ``wait_cycles`` equals ``BusStats.arbitration_cycles`` per segment,
* ``grants`` equals the segment arbiter's ``grants`` in fault-free runs
  (one grant per tenure; watchdog redelivery under fault injection can
  legitimately re-grant, so chaos asserts cross-backend parity instead),

on both scheduler backends, and attaching a plane never changes a
simulation's cycle count (increments are observational only).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["COUNTER_KINDS", "CounterPlane"]

#: Per-segment counter kinds, in slot order.  ``grants`` counts tenures
#: retired (== arbiter grants in fault-free runs); ``wait_cycles`` is the
#: summed request->grant arbitration wait.
COUNTER_KINDS: Tuple[str, ...] = ("transactions", "grants", "wait_cycles")


class CounterPlane:
    """A flat slot array of per-segment integer counters.

    Unbound planes hold no storage; :meth:`bind` (called by
    ``Machine.attach_counters``) allocates ``len(COUNTER_KINDS)`` slots per
    segment in name-sorted order and points every segment's
    ``counters``/``counter_base`` attributes at the shared list.  A plane
    binds to one machine at a time; re-binding to the same machine is a
    no-op so hook attach/despecialize cycles keep accumulating into the
    same slots.
    """

    __slots__ = ("slots", "segment_order", "_base", "_machine_name")

    def __init__(self):
        self.slots: List[int] = []
        self.segment_order: List[str] = []
        self._base: Dict[str, int] = {}
        self._machine_name: Optional[str] = None

    # -- binding ---------------------------------------------------------
    def bind(self, machine) -> None:
        """Allocate slots for ``machine`` and wire its segments to them."""
        if self._machine_name is not None:
            if self._machine_name != machine.name or self.segment_order != sorted(
                machine.segments
            ):
                raise ValueError(
                    "counter plane already bound to machine %r; build one "
                    "plane per machine" % self._machine_name
                )
        else:
            self._machine_name = machine.name
            self.segment_order = sorted(machine.segments)
            self.slots = [0] * (len(COUNTER_KINDS) * len(self.segment_order))
            self._base = {
                name: index * len(COUNTER_KINDS)
                for index, name in enumerate(self.segment_order)
            }
        slots = self.slots
        for name, segment in machine.segments.items():
            segment.counters = slots
            segment.counter_base = self._base[name]

    @property
    def bound(self) -> bool:
        return self._machine_name is not None

    # -- lookup ----------------------------------------------------------
    def base_of(self, segment_name: str) -> int:
        """Slot index of ``segment_name``'s first counter."""
        return self._base[segment_name]

    def index_of(self, segment_name: str, kind: str) -> int:
        return self._base[segment_name] + COUNTER_KINDS.index(kind)

    def value(self, segment_name: str, kind: str) -> int:
        return self.slots[self.index_of(segment_name, kind)]

    # -- export ----------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, int]]:
        """``{segment: {kind: value}}`` in name-sorted segment order."""
        width = len(COUNTER_KINDS)
        return {
            name: {
                kind: self.slots[self._base[name] + offset]
                for offset, kind in enumerate(COUNTER_KINDS)
            }
            for name in self.segment_order
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kinds": list(COUNTER_KINDS),
            "segments": self.totals(),
        }

    def check_against_stats(self, machine) -> List[str]:
        """Consistency failures vs the machine's :class:`BusStats` counters.

        ``transactions`` and ``wait_cycles`` must match the stats exactly on
        every backend, specialized or not -- the cross-backend parity check
        behind the compiled backend's zero-despecialization claim.
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
