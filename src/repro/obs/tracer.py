"""Span-based transaction tracer and trace exporters.

The tracer records *transactions*, not signal edges: one span per bus
tenure carrying the request time, the arbitration-grant boundary and the
completion time, plus instantaneous marks for bridge hops, arbiter grants
and FIFO fill levels.  That is the level the paper reasons at (where do
the cycles of Tables II-V go?) and what LiteX-style simulation tooling
exports for humans.

Storage is deliberately primitive -- flat lists of tuples -- so a trace
costs one tuple per tenure.  A machine without a tracer pays nothing: its
models' ``probe`` slots are ``None`` (see :mod:`repro.obs`).

Exporters:

* :func:`write_chrome_trace` -- Chrome ``trace_event`` JSON (the
  ``{"traceEvents": [...]}`` object form), loadable in Perfetto or
  ``chrome://tracing``.  One simulated bus cycle is exported as one
  microsecond of trace time; every bus segment becomes a named thread
  lane, with arbitration and data-tenure phases as nested complete
  events, bridge hops as instants and FIFO fill as counter tracks.
* :func:`write_jsonl` -- one JSON object per line, for ad-hoc analysis
  with ``jq``/pandas.

:func:`validate_chrome_trace` checks the structural contract (well-formed
events, monotonically ordered ``ts``) and is reused by the CI trace-check
step (``python -m repro.obs.validate``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Tracer",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "iter_jsonl_records",
    "write_jsonl",
    "validate_chrome_trace",
]

# Transaction tuple layout (kept flat for append speed):
# (segment, master, start, acquired, end, words, write, memory_cycles)
TransactionTuple = Tuple[str, str, int, int, int, int, bool, int]


class Tracer:
    """Records transaction spans and instantaneous marks in bus cycles."""

    def __init__(self):
        self.transactions: List[TransactionTuple] = []
        # (cycle, bridge name)
        self.hops: List[Tuple[int, str]] = []
        # (cycle, fifo name, op, words, fill-after)
        self.fifo_ops: List[Tuple[int, str, str, int, int]] = []
        # (cycle, lane, name, args) -- generic instantaneous marks; ``lane``
        # names the thread track the event is drawn on.
        self.instants: List[Tuple[int, str, str, Optional[Dict[str, Any]]]] = []

    # -- recording (hot-path entry points) ------------------------------
    def transaction(
        self,
        segment: str,
        master: str,
        start: int,
        acquired: int,
        end: int,
        words: int,
        write: bool,
        memory_cycles: int = 0,
    ) -> None:
        self.transactions.append(
            (segment, master, start, acquired, end, words, write, memory_cycles)
        )

    def hop(self, cycle: int, bridge: str) -> None:
        self.hops.append((cycle, bridge))

    def fifo(self, cycle: int, fifo: str, op: str, words: int, fill: int) -> None:
        self.fifo_ops.append((cycle, fifo, op, words, fill))

    def instant(
        self, cycle: int, lane: str, name: str, args: Optional[Dict[str, Any]] = None
    ) -> None:
        self.instants.append((cycle, lane, name, args))

    def fault(self, cycle: int, site: str, kind: str, outcome: str) -> None:
        """Mark a fault-injection episode on the ``faults`` lane."""
        self.instants.append(
            (cycle, "faults", "%s %s" % (kind, outcome), {"site": site})
        )

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return (
            len(self.transactions)
            + len(self.hops)
            + len(self.fifo_ops)
            + len(self.instants)
        )

    def clear(self) -> None:
        del self.transactions[:]
        del self.hops[:]
        del self.fifo_ops[:]
        del self.instants[:]

    def span_cycle_sums(self) -> Dict[str, Dict[str, int]]:
        """Per-segment ``{"arbitration": ..., "tenure": ..., "busy": ...}``.

        The invariant gated by tests: these sums match the segment's
        :class:`~repro.sim.stats.BusStats` counters exactly
        (``arbitration`` == ``arbitration_cycles``, ``busy`` ==
        ``busy_cycles``).
        """
        sums: Dict[str, Dict[str, int]] = {}
        for segment, _master, start, acquired, end, _w, _wr, _m in self.transactions:
            entry = sums.setdefault(
                segment, {"arbitration": 0, "tenure": 0, "busy": 0, "transactions": 0}
            )
            entry["arbitration"] += acquired - start
            entry["tenure"] += end - acquired
            entry["busy"] += end - start
            entry["transactions"] += 1
        return sums


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------


def _lane_ids(tracer: Tracer) -> Dict[str, int]:
    """Stable thread-id assignment: name-sorted lanes, tid starting at 1."""
    lanes = set()
    for segment, *_rest in tracer.transactions:
        lanes.add(segment)
    lanes.update(bridge for _c, bridge in tracer.hops)
    lanes.update(fifo for _c, fifo, *_rest in tracer.fifo_ops)
    lanes.update(lane for _c, lane, _n, _a in tracer.instants)
    return {name: index for index, name in enumerate(sorted(lanes), start=1)}


def chrome_trace_events(
    tracer: Tracer, pid: int = 1, registry: Any = None
) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list: metadata first, then ts-sorted events.

    One bus cycle maps to one microsecond of trace time (``ts``/``dur``
    are in microseconds per the trace_event spec); Perfetto's timeline
    therefore reads directly in cycles.

    With a :class:`~repro.obs.metrics.MetricsRegistry`, every
    :class:`~repro.obs.metrics.TimeSeries` metric (per-segment occupancy)
    is additionally exported as a Perfetto counter track: one ``"C"``
    event per window with the window's busy-cycle count, drawn on tid 0
    alongside the span lanes.
    """
    lanes = _lane_ids(tracer)
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "bus-simulator"},
        }
    ]
    for lane_name, tid in sorted(lanes.items(), key=lambda item: item[1]):
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": lane_name},
            }
        )
    timed: List[Dict[str, Any]] = []
    for segment, master, start, acquired, end, words, write, memory in tracer.transactions:
        tid = lanes[segment]
        op = "W" if write else "R"
        common_args = {
            "master": master,
            "segment": segment,
            "words": words,
            "op": op,
            "memory_cycles": memory,
        }
        timed.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "cat": "arbitration",
                "name": "arb %s %s" % (master, op),
                "ts": start,
                "dur": acquired - start,
                "args": common_args,
            }
        )
        timed.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "cat": "tenure",
                "name": "%s %s %dw" % (master, op, words),
                "ts": acquired,
                "dur": end - acquired,
                "args": common_args,
            }
        )
    for cycle, bridge in tracer.hops:
        timed.append(
            {
                "ph": "i",
                "pid": pid,
                "tid": lanes[bridge],
                "cat": "bridge",
                "name": "hop %s" % bridge,
                "ts": cycle,
                "s": "t",
            }
        )
    for cycle, fifo, op, words, fill in tracer.fifo_ops:
        timed.append(
            {
                "ph": "C",
                "pid": pid,
                "tid": lanes[fifo],
                "cat": "fifo",
                "name": "fill %s" % fifo,
                "ts": cycle,
                "args": {"fill": fill, "op": op, "words": words},
            }
        )
    for cycle, lane, name, args in tracer.instants:
        event: Dict[str, Any] = {
            "ph": "i",
            "pid": pid,
            "tid": lanes[lane],
            "cat": "mark",
            "name": name,
            "ts": cycle,
            "s": "t",
        }
        if args:
            event["args"] = args
        timed.append(event)
    if registry is not None:
        for name in registry.names():
            metric = registry.get(name)
            if getattr(metric, "kind", None) != "series":
                continue
            for window_start, busy, _fraction in metric.series():
                timed.append(
                    {
                        "ph": "C",
                        "pid": pid,
                        "tid": 0,
                        "cat": "metrics",
                        "name": name,
                        "ts": window_start,
                        "args": {"busy_cycles": busy},
                    }
                )
    timed.sort(key=lambda event: event["ts"])
    events.extend(timed)
    return events


def to_chrome_trace(
    tracer: Tracer, pid: int = 1, registry: Any = None
) -> Dict[str, Any]:
    """The full JSON-object-format trace document."""
    return {
        "traceEvents": chrome_trace_events(tracer, pid=pid, registry=registry),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.tracer",
            "time_unit": "1 trace microsecond == 1 bus cycle",
        },
    }


def write_chrome_trace(
    tracer: Tracer, path: str, pid: int = 1, registry: Any = None
) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(tracer, pid=pid, registry=registry), handle)
        handle.write("\n")


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------


def iter_jsonl_records(tracer: Tracer):
    """Yield one flat dict per recorded trace item, in time order."""
    records: List[Dict[str, Any]] = []
    for segment, master, start, acquired, end, words, write, memory in tracer.transactions:
        records.append(
            {
                "type": "transaction",
                "segment": segment,
                "master": master,
                "start": start,
                "acquired": acquired,
                "end": end,
                "words": words,
                "write": write,
                "memory_cycles": memory,
            }
        )
    for cycle, bridge in tracer.hops:
        records.append({"type": "bridge_hop", "cycle": cycle, "bridge": bridge})
    for cycle, fifo, op, words, fill in tracer.fifo_ops:
        records.append(
            {
                "type": "fifo",
                "cycle": cycle,
                "fifo": fifo,
                "op": op,
                "words": words,
                "fill": fill,
            }
        )
    for cycle, lane, name, args in tracer.instants:
        record = {"type": "instant", "cycle": cycle, "lane": lane, "name": name}
        if args:
            record["args"] = args
        records.append(record)
    records.sort(key=lambda record: record.get("start", record.get("cycle", 0)))
    return iter(records)


def write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        for record in iter_jsonl_records(tracer):
            handle.write(json.dumps(record))
            handle.write("\n")


# ----------------------------------------------------------------------
# Validation (shared by tests and the CI trace-check step)
# ----------------------------------------------------------------------

_VALID_PHASES = {"M", "X", "i", "C", "B", "E", "b", "e", "n", "s", "t", "f"}


def validate_chrome_trace(document: Any) -> List[str]:
    """Structural checks on a trace document; returns failure strings.

    Enforced contract: object form with a ``traceEvents`` list, every
    event carries ``ph``/``name``/``pid``/``tid``, timed events carry a
    numeric non-negative ``ts`` in monotonically non-decreasing order,
    and ``X`` events carry a non-negative ``dur``.
    """
    failures: List[str] = []
    if not isinstance(document, dict) or "traceEvents" not in document:
        return ["trace is not an object with a traceEvents list"]
    events = document["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    last_ts: Optional[float] = None
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            failures.append("event %d is not an object" % index)
            continue
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                failures.append("event %d missing %r" % (index, key))
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            failures.append("event %d has unknown phase %r" % (index, phase))
        if phase == "M":
            if "ts" in event:
                failures.append("metadata event %d carries a ts" % index)
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            failures.append("event %d has bad ts %r" % (index, ts))
            continue
        if last_ts is not None and ts < last_ts:
            failures.append(
                "event %d ts %s not monotonically ordered (previous %s)"
                % (index, ts, last_ts)
            )
        last_ts = ts
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                failures.append("event %d has bad dur %r" % (index, dur))
        elif phase == "C":
            # Counter tracks (FIFO fill, occupancy): every sample must be
            # a finite non-negative number or Perfetto draws garbage.
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                failures.append("counter event %d has no args" % index)
                continue
            for key, value in args.items():
                if isinstance(value, str):
                    continue  # annotation fields (e.g. fifo op) are fine
                if not isinstance(value, (int, float)) or value < 0:
                    failures.append(
                        "counter event %d (%r) has non-numeric or negative "
                        "sample %s=%r" % (index, event.get("name"), key, value)
                    )
    return failures
