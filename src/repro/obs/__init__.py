"""Observability: transaction tracing, metrics, and run telemetry.

Three pillars (see docs/observability.md for the user-facing guide):

* :mod:`repro.obs.tracer` -- span-based transaction tracer recording each
  bus transaction's lifecycle (request -> arbitration grant -> data tenure
  -> completion, plus bridge hops and FIFO fill levels), with exporters to
  Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``) and JSONL.
* :mod:`repro.obs.metrics` -- a metrics registry of counters,
  fixed-bucket cycle histograms and occupancy time series, which holds
  each segment's arbitration-wait distribution and occupancy over time.
* :mod:`repro.obs.report` -- structured :class:`RunReport` telemetry for
  every experiment case and benchmark run, with deterministic aggregation
  across parallel workers.

Every consumer reaches the fabric through one interface, :class:`Probe`:
``machine.attach_probe(probe)`` points the ``probe`` slot of the machine
and of every arbiter, bus segment, bridge and FIFO at it, and the fault
injector reports its episodes on the machine's slot.
:class:`Observability` is one such probe; the protocol monitors
(:mod:`repro.verify.monitors`) and the VCD grant trace
(:mod:`repro.sim.vcd`) are others.  The per-segment totals every tenure
adds to its :class:`~repro.sim.stats.BusStats` need no probe.

The cost contract: observability is **free when off**.  A model whose
``probe`` slot is ``None`` fires nothing; the hot paths pay one ``is
None`` check per hook site, and nothing is allocated.  Attaching an
:class:`Observability` instance (``machine.attach_observability(obs)``)
records spans and histogram samples through the same hooks.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .metrics import (
    DEFAULT_CYCLE_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from .report import (
    RunReport,
    aggregate_run_reports,
    build_run_report,
    drain_recorded,
    record_run,
)
from .tracer import (
    Tracer,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Probe",
    "FanoutProbe",
    "Observability",
    "Tracer",
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "Counter",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
    "DEFAULT_CYCLE_BUCKETS",
    "RunReport",
    "build_run_report",
    "aggregate_run_reports",
    "record_run",
    "drain_recorded",
]


class Probe:
    """A fabric observer: the hooks the bus models fire, all no-ops here.

    Subclasses override the hooks they need.  Probes observe only -- they
    never yield and never touch simulation state -- so a probed run is
    bit-identical to a bare one.
    """

    def counters(self):
        """The counters this probe keeps, for poll fast-forward.

        ``None`` (the default) means the probe needs every hook call: the
        polls of a machine it observes never jump.  A probe whose hooks,
        over a period of parked polls, only add to counters returns
        ``(cells, key)`` instead, and the compiled backend may skip whole
        periods of hook calls (docs/performance.md, "Poll fast-forward"):

        * ``cells`` lists the counters as ``(owner, name)``: the int
          attribute ``name`` of ``owner``, or the entry ``name`` of a dict
          ``owner`` (a missing entry reads 0).  A jump adds as many
          periods' changes to each.  A cell may carry a third element, the
          ``(lo, hi)`` ranges of values in which its owner acts on the
          counter; a jump stops before the counter reaches one.
        * ``key`` is the rest of the probe's state that can change, as a
          hashable value: a period over which it changes never recurs, so
          it is never skipped.

        Asked again each time the run loop looks for a period.
        """
        return None

    def on_request(self, arbiter, master: str) -> None:
        """``master``'s request was queued behind the current owner."""

    def on_grant(self, arbiter, master: str, waited: Optional[int]) -> None:
        """``master`` now owns ``arbiter``; ``waited`` is the queueing delay
        of a dispatched grant, None for an immediate one."""

    def on_release(self, arbiter, master: str) -> None:
        """``master`` releases ``arbiter`` (it still owns it here)."""

    def on_cancel(self, arbiter, master: str) -> None:
        """``master``'s queued request was withdrawn before its grant."""

    def on_transfer_open(self, segment, master: str) -> None:
        """``master`` acquired ``segment`` for one transfer."""

    def on_transfer_close(self, segment, master: str) -> None:
        """``master``'s transfer released ``segment``, on every exit path."""

    def on_tenure(
        self,
        segment,
        master: str,
        start: int,
        acquired: int,
        end: int,
        words: int,
        write: bool,
        memory_cycles: int,
    ) -> None:
        """One completed tenure; the cycles are those just added to the
        segment's :class:`~repro.sim.stats.BusStats`."""

    def on_bridge_cross(self, bridge, master: str) -> None:
        """``master``'s transfer crosses ``bridge``."""

    def on_fifo_push(self, fifo, count: int) -> None:
        """``count`` words entered ``fifo``."""

    def on_fifo_pop(self, fifo, count: int) -> None:
        """``count`` words left ``fifo``."""

    def on_register_write(self, block, register: str, value: int) -> None:
        """``register`` of the handshake register ``block`` changed to
        ``value``."""

    def on_fault(
        self, cycle: int, site: str, kind: str, event: str, latency: Optional[int]
    ) -> None:
        """A fault episode of ``kind`` at ``site`` moved on at ``cycle``.

        ``event`` is ``inject`` when the fault fires, then the episode's
        outcome (``recovered``, ``residual`` or ``accounted``) with its
        ``latency`` in cycles; ``latency`` is None but on an outcome.  A
        guarded arbitration that times out reports kind ``bus_timeout``,
        event ``detect``, with the segment as its site.
        """


class FanoutProbe(Probe):
    """Forwards every hook to several probes, in attach order."""

    def __init__(self, probes):
        self.probes = tuple(probes)


def _forward(hook: str):
    def forward(self, *args) -> None:
        for probe in self.probes:
            getattr(probe, hook)(*args)

    forward.__name__ = hook
    return forward


for _hook in [name for name in vars(Probe) if name.startswith("on_")]:
    setattr(FanoutProbe, _hook, _forward(_hook))


class Observability(Probe):
    """A tracer plus a metrics registry, attached to a machine as one unit.

    Besides the spans, it keeps each watched segment's arbitration-wait
    histogram (``bus.<segment>.arb_wait_cycles``) and occupancy series
    (``bus.<segment>.occupancy``, 1,024-cycle windows) in the registry,
    and the fault episodes' ``faults.*`` counters and recovery latencies.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        # segment name -> (arbitration-wait histogram, occupancy series)
        self.segment_detail: Dict[str, Tuple[Histogram, TimeSeries]] = {}

    def watch(self, segment_names) -> None:
        """Create the named segments' histogram and occupancy series, so a
        segment that never moves a word reports them too."""
        registry = self.registry
        for name in segment_names:
            self.segment_detail[name] = (
                registry.histogram("bus.%s.arb_wait_cycles" % name),
                registry.time_series("bus.%s.occupancy" % name),
            )

    def on_grant(self, arbiter, master: str, waited: Optional[int]) -> None:
        if waited is not None:
            # Queued grants only -- an immediate grant waits zero cycles and
            # already appears as the transaction span's arbitration phase.
            self.tracer.instant(
                arbiter.sim.now,
                arbiter.name,
                "grant %s" % master,
                {"waited": waited, "still_pending": arbiter.pending_count},
            )

    def on_tenure(
        self,
        segment,
        master: str,
        start: int,
        acquired: int,
        end: int,
        words: int,
        write: bool,
        memory_cycles: int,
    ) -> None:
        """Record one completed bus tenure on ``segment``.

        ``start``/``acquired``/``end`` mirror exactly what the call site
        added to :class:`~repro.sim.stats.BusStats`, so span sums and the
        counters agree cycle-for-cycle (tested in test_observability.py).
        """
        self.tracer.transaction(
            segment.name, master, start, acquired, end, words, write, memory_cycles
        )
        detail = self.segment_detail.get(segment.name)
        if detail is not None:
            histogram, occupancy = detail
            histogram.observe(acquired - start)
            occupancy.add(acquired, end)

    def on_bridge_cross(self, bridge, master: str) -> None:
        self.tracer.hop(bridge.sim.now, bridge.name)

    def on_fifo_push(self, fifo, count: int) -> None:
        self.tracer.fifo(fifo.sim.now, fifo.name, "push", count, fifo.count)

    def on_fifo_pop(self, fifo, count: int) -> None:
        self.tracer.fifo(fifo.sim.now, fifo.name, "pop", count, fifo.count)

    def on_fault(
        self, cycle: int, site: str, kind: str, event: str, latency: Optional[int]
    ) -> None:
        self.tracer.fault(cycle, site, kind, event)
        registry = self.registry
        if event == "inject":
            registry.counter("faults.injected").inc()
            registry.counter("faults.injected.%s" % kind).inc()
        elif latency is not None:
            registry.counter("faults.%s" % event).inc()
            if event == "recovered":
                registry.histogram("faults.recovery_latency").observe(latency)
