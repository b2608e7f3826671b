"""Observability: transaction tracing, metrics, and run telemetry.

Three pillars (see docs/observability.md for the user-facing guide):

* :mod:`repro.obs.tracer` -- span-based transaction tracer recording each
  bus transaction's lifecycle (request -> arbitration grant -> data tenure
  -> completion, plus bridge hops and FIFO fill levels), with exporters to
  Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``) and JSONL.
* :mod:`repro.obs.metrics` -- a metrics registry of counters, gauges,
  fixed-bucket cycle histograms and occupancy time series that backs the
  per-segment :class:`repro.sim.stats.BusStats` detail.
* :mod:`repro.obs.report` -- structured :class:`RunReport` telemetry for
  every experiment case and benchmark run, with deterministic aggregation
  across parallel workers.

Every consumer reaches the fabric through one interface, :class:`Probe`:
``machine.attach_probe(probe)`` points the ``probe`` slot of every
arbiter, bus segment, bridge and FIFO at it.  :class:`Observability` is
one such probe; the protocol monitors (:mod:`repro.verify.monitors`) and
the VCD grant trace (:mod:`repro.sim.vcd`) are others.

The cost contract: observability is **free when off**.  A model whose
``probe`` slot is ``None`` fires nothing; the hot paths pay one ``is
None`` check per hook site, and nothing is allocated.  Attaching an
:class:`Observability` instance (``machine.attach_observability(obs)``)
records spans and histogram samples through the same hooks.
"""

from __future__ import annotations

from typing import Optional

from .counters import COUNTER_KINDS, CounterPlane
from .metrics import (
    DEFAULT_CYCLE_BUCKETS,
    Counter,
    Gauge,
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
    NULL_TRACER,
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
    "CounterPlane",
    "COUNTER_KINDS",
    "Tracer",
    "NULL_TRACER",
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "Counter",
    "Gauge",
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

    ``tracing=False`` keeps the metrics registry but records no spans
    (``NULL_TRACER``); ``metrics=False`` keeps spans but attaches no
    histograms.  ``occupancy_window`` is the bucket width (in bus cycles)
    of the per-segment occupancy-over-time series.
    """

    def __init__(
        self,
        tracing: bool = True,
        metrics: bool = True,
        occupancy_window: int = 1024,
    ):
        self.tracer = Tracer() if tracing else NULL_TRACER
        self.registry = MetricsRegistry() if metrics else None
        self.occupancy_window = occupancy_window

    def on_grant(self, arbiter, master: str, waited: Optional[int]) -> None:
        if waited is not None and self.tracer.enabled:
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
        tracer = self.tracer
        if tracer.enabled:
            tracer.transaction(
                segment.name, master, start, acquired, end, words, write, memory_cycles
            )
        stats = segment.stats
        hist = stats._arb_hist
        if hist is not None:
            hist.observe(acquired - start)
            stats._occupancy.add(acquired, end)

    def on_bridge_cross(self, bridge, master: str) -> None:
        if self.tracer.enabled:
            self.tracer.hop(bridge.sim.now, bridge.name)

    def on_fifo_push(self, fifo, count: int) -> None:
        if self.tracer.enabled:
            self.tracer.fifo(fifo.sim.now, fifo.name, "push", count, fifo.count)

    def on_fifo_pop(self, fifo, count: int) -> None:
        if self.tracer.enabled:
            self.tracer.fifo(fifo.sim.now, fifo.name, "pop", count, fifo.count)
