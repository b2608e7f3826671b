"""Metrics registry: counters, cycle histograms, time series.

The registry is the quantitative half of the observability layer: where
the tracer answers "what happened when", the registry answers "how much
and how it was distributed".  It backs the per-segment detail of
:class:`repro.sim.stats.BusStats` (percentile arbitration wait, occupancy
over time) without changing the stats objects' ``as_dict()`` surface.

All metric types are mergeable (``merge``) so per-worker measurements from
the parallel experiment runner aggregate deterministically: integer
counts sum exactly, histograms require identical bucket layouts, and
``as_dict()`` output is name-sorted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_CYCLE_BUCKETS",
    "Counter",
    "Histogram",
    "TimeSeries",
    "MetricsRegistry",
]

#: Fixed upper bounds (in cycles) for cycle-latency histograms; an implicit
#: +inf bucket catches the overflow.  Powers of two cover the 1-cycle beat
#: up to the multi-thousand-cycle arbitration convoys of GGBA (Table II,
#: observation B).
DEFAULT_CYCLE_BUCKETS: Tuple[int, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Histogram:
    """Fixed-bucket histogram of non-negative integer samples (cycles).

    ``buckets`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Observation is O(#buckets)
    worst case (a short linear scan beats bisect at these sizes) and
    allocation-free.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min_value", "max_value")

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[int] = DEFAULT_CYCLE_BUCKETS):
        if list(buckets) != sorted(set(buckets)):
            raise ValueError("histogram buckets must be strictly increasing")
        self.name = name
        self.buckets: Tuple[int, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0
        self.min_value: Optional[int] = None
        self.max_value: Optional[int] = None

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the p-th percentile sample.

        The overflow bucket reports the maximum observed value, so the
        estimate never invents cycles beyond what was seen.
        """
        if not self.count:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % p)
        target = p / 100.0 * self.count
        cumulative = 0
        for index, bound in enumerate(self.buckets):
            cumulative += self.counts[index]
            if cumulative >= target and cumulative > 0:
                return float(min(bound, self.max_value))
        return float(self.max_value)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                "cannot merge histograms with different buckets (%s vs %s)"
                % (self.name, other.name)
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.min_value is not None:
            self.min_value = (
                other.min_value
                if self.min_value is None
                else min(self.min_value, other.min_value)
            )
        if other.max_value is not None:
            self.max_value = (
                other.max_value
                if self.max_value is None
                else max(self.max_value, other.max_value)
            )


class TimeSeries:
    """Cycles-of-activity bucketed into fixed windows of simulated time.

    ``add(start, end)`` spreads the interval's cycles across the windows
    it overlaps; :meth:`series` yields ``(window_start_cycle, busy_cycles,
    fraction)`` rows -- the occupancy-over-time view behind the paper's
    "where does the bus spend its cycles" observations.
    """

    __slots__ = ("name", "window", "bins")

    kind = "series"

    def __init__(self, name: str, window: int = 1024):
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self.bins: Dict[int, int] = {}

    def add(self, start: int, end: int) -> None:
        if end <= start:
            return
        window = self.window
        bins = self.bins
        index = start // window
        last = (end - 1) // window
        while index <= last:
            lo = index * window
            hi = lo + window
            overlap = min(end, hi) - max(start, lo)
            bins[index] = bins.get(index, 0) + overlap
            index += 1

    def series(self) -> List[Tuple[int, int, float]]:
        window = self.window
        return [
            (index * window, busy, busy / window)
            for index, busy in sorted(self.bins.items())
        ]

    def peak(self) -> float:
        """Highest per-window occupancy fraction seen."""
        if not self.bins:
            return 0.0
        return max(self.bins.values()) / self.window

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "window": self.window,
            "series": [
                {"start": start, "busy": busy, "fraction": fraction}
                for start, busy, fraction in self.series()
            ],
            "peak_fraction": self.peak(),
        }

    def merge(self, other: "TimeSeries") -> None:
        if self.window != other.window:
            raise ValueError(
                "cannot merge series with different windows (%s vs %s)"
                % (self.name, other.name)
            )
        for index, busy in other.bins.items():
            self.bins[index] = self.bins.get(index, 0) + busy


class MetricsRegistry:
    """Named metrics, created on first use, exported name-sorted."""

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name))
        if not isinstance(metric, Counter):
            raise TypeError("%r is a %s, not a counter" % (name, metric.kind))
        return metric

    def histogram(
        self, name: str, buckets: Sequence[int] = DEFAULT_CYCLE_BUCKETS
    ) -> Histogram:
        metric = self._get_or_create(name, lambda: Histogram(name, buckets))
        if not isinstance(metric, Histogram):
            raise TypeError("%r is a %s, not a histogram" % (name, metric.kind))
        return metric

    def time_series(self, name: str, window: int = 1024) -> TimeSeries:
        metric = self._get_or_create(name, lambda: TimeSeries(name, window))
        if not isinstance(metric, TimeSeries):
            raise TypeError("%r is a %s, not a time series" % (name, metric.kind))
        return metric

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: self._metrics[name].as_dict() for name in sorted(self._metrics)}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in; same-named metrics must be same-typed."""
        for name in other.names():
            theirs = other.get(name)
            mine = self._metrics.get(name)
            if mine is None:
                self._metrics[name] = theirs
            else:
                if type(mine) is not type(theirs):
                    raise TypeError(
                        "metric %r type mismatch: %s vs %s"
                        % (name, mine.kind, theirs.kind)
                    )
                mine.merge(theirs)
