"""Perf-regression benchmarking for the simulation kernel and runner.

``python -m repro bench`` runs :func:`repro.bench.harness.run_harness`:
kernel/table timings per scheduler backend, backend A/B ratios, table-row
parity between backends, and gates against the checked-in
``benchmarks/baselines.json``.
"""

from .harness import load_baselines, run_harness

__all__ = ["load_baselines", "run_harness"]
