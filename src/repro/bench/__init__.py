"""Perf-regression benchmarking for the simulation kernel and runner.

``python -m repro bench`` runs :func:`repro.bench.harness.run_harness`:
kernel microbenches per scheduler backend, backend A/B ratios, Table II
``--jobs`` timing, and table-row parity between backends, gated against
the checked-in ``benchmarks/baselines.json``.
"""

from .harness import run_harness

__all__ = ["run_harness"]
