"""Design-space exploration engine (ROADMAP item 1; docs/dse.md).

The paper's headline benefit is *fast design space exploration of bus
architectures*: Table V generates every architecture in milliseconds, and
``examples/design_space_exploration.py`` sweeps nine (bus, style) cases.
This package lifts that loop to production scale:

* :mod:`repro.dse.spec` -- a declarative sweep specification (bus type x
  subsystem count x widths x arbiter policy x PE count x workload /
  programming style) expanded into a deduplicated queue of
  :class:`~repro.dse.spec.DseConfig` entries, each keyed by the content
  hash of its canonical options (the PR 7 ledger hashing discipline);
* :mod:`repro.dse.cache` -- an on-disk content-addressed artifact cache
  (``.repro/dse/``) holding per-config sweep outcomes (JSON, stamped
  with the generator version), shared across worker processes and
  across sweeps; generated designs are never stored;
* :mod:`repro.dse.engine` -- sharded execution of the queue on the
  parallel experiment runner (deterministic shard assignment by config
  hash, ``--jobs`` fan-out, per-shard progress), cache-first so a warm
  re-run never simulates a previously seen config, and one generation
  per distinct spec in a shard;
* :mod:`repro.dse.pareto` -- Pareto frontier (throughput up, NAND2 gate
  count down, optional resilience / verify axes) and the ranked
  JSON / markdown report.

The CLI face is ``repro dse`` (``--spec/--jobs/--kernel/--budget/
--no-cache/-o``); CI's DSE smoke step gates the warm cache-hit ratio.
"""

from .cache import ArtifactCache, DEFAULT_CACHE_DIR
from .engine import run_dse_shard, run_sweep
from .pareto import DEFAULT_AXES, pareto_frontier, rank_rows
from .spec import DseConfig, SweepSpec, build_config_spec, smoke_spec

__all__ = [
    "ArtifactCache",
    "DEFAULT_CACHE_DIR",
    "DseConfig",
    "SweepSpec",
    "build_config_spec",
    "smoke_spec",
    "run_sweep",
    "run_dse_shard",
    "DEFAULT_AXES",
    "pareto_frontier",
    "rank_rows",
]
