"""Sharded, cache-first execution of a DSE sweep (``repro dse``).

The queue produced by :meth:`~repro.dse.spec.SweepSpec.expand` is split
into shards by policy-family hash (``int(family_key[:8], 16) % shards``
-- deterministic, independent of queue order) and the shards fan out over
:func:`repro.experiments.runner.run_cases`, the same process pool the
experiment tables use.  Each shard worker opens the shared
:class:`~repro.dse.cache.ArtifactCache` and, per config:

1. looks up the ``result`` artifact by config hash -- a hit skips both
   generation and simulation entirely (a warm re-run of a sweep, or the
   overlap of two sweeps, is mostly this path);
2. on a miss, generates the bus system, simulates the configured
   workload, optionally scores resilience (seeded chaos plan) and
   protocol verification (monitors), and writes the result artifact.

The missed configs that share a spec -- e.g. the PPA and FPA styles of one
architecture -- run back to back on one generation, so a shard generates
each distinct spec once and holds one design at a time.

A *policy family* is the configs equal in every option but
``arbiter_policy``.  A policy only chooses among two or more queued
requests, so once one sibling's run has never queued two on any segment
(:func:`repro.sim.stats.contention_free`), every later sibling in the
shard takes its metric block instead of building and simulating its own
machine; it still generates its own design (the gate count is the
arbiter RTL's), runs its own scoring, and gets its own row and artifact.
Shards are assigned by family, so ``--jobs`` keeps siblings together.

Everything nondeterministic in a result row lives under ledger-scrubbed
keys (``seconds``, ``generation_time_ms``, ``cached``), so cold and warm
sweeps -- and sweeps at different ``--jobs`` -- produce bit-identical
hashed summaries, frontiers and ledger record hashes.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from ..core.busyn import BusSyn
from ..experiments.runner import run_cases
from ..obs.ledger import content_hash, scrub_timings
from ..sim.stats import contention_free
from .cache import DEFAULT_CACHE_DIR, ArtifactCache
from .pareto import axes_for, pareto_frontier, rank_rows
from .spec import DseConfig, SweepSpec, build_config_spec

__all__ = [
    "DEFAULT_DSE_KERNEL",
    "shard_of",
    "simulate_config",
    "run_dse_shard",
    "run_sweep",
    "format_sweep_lines",
]

#: The sweep hot path defaults to the gen-3 compiled backend -- thousands
#: of short simulations are exactly its sweet spot (docs/performance.md).
DEFAULT_DSE_KERNEL = "compiled"


def resolve_kernel(kernel: Optional[str]) -> str:
    return kernel or os.environ.get("REPRO_SIM_KERNEL") or DEFAULT_DSE_KERNEL


def shard_of(key: str, shards: int) -> int:
    """Deterministic shard for a content hash (independent of queue order)."""
    return int(key[:8], 16) % shards


def simulate_config(config: DseConfig, machine) -> Dict[str, Any]:
    """Run the configured workload on ``machine``; returns the metric block.

    Shared by the DSE sweep rows and the fuzzer's oracle components
    (``repro.fuzz.oracle``) so both harnesses drive the identical
    workload for a given config.
    """
    if config.app == "ofdm":
        from ..apps.ofdm import OfdmParameters, run_ofdm

        result = run_ofdm(machine, config.style, OfdmParameters(packets=config.packets))
        return {
            "app": "ofdm",
            "name": "throughput_mbps",
            "value": result.throughput_mbps,
            "cycles": result.cycles,
        }
    if config.app == "mpeg2":
        from ..apps.mpeg2.codec import synthetic_video
        from ..apps.mpeg2.parallel import run_mpeg2

        result = run_mpeg2(machine, synthetic_video(config.frames))
        return {
            "app": "mpeg2",
            "name": "throughput_mbps",
            "value": result.throughput_mbps,
            "cycles": machine.sim.now,
        }
    if config.app == "database":
        from ..apps.database import run_database

        result = run_database(machine)
        tasks_per_second = (
            result.tasks_completed / (result.execution_time_ns / 1e9)
            if result.execution_time_ns
            else 0.0
        )
        return {
            "app": "database",
            "name": "tasks_per_second",
            "value": tasks_per_second,
            "cycles": machine.sim.now,
        }
    raise ValueError("unknown app %r" % config.app)


def _score_resilience(config: DseConfig, generated, kernel: str) -> Dict[str, Any]:
    """Chaos scoring: seeded smoke plan, recovered fraction as the score."""
    from ..faults.injector import RecoveryPolicy, install_faults
    from ..faults.plan import SCENARIOS, compile_plan

    machine = generated.build_machine(kernel=kernel)
    # None-check, not truthiness: seed 0 is a real, reproducible seed and
    # must never be conflated with "unseeded" (docs/fuzzing.md).
    plan = compile_plan(machine, SCENARIOS["smoke"], 0 if config.seed is None else config.seed)
    injector = install_faults(machine, plan, RecoveryPolicy())
    simulate_config(config, machine)
    report = injector.resilience_report()
    injected = report.injected
    return {
        "injected": injected,
        "recovered": report.recovered,
        "score": (report.recovered / injected) if injected else 1.0,
        "invariant_failures": report.check(),
    }


def _score_verify(config: DseConfig, generated, kernel: str) -> Dict[str, Any]:
    """Verification scoring: protocol monitors armed, findings counted."""
    machine = generated.build_machine(kernel=kernel)
    monitor = machine.attach_monitors(fail_fast=False)
    simulate_config(config, machine)
    findings = monitor.finalize()
    return {"findings": len(findings), "ok": not findings}


class _FamilyRuns:
    """The metric blocks of a shard's contention-free runs, by policy family.

    A policy only reaches the simulation through
    :meth:`~repro.sim.arbiter.Arbiter._select`, which runs only for a
    queued request and picks index 0 under every policy when one is
    queued.  So siblings fire the same events until a second request
    queues, and a contention-free run has no such moment: either every
    sibling's run is contention-free and identical, or none is, and
    whichever runs first decides.  Only the bare run is shared; the
    resilience and verify scoring runs stay per config.
    """

    def __init__(self):
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.simulated = 0
        self.shared = 0

    def metric(self, config: DseConfig, generated, kernel: str) -> Dict[str, Any]:
        """``config``'s metric block: a contention-free sibling's, or its own
        run's on a machine built from ``generated``."""
        family = config.family_key()
        metric = self.metrics.get(family)
        if metric is not None:
            self.shared += 1
            return dict(metric)
        machine = generated.build_machine(kernel=kernel)
        metric = simulate_config(config, machine)
        self.simulated += 1
        if contention_free(machine.segments):
            self.metrics[family] = metric
        return metric


def _run_config(config: DseConfig, generated, kernel: str, runs: _FamilyRuns) -> Dict[str, Any]:
    """Simulate one config on ``generated``, its spec's system (unless
    ``runs`` serves its metric block); returns its (deterministic) row."""
    start = time.perf_counter()
    metric = runs.metric(config, generated, kernel)
    row: Dict[str, Any] = {
        "key": config.key(),
        "options": config.options(),
        "label": config.label(),
        "subsystem_count": len(generated.spec.subsystems),
        "gate_count": generated.report.gate_count,
        "throughput": metric["value"],
        "cycles": metric["cycles"],
        "metric": metric,
        "resilience": None,
        "verify": None,
        "error": None,
        # Nondeterministic tail -- every key below is ledger-scrubbed.
        "generation_time_ms": generated.report.generation_time_ms,
        "seconds": 0.0,
        "cached": False,
    }
    if config.score_resilience:
        resilience = _score_resilience(config, generated, kernel)
        row["resilience"] = resilience["score"]
        row["resilience_detail"] = resilience
    if config.score_verify:
        row["verify"] = _score_verify(config, generated, kernel)
    row["seconds"] = time.perf_counter() - start
    return row


def _run_spec(
    configs: List[DseConfig], tool: BusSyn, kernel: str, runs: _FamilyRuns
) -> List[Dict[str, Any]]:
    """Generate the spec ``configs`` share once and run each of them on it;
    the design is garbage when this returns."""
    generated = None
    rows = []
    for config in configs:
        try:
            if generated is None:
                generated = tool.generate(build_config_spec(config))
            rows.append(_run_config(config, generated, kernel, runs))
        except (ValueError, KeyError, RuntimeError) as error:
            rows.append(_error_row(config, error))
    return rows


def _error_row(config: DseConfig, error: BaseException) -> Dict[str, Any]:
    """A deterministic row for a config whose workload refused to run."""
    return {
        "key": config.key(),
        "options": config.options(),
        "label": config.label(),
        "subsystem_count": None,
        "gate_count": None,
        "throughput": None,
        "cycles": None,
        "metric": None,
        "resilience": None,
        "verify": None,
        "error": "%s: %s" % (type(error).__name__, error),
        "generation_time_ms": 0.0,
        "seconds": 0.0,
        "cached": False,
    }


def run_dse_shard(
    shard: Tuple[int, List[Dict[str, Any]]],
    cache_dir: Optional[str] = None,
    kernel: Optional[str] = None,
    use_cache: bool = True,
) -> Dict[str, Any]:
    """Run one shard of configs (module-level: pool-worker addressable).

    ``shard`` is ``(shard_index, [canonical options dict, ...])``.  The
    result carries the shard's rows, in ``shard`` order, plus its cache
    economics and how many missed configs were simulated or served by a
    contention-free sibling (:class:`_FamilyRuns`).
    """
    shard_index, option_dicts = shard
    kernel = resolve_kernel(kernel)
    cache = ArtifactCache(cache_dir) if cache_dir else None
    configs = [DseConfig.from_options(options) for options in option_dicts]
    rows: List[Optional[Dict[str, Any]]] = [None] * len(configs)
    # Missed configs by spec, in first appearance order: one generation
    # serves every config of a spec.
    by_spec: Dict[Tuple, List[int]] = {}
    hits = 0
    start = time.perf_counter()
    for index, config in enumerate(configs):
        if cache is not None and use_cache:
            stored = cache.get_json("result", config.key())
            if stored is not None:
                stored["cached"] = True
                rows[index] = stored
                hits += 1
                continue
        by_spec.setdefault(config.spec_fields(), []).append(index)
    tool = BusSyn() if by_spec else None
    # Spans the spec groups: siblings differ in policy, hence in spec.
    runs = _FamilyRuns()
    for indices in by_spec.values():
        spec_rows = _run_spec([configs[index] for index in indices], tool, kernel, runs)
        # The spec's machines are cyclic garbage now: collect them while
        # they are young, so a shard holds one design's worth of memory
        # rather than what the collector's thresholds let pile up (a full
        # collection would walk the whole heap once per spec).
        gc.collect(1)
        for index, row in zip(indices, spec_rows):
            if cache is not None:
                cache.put_json("result", row["key"], row)
            rows[index] = row
    return {
        "shard": shard_index,
        "configs": len(option_dicts),
        "hits": hits,
        "misses": len(option_dicts) - hits,
        "simulated": runs.simulated,
        "shared": runs.shared,
        "seconds": time.perf_counter() - start,
        "rows": rows,
    }


def run_sweep(
    sweep: SweepSpec,
    jobs: int = 1,
    kernel: Optional[str] = None,
    budget: Optional[int] = None,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
    progress=None,
) -> Dict[str, Any]:
    """Expand, shard and execute a sweep; returns the full summary.

    The summary's hashed surface (results, frontier, ranked report,
    counts) is bit-identical across ``--jobs`` values, scheduler backends
    and cold/warm cache states; everything wall-clock or cache-dependent
    sits under ledger-scrubbed keys (``shard_stats``, ``cache_stats``,
    ``configs_per_sec``, ``seconds``, per-row ``cached``).
    """
    if isinstance(sweep, dict):
        sweep = SweepSpec.from_dict(sweep)
    kernel = resolve_kernel(kernel)
    start = time.perf_counter()
    configs, skipped, duplicates = sweep.expand()
    expanded = len(configs)
    if budget is not None:
        if budget < 0:
            raise ValueError("budget must be non-negative, got %d" % budget)
        configs = configs[:budget]
    if progress:
        progress(
            "sweep %s: %d config(s) (%d expanded, %d duplicate(s), %d skipped), "
            "kernel=%s, cache=%s"
            % (
                sweep.name,
                len(configs),
                expanded,
                duplicates,
                sum(skipped.values()),
                kernel,
                cache_dir if (cache_dir and use_cache) else "off",
            )
        )
    shards = max(1, min(jobs, len(configs))) if configs else 1
    buckets: List[List[Dict[str, Any]]] = [[] for _ in range(shards)]
    for config in configs:
        buckets[shard_of(config.family_key(), shards)].append(config.options())
    payloads = [(index, bucket) for index, bucket in enumerate(buckets)]
    shard_results, telemetry = run_cases(
        run_dse_shard,
        payloads,
        jobs=jobs,
        kwargs={
            "cache_dir": cache_dir if use_cache or cache_dir else None,
            "kernel": kernel,
            "use_cache": use_cache,
        },
    )
    rows = [row for shard in shard_results for row in shard["rows"]]
    rows.sort(key=lambda row: row["key"])
    ok_rows = [row for row in rows if row["error"] is None]
    axes = axes_for(ok_rows)
    frontier = pareto_frontier(ok_rows, axes)
    ranked = rank_rows(ok_rows, axes)
    hits = sum(shard["hits"] for shard in shard_results)
    misses = sum(shard["misses"] for shard in shard_results)
    seconds = time.perf_counter() - start
    shard_stats = {
        "jobs": jobs,
        "shards": [
            {
                "shard": shard["shard"],
                "configs": shard["configs"],
                "hits": shard["hits"],
                "misses": shard["misses"],
                "simulated": shard["simulated"],
                "shared": shard["shared"],
                "seconds": shard["seconds"],
                "events_processed": entry.events_processed,
            }
            for shard, entry in zip(shard_results, telemetry)
        ],
    }
    if progress:
        for entry in shard_stats["shards"]:
            progress(
                "  shard %d: %d config(s), %d hit(s), %d miss(es), %.2f s"
                % (
                    entry["shard"],
                    entry["configs"],
                    entry["hits"],
                    entry["misses"],
                    entry["seconds"],
                )
            )
    lookups = hits + misses
    return {
        "spec": sweep.as_dict(),
        "spec_hash": content_hash(sweep.as_dict()),
        "kernel": kernel,
        "budget": budget,
        "configs": len(configs),
        "expanded": expanded,
        "duplicates": duplicates,
        "skipped": skipped,
        "errors": len(rows) - len(ok_rows),
        "axes": [list(axis) for axis in axes],
        "results": rows,
        "frontier": frontier,
        "ranked": ranked,
        # Nondeterministic tail (ledger-scrubbed keys).
        "seconds": seconds,
        "configs_per_sec": (len(configs) / seconds) if seconds > 0 else 0.0,
        "cache_stats": {
            "enabled": bool(cache_dir and use_cache),
            "dir": cache_dir,
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / lookups) if lookups else 0.0,
        },
        "shard_stats": shard_stats,
    }


def sweep_fingerprint(summary: Dict[str, Any]) -> str:
    """Content hash of a summary's deterministic *design* surface.

    Covers everything the sweep claims about the design space -- queue,
    results, frontier, ranking -- and excludes how it was executed: the
    backend label (results are backend-invariant by the parity suite) and
    every ledger-scrubbed wall-clock / cache-state key.  Equal
    fingerprints across cold/warm, ``--jobs`` values, and scheduler
    backends are the determinism contract (docs/dse.md).
    """
    surface = {
        key: summary[key]
        for key in (
            "spec_hash",
            "budget",
            "configs",
            "expanded",
            "duplicates",
            "skipped",
            "errors",
            "axes",
            "results",
            "frontier",
            "ranked",
        )
    }
    return content_hash(scrub_timings(surface))


def format_sweep_lines(summary: Dict[str, Any], top: int = 10) -> List[str]:
    """Human-readable sweep outcome for the CLI."""
    lines = []
    cache_stats = summary["cache_stats"]
    lines.append(
        "%d config(s) in %.2f s (%.1f configs/sec), cache %s: %d hit(s) / %d miss(es)"
        % (
            summary["configs"],
            summary["seconds"],
            summary["configs_per_sec"],
            "on" if cache_stats["enabled"] else "off",
            cache_stats["hits"],
            cache_stats["misses"],
        )
    )
    shards = summary["shard_stats"]["shards"]
    lines.append(
        "%d simulated, %d served by a contention-free arbiter-policy sibling"
        % (sum(shard["simulated"] for shard in shards), sum(shard["shared"] for shard in shards))
    )
    if summary["errors"]:
        lines.append("%d config(s) errored (kept out of the frontier)" % summary["errors"])
    lines.append("")
    lines.append(
        "%-4s %-8s %-5s %4s %6s %-12s %12s %10s"
        % ("rank", "bus", "style", "PEs", "width", "policy", "throughput", "gates")
    )
    for row in summary["ranked"][:top]:
        options = row["options"]
        lines.append(
            "%-4s %-8s %-5s %4d %6d %-12s %12.4f %10d"
            % (
                "%d%s" % (row["rank"], "*" if row["pareto"] else ""),
                options["bus"],
                options["style"] or "-",
                options["pes"],
                options["data_width"],
                options["arbiter_policy"],
                row["throughput"],
                row["gate_count"],
            )
        )
    lines.append("")
    lines.append(
        "Pareto frontier: %d of %d config(s) (* above)"
        % (len(summary["frontier"]), summary["configs"])
    )
    return lines
