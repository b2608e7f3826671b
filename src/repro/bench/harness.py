"""Perf-regression harness: kernel/table timings, backend A/B, parity.

Run it through the CLI (no ``PYTHONPATH`` gymnastics) ::

    python -m repro bench                      # full run, all backends
    python -m repro bench --smoke              # CI quick pass
    python -m repro bench --kernel compiled    # time one backend only
    python -m repro bench --smoke --enforce-floor   # CI regression gate

Sections written to ``BENCH_kernel.json`` (``--out``):

* ``kernel.<backend>.int_yield`` -- pure event throughput per scheduler
  backend (heap vs compiled): 64 processes each doing 2000 one-cycle
  delay yields.  Events/sec uses the nominal event count (procs x
  yields) so the figure is comparable across kernel versions.
* ``kernel.<backend>.mixed`` -- composite workload exercising Timeout
  pooling, Event succeed/fail, AnyOf/AllOf, and interrupt wakeups.
* ``ab`` -- compiled-vs-heap ratios when both sides were timed.  The
  full-run gate requires the compiled backend to reach at least
  ``gates.compiled_vs_heap_int_yield`` (5.0x) heap throughput.
* ``table2.<backend>`` -- Table II wall time, sequential vs parallel
  runner, best-of-``--rounds`` after a warm-up; parallel rows must be
  bit-identical to sequential rows and pass ``check_table2_shape``.
* ``backend_parity`` -- Tables II-V executed serially on *every* backend
  (heap and compiled -- even under ``--kernel``/``--smoke``);
  ``rows_identical`` must be true for every table (Table V rows are
  compared without the wall-clock ``generation_time_ms`` field).
* ``run_report`` -- one traced Table II case's telemetry summary, so
  event counts and utilization drift are visible next to the numbers.

Microbenches (``int_yield``/``mixed``) are best-of-``--rounds`` and run
for *every* backend before any table timing, so the recorded A/B ratio
is not skewed by machine heat from the long table runs.

Baselines live in the checked-in ``benchmarks/baselines.json`` (they are
*read*, never rewritten, so they cannot drift when this harness rewrites
its output): the frozen seed-tree numbers (commit 2988a20), the vs-seed
gate floors, the compiled-vs-heap floor, and the per-backend CI floor
references.  Outside ``--smoke`` the run fails (exit 1) on any parity or
identity failure, on a *heap* vs-seed speedup below its floor (the
floors were calibrated for the seed's default scheduler; the compiled
backend's vs-seed numbers are informational), or on a compiled A/B
ratio below its floor.  ``--enforce-floor`` additionally times the
full-size ``int_yield`` workload (cheap, ~0.2 s) and fails on a
``gates.ci_regression_tolerance`` (20 %) events/sec regression against
the per-backend ``ci_floor`` references -- the CI guard.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.table2 import check_table2_shape, run_table2, run_table2_case
from ..experiments.table3 import run_table3
from ..experiments.table4 import run_table4
from ..experiments.table5 import run_table5
from ..obs.report import drain_recorded
from ..sim.kernel import KERNEL_BACKENDS, Interrupt, Simulator

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
DEFAULT_BASELINES = os.path.join(_REPO_ROOT, "benchmarks", "baselines.json")
DEFAULT_OUT = os.path.join(_REPO_ROOT, "BENCH_kernel.json")

# Quick table scales for the backend-parity sweep: parity is a determinism
# check, not a perf check, so small workloads cover it.
PARITY_SCALES = {
    "table3": {"frame_count": 4},
    "table4": {"client_count": 10},
    "table5": {"pe_counts": [1, 8]},
}


def load_baselines(path: Optional[str] = None) -> dict:
    """Read ``benchmarks/baselines.json`` (the frozen references + gates)."""
    with open(path or DEFAULT_BASELINES) as handle:
        return json.load(handle)


def bench_int_yield(
    kernel: str, procs: int = 64, yields: int = 2000, rounds: int = 1
) -> dict:
    """Kernel event throughput: ``procs`` processes x ``yields`` delays.

    Best-of-``rounds``: microbenches this short (~0.1 s) are dominated by
    scheduler noise and thermal state, so single samples routinely swing
    +-30% and would make the A/B ratio meaningless.
    """

    def worker(count):
        for _ in range(count):
            yield 1

    samples: List[float] = []
    for _ in range(max(1, rounds)):
        sim = Simulator(kernel=kernel)
        for index in range(procs):
            sim.process(worker(yields), name="w%d" % index)
        start = time.perf_counter()
        sim.run()
        samples.append(time.perf_counter() - start)
    seconds = min(samples)
    events = procs * yields
    return {
        "kernel": kernel,
        "procs": procs,
        "yields": yields,
        "rounds": len(samples),
        "seconds": seconds,
        "all_seconds": samples,
        "events": events,
        "events_per_sec": events / seconds,
    }


def bench_mixed(kernel: str, groups: int = 200, rounds: int = 1) -> dict:
    """Composite workload: events, composites, interrupts, pooled timeouts.

    Best-of-``rounds`` for the same noise reasons as :func:`bench_int_yield`.
    """

    def producer(sim, done):
        yield 3
        done.succeed("payload")

    def failer(sim, doomed):
        yield 10
        doomed.fail(RuntimeError("mixed-bench failure path"))

    def consumer(sim, done, doomed):
        value = yield sim.any_of([done, sim.timeout(50)])
        assert value
        try:
            yield sim.all_of([doomed, sim.timeout(20)])
        except RuntimeError:
            pass
        for _ in range(20):
            yield 2

    def sleeper(sim):
        try:
            yield 1000
        except Interrupt:
            yield 1

    def interrupter(sim, victim):
        yield 5
        victim.interrupt("wake")
        yield 5

    samples: List[float] = []
    events = 0
    for _ in range(max(1, rounds)):
        sim = Simulator(kernel=kernel)
        for index in range(groups):
            done = sim.event()
            doomed = sim.event()
            sim.process(producer(sim, done), name="p%d" % index)
            sim.process(failer(sim, doomed), name="f%d" % index)
            sim.process(consumer(sim, done, doomed), name="c%d" % index)
            victim = sim.process(sleeper(sim), name="s%d" % index)
            sim.process(interrupter(sim, victim), name="i%d" % index)
        start = time.perf_counter()
        sim.run()
        samples.append(time.perf_counter() - start)
        events = sim.events_processed
    return {
        "kernel": kernel,
        "groups": groups,
        "rounds": len(samples),
        "seconds": min(samples),
        "all_seconds": samples,
        "events": events,
    }


def bench_table2(kernel: str, jobs: int, rounds: int, packets: int) -> dict:
    """Table II wall time, sequential vs parallel runner, plus identity."""
    run_table2(packets=packets, kernel=kernel)  # warm imports and caches
    sequential: List[float] = []
    parallel: List[float] = []
    rows_seq = rows_par = None
    for _ in range(rounds):
        start = time.perf_counter()
        rows_seq = run_table2(packets=packets, jobs=1, kernel=kernel)
        sequential.append(time.perf_counter() - start)
        start = time.perf_counter()
        rows_par = run_table2(packets=packets, jobs=jobs, kernel=kernel)
        parallel.append(time.perf_counter() - start)
    identical = [vars(r) for r in rows_seq] == [vars(r) for r in rows_par]
    # The shape claims are calibrated for the full 8-packet experiment;
    # smoke-scale runs only verify sequential/parallel identity.
    shape_failures = check_table2_shape(rows_par) if packets >= 8 else []
    return {
        "kernel": kernel,
        "jobs": jobs,
        "rounds": rounds,
        "packets": packets,
        "sequential_seconds": min(sequential),
        "parallel_seconds": min(parallel),
        "sequential_all": sequential,
        "parallel_all": parallel,
        "rows_identical": identical,
        "shape_failures": shape_failures,
    }


def bench_run_report(kernel: str, packets: int) -> dict:
    """One representative traced case: the RunReport summary the paper-table
    runs emit, recorded into BENCH_kernel.json so telemetry drift (event
    counts, utilization) shows up next to the perf numbers."""
    drain_recorded()  # discard anything a previous bench left behind
    row = run_table2_case(
        (7, "SPLITBA", "FPA"), packets=packets, telemetry=True, kernel=kernel
    )
    reports = drain_recorded()
    report = reports[0] if reports else {}
    return {
        "kernel": kernel,
        "case": "table2:7 SPLITBA/FPA",
        "packets": packets,
        "throughput_mbps": row.throughput_mbps,
        "wall_seconds": report.get("wall_seconds", 0.0),
        "simulated_cycles": report.get("simulated_cycles", 0),
        "events_processed": report.get("events_processed", 0),
        "events_per_second": report.get("events_per_second", 0.0),
        "peak_queue_depth": report.get("peak_queue_depth", 0),
        "segments": [
            {
                "name": segment["name"],
                "transactions": segment["transactions"],
                "utilization": segment["utilization"],
                "arb_wait_p99": segment.get("arb_wait_p99"),
            }
            for segment in report.get("segments", ())
        ],
    }


def bench_counters(kernel: str = "compiled", packets: int = 2, rounds: int = 1) -> dict:
    """Counter-plane cost on the compiled fast path (docs/observability.md).

    Times one OFDM run with and without a bound
    :class:`~repro.obs.counters.CounterPlane` and checks that the simulated
    cycle count is bit-identical and that the counter totals match
    :class:`~repro.sim.stats.BusStats`.  ``overhead_fraction`` is the
    relative wall-time cost of a counted run (gated against
    ``gates.counters_overhead_max`` outside ``--smoke``).
    """
    from ..apps.ofdm import OfdmParameters, run_ofdm
    from ..options import presets
    from ..sim.fabric import MachineBuilder

    def one(with_counters: bool):
        machine = MachineBuilder(presets.preset("GBAVIII", 4)).with_kernel(kernel).build()
        if with_counters:
            machine.attach_counters()
        start = time.perf_counter()
        result = run_ofdm(machine, "FPA", OfdmParameters(packets=packets))
        return machine, result.cycles, time.perf_counter() - start

    off_samples: List[float] = []
    on_samples: List[float] = []
    cycles_off = cycles_on = None
    counters_match_stats = True
    for _ in range(max(1, rounds)):
        _machine, cycles_off, wall = one(False)
        off_samples.append(wall)
        machine, cycles_on, wall = one(True)
        on_samples.append(wall)
        counters_match_stats = (
            counters_match_stats and not machine.counters.check_against_stats(machine)
        )
    seconds_off = min(off_samples)
    seconds_on = min(on_samples)
    return {
        "kernel": kernel,
        "packets": packets,
        "rounds": len(off_samples),
        "cycles_off": cycles_off,
        "cycles_on": cycles_on,
        "bit_identical": cycles_on == cycles_off,
        "counters_match_stats": counters_match_stats,
        "seconds_off": seconds_off,
        "seconds_on": seconds_on,
        "overhead_fraction": (
            (seconds_on - seconds_off) / seconds_off if seconds_off > 0 else 0.0
        ),
    }


def bench_dse_sweep(smoke: bool = False, kernel: str = "compiled") -> dict:
    """Cold-vs-warm DSE sweep throughput (docs/dse.md).

    Runs the bench sweep twice against a fresh temporary artifact cache:
    the cold pass generates and simulates every config, the warm pass
    must be pure cache reads.  Both passes run with ``jobs=1`` so the
    speedup measures the cache alone, not pool fan-out.  Outside
    ``--smoke`` the warm pass must be at least ``gates.dse_warm_vs_cold``
    (5x) faster; the warm hit ratio (``gates.dse_warm_hit_ratio_min``)
    and cold/warm frontier identity are determinism checks and gate even
    under ``--smoke``.
    """
    import shutil
    import tempfile

    from ..dse.engine import run_sweep
    from ..dse.spec import bench_spec
    from ..obs.ledger import scrub_timings

    sweep = bench_spec(smoke=smoke)
    tmp = tempfile.mkdtemp(prefix="repro-bench-dse-")
    try:
        cold = run_sweep(sweep, jobs=1, kernel=kernel, cache_dir=tmp)
        warm = run_sweep(sweep, jobs=1, kernel=kernel, cache_dir=tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    cold_seconds = cold["seconds"]
    warm_seconds = warm["seconds"]
    warm_cache = warm["cache_stats"]
    return {
        "smoke": smoke,
        "kernel": kernel,
        "spec": sweep.name,
        "configs": cold["configs"],
        "expanded": cold["expanded"],
        "errors": cold["errors"],
        "frontier_size": len(cold["frontier"]),
        "frontier_identical": scrub_timings(cold["frontier"])
        == scrub_timings(warm["frontier"]),
        # Wall-clock / cache-state tail (ledger-scrubbed keys).
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
        "configs_per_sec": {
            "cold": cold["configs_per_sec"],
            "warm": warm["configs_per_sec"],
        },
        "cache_stats": {
            "cold": cold["cache_stats"],
            "warm": warm_cache,
            "warm_hit_ratio": warm_cache["hit_ratio"],
        },
    }


def _table5_key(row) -> dict:
    """Table V row minus its wall-clock field (generation_time_ms measures
    *this* run's generator speed, not simulated behaviour)."""
    fields = dict(vars(row))
    fields.pop("generation_time_ms", None)
    return fields


def bench_backend_parity(table2_packets: int, jobs: int = 1) -> dict:
    """Tables II-V on every scheduler backend; rows must be bit-identical.

    Backends run serially (one full table sweep per backend) so each
    backend's rows come from an identical machine state; ``jobs`` is
    threaded through to the table runners the same way ``repro table``
    does it, so the parity sweep can use the parallel case runners.
    """
    parity: Dict[str, dict] = {}

    def compare(name: str, rows_by_kernel: Dict[str, list], normalize=vars) -> None:
        normalized = {
            kernel: [normalize(row) for row in rows]
            for kernel, rows in rows_by_kernel.items()
        }
        reference = normalized[KERNEL_BACKENDS[0]]
        identical = all(rows == reference for rows in normalized.values())
        parity[name] = {
            "backends": sorted(rows_by_kernel),
            "rows": len(reference),
            "rows_identical": identical,
        }

    compare(
        "table2",
        {
            kernel: run_table2(packets=table2_packets, jobs=jobs, kernel=kernel)
            for kernel in KERNEL_BACKENDS
        },
    )
    compare(
        "table3",
        {
            kernel: run_table3(kernel=kernel, jobs=jobs, **PARITY_SCALES["table3"])
            for kernel in KERNEL_BACKENDS
        },
    )
    compare(
        "table4",
        {
            kernel: run_table4(kernel=kernel, jobs=jobs, **PARITY_SCALES["table4"])
            for kernel in KERNEL_BACKENDS
        },
    )
    # Table V is architecture *generation* (no Simulator involved): rows are
    # backend-independent by construction; the comparison pins that down.
    compare(
        "table5",
        {
            kernel: run_table5(jobs=jobs, **PARITY_SCALES["table5"])
            for kernel in KERNEL_BACKENDS
        },
        normalize=_table5_key,
    )
    return parity


def run_harness(
    kernels: Sequence[str] = KERNEL_BACKENDS,
    smoke: bool = False,
    jobs: int = 4,
    rounds: int = 3,
    enforce_floor: bool = False,
    baselines_path: Optional[str] = None,
) -> Tuple[dict, List[str]]:
    """Run every bench section; returns ``(report, failures)``."""
    baselines = load_baselines(baselines_path)
    seed = baselines["seed"]
    gates = baselines["gates"]

    if smoke:
        scales = {
            "int_yield": {"procs": 8, "yields": 200},
            "mixed": {"groups": 20},
            "table2": {"jobs": min(jobs, 2), "rounds": 1, "packets": 2},
            "report_packets": 2,
            "parity_packets": 2,
        }
    else:
        scales = {
            "int_yield": {},
            "mixed": {},
            "table2": {"jobs": jobs, "rounds": rounds, "packets": 8},
            "report_packets": 8,
            "parity_packets": 8,
        }

    kernel_section: Dict[str, dict] = {}
    table2_section: Dict[str, dict] = {}
    vs_seed: Dict[str, dict] = {}
    # Microbench every backend before any Table II timing: the table runs
    # take tens of seconds and heat the machine, which would skew whichever
    # backend's microbench happened to run after them and make the recorded
    # A/B ratio depend on section ordering.
    micro_rounds = 1 if smoke else max(1, rounds)
    for kernel in kernels:
        kernel_section[kernel] = {
            "int_yield": bench_int_yield(
                kernel, rounds=micro_rounds, **scales["int_yield"]
            ),
            "mixed": bench_mixed(kernel, rounds=micro_rounds, **scales["mixed"]),
        }
    for kernel in kernels:
        int_yield = kernel_section[kernel]["int_yield"]
        mixed = kernel_section[kernel]["mixed"]
        table2 = bench_table2(kernel, **scales["table2"])
        table2_section[kernel] = table2
        vs_seed[kernel] = {
            "int_yield_events_per_sec": int_yield["events_per_sec"]
            / seed["int_yield_events_per_sec"],
            "mixed_seconds": seed["mixed_seconds"] / mixed["seconds"],
            "table2_sequential_seconds": seed["table2_sequential_seconds"]
            / table2["sequential_seconds"],
            "table2_parallel_seconds": seed["table2_sequential_seconds"]
            / table2["parallel_seconds"],
        }

    ab: Dict[str, float] = {}
    if "heap" in kernel_section:
        for challenger in KERNEL_BACKENDS[1:]:
            if challenger not in kernel_section:
                continue
            ab["int_yield_events_per_sec_%s_vs_heap" % challenger] = (
                kernel_section[challenger]["int_yield"]["events_per_sec"]
                / kernel_section["heap"]["int_yield"]["events_per_sec"]
            )
            ab["mixed_speedup_%s_vs_heap" % challenger] = (
                kernel_section["heap"]["mixed"]["seconds"]
                / kernel_section[challenger]["mixed"]["seconds"]
            )

    parity = bench_backend_parity(scales["parity_packets"], jobs=1 if smoke else jobs)
    run_report = bench_run_report(kernels[0], scales["report_packets"])
    counters = bench_counters(
        packets=scales["report_packets"], rounds=1 if smoke else max(1, rounds)
    )
    dse_sweep = bench_dse_sweep(smoke=smoke)

    failures: List[str] = []
    # DSE identity gates run even under --smoke (determinism checks); the
    # warm-vs-cold speedup floor only gates the full-size sweep.
    if not dse_sweep["frontier_identical"]:
        failures.append("dse_sweep: warm frontier differs from cold frontier")
    hit_floor = gates.get("dse_warm_hit_ratio_min")
    if hit_floor is not None and dse_sweep["cache_stats"]["warm_hit_ratio"] < hit_floor:
        failures.append(
            "dse_sweep: warm hit ratio %.2f below the %.2f floor"
            % (dse_sweep["cache_stats"]["warm_hit_ratio"], hit_floor)
        )
    speedup_floor = gates.get("dse_warm_vs_cold")
    if not smoke and speedup_floor is not None:
        if dse_sweep["speedup"] < speedup_floor:
            failures.append(
                "dse_sweep: warm only %.1fx cold, below the %.1fx floor"
                % (dse_sweep["speedup"], speedup_floor)
            )
    # Counter-plane identity gates run even under --smoke: they are
    # determinism checks, not timing checks.
    if not counters["bit_identical"]:
        failures.append(
            "counters: cycle count changed with the plane bound (%s != %s)"
            % (counters["cycles_on"], counters["cycles_off"])
        )
    if not counters["counters_match_stats"]:
        failures.append("counters: totals diverged from BusStats")
    overhead_max = gates.get("counters_overhead_max")
    if not smoke and overhead_max is not None:
        if counters["overhead_fraction"] > overhead_max:
            failures.append(
                "counters: overhead %.3f above the %.3f budget"
                % (counters["overhead_fraction"], overhead_max)
            )
    for kernel, table2 in table2_section.items():
        if not table2["rows_identical"]:
            failures.append(
                "%s: parallel rows differ from sequential rows" % kernel
            )
        if table2["shape_failures"]:
            failures.append(
                "%s: check_table2_shape: %s" % (kernel, table2["shape_failures"])
            )
    for name, entry in parity.items():
        if not entry["rows_identical"]:
            failures.append(
                "backend parity: %s rows differ across %s"
                % (name, "/".join(entry["backends"]))
            )
    if not smoke:
        # vs_seed floors gate the *heap* backend only: they were calibrated
        # against the seed tree's default scheduler, which heap descends
        # from.  The compiled backend is gated by its own design targets
        # below: the A/B int_yield floor and backend parity.  Its vs_seed
        # speedups stay in the report as information.
        if "heap" in vs_seed:
            for key, floor in gates["vs_seed"].items():
                if vs_seed["heap"][key] < floor:
                    failures.append(
                        "heap: vs_seed[%s] = %.2fx below the %.2fx floor"
                        % (key, vs_seed["heap"][key], floor)
                    )
        for challenger in KERNEL_BACKENDS[1:]:
            key = "int_yield_events_per_sec_%s_vs_heap" % challenger
            if key not in ab:
                continue
            ratio = ab[key]
            floor = gates["%s_vs_heap_int_yield" % challenger]
            if ratio < floor:
                failures.append(
                    "%s int_yield only %.2fx heap, below the %.2fx floor"
                    % (challenger, ratio, floor)
                )

    ci_floor = None
    if enforce_floor:
        # Full-size int_yield regardless of --smoke: ~0.2 s per backend,
        # and small enough workloads are too noisy to gate on.
        tolerance = gates["ci_regression_tolerance"]
        ci_floor = {"tolerance": tolerance, "backends": {}}
        for kernel in kernels:
            reference = baselines["ci_floor"][kernel]["int_yield_events_per_sec"]
            # Best-of-3 full-size runs: a single sample is too noisy to
            # gate on when the runner is sharing the machine.
            measured = max(
                bench_int_yield(kernel)["events_per_sec"] for _ in range(3)
            )
            floor = (1.0 - tolerance) * reference
            ci_floor["backends"][kernel] = {
                "reference_events_per_sec": reference,
                "measured_events_per_sec": measured,
                "floor_events_per_sec": floor,
                "passed": measured >= floor,
            }
            if measured < floor:
                failures.append(
                    "ci floor: %s int_yield %.0f ev/s is >%.0f%% below the %.0f "
                    "reference in baselines.json"
                    % (kernel, measured, tolerance * 100, reference)
                )

    from ..obs.ledger import git_revision, options_hash

    report = {
        "smoke": smoke,
        "kernels": list(kernels),
        "kernel": kernel_section,
        "ab": ab,
        "table2": table2_section,
        "backend_parity": parity,
        "run_report": run_report,
        "counters": counters,
        "dse_sweep": dse_sweep,
        "baselines": baselines,
        "vs_seed": vs_seed,
        "failures": failures,
        # Self-describing artifact: which code, which config, which
        # backends produced these numbers (ledger-correlatable).
        "provenance": {
            "git_rev": git_revision(),
            "backends": list(kernels),
            "options_hash": options_hash(
                {
                    "kernels": list(kernels),
                    "smoke": smoke,
                    "jobs": jobs,
                    "rounds": rounds,
                    "enforce_floor": enforce_floor,
                }
            ),
        },
    }
    if ci_floor is not None:
        report["ci_floor"] = ci_floor
    return report, failures


def _print_summary(report: dict) -> None:
    provenance = report.get("provenance")
    if provenance:
        print(
            "provenance: backend=%s options=%s rev=%s"
            % (
                ",".join(provenance["backends"]),
                provenance["options_hash"],
                provenance["git_rev"],
            )
        )
    for kernel in report["kernels"]:
        section = report["kernel"][kernel]
        speedups = report["vs_seed"][kernel]
        table2 = report["table2"][kernel]
        print(
            "%-8s int_yield : %8.0f events/sec (%.2fx seed)"
            % (
                kernel,
                section["int_yield"]["events_per_sec"],
                speedups["int_yield_events_per_sec"],
            )
        )
        print(
            "%-8s mixed     : %8.4f s        (%.2fx seed)"
            % (kernel, section["mixed"]["seconds"], speedups["mixed_seconds"])
        )
        print(
            "%-8s table2    : seq %.2f s (%.2fx seed)  jobs=%d %.2f s (%.2fx seed)"
            % (
                kernel,
                table2["sequential_seconds"],
                speedups["table2_sequential_seconds"],
                table2["jobs"],
                table2["parallel_seconds"],
                speedups["table2_parallel_seconds"],
            )
        )
    for challenger in KERNEL_BACKENDS[1:]:
        key = "int_yield_events_per_sec_%s_vs_heap" % challenger
        if key in report["ab"]:
            print(
                "ab        : %-8s int_yield %.2fx heap, mixed %.2fx heap"
                % (
                    challenger,
                    report["ab"][key],
                    report["ab"]["mixed_speedup_%s_vs_heap" % challenger],
                )
            )
    parity = ", ".join(
        "%s=%s" % (name, entry["rows_identical"])
        for name, entry in sorted(report["backend_parity"].items())
    )
    print("parity    : %s" % parity)
    counters = report.get("counters")
    if counters:
        print(
            "counters  : %s overhead %+.1f%%, bit_identical=%s"
            % (
                counters["kernel"],
                100.0 * counters["overhead_fraction"],
                counters["bit_identical"],
            )
        )
    dse_sweep = report.get("dse_sweep")
    if dse_sweep:
        print(
            "dse_sweep : %d configs, cold %.1f/s warm %.1f/s (%.0fx), "
            "warm hits %.0f%%, frontier_identical=%s"
            % (
                dse_sweep["configs"],
                dse_sweep["configs_per_sec"]["cold"],
                dse_sweep["configs_per_sec"]["warm"],
                dse_sweep["speedup"],
                100.0 * dse_sweep["cache_stats"]["warm_hit_ratio"],
                dse_sweep["frontier_identical"],
            )
        )
    run_report = report["run_report"]
    print(
        "telemetry : %s  %d cycles, %d events, peak queue depth %d"
        % (
            run_report["case"],
            run_report["simulated_cycles"],
            run_report["events_processed"],
            run_report["peak_queue_depth"],
        )
    )
