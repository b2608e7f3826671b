"""Perf-regression harness: what no other check measures.

Run it through the CLI (no ``PYTHONPATH`` gymnastics) ::

    python -m repro bench                      # full run, all backends
    python -m repro bench --smoke              # CI quick pass
    python -m repro bench --kernel compiled    # time one backend only
    python -m repro bench --smoke --enforce-floor   # CI regression gate

The paper tables, the DSE sweep and the fuzz campaign are timed end to end
by ``benchmarks/e2e``; this harness keeps what that benchmark does not
measure.  Sections written to ``BENCH_kernel.json`` (``--out``):

* ``kernel.<backend>.int_yield`` -- pure event throughput per scheduler
  backend (heap vs compiled): 64 processes each doing 2000 one-cycle
  delay yields.  Events/sec uses the nominal event count (procs x
  yields) so the figure is comparable across kernel versions.
* ``kernel.<backend>.mixed`` -- composite workload exercising Timeout
  pooling, Event succeed/fail, AnyOf/AllOf, and interrupt wakeups.
* ``ab`` -- compiled-vs-heap ratios when both sides were timed.  The
  full-run gate requires the compiled backend to reach at least
  ``gates.compiled_vs_heap_int_yield`` (5.0x) heap throughput.
* ``table2.<backend>`` -- Table II wall time, sequential vs the ``--jobs``
  parallel runner, best-of-``--rounds`` after a warm-up; parallel rows
  must be bit-identical to sequential rows.
* ``backend_parity`` -- Tables II-V executed serially on *every* backend
  (heap and compiled -- even under ``--kernel``/``--smoke``);
  ``rows_identical`` must be true for every table (Table V rows are
  compared without the wall-clock ``generation_time_ms`` field).
* ``ci_floor`` -- the floor gate below, per backend.
* ``provenance`` -- revision, backends, options hash and the environment
  (:func:`repro.obs.ledger.environment`) the numbers were measured in.
* ``failures`` -- every gate that failed, named with its floor and
  reference but not the measured value (that stays in the timing keys),
  so two runs that miss the same gate share a ledger hash; the CLI exits
  1 on any, and ``repro report --check`` flags the run's ledger record.

Microbenches (``int_yield``/``mixed``) are best-of-``--rounds`` and run
for *every* backend before any table timing, so the recorded A/B ratio
is not skewed by machine heat from the long table runs.

Gates live in the checked-in ``benchmarks/baselines.json`` (*read*, never
rewritten, so they cannot drift when this harness rewrites its output).
The full-size ``int_yield`` is timed outside ``--smoke`` and under
``--enforce-floor``, and wherever it is timed it must stay within
``gates.ci_regression_tolerance`` (20 %) of the per-backend
``ci_floor`` reference; a smoke-size sample is too noisy to gate on.
Outside ``--smoke`` the compiled A/B ratio must clear its floor.  Parity
and row identity gate every run.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.table2 import run_table2
from ..experiments.table3 import run_table3
from ..experiments.table4 import run_table4
from ..experiments.table5 import run_table5
from ..obs.ledger import environment, git_revision, options_hash
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
    return {
        "kernel": kernel,
        "jobs": jobs,
        "rounds": rounds,
        "packets": packets,
        "sequential_seconds": min(sequential),
        "parallel_seconds": min(parallel),
        "sequential_all": sequential,
        "parallel_all": parallel,
        "rows_identical": [vars(r) for r in rows_seq] == [vars(r) for r in rows_par],
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
    with open(baselines_path or DEFAULT_BASELINES) as handle:
        baselines = json.load(handle)
    gates = baselines["gates"]
    gate_floor = enforce_floor or not smoke

    # Microbench every backend before any Table II timing: the table runs
    # heat the machine, which would skew whichever backend's microbench
    # happened to run after them and make the recorded A/B ratio depend on
    # section ordering.
    kernel_section: Dict[str, dict] = {}
    for kernel in kernels:
        if gate_floor:
            int_yield = bench_int_yield(kernel, rounds=rounds)
        else:
            int_yield = bench_int_yield(kernel, procs=8, yields=200)
        if smoke:
            mixed = bench_mixed(kernel, groups=20)
        else:
            mixed = bench_mixed(kernel, rounds=rounds)
        kernel_section[kernel] = {"int_yield": int_yield, "mixed": mixed}
    table2_section = {
        kernel: bench_table2(
            kernel,
            jobs=min(jobs, 2) if smoke else jobs,
            rounds=1 if smoke else rounds,
            packets=2 if smoke else 8,
        )
        for kernel in kernels
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

    parity = bench_backend_parity(2 if smoke else 8, jobs=1 if smoke else jobs)

    failures: List[str] = []
    for kernel, table2 in table2_section.items():
        if not table2["rows_identical"]:
            failures.append(
                "%s: parallel rows differ from sequential rows" % kernel
            )
    for name, entry in parity.items():
        if not entry["rows_identical"]:
            failures.append(
                "backend parity: %s rows differ across %s"
                % (name, "/".join(entry["backends"]))
            )
    if not smoke:
        for challenger in KERNEL_BACKENDS[1:]:
            key = "int_yield_events_per_sec_%s_vs_heap" % challenger
            if key not in ab:
                continue
            gate = "%s_vs_heap_int_yield" % challenger
            floor = gates[gate]
            if ab[key] < floor:
                failures.append(
                    "ab: %s int_yield is below the %.2fx-heap floor "
                    "(gates.%s in baselines.json)" % (challenger, floor, gate)
                )

    ci_floor = None
    if gate_floor:
        tolerance = gates["ci_regression_tolerance"]
        ci_floor = {"tolerance": tolerance, "backends": {}}
        for kernel in kernels:
            reference = baselines["ci_floor"][kernel]["int_yield_events_per_sec"]
            measured = kernel_section[kernel]["int_yield"]["events_per_sec"]
            floor = (1.0 - tolerance) * reference
            ci_floor["backends"][kernel] = {
                "reference_events_per_sec": reference,
                "measured_events_per_sec": measured,
                "floor_events_per_sec": floor,
                "passed": measured >= floor,
            }
            if measured < floor:
                failures.append(
                    "ci floor: %s int_yield is below %.0f ev/s, %.0f%% under "
                    "the %.0f reference in baselines.json"
                    % (kernel, floor, tolerance * 100, reference)
                )

    report = {
        "smoke": smoke,
        "kernels": list(kernels),
        "kernel": kernel_section,
        "ab": ab,
        "table2": table2_section,
        "backend_parity": parity,
        "baselines": baselines,
        "failures": failures,
        # Self-describing artifact: which code, which config, which
        # backends and which host produced these numbers.
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
            **environment(),
        },
    }
    if ci_floor is not None:
        report["ci_floor"] = ci_floor
    return report, failures


def _print_summary(report: dict) -> None:
    provenance = report["provenance"]
    print(
        "provenance: backend=%s options=%s rev=%s python=%s cpus=%d"
        % (
            ",".join(provenance["backends"]),
            provenance["options_hash"],
            provenance["git_rev"],
            provenance["python"],
            provenance["cpus"],
        )
    )
    for kernel in report["kernels"]:
        section = report["kernel"][kernel]
        table2 = report["table2"][kernel]
        print(
            "%-8s int_yield : %8.0f events/sec"
            % (kernel, section["int_yield"]["events_per_sec"])
        )
        print("%-8s mixed     : %8.4f s" % (kernel, section["mixed"]["seconds"]))
        print(
            "%-8s table2    : seq %.2f s  jobs=%d %.2f s"
            % (
                kernel,
                table2["sequential_seconds"],
                table2["jobs"],
                table2["parallel_seconds"],
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
