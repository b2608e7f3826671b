"""Command-line interface: ``python -m repro``.

The user-facing face of BusSyn -- Figure 18's flow from the shell::

    python -m repro generate --preset GBAVIII --pes 4 --out ./generated
    python -m repro generate --options my_system.txt --out ./generated
    python -m repro simulate --preset SPLITBA --app ofdm --style FPA
    python -m repro table 2          # reprint a table of the paper
    python -m repro list             # available presets / components

``generate`` writes one ``.v`` per module plus ``<top>_all.v`` and a
``report.txt`` (generation time, gate count, lint result).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.busyn import BusSyn
from .options import presets
from .options.inputfile import parse_option_file
from .options.schema import OptionError
from .sim.kernel import KERNEL_BACKENDS, SimulationError, check_kernel, default_kernel

__all__ = ["main"]


def _load_spec(args):
    if args.options:
        return parse_option_file(args.options)
    return presets.preset(args.preset, args.pes)


def _ledger_for(args):
    """The run ledger selected by ``--ledger``/``--no-ledger``, or None.

    Default directory: ``$REPRO_LEDGER`` or ``.repro/ledger`` under the
    current directory.  Every ledger-aware verb appends one RunRecord;
    ``repro report`` reads them back (docs/observability.md).
    """
    if getattr(args, "no_ledger", False):
        return None
    from .obs.ledger import DEFAULT_LEDGER_DIR, Ledger

    root = (
        getattr(args, "ledger", None)
        or os.environ.get("REPRO_LEDGER")
        or DEFAULT_LEDGER_DIR
    )
    return Ledger(root)


def _spec_options(args, spec, **extra):
    """The option surface that identifies a run (hashed into the ledger)."""
    options = {"arch": spec.name, "pes": spec.pe_count}
    if getattr(args, "options", None):
        options["options_file"] = args.options
    options.update(extra)
    return options


def _cmd_generate(args) -> int:
    spec = _load_spec(args)
    generated = BusSyn().generate(spec)
    report = generated.report
    messages = generated.lint()
    errors = [m for m in messages if m.severity == "error"]
    warnings = [m for m in messages if m.severity == "warning"]
    os.makedirs(args.out, exist_ok=True)
    files = generated.files()
    for file_name, text in files.items():
        with open(os.path.join(args.out, file_name), "w") as handle:
            handle.write(text)
    with open(os.path.join(args.out, "%s_all.v" % generated.top_name), "w") as handle:
        handle.write(generated.verilog())
    with open(os.path.join(args.out, "report.txt"), "w") as handle:
        handle.write(report.row() + "\n")
        handle.write("lint errors: %d\n" % len(errors))
        handle.write("lint warnings: %d\n" % len(warnings))
        for message in errors + warnings:
            handle.write("  %s\n" % message)
        for name, gates in sorted(report.gate_breakdown.items()):
            handle.write("  %-30s %8d gates\n" % (name, gates))
    print(report.row())
    if errors:
        lint_line = "%d errors, %d warnings" % (len(errors), len(warnings))
    elif warnings:
        lint_line = "clean, %d warnings" % len(warnings)
    else:
        lint_line = "clean"
    print("lint: %s" % lint_line)
    print("wrote %d Verilog files to %s" % (len(files) + 1, args.out))
    if errors or (args.strict and warnings):
        return 1
    return 0


def _run_app(machine, spec, args) -> dict:
    """Run the selected --app on ``machine``; print its headline line and
    return the run's summary dict (ledger payload)."""
    if args.app == "ofdm":
        from .apps.ofdm import OfdmParameters, run_ofdm

        result = run_ofdm(machine, args.style, OfdmParameters(packets=args.packets))
        print(
            "%s OFDM %s: %.4f Mbps (%d cycles, %.2f ms)"
            % (spec.name, args.style, result.throughput_mbps, result.cycles,
               result.seconds * 1e3)
        )
        return {
            "app": "ofdm",
            "style": args.style,
            "packets": args.packets,
            "cycles": result.cycles,
            "throughput_mbps": result.throughput_mbps,
        }
    elif args.app == "mpeg2":
        from .apps.mpeg2.codec import synthetic_video
        from .apps.mpeg2.parallel import run_mpeg2

        result = run_mpeg2(machine, synthetic_video(args.frames))
        print(
            "%s MPEG2: %.4f Mbps (%d GOPs, %d frames decoded)"
            % (spec.name, result.throughput_mbps, result.gops, len(result.frames))
        )
        return {
            "app": "mpeg2",
            "frames": args.frames,
            "gops": result.gops,
            "frames_decoded": len(result.frames),
            "throughput_mbps": result.throughput_mbps,
        }
    elif args.app == "database":
        from .apps.database import run_database

        result = run_database(machine)
        print(
            "%s database: %.0f ns (%d tasks)"
            % (spec.name, result.execution_time_ns, result.tasks_completed)
        )
        return {
            "app": "database",
            "execution_time_ns": result.execution_time_ns,
            "tasks_completed": result.tasks_completed,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit("unknown app %r" % args.app)


def _cmd_simulate(args) -> int:
    import time

    from .sim.fabric import build_machine

    spec = _load_spec(args)
    machine = build_machine(spec, kernel=args.kernel)
    start = time.perf_counter()
    summary = _run_app(machine, spec, args)
    wall = time.perf_counter() - start
    ledger = _ledger_for(args)
    if ledger is not None:
        backend = machine.sim.kernel_name
        ledger.write(
            "simulate",
            options=_spec_options(args, spec, kernel=backend, app=args.app),
            backend=backend,
            arch=spec.name,
            summary=summary,
            sim_cycles=machine.sim.now,
            wall_seconds=wall,
        )
    return 0


def _cmd_trace(args) -> int:
    """Run one app with the observability layer on; export the transaction
    trace (Chrome trace_event and/or JSONL) and the RunReport."""
    import time

    from .obs import Observability
    from .obs.tracer import write_chrome_trace, write_jsonl
    from .sim.fabric import build_machine

    spec = _load_spec(args)
    machine = build_machine(spec, kernel=args.kernel)
    obs = Observability()
    machine.attach_observability(obs)
    start = time.perf_counter()
    _run_app(machine, spec, args)
    wall = time.perf_counter() - start
    report = machine.run_report(
        wall_seconds=wall, name="%s %s" % (spec.name, args.app)
    )
    out = args.out
    if args.format in ("chrome", "both"):
        # The registry turns per-segment occupancy into Perfetto counter
        # tracks alongside the span lanes.
        write_chrome_trace(obs.tracer, out, registry=obs.registry)
        print("wrote Chrome trace %s (%d transactions) -- open in Perfetto"
              % (out, len(obs.tracer.transactions)))
    if args.format in ("jsonl", "both"):
        jsonl_out = out if args.format == "jsonl" else out + "l"
        write_jsonl(obs.tracer, jsonl_out)
        print("wrote JSONL trace %s" % jsonl_out)
    if args.report:
        report.to_json(args.report)
        print("wrote run report %s" % args.report)
    for line in report.summary_lines():
        print(line)
    return 0


# ``repro stats N``: scale knobs per table (full vs --quick sizing).
_STATS_SCALES = {
    2: ({"packets": 8}, {"packets": 2}),
    3: ({"frame_count": 16}, {"frame_count": 4}),
    4: ({"client_count": 40}, {"client_count": 10}),
    5: ({}, {"pe_counts": [1, 8]}),
}


def _cmd_stats(args) -> int:
    """Re-run one table with telemetry on; print per-case RunReports and the
    deterministic cross-case aggregate (optionally saved as JSON)."""
    import json

    from .experiments import table2, table3, table4, table5
    from .obs.report import RunReport, aggregate_run_reports

    runners = {
        2: table2.run_table2_telemetry,
        3: table3.run_table3_telemetry,
        4: table4.run_table4_telemetry,
        5: table5.run_table5_telemetry,
    }
    full, quick = _STATS_SCALES[args.number]
    scale = quick if args.quick else full
    rows, telemetry = runners[args.number](jobs=args.jobs, kernel=args.kernel, **scale)
    reports = [report for entry in telemetry for report in entry.run_reports]
    print("Table %d telemetry (%d cases, jobs=%d)" % (args.number, len(rows), args.jobs))
    for report_dict in reports:
        report = RunReport(**{
            key: report_dict[key]
            for key in (
                "name", "wall_seconds", "simulated_cycles", "events_processed",
                "peak_queue_depth", "segments", "pes", "fifos", "bridges", "extras",
            )
            if key in report_dict
        })
        for line in report.summary_lines():
            print(line)
    aggregate = aggregate_run_reports(reports)
    print(
        "aggregate: %d runs, %d cycles, %d events, overall utilization %.1f%%, "
        "peak queue depth %d"
        % (
            aggregate["runs"],
            aggregate["simulated_cycles"],
            aggregate["events_processed"],
            100.0 * aggregate["overall_utilization"],
            aggregate["peak_queue_depth"],
        )
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"table": args.number, "cases": reports, "aggregate": aggregate},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print("wrote %s" % args.out)
    return 0


def _cmd_table(args) -> int:
    import time

    from .experiments import table2, table3, table4, table5

    module = {2: table2, 3: table3, 4: table4, 5: table5}[args.number]
    start = time.perf_counter()
    rows = module.main(jobs=args.jobs, kernel=args.kernel)
    wall = time.perf_counter() - start
    ledger = _ledger_for(args)
    if ledger is not None:
        backend = args.kernel or default_kernel()
        ledger.write(
            "table",
            options={
                "table": args.number,
                "jobs": args.jobs,
                "kernel": backend,
            },
            backend=backend,
            arch=sorted({row.bus_system for row in rows}),
            summary={
                "table": args.number,
                "rows": [vars(row) for row in rows],
            },
            wall_seconds=wall,
        )
    return 0


def _cmd_bench(args) -> int:
    """Run the perf harness (repro.bench.harness) and ledger the report."""
    import json
    import time

    from .bench.harness import DEFAULT_OUT, _print_summary, run_harness

    kernels = (args.kernel,) if args.kernel else KERNEL_BACKENDS
    out = args.out or DEFAULT_OUT
    start = time.perf_counter()
    report, failures = run_harness(
        kernels=kernels,
        smoke=args.smoke,
        jobs=args.jobs,
        rounds=args.rounds,
        enforce_floor=args.enforce_floor,
        baselines_path=args.baselines,
    )
    wall = time.perf_counter() - start
    _print_summary(report)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % out)
    ledger = _ledger_for(args)
    if ledger is not None:
        # The frozen baselines ride along in the artifact but would bloat
        # every record, and the provenance repeats what the record holds
        # itself: revision, options hash and backends in its body, the
        # environment in its envelope.
        summary = {
            key: value
            for key, value in report.items()
            if key not in ("baselines", "provenance")
        }
        ledger.write(
            "bench",
            options={
                "kernels": list(kernels),
                "smoke": args.smoke,
                "jobs": args.jobs,
                "rounds": args.rounds,
                "enforce_floor": args.enforce_floor,
            },
            backend=list(kernels),
            summary=summary,
            wall_seconds=wall,
        )
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    return 0


# One representative (worker, case) per table for ``repro profile``.
_PROFILE_CASES = {
    2: ("repro.experiments.table2", "run_table2_case", (7, "SPLITBA", "FPA")),
    3: ("repro.experiments.table3", "run_table3_case", (10, "BFBA")),
    4: ("repro.experiments.table4", "run_table4_case", (15, "GGBA")),
    5: ("repro.experiments.table5", "run_table5_case", ("HYBRID", 24)),
}


def _cmd_profile(args) -> int:
    """Run one representative case of a table under cProfile and print the
    top cumulative-time hotspots (the workflow behind the kernel fast
    paths; ``python -m repro bench`` covers the regression side)."""
    import cProfile
    import importlib
    import json
    import pstats

    from .obs.ledger import git_revision, options_hash

    module_name, worker_name, case = _PROFILE_CASES[args.number]
    worker = getattr(importlib.import_module(module_name), worker_name)
    # Table V generates RTL and simulates nothing: it has no backend.
    backend = None if args.number == 5 else args.kernel or default_kernel()
    kwargs = {} if backend is None else {"kernel": backend}
    profiler = cProfile.Profile()
    profiler.enable()
    result = worker(case, **kwargs)
    profiler.disable()
    provenance = {
        "backend": backend,
        "options_hash": options_hash(
            {"table": args.number, "case": list(case), "kernel": backend}
        ),
        "git_rev": git_revision(),
        "case": "%s.%s%r" % (module_name, worker_name, case),
    }
    print("profiled %s.%s(%r)" % (module_name, worker_name, case))
    print(
        "provenance: backend=%s options=%s rev=%s"
        % (backend, provenance["options_hash"], provenance["git_rev"])
    )
    print("result: %r" % (result,))
    if args.out:
        profiler.dump_stats(args.out)
        # pstats dumps are opaque binaries; the sidecar makes the artifact
        # self-describing and ledger-correlatable.
        with open(args.out + ".provenance.json", "w") as handle:
            json.dump(provenance, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            "wrote pstats dump %s (+ %s.provenance.json; load with "
            "pstats.Stats(%r))" % (args.out, args.out, args.out)
        )
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.top)
    return 0


def _cmd_chaos(args) -> int:
    """Run the seeded fault-injection sweep (docs/robustness.md)."""
    import json
    import time

    from .faults.chaos import CHAOS_ARCHITECTURES, format_chaos_summary, run_chaos

    backends = tuple(args.backends or KERNEL_BACKENDS)
    start = time.perf_counter()
    summary = run_chaos(
        seed=args.seed,
        scenario="smoke" if args.smoke else args.scenario,
        archs=args.arch or CHAOS_ARCHITECTURES,
        backends=backends,
        packets=args.packets,
        pe_count=args.pes,
        jobs=args.jobs,
    )
    wall = time.perf_counter() - start
    for line in format_chaos_summary(summary):
        print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    ledger = _ledger_for(args)
    if ledger is not None:
        ledger.write(
            "chaos",
            options={
                "seed": args.seed,
                "scenario": summary["scenario"],
                "architectures": list(summary["architectures"]),
                "backends": list(backends),
                "packets": args.packets,
                "pes": args.pes,
            },
            backend=list(backends),
            arch=list(summary["architectures"]),
            summary=summary,
            wall_seconds=wall,
        )
    return 0 if summary["ok"] else 1


def _cmd_verify(args) -> int:
    """Run the cross-layer verification sweep (docs/verification.md)."""
    import json

    from .verify.runner import SMOKE_ARCHITECTURES, format_verify_summary, run_verify

    import time

    archs = args.arch
    if not archs:
        archs = SMOKE_ARCHITECTURES if args.smoke else None
    backends = tuple(args.backends or KERNEL_BACKENDS)
    start = time.perf_counter()
    summary = run_verify(
        archs=archs,
        backends=backends,
        packets=args.packets,
        pe_count=args.pes,
        jobs=args.jobs,
        data_width=args.data_width,
    )
    wall = time.perf_counter() - start
    for line in format_verify_summary(summary):
        print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    ledger = _ledger_for(args)
    if ledger is not None:
        ledger.write(
            "verify",
            options={
                "architectures": list(summary["architectures"]),
                "backends": list(backends),
                "packets": args.packets,
                "pes": args.pes,
                "data_width": args.data_width,
            },
            backend=list(backends),
            arch=list(summary["architectures"]),
            summary=summary,
            wall_seconds=wall,
        )
    return 0 if summary["ok"] else 1


def _fmt_cost(value) -> str:
    return "-" if value is None else "%.3f" % value


def _cmd_report(args) -> int:
    """Query the run ledger: aggregate, diff two runs, or gate regressions."""
    import json

    from .obs.ledger import DEFAULT_LEDGER_DIR, Ledger
    from .obs.query import (
        aggregate_records,
        check_regressions,
        coverage_rows,
        diff_bodies,
        envelope_pairs,
        filter_records,
        find_pair,
    )

    root = args.ledger or os.environ.get("REPRO_LEDGER") or DEFAULT_LEDGER_DIR
    ledger = Ledger(root)
    if not ledger.exists:
        print("repro report: no ledger at %s" % ledger.records_path, file=sys.stderr)
        return 2

    if args.diff:
        try:
            left, right = find_pair(ledger, *args.diff)
        except LookupError as error:
            print("repro: %s" % error, file=sys.stderr)
            return 2
        diffs = diff_bodies(left, right)
        costs = envelope_pairs(left, right)
        if args.json:
            print(
                json.dumps(
                    {
                        "left": left["hash"],
                        "right": right["hash"],
                        "diffs": [
                            {"field": field, "left": a, "right": b}
                            for field, a, b in diffs
                        ],
                        "envelope": {
                            field: {"left": a, "right": b} for field, a, b in costs
                        },
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print("diff %s .. %s" % (left["hash"][:12], right["hash"][:12]))
            if not diffs:
                print("  identical hashed bodies")
            for field, a, b in diffs:
                print("  %-40s %r -> %r" % (field, a, b))
            for field, a, b in costs:
                print("  envelope.%-31s %s -> %s" % (field, _fmt_cost(a), _fmt_cost(b)))
        return 1 if diffs and args.check else 0

    records = filter_records(
        ledger.records(), verb=args.verb, backend=args.backend, arch=args.arch
    )
    if args.check:
        findings = check_regressions(records)
        if args.json:
            print(json.dumps({"findings": findings}, indent=2, sort_keys=True))
        else:
            print(
                "checked %d record(s): %d regression(s)"
                % (len(records), len(findings))
            )
            for finding in findings:
                print(
                    "  REGRESSION %s [%s] %s"
                    % (finding["hash"], finding["verb"], finding["message"])
                )
        return 1 if findings else 0

    rows = aggregate_records(records)
    coverage = coverage_rows(records)
    if args.json:
        print(
            json.dumps(
                {"groups": rows, "coverage": coverage}, indent=2, sort_keys=True
            )
        )
        return 0
    print(
        "%-10s %-28s %-14s %5s %-14s %-8s %s"
        % ("verb", "arch", "backend", "runs", "last_hash", "rev", "options")
    )
    for row in rows:
        print(
            "%-10s %-28s %-14s %5d %-14s %-8s %s"
            % (
                row["verb"],
                row["arch"][:28],
                row["backend"][:14],
                row["runs"],
                row["last_hash"],
                row["last_rev"] or "-",
                row["options_hash"] or "-",
            )
        )
    print("%d record(s), %d group(s)" % (len(records), len(rows)))
    for row in coverage:
        print(
            "coverage %s: %d run(s), %d config(s) evaluated, cache %d hit(s) / "
            "%d miss(es) (%.0f%%)"
            % (
                row["verb"],
                row["runs"],
                row["evaluated"],
                row["cache_hits"],
                row["cache_misses"],
                row["cache_hit_ratio"] * 100,
            )
        )
        if row["skipped"]:
            print(
                "  skipped: "
                + ", ".join(
                    "%s=%d" % (reason, count)
                    for reason, count in row["skipped"].items()
                )
            )
    return 0


def _cmd_dse(args) -> int:
    """Run a design-space-exploration sweep (docs/dse.md)."""
    import json
    import time

    from .dse.cache import DEFAULT_CACHE_DIR
    from .dse.engine import format_sweep_lines, run_sweep
    from .dse.pareto import format_frontier_lines, format_markdown_report
    from .dse.spec import SweepSpec, smoke_spec

    if args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
    if args.spec:
        sweep = SweepSpec.from_file(args.spec)
    else:
        sweep = smoke_spec()
    start = time.perf_counter()
    summary = run_sweep(
        sweep,
        jobs=args.jobs,
        kernel=args.kernel,
        budget=args.budget,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=print,
    )
    wall = time.perf_counter() - start
    for line in format_sweep_lines(summary, top=args.top):
        print(line)
    for line in format_frontier_lines(summary["frontier"]):
        print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(format_markdown_report(summary))
        print("wrote %s" % args.markdown)
    ledger = _ledger_for(args)
    if ledger is not None:
        # --jobs and cache state are scheduling facts, not design facts:
        # they stay out of the hashed options so cold/warm and 1-vs-N-job
        # sweeps of one spec land on the same options hash.
        ledger.write(
            "dse",
            options={
                "spec": summary["spec"],
                "spec_hash": summary["spec_hash"],
                "kernel": summary["kernel"],
                "budget": args.budget,
            },
            backend=summary["kernel"],
            arch=sorted({row["options"]["bus"] for row in summary["results"]}),
            summary=summary,
            wall_seconds=wall,
        )
    return 1 if summary["errors"] else 0


def _cmd_fuzz(args) -> int:
    """Fuzz the architecture space with the composed oracle (docs/fuzzing.md)."""
    import json
    import time

    from .dse.cache import DEFAULT_CACHE_DIR
    from .dse.engine import resolve_kernel
    from .fuzz import format_fuzz_lines, fuzz_fingerprint, run_fuzz
    from .fuzz.corpus import DEFAULT_CORPUS_DIR

    if args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
    if args.corpus is None:
        # The checked-in corpus lives at the repository root; replaying a
        # missing one would pass as an empty corpus.
        if not os.path.isdir(DEFAULT_CORPUS_DIR):
            print(
                "repro: no %s/ directory here: run from the repository root "
                "or pass --corpus DIR" % DEFAULT_CORPUS_DIR,
                file=sys.stderr,
            )
            return 2
        args.corpus = DEFAULT_CORPUS_DIR
    kernel = resolve_kernel(args.kernel)
    start = time.perf_counter()
    summary = run_fuzz(
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
        kernel=kernel,
        corpus_dir=args.corpus,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        write_findings=not args.no_write,
        progress=print,
    )
    wall = time.perf_counter() - start
    for line in format_fuzz_lines(summary):
        print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    ledger = _ledger_for(args)
    if ledger is not None:
        # --jobs and cache state are scheduling facts (same discipline as
        # repro dse); seed, budget and profile are the identity.
        ledger.write(
            "fuzz",
            options={
                "seed": args.seed,
                "budget": args.budget,
                "profile_hash": summary["profile_hash"],
                "oracle_version": summary["oracle_version"],
                "corpus": args.corpus,
                "kernel": kernel,
            },
            backend=kernel,
            arch=sorted(summary["profile"]["buses"]),
            summary={"fingerprint": fuzz_fingerprint(summary), **summary},
            wall_seconds=wall,
        )
    replay = summary["replay"]
    unstable = replay["regressions"] + replay["now_fixed"]
    if unstable:
        print(
            "corpus replay unstable: %d regression(s), %d entr(ies) now fixed "
            "(update corpus statuses)" % (replay["regressions"], replay["now_fixed"]),
            file=sys.stderr,
        )
    if summary["new_findings"]:
        print(
            "%d new finding(s)%s" % (
                summary["new_findings"],
                "" if args.no_write else " written to %s" % args.corpus,
            ),
            file=sys.stderr,
        )
    return 1 if (unstable or summary["new_findings"]) else 0


def _cmd_list(_args) -> int:
    from .moduledb import default_library

    print("presets:", ", ".join(sorted(presets.PRESETS)))
    print("library components:")
    for component in default_library().components():
        print("  %s" % component)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BusSyn: automated bus generation for multiprocessor SoC design",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Backend names are checked in main(), not by argparse choices, so a bad
    # name gets the same one-line exit as a bad $REPRO_SIM_KERNEL.
    kernel_metavar = "{%s}" % ",".join(KERNEL_BACKENDS)

    def add_spec_arguments(p):
        p.add_argument("--preset", default="GBAVIII", help="bus architecture preset")
        p.add_argument("--pes", type=int, default=4, help="processor count")
        p.add_argument("--options", help="user-option input file (Figure 18 format)")

    def add_kernel_argument(p):
        p.add_argument(
            "--kernel",
            metavar=kernel_metavar,
            help="scheduler backend (default: $REPRO_SIM_KERNEL or heap); "
            "see docs/performance.md",
        )

    def add_ledger_arguments(p):
        p.add_argument(
            "--ledger",
            metavar="DIR",
            help="run-ledger directory (default: $REPRO_LEDGER or .repro/ledger)",
        )
        p.add_argument(
            "--no-ledger",
            action="store_true",
            help="do not append a RunRecord to the run ledger",
        )

    generate = sub.add_parser("generate", help="generate synthesizable Verilog")
    add_spec_arguments(generate)
    generate.add_argument("--out", default="./generated", help="output directory")
    generate.add_argument(
        "--strict",
        action="store_true",
        help="treat lint warnings as errors (non-zero exit)",
    )
    generate.set_defaults(func=_cmd_generate)

    simulate = sub.add_parser("simulate", help="run an application on the bus system")
    add_spec_arguments(simulate)
    simulate.add_argument("--app", choices=["ofdm", "mpeg2", "database"], default="ofdm")
    simulate.add_argument("--style", choices=["PPA", "FPA"], default="FPA")
    simulate.add_argument("--packets", type=int, default=4)
    simulate.add_argument("--frames", type=int, default=16)
    add_kernel_argument(simulate)
    add_ledger_arguments(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    trace = sub.add_parser(
        "trace", help="run an app with tracing on and export the transaction trace"
    )
    add_spec_arguments(trace)
    trace.add_argument("--app", choices=["ofdm", "mpeg2", "database"], default="ofdm")
    trace.add_argument("--style", choices=["PPA", "FPA"], default="FPA")
    trace.add_argument("--packets", type=int, default=4)
    trace.add_argument("--frames", type=int, default=16)
    trace.add_argument(
        "-o", "--out", default="trace.json", help="trace output path"
    )
    trace.add_argument(
        "--format",
        choices=["chrome", "jsonl", "both"],
        default="chrome",
        help="chrome = trace_event JSON (Perfetto-loadable), jsonl = one record per line",
    )
    trace.add_argument("--report", help="also write the RunReport JSON here")
    add_kernel_argument(trace)
    trace.set_defaults(func=_cmd_trace)

    stats = sub.add_parser(
        "stats", help="re-run a table with telemetry and print RunReport summaries"
    )
    stats.add_argument("number", type=int, choices=[2, 3, 4, 5])
    stats.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent cases (1 = run inline)",
    )
    stats.add_argument(
        "--quick", action="store_true", help="reduced workload sizes (CI-friendly)"
    )
    stats.add_argument("-o", "--out", help="write case reports + aggregate as JSON")
    add_kernel_argument(stats)
    stats.set_defaults(func=_cmd_stats)

    table = sub.add_parser("table", help="reprint a table of the paper")
    table.add_argument("number", type=int, choices=[2, 3, 4, 5])
    table.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent cases (1 = run inline)",
    )
    add_kernel_argument(table)
    add_ledger_arguments(table)
    table.set_defaults(func=_cmd_table)

    bench = sub.add_parser(
        "bench",
        help="run the perf-regression harness (kernel + tables, per backend)",
    )
    bench.add_argument("--rounds", type=int, default=3, help="timing repeats (best-of)")
    bench.add_argument("--jobs", type=int, default=4, help="parallel runner workers")
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads; gates parity and row identity only "
        "(CI functional check)",
    )
    bench.add_argument(
        "--enforce-floor",
        action="store_true",
        help="with --smoke, still time the full-size int_yield and gate it "
        "against the ci_floor of benchmarks/baselines.json, as full runs do",
    )
    add_kernel_argument(bench)
    # Path defaults are filled in by the verbs, so that building the parser
    # loads neither the harness nor the DSE engine.
    bench.add_argument(
        "--baselines",
        help="baselines JSON path (default: benchmarks/baselines.json)",
    )
    bench.add_argument(
        "--out",
        help="output JSON path (default: repo-root BENCH_kernel.json)",
    )
    add_ledger_arguments(bench)
    bench.set_defaults(func=_cmd_bench)

    profile = sub.add_parser(
        "profile", help="profile one representative case of a table (cProfile)"
    )
    profile.add_argument("number", type=int, choices=[2, 3, 4, 5])
    profile.add_argument(
        "--top", type=int, default=20, help="hotspot lines to print"
    )
    profile.add_argument(
        "-o", "--out", help="dump raw cProfile stats here (pstats format)"
    )
    add_kernel_argument(profile)
    profile.set_defaults(func=_cmd_profile)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection sweep with recovery invariants "
        "(docs/robustness.md)",
    )
    chaos.add_argument(
        "--scenario",
        choices=["smoke", "default", "heavy"],
        default="default",
        help="fault scenario to compile (counts per fault kind)",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="shortcut for --scenario smoke (one fault per kind; CI gate)",
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    chaos.add_argument(
        "--arch",
        action="append",
        help="architecture to sweep (repeatable; default: the paper's five)",
    )
    chaos.add_argument(
        "--backend",
        action="append",
        dest="backends",
        metavar=kernel_metavar,
        help="scheduler backend (repeatable; default: every backend, with a "
        "parity check; faulted runs take the hooked fabric path, and the "
        "compiled backend's poll fast-forward moves the injector's "
        "counters in bulk)",
    )
    chaos.add_argument("--packets", type=int, default=4, help="OFDM packets per run")
    chaos.add_argument("--pes", type=int, default=4, help="processor count")
    chaos.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent cases (1 = run inline)",
    )
    chaos.add_argument("-o", "--out", help="write the full sweep summary as JSON")
    add_ledger_arguments(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    verify = sub.add_parser(
        "verify",
        help="netlist pin-level check + protocol assertion sweep "
        "(docs/verification.md)",
    )
    verify.add_argument(
        "--smoke",
        action="store_true",
        help="verify only the CI smoke subset (BFBA + SPLITBA)",
    )
    verify.add_argument(
        "--arch",
        action="append",
        help="architecture to verify (repeatable; default: every preset)",
    )
    verify.add_argument(
        "--backend",
        action="append",
        dest="backends",
        metavar=kernel_metavar,
        help="scheduler backend (repeatable; default: every backend, with a "
        "parity check; monitored runs take the hooked fabric path, and the "
        "compiled backend's poll fast-forward moves the monitors' "
        "counters in bulk)",
    )
    verify.add_argument("--packets", type=int, default=2, help="OFDM packets per run")
    verify.add_argument("--pes", type=int, default=4, help="processor count")
    verify.add_argument(
        "--data-width",
        type=int,
        default=None,
        help="bus/memory data width in bits applied to every bus and memory "
        "(default: the presets' 64); non-default widths exercise the "
        "width-parameterized generation path",
    )
    verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent cases (1 = run inline)",
    )
    verify.add_argument("-o", "--out", help="write the full sweep summary as JSON")
    add_ledger_arguments(verify)
    verify.set_defaults(func=_cmd_verify)

    report = sub.add_parser(
        "report",
        help="query the run ledger: aggregate, diff two runs, CI regression gate",
    )
    report.add_argument(
        "--ledger",
        metavar="DIR",
        help="run-ledger directory (default: $REPRO_LEDGER or .repro/ledger)",
    )
    report.add_argument("--verb", help="only records written by this verb")
    report.add_argument("--backend", help="only records for this scheduler backend")
    report.add_argument("--arch", help="only records touching this architecture")
    report.add_argument(
        "--diff",
        nargs=2,
        metavar=("HASH_A", "HASH_B"),
        help="field-by-field diff of two records (content-hash prefixes; "
        "the same hash twice compares its last two runs)",
    )
    report.add_argument(
        "--check",
        action="store_true",
        help="flag regressions (failed chaos/verify runs, unstable fuzz "
        "replays, bench runs with failures); exit 1 when any are found "
        "(with --diff: exit 1 when the bodies differ)",
    )
    report.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    report.set_defaults(func=_cmd_report)

    dse = sub.add_parser(
        "dse",
        help="design-space exploration: sharded sweep + Pareto report "
        "(docs/dse.md)",
    )
    dse.add_argument(
        "--spec",
        help="sweep specification JSON (axes/cases/score/seed; docs/dse.md); "
        "default: the built-in smoke sweep",
    )
    dse.add_argument(
        "--smoke",
        action="store_true",
        help="run the built-in smoke sweep (the default when --spec is absent)",
    )
    dse.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; shards are assigned by policy-family hash "
        "(a config's options apart from arbiter_policy), so the frontier is "
        "identical at any --jobs value",
    )
    dse.add_argument(
        "--budget",
        type=int,
        help="cap the queue at the first N configs (canonical order)",
    )
    dse.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the artifact cache (run every config again; a "
        "contention-free run still serves its arbiter-policy siblings)",
    )
    dse.add_argument(
        "--cache-dir",
        help="artifact-cache directory (default: .repro/dse)",
    )
    dse.add_argument("--top", type=int, default=10, help="ranked rows to print")
    dse.add_argument("-o", "--out", help="write the full sweep summary as JSON")
    dse.add_argument("--markdown", help="write the ranked report as markdown")
    add_kernel_argument(dse)
    add_ledger_arguments(dse)
    dse.set_defaults(func=_cmd_dse)

    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz random legal architectures through the composed oracle, "
        "auto-shrinking findings into the corpus (docs/fuzzing.md)",
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=100,
        help="unique legal cases to sample and judge (default: 100)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="generator seed; the same seed reproduces the same cases, "
        "findings and shrink traces (0 is a real seed)",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; cases are sharded by content hash, so the "
        "summary fingerprint is identical at any --jobs value",
    )
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        help="corpus directory replayed on start and extended with new "
        "findings (default: corpus/, which must exist)",
    )
    fuzz.add_argument(
        "--no-write",
        action="store_true",
        help="report findings without writing corpus entries (triage dry-run)",
    )
    fuzz.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore the artifact cache (re-judge every case)",
    )
    fuzz.add_argument(
        "--cache-dir",
        help="artifact-cache directory shared with repro dse (default: .repro/dse)",
    )
    fuzz.add_argument("-o", "--out", help="write the full fuzz summary as JSON")
    add_kernel_argument(fuzz)
    add_ledger_arguments(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    listing = sub.add_parser("list", help="list presets and library components")
    listing.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every backend name is checked here, before any work: a bad one would
    # otherwise surface mid-run (or after a table printed) as a traceback.
    names = list(getattr(args, "backends", None) or [])
    if getattr(args, "kernel", None):
        names.append(args.kernel)
    try:
        default_kernel()
        for name in names:
            check_kernel(name)
    except SimulationError as error:
        print("repro: %s" % error, file=sys.stderr)
        return 2
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader of stdout went away (``repro ... | head``): nothing is
        # wrong with the input.  Point stdout at /dev/null so the flush at
        # exit cannot fail again, and exit as SIGPIPE would have.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OptionError as error:
        print("repro: option error: %s" % error, file=sys.stderr)
        return 2
    except OSError as error:
        print("repro: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
