"""End-to-end benchmark: the paper tables, a DSE sweep and a fuzz campaign.

Each round of a workload runs in a fresh interpreter (``round.py``), one
at a time, with ``jobs=1`` inside.  Timed rounds fill about ``--seconds``
(at least three run); then, with ``--trace 1``, one more round runs
under cProfile and its self time is split by layer (``layers.py``).  The
command prints every metric with its unit, checks every round's outputs
against ``pins.json``, writes ``results.json`` (plus the traced rounds'
``.pstats``) to ``--out``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``
and its ``per_layer`` metrics with ``--trace 1`` (names prefixed with the
workload when several run).

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                 [--trace 0|1] [--out DIR] [--smoke]
    python benchmarks/e2e/run.py --compare BASE HEAD

``--compare`` reads two ``results.json`` files (or the directories holding
them), prints a verdict per workload and end-to-end metric plus the
per-layer deltas of the traced rounds, and exits 1 on any ``worse``
verdict or any rise in ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
PINS_JSON = os.path.join(HERE, "pins.json")

sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402

WORKLOADS = ("table2", "tables345", "dse", "fuzz")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120
#: What each timed round measures, with its unit and the statistic of a
#: run's rounds that the result line reports.  A round's work is fixed, so
#: a slower round is the shared host's doing, in bursts and in phases that
#: last minutes: over 30-second windows of Table II rounds, the fastest
#: round's IQR stayed within 15 % of its median where the median round's
#: reached 23 %.  Set-up time is reported as a median.
ROUND_METRICS = (
    ("wall_s", "s", "min"),
    ("setup_s", "s", "median"),
    ("peak_rss_mb", "MB", "median"),
)


def load_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def _child_env() -> Dict[str, str]:
    # Rounds pick their kernel explicitly and write no ledger; keep the
    # caller's REPRO_* settings out of them.
    return {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}


def run_round(
    workload: str, smoke: bool, out_dir: str, pstats_path: Optional[str] = None
) -> Dict[str, Any]:
    """One round in a fresh interpreter; a crash or a timeout becomes a
    failed round with a problem string."""
    command = [sys.executable, os.path.join(HERE, "round.py"), workload, "--scratch", out_dir]
    if smoke:
        command.append("--smoke")
    if pstats_path:
        command += ["--pstats", pstats_path]
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT_S,
            cwd=ROOT,
            env=_child_env(),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": ["timed out after %d s" % ROUND_TIMEOUT_S]}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "problems": ["exit code %d: %s" % (proc.returncode, tail)]}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["ok"] = not record["problems"]
    return record


def check_pins(record: Dict[str, Any], pins: Dict[str, str]) -> None:
    """Fail ``record`` on any output fingerprint that differs from its pin."""
    for name, pin in sorted(pins.items()):
        got = record["fingerprints"].get(name)
        if got != pin:
            record["problems"].append("%s fingerprint %s differs from pin %s" % (name, got, pin))
    record["ok"] = not record["problems"]


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    """Minimum, median, quartiles and sample count (the IQR is 0 below two
    samples)."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "min": min(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
        "samples": values,
    }


def _trace_summary(record: Dict[str, Any], wall_median: float, pstats_name: str) -> Dict[str, Any]:
    layers = record.pop("layers")
    wall = record["wall_s"]
    self_total = sum(entry["self_s"] for entry in layers.values())
    return {
        "wall_s": wall,
        "events": record["events"],
        "overhead": wall / wall_median,
        "self_s_total": self_total,
        "layers": layers,
        "pstats": pstats_name,
        # Health of the attribution: the layers' self time should cover the
        # traced wall time, and little of it should be left in `other`.
        "self_covers_wall": abs(self_total - wall) <= 0.05 * wall,
        "other_below_2pct": layers["other"]["share"] < 0.02,
    }


def run_workload(
    workload: str,
    seconds: float,
    trace: bool,
    out_dir: str,
    smoke: bool = False,
    pins: Optional[Dict[str, Dict[str, str]]] = None,
) -> Dict[str, Any]:
    """Timed rounds within ``seconds`` (at least :data:`MIN_ROUNDS`), then the
    traced round if ``trace``.  Stops at the first failed round.  Outputs
    are checked against ``pins`` (default ``pins.json``) unless ``smoke``."""
    pins = load_json(PINS_JSON) if pins is None else pins
    rounds: List[Dict[str, Any]] = []

    def attempt(pstats_path: Optional[str] = None) -> Dict[str, Any]:
        record = run_round(workload, smoke, out_dir, pstats_path)
        if record["ok"] and not smoke:
            check_pins(record, pins[workload])
        rounds.append(record)
        return record

    start = time.perf_counter()
    while True:
        done = len(rounds)
        # Start another round only while it should end within `seconds`,
        # so a run lasts about `seconds` however long its rounds are.
        if done >= MIN_ROUNDS and (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
        if not attempt()["ok"]:
            break
    timed = [record for record in rounds if "wall_s" in record]
    entry: Dict[str, Any] = {
        "metrics": {
            name: dict(summarize([record[name] for record in timed]), unit=unit, reported=stat)
            for name, unit, stat in ROUND_METRICS
            if timed
        },
    }
    if rounds[-1]["ok"]:
        entry["fingerprints"] = rounds[0]["fingerprints"]
        entry["model_error"] = rounds[0]["model_error"]
        if trace:
            pstats_path = os.path.join(out_dir, workload + ".pstats")
            record = attempt(pstats_path)
            if record["ok"]:
                entry["trace"] = _trace_summary(
                    record, entry["metrics"]["wall_s"]["median"], os.path.basename(pstats_path)
                )
    entry["rounds"] = rounds
    entry["attempted"] = len(rounds)
    entry["failed"] = sum(1 for record in rounds if not record["ok"])
    entry["fail_ratio"] = entry["failed"] / entry["attempted"]
    return entry


def layer_metrics(trace: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """``{name: (value, unit)}`` for every per-layer metric of a traced round."""
    flat: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        entry = trace["layers"][layer]
        flat[layer + ".self_s"] = (entry["self_s"], "s")
        flat[layer + ".share"] = (entry["share"], "fraction")
        flat[layer + ".calls"] = (entry["calls"], "count")
    flat["sim.kernel.events"] = (trace["events"], "count")
    flat["trace.overhead"] = (trace["overhead"], "ratio")
    return flat


def result_line(
    entries: Dict[str, Dict[str, Any]], trace: bool, benchmark: Dict[str, Any]
) -> Dict[str, Any]:
    """The closing JSON object: the declared metrics of every workload run."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload, entry in entries.items():
        prefix = workload + "." if len(entries) > 1 else ""
        if trace:
            flat = layer_metrics(entry["trace"]) if "trace" in entry else {}
            declared = benchmark["per_layer"]
        else:
            flat = {name: (m[m["reported"]], m["unit"]) for name, m in entry["metrics"].items()}
            declared = benchmark["end_to_end"]
        for metric in declared:
            if metric["name"] in flat:
                value, unit = flat[metric["name"]]
                metrics[prefix + metric["name"]] = {"value": value, "unit": unit}
    attempted = sum(entry["attempted"] for entry in entries.values())
    failed = sum(entry["failed"] for entry in entries.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _git_state() -> Tuple[Optional[str], Optional[bool]]:
    """(revision, dirty) of the checkout, or (None, None) outside git."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None, None
        rev = git("rev-parse", "HEAD").stdout.strip()
        return rev, bool(git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def provenance(seed: int, seconds: float) -> Dict[str, Any]:
    rev, dirty = _git_state()
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_1m_before": os.getloadavg()[0],
        "seed": seed,
        "seconds": seconds,
        "started": _now(),
    }


def print_workload(workload: str, entry: Dict[str, Any]) -> None:
    print("== %s: %d round(s), %d failed" % (workload, entry["attempted"], entry["failed"]))
    for name, metric in entry["metrics"].items():
        print(
            "  %-13s %11.4f %-5s %s of %d; median %.4f, IQR %.4f"
            % (
                (name, metric[metric["reported"]], metric["unit"], metric["reported"])
                + (metric["n"], metric["median"], metric["iqr"])
            )
        )
    print("  %-13s %11.4f" % ("fail_ratio", entry["fail_ratio"]))
    for record in entry["rounds"]:
        for problem in record["problems"]:
            print("  FAILED: %s" % problem)
    for table, error in sorted(entry.get("model_error", {}).items()):
        print("  %-13s %10.1f %%  mean relative error vs the paper" % (table, 100 * error))
    trace = entry.get("trace")
    if trace:
        print(
            "  traced round  %11.4f s     %.2fx wall_s; layer self time covers %.1f %% of it"
            % (trace["wall_s"], trace["overhead"], 100 * trace["self_s_total"] / trace["wall_s"])
        )
        for layer in LAYERS:
            values = trace["layers"][layer]
            print(
                "    %-12s %9.4f s %7.2f %% %11d calls"
                % (layer, values["self_s"], 100 * values["share"], values["calls"])
            )
        print("    %-12s %9d events" % ("sim.kernel", trace["events"]))
    sys.stdout.flush()


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def verdict(base: Sequence[float], head: Sequence[float], bound: float, better: str) -> str:
    """``worse`` when HEAD's median is past the bound; ``unresolved`` when
    BASE's IQR is wider than the bound and HEAD's samples do not all beat
    BASE's; ``better`` when HEAD's median improves by more than the bound;
    else ``unchanged``."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change = sign * (statistics.median(head) - base_median) / base_median
    if change > bound:
        return "worse"
    base_iqr = summarize(base)["iqr"] / base_median
    all_beat = max(sign * value for value in head) < min(sign * value for value in base)
    if base_iqr > bound and not all_beat:
        return "unresolved"
    if -change > bound:
        return "better"
    return "unchanged"


def _load_results(path: str) -> Dict[str, Any]:
    return load_json(os.path.join(path, "results.json") if os.path.isdir(path) else path)


def compare(base_path: str, head_path: str, benchmark: Dict[str, Any]) -> int:
    base, head = _load_results(base_path), _load_results(head_path)
    workloads = [
        name for name in WORKLOADS if name in base["workloads"] and name in head["workloads"]
    ]
    bad = 0
    print(
        "%-10s %-12s %11s %9s %3s %11s %9s %3s %8s  %s"
        % ("workload", "metric", "base", "IQR", "n", "head", "IQR", "n", "change", "verdict")
    )
    for workload in workloads:
        b_entry, h_entry = base["workloads"][workload], head["workloads"][workload]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if name not in b_entry["metrics"] or name not in h_entry["metrics"]:
                print("%-10s %-12s missing" % (workload, name))
                bad += 1
                continue
            b, h = b_entry["metrics"][name], h_entry["metrics"][name]
            result = verdict(b["samples"], h["samples"], metric["bound"], metric["better"])
            bad += result == "worse"
            print(
                "%-10s %-12s %11.4f %9.4f %3d %11.4f %9.4f %3d %+7.1f%%  %s"
                % (
                    workload,
                    name,
                    b["median"],
                    b["iqr"],
                    b["n"],
                    h["median"],
                    h["iqr"],
                    h["n"],
                    100 * (h["median"] - b["median"]) / b["median"],
                    result,
                )
            )
        b_fail, h_fail = b_entry["fail_ratio"], h_entry["fail_ratio"]
        result = "worse" if h_fail > b_fail else ("better" if h_fail < b_fail else "unchanged")
        bad += result == "worse"
        print(
            "%-10s %-12s %11.4f %9s %3d %11.4f %9s %3d %8s  %s"
            % (
                (workload, "fail_ratio", b_fail, "", b_entry["attempted"])
                + (h_fail, "", h_entry["attempted"], "", result)
            )
        )
    for workload in workloads:
        b_trace = base["workloads"][workload].get("trace")
        h_trace = head["workloads"][workload].get("trace")
        if not (b_trace and h_trace):
            continue
        print("\ntraced round deltas, %s (self_s in s)" % workload)
        print(
            "  %-12s %9s %9s %9s %11s %11s %11s"
            % ("layer", "base", "head", "delta", "base calls", "head calls", "delta")
        )
        for layer in LAYERS:
            b, h = b_trace["layers"][layer], h_trace["layers"][layer]
            print(
                "  %-12s %9.4f %9.4f %+9.4f %11d %11d %+11d"
                % (
                    (layer, b["self_s"], h["self_s"], h["self_s"] - b["self_s"])
                    + (b["calls"], h["calls"], h["calls"] - b["calls"])
                )
            )
        b_events, h_events = b_trace["events"], h_trace["events"]
        print(
            "  %-12s %9s %9s %9s %11d %11d %+11d"
            % ("events", "", "", "", b_events, h_events, h_events - b_events)
        )
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = load_json(BENCHMARK_JSON)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS, help="default: all")
    parser.add_argument(
        "--seed", type=int, default=2003, help="recorded only: every workload has fixed inputs"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=benchmark["run_seconds"],
        help="timed-round budget per workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1, help="add the traced round"
    )
    parser.add_argument("--out", default=os.path.join(ROOT, ".repro", "e2e"))
    parser.add_argument("--smoke", action="store_true", help="tiny scales, pins skipped")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare[0], args.compare[1], benchmark)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no repro sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    results: Dict[str, Any] = {"provenance": provenance(args.seed, args.seconds), "workloads": {}}
    for workload in args.workload or WORKLOADS:
        entry = run_workload(workload, args.seconds, bool(args.trace), args.out, args.smoke)
        results["workloads"][workload] = entry
        print_workload(workload, entry)
    results["provenance"].update(
        loadavg_1m_after=os.getloadavg()[0],
        finished=_now(),
        rounds={name: entry["attempted"] for name, entry in results["workloads"].items()},
        smoke=args.smoke,
    )
    with open(os.path.join(args.out, "results.json"), "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    line = result_line(results["workloads"], bool(args.trace), benchmark)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
