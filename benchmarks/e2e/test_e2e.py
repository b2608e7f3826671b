"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import shutil
import subprocess
import sys
from fnmatch import fnmatch

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

BENCHMARK = run.load_json(run.BENCHMARK_JSON)


def test_declared_workloads_are_the_ones_run():
    assert [workload["name"] for workload in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_every_module_resolves_to_exactly_one_layer():
    import repro

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__))
    modules = [
        os.path.relpath(os.path.join(dirpath, name), repro_dir).replace(os.sep, "/")
        for dirpath, _dirnames, names in os.walk(repro_dir)
        for name in names
        if name.endswith(".py")
    ]
    assert len(modules) > 100
    for relpath in modules:
        matches = [pattern for pattern, _ in layers.MODULE_LAYERS if fnmatch(relpath, pattern)]
        assert len(matches) == 1, (relpath, matches)
        assert layers.layer_of_module(relpath) in layers.LAYERS
        assert layers.layer_of_module(relpath) != "other", relpath


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seconds", "0"]
        + ["--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, line, run.load_json(os.path.join(str(out), "results.json"))


def test_smoke_emits_every_declared_metric(smoke):
    out, line, results = smoke
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 16
    for workload in run.WORKLOADS:
        entry = results["workloads"][workload]
        assert entry["fail_ratio"] == 0
        for metric in BENCHMARK["end_to_end"]:
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert entry["metrics"][metric["name"]]["n"] >= run.MIN_ROUNDS
        flat = run.layer_metrics(entry["trace"])
        for metric in BENCHMARK["per_layer"]:
            assert flat[metric["name"]][1] == metric["unit"], metric["name"]
            assert line["metrics"]["%s.%s" % (workload, metric["name"])]["unit"] == metric["unit"]
        assert os.path.isfile(os.path.join(str(out), entry["trace"]["pstats"]))
        assert entry["trace"]["self_covers_wall"]
    provenance = results["provenance"]
    for key in ("git_rev", "python", "numpy", "cpu_affinity", "loadavg_1m_after", "finished"):
        assert key in provenance


def test_traced_rounds_repeat_calls_and_events(smoke, tmp_path):
    _out, _line, results = smoke
    for workload in run.WORKLOADS:
        first = results["workloads"][workload]["trace"]
        again = run.run_round(workload, True, str(tmp_path), str(tmp_path / "again.pstats"))
        assert again["ok"], again["problems"]
        assert again["events"] == first["events"]
        assert {layer: entry["calls"] for layer, entry in again["layers"].items()} == {
            layer: entry["calls"] for layer, entry in first["layers"].items()
        }


def test_result_line_reports_each_metrics_statistic():
    samples = [2.0, 1.5, 3.0, 2.5]
    metrics = {
        name: dict(run.summarize(samples), unit=unit, reported=stat)
        for name, unit, stat in run.ROUND_METRICS
    }
    entry = {"metrics": metrics, "attempted": 4, "failed": 0}
    line = run.result_line({"table2": entry}, False, BENCHMARK)
    assert set(line["metrics"]) == {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert line["metrics"]["wall_s"]["value"] == 1.5
    assert line["metrics"]["setup_s"]["value"] == 2.25


BASE = [10.0, 10.1, 9.9, 10.05, 9.95]


@pytest.mark.parametrize(
    "base, head, expected",
    [
        (BASE, [8.0, 8.1, 7.9, 8.05, 7.95], "better"),
        (BASE, [12.0, 12.1, 11.9, 12.05, 11.95], "worse"),
        (BASE, [10.3, 10.4, 10.2, 10.35, 10.25], "unchanged"),
        ([8.0, 12.0, 9.0, 11.0, 10.0], [9.5, 10.5, 10.0, 9.8, 10.2], "unresolved"),
    ],
    ids=["clear-win", "clear-loss", "within-bound", "noisy"],
)
def test_compare_verdicts(base, head, expected):
    assert run.verdict(base, head, 0.1, "lower") == expected
    # The same cases as rates, where higher is better.
    rates = run.verdict([1 / x for x in base], [1 / x for x in head], 0.1, "higher")
    assert rates == expected


def _results(wall_samples, fail_ratio=0.0):
    metrics = {
        metric["name"]: dict(run.summarize(wall_samples), unit=metric["unit"])
        for metric in BENCHMARK["end_to_end"]
    }
    entry = {"metrics": metrics, "fail_ratio": fail_ratio, "attempted": len(wall_samples)}
    return {"provenance": {}, "workloads": {"table2": entry}}


@pytest.mark.parametrize(
    "head, code",
    [
        (_results(BASE), 0),
        (_results([x * 1.3 for x in BASE]), 1),
        (_results(BASE, fail_ratio=0.2), 1),
    ],
    ids=["same", "worse", "more-failures"],
)
def test_compare_exit_code(tmp_path, head, code):
    (tmp_path / "base.json").write_text(json.dumps(_results(BASE)))
    (tmp_path / "head.json").write_text(json.dumps(head))
    assert run.compare(str(tmp_path / "base.json"), str(tmp_path / "head.json"), BENCHMARK) == code


def test_corrupted_pin_fails_every_round(tmp_path):
    pins = run.load_json(run.PINS_JSON)
    pins["tables345"]["table4"] = "0" * 64
    entry = run.run_workload("tables345", 0, False, str(tmp_path), pins=pins)
    assert entry["fail_ratio"] == 1.0
    assert "table4 fingerprint" in entry["rounds"][0]["problems"][0]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, str(tmp_path))
    shutil.copytree(
        HERE, str(tmp_path / "benchmarks" / "e2e"), ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table2", "--trace", "0"],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
