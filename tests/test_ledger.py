"""Run ledger: content-addressed records, queries, and regression gates.

Pins the fleet-telemetry contracts of ``repro.obs.ledger`` and
``repro.obs.query``:

* **determinism** -- the same options + seed + backend + revision hash to
  the same record identity; everything nondeterministic (timestamp, host,
  pid, wall seconds) lives in the non-hashed envelope;
* **storage** -- append-only ``records.jsonl`` plus a ``{hash, verb,
  offset}`` index supporting prefix lookup by seek;
* **query** -- filter/aggregate by verb x backend x arch, field-by-field
  body diffs, and CI regression gates over the recorded verdicts;
* **round trip** -- the CLI verbs write records a later ``repro report``
  reads back, and ``--check`` exits non-zero on an injected regression.
"""

import json
import os
import platform

import pytest

from repro.cli import main
from repro.obs.ledger import (
    RECORD_VERSION,
    Ledger,
    build_record,
    canonical_json,
    content_hash,
    environment,
    git_revision,
    options_hash,
    scrub_timings,
)
from repro.obs.query import (
    aggregate_records,
    check_regressions,
    diff_bodies,
    envelope_pairs,
    filter_records,
)
from repro.obs.validate import main as validate_main
from repro.obs.validate import validate_ledger_records


SUMMARY = {
    "app": "ofdm",
    "cycles": 41992,
    "wall_seconds": 0.25,
    "nested": {"seconds": 1.5, "packets": 4},
}


class TestHashing:
    def test_scrub_timings_removes_keys_at_any_depth(self):
        scrubbed = scrub_timings(SUMMARY)
        assert scrubbed == {"app": "ofdm", "cycles": 41992, "nested": {"packets": 4}}
        # Deep copy: the input is untouched.
        assert "wall_seconds" in SUMMARY

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )
        assert content_hash({"b": 1, "a": 2}) == content_hash({"a": 2, "b": 1})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_options_hash_is_short_and_stable(self):
        first = options_hash({"arch": "GBAVIII", "pes": 4})
        assert len(first) == 12
        assert first == options_hash({"pes": 4, "arch": "GBAVIII"})
        assert first != options_hash({"arch": "GBAVIII", "pes": 8})


class TestRecordDeterminism:
    OPTIONS = {"arch": "GBAVIII", "pes": 4, "kernel": "compiled", "seed": 7}

    def build(self, **overrides):
        kwargs = dict(
            options=self.OPTIONS,
            backend="compiled",
            arch="GBAVIII",
            summary=SUMMARY,
            sim_cycles=41992,
            rev="abc1234",
        )
        kwargs.update(overrides)
        return build_record("simulate", **kwargs)

    def test_same_inputs_same_hash(self):
        first = self.build(wall_seconds=0.1)
        second = self.build(wall_seconds=99.9)
        assert first["hash"] == second["hash"]
        assert first["body"] == second["body"]

    def test_envelope_holds_the_nondeterminism(self):
        record = self.build(wall_seconds=0.125)
        envelope = record["envelope"]
        assert envelope["wall_seconds"] == 0.125
        assert envelope["timestamp"]
        assert envelope["host"]
        assert envelope["pid"] == os.getpid()
        # Scrubbed timings are preserved as flat dotted paths.
        assert envelope["measurements"]["wall_seconds"] == 0.25
        assert envelope["measurements"]["nested.seconds"] == 1.5
        # ... and none of them are in the hashed body.
        assert "wall_seconds" not in canonical_json(record["body"])

    def test_envelope_records_memory_and_environment(self):
        record = self.build()
        envelope = record["envelope"]
        assert envelope["peak_rss_mb"] > 1.0
        assert envelope["python"] == platform.python_version()
        assert envelope["cpus"] == len(os.sched_getaffinity(0)) >= 1
        # Outside the hashed body: the record's identity does not move.
        assert record["hash"] == self.build(wall_seconds=3.0)["hash"]
        for key in ("peak_rss_mb", "python", "cpus"):
            assert key not in record["body"]

    def test_envelope_carries_the_shared_environment(self):
        # The envelope and the bench harness's provenance take the same
        # fields from one helper: interpreter, NumPy, CPU affinity and
        # whether imports write bytecode.
        env = environment()
        assert set(env) == {"python", "numpy", "cpus", "dont_write_bytecode"}
        record = self.build()
        assert {key: record["envelope"][key] for key in env} == env
        assert not set(env) & set(record["body"])

    def test_different_inputs_different_hash(self):
        base = self.build()
        assert base["hash"] != self.build(backend="heap")["hash"]
        assert (
            base["hash"]
            != self.build(options=dict(self.OPTIONS, seed=8))["hash"]
        )
        assert base["hash"] != self.build(rev="fff0000")["hash"]

    def test_hash_matches_body_and_version(self):
        record = self.build()
        assert record["version"] == RECORD_VERSION
        assert record["hash"] == content_hash(record["body"])
        assert validate_ledger_records([record]) == []

    def test_git_revision_in_repo_and_outside(self, tmp_path):
        here = git_revision(os.path.dirname(os.path.dirname(__file__)))
        assert here != "unknown" and len(here) >= 7
        assert git_revision(str(tmp_path)) == "unknown"


class TestLedgerStorage:
    def test_append_find_roundtrip(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led"))
        assert not ledger.exists
        hashes = [
            ledger.write("simulate", options={"pes": n}, backend="heap", arch="BFBA")
            for n in (2, 4, 8)
        ]
        assert ledger.exists
        assert len(ledger.records()) == 3
        assert [e["verb"] for e in ledger.index()] == ["simulate"] * 3
        [found] = ledger.find_all(hashes[1][:12])
        assert found["hash"] == hashes[1]
        assert found["body"]["options"] == {"pes": 4}
        assert ledger.find_all("0" * 64) == []

    def test_ambiguous_prefix_raises(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led"))
        ledger.write("simulate", options={"pes": 2})
        ledger.write("simulate", options={"pes": 4})
        with pytest.raises(LookupError, match="ambiguous"):
            ledger.find_all("")

    def test_identical_rerun_same_hash_every_run_kept(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led"))
        first, _other, second = [
            ledger.write(
                "simulate", options={"pes": pes}, rev="abc1234", wall_seconds=seconds
            )
            for pes, seconds in ((4, 0.3), (8, 0.1), (4, 0.2))
        ]
        assert first == second
        assert len(ledger.records()) == 3
        # Oldest first, each run with its own envelope.
        found = ledger.find_all(first[:12])
        assert [record["hash"] for record in found] == [first, first]
        assert [record["envelope"]["wall_seconds"] for record in found] == [0.3, 0.2]

    def test_validate_accepts_ledger_and_rejects_tampering(self, tmp_path):
        ledger = Ledger(str(tmp_path / "led"))
        ledger.write("simulate", options={"pes": 4})
        records = ledger.records()
        assert validate_ledger_records(records) == []
        records[0]["body"]["sim_cycles"] = 12345
        failures = validate_ledger_records(records)
        assert failures and "hash" in failures[0]
        records[0]["version"] = 99
        failures = validate_ledger_records(records)
        assert failures and "version" in failures[0]


def _record(verb, backend="heap", arch="BFBA", summary=None, **kwargs):
    return build_record(
        verb,
        options={"arch": arch, "backend": backend},
        backend=backend,
        arch=arch,
        summary=summary,
        rev="abc1234",
        **kwargs,
    )


class TestQuery:
    def records(self):
        return [
            _record("simulate", "heap", "BFBA", sim_cycles=100),
            _record("simulate", "compiled", "BFBA", sim_cycles=100),
            _record("simulate", "compiled", "GBAVIII", sim_cycles=200),
            _record(
                "chaos",
                ["heap", "wheel"],
                ["BFBA", "HYBRID"],
                summary={
                    "backends": ["heap", "wheel"],
                    "architectures": ["BFBA", "HYBRID"],
                    "ok": True,
                    "failures": [],
                },
            ),
        ]

    def test_filter_by_verb_backend_arch(self):
        records = self.records()
        assert len(filter_records(records, verb="simulate")) == 3
        assert len(filter_records(records, backend="compiled")) == 2
        # Multi-valued fields match both the body lists and the summary's
        # plural keys (chaos/verify sweeps).
        assert len(filter_records(records, backend="wheel")) == 1
        assert len(filter_records(records, arch="HYBRID")) == 1
        assert len(filter_records(records, verb="simulate", arch="GBAVIII")) == 1
        assert filter_records(records, rev="fff0000") == []

    def test_aggregate_groups_and_counts(self):
        records = self.records() + [_record("simulate", "heap", "BFBA", sim_cycles=100)]
        rows = aggregate_records(records)
        by_key = {(r["verb"], r["arch"], r["backend"]): r for r in rows}
        heap_row = by_key[("simulate", "BFBA", "heap")]
        assert heap_row["runs"] == 2
        assert heap_row["distinct_hashes"] == 1  # identical re-run
        assert heap_row["sim_cycles"] == 100
        assert len(heap_row["last_hash"]) == 12
        chaos_row = by_key[("chaos", "BFBA,HYBRID", "heap,wheel")]
        assert chaos_row["runs"] == 1

    def test_diff_bodies_reports_dotted_paths(self):
        a = _record("simulate", "heap", "BFBA", sim_cycles=100)
        b = _record("simulate", "compiled", "BFBA", sim_cycles=120)
        diffs = dict((path, (x, y)) for path, x, y in diff_bodies(a, b))
        assert diffs["backend"] == ("heap", "compiled")
        assert diffs["sim_cycles"] == (100, 120)
        assert "options.backend" in diffs
        assert "options_hash" in diffs
        assert diff_bodies(a, a) == []

    def test_envelope_pairs_tolerate_older_records(self):
        new = {"envelope": {"wall_seconds": 1.5, "peak_rss_mb": 40.0}}
        old = {"envelope": {"wall_seconds": 2.0}}
        assert envelope_pairs(old, new) == [
            ("wall_seconds", 2.0, 1.5),
            ("peak_rss_mb", None, 40.0),
        ]


class TestRegressionGates:
    def test_clean_ledger_has_no_findings(self):
        records = [
            _record("chaos", summary={"ok": True, "failures": []}),
            _record("verify", summary={"ok": True, "failures": []}),
        ]
        assert check_regressions(records) == []

    def test_failed_chaos_flagged(self):
        records = [
            _record(
                "chaos", summary={"ok": False, "failures": ["BFBA/heap: deadlock"]}
            )
        ]
        findings = check_regressions(records)
        assert len(findings) == 1
        assert findings[0]["verb"] == "chaos"
        assert findings[0]["field"] == "summary.ok"
        assert "deadlock" in findings[0]["message"]

    @pytest.mark.parametrize(
        "failures",
        [[], ["ci floor: heap int_yield 1 ev/s is >20% below the 950000 reference"]],
        ids=["passed", "failed"],
    )
    def test_bench_flagged_exactly_on_harness_failures(self, failures):
        # The harness's failures list is the only bench gate: a record is
        # not judged again from its numbers, however far below a floor.
        summary = {
            "smoke": False,
            "failures": failures,
            "kernel": {"heap": {"int_yield": {"procs": 64, "events_per_sec": 1.0}}},
        }
        record = _record("bench", backend="heap", arch=None, summary=summary)
        expected = [("summary.failures", failures)] if failures else []
        found = [(f["field"], f["value"]) for f in check_regressions([record])]
        assert found == expected

    def test_bench_timings_leave_the_hashed_body(self):
        # Two harness runs that differ only in what the clock read are one
        # run identity; the numbers ride along in the envelope.
        def bench(scale):
            summary = {
                "smoke": True,
                "failures": [],
                "kernel": {
                    "heap": {
                        "int_yield": {
                            "procs": 8,
                            "events": 1600,
                            "seconds": 0.01 * scale,
                            "all_seconds": [0.01 * scale],
                            "events_per_sec": 160000.0 / scale,
                        }
                    }
                },
                "ab": {"int_yield_events_per_sec_compiled_vs_heap": 1.5 * scale},
                "table2": {
                    "heap": {
                        "packets": 2,
                        "sequential_seconds": 1.0 * scale,
                        "parallel_seconds": 0.6 * scale,
                        "sequential_all": [1.0 * scale],
                        "parallel_all": [0.6 * scale],
                        "rows_identical": True,
                    }
                },
            }
            return _record("bench", backend="heap", arch=None, summary=summary)

        fast, slow = bench(1.0), bench(2.0)
        assert fast["hash"] == slow["hash"]
        body = fast["body"]["summary"]
        assert "ab" not in body
        assert body["kernel"]["heap"]["int_yield"] == {"procs": 8, "events": 1600}
        assert body["table2"]["heap"] == {"packets": 2, "rows_identical": True}
        measurements = slow["envelope"]["measurements"]
        assert measurements["table2.heap.parallel_seconds"] == 1.2
        assert measurements["kernel.heap.int_yield.events_per_sec"] == 80000.0
        assert measurements["ab"] == {"int_yield_events_per_sec_compiled_vs_heap": 3.0}


class TestReportCheckCli:
    """``repro report --check`` takes a bench run's verdict from the record."""

    @pytest.mark.parametrize(
        "failures",
        [[], ["heap: parallel rows differ from sequential rows"]],
        ids=["passed", "failed"],
    )
    def test_exit_status_follows_harness_failures(self, failures, tmp_path, capsys):
        root = str(tmp_path / "led")
        Ledger(root).write(
            "bench",
            options={"kernels": ["heap"], "smoke": True},
            backend="heap",
            summary={"smoke": True, "failures": failures},
        )
        status = main(["report", "--ledger", root, "--check"])
        out = capsys.readouterr().out
        assert status == (1 if failures else 0)
        assert "checked 1 record(s): %d regression(s)" % len(failures) in out
        assert all(failure in out for failure in failures)

    def test_baselines_option_is_gone(self, tmp_path, capsys):
        # No baselines file is read: the gates ran when the harness did.
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--ledger", str(tmp_path), "--check", "--baselines", "b.json"])
        assert exit_info.value.code == 2
        assert "--baselines" in capsys.readouterr().err


class TestReportDiffCli:
    """``repro report --diff`` resolves both prefixes, or exits 2 with one
    ``repro:`` line -- never 1, which ``--check`` uses for a difference."""

    def test_one_hash_twice_compares_its_last_two_runs(self, tmp_path, capsys):
        root = str(tmp_path / "led")
        ledger = Ledger(root)
        rerun = [
            ledger.write("simulate", options={"pes": pes}, wall_seconds=seconds)
            for pes, seconds in ((4, 0.237), (8, 1.0), (4, 0.206))
        ][0]
        assert main(["report", "--ledger", root, "--diff", rerun[:12], rerun[:8]]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  identical hashed bodies"
        assert lines[2].split() == ["envelope.wall_seconds", "0.237", "->", "0.206"]
        ledger.write("simulate", options={"pes": 4}, wall_seconds=0.5)
        argv = ["report", "--ledger", root, "--diff", rerun, rerun, "--json"]
        assert main(argv + ["--check"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["left"] == diff["right"] == rerun and diff["diffs"] == []
        assert diff["envelope"]["wall_seconds"] == {"left": 0.206, "right": 0.5}

    def test_a_hash_with_one_record_exits_2(self, tmp_path, capsys):
        root = str(tmp_path / "led")
        only = Ledger(root).write("simulate", options={"pes": 4})
        assert main(["report", "--ledger", root, "--diff", only[:12], only]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: hash %s has only one record: nothing to compare\n" % only[:12]
        )

    @pytest.mark.parametrize(
        "prefix,message",
        [
            ("deadbeef", "no ledger record matches hash prefix 'deadbeef'"),
            ("", "hash prefix '' is ambiguous (2 hashes)"),
        ],
        ids=["unknown", "ambiguous"],
    )
    def test_a_bad_prefix_exits_2(self, prefix, message, tmp_path, capsys):
        root = str(tmp_path / "led")
        ledger = Ledger(root)
        known = ledger.write("simulate", options={"pes": 4})
        ledger.write("simulate", options={"pes": 8})
        argv = ["report", "--ledger", root, "--check", "--diff"]
        for pair in ([prefix, known], [known, prefix]):
            assert main(argv + pair) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "repro: %s\n" % message


class TestCliRoundTrip:
    """Four CLI verbs write a ledger that ``repro report`` reads back."""

    @pytest.fixture(scope="class")
    def ledger_dir(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("ledger") / "led")
        argv = ["--ledger", root]
        assert (
            main(
                [
                    "simulate",
                    "--preset",
                    "GBAVIII",
                    "--pes",
                    "4",
                    "--app",
                    "ofdm",
                    "--packets",
                    "2",
                    "--kernel",
                    "compiled",
                ]
                + argv
            )
            == 0
        )
        assert (
            main(
                ["chaos", "--smoke", "--arch", "BFBA", "--backend", "heap", "--packets", "1"]
                + argv
            )
            == 0
        )
        assert main(["table", "5"] + argv) == 0
        assert (
            main(
                [
                    "verify",
                    "--smoke",
                    "--packets",
                    "1",
                    "--backend",
                    "heap",
                ]
                + argv
            )
            == 0
        )
        return root

    def test_four_verbs_recorded_and_valid(self, ledger_dir):
        ledger = Ledger(ledger_dir)
        records = ledger.records()
        assert {r["body"]["verb"] for r in records} == {
            "simulate",
            "chaos",
            "table",
            "verify",
        }
        assert validate_ledger_records(records) == []
        assert len(ledger.index()) == len(records)

    def test_report_aggregate_and_json(self, ledger_dir, capsys):
        assert main(["report", "--ledger", ledger_dir]) == 0
        assert "simulate" in capsys.readouterr().out
        assert main(["report", "--ledger", ledger_dir, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["groups"]
        assert any(row["verb"] == "table" for row in rows)

    def test_report_check_passes_then_fails_on_injected_regression(
        self, ledger_dir, capsys
    ):
        assert main(["report", "--ledger", ledger_dir, "--check"]) == 0
        capsys.readouterr()
        Ledger(ledger_dir).write(
            "chaos",
            options={"scenario": "smoke"},
            summary={"ok": False, "failures": ["injected: deadlock"]},
        )
        assert main(["report", "--ledger", ledger_dir, "--check"]) == 1
        assert "injected" in capsys.readouterr().out

    def test_report_diff_two_runs(self, ledger_dir, capsys):
        ledger = Ledger(ledger_dir)
        by_verb = {}
        for record in ledger.records():
            by_verb.setdefault(record["body"]["verb"], record["hash"])
        a = by_verb["simulate"]
        b = by_verb["chaos"]
        assert main(["report", "--ledger", ledger_dir, "--diff", a[:12], b[:12]]) == 0
        out = capsys.readouterr().out
        assert "verb" in out
        # Under the body diff: what each run cost, from the envelopes.
        lines = out.splitlines()
        assert lines[-2].split()[0] == "envelope.wall_seconds"
        assert lines[-1].split()[0] == "envelope.peak_rss_mb"
        assert main(
            ["report", "--ledger", ledger_dir, "--diff", a[:12], b[:12], "--json"]
        ) == 0
        costs = json.loads(capsys.readouterr().out)["envelope"]
        assert sorted(costs) == ["peak_rss_mb", "wall_seconds"]
        assert costs["peak_rss_mb"]["left"] > 1.0 and costs["peak_rss_mb"]["right"] > 1.0

    def test_report_without_ledger_exits_2(self, tmp_path, capsys):
        assert main(["report", "--ledger", str(tmp_path / "absent")]) == 2
        assert "no ledger" in capsys.readouterr().err.lower()

    def test_no_ledger_flag_suppresses_writes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert (
            main(
                [
                    "simulate",
                    "--preset",
                    "GGBA",
                    "--app",
                    "database",
                    "--no-ledger",
                ]
            )
            == 0
        )
        assert not os.path.exists(str(tmp_path / ".repro"))


class TestLegacyWheelRecords:
    """Records from when ``wheel`` was a backend still query and gate."""

    @pytest.fixture
    def ledger_dir(self, tmp_path):
        root = str(tmp_path / "led")
        ledger = Ledger(root)
        ledger.write(
            "chaos",
            options={"scenario": "smoke", "backends": ["heap", "wheel"]},
            backend=["heap", "wheel"],
            arch=["BFBA"],
            summary={
                "backends": ["heap", "wheel"],
                "architectures": ["BFBA"],
                "ok": True,
                "failures": [],
            },
        )
        ledger.write(
            "bench",
            options={"kernels": ["heap", "wheel"], "smoke": False},
            backend=["heap", "wheel"],
            summary={
                "smoke": False,
                "failures": [],
                "kernel": {
                    name: {
                        "int_yield": {
                            "procs": 64,
                            "yields": 2000,
                            "events_per_sec": rate,
                        }
                    }
                    for name, rate in (("heap", 1.0e6), ("wheel", 1.8e6))
                },
            },
        )
        return root

    def test_filter_aggregate_and_diff(self, ledger_dir, capsys):
        records = Ledger(ledger_dir).records()
        chaos, bench = records
        measurements = bench["envelope"]["measurements"]
        assert measurements["kernel.wheel.int_yield.events_per_sec"] == 1.8e6
        assert filter_records(records, backend="wheel") == records
        rows = aggregate_records(records)
        assert [(row["verb"], row["backend"]) for row in rows] == [
            ("bench", "heap,wheel"),
            ("chaos", "heap,wheel"),
        ]
        assert main(["report", "--ledger", ledger_dir, "--backend", "wheel"]) == 0
        assert "2 record(s), 2 group(s)" in capsys.readouterr().out
        assert (
            main(
                [
                    "report",
                    "--ledger",
                    ledger_dir,
                    "--diff",
                    chaos["hash"][:12],
                    bench["hash"][:12],
                ]
            )
            == 0
        )
        assert "'chaos' -> 'bench'" in capsys.readouterr().out

    def test_validate_and_check_pass(self, ledger_dir, capsys):
        assert validate_main([ledger_dir]) == 0
        # The bench record's harness passed it: no finding, whatever the
        # backend names.
        assert main(["report", "--ledger", ledger_dir, "--check"]) == 0
        out = capsys.readouterr().out
        assert "checked 2 record(s)" in out and "0 regression(s)" in out
