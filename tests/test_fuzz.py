"""Architecture fuzzer tests: generator legality, oracle, shrinker, corpus.

Covers the seeded sampler (determinism, legality, seed-0 honesty), the
greedy auto-shrinker (zero illegal evaluations, ladder fixpoint, budget
cap), the corpus store (round trip, validation, byte-identical rewrite),
the fuzz loop's determinism contract (equal fingerprints across jobs and
cache states, equal ledger record hashes), the acceptance-criterion
injected bug (a deliberately wrong arbiter grant latency must be found
and shrunk to <= 2 PEs), coverage aggregation in ``repro report``, and
the unknown-architecture exit-2 paths of ``repro chaos``/``repro
verify``.
"""

import json

import pytest

from repro.cli import main
from repro.dse.spec import normalize_options
from repro.fuzz.corpus import (
    STATUSES,
    build_entry,
    entry_filename,
    load_corpus,
    validate_entry,
    write_entry,
)
from repro.fuzz.generator import FuzzProfile, case_key, sample_cases
from repro.fuzz.oracle import ORACLE_CHECKS, evaluate_case, oracle_cache_key
from repro.fuzz.runner import fuzz_fingerprint, run_fuzz
from repro.fuzz.shrink import shrink_case
from repro.obs.ledger import build_record
from repro.obs.query import check_regressions, coverage_rows

#: A mostly-legal, all-passing pocket of the space: shared-memory bus at
#: the hardware's native 64-bit width (the open corpus findings show any
#: other width fails structurally), small PE counts, no multi-subsystem.
CHEAP_PROFILE = FuzzProfile(
    buses=("GBAVIII",),
    pes=(1, 2),
    data_widths=(64,),
    fifo_depths=(4,),
    arbiter_policies=("fcfs",),
    styles=("FPA",),
    packets=(1,),
    fault_scales=(1,),
)


class TestGenerator:
    def test_same_seed_same_cases(self):
        first = sample_cases(11, 8)
        second = sample_cases(11, 8)
        assert first == second

    def test_different_seeds_differ(self):
        cases_a, _, _ = sample_cases(0, 8)
        cases_b, _, _ = sample_cases(1, 8)
        assert [c["key"] for c in cases_a] != [c["key"] for c in cases_b]

    def test_seed_zero_is_a_real_seed(self):
        # Regression guard for the falsy-zero audit: seed 0 must be its
        # own stream, not silently swapped for some other default.
        cases, _, _ = sample_cases(0, 4)
        assert len(cases) == 4
        again, _, _ = sample_cases(0, 4)
        assert cases == again

    def test_every_sampled_case_is_legal_and_unique(self):
        cases, skipped, draws = sample_cases(3, 20)
        assert len(cases) == 20
        keys = [case["key"] for case in cases]
        assert len(set(keys)) == len(keys)
        for case in cases:
            config, reason = normalize_options(case["options"])
            assert reason is None, reason
            # Canonical: re-normalizing is a no-op on the option surface.
            assert config.options() == case["options"]
        assert draws == len(cases) + sum(skipped.values())

    def test_skip_reasons_use_the_dse_vocabulary(self):
        _, skipped, _ = sample_cases(3, 20)
        known = {
            "fpa-needs-shared-memory",
            "ppa-needs-4-pes",
            "splitba-needs-2-pes",
            "subsystems-exceed-pes",
            "duplicate",
        }
        assert set(skipped) <= known

    def test_case_key_covers_fault_dimensions(self):
        case = {"options": {"bus": "GBAVIII"}, "fault_seed": 1, "fault_scale": 1}
        other = dict(case, fault_seed=2)
        assert case_key(case) != case_key(other)

    def test_profile_hash_tracks_contents(self):
        assert FuzzProfile().hash() != CHEAP_PROFILE.hash()


def _fake_verdict(case, ok):
    return {
        "ok": ok,
        "failed_checks": [] if ok else ["structural"],
        "options": case["options"],
    }


class TestShrink:
    def _fake_evaluate(self, log):
        # Stand-in oracle: "bug" reproduces whenever fifo_depth >= 16.
        # Every evaluated candidate is asserted legal, which is the
        # acceptance criterion the trace must also prove.
        def evaluate(case):
            config, reason = normalize_options(case["options"])
            assert reason is None, "shrinker evaluated an illegal case: %s" % reason
            log.append(case["key"])
            return _fake_verdict(case, ok=case["options"]["fifo_depth"] < 16)

        return evaluate

    def _failing_case(self):
        raw = {
            "bus": "BFBA",
            "pes": 4,
            "data_width": 128,
            "fifo_depth": 1024,
            "arbiter_policy": "priority",
            "app": "ofdm",
            "style": "PPA",
            "packets": 2,
        }
        config, reason = normalize_options(raw)
        assert reason is None
        case = {"options": config.options(), "fault_seed": 9, "fault_scale": 2}
        case["key"] = case_key(case)
        return case

    def test_zero_illegal_candidates_are_evaluated(self):
        log = []
        case = self._failing_case()
        result = shrink_case(
            case,
            verdict=_fake_verdict(case, ok=False),
            evaluate=self._fake_evaluate(log),
        )
        # BFBA is PPA-pinned at 4 PEs with no shared memory: the pes
        # ladder (1, 2, 3) and the style ladder (FPA) are all illegal and
        # must be skipped without touching the oracle.
        assert result["illegal_skipped"] >= 4
        illegal_steps = [
            step
            for step in result["trace"]
            if step["outcome"].startswith("illegal:")
        ]
        assert len(illegal_steps) == result["illegal_skipped"]
        assert result["evaluations"] == len(log)
        evaluated = {
            step.get("key")
            for step in result["trace"]
            if step["outcome"] == "adopted"
        }
        assert evaluated <= {key[:12] for key in log}

    def test_shrinks_to_the_minimal_failing_config(self):
        log = []
        case = self._failing_case()
        result = shrink_case(
            case,
            verdict=_fake_verdict(case, ok=False),
            evaluate=self._fake_evaluate(log),
        )
        options = result["case"]["options"]
        # fifo 4 passes (below the fake bug's threshold), 16 still fails:
        # greedy must land exactly on the boundary, and every other
        # dimension on its floor.
        assert options["fifo_depth"] == 16
        assert options["data_width"] == 32
        assert options["arbiter_policy"] == "fcfs"
        assert options["packets"] == 1
        assert result["case"]["fault_scale"] == 0
        assert result["case"]["fault_seed"] == 0
        assert not result["exhausted"]
        outcomes = {step["outcome"] for step in result["trace"]}
        assert "passed" in outcomes and "adopted" in outcomes

    def test_trace_records_every_attempt(self):
        log = []
        case = self._failing_case()
        result = shrink_case(
            case,
            verdict=_fake_verdict(case, ok=False),
            evaluate=self._fake_evaluate(log),
        )
        for step in result["trace"]:
            assert {"dimension", "from", "to", "outcome"} <= set(step)

    def test_budget_exhaustion_is_reported(self):
        log = []
        case = self._failing_case()
        result = shrink_case(
            case,
            verdict=_fake_verdict(case, ok=False),
            evaluate=self._fake_evaluate(log),
            max_evaluations=1,
        )
        assert result["exhausted"]
        assert result["evaluations"] == 1

    def test_passing_case_is_rejected(self):
        case = self._failing_case()
        with pytest.raises(ValueError, match="needs a failing case"):
            shrink_case(case, verdict=_fake_verdict(case, ok=True))


class TestCorpus:
    def _entry(self):
        case = {
            "options": {"bus": "GBAVIII", "pes": 1},
            "fault_seed": 0,
            "fault_scale": 0,
        }
        case["key"] = case_key(case)
        shrunk = {
            "case": case,
            "verdict": {"ok": False, "failed_checks": ["structural"]},
            "trace": [],
            "adopted": 0,
            "evaluations": 1,
            "illegal_skipped": 0,
            "exhausted": False,
        }
        return build_entry(shrunk, original_case=case, found_by={"seed": 1})

    def test_round_trip(self, tmp_path):
        entry = self._entry()
        path = write_entry(entry, str(tmp_path))
        assert path.endswith(entry_filename(entry))
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        assert loaded[0]["key"] == entry["key"]
        assert loaded[0]["file"] == entry_filename(entry)

    def test_rewrite_is_byte_identical(self, tmp_path):
        entry = self._entry()
        path = write_entry(entry, str(tmp_path))
        first = open(path, "rb").read()
        write_entry(entry, str(tmp_path))
        assert open(path, "rb").read() == first

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []

    def test_non_json_files_are_ignored(self, tmp_path):
        write_entry(self._entry(), str(tmp_path))
        (tmp_path / "README.md").write_text("docs\n")
        assert len(load_corpus(str(tmp_path))) == 1

    def test_validation_rejects_bad_status(self):
        entry = self._entry()
        entry["status"] = "wontfix"
        with pytest.raises(ValueError, match="status 'wontfix'"):
            validate_entry(entry)
        assert "wontfix" not in STATUSES

    def test_validation_rejects_missing_keys(self):
        entry = self._entry()
        del entry["verdict"]
        with pytest.raises(ValueError, match="missing key"):
            validate_entry(entry)


class TestFuzzLoop:
    def test_deterministic_across_jobs_and_cache_states(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        cache = str(tmp_path / "cache")
        kwargs = dict(
            seed=2,
            budget=3,
            kernel="heap",
            profile=CHEAP_PROFILE,
            corpus_dir=corpus,
            cache_dir=cache,
            write_findings=False,
        )
        cold = run_fuzz(jobs=1, **kwargs)
        warm = run_fuzz(jobs=2, **kwargs)
        assert cold["sampled"] == 3
        assert fuzz_fingerprint(cold) == fuzz_fingerprint(warm)
        # The second run must be all cache hits (same cases, same oracle).
        assert warm["cache_stats"]["hits"] == 3
        assert warm["cache_stats"]["misses"] == 0
        # ...and the ledger record hash must not see the difference.
        record = lambda summary: build_record(
            "fuzz", options={"seed": 2}, summary=summary, rev="test"
        )
        assert record(cold)["hash"] == record(warm)["hash"]

    def test_seed_zero_and_one_are_different_runs(self, tmp_path):
        kwargs = dict(
            budget=2,
            jobs=1,
            kernel="heap",
            profile=CHEAP_PROFILE,
            corpus_dir=str(tmp_path / "corpus"),
            cache_dir=str(tmp_path / "cache"),
            write_findings=False,
        )
        zero = run_fuzz(seed=0, **kwargs)
        one = run_fuzz(seed=1, **kwargs)
        assert zero["seed"] == 0
        assert fuzz_fingerprint(zero) != fuzz_fingerprint(one)

    def test_injected_arbiter_wiring_bug_is_found_and_shrunk(
        self, tmp_path, monkeypatch
    ):
        from repro.core.netlist import NetlistBuilder

        original = NetlistBuilder.connect

        def miswired(self, wire_name, width, taps):
            # The ABI samples a grant line the arbiter never drives.
            if wire_name == "w_arb_gnt":
                original(self, wire_name, width, taps[:1])
                original(self, "w_abi_gnt", width, taps[1:])
            else:
                original(self, wire_name, width, taps)

        monkeypatch.setattr(NetlistBuilder, "connect", miswired)
        profile = FuzzProfile(
            buses=("GBAVIII",),
            pes=(4, 8),
            data_widths=(64,),
            fifo_depths=(4,),
            arbiter_policies=("fcfs",),
            styles=("FPA",),
            packets=(1,),
            fault_scales=(1,),
        )
        summary = run_fuzz(
            seed=5,
            budget=2,
            jobs=1,
            kernel="heap",
            profile=profile,
            corpus_dir=str(tmp_path / "corpus"),
            cache_dir=str(tmp_path / "cache"),
        )
        assert summary["failures"] == 2
        assert summary["new_findings"] == 1
        finding = summary["findings"][0]
        assert finding["failed_checks"] == ["structural"]
        assert "ARB.gnt_b <-> ABI0.arb_gnt_b" in "".join(
            finding["verdict"]["checks"]["structural"]
        )
        # Every global BAN carries the miswired arbiter, so the shrinker
        # walks the PE count down to the minimum.
        assert finding["case"]["options"]["pes"] == 1
        # The finding landed in the corpus and replays as unstable-free.
        entries = load_corpus(str(tmp_path / "corpus"))
        assert len(entries) == 1
        assert entries[0]["status"] == "open"
        assert entries[0]["shrink"]["trace"]

    def test_replay_flags_a_stale_open_entry(self, tmp_path):
        # An "open" entry whose bug no longer reproduces (here: it never
        # did -- a passing case planted as open) must surface as now_fixed
        # and flip the run to a nonzero-exit summary.  (2 PEs, not 1: the
        # 1-PE GBAVIII netlist collides its global/CPU bus master sets,
        # a real open finding of its own.)
        raw = {
            "bus": "GBAVIII",
            "pes": 2,
            "data_width": 64,
            "arbiter_policy": "fcfs",
            "app": "ofdm",
            "style": "FPA",
            "packets": 1,
        }
        config, reason = normalize_options(raw)
        assert reason is None
        case = {"options": config.options(), "fault_seed": 0, "fault_scale": 1}
        case["key"] = case_key(case)
        verdict = evaluate_case(case, kernel="heap")
        assert verdict["ok"]
        shrunk = {
            "case": case,
            "verdict": verdict,
            "trace": [],
            "adopted": 0,
            "evaluations": 0,
            "illegal_skipped": 0,
            "exhausted": False,
        }
        corpus = str(tmp_path / "corpus")
        write_entry(
            build_entry(shrunk, original_case=case, found_by={"seed": 2}), corpus
        )
        summary = run_fuzz(
            seed=2,
            budget=1,
            jobs=1,
            kernel="heap",
            profile=CHEAP_PROFILE,
            corpus_dir=corpus,
            cache_dir=str(tmp_path / "cache"),
            write_findings=False,
        )
        assert summary["replay"]["entries"] == 1
        assert summary["replay"]["now_fixed"] == 1
        assert summary["replay"]["regressions"] == 0

    def test_oracle_cache_key_tracks_fault_dimensions(self):
        case = {
            "options": {"bus": "GBAVIII", "pes": 1},
            "fault_seed": 3,
            "fault_scale": 1,
        }
        assert oracle_cache_key(case) != oracle_cache_key(
            dict(case, fault_scale=2)
        )

    def test_oracle_checks_are_the_documented_four(self):
        assert ORACLE_CHECKS == ("structural", "protocol", "resilience", "parity")


class TestReportCoverage:
    def _fuzz_record(self, new_findings=0, regressions=0, now_fixed=0):
        return {
            "hash": "ab" * 32,
            "body": {
                "verb": "fuzz",
                "summary": {
                    "sampled": 10,
                    "skipped": {"ppa-needs-4-pes": 3, "duplicate": 1},
                    "new_findings": new_findings,
                    "replay": {
                        "regressions": regressions,
                        "now_fixed": now_fixed,
                    },
                },
            },
            "envelope": {
                "measurements": {"cache_stats": {"hits": 7, "misses": 3}}
            },
        }

    def test_coverage_rows_aggregate_skips_and_cache(self):
        rows = coverage_rows([self._fuzz_record(), self._fuzz_record()])
        assert len(rows) == 1
        row = rows[0]
        assert row["verb"] == "fuzz"
        assert row["runs"] == 2
        assert row["evaluated"] == 20
        assert row["skipped"] == {"duplicate": 2, "ppa-needs-4-pes": 6}
        assert row["cache_hits"] == 14
        assert row["cache_misses"] == 6
        assert row["cache_hit_ratio"] == pytest.approx(0.7)

    def test_coverage_rows_ignore_other_verbs(self):
        assert coverage_rows([{"body": {"verb": "chaos", "summary": {}}}]) == []

    def test_check_regressions_gates_fuzz_records(self):
        clean = check_regressions([self._fuzz_record()], {})
        assert clean == []
        dirty = check_regressions(
            [self._fuzz_record(new_findings=2, regressions=1, now_fixed=1)], {}
        )
        fields = {finding["field"] for finding in dirty}
        assert fields == {"replay.regressions", "replay.now_fixed", "new_findings"}


class TestCli:
    def test_fuzz_round_trip_writes_ledger_and_coverage(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger")
        out = str(tmp_path / "fuzz.json")
        # Seed 15's single draw is a tiny passing GGBA/1 FPA config at the
        # native 64-bit width (exit 0: no findings, empty corpus).
        code = main(
            [
                "fuzz",
                "--budget",
                "1",
                "--seed",
                "15",
                "--corpus",
                str(tmp_path / "corpus"),
                "--cache-dir",
                str(tmp_path / "cache"),
                "--ledger",
                ledger,
                "-o",
                out,
            ]
        )
        assert code == 0
        summary = json.load(open(out))
        assert summary["sampled"] == 1
        assert summary["failures"] == 0
        capsys.readouterr()
        assert main(["report", "--ledger", ledger, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [group["verb"] for group in report["groups"]] == ["fuzz"]
        assert report["coverage"][0]["verb"] == "fuzz"
        assert report["coverage"][0]["evaluated"] == 1

    def test_fuzz_without_corpus_outside_the_repo_root_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        # A missing ./corpus would replay as an empty corpus and fingerprint
        # a different campaign; nothing is run and nothing is written.
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--budget", "1", "--seed", "15"]) == 2
        assert "run from the repository root or pass --corpus DIR" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_chaos_unknown_arch_exits_2_with_candidates(self, capsys):
        code = main(["chaos", "--arch", "GBAV3", "--no-ledger"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown architecture 'GBAV3'" in err
        assert "did you mean 'GBAVI'" in err

    def test_verify_unknown_arch_exits_2_with_candidates(self, capsys):
        code = main(["verify", "--arch", "SPLITB", "--no-ledger"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown architecture 'SPLITB'" in err
        assert "did you mean 'SPLITBA'" in err

    def test_chaos_gbavii_is_reachable(self):
        # GBAVII used to KeyError out of CHAOS_STYLES before the sweep
        # even started; a smoke-size run must now work end to end.
        code = main(
            [
                "chaos",
                "--arch",
                "GBAVII",
                "--backend",
                "heap",
                "--packets",
                "1",
                "--no-ledger",
            ]
        )
        assert code == 0
