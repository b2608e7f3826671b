"""DSE engine: spec expansion, artifact cache, sharded determinism, Pareto.

Pins the production-sweep contracts of ``repro.dse`` (docs/dse.md):

* **expansion** -- a declarative spec expands into a deduplicated,
  deterministically ordered queue; illegal combinations are skipped with
  counted reasons, inapplicable axes normalize away before hashing;
* **cache** -- the on-disk content-addressed store round-trips JSON
  artifacts, treats corruption and a stale artifact schema or generator
  version as misses, and holds no generated design;
* **shards** -- a shard generates each distinct spec once and holds one
  generated design at a time;
* **policy families** -- a contention-free run serves the configs that
  differ from it only in ``arbiter_policy``, and their rows equal the
  rows those configs get when run alone;
* **determinism** -- the same spec yields a bit-identical frontier cold
  vs warm, at any ``--jobs`` value, and on every scheduler backend.
"""

import gc
import json
import os
import weakref

import pytest

from repro.core.busyn import GENERATOR_VERSION, BusSyn, GeneratedBusSystem
from repro.dse.cache import ARTIFACT_VERSION, ArtifactCache
from repro.dse.engine import (
    run_dse_shard,
    run_sweep,
    shard_of,
    simulate_config,
    sweep_fingerprint,
)
from repro.dse.pareto import (
    axes_for,
    dominates,
    format_frontier_lines,
    pareto_frontier,
    rank_rows,
)
from repro.dse.spec import (
    DseConfig,
    SweepSpec,
    build_config_spec,
    example_spec,
    smoke_spec,
)
from repro.fuzz.oracle import run_fingerprint
from repro.obs.ledger import scrub_timings
from repro.options.schema import OptionError
from repro.sim.kernel import KERNEL_BACKENDS
from repro.sim.stats import contention_free


def tiny_spec():
    """Four fast configs -- enough to exercise sharding and caching."""
    return SweepSpec.from_dict(
        {
            "name": "tiny",
            "axes": {
                "bus": ["GBAVIII", "GGBA"],
                "pes": [2, 4],
                "style": ["FPA"],
                "packets": [1],
            },
        }
    )


def shared_spec():
    """Four configs on two specs: the PPA and FPA styles of two buses."""
    return SweepSpec.from_dict(
        {
            "name": "shared",
            "axes": {
                "bus": ["GBAVIII", "GGBA"],
                "pes": [4],
                "style": ["PPA", "FPA"],
                "packets": [1],
            },
        }
    )


def policy_spec():
    """Nine configs in three policy families: BFBA/4 PPA and GBAVIII/4 FPA
    run contention-free, GBAVIII/4 PPA does not."""
    return SweepSpec.from_dict(
        {
            "name": "policies",
            "axes": {
                "bus": ["BFBA", "GBAVIII"],
                "pes": [4],
                "style": ["PPA", "FPA"],
                "arbiter_policy": ["fcfs", "round_robin", "priority"],
                "packets": [1],
            },
        }
    )


class TestSpecExpansion:
    def test_smoke_spec_counts(self):
        configs, skipped, duplicates = smoke_spec().expand()
        assert len(configs) == 10
        assert duplicates == 0
        # 4 buses x 2 pes x 2 styles: PPA away from 4 PEs and FPA on the
        # memory-less BFBA are holes, not errors.
        assert skipped == {"ppa-needs-4-pes": 4, "fpa-needs-shared-memory": 2}

    def test_example_spec_is_the_nine_cases(self):
        configs, skipped, duplicates = example_spec().expand()
        assert len(configs) == 9
        assert skipped == {}
        assert duplicates == 0

    def test_inapplicable_axes_normalize_and_dedup(self):
        # GBAVIII has no Bi-FIFOs: every fifo_depth value collapses to None,
        # so the product dedups down to one config.
        spec = SweepSpec.from_dict(
            {
                "axes": {
                    "bus": ["GBAVIII"],
                    "fifo_depth": [256, 512, 1024],
                    "packets": [1],
                }
            }
        )
        configs, _skipped, duplicates = spec.expand()
        assert len(configs) == 1
        assert duplicates == 2
        assert configs[0].fifo_depth is None

    def test_fifo_depth_kept_on_fifo_archs(self):
        spec = SweepSpec.from_dict(
            {"axes": {"bus": ["BFBA"], "style": ["PPA"], "fifo_depth": [256, 512]}}
        )
        configs, _, duplicates = spec.expand()
        assert sorted(c.fifo_depth for c in configs) == [256, 512]
        assert duplicates == 0

    def test_expansion_order_is_independent_of_axis_listing(self):
        axes = {"bus": ["GGBA", "GBAVIII"], "pes": [4, 2], "style": ["FPA"]}
        reversed_axes = {k: list(reversed(v)) for k, v in axes.items()}
        a = SweepSpec.from_dict({"axes": axes}).expand()[0]
        b = SweepSpec.from_dict({"axes": reversed_axes}).expand()[0]
        assert [c.key() for c in a] == [c.key() for c in b]

    def test_style_auto_resolves_per_architecture(self):
        spec = SweepSpec.from_dict(
            {"axes": {"bus": ["BFBA", "GBAVIII"], "style": ["auto"]}}
        )
        configs, _, _ = spec.expand()
        by_bus = {c.bus: c.style for c in configs}
        assert by_bus == {"BFBA": "PPA", "GBAVIII": "FPA"}

    def test_unknown_axis_and_keys_rejected(self):
        with pytest.raises(OptionError):
            SweepSpec.from_dict({"axes": {"voltage": [1]}})
        with pytest.raises(OptionError):
            SweepSpec.from_dict({"sweep": []})
        with pytest.raises(OptionError):
            SweepSpec.from_dict({"axes": {"bus": []}})
        with pytest.raises(OptionError):
            SweepSpec.from_dict({"cases": [{"voltage": 1}]})

    def test_unknown_bus_is_a_counted_skip(self):
        configs, skipped, _ = SweepSpec.from_dict(
            {"axes": {"bus": ["NOSUCH", "GBAVIII"]}}
        ).expand()
        assert len(configs) == 1
        assert skipped == {"unknown-bus": 1}

    def test_config_round_trips_through_options(self):
        config = DseConfig(bus="SPLITBA", pes=6, subsystems=3, packets=1)
        again = DseConfig.from_options(config.options())
        assert again == config
        assert again.key() == config.key()

    def test_width_and_policy_written_into_generated_spec(self):
        config = DseConfig(
            bus="GBAVIII", pes=4, data_width=32, arbiter_policy="round_robin"
        )
        spec = build_config_spec(config)
        for subsystem in spec.subsystems:
            for bus in subsystem.buses:
                assert bus.data_width == 32
                assert bus.arbiter_policy == "round_robin"

    def test_splitba_generalizes_to_n_subsystems(self):
        config = DseConfig(bus="SPLITBA", pes=6, subsystems=3, packets=1)
        spec = build_config_spec(config)
        assert len(spec.subsystems) == 3
        # One global-memory BAN per subsystem (the FPA prerequisite).
        for subsystem in spec.subsystems:
            assert any(ban.is_global_resource for ban in subsystem.bans)

    def test_database_without_shared_memory_is_a_counted_skip(self):
        spec = SweepSpec.from_dict(
            {"axes": {"bus": ["BFBA", "GBAVI", "GGBA"], "pes": [4], "app": ["database"]}}
        )
        configs, skipped, _ = spec.expand()
        assert [config.bus for config in configs] == ["GGBA"]
        assert skipped == {"database-needs-shared-memory": 2}
        assert run_sweep(spec, jobs=1, cache_dir=None)["errors"] == 0

    def test_family_key_ignores_the_policy_alone(self):
        fcfs = DseConfig(bus="GGBA", pes=2, packets=1)
        ring = DseConfig(bus="GGBA", pes=2, packets=1, arbiter_policy="round_robin")
        assert fcfs.key() != ring.key()
        assert fcfs.family_key() == ring.family_key()
        assert fcfs.family_key() != DseConfig(bus="GGBA", pes=4, packets=1).family_key()

    def test_subsystems_beyond_pes_skipped(self):
        configs, skipped, _ = SweepSpec.from_dict(
            {"axes": {"bus": ["SPLITBA"], "pes": [2], "subsystems": [4]}}
        ).expand()
        assert configs == []
        assert skipped == {"subsystems-exceed-pes": 1}


class TestArtifactCache:
    def test_json_round_trip_and_counters(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = "ab" * 32
        assert cache.get_json("result", key) is None
        path = cache.put_json("result", key, {"x": 1})
        assert os.path.exists(path)
        assert cache.get_json("result", key) == {"x": 1}
        assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)

    def test_corrupt_artifact_reads_as_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = "ef" * 32
        cache.put_json("result", key, {"x": 1})
        with open(cache.path("result", key), "w") as handle:
            handle.write("{ truncated")
        assert cache.get_json("result", key) is None

    def test_stale_version_reads_as_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = "01" * 32
        cache.put_json("result", key, {"x": 1})
        path = cache.path("result", key)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["version"] = ARTIFACT_VERSION + 1
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert cache.get_json("result", key) is None

    def test_older_generator_reads_as_miss(self, tmp_path):
        # A row holds its generator's gate count and structural findings:
        # one written before a generator change must not be served after.
        cache = ArtifactCache(str(tmp_path))
        key = "23" * 32
        cache.put_json("result", key, {"gate_count": 1})
        path = cache.path("result", key)
        with open(path) as handle:
            envelope = json.load(handle)
        assert envelope["generator"] == GENERATOR_VERSION
        envelope["generator"] = GENERATOR_VERSION - 1
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert cache.get_json("result", key) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_non_hash_keys_rejected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.path("result", "../escape")


class TestShard:
    """A shard runs the configs of one spec back to back on one generation."""

    def _generations(self, monkeypatch):
        """Patch BusSyn.generate to record each generated system (weakly)
        and how many earlier ones were still alive, after a full
        collection, when it was called."""
        made = []
        alive_at_call = []
        generate = BusSyn.generate

        def recording(tool, spec):
            gc.collect()
            alive_at_call.append(sum(1 for ref in made if ref() is not None))
            generated = generate(tool, spec)
            made.append(weakref.ref(generated))
            return generated

        monkeypatch.setattr(BusSyn, "generate", recording)
        return made, alive_at_call

    def test_one_generation_per_distinct_spec(self, monkeypatch):
        configs, _, _ = shared_spec().expand()
        made, _ = self._generations(monkeypatch)
        result = run_dse_shard((0, [config.options() for config in configs]))
        distinct = {repr(build_config_spec(config)) for config in configs}
        assert len(configs) > len(distinct) > 1
        assert len(made) == len(distinct)
        assert [row["key"] for row in result["rows"]] == [c.key() for c in configs]
        assert all(row["error"] is None for row in result["rows"])

    def test_spec_fields_name_the_spec(self):
        # Equal fields build one spec and distinct fields distinct specs, so
        # one generation per key is one per distinct spec.  The wide sweep
        # crosses every preset with PE counts, widths and policies: 234
        # legal configs.
        wide = SweepSpec.from_dict(
            {
                "name": "wide",
                "axes": {
                    "bus": ["GBAVIII", "BFBA", "SPLITBA", "HYBRID", "GGBA", "CCBA"],
                    "pes": [2, 4, 6, 8],
                    "style": ["PPA", "FPA"],
                    "data_width": [32, 64, 128],
                    "arbiter_policy": ["fcfs", "round_robin", "priority"],
                    "packets": [1],
                },
            }
        )
        assert len(wide.expand()[0]) == 234
        configs = [
            config
            for sweep in (smoke_spec(), example_spec(), wide)
            for config in sweep.expand()[0]
        ]
        specs = {}
        for config in configs:
            specs.setdefault(config.spec_fields(), set()).add(repr(build_config_spec(config)))
        assert len(configs) > len(specs)
        assert all(len(reprs) == 1 for reprs in specs.values())
        assert len(set.union(*specs.values())) == len(specs)

    def test_never_holds_two_designs(self, monkeypatch):
        configs, _, _ = shared_spec().expand()
        made, alive_at_call = self._generations(monkeypatch)
        result = run_dse_shard((0, [config.options() for config in configs]))
        assert alive_at_call == [0] * len(made)
        gc.collect()
        assert [ref() for ref in made] == [None] * len(made)
        assert len(result["rows"]) == len(configs)

    def test_collects_each_spec_machines(self, monkeypatch):
        # Machines are cyclic garbage once run; with the collector's own
        # passes off, the shard's collection after each spec frees them.
        configs, _, _ = shared_spec().expand()
        machines = []
        build_machine = GeneratedBusSystem.build_machine

        def recording(generated, **kwargs):
            machine = build_machine(generated, **kwargs)
            machines.append(weakref.ref(machine))
            return machine

        monkeypatch.setattr(GeneratedBusSystem, "build_machine", recording)
        gc.disable()
        try:
            run_dse_shard((0, [config.options() for config in configs]))
            alive = [ref() is not None for ref in machines]
        finally:
            gc.enable()
        assert alive == [False] * len(configs)

    def test_cold_cache_holds_no_design(self, tmp_path):
        summary = run_sweep(shared_spec(), jobs=1, cache_dir=str(tmp_path))
        files = [name for _dir, _dirs, names in os.walk(str(tmp_path)) for name in names]
        assert len(files) == summary["configs"]
        assert all(name.endswith(".json") for name in files)
        assert os.listdir(os.path.join(str(tmp_path), "objects")) == ["result"]


def bare_run(config, kernel):
    """``(contention-free, run fingerprint, events)`` of ``config``'s bare
    run on its own machine."""
    machine = BusSyn().generate(build_config_spec(config)).build_machine(kernel=kernel)
    metric = simulate_config(config, machine)
    return (
        contention_free(machine.segments),
        run_fingerprint(config, machine, metric),
        machine.sim.events_processed,
    )


class TestPolicyFamilies:
    """A contention-free run serves its arbiter-policy siblings."""

    @pytest.mark.parametrize("kernel", KERNEL_BACKENDS)
    def test_contention_freedom_is_a_family_property(self, kernel):
        # Seven buses x 2/4 PEs x both styles x 3 policies at 1 packet.
        sweep = SweepSpec.from_dict(
            {
                "axes": {
                    "bus": ["GBAVI", "GBAVIII", "BFBA", "SPLITBA", "HYBRID", "GGBA", "CCBA"],
                    "pes": [2, 4],
                    "style": ["PPA", "FPA"],
                    "data_width": [32],
                    "arbiter_policy": ["fcfs", "round_robin", "priority"],
                    "packets": [1],
                }
            }
        )
        configs = sweep.expand()[0]
        assert len(configs) == 51
        families = {}
        for config in configs:
            families.setdefault(config.family_key(), []).append(bare_run(config, kernel))
        free = [runs for runs in families.values() if runs[0][0]]
        for runs in families.values():
            assert len(runs) == 3
            assert len({flag for flag, _fingerprint, _events in runs}) == 1
        for runs in free:
            assert len({fingerprint for _flag, fingerprint, _events in runs}) == 1
            assert len({events for _flag, _fingerprint, events in runs}) == 1
        assert 0 < len(free) < len(families)

    def test_served_rows_equal_rows_run_alone(self):
        configs, _, _ = policy_spec().expand()
        together = run_dse_shard((0, [config.options() for config in configs]))
        assert (together["simulated"], together["shared"]) == (5, 4)
        for config, row in zip(configs, together["rows"]):
            alone = run_dse_shard((0, [config.options()]))
            assert (alone["simulated"], alone["shared"]) == (1, 0)
            assert scrub_timings(row) == scrub_timings(alone["rows"][0])

    def test_jobs_keep_the_fingerprint_and_the_counts(self, tmp_path, monkeypatch):
        machines = []
        build_machine = GeneratedBusSystem.build_machine

        def counting(generated, **kwargs):
            machines.append(generated.spec.name)
            return build_machine(generated, **kwargs)

        monkeypatch.setattr(GeneratedBusSystem, "build_machine", counting)
        summaries = {
            jobs: run_sweep(policy_spec(), jobs=jobs, cache_dir=str(tmp_path / str(jobs)))
            for jobs in (1, 2)
        }
        # In-process at --jobs 1: one machine per contention-free family,
        # one per config of the contended one.
        assert len(machines) == 5
        for summary in summaries.values():
            shards = summary["shard_stats"]["shards"]
            assert sum(shard["simulated"] for shard in shards) == 5
            assert sum(shard["shared"] for shard in shards) == 4
            assert summary["cache_stats"]["hits"] == 0
            assert not any(row["cached"] for row in summary["results"])
            # The fingerprint of the sweep with every config simulated.
            assert sweep_fingerprint(summary).startswith("e76e26d7b1677a3c")
        assert len(summaries[2]["shard_stats"]["shards"]) == 2
        cycles = {
            row["options"]["arbiter_policy"]: row["cycles"]
            for row in summaries[1]["results"]
            if row["label"] == "GBAVIII/4 ofdm-PPA"
        }
        # The contended family runs every policy, and round-robin differs.
        assert cycles == {"fcfs": 543966, "priority": 543966, "round_robin": 543972}


class TestSweepDeterminism:
    def test_warm_rerun_is_pure_cache_hits_and_bit_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(tiny_spec(), jobs=1, cache_dir=cache_dir)
        warm = run_sweep(tiny_spec(), jobs=1, cache_dir=cache_dir)
        assert cold["cache_stats"]["hit_ratio"] == 0.0
        assert warm["cache_stats"]["hit_ratio"] >= 0.95
        assert sweep_fingerprint(cold) == sweep_fingerprint(warm)
        assert all(row["cached"] for row in warm["results"])

    def test_cold_warm_and_jobs_keep_one_fingerprint(self, tmp_path):
        fingerprints = set()
        for jobs in (1, 2):
            cache_dir = str(tmp_path / str(jobs))
            cold = run_sweep(shared_spec(), jobs=jobs, cache_dir=cache_dir)
            warm = run_sweep(shared_spec(), jobs=jobs, cache_dir=cache_dir)
            assert cold["cache_stats"]["hits"] == 0
            assert warm["cache_stats"]["hit_ratio"] == 1.0
            fingerprints |= {sweep_fingerprint(cold), sweep_fingerprint(warm)}
        assert len(fingerprints) == 1

    def test_jobs_do_not_change_the_frontier(self, tmp_path):
        serial = run_sweep(tiny_spec(), jobs=1, cache_dir=str(tmp_path / "a"))
        sharded = run_sweep(tiny_spec(), jobs=4, cache_dir=str(tmp_path / "b"))
        assert sweep_fingerprint(serial) == sweep_fingerprint(sharded)
        assert [r["key"] for r in serial["results"]] == [
            r["key"] for r in sharded["results"]
        ]

    def test_kernel_backends_agree(self, tmp_path):
        fingerprints = {
            kernel: sweep_fingerprint(
                run_sweep(
                    tiny_spec(), jobs=1, kernel=kernel, cache_dir=str(tmp_path / kernel)
                )
            )
            for kernel in KERNEL_BACKENDS
        }
        assert len(set(fingerprints.values())) == 1

    def test_kernel_stays_out_of_config_identity(self, tmp_path):
        # Artifacts cached by a heap sweep satisfy a compiled sweep: the
        # backend is not part of the config hash.
        cache_dir = str(tmp_path)
        run_sweep(tiny_spec(), jobs=1, kernel="heap", cache_dir=cache_dir)
        warm = run_sweep(tiny_spec(), jobs=1, kernel="compiled", cache_dir=cache_dir)
        assert warm["cache_stats"]["hit_ratio"] == 1.0

    def test_no_cache_recomputes_but_matches(self, tmp_path):
        cache_dir = str(tmp_path)
        cached = run_sweep(tiny_spec(), jobs=1, cache_dir=cache_dir)
        fresh = run_sweep(tiny_spec(), jobs=1, cache_dir=cache_dir, use_cache=False)
        assert fresh["cache_stats"]["hits"] == 0
        assert sweep_fingerprint(cached) == sweep_fingerprint(fresh)

    def test_budget_caps_the_queue(self, tmp_path):
        capped = run_sweep(tiny_spec(), jobs=1, budget=2, cache_dir=str(tmp_path))
        assert capped["configs"] == 2
        assert capped["expanded"] == 4
        empty = run_sweep(tiny_spec(), jobs=1, budget=0, cache_dir=None)
        assert empty["configs"] == 0
        assert empty["frontier"] == []
        with pytest.raises(ValueError):
            run_sweep(tiny_spec(), jobs=1, budget=-1, cache_dir=None)

    def test_shard_assignment_is_deterministic_and_in_range(self):
        configs, _, _ = smoke_spec().expand()
        for shards in (1, 3, 8):
            assignment = [shard_of(c.key(), shards) for c in configs]
            assert assignment == [shard_of(c.key(), shards) for c in configs]
            assert all(0 <= index < shards for index in assignment)


class TestScoring:
    def test_resilience_and_verify_axes(self, tmp_path):
        spec = SweepSpec.from_dict(
            {
                "cases": [{"bus": "GBAVIII", "style": "FPA", "packets": 1}],
                "score": {"resilience": True, "verify": True},
                "seed": 3,
            }
        )
        summary = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        (row,) = summary["results"]
        assert row["options"]["seed"] == 3
        assert 0.0 <= row["resilience"] <= 1.0
        assert row["resilience_detail"]["injected"] > 0
        assert row["resilience_detail"]["invariant_failures"] == []
        assert row["verify"]["ok"] is True
        assert ["resilience", "max"] in summary["axes"]

    def test_seed_left_out_of_identity_without_resilience(self):
        a = SweepSpec.from_dict({"cases": [{"bus": "GGBA"}], "seed": 1})
        b = SweepSpec.from_dict({"cases": [{"bus": "GGBA"}], "seed": 2})
        assert [c.key() for c in a.expand()[0]] == [c.key() for c in b.expand()[0]]


class TestPareto:
    ROWS = [
        {"options": {"n": 1}, "throughput": 3.0, "gate_count": 3000},
        {"options": {"n": 2}, "throughput": 2.5, "gate_count": 1500},
        {"options": {"n": 3}, "throughput": 2.0, "gate_count": 2000},  # dominated by 2
        {"options": {"n": 4}, "throughput": 3.0, "gate_count": 3500},  # dominated by 1
    ]

    def test_dominates(self):
        axes = (("throughput", "max"), ("gate_count", "min"))
        assert dominates(self.ROWS[1], self.ROWS[2], axes)
        assert not dominates(self.ROWS[2], self.ROWS[1], axes)
        assert not dominates(self.ROWS[0], self.ROWS[1], axes)
        assert not dominates(self.ROWS[0], self.ROWS[0], axes)

    def test_frontier_and_rank(self):
        frontier = pareto_frontier(self.ROWS)
        assert [row["options"]["n"] for row in frontier] == [1, 2]
        ranked = rank_rows(self.ROWS)
        assert [row["rank"] for row in ranked] == [1, 2, 3, 4]
        assert [row["pareto"] for row in ranked] == [True, True, False, False]
        # Frontier members rank ahead of every dominated row; dominated
        # rows then sort by the axis order (throughput down).
        assert [row["options"]["n"] for row in ranked] == [1, 2, 4, 3]

    def test_frontier_lines_name_the_whole_config(self):
        frontier = run_sweep(policy_spec(), cache_dir=None)["frontier"]
        lines = format_frontier_lines(frontier)[1:]
        assert len(lines) == len(frontier)
        assert len(set(lines)) == len(lines), lines
        # Policy siblings tie on bus, style and both axes.
        ties = {
            (row["options"]["bus"], row["options"]["style"])
            + (row["throughput"], row["gate_count"])
            for row in frontier
        }
        assert len(ties) < len(frontier)

    def test_axes_for_adds_resilience_only_when_universal(self):
        rows = [dict(row, resilience=1.0) for row in self.ROWS]
        assert ("resilience", "max") in axes_for(rows)
        rows[0]["resilience"] = None
        assert ("resilience", "max") not in axes_for(rows)


class TestCliRoundTrip:
    def test_dse_verb_cold_warm_and_ledger(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.ledger import Ledger

        cache_dir = str(tmp_path / "cache")
        ledger_dir = str(tmp_path / "ledger")
        out = str(tmp_path / "frontier.json")
        argv = [
            "dse",
            "--smoke",
            "--jobs",
            "2",
            "--cache-dir",
            cache_dir,
            "--ledger",
            ledger_dir,
        ]
        assert main(argv + ["-o", out]) == 0
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Pareto-efficient configurations" in output
        with open(out) as handle:
            summary = json.load(handle)
        assert summary["configs"] == 10
        assert len(summary["frontier"]) >= 1
        records = Ledger(ledger_dir).records()
        assert [r["body"]["verb"] for r in records] == ["dse", "dse"]
        # Cold and warm sweeps are the same run identity: scheduling and
        # cache facts live in the envelope, not the hashed body.
        assert records[0]["hash"] == records[1]["hash"]

    def test_dse_verb_reports_shared_runs(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "policies.json"
        spec.write_text(json.dumps(policy_spec().as_dict()))
        argv = ["dse", "--spec", str(spec), "--cache-dir", str(tmp_path / "cache"), "--no-ledger"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        line = "%d simulated, %d served by a contention-free arbiter-policy sibling"
        assert line % (5, 4) in cold.splitlines()
        assert line % (0, 0) in warm.splitlines()

    def test_dse_verb_defaults_its_cache_dir(self, tmp_path, monkeypatch, capsys):
        # Without --cache-dir the verb caches under ./.repro/dse, the path
        # its help names (the parser itself leaves the option unset).
        from repro.cli import main

        spec = tmp_path / "one.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "one",
                    "axes": {"bus": ["GGBA"], "pes": [2], "style": ["FPA"], "packets": [1]},
                }
            )
        )
        monkeypatch.chdir(tmp_path)
        assert main(["dse", "--spec", str(spec), "--no-ledger"]) == 0
        capsys.readouterr()
        results = tmp_path / ".repro" / "dse" / "objects" / "result"
        assert len(list(results.glob("*/*.json"))) == 1
