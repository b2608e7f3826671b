"""Tests for the observability layer: tracer, metrics, run telemetry.

The two load-bearing invariants (ISSUE satellites):

* span/stats lockstep -- on a traced GBAVIII preset run, the per-segment
  sums of arbitration and tenure span cycles match the segment's
  ``BusStats`` counters exactly;
* free-when-off -- a tracing-disabled run produces bit-identical
  experiment rows and identical kernel event counts.
"""

import json

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.obs import Observability, Probe
from repro.obs.metrics import (
    DEFAULT_CYCLE_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.report import (
    RunReport,
    aggregate_run_reports,
    build_run_report,
    drain_recorded,
    record_run,
)
from repro.obs.tracer import (
    Tracer,
    chrome_trace_events,
    iter_jsonl_records,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.options import presets
from repro.sim.fabric import build_machine
from repro.sim.kernel import KERNEL_BACKENDS
from repro.sim.stats import BusStats
from repro.sim.vcd import GrantTrace


def _traced_gbaviii_run(packets=2, kernel=None):
    machine = build_machine(presets.preset("GBAVIII", 4), kernel=kernel)
    obs = Observability()
    machine.attach_observability(obs)
    result = run_ofdm(machine, "FPA", OfdmParameters(packets=packets))
    return machine, obs, result


# The lockstep invariants must hold on every scheduler backend -- the
# compiled backend batches bucket pops and, with a tracer attached, runs
# the generic fabric paths, but spans/metrics are emitted by the fabric,
# which only observes event *order*.
_KERNELS = list(KERNEL_BACKENDS)


class TestSpanStatsLockstep:
    """Satellite (c): span sums must equal the BusStats counters."""

    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_gbaviii_span_sums_match_bus_stats(self, kernel):
        machine, obs, _result = _traced_gbaviii_run(kernel=kernel)
        sums = obs.tracer.span_cycle_sums()
        assert sums, "traced run recorded no transactions"
        for name, segment in machine.segments.items():
            stats = segment.stats
            entry = sums.get(name)
            if entry is None:
                assert stats.transactions == 0
                continue
            assert entry["transactions"] == stats.transactions
            assert entry["arbitration"] == stats.arbitration_cycles
            assert entry["busy"] == stats.busy_cycles
            assert entry["tenure"] == stats.held_cycles

    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_histogram_count_matches_transactions(self, kernel):
        machine, obs, _result = _traced_gbaviii_run(kernel=kernel)
        for name, segment in machine.segments.items():
            hist = obs.registry.get("bus.%s.arb_wait_cycles" % name)
            assert hist is not None
            assert hist.count == segment.stats.transactions

    @pytest.mark.parametrize("kernel", _KERNELS)
    def test_multi_segment_preset_spans_match(self, kernel):
        # GBAVI routes over bridges (multi-segment path in fabric).
        machine = build_machine(presets.preset("GBAVI", 4), kernel=kernel)
        obs = Observability()
        machine.attach_observability(obs)
        run_ofdm(machine, "PPA", OfdmParameters(packets=1))
        sums = obs.tracer.span_cycle_sums()
        for name, segment in machine.segments.items():
            stats = segment.stats
            entry = sums.get(name, {"arbitration": 0, "busy": 0, "transactions": 0})
            assert entry["transactions"] == stats.transactions
            assert entry["arbitration"] == stats.arbitration_cycles
            assert entry["busy"] == stats.busy_cycles


class TestFreeWhenOff:
    """Satellite (c): disabled observability changes nothing."""

    def test_rows_bit_identical_with_and_without_telemetry(self):
        from repro.experiments.table2 import run_table2_case

        case = (3, "GBAVIII", "FPA")
        plain = run_table2_case(case, packets=2)
        drain_recorded()
        traced = run_table2_case(case, packets=2, telemetry=True)
        reports = drain_recorded()
        assert vars(plain) == vars(traced)
        assert len(reports) == 1
        assert reports[0]["name"] == "table2:3 GBAVIII/FPA"

    def test_event_counts_identical(self):
        results = []
        for telemetry in (False, True):
            machine = build_machine(presets.preset("GBAVIII", 4))
            if telemetry:
                machine.attach_observability(Observability())
            run_ofdm(machine, "FPA", OfdmParameters(packets=2))
            results.append((machine.sim.now, machine.sim.events_processed))
        assert results[0] == results[1]

    def test_detached_machine_has_no_obs_hooks(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        assert machine.obs is None
        assert machine.sim.monitor_depth is False
        models = list(machine.segments.values()) + machine.bridges
        models += [segment.arbiter for segment in machine.segments.values()]
        for block in machine.fifo_blocks.values():
            models += [block.up, block.down]
        assert all(model.probe is None for model in models)
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        # Nothing was observed: no queue depth.
        assert machine.sim.peak_queue_depth == 0


def _probed_run(arch, kernel, consumers=()):
    """One 1-packet PPA run with the named consumers attached as probes;
    returns what each consumer recorded, plus the run's cycles."""
    machine = build_machine(presets.preset(arch, 4), kernel=kernel)
    obs = monitor = grants = None
    if "obs" in consumers:
        obs = Observability()
        machine.attach_observability(obs)
    if "monitor" in consumers:
        monitor = machine.attach_monitors(fail_fast=False)
    if "grants" in consumers:
        grants = GrantTrace()
        machine.attach_probe(grants)
    out = {"cycles": run_ofdm(machine, "PPA", OfdmParameters(packets=1)).cycles}
    if obs is not None:
        tracer = obs.tracer
        out["obs"] = (
            tracer.transactions,
            tracer.hops,
            tracer.fifo_ops,
            tracer.instants,
            tracer.span_cycle_sums(),
        )
    if monitor is not None:
        out["monitor"] = (
            monitor.requests_observed,
            monitor.grants_observed,
            monitor.cancels_observed,
            monitor.transfers_opened,
            monitor.transfers_closed,
            [str(finding) for finding in monitor.finalize(cycle=machine.sim.now)],
        )
    if grants is not None:
        out["grants"] = {arbiter.name: edges for arbiter, edges in grants.edges.items()}
    return out


class TestProbes:
    """Observability, monitors and the VCD grant trace share one probe slot."""

    @pytest.mark.parametrize("kernel", _KERNELS)
    @pytest.mark.parametrize("arch", ["GBAVI", "BFBA"])
    def test_consumers_together_match_solo_runs(self, arch, kernel):
        bare = _probed_run(arch, kernel)
        together = _probed_run(arch, kernel, ("obs", "monitor", "grants"))
        assert together["cycles"] == bare["cycles"]
        for consumer in ("obs", "monitor", "grants"):
            solo = _probed_run(arch, kernel, (consumer,))
            assert solo["cycles"] == bare["cycles"]
            assert together[consumer] == solo[consumer], consumer
        transactions, hops, fifo_ops, instants, _sums = together["obs"]
        assert transactions and instants
        # GBAVI bridges neighbours; BFBA links them through FIFOs.
        assert hops if arch == "GBAVI" else fifo_ops
        requests, grants, _cancels, opened, closed, findings = together["monitor"]
        assert requests and grants and opened == closed and findings == []
        assert together["grants"]

    def test_attach_probe_ignores_a_second_attach(self):
        machine = build_machine(presets.preset("GBAVIII", 4), kernel="compiled")
        obs = Observability()
        machine.attach_probe(obs)
        # attach_observability attaches the same probe again: a no-op.
        machine.attach_observability(obs)
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        tenures = sum(segment.stats.transactions for segment in machine.segments.values())
        assert len(obs.tracer.transactions) == tenures


class _CountingProbe(Probe):
    """Counts the calls of every hook, by hook name."""

    def __init__(self):
        self.calls = {}


def _counting_hook(hook):
    def count(self, *args):
        self.calls[hook] = self.calls.get(hook, 0) + 1

    return count


for _hook in [name for name in vars(Probe) if name.startswith("on_")]:
    setattr(_CountingProbe, _hook, _counting_hook(_hook))


class TestMidRunProbe:
    """A probe attached mid-run sees every later tenure, those of polls
    and cache refills already under way included, on both backends."""

    @pytest.mark.parametrize("arch", ["GBAVIII", "BFBA", "GBAVI"])
    def test_probe_attached_mid_run_matches_heap(self, arch):
        def run(kernel):
            machine = build_machine(presets.preset(arch, 4), kernel=kernel)
            probe = _CountingProbe()

            def attach():
                yield 20_000
                machine.attach_probe(probe)

            machine.sim.process(attach())
            result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
            return result.cycles, probe.calls

        heap = run("heap")
        calls = heap[1]
        assert calls["on_tenure"] > 1000
        assert calls["on_transfer_open"] == calls["on_transfer_close"] == calls["on_tenure"]
        assert run("compiled") == heap

    @pytest.mark.parametrize("at", [1, 4])
    def test_monitor_attached_mid_bridged_transfer_finds_nothing(self, at):
        """A bridged read in flight when a monitor attaches -- holding its
        first segment (at 1) or both (at 4) -- closes each segment with
        the probe it opened with: the monitor sees no close without an
        open."""
        machine = build_machine(presets.preset("GBAVI", 4))
        pe = machine.pe("A")
        monitors = []

        def read():
            yield from machine.transaction(pe, "SRAM_B", 0, 8, False)

        def attach():
            yield at
            monitors.append(machine.attach_monitors(fail_fast=False))

        machine.sim.process(read())
        machine.sim.process(attach())
        machine.sim.run()
        assert [str(finding) for finding in monitors[0].finalize()] == []


class TestChromeTrace:
    def test_traced_run_exports_valid_chrome_trace(self, tmp_path):
        _machine, obs, _result = _traced_gbaviii_run()
        path = str(tmp_path / "trace.json")
        write_chrome_trace(obs.tracer, path)
        with open(path) as handle:
            document = json.load(handle)
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        # one arbitration + one tenure span per transaction
        assert len(spans) == 2 * len(obs.tracer.transactions)
        assert {e["cat"] for e in spans} == {"arbitration", "tenure"}

    def test_lane_metadata_precedes_events(self):
        tracer = Tracer()
        tracer.transaction("BUS_B", "pe0", 0, 3, 10, 4, True)
        tracer.transaction("BUS_A", "pe1", 5, 6, 9, 2, False)
        events = chrome_trace_events(tracer)
        metadata = [e for e in events if e["ph"] == "M"]
        # process_name + one thread_name per lane, name-sorted tids
        names = [e["args"]["name"] for e in metadata if e["name"] == "thread_name"]
        assert names == ["BUS_A", "BUS_B"]
        timed = [e for e in events if e["ph"] != "M"]
        assert [e["ts"] for e in timed] == sorted(e["ts"] for e in timed)

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        base = {"ph": "X", "pid": 1, "tid": 1, "name": "x"}
        bad_order = {
            "traceEvents": [
                dict(base, ts=10, dur=1),
                dict(base, ts=5, dur=1),
            ]
        }
        assert any("monotonically" in f for f in validate_chrome_trace(bad_order))
        bad_dur = {"traceEvents": [dict(base, ts=0, dur=-2)]}
        assert any("dur" in f for f in validate_chrome_trace(bad_dur))
        meta_ts = {
            "traceEvents": [{"ph": "M", "pid": 1, "tid": 0, "name": "m", "ts": 1}]
        }
        assert any("metadata" in f for f in validate_chrome_trace(meta_ts))
        missing = {"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}
        assert len(validate_chrome_trace(missing)) >= 2

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.transaction("BUS", "pe0", 0, 2, 8, 4, False, 3)
        tracer.hop(4, "BRIDGE")
        tracer.fifo(5, "FIFO_UP", "push", 2, 2)
        tracer.instant(6, "ARB", "grant pe0", {"waited": 2})
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(tracer, path)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == len(tracer) == 4
        assert {r["type"] for r in records} == {
            "transaction", "bridge_hop", "fifo", "instant",
        }
        txn = next(r for r in records if r["type"] == "transaction")
        assert (txn["start"], txn["acquired"], txn["end"]) == (0, 2, 8)

    def test_clear_resets_tracer(self):
        tracer = Tracer()
        tracer.transaction("B", "m", 0, 1, 2, 1, True)
        tracer.hop(1, "x")
        assert len(tracer) == 2
        tracer.clear()
        assert len(tracer) == 0
        assert list(iter_jsonl_records(tracer)) == []


class TestMetrics:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        other = Counter("c")
        other.inc(2)
        counter.merge(other)
        assert counter.as_dict() == {"kind": "counter", "value": 7}

    def test_histogram_percentiles_capped_at_max(self):
        hist = Histogram("h")
        for value in (1, 1, 2, 3, 100):
            hist.observe(value)
        assert hist.count == 5
        assert hist.mean() == pytest.approx(107 / 5)
        assert hist.percentile(50) == 2.0
        # p99 lands in the 128-bucket but is capped at the observed max.
        assert hist.percentile(99) == 100.0
        assert hist.percentile(0) == 0.0 or hist.percentile(0) <= 1.0

    def test_histogram_overflow_and_merge(self):
        hist = Histogram("h", buckets=(0, 10))
        hist.observe(5)
        hist.observe(50_000)
        assert hist.counts[-1] == 1
        assert hist.percentile(100) == 50_000.0
        other = Histogram("h", buckets=(0, 10))
        other.observe(3)
        hist.merge(other)
        assert hist.count == 3
        assert hist.min_value == 3
        with pytest.raises(ValueError):
            hist.merge(Histogram("x", buckets=(0, 99)))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(5, 2))

    def test_time_series_spreads_interval(self):
        series = TimeSeries("t", window=10)
        series.add(5, 25)  # 5 cycles in window 0, 10 in window 1, 5 in window 2
        assert series.series() == [(0, 5, 0.5), (10, 10, 1.0), (20, 5, 0.5)]
        assert series.peak() == 1.0
        other = TimeSeries("t", window=10)
        other.add(0, 5)
        series.merge(other)
        assert series.series()[0] == (0, 10, 1.0)
        with pytest.raises(ValueError):
            series.merge(TimeSeries("x", window=7))

    def test_registry_type_checks_and_sorted_export(self):
        registry = MetricsRegistry()
        registry.counter("z.count").inc()
        registry.histogram("a.wait").observe(2)
        registry.time_series("q.occ", window=64).add(0, 10)
        assert registry.names() == ["a.wait", "q.occ", "z.count"]
        assert list(registry.as_dict()) == registry.names()
        with pytest.raises(TypeError):
            registry.histogram("z.count")
        # same-name same-type returns the existing metric
        assert registry.counter("z.count").value == 1

    def test_registry_merge(self):
        a = MetricsRegistry()
        a.counter("n").inc(2)
        b = MetricsRegistry()
        b.counter("n").inc(3)
        b.histogram("h", buckets=DEFAULT_CYCLE_BUCKETS).observe(1)
        a.merge(b)
        assert a.counter("n").value == 5
        assert a.get("h").count == 1


class TestUtilization:
    """Satellite (a): unclamped ratio + assertion instead of min(1.0, ...)."""

    def test_true_ratio_not_clamped_low(self):
        stats = BusStats("B")
        stats.busy_cycles = 80
        stats.arbitration_cycles = 30
        assert stats.held_cycles == 50
        assert stats.utilization(100) == pytest.approx(0.5)
        assert stats.utilization(0) == 0.0

    def test_assertion_fires_on_double_counted_tenure(self):
        stats = BusStats("B")
        stats.busy_cycles = 300
        stats.arbitration_cycles = 0
        with pytest.raises(AssertionError, match="double-counting"):
            stats.utilization(100)

    def test_contended_run_stays_at_or_below_one(self):
        machine, _obs, _result = _traced_gbaviii_run()
        elapsed = machine.sim.now
        for segment in machine.segments.values():
            util = segment.stats.utilization(elapsed)
            assert 0.0 <= util <= 1.0


class TestRunReport:
    def test_build_run_report_fields(self, tmp_path):
        machine, _obs, _result = _traced_gbaviii_run()
        report = machine.run_report(wall_seconds=0.5, name="traced")
        assert report.name == "traced"
        assert report.simulated_cycles == machine.sim.now
        assert report.events_processed == machine.sim.events_processed
        assert report.peak_queue_depth > 0
        assert report.events_per_second() == pytest.approx(
            report.events_processed / 0.5
        )
        segment_names = [row["name"] for row in report.segments]
        assert segment_names == sorted(machine.segments)
        for row in report.segments:
            assert row["held_cycles"] == row["busy_cycles"] - row["arbitration_cycles"]
            if row["transactions"]:
                assert "arb_wait_p99" in row
        assert any(line for line in report.summary_lines())
        path = str(tmp_path / "report.json")
        report.to_json(path)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["simulated_cycles"] == report.simulated_cycles

    def test_segment_detail_exists_from_attach(self):
        # Created when the machine attaches obs, so a segment that never
        # moves a word still reports its (empty) distribution.
        machine = build_machine(presets.preset("GBAVIII", 4))
        obs = Observability()
        machine.attach_observability(obs)
        assert obs.registry.names() == sorted(
            "bus.%s.%s" % (name, metric)
            for name in machine.segments
            for metric in ("arb_wait_cycles", "occupancy")
        )
        for row in machine.run_report(name="idle").segments:
            assert row["transactions"] == 0
            assert row["arb_wait_p99"] == 0 and row["occupancy_peak_fraction"] == 0.0

    def test_report_without_observability_still_works(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        run_ofdm(machine, "FPA", OfdmParameters(packets=1))
        report = build_run_report(machine, name="plain")
        assert report.simulated_cycles == machine.sim.now
        for row in report.segments:
            assert "arb_wait_p99" not in row

    def test_record_and_drain(self):
        drain_recorded()
        record_run(RunReport(name="a", simulated_cycles=10))
        record_run({"name": "b", "simulated_cycles": 20})
        drained = drain_recorded()
        assert [r["name"] for r in drained] == ["a", "b"]
        assert drain_recorded() == []

    def test_aggregate_sums_and_maxes(self):
        reports = [
            RunReport(
                name="r1",
                wall_seconds=1.0,
                simulated_cycles=100,
                events_processed=10,
                peak_queue_depth=3,
                segments=[{
                    "name": "B", "transactions": 2, "busy_cycles": 40,
                    "arbitration_cycles": 10, "held_cycles": 30,
                    "elapsed_cycles": 100, "peak_pending_requests": 2,
                }],
            ).as_dict(),
            RunReport(
                name="r2",
                wall_seconds=2.0,
                simulated_cycles=300,
                events_processed=30,
                peak_queue_depth=7,
                segments=[{
                    "name": "B", "transactions": 4, "busy_cycles": 80,
                    "arbitration_cycles": 20, "held_cycles": 60,
                    "elapsed_cycles": 300, "peak_pending_requests": 1,
                }],
            ).as_dict(),
        ]
        aggregate = aggregate_run_reports(reports)
        assert aggregate["runs"] == 2
        assert aggregate["simulated_cycles"] == 400
        assert aggregate["peak_queue_depth"] == 7
        segment = aggregate["segments"][0]
        assert segment["transactions"] == 6
        assert segment["peak_pending_requests"] == 2
        assert segment["utilization"] == pytest.approx(90 / 400)
        assert aggregate["overall_utilization"] == pytest.approx(90 / 400)

    def test_parallel_telemetry_matches_sequential(self):
        from repro.experiments.table2 import TABLE2_CASES, run_table2_telemetry

        cases = TABLE2_CASES[:4]
        drain_recorded()
        rows_seq, tel_seq = run_table2_telemetry(packets=1, cases=cases, jobs=1)
        rows_par, tel_par = run_table2_telemetry(packets=1, cases=cases, jobs=2)
        assert [vars(r) for r in rows_seq] == [vars(r) for r in rows_par]
        reports_seq = [r for t in tel_seq for r in t.run_reports]
        reports_par = [r for t in tel_par for r in t.run_reports]
        assert [r["name"] for r in reports_seq] == [r["name"] for r in reports_par]

        def strip_wall(aggregate):
            return {k: v for k, v in aggregate.items() if k != "wall_seconds"}

        assert strip_wall(aggregate_run_reports(reports_seq)) == strip_wall(
            aggregate_run_reports(reports_par)
        )


class TestCli:
    def test_trace_verb_writes_valid_trace_and_report(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "t.json")
        report_path = str(tmp_path / "r.json")
        code = main([
            "trace", "--preset", "GBAVIII", "--app", "ofdm", "--packets", "1",
            "-o", trace_path, "--format", "both", "--report", report_path,
        ])
        assert code == 0
        with open(trace_path) as handle:
            assert validate_chrome_trace(json.load(handle)) == []
        with open(trace_path + "l") as handle:
            assert all(json.loads(line) for line in handle)
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["simulated_cycles"] > 0
        out = capsys.readouterr().out
        assert "peak queue depth" in out

    def test_validate_module_cli(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        _machine, obs, _result = _traced_gbaviii_run(packets=1)
        path = str(tmp_path / "t.json")
        write_chrome_trace(obs.tracer, path)
        assert validate_main([path]) == 0
        assert "OK" in capsys.readouterr().out
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as handle:
            json.dump({"traceEvents": [{"ph": "X", "ts": -1}]}, handle)
        assert validate_main([bad]) == 1

    def test_profile_out_writes_pstats_dump(self, tmp_path, capsys):
        import pstats

        from repro.cli import main

        dump = str(tmp_path / "prof.pstats")
        code = main(["profile", "5", "--top", "1", "-o", dump])
        assert code == 0
        stats = pstats.Stats(dump)
        assert stats.total_calls > 0

    def test_profile_kernel_selects_the_backend(self, tmp_path, capsys, monkeypatch):
        import json
        import pstats

        from repro.cli import main

        monkeypatch.setenv("REPRO_SIM_KERNEL", "heap")
        dump = str(tmp_path / "prof.pstats")
        code = main(["profile", "2", "--kernel", "compiled", "--top", "1", "-o", dump])
        assert code == 0
        assert "provenance: backend=compiled " in capsys.readouterr().out
        with open(dump + ".provenance.json") as handle:
            assert json.load(handle)["backend"] == "compiled"
        # The case really ran there: the compiled run loop was profiled.
        assert any(
            filename.endswith("sim/compiled/kernel.py") and name == "run"
            for filename, _line, name in pstats.Stats(dump).stats
        )

    def test_profile_unknown_kernel_exits_2(self, capsys):
        from repro.cli import main

        assert main(["profile", "2", "--kernel", "nope", "--top", "1"]) == 2
        assert capsys.readouterr().err.startswith("repro: ")
