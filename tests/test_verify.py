"""Tests for the cross-layer verification pass (repro.verify).

Covers both halves of the tentpole -- structural netlist<->machine
equivalence and runtime protocol assertion monitors -- plus the negative
cases the acceptance criteria call out: a deliberately corrupted netlist
(dropped wire) and a deliberately broken arbiter (double grant) must each
be caught.
"""

import copy

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.cli import main
from repro.core.busyn import BusSyn
from repro.faults.chaos import run_chaos_case
from repro.options import presets
from repro.sim.arbiter import FCFSArbiter, RoundRobinArbiter
from repro.sim.fabric import build_machine
from repro.sim.fifo import HardwareFifo
from repro.sim.kernel import Simulator
from repro.verify import (
    VERIFY_ARCHITECTURES,
    Finding,
    ProtocolMonitor,
    ProtocolViolationError,
    compare_graphs,
    graph_from_design,
    graph_from_machine,
    run_verify,
    run_verify_case,
)


def _graphs(arch, pe_count=4):
    spec = presets.preset(arch, pe_count)
    design = BusSyn().generate(spec).design()
    return graph_from_design(design), graph_from_machine(build_machine(spec))


class TestFinding:
    def test_str_carries_cycle_and_category(self):
        finding = Finding("error", "fifo", "F.up", "overflow", cycle=42)
        assert str(finding) == "[error] F.up (fifo) @cycle 42: overflow"
        assert Finding("error", "structure", "m", "x").as_dict()["cycle"] is None


class TestStructuralEquivalence:
    @pytest.mark.parametrize("arch", VERIFY_ARCHITECTURES)
    def test_netlist_matches_machine(self, arch):
        netlist_graph, machine_graph = _graphs(arch)
        findings = compare_graphs(netlist_graph, machine_graph)
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_graph_shapes_bfba(self):
        netlist_graph, machine_graph = _graphs("BFBA")
        for graph in (netlist_graph, machine_graph):
            # Four per-PE segments, a ring of four FIFO and four HS links.
            assert len(graph.segments) == 4
            assert sum(graph.fifo_links.values()) == 4
            assert sum(graph.hs_links.values()) == 4
            assert not graph.bridges
            assert graph.pes == {
                "MPC755_A",
                "MPC755_B",
                "MPC755_C",
                "MPC755_D",
            }

    def test_graph_shapes_splitba(self):
        netlist_graph, machine_graph = _graphs("SPLITBA")
        for graph in (netlist_graph, machine_graph):
            shared = [
                node for node in graph.segments.values() if len(node.masters) == 2
            ]
            assert len(shared) == 2
            assert sum(graph.bridges.values()) == 1
            for node in shared:
                assert node.arbiter_policy == "fcfs"
                assert node.n_masters == 2

    def test_dropped_wire_is_caught(self):
        """Acceptance: a corrupted netlist (dropped wire) must be detected."""
        spec = presets.preset("GBAVI", 4)
        # BusSyn memoizes per spec repr; mutate a private deep copy so the
        # cached design other tests see stays intact.
        design = copy.deepcopy(BusSyn().generate(spec).design())
        ban = next(
            module
            for name, module in design.modules.items()
            if name.startswith("ban_gbavi")
        )
        mbi = next(inst for inst in ban.instances if inst.name == "u_mbi0")
        mbi.connection("dh").expression = "w_dangling"
        findings = compare_graphs(
            graph_from_design(design),
            graph_from_machine(build_machine(spec)),
        )
        assert any(
            "MBI0.dh" in str(f) and "w_dangling" in str(f) for f in findings
        ), findings

    def test_missing_machine_bridge_is_caught(self):
        spec = presets.preset("GBAVI", 4)
        machine = build_machine(spec)
        machine.bridges.pop()
        findings = compare_graphs(
            graph_from_design(BusSyn().generate(spec).design()),
            graph_from_machine(machine),
        )
        assert any("bridge count differs" in str(f) for f in findings), findings

    def test_arbiter_policy_divergence_is_caught(self):
        spec = presets.preset("GBAVIII", 4)
        machine = build_machine(spec)
        shared = next(
            segment
            for segment in machine.segments.values()
            if segment.name.startswith("GLOBAL_BUS")
        )
        shared.arbiter = RoundRobinArbiter(machine.sim, shared.arbiter.name)
        findings = compare_graphs(
            graph_from_design(BusSyn().generate(spec).design()),
            graph_from_machine(machine),
        )
        assert any("arbiter policy differs" in str(f) for f in findings), findings


class _DoubleGrantArbiter(FCFSArbiter):
    """FCFS with the owner guard dropped: grants while the bus is held."""

    __slots__ = ()

    def _dispatch(self):
        if not self._pending:
            return
        master, grant, requested_at = self._pending.pop(0)
        self.owner = master
        self.grants += 1
        if self.probe is not None:
            self.probe.on_grant(self, master, self.sim.now - requested_at)
        grant.succeed(master)


class TestProtocolMonitor:
    def test_double_grant_is_caught(self):
        """Acceptance: a broken arbiter (double grant) must be detected."""
        sim = Simulator()
        arbiter = _DoubleGrantArbiter(sim, "broken")
        monitor = ProtocolMonitor()
        monitor.watch_arbiter(arbiter)
        arbiter.probe = monitor
        arbiter.request("A")  # immediate grant, A owns the bus
        with pytest.raises(ProtocolViolationError) as excinfo:
            arbiter.request("B")  # broken dispatch grants over A
        assert excinfo.value.finding.category == "grant-onehot"
        assert "double grant" in str(excinfo.value)

    def test_clean_contended_sequence_has_no_findings(self):
        sim = Simulator()
        arbiter = FCFSArbiter(sim, "arb")
        monitor = ProtocolMonitor()
        monitor.watch_arbiter(arbiter)
        arbiter.probe = monitor
        arbiter.request("A")
        grant_b = arbiter.request("B")
        arbiter.cancel("B", grant_b)  # withdrawn REQ is accounted
        arbiter.release("A")
        assert monitor.finalize() == []
        assert monitor.grants_observed == 1
        assert monitor.cancels_observed == 1

    def test_starved_request_reported_at_finalize(self):
        sim = Simulator()
        arbiter = FCFSArbiter(sim, "arb")
        monitor = ProtocolMonitor()
        monitor.watch_arbiter(arbiter)
        arbiter.probe = monitor
        arbiter.request("A")
        arbiter.request("B")  # still queued when the run "ends"
        findings = monitor.finalize()
        categories = {finding.category for finding in findings}
        assert "req-gnt" in categories  # B never granted, never withdrawn
        assert "grant-onehot" in categories  # A never released

    def test_cancel_without_request_is_violation(self):
        sim = Simulator()
        arbiter = FCFSArbiter(sim, "arb")
        monitor = ProtocolMonitor()
        monitor.watch_arbiter(arbiter)
        with pytest.raises(ProtocolViolationError):
            monitor.on_cancel(arbiter, "Z")

    def test_release_by_non_owner_is_violation(self):
        sim = Simulator()
        arbiter = FCFSArbiter(sim, "arb")
        monitor = ProtocolMonitor()
        monitor.watch_arbiter(arbiter)
        with pytest.raises(ProtocolViolationError):
            monitor.on_release(arbiter, "X")

    def test_fifo_overflow_underflow_conservation(self):
        sim = Simulator()
        fifo = HardwareFifo(sim, "F", depth_words=4)

        monitor = ProtocolMonitor()
        monitor.watch_fifo(fifo)
        with pytest.raises(ProtocolViolationError, match="overflow"):
            monitor.on_fifo_push(fifo, 5)

        monitor = ProtocolMonitor()
        monitor.watch_fifo(fifo)
        with pytest.raises(ProtocolViolationError, match="underflow"):
            monitor.on_fifo_pop(fifo, 1)

        monitor = ProtocolMonitor()
        monitor.watch_fifo(fifo)
        # Hook claims 2 words arrived but the hardware count stayed 0.
        with pytest.raises(ProtocolViolationError, match="conservation"):
            monitor.on_fifo_push(fifo, 2)

    def test_fifo_real_traffic_is_clean(self):
        sim = Simulator()
        fifo = HardwareFifo(sim, "F", depth_words=4)
        monitor = ProtocolMonitor()
        monitor.watch_fifo(fifo)
        fifo.probe = monitor
        fifo.push([1, 2, 3])
        assert fifo.pop(2) == [1, 2]
        fifo.push([4, 5, 6])
        assert monitor.findings == []

    def test_transfer_without_grant_is_violation(self):
        machine = build_machine(presets.preset("BFBA", 2))
        monitor = machine.attach_monitors()
        segment = next(iter(machine.segments.values()))
        with pytest.raises(ProtocolViolationError, match="without holding"):
            monitor.on_transfer_open(segment, "GHOST")

    def test_close_without_open_is_violation(self):
        machine = build_machine(presets.preset("BFBA", 2))
        monitor = machine.attach_monitors()
        segment = next(iter(machine.segments.values()))
        with pytest.raises(ProtocolViolationError, match="never opened"):
            monitor.on_transfer_close(segment, "GHOST")

    def test_bridge_disabled_crossing_is_violation(self):
        machine = build_machine(presets.preset("GBAVI", 4))
        monitor = machine.attach_monitors()
        bridge = machine.bridges[0]
        bridge.enabled = False
        with pytest.raises(ProtocolViolationError, match="disabled"):
            monitor.on_bridge_cross(bridge, None)

    def test_bridge_conservation_checked_at_finalize(self):
        machine = build_machine(presets.preset("GBAVI", 4))
        monitor = machine.attach_monitors(fail_fast=False)
        bridge = machine.bridges[0]
        bridge.crossings += 1  # hardware counted a crossing the hooks missed
        findings = monitor.finalize()
        assert any("forwarding conservation" in str(f) for f in findings)


class TestMonitoredRuns:
    @pytest.mark.parametrize(
        "arch,backend",
        [("BFBA", "heap"), ("GBAVIII", "compiled"), ("SPLITBA", "heap")],
    )
    def test_verify_case_green(self, arch, backend):
        row = run_verify_case((arch, backend), packets=1)
        assert row["structural_findings"] == []
        assert row["runtime_findings"] == []
        # Free-when-off: the monitored run is bit-identical to baseline.
        assert row["monitored_cycles"] == row["cycles"]
        assert row["grants"] > 0 and row["transfers"] > 0

    def test_monitored_run_bit_identical(self):
        spec = presets.preset("GBAVI", 4)
        baseline = run_ofdm(build_machine(spec), "PPA", OfdmParameters(packets=1))
        machine = build_machine(spec)
        monitor = machine.attach_monitors()  # fail_fast: violations raise
        monitored = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
        assert monitored.cycles == baseline.cycles
        assert monitor.finalize() == []

    def test_run_verify_summary_shape(self):
        summary = run_verify(archs=["GGBA"], backends=("heap",), packets=1)
        assert summary["ok"] is True
        assert summary["failures"] == []
        assert len(summary["cases"]) == 1
        row = summary["cases"][0]
        assert row["arch"] == "GGBA" and row["backend"] == "heap"

    def test_run_verify_rejects_unknown_arch(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            run_verify(archs=["NOPE"])


class TestChaosIntegration:
    def test_empty_mode_arms_monitors_and_stays_identical(self):
        baseline = run_chaos_case(("GBAVIII", "FPA", "heap", "baseline"), packets=2)
        empty = run_chaos_case(("GBAVIII", "FPA", "heap", "empty"), packets=2)
        assert empty["invariant_failures"] == []
        assert empty["cycles"] == baseline["cycles"]


class TestCliVerify:
    def test_verify_verb_smoke(self, capsys, tmp_path):
        out = tmp_path / "verify.json"
        code = main(
            [
                "verify",
                "--arch",
                "GBAVIII",
                "--backend",
                "heap",
                "--packets",
                "1",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "verify sweep" in stdout and "GBAVIII" in stdout
        assert "structurally equivalent" in stdout
        assert out.exists()
