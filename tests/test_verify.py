"""Tests for the cross-layer verification pass (repro.verify).

Covers both halves: the pin-level structure of the generated netlist,
from which the simulation machine is built, and the runtime protocol
assertion monitors -- plus the negative cases: a deliberately corrupted
netlist (dropped wire, cut bridge) and a deliberately broken arbiter
(double grant) must each be caught.
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
from repro.verify import Finding, ProtocolMonitor, ProtocolViolationError, graph_from_design
from repro.verify.runner import VERIFY_ARCHITECTURES, run_verify, run_verify_case


def _generated(arch, pe_count=4):
    """A private copy of a generated system, free to corrupt."""
    return copy.deepcopy(BusSyn().generate(presets.preset(arch, pe_count)))


def _instance(generated, module_prefix, name):
    module = next(
        module
        for module_name, module in generated.design().modules.items()
        if module_name.startswith(module_prefix)
    )
    return next(inst for inst in module.instances if inst.name == name)


class TestFinding:
    def test_str_carries_cycle_and_category(self):
        finding = Finding("error", "fifo", "F.up", "overflow", cycle=42)
        assert str(finding) == "[error] F.up (fifo) @cycle 42: overflow"
        assert Finding("error", "structure", "m", "x").as_dict()["cycle"] is None


class TestStructure:
    @pytest.mark.parametrize("arch", VERIFY_ARCHITECTURES)
    def test_netlist_has_no_findings(self, arch):
        design = BusSyn().generate(presets.preset(arch, 4)).design()
        findings = graph_from_design(design).findings
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_graph_shapes_bfba(self):
        graph = graph_from_design(BusSyn().generate(presets.preset("BFBA", 4)).design())
        (subsystem,) = graph.subsystems
        # Four PEs on their own segments, a ring of four FIFO and four
        # handshake links, each ending in the BAN after its source.
        assert [(ban.name, ban.cpu) for ban in subsystem.bans] == [
            ("A", "MPC755"), ("B", "MPC755"), ("C", "MPC755"), ("D", "MPC755"),
        ]
        assert all(ban.segment.masters == [ban.name] for ban in subsystem.bans)
        assert [ban.fifo_from for ban in subsystem.bans] == ["D", "A", "B", "C"]
        assert [ban.hs_from for ban in subsystem.bans] == ["D", "A", "B", "C"]
        assert {ban.fifo_depth for ban in subsystem.bans} == {1024}
        assert not subsystem.bridges and not graph.bridges

    def test_graph_shapes_splitba(self):
        graph = graph_from_design(BusSyn().generate(presets.preset("SPLITBA", 4)).design())
        shared = [ban.segment for sub in graph.subsystems for ban in sub.bans if ban.cpu is None]
        assert [node.masters for node in shared] == [["A", "B"], ["C", "D"]]
        for node in shared:
            assert node.arbiter_policy == "fcfs"
            assert node.grant_cycles == 3
        assert [(name, a, b) for name, a, b in graph.bridges] == [
            ("BB_SYS_1", shared[0], shared[1])
        ]

    def test_dropped_wire_is_caught(self):
        """Acceptance: a corrupted netlist (dropped wire) must be detected."""
        generated = _generated("GBAVI")
        mbi = _instance(generated, "ban_gbavi", "u_mbi0")
        mbi.connection("dh").expression = "w_dangling"
        findings = graph_from_design(generated.design()).findings
        assert any(
            "MBI0.dh" in str(f) and "w_dangling" in str(f) for f in findings
        ), findings

    def test_cut_bridge_is_reported_and_left_out(self):
        """A bridge the netlist leaves unattached is a finding, and the
        machine built from that netlist has no such bridge."""
        generated = _generated("GBAVI")
        bridge = _instance(generated, "subsys_", "u_bb_2")
        bridge.connection("a_addr").expression = "w_dangling"
        findings = graph_from_design(generated.design()).findings
        assert [(f.where, f.text) for f in findings] == [
            ("u_sub1.u_bb_2", "bridge side on net 'w_dangling' reaches no bus segment")
        ]
        machine = generated.build_machine()
        assert [bridge.name for bridge in machine.bridges] == ["BB_AB", "BB_CD", "BB_DA"]

    def test_arbiter_policy_follows_the_netlist(self):
        generated = _generated("GBAVIII")
        _instance(generated, "ban_global", "u_arb").module = "arbiter_round_robin_n4"
        machine = generated.build_machine()
        assert isinstance(machine.segments["GLOBAL_BUS_SUB1"].arbiter, RoundRobinArbiter)
        assert isinstance(machine.segments["CPU_BUS_A"].arbiter, FCFSArbiter)


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--arch", "BFBA", "--pes", "0"],
            ["verify", "--arch", "BFBA", "--data-width", "48"],
            ["verify", "--arch", "GBAVI", "--pes", "1"],
            ["chaos", "--smoke", "--pes", "0"],
        ],
    )
    def test_bad_options_exit_2_before_any_case(self, argv, capsys, monkeypatch):
        from repro.experiments import runner

        def no_cases(*_args, **_kwargs):
            raise AssertionError("a case ran")

        monkeypatch.setattr(runner, "run_cases", no_cases)
        assert main(argv + ["--no-ledger"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: option error:") and err.count("\n") == 1
