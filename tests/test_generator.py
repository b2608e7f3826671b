"""Tests for the BusSyn generator: netlist builder, BANGen, SubSysGen, BusSyn."""

import pytest

from repro.core import (
    BusSyn,
    NetlistBuilder,
    NetlistError,
    estimate_component,
    generate_ban,
    generate_subsystem,
    plan_ban,
    subsystem_kind,
)
from repro.core.bangen import BanKind, ban_kind
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table5 import run_table5
from repro.hdl import (
    Design,
    Module,
    Port,
    Range,
    elaborate,
    emit_module,
    lint_design,
    parse_design,
    parse_modules,
)
from repro.moduledb import ModuleLibrary, default_library
from repro.moduledb.components import ALL_LIBRARY_TEXT
from repro.options import presets
from repro.options.schema import OptionError
from repro.wiredb import WireLibrary, default_wire_library

ALL_PRESETS = ["BFBA", "GBAVI", "GBAVIII", "HYBRID", "SPLITBA", "GGBA", "CCBA"]


def leaf(name, ports):
    return Module(name, ports=[Port(*spec) for spec in ports])


class TestNetlistBuilder:
    def test_simple_connection(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("mod_a", [("out", "output", Range(7, 0))]), "u_a")
        builder.add_instance("B", leaf("mod_b", [("in", "input", Range(7, 0))]), "u_b")
        builder.connect("w", 8, [("A", "out", 7, 0), ("B", "in", 7, 0)])
        module = builder.build()
        assert module.wire("w").width == 8
        assert module.instances[0].connection("out").expression == "w"

    def test_partial_bit_select(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("mod_a", [("bus", "output", Range(7, 0))]), "u_a")
        builder.add_instance("B", leaf("mod_b", [("bit", "input", None)]), "u_b")
        builder.connect("w", 8, [("A", "bus", 7, 0), ("B", "bit", 2, 2)])
        module = builder.build()
        assert module.instances[1].connection("bit").expression == "w[2]"

    def test_net_merge_on_shared_pin(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("p", "inout", None)]), "u_a")
        builder.add_instance("B", leaf("m", [("p", "inout", None)]), "u_b")
        builder.add_instance("C", leaf("m", [("p", "inout", None)]), "u_c")
        builder.connect("w1", 1, [("A", "p", 0, 0), ("B", "p", 0, 0)])
        builder.connect("w2", 1, [("B", "p", 0, 0), ("C", "p", 0, 0)])
        module = builder.build()
        # All three pins end up on one net.
        expressions = {
            instance.connections[0].expression for instance in module.instances
        }
        assert len(expressions) == 1

    def test_promotion_merges_inputs(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("clk", "input", None)]), "u_a")
        builder.add_instance("B", leaf("m", [("clk", "input", None)]), "u_b")
        module = builder.build()
        assert [p.name for p in module.ports] == ["clk"]
        assert module.ports[0].direction == "input"

    def test_promotion_suffixes_colliding_outputs(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("done", "output", None)]), "u_a")
        builder.add_instance("B", leaf("m", [("done", "output", None)]), "u_b")
        module = builder.build()
        assert sorted(p.name for p in module.ports) == ["done_a", "done_b"]

    def test_single_output_keeps_name(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("done", "output", None)]), "u_a")
        module = builder.build()
        assert [p.name for p in module.ports] == ["done"]

    def test_input_output_name_clash_rejected(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("x", "output", None)]), "u_a")
        builder.add_instance("B", leaf("m2", [("x", "input", None)]), "u_b")
        with pytest.raises(NetlistError):
            builder.build()

    def test_ext_creates_port(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("in", "input", Range(7, 0))]), "u_a")
        builder.connect("w", 8, [("A", "in", 7, 0), ("EXT", "bus_in", 7, 0)])
        module = builder.build()
        port = module.port("bus_in")
        assert port is not None and port.direction == "input" and port.width == 8

    def test_ext_partial_span_rejected(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("in", "input", Range(7, 0))]), "u_a")
        with pytest.raises(NetlistError):
            builder.connect("w", 8, [("A", "in", 7, 0), ("EXT", "half", 3, 0)])

    def test_merge_direction_known_pairs(self):
        from repro.core.netlist import _merge_direction

        assert _merge_direction("input", "input", "p") == "input"
        assert _merge_direction("inout", "output", "p") == "inout"
        with pytest.raises(NetlistError, match="add a wire spec"):
            _merge_direction("input", "output", "p")

    def test_merge_direction_rejects_unknown_pair(self):
        # Used to silently coerce any unrecognized pair to "inout".
        from repro.core.netlist import _merge_direction

        with pytest.raises(NetlistError, match="unsupported direction pair"):
            _merge_direction("input", "buffer", "p")

    def test_unknown_module_in_wire(self):
        builder = NetlistBuilder("top")
        with pytest.raises(NetlistError):
            builder.connect("w", 1, [("GHOST", "p", 0, 0)])

    def test_unknown_port_in_wire(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("p", "input", None)]), "u_a")
        with pytest.raises(NetlistError):
            builder.connect("w", 1, [("A", "q", 0, 0)])

    def test_width_mismatch_rejected(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", [("p", "input", Range(3, 0))]), "u_a")
        with pytest.raises(NetlistError):
            builder.connect("w", 8, [("A", "p", 7, 0)])

    def test_duplicate_instance_rejected(self):
        builder = NetlistBuilder("top")
        builder.add_instance("A", leaf("m", []), "u_a")
        with pytest.raises(NetlistError):
            builder.add_instance("A", leaf("m", []), "u_a2")


class TestBanPlanning:
    def test_kind_classification(self):
        for preset_name, expected in [
            ("BFBA", BanKind.BFBA),
            ("GBAVI", BanKind.GBAVI),
            ("GBAVIII", BanKind.GBAVIII),
            ("HYBRID", BanKind.HYBRID),
            ("SPLITBA", BanKind.SPLITBA),
            ("GGBA", BanKind.SPLITBA),
            ("CCBA", BanKind.GBAVIII),
        ]:
            spec = presets.preset(preset_name, 4)
            subsystem = spec.subsystems[0]
            assert ban_kind(subsystem.pe_bans[0], subsystem) == expected

    def test_global_ban_kind(self):
        spec = presets.preset("GBAVIII", 4)
        subsystem = spec.subsystems[0]
        assert ban_kind(subsystem.global_bans[0], subsystem) == BanKind.GLOBAL

    def test_bfba_plan_module_list(self):
        """Example 11's module list for a BFBA BAN."""
        spec = presets.preset("BFBA", 4)
        plan = plan_ban(spec.subsystems[0].pe_bans[0], spec.subsystems[0])
        components = {m.component for m in plan.modules}
        assert components == {
            "MPC755", "CBI_MPC755", "SB_BFBA", "MBI_SRAM", "SRAM_comp",
            "HS_REGS", "BIFIFO", "GBI_BFBA",
        }

    def test_bfba_hs_regs_reset_high(self):
        """Example 4: BFBA initializes DONE_OP to 1."""
        spec = presets.preset("BFBA", 4)
        plan = plan_ban(spec.subsystems[0].pe_bans[0], spec.subsystems[0])
        hs = [m for m in plan.modules if m.logical == "HS"][0]
        assert hs.parameters["OP_RESET"] == "1'b1"

    def test_ccba_global_grant_cycles(self):
        spec = presets.preset("CCBA", 4)
        plan = plan_ban(spec.subsystems[0].global_bans[0], spec.subsystems[0])
        abi = [m for m in plan.modules if m.logical == "ABI0"][0]
        assert abi.parameters["GRANT_CYCLES"] == 5


class TestBanGeneration:
    @pytest.fixture(scope="class")
    def libraries(self):
        return default_library(), default_wire_library()

    def test_bfba_ban_ports_match_figure17(self, libraries):
        module_library, wire_library = libraries
        spec = presets.preset("BFBA", 4)
        plan = plan_ban(spec.subsystems[0].pe_bans[0], spec.subsystems[0])
        ban = generate_ban(module_library, wire_library, plan)
        port_names = {p.name for p in ban.module.ports}
        for expected in (
            "clk", "rst_n",
            "data_dn", "data_up", "fifo_cs_dn", "fifo_cs_up",
            "web_dn", "web_up", "reb_dn", "reb_up",
            "done_op_cs_dn", "done_op_cs_up", "done_rv_cs_dn", "done_rv_cs_up",
        ):
            assert expected in port_names, expected

    def test_gbaviii_ban_exposes_global_port(self, libraries):
        module_library, wire_library = libraries
        spec = presets.preset("GBAVIII", 4)
        plan = plan_ban(spec.subsystems[0].pe_bans[0], spec.subsystems[0])
        ban = generate_ban(module_library, wire_library, plan)
        port_names = {p.name for p in ban.module.ports}
        assert {"g_addr", "g_dh", "g_dl", "g_web", "g_reb", "g_req_b", "g_gnt_b"} <= port_names


class TestSubsystemAndSystem:
    def test_subsystem_kind(self):
        for preset_name, expected in [
            ("BFBA", "bfba"), ("GBAVI", "gbavi"), ("GBAVIII", "gbaviii"),
            ("HYBRID", "hybrid"), ("SPLITBA", "splitba"), ("GGBA", "ggba"),
            ("CCBA", "ccba"),
        ]:
            spec = presets.preset(preset_name, 4)
            assert subsystem_kind(spec.subsystems[0]) == expected

    def test_ban_reuse_across_subsystem(self):
        """'By simply repeating generated BANs' -- one module, N instances."""
        tool = BusSyn()
        generated = tool.generate(presets.preset("BFBA", 4))
        counts = elaborate(generated.design())
        ban_modules = [name for name in counts if name.startswith("ban_bfba")]
        assert len(ban_modules) == 1
        assert counts[ban_modules[0]] == 4

    def test_gbavi_bridge_count(self):
        tool = BusSyn()
        counts = elaborate(tool.generate(presets.preset("GBAVI", 4)).design())
        assert counts["bb_gbavi"] == 4 + 4  # 4 subsystem ring BBs + 1 per BAN

    def test_splitba_system_bridge(self):
        tool = BusSyn()
        counts = elaborate(tool.generate(presets.preset("SPLITBA", 4)).design())
        assert counts["bb_splitba"] == 1
        assert counts["ban_global_n2_aw20_g3"] == 2


class TestBusSyn:
    @pytest.fixture(scope="class")
    def tool(self):
        return BusSyn()

    @pytest.mark.parametrize("preset_name", ALL_PRESETS)
    def test_generate_lint_clean(self, tool, preset_name):
        generated = tool.generate(presets.preset(preset_name, 4))
        assert generated.lint_errors() == []

    @pytest.mark.parametrize("preset_name", ALL_PRESETS)
    def test_verilog_roundtrips(self, tool, preset_name):
        generated = tool.generate(presets.preset(preset_name, 4))
        text = generated.verilog()
        reparsed = parse_design(text, top=generated.top_name)
        assert sorted(reparsed.modules) == sorted(generated.design().modules)
        errors = [m for m in lint_design(reparsed) if m.severity == "error"]
        assert errors == []

    def test_files_one_per_module(self, tool):
        generated = tool.generate(presets.preset("GBAVIII", 4))
        files = generated.files()
        assert set(files) == {"%s.v" % n for n in generated.design().modules}
        assert all(text.strip().startswith("module") for text in files.values())

    def test_report_fields(self, tool):
        generated = tool.generate(presets.preset("HYBRID", 4))
        report = generated.report
        assert report.pe_count == 4
        assert report.gate_count > 0
        assert 0 < report.generation_time_ms < 10_000
        assert report.gate_breakdown

    def test_pe_count_scaling(self, tool):
        small = tool.generate(presets.preset("BFBA", 2)).report.gate_count
        large = tool.generate(presets.preset("BFBA", 8)).report.gate_count
        assert large == pytest.approx(4 * small, rel=0.05)

    def test_arbiter_policy_option(self, tool):
        spec = presets.preset("GBAVIII", 4)
        spec.subsystems[0].buses[0].arbiter_policy = "priority"
        generated = tool.generate(spec)
        assert any("arbiter_priority" in name for name in generated.design().modules)

    def test_build_machine_hook(self, tool):
        generated = tool.generate(presets.preset("GBAVIII", 4))
        machine = generated.build_machine()
        assert machine.pe_order == ["A", "B", "C", "D"]

    def test_fifo_depth_flows_through(self, tool):
        generated = tool.generate(presets.preset("BFBA", 4, fifo_depth=256))
        assert any("bififo_d256" in name for name in generated.design().modules)


def preset_specs(pe_counts, widths):
    """``(label, spec)`` of every preset at each PE count and data width
    it can take."""
    specs = []
    for name in sorted(presets.PRESETS):
        for pe_count in pe_counts:
            for width in widths:
                try:
                    spec = presets.preset(name, pe_count)
                    spec.set_data_width(width)
                    spec.validate()
                except OptionError:
                    continue
                specs.append(("%s/%d/%d" % (name, pe_count, width), spec))
    return specs


def outputs(generated):
    report = generated.report
    return generated.verilog(), report.gate_count, report.gate_breakdown


class TestSharedLibraries:
    """Every BusSyn shares the process's libraries, and what they cache
    never depends on what was generated before or on what used it."""

    def test_one_instance_per_process(self):
        assert default_library() is default_library()
        assert default_wire_library() is default_wire_library()
        assert BusSyn().module_library is BusSyn().module_library
        assert BusSyn().wire_library is BusSyn().wire_library
        private = BusSyn(ModuleLibrary(ALL_LIBRARY_TEXT), WireLibrary())
        assert private.module_library is not default_library()
        assert private.wire_library is not default_wire_library()

    def test_generation_is_order_independent(self):
        specs = preset_specs([1, 2, 4, 8], [32, 64])
        assert len(specs) > 50
        fresh = {
            label: outputs(BusSyn(ModuleLibrary(ALL_LIBRARY_TEXT), WireLibrary()).generate(spec))
            for label, spec in specs
        }
        for order in (specs, specs[::-1]):
            for label, spec in order:
                assert outputs(BusSyn().generate(spec)) == fresh[label], label

    def test_cached_components_survive_table_runs(self):
        modules, wires = default_library(), default_wire_library()
        for name in sorted(presets.PRESETS):
            BusSyn().generate(presets.preset(name, 4))
        before = {key: emit_module(cached.module) for key, cached in modules._cache.items()}
        sections = {key: repr(group) for key, group in wires.sections.items()}
        # Machine builds, graph extraction, decoding and lint all read them.
        run_table2(packets=1)
        run_table3(frame_count=2)
        run_table5(pe_counts=[1])
        assert {key: emit_module(modules._cache[key].module) for key in before} == before
        assert {key: repr(wires.sections[key]) for key in sections} == sections
        for cached in modules._cache.values():
            assert emit_module(cached.module) == emit_module(parse_modules(cached.text)[0])


class TestGateModel:
    def test_pe_cores_free(self):
        assert estimate_component("MPC755", {}) == 0
        assert estimate_component("SRAM_comp", {}) == 0

    def test_arbiter_scales_with_masters(self):
        small = estimate_component("ARBITER_FCFS", {"N_MASTERS": 2})
        large = estimate_component("ARBITER_FCFS", {"N_MASTERS": 16})
        assert large > small

    def test_gbaviii_master_is_dominant_per_pe_term(self):
        assert estimate_component("GBI_GBAVIII", {}) > estimate_component("GBI_BFBA", {})
        assert estimate_component("GBI_GBAVIII", {}) > estimate_component("CBI_MPC755", {})
