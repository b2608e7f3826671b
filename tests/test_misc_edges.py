"""Edge cases across the stack: small topologies, overrides, determinism."""

import pytest

from repro import BusSyn, build_machine, presets
from repro.cli import main
from repro.hdl import emit_design
from repro.options.schema import BANSpec, BusSpec, BusSubsystemSpec, BusSystemSpec, MemorySpec
from repro.sim.bus import find_route
from repro.sim.pe import ProgramError
from repro.soc.api import SocAPI


class TestSmallTopologies:
    def test_two_pe_gbavi_transfers(self):
        machine = build_machine(presets.preset("GBAVI", 2))
        assert len(machine.bridges) == 1
        machine.memory("SRAM_A").write(0, [5])
        api_b = SocAPI(machine, "B")

        def program():
            values = yield from api_b.read(("SRAM_A", 0), 1)
            return values

        process = machine.pe("B").run(program())
        machine.sim.run()
        assert process.value == [5]

    def test_two_pe_gbavii(self):
        machine = build_machine(presets.preset("GBAVII", 2))
        api = SocAPI(machine, "B")

        def program():
            yield from api.var_write("X", 1)
            value = yield from api.var_read("X")
            return value

        process = machine.pe("B").run(program())
        machine.sim.run()
        assert process.value == 1

    def test_one_pe_systems_build_and_generate(self):
        for name in ("BFBA", "GBAVI", "GBAVII", "GBAVIII", "GGBA", "CCBA"):
            spec = presets.preset(name, 1)
            machine = build_machine(spec)
            assert len(machine.pes) == 1
            assert BusSyn().generate(spec).lint_errors() == []


class TestOverridesAndKnobs:
    def test_arbiter_policy_override_applies(self):
        machine = build_machine(presets.preset("GGBA", 4), arbiter_policy="round_robin")
        segment = machine.segments["GLOBAL_BUS_SUB1"]
        assert segment.arbiter.policy_name == "round_robin"

    def test_elapsed_seconds(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        machine.sim.timeout(100_000_000)  # one second at 100 MHz
        machine.sim.run()
        assert machine.elapsed_seconds() == pytest.approx(1.0)

    def test_disabled_bridge_isolates_subsystems(self):
        machine = build_machine(presets.preset("SPLITBA", 4))
        machine.bridges[0].enabled = False
        api_a = SocAPI(machine, "A")
        far = machine.shared_memory_of["C"]

        def program():
            yield from api_a.read((far, 0), 1)

        process = machine.pe("A").run(program())
        with pytest.raises(ProgramError, match="MPC755_A"):
            machine.sim.run()
        with pytest.raises(LookupError):
            process.value


class TestSpecVariants:
    def test_dpram_memory_type_accepted(self):
        spec = BusSystemSpec(
            name="DPRAM_TEST",
            subsystems=[
                BusSubsystemSpec(
                    name="S",
                    bans=[
                        BANSpec(
                            name="A",
                            cpu_type="MPC755",
                            memories=[MemorySpec("DPRAM", 16, 64, name="SRAM_A")],
                        ),
                        BANSpec(
                            name="G",
                            cpu_type="NONE",
                            memories=[MemorySpec("SRAM", 18, 64, name="GLOBAL_SRAM_G")],
                            is_global_resource=True,
                        ),
                    ],
                    buses=[BusSpec("GBAVIII")],
                )
            ],
        )
        spec.validate()
        machine = build_machine(spec)
        assert machine.memory("SRAM_A").size_words == (1 << 16) * 2

    def test_dram_backed_ban(self):
        spec = presets.preset("GBAVIII", 2)
        spec.subsystems[0].pe_bans[0].memories[0] = MemorySpec(
            "DRAM", 20, 64, name="SRAM_A"
        )
        machine = build_machine(spec)
        from repro.sim.memory import Dram

        assert isinstance(machine.memory("SRAM_A"), Dram)

    def test_mixed_cpu_types_in_one_subsystem(self):
        spec = presets.preset("GBAVIII", 3)
        spec.subsystems[0].pe_bans[1].cpu_type = "ARM9TDMI"
        generated = BusSyn().generate(spec)
        assert generated.lint_errors() == []
        modules = generated.design().modules
        assert "cbi_arm9tdmi" in modules and "cbi_mpc755" in modules


class TestDeterminism:
    def test_emitted_verilog_is_deterministic(self):
        first = BusSyn().generate(presets.preset("HYBRID", 4)).verilog()
        second = BusSyn().generate(presets.preset("HYBRID", 4)).verilog()
        assert first == second

    def test_simulation_is_deterministic(self):
        from repro.apps.ofdm import OfdmParameters, run_ofdm

        params = OfdmParameters(data_samples=256, guard_samples=64, packets=2)
        runs = [
            run_ofdm(build_machine(presets.preset("GBAVIII", 4)), "FPA", params).cycles
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestCliTable:
    def test_table5_command(self, capsys):
        assert main(["table", "5"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out and "shape check: OK" in out
