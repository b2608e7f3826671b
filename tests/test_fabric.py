"""Tests for the machine fabric builder and bus transactions."""

import pytest

from repro.options import presets
from repro.options.schema import OptionError
from repro.sim.fabric import CODE_FOOTPRINT_WORDS, build_machine
from repro.sim.kernel import Interrupt
from repro.sim.pe import ProgramError
from repro.soc.api import SocAPI

ALL_PRESETS = ["BFBA", "GBAVI", "GBAVIII", "HYBRID", "SPLITBA", "GGBA", "CCBA"]


@pytest.fixture(params=ALL_PRESETS)
def machine(request):
    return build_machine(presets.preset(request.param, 4))


class TestTopologies:
    def test_four_pes_everywhere(self, machine):
        assert machine.pe_order == ["A", "B", "C", "D"]
        assert len(machine.pes) == 4

    def test_bfba_fifo_ring(self):
        machine = build_machine(presets.preset("BFBA", 4))
        assert sorted(machine.fifo_blocks) == ["A", "B", "C", "D"]
        # Ring adjacency: every PE has a FIFO toward both neighbours.
        for sender, receiver in [("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"), ("A", "D")]:
            machine.fifo_for(sender, receiver)
        with pytest.raises(LookupError):
            machine.fifo_for("A", "C")  # non-adjacent

    def test_gbavi_bridges_ring(self):
        machine = build_machine(presets.preset("GBAVI", 4))
        assert len(machine.bridges) == 4  # ring of 4
        assert machine.global_memory is None

    def test_gbaviii_direct_global_mastering(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        global_segment = machine.segments["GLOBAL_BUS_SUB1"]
        for pe in machine.pes.values():
            assert global_segment in machine.direct_segments[pe.name]
        assert machine.global_memory == "GLOBAL_SRAM_G"

    def test_splitba_two_buses_one_bridge(self):
        machine = build_machine(presets.preset("SPLITBA", 4))
        assert len(machine.segments) == 2
        assert len(machine.bridges) == 1
        # Each half's PEs run out of their own shared memory.
        assert machine.shared_memory_of["A"] != machine.shared_memory_of["C"]

    def test_ggba_everything_shared(self):
        machine = build_machine(presets.preset("GGBA", 4))
        assert len(machine.segments) == 1
        for pe in machine.pes.values():
            assert pe.program_device == "GLOBAL_SRAM_G"

    def test_ccba_grant_cycles(self):
        machine = build_machine(presets.preset("CCBA", 4))
        plb = machine.segments["PLB_SUB1"]
        assert plb.grant_cycles == 5
        assert plb.write_grant_cycles == 3

    def test_bus_loading_beat_cycles(self):
        ggba = build_machine(presets.preset("GGBA", 4))
        assert ggba.segments["GLOBAL_BUS_SUB1"].beat_cycles == 2  # 5 loads
        splitba = build_machine(presets.preset("SPLITBA", 4))
        for segment in splitba.segments.values():
            assert segment.beat_cycles == 1  # 4 loads each
        bfba = build_machine(presets.preset("BFBA", 4))
        for segment in bfba.segments.values():
            assert segment.beat_cycles == 1

    def test_code_reservation(self, machine):
        for pe in machine.pes.values():
            assert pe.program_device is not None
            assert pe.code_footprint_words == CODE_FOOTPRINT_WORDS


class TestTransactions:
    def _run(self, machine, program, ban="A"):
        process = machine.pe(ban).run(program)
        machine.sim.run()
        return process.value

    def test_local_write_read(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        api = SocAPI(machine, "A")
        buffer = api.alloc(8)

        def program():
            yield from api.mem_write([10, 20, 30], buffer)
            values = yield from api.read(buffer, 3)
            return values

        assert self._run(machine, program()) == [10, 20, 30]

    def test_remote_read_across_bridge_gbavi(self):
        machine = build_machine(presets.preset("GBAVI", 4))
        machine.memory("SRAM_A").write(100, [7, 8, 9])
        api_b = SocAPI(machine, "B")

        def program():
            values = yield from api_b.read(("SRAM_A", 100), 3)
            return values

        process = machine.pe("B").run(program())
        machine.sim.run()
        assert process.value == [7, 8, 9]
        assert any(bridge.crossings for bridge in machine.bridges)

    def test_cross_subsystem_splitba(self):
        machine = build_machine(presets.preset("SPLITBA", 4))
        api_a = SocAPI(machine, "A")
        far_memory = machine.shared_memory_of["C"]

        def program():
            yield from api_a.mem_write([42], (far_memory, 5))
            values = yield from api_a.read((far_memory, 5), 1)
            return values

        process = machine.pe("A").run(program())
        machine.sim.run()
        assert process.value == [42]
        assert machine.bridges[0].crossings == 2

    @pytest.mark.parametrize("at", [1, 7])
    def test_interrupted_bridged_transfer_releases_what_it_holds(self, at):
        """A bridged read interrupted in its first segment's grant latency
        (at 1) or in its data beats (at 7) releases and counts every
        segment it claimed, and leaves no arbiter owned."""
        machine = build_machine(presets.preset("GBAVI", 4))
        pe = machine.pe("A")
        route = machine._plan_for(pe, machine.devices["SRAM_B"]).segments
        assert [segment.name for segment in route] == ["CPU_BUS_A", "CPU_BUS_B"]

        def program():
            with pytest.raises(Interrupt):
                yield from machine.transaction(pe, "SRAM_B", 0, 8, False)

        process = machine.sim.process(program())

        def reset():
            yield at
            process.interrupt("reset")

        machine.sim.process(reset())
        machine.sim.run()
        claimed = [1, 0] if at == 1 else [1, 1]
        assert [segment.arbiter.owner for segment in route] == [None, None]
        assert [segment.arbiter.grants for segment in route] == claimed
        assert [segment.stats.transactions for segment in route] == claimed
        assert route[0].stats.busy_cycles == at

    def test_opposing_bridge_crossings_no_deadlock(self):
        """Simultaneous A->far and C->near crossings must not deadlock."""
        machine = build_machine(presets.preset("SPLITBA", 4))
        api_a = SocAPI(machine, "A")
        api_c = SocAPI(machine, "C")
        near = machine.shared_memory_of["A"]
        far = machine.shared_memory_of["C"]

        def prog_a():
            for _ in range(20):
                yield from api_a.mem_write([1] * 32, (far, 100))

        def prog_c():
            for _ in range(20):
                yield from api_c.mem_write([2] * 32, (near, 200))

        machine.pe("A").run(prog_a())
        machine.pe("C").run(prog_c())
        machine.sim.run()  # would raise on livelock / hang forever
        assert machine.bridges[0].crossings == 40

    def test_one_segment_plans_survive_bridge_toggles(self):
        """A one-segment plan never consults the bridges, so it is reused
        whatever they do; a bridged pair re-plans when one toggles."""
        machine = build_machine(presets.preset("GBAVI", 4))
        pe = machine.pe("A")
        local, neighbour = machine.devices["SRAM_A"], machine.devices["HS_REGS_B"]
        single = machine._plan_for(pe, local)
        bridged = machine._plan_for(pe, neighbour)
        assert single.single is not None and bridged.single is None
        bridge = next(bridge for bridge in machine.bridges if bridge.name == "BB_AB")
        assert bridged.bridges == [bridge]
        bridge.enabled = False
        assert machine._plan_for(pe, local) is single
        detour = machine._plan_for(pe, neighbour)
        assert bridge not in detour.bridges and len(detour.bridges) == 3
        bridge.enabled = True
        assert machine._plan_for(pe, local) is single
        assert machine._plan_for(pe, neighbour).bridges == [bridge]

    def test_atomic_rmw(self):
        machine = build_machine(presets.preset("GGBA", 4))
        api = SocAPI(machine, "A")
        address = api.alloc(1)

        def program():
            old, new = yield from api.atomic_update(address, lambda v: v + 5)
            return old, new

        process = machine.pe("A").run(program())
        machine.sim.run()
        assert process.value == (0, 5)
        assert machine.memory(address[0]).read_word(address[1]) == 5

    def test_atomic_rmw_mutual_exclusion(self):
        """Concurrent increments from all PEs never lose an update."""
        machine = build_machine(presets.preset("GGBA", 4))
        apis = {ban: SocAPI(machine, ban) for ban in machine.pe_order}
        counter = apis["A"].alloc(1)

        def incrementer(api):
            def program():
                for _ in range(25):
                    yield from api.atomic_update(counter, lambda v: v + 1)
            return program

        for ban, api in apis.items():
            machine.pe(ban).run(incrementer(api)())
        machine.sim.run()
        assert machine.memory(counter[0]).read_word(counter[1]) == 100

    def test_reserve_exhaustion(self):
        machine = build_machine(presets.preset("GBAVIII", 4))
        size = machine.memory("SRAM_A").size_words
        with pytest.raises(OptionError):
            machine.reserve("SRAM_A", size + 1)

    def test_point_to_point_party_check(self):
        machine = build_machine(presets.preset("BFBA", 4))
        api_c = SocAPI(machine, "C")
        device = machine.devices["BIFIFO_B"]  # A<->B only

        def program():
            yield from machine.transaction(api_c.pe, "BIFIFO_B", 0, 1, False)

        process = machine.pe("C").run(program())
        with pytest.raises(ProgramError, match="MPC755_C"):
            machine.sim.run()
        with pytest.raises(LookupError):
            process.value

    def test_hsregs_for_extra_pair(self):
        machine = build_machine(presets.preset("BFBA", 4))
        canonical = machine.hsregs_for("C", "D")
        assert canonical.name == "HS_REGS_D"
        ring = machine.hsregs_for("A", "D")  # A is D's successor, not pred
        assert ring.name == "HS_REGS_D_FROM_A"
        assert machine.hsregs_for("A", "D") is ring  # cached

    def test_neighbors(self):
        machine = build_machine(presets.preset("BFBA", 4))
        assert machine.neighbors_of("A") == ("D", "B")
        assert machine.neighbors_of("C") == ("B", "D")
