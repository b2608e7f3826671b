"""MachineBuilder: one composition point for kernels and arbiter policy,
building the machine from the generated netlist.

``build_machine`` stays a thin keyword wrapper over the builder and is
tested as such.  The layout of every preset's machine is pinned by
digest, and so is the CCBA flattening rule.  Hooks attach to the built
machine: a machine with a probe or a fault injector runs every tenure
through the hooked path, and on the compiled backend its polls
fast-forward only when every hook declares the counters it keeps, which
is pinned here.
"""

import hashlib
import json

import pytest

from repro.apps.ofdm import OfdmParameters, run_ofdm
from repro.faults import RecoveryPolicy, SMOKE_SCENARIO, compile_plan, install_faults
from repro.core.busyn import BusSyn
from repro.obs import Observability
from repro.options import presets
from repro.sim.fabric import Machine, MachineBuilder, build_machine
from repro.sim.kernel import KERNEL_BACKENDS, KERNEL_ENV
from repro.verify import graph_from_design

BACKENDS = list(KERNEL_BACKENDS)


def _spec():
    return presets.preset("BFBA", 4)


PE_COUNTS = (1, 2, 3, 4, 5, 8, 16)
WIDTHS = (32, 64, 128)

#: Layout digests per preset and PE count (SplitBA from 2 PEs), each over
#: the three widths, recorded from the per-architecture builders the
#: netlist-driven builder replaced: route search, code reservation and
#: the fault injector's site tables all depend on this order.
LAYOUT_DIGESTS = {
    "BFBA": (
        "db0ef071fa398f66", "49ae51df2518778d", "ffb53487720cee5d", "be519f778df84ad9",
        "fb62e5cbd40ee6ea", "5164ed60b46d9356", "798fbf3f39d3c0c7",
    ),
    "GBAVI": (
        "54b875e8e10c829b", "3f39e9d68f945ac7", "9e40e1f5075ab258", "147a21bdf049a371",
        "12cbb5d4c199274e", "15b696d065627aa8", "bac654858a049574",
    ),
    "GBAVII": (
        "6c5d5dea01823507", "075ad279c21956a1", "c5093b8822069346", "b19ad4e1e6778de4",
        "c9f1fefed8282a86", "b35651a95aef5ffa", "49e5551acb7caf1b",
    ),
    "GBAVIII": (
        "951009b09b718f4f", "c29fd4221a956b58", "e9017447f0b946be", "b87011e5a1fd4f08",
        "8aeda21473b21da5", "8120dc3badec9002", "cf12e861ef7db3b1",
    ),
    "HYBRID": (
        "951009b09b718f4f", "6b7f590f6a7c1e15", "1ccdf590950bfb34", "66cd484b9e58f300",
        "ce1abf9336830acb", "c5c02cc8a0e3397a", "264fa30f5821beb3",
    ),
    "SPLITBA": (
        "cf75dd099cc2cf23", "daca94953dd3848c", "ff806321d32b2fd1", "8e62d10e1a78248a",
        "ad82b4460147fcea", "6d4dbd0122263e69",
    ),
    "GGBA": (
        "9f31190a04db54bd", "144974b332ad9deb", "d4577affe5c5a0a1", "2ffa963f23735561",
        "6bb5ddfb2d66e4a2", "df8b9daf8660f84e", "d74ee59098563bf6",
    ),
    "CCBA": (
        "31674728dcea3c8b", "9f2512eb36c5f4b4", "72da72837b20c0df", "009fc20199f0eae1",
        "e35b73c840242901", "610e3e9018a1ad74", "a92e1389062f71c7",
    ),
}


def _layout(machine):
    """Everything the builder decides, in machine order."""

    def size(target):
        return getattr(target, "size_words", getattr(target, "depth_words", None))

    wiring = []
    for controller in machine.interrupt_controllers.values():
        for line in controller.lines.values():
            line.connect(lambda payload, name=line.name: wiring.append([name, payload]))
    for block in machine.fifo_blocks.values():
        for fifo in (block.up, block.down):
            fifo.on_threshold(fifo)
    return {
        "segments": [
            [s.name, s.data_width, s.address_width, type(s.arbiter).__name__, s.arbiter.name,
             s.grant_cycles, s.write_grant_cycles, s.beat_cycles, s.attached_interfaces]
            for s in machine.segments.values()
        ],
        "devices": [
            [d.name, d.kind, type(d.target).__name__, d.segment and d.segment.name,
             d.point_to_point, sorted(d.parties), size(d.target)]
            for d in machine.devices.values()
        ],
        "pes": [
            [name, machine.ban_of_pe[name], pe.program_device, pe.program_base,
             pe.cycles_per_instruction, machine.home_segment[name].name,
             sorted(s.name for s in machine.direct_segments[name])]
            for name, pe in machine.pes.items()
        ],
        "pe_order": machine.pe_order,
        "bridges": [[b.name, b.side_a.name, b.side_b.name, b.hop_cycles] for b in machine.bridges],
        "shared_vars": [[n, v.base_address] for n, v in machine.shared_vars.items()],
        "global_memory": machine.global_memory,
        "shared_memory_of": list(machine.shared_memory_of.items()),
        "hs_blocks": list(machine.hs_blocks),
        "fifo_irq": wiring,
        "interrupt_lines": [[n, list(c.lines)] for n, c in machine.interrupt_controllers.items()],
    }


def _layout_digest(arch, pe_count):
    layouts = []
    for width in WIDTHS:
        spec = presets.preset(arch, pe_count)
        spec.set_data_width(width)
        spec.validate()
        layouts.append(_layout(build_machine(spec)))
    return hashlib.sha256(json.dumps(layouts).encode()).hexdigest()[:16]


def _smoke_plan():
    # Plans bind fault sites by *name*, so one compiled against a throwaway
    # machine of the same spec drives any other machine built from it.
    scratch = build_machine(_spec())
    return compile_plan(scratch, SMOKE_SCENARIO, seed=3)


class TestBuilderComposition:
    def test_fluent_calls_return_builder(self):
        builder = MachineBuilder(_spec())
        assert builder.with_kernel("heap") is builder
        assert builder.with_arbiter_policy(None) is builder

    @pytest.mark.parametrize("hooks", ["tracer", "monitor", "faults"])
    def test_compiled_with_hooks_stays_generic(self, hooks):
        """A hooked compiled machine runs its tenures through the hooked
        path and ends as the heap machine does.  A tracer needs every hook
        call, so its polls register no loop and nothing is skipped; a
        protocol monitor and a fault injector declare their counters, so
        the polls still jump."""
        runs = {}
        for kernel in BACKENDS:
            machine = MachineBuilder(_spec()).with_kernel(kernel).build()
            if hooks == "tracer":
                machine.attach_observability(Observability())
            elif hooks == "monitor":
                machine.attach_monitors()
            else:
                install_faults(machine, _smoke_plan(), RecoveryPolicy())
            result = run_ofdm(machine, "PPA", OfdmParameters(packets=1))
            runs[kernel] = (
                result.cycles,
                machine.sim.events_processed,
                {name: pe.stats.as_dict() for name, pe in machine.pes.items()},
                {name: seg.stats.as_dict() for name, seg in machine.segments.items()},
            )
            skipped = machine.sim.events_skipped
        assert runs["compiled"] == runs["heap"]
        if hooks == "tracer":
            assert skipped == 0
        else:
            assert skipped > 0


class TestBuiltFromNetlist:
    @pytest.mark.parametrize("arch", sorted(LAYOUT_DIGESTS))
    def test_layout_digests(self, arch):
        counts = [count for count in PE_COUNTS if not (arch == "SPLITBA" and count < 2)]
        digests = tuple(_layout_digest(arch, count) for count in counts)
        assert digests == LAYOUT_DIGESTS[arch]

    def test_ccba_flattening_rule(self):
        """CCBA's netlist gives each BAN a local bus; its machine puts every
        memory and PE on the one PLB with the 5-cycle read grant."""
        generated = BusSyn().generate(presets.preset("CCBA", 4))
        graph = graph_from_design(generated.design())
        local = [ban.segment for ban in graph.subsystems[0].bans if ban.cpu is not None]
        assert [node.masters for node in local] == [["A"], ["B"], ["C"], ["D"]]
        machine = generated.build_machine()
        (plb,) = machine.segments.values()
        assert (plb.name, plb.grant_cycles, plb.write_grant_cycles) == ("PLB_SUB1", 5, 3)
        assert {device.segment for device in machine.devices.values()} == {plb}
        assert len(machine.devices) == 5
        for name in machine.pes:
            assert machine.direct_segments[name] == {plb}

    def test_generated_system_builds_without_generating_again(self, monkeypatch):
        generated = BusSyn().generate(_spec())

        def generate(*_args):
            raise AssertionError("the design was generated again")

        monkeypatch.setattr(BusSyn, "generate", generate)
        machine = generated.build_machine(kernel="heap")
        assert machine.spec is generated.spec
        assert machine.pe_order == ["A", "B", "C", "D"]


class TestBuildMachineBackCompat:
    """The legacy keyword entry point stays a thin wrapper of the builder."""

    def test_returns_machine(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)  # the default backend
        machine = build_machine(_spec())
        assert isinstance(machine, Machine)
        assert machine.sim.kernel_name == "heap"

    def test_kernel_kwarg_forwards(self):
        for kernel in BACKENDS:
            assert build_machine(_spec(), kernel=kernel).sim.kernel_name == kernel

    def test_elaboration_kwargs_match_builder(self):
        legacy = build_machine(_spec(), arbiter_policy="round_robin")
        built = MachineBuilder(_spec()).with_arbiter_policy("round_robin").build()
        assert {
            name: type(segment.arbiter).__name__
            for name, segment in legacy.segments.items()
        } == {
            name: type(segment.arbiter).__name__
            for name, segment in built.segments.items()
        }
        for machine in (legacy, built):
            assert {pe.cycles_per_instruction for pe in machine.pes.values()} == {0.4}
