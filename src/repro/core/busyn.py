"""BusSyn: the bus synthesis tool (Figure 18's generation sequence).

``BusSyn.generate(spec)`` runs the whole flow -- Module extraction and
generation, BAN integration, Bus Subsystem generation, Bus System assembly
-- and returns a :class:`GeneratedBusSystem` carrying:

* the synthesizable Verilog (one file per module plus a combined file),
* the parsed design hierarchy (for lint/elaboration),
* the generation report: wall-clock generation time in milliseconds and
  the NAND2 gate estimate (the two columns of Table V),
* a hook building the cycle-level simulation machine from the netlist.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hdl.ast import Design
from ..hdl.emitter import emit_design, emit_module
from ..hdl.lint import LintMessage, lint_design
from ..moduledb.library import ModuleLibrary, default_library
from ..options.schema import BusSystemSpec
from ..wiredb.library import WireLibrary, default_wire_library
from .gatecount import count_system_gates, gate_report
from .sysgen import GeneratedSystem, generate_system

__all__ = ["GenerationReport", "GeneratedBusSystem", "BusSyn", "GENERATOR_VERSION"]

#: Bump whenever the generation stack's output changes for an unchanged
#: spec (template edits, wire-section layout changes, naming schemes).
#: Every cached artifact (:class:`repro.dse.cache.ArtifactCache`) records
#: the version it was written under and reads as a miss under another, so
#: a sweep row or fuzz verdict from an older generator is never served.
GENERATOR_VERSION = 2


@dataclass
class GenerationReport:
    """Table V's two measures for one generated Bus System."""

    bus_system: str
    pe_count: int
    generation_time_ms: float
    gate_count: int
    gate_breakdown: Dict[str, int] = field(default_factory=dict)

    def row(self) -> str:
        return "%-10s %3d PEs  %8.1f ms  %8d gates" % (
            self.bus_system,
            self.pe_count,
            self.generation_time_ms,
            self.gate_count,
        )


@dataclass
class GeneratedBusSystem:
    spec: BusSystemSpec
    system: GeneratedSystem
    report: GenerationReport

    @property
    def top_name(self) -> str:
        return self.system.name

    def design(self) -> Design:
        return self.system.design()

    def verilog(self) -> str:
        """The whole Bus System as one synthesizable Verilog text."""
        return emit_design(self.design())

    def files(self) -> Dict[str, str]:
        """One ``<module>.v`` text per module in the hierarchy."""
        design = self.design()
        return {
            "%s.v" % name: emit_module(module)
            for name, module in design.modules.items()
        }

    def lint(self) -> List[LintMessage]:
        return lint_design(self.design())

    def lint_errors(self) -> List[LintMessage]:
        return [message for message in self.lint() if message.severity == "error"]

    def build_machine(self, **kwargs):
        """The simulation machine of this generated system.

        Built from this netlist's :class:`~repro.verify.graph.FabricGraph`
        (:class:`repro.sim.fabric.MachineBuilder`), with what the RTL does
        not encode taken from :attr:`spec`; keyword arguments are those of
        :func:`repro.sim.fabric.build_machine`.
        """
        from ..sim.fabric import build_machine

        return build_machine(self, **kwargs)

    def testbench(self, cycles: int = 1000) -> str:
        """A simple co-simulation harness for the generated top module.

        The paper drove generated systems under Seamless CVE/VCS; this emits
        the equivalent stand-alone stimulus: clock generation, an active-low
        reset pulse, every other top-level input tied low, and a bounded
        ``$finish``.  The text parses back through :mod:`repro.hdl.parser`.
        """
        top = self.design().modules[self.top_name]
        lines = [
            "module tb_%s();" % top.name,
            "  reg clk;",
            "  reg rst_n;",
        ]
        stimulus_regs = {"clk", "rst_n"}
        wires = []
        connections = []
        for port in top.ports:
            if port.name in stimulus_regs:
                connections.append("    .%s(%s)" % (port.name, port.name))
                continue
            range_text = "[%d:0] " % (port.width - 1) if port.width > 1 else ""
            if port.direction == "input":
                lines.append("  reg %s%s;" % (range_text, port.name))
            else:
                wires.append("  wire %s%s;" % (range_text, port.name))
            connections.append("    .%s(%s)" % (port.name, port.name))
        lines.extend(wires)
        lines.append("  %s u_dut (" % top.name)
        lines.append(",\n".join(connections))
        lines.append("  );")
        lines.append("  always begin")
        lines.append("    clk = 1'b0;")
        lines.append("    #5;")
        lines.append("    clk = 1'b1;")
        lines.append("    #5;")
        lines.append("  end")
        lines.append("  initial begin")
        lines.append("    rst_n = 1'b0;")
        for port in top.ports:
            if port.direction == "input" and port.name not in stimulus_regs:
                lines.append("    %s = %d'b0;" % (port.name, port.width))
        lines.append("    #100;")
        lines.append("    rst_n = 1'b1;")
        lines.append("    #%d;" % (cycles * 10))
        lines.append("    $finish;")
        lines.append("  end")
        lines.append("endmodule")
        return "\n".join(lines) + "\n"


class BusSyn:
    """The bus synthesis tool: libraries in, Verilog out, in milliseconds.

    :meth:`generate` always generates, times the generation afresh and
    keeps nothing: a caller that needs one design several times holds on
    to it, and a design nobody holds is freed.  A generation takes a few
    milliseconds, so no cache of designs, in process or on disk, pays for
    what it costs to keep.

    The libraries never change: without arguments every BusSyn shares the
    process's :func:`default_library` and :func:`default_wire_library`.
    Private ones: ``BusSyn(ModuleLibrary(ALL_LIBRARY_TEXT), WireLibrary())``.
    """

    def __init__(
        self,
        module_library: Optional[ModuleLibrary] = None,
        wire_library: Optional[WireLibrary] = None,
    ):
        self.module_library = module_library or default_library()
        self.wire_library = wire_library or default_wire_library()

    def generate(self, spec: BusSystemSpec) -> GeneratedBusSystem:
        """Generate the Bus System described by the user options."""
        start = time.perf_counter()
        system = generate_system(self.module_library, self.wire_library, spec)
        gates = count_system_gates(system)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        report = GenerationReport(
            bus_system=spec.name,
            pe_count=spec.pe_count,
            generation_time_ms=elapsed_ms,
            gate_count=gates,
            gate_breakdown=gate_report(system),
        )
        return GeneratedBusSystem(spec, system, report)
