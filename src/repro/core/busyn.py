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

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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
#: The shared-store key mixes this in so stale pickled systems from an
#: older generator are never served for the same spec.
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
    """The bus synthesis tool: libraries in, Verilog out, in seconds.

    Generation is deterministic in the spec (and the libraries), so results
    are cached at two levels, both keyed by the spec:

    * an in-process **memo** per tool instance (keyed by :meth:`spec_key`),
      which returns the *original* :class:`GeneratedBusSystem` object --
      including its first-run ``generation_time_ms`` -- which is what
      repeated-measurement harnesses want;
    * an optional shared **store** (``store=``), any object with
      ``get_object(kind, key)`` / ``put_object(kind, key, payload)`` --
      in practice the content-addressed :class:`~repro.dse.cache.ArtifactCache`
      under ``.repro/dse/`` -- which persists pickled generated systems
      across tool instances *and across processes*, keyed by
      :meth:`spec_hash`.  DSE sweep workers all share one store, so a spec
      is generated once per fleet rather than once per worker.

    Pass ``cache=False`` to bypass **both** levels and time every
    generation afresh (the Table V measurement path does this).
    """

    #: Store namespace for generated systems.
    STORE_KIND = "busyn"

    def __init__(
        self,
        module_library: Optional[ModuleLibrary] = None,
        wire_library: Optional[WireLibrary] = None,
        cache: bool = True,
        store: Optional[Any] = None,
    ):
        self.module_library = module_library or default_library()
        self.wire_library = wire_library or default_wire_library()
        self._cache: Optional[Dict[str, GeneratedBusSystem]] = {} if cache else None
        self._store = store if cache else None
        self.memo_hits = 0
        self.store_hits = 0
        self.generations = 0

    @staticmethod
    def spec_key(spec: BusSystemSpec) -> str:
        """In-process memo key: the dataclass repr is complete and stable."""
        return repr(spec)

    @staticmethod
    def spec_hash(spec: BusSystemSpec) -> str:
        """Content hash of the spec (the shared-store key): SHA-256 over the
        canonical JSON of the spec's dataclass fields plus the generator
        version, so a generator change invalidates stored systems."""
        from ..obs.ledger import canonical_json, content_hash

        payload = {
            "generator": GENERATOR_VERSION,
            "spec": dataclasses.asdict(spec),
        }
        return content_hash(canonical_json(payload))

    def generate(self, spec: BusSystemSpec) -> GeneratedBusSystem:
        """Generate the Bus System described by the user options."""
        cache = self._cache
        key = None
        if cache is not None:
            key = self.spec_key(spec)
            hit = cache.get(key)
            if hit is not None:
                self.memo_hits += 1
                return hit
            if self._store is not None:
                stored = self._store.get_object(self.STORE_KIND, self.spec_hash(spec))
                if stored is not None:
                    self.store_hits += 1
                    cache[key] = stored
                    return stored
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
        generated = GeneratedBusSystem(spec, system, report)
        self.generations += 1
        if cache is not None:
            cache[key] = generated
            if self._store is not None:
                self._store.put_object(self.STORE_KIND, self.spec_hash(spec), generated)
        return generated
