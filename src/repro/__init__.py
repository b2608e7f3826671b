"""BusSyn reproduction: automated bus generation for multiprocessor SoC design.

Reimplementation of Ryu & Mooney, *Automated Bus Generation for
Multiprocessor SoC Design* (DATE 2003 / GIT-CC-02-64): the BusSyn bus
synthesis tool, the five generated bus architectures (BFBA, GBAVI,
GBAVIII, Hybrid, SplitBA) plus the two hand-design baselines (GGBA, CCBA),
a cycle-level simulator standing in for the paper's Seamless CVE
environment, and the three evaluation applications (OFDM transmitter,
MPEG2 decoder, database example).

Quickstart::

    from repro import BusSyn, presets, build_machine
    from repro.apps.ofdm import run_ofdm

    spec = presets.preset("GBAVIII", pe_count=4)   # Figure 18 user options
    generated = BusSyn().generate(spec)            # synthesizable Verilog
    print(generated.report.row())

    machine = generated.build_machine()            # built from the netlist
    result = run_ofdm(machine, "FPA")
    print(result.throughput_mbps, "Mbps")
"""

from .core.busyn import BusSyn, GeneratedBusSystem, GenerationReport
from .options import presets
from .options.schema import (
    BANSpec,
    BusSpec,
    BusSubsystemSpec,
    BusSystemSpec,
    MemorySpec,
    OptionError,
)
from .sim.fabric import Machine, build_machine
from .sim.kernel import Simulator

__version__ = "1.0.0"

__all__ = [
    "BusSyn",
    "GeneratedBusSystem",
    "GenerationReport",
    "presets",
    "BANSpec",
    "BusSpec",
    "BusSubsystemSpec",
    "BusSystemSpec",
    "MemorySpec",
    "OptionError",
    "Machine",
    "build_machine",
    "Simulator",
    "__version__",
]
