"""Cycle-level SoC simulation substrate.

Replaces the paper's Seamless CVE / VCS co-verification environment with a
pure-Python discrete-event simulator: the kernel (:mod:`repro.sim.kernel`),
hardware models (buses, arbiters, memories, FIFOs, handshake registers,
caches, interrupts) and the fabric builder that assembles a runnable
machine from a :class:`repro.options.BusSystemSpec`.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .arbiter import (
    ARBITER_POLICIES,
    Arbiter,
    FCFSArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from .bus import BusBridge, BusSegment, find_route
from .cache import Cache, CacheStats, mpc755_dcache, mpc755_icache
from .dma import DmaEngine
from .fabric import Device, Machine, build_machine
from .fifo import BiFifo, FifoEmptyError, FifoFullError, HardwareFifo
from .hsregs import HandshakeRegisters, SharedVariables
from .interrupt import InterruptController, InterruptLine
from .memory import Dram, Memory, Sram, make_memory
from .pe import DataTouch, ProcessingElement
from .stats import BusStats, PeStats
from .vcd import GrantTrace, VcdWriter, vcd_from_machine

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "ARBITER_POLICIES",
    "Arbiter",
    "FCFSArbiter",
    "PriorityArbiter",
    "RoundRobinArbiter",
    "make_arbiter",
    "BusBridge",
    "BusSegment",
    "find_route",
    "Cache",
    "CacheStats",
    "mpc755_dcache",
    "mpc755_icache",
    "Device",
    "Machine",
    "build_machine",
    "BiFifo",
    "FifoEmptyError",
    "FifoFullError",
    "HardwareFifo",
    "HandshakeRegisters",
    "SharedVariables",
    "InterruptController",
    "InterruptLine",
    "Dram",
    "Memory",
    "Sram",
    "make_memory",
    "DataTouch",
    "ProcessingElement",
    "BusStats",
    "PeStats",
    "DmaEngine",
    "VcdWriter",
    "GrantTrace",
    "vcd_from_machine",
]
