"""User-option schema: the input constraints of Figure 18.

BusSyn is configured by a small hierarchy of options:

1. *Bus System Property* -- number of Bus Subsystems;
2. *Bus Subsystem Property* -- number of BANs, number of buses, bus type;
3. *Bus Property* -- address width, data width, Bi-FIFO depth (BFBA only);
4. *BAN Property* -- CPU type / Non-CPU type, number of memories;
5. *Memory Property* -- memory type, address width, data width.

These map onto the dataclasses below.  ``validate()`` enforces the legality
rules spelled out in section V.B (e.g. a Bi-FIFO depth is only meaningful
for BFBA buses; a BAN holds at most one PE -- definition F).

The same spec object drives both halves of the reproduction: Verilog
generation (:mod:`repro.core`) and simulation (:mod:`repro.sim.fabric`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = [
    "OptionError",
    "MemorySpec",
    "BANSpec",
    "BusSpec",
    "BusSubsystemSpec",
    "BusSystemSpec",
    "BUS_TYPES",
    "CPU_TYPES",
    "NON_CPU_TYPES",
    "MEMORY_TYPES",
]

# Vocabulary from Figure 18's user input list (extended with the two
# hand-designed baselines so that one spec language covers every system
# in the evaluation).
BUS_TYPES = ("GBAVI", "GBAVII", "GBAVIII", "BFBA", "SPLITBA", "GGBA", "CCBA")
CPU_TYPES = ("NONE", "MPC750", "MPC755", "MPC7410", "ARM9TDMI")
NON_CPU_TYPES = ("NONE", "DCT", "MPEG2")
MEMORY_TYPES = ("NONE", "SRAM", "DRAM", "DPRAM", "FIFO")


class OptionError(ValueError):
    """An illegal combination of user options."""


@dataclass
class MemorySpec:
    """User option 5: one memory block inside a BAN."""

    memory_type: str = "SRAM"
    address_width: int = 20
    data_width: int = 64
    name: str = ""

    @property
    def size_bytes(self) -> int:
        """Physical capacity: 2^address_width locations of data_width bits."""
        return (1 << self.address_width) * (self.data_width // 8)

    @property
    def size_words(self) -> int:
        """Capacity in 32-bit words (the software-visible unit)."""
        return self.size_bytes // 4

    def validate(self, where: str) -> None:
        if self.memory_type not in MEMORY_TYPES:
            raise OptionError(
                "%s: memory type %r not in %s" % (where, self.memory_type, MEMORY_TYPES)
            )
        if self.memory_type == "NONE":
            return
        if not 8 <= self.address_width <= 32:
            raise OptionError(
                "%s: memory address width %d outside [8, 32]" % (where, self.address_width)
            )
        if self.data_width not in (8, 16, 32, 64, 128):
            raise OptionError(
                "%s: memory data width %d not a supported bus width" % (where, self.data_width)
            )


@dataclass
class BANSpec:
    """User option 4: one Bus Access Node."""

    name: str
    cpu_type: str = "MPC755"
    non_cpu_type: str = "NONE"
    memories: List[MemorySpec] = field(default_factory=list)
    is_global_resource: bool = False
    # For hardware-IP BANs (non_cpu_type != NONE): the PE BAN this IP hangs
    # off through dedicated wires, like BAN FFT off BAN B in Example 8.
    ip_attach: Optional[str] = None

    @property
    def has_pe(self) -> bool:
        return self.cpu_type != "NONE"

    def validate(self) -> None:
        where = "BAN %s" % self.name
        if self.cpu_type not in CPU_TYPES:
            raise OptionError("%s: CPU type %r not in %s" % (where, self.cpu_type, CPU_TYPES))
        if self.non_cpu_type not in NON_CPU_TYPES:
            raise OptionError(
                "%s: Non-CPU type %r not in %s" % (where, self.non_cpu_type, NON_CPU_TYPES)
            )
        if self.cpu_type != "NONE" and self.non_cpu_type != "NONE":
            raise OptionError(
                "%s: a BAN holds at most one processing element "
                "(definition F): CPU %r and non-CPU %r both requested"
                % (where, self.cpu_type, self.non_cpu_type)
            )
        if self.is_global_resource and not self.memories:
            raise OptionError("%s: a global-resource BAN must carry a memory" % where)
        if len(self.memories) > 1:
            # The generated BAN has one memory port (its instance u_mem0).
            raise OptionError(
                "%s: a BAN holds at most one memory, %d requested"
                % (where, len(self.memories))
            )
        if self.ip_attach is not None and self.non_cpu_type == "NONE":
            raise OptionError(
                "%s: ip_attach is only meaningful for hardware-IP BANs" % where
            )
        for memory in self.memories:
            memory.validate(where)


@dataclass
class BusSpec:
    """User option 3: one bus inside a subsystem."""

    bus_type: str = "GBAVIII"
    address_width: int = 32
    data_width: int = 64
    fifo_depth: int = 0
    arbiter_policy: str = "fcfs"
    grant_cycles: int = 3
    write_grant_cycles: Optional[int] = None

    def validate(self, where: str) -> None:
        if self.bus_type not in BUS_TYPES:
            raise OptionError("%s: bus type %r not in %s" % (where, self.bus_type, BUS_TYPES))
        if not 16 <= self.address_width <= 64:
            raise OptionError("%s: address width %d outside [16, 64]" % (where, self.address_width))
        if self.data_width not in (32, 64, 128):
            raise OptionError("%s: data width %d not in (32, 64, 128)" % (where, self.data_width))
        if self.bus_type == "BFBA":
            if self.fifo_depth <= 0:
                raise OptionError("%s: BFBA requires a positive Bi-FIFO depth" % where)
        elif self.fifo_depth:
            raise OptionError(
                "%s: Bi-FIFO depth is only available for BFBA (got bus type %r)"
                % (where, self.bus_type)
            )
        if self.grant_cycles < 1:
            raise OptionError("%s: grant cycles must be >= 1" % where)

    @property
    def effective_write_grant(self) -> int:
        return self.grant_cycles if self.write_grant_cycles is None else self.write_grant_cycles


@dataclass
class BusSubsystemSpec:
    """User option 2: one Bus Subsystem (definition H)."""

    name: str
    bans: List[BANSpec] = field(default_factory=list)
    buses: List[BusSpec] = field(default_factory=list)

    @property
    def pe_bans(self) -> List[BANSpec]:
        return [ban for ban in self.bans if ban.has_pe]

    @property
    def ip_bans(self) -> List[BANSpec]:
        return [ban for ban in self.bans if ban.non_cpu_type != "NONE"]

    @property
    def global_bans(self) -> List[BANSpec]:
        return [ban for ban in self.bans if ban.is_global_resource]

    def bus_of_type(self, bus_type: str) -> Optional[BusSpec]:
        for bus in self.buses:
            if bus.bus_type == bus_type:
                return bus
        return None

    def validate(self) -> None:
        where = "subsystem %s" % self.name
        if not self.bans:
            raise OptionError("%s: at least one BAN is required" % where)
        if not self.buses:
            raise OptionError("%s: at least one bus is required" % where)
        names = [ban.name for ban in self.bans]
        if len(set(names)) != len(names):
            raise OptionError("%s: duplicate BAN names %r" % (where, names))
        seen_types = set()
        for bus in self.buses:
            bus.validate(where)
            if bus.bus_type in seen_types:
                raise OptionError("%s: duplicate bus type %r" % (where, bus.bus_type))
            seen_types.add(bus.bus_type)
        for ban in self.bans:
            ban.validate()
        global_bus_types = {"GBAVII", "GBAVIII", "SPLITBA", "GGBA", "CCBA"}
        if seen_types & global_bus_types and not self.global_bans:
            raise OptionError(
                "%s: a global-bus type (%s) requires a global-resource BAN"
                % (where, ", ".join(sorted(seen_types & global_bus_types)))
            )
        pe_names = {ban.name for ban in self.pe_bans}
        for ip_ban in self.ip_bans:
            if ip_ban.ip_attach is None:
                raise OptionError(
                    "%s: hardware-IP BAN %s needs ip_attach (its host PE BAN)"
                    % (where, ip_ban.name)
                )
            if ip_ban.ip_attach not in pe_names:
                raise OptionError(
                    "%s: IP BAN %s attaches to unknown PE BAN %r"
                    % (where, ip_ban.name, ip_ban.ip_attach)
                )


@dataclass
class BusSystemSpec:
    """User option 1: the whole Bus System (definition I)."""

    name: str
    subsystems: List[BusSubsystemSpec] = field(default_factory=list)
    # Bridges between subsystems, as (subsystem_name, subsystem_name) pairs.
    # When empty and there are >= 2 subsystems, a chain is implied.
    bridges: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def all_bans(self) -> List[BANSpec]:
        return [ban for subsystem in self.subsystems for ban in subsystem.bans]

    @property
    def pe_count(self) -> int:
        return sum(1 for ban in self.all_bans if ban.has_pe)

    @property
    def total_memory_bytes(self) -> int:
        return sum(
            memory.size_bytes
            for ban in self.all_bans
            for memory in ban.memories
            if memory.memory_type != "NONE"
        )

    def effective_bridges(self) -> List[Tuple[str, str]]:
        if self.bridges:
            return list(self.bridges)
        names = [subsystem.name for subsystem in self.subsystems]
        return list(zip(names, names[1:]))

    def set_data_width(self, width: int) -> None:
        """Give every bus and memory the data width ``width``; call
        :meth:`validate` afterwards."""
        for subsystem in self.subsystems:
            for bus in subsystem.buses:
                bus.data_width = width
            for ban in subsystem.bans:
                for memory in ban.memories:
                    memory.data_width = width

    def subsystem(self, name: str) -> BusSubsystemSpec:
        for subsystem in self.subsystems:
            if subsystem.name == name:
                return subsystem
        raise KeyError("no subsystem named %r" % name)

    def validate(self) -> None:
        if not self.subsystems:
            raise OptionError("bus system %s: at least one subsystem required" % self.name)
        names = [subsystem.name for subsystem in self.subsystems]
        if len(set(names)) != len(names):
            raise OptionError("bus system %s: duplicate subsystem names" % self.name)
        for subsystem in self.subsystems:
            subsystem.validate()
        valid = set(names)
        for left, right in self.effective_bridges():
            if left not in valid or right not in valid:
                raise OptionError(
                    "bus system %s: bridge (%s, %s) references unknown subsystem"
                    % (self.name, left, right)
                )
            if left == right:
                raise OptionError(
                    "bus system %s: bridge may not loop a subsystem to itself" % self.name
                )
        ban_names = [ban.name for ban in self.all_bans]
        if len(set(ban_names)) != len(ban_names):
            raise OptionError("bus system %s: duplicate BAN names across subsystems" % self.name)
