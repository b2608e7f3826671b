"""Memory models: SRAM, DRAM and simple backing stores.

The Module Library's ``<memory>_comp`` template (library component C,
section V.A) can generate behavioural memories of any size; the experiments
use 8 MB SRAM blocks per BAN plus (for global-bus systems) a global SRAM.

The simulator stores 32-bit words addressed by *word index* (the software
APIs of the paper move "one-hundred 32-bit words" etc.).  A 64-bit data bus
therefore carries two words per beat; the bus model handles beat math, and
the memory model charges its own access latency per burst.

Latency model:

* SRAM: fixed ``access_cycles`` (default 1) to open a burst, then the data
  streams at bus rate.
* DRAM: row-buffer model -- a burst touching an already-open row costs
  ``hit_cycles``; opening a new row costs ``miss_cycles``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

__all__ = ["Memory", "Sram", "Dram", "make_memory", "MEMORY_TYPES"]


class Memory:
    """Word-addressed backing store with a pluggable latency model."""

    kind = "memory"

    def __init__(self, name: str, size_words: int):
        if size_words <= 0:
            raise ValueError("memory %r must have positive size" % name)
        self.name = name
        self.size_words = size_words
        self._words: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        # Fault injector (repro.faults); None keeps access_latency trivial.
        self.faults = None

    # -- latency ---------------------------------------------------------
    def burst_latency(self, address: int, words: int, write: bool) -> int:
        """Cycles to set up a burst of ``words`` starting at ``address``."""
        raise NotImplementedError

    def access_latency(self, address: int, words: int, write: bool) -> int:
        """Burst latency plus any injected wait-state jitter.

        The jitter is purely extra cycles charged while the bus is held --
        it is detected (and accounted) by the fault injector, never a data
        hazard, modelling a slow refresh/contended bank.
        """
        cycles = self.burst_latency(address, words, write)
        if self.faults is not None:
            cycles += self.faults.memory_jitter(self.name)
        return cycles

    # -- data ------------------------------------------------------------
    def _check(self, address: int, count: int = 1) -> None:
        if address < 0 or address + count > self.size_words:
            raise IndexError(
                "%s: access [%d, %d) outside %d words"
                % (self.name, address, address + count, self.size_words)
            )

    def read(self, address: int, count: int = 1) -> List[int]:
        self._check(address, count)
        self.reads += count
        if count == 1:
            return [self._words.get(address, 0)]
        get = self._words.get
        return [get(i, 0) for i in range(address, address + count)]

    def read_word(self, address: int) -> int:
        return self.read(address, 1)[0]

    def write(self, address: int, values: Iterable[int]) -> None:
        values = [value & 0xFFFFFFFF for value in values]
        self._check(address, len(values))
        self.writes += len(values)
        self._words.update(zip(range(address, address + len(values)), values))

    def write_word(self, address: int, value: int) -> None:
        self.write(address, [value])

    def clear(self) -> None:
        self._words.clear()


class Sram(Memory):
    """Single-cycle (configurable) SRAM; the paper's default BAN memory."""

    kind = "SRAM"

    def __init__(self, name: str, size_words: int, access_cycles: int = 1):
        super().__init__(name, size_words)
        self.access_cycles = access_cycles

    def burst_latency(self, address: int, words: int, write: bool) -> int:
        return self.access_cycles


class Dram(Memory):
    """DRAM with a one-row row buffer (open-page policy)."""

    kind = "DRAM"

    def __init__(
        self,
        name: str,
        size_words: int,
        row_words: int = 512,
        hit_cycles: int = 2,
        miss_cycles: int = 6,
    ):
        super().__init__(name, size_words)
        if row_words <= 0:
            raise ValueError("row_words must be positive")
        self.row_words = row_words
        self.hit_cycles = hit_cycles
        self.miss_cycles = miss_cycles
        self._open_row: Optional[int] = None
        self.row_hits = 0
        self.row_misses = 0

    def burst_latency(self, address: int, words: int, write: bool) -> int:
        first_row = address // self.row_words
        last_row = (address + max(words, 1) - 1) // self.row_words
        cycles = 0
        for row in range(first_row, last_row + 1):
            if row == self._open_row:
                self.row_hits += 1
                cycles += self.hit_cycles
            else:
                self.row_misses += 1
                cycles += self.miss_cycles
                self._open_row = row
        return cycles


MEMORY_TYPES = {"SRAM": Sram, "DRAM": Dram}


def make_memory(memory_type: str, name: str, size_words: int, **kwargs) -> Memory:
    """Build a memory by type name as given in the Memory Property option."""
    try:
        cls = MEMORY_TYPES[memory_type.upper()]
    except KeyError:
        raise ValueError(
            "unknown memory type %r (expected one of %s)"
            % (memory_type, ", ".join(sorted(MEMORY_TYPES)))
        )
    return cls(name, size_words, **kwargs)
