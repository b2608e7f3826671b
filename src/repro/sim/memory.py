"""Memory models: SRAM, DRAM and simple backing stores.

The Module Library's ``<memory>_comp`` template (library component C,
section V.A) can generate behavioural memories of any size; the experiments
use 8 MB SRAM blocks per BAN plus (for global-bus systems) a global SRAM.

The simulator stores 32-bit words addressed by *word index* (the software
APIs of the paper move "one-hundred 32-bit words" etc.).  A 64-bit data bus
therefore carries two words per beat; the bus model handles beat math, and
the memory model charges its own access latency per burst.

Storage is paged: words live in fixed-size ``array('I')`` pages of
:data:`PAGE_WORDS` words (4 KB), a page allocated on its first write, so a
memory costs four bytes per word it has touched instead of a boxed int per
word in a dict.  A page never written reads as zeros.

Latency model:

* SRAM: fixed ``access_cycles`` (default 1) to open a burst, then the data
  streams at bus rate.
* DRAM: row-buffer model -- a burst touching an already-open row costs
  ``hit_cycles``; opening a new row costs ``miss_cycles``.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional

__all__ = ["Memory", "Sram", "Dram", "make_memory", "MEMORY_TYPES", "PAGE_WORDS"]

_PAGE_BITS = 10
#: Words per storage page (1,024 words, 4 KB).
PAGE_WORDS = 1 << _PAGE_BITS
_PAGE_MASK = PAGE_WORDS - 1
# The unsigned array typecode whose items are exactly 32 bits wide.
_WORD_TYPE = "I" if array("I").itemsize == 4 else "L"
_ZERO_PAGE = bytes(4 * PAGE_WORDS)


class Memory:
    """Word-addressed backing store with a pluggable latency model."""

    kind = "memory"

    def __init__(self, name: str, size_words: int):
        if size_words <= 0:
            raise ValueError("memory %r must have positive size" % name)
        self.name = name
        self.size_words = size_words
        # Page index -> page; see the module docstring.
        self._pages: Dict[int, array] = {}
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
        pages = self._pages
        if count == 1:
            # Variable polls: the most frequent read by far.
            page = pages.get(address >> _PAGE_BITS)
            return [0] if page is None else [page[address & _PAGE_MASK]]
        values: List[int] = []
        end = address + count
        while address < end:
            offset = address & _PAGE_MASK
            stop = min(PAGE_WORDS, offset + end - address)
            page = pages.get(address >> _PAGE_BITS)
            if page is None:
                values += [0] * (stop - offset)
            else:
                values += page[offset:stop].tolist()
            address += stop - offset
        return values

    def read_word(self, address: int) -> int:
        return self.read(address, 1)[0]

    def write(self, address: int, values: Iterable[int]) -> None:
        """Store ``values`` from ``address`` on, each masked to 32 bits."""
        if not isinstance(values, (list, tuple, array)):
            values = list(values)
        try:
            words = array(_WORD_TYPE, values)
        except OverflowError:
            # A negative value or one of 2**32 and above: mask them all.
            words = array(_WORD_TYPE, [value & 0xFFFFFFFF for value in values])
        count = len(words)
        self._check(address, count)
        self.writes += count
        pages = self._pages
        done = 0
        while done < count:
            offset = address & _PAGE_MASK
            chunk = min(PAGE_WORDS - offset, count - done)
            index = address >> _PAGE_BITS
            page = pages.get(index)
            if page is None:
                page = pages[index] = array(_WORD_TYPE, _ZERO_PAGE)
            page[offset : offset + chunk] = words[done : done + chunk]
            done += chunk
            address += chunk

    def write_word(self, address: int, value: int) -> None:
        self.write(address, [value])

    def clear(self) -> None:
        self._pages.clear()


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
