"""Processing element (PE) model.

Definition A of the paper: a PE is the hardware unit performing algorithmic
processing -- an MPC755 in all of the paper's experiments.  We replace the
instruction-set simulator of the Seamless CVE environment with a *cost-model
PE*: application code really runs (as Python generators doing real math) and
charges cycles through this model, while every off-chip-equivalent access
(bus transaction, cache miss refill) goes through the simulated bus fabric.

The model captures the three effects the paper's evaluation hinges on:

* **compute time** -- ``instructions * cycles_per_instruction`` at the
  100 MHz bus clock (the MPC755's internal clock is faster, which is folded
  into ``cycles_per_instruction`` < 1 being possible);
* **instruction fetch traffic** -- each compute phase walks its code
  footprint through the 32 KB L1 I-cache at line granularity; misses become
  bus reads from the PE's *program memory*, which is the local SRAM in the
  generated architectures but the shared global memory in GGBA;
* **data streaming traffic** -- declared data touches stream through the
  32 KB L1 D-cache; misses and write-backs become bus bursts against the
  memory holding the buffer.

Cache-miss bus traffic is issued in bounded groups (``MISS_GROUP`` misses
per bus tenure) so that arbitration cost is charged per miss while the event
count stays tractable; other masters can still interleave between groups.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Sequence, Tuple

from .cache import Cache, mpc755_dcache, mpc755_icache
from .kernel import Process, Simulator
from .stats import PeStats

__all__ = ["DataTouch", "ProcessingElement", "MISS_GROUP"]

# Cache misses bundled into a single bus tenure (see module docstring).
MISS_GROUP = 8


class DataTouch:
    """A declared streaming pass over a buffer during a compute phase.

    ``device`` names the memory holding the buffer, ``address`` is the word
    address of its start, ``words`` its length and ``write`` whether the
    pass dirties it.  The D-cache filters the stream at line granularity.
    """

    __slots__ = ("device", "address", "words", "write")

    def __init__(self, device: str, address: int, words: int, write: bool = False):
        self.device = device
        self.address = address
        self.words = words
        self.write = write


class ProcessingElement:
    """One cost-model CPU attached to a bus fabric."""

    __slots__ = (
        "sim",
        "name",
        "machine",
        "cycles_per_instruction",
        "icache",
        "dcache",
        "program_device",
        "program_base",
        "code_footprint_words",
        "stats",
        "_cycle_carry",
        "_fetch_cursor",
        "finished_at",
        "_fetch_warm",
        "_footprint_lines",
        "faults",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        machine,
        cycles_per_instruction: float = 0.4,
        icache: Optional[Cache] = None,
        dcache: Optional[Cache] = None,
        program_device: Optional[str] = None,
        program_base: int = 0,
        code_footprint_words: int = 2048,
    ):
        self.sim = sim
        self.name = name
        self.machine = machine
        self.cycles_per_instruction = cycles_per_instruction
        self.icache = icache if icache is not None else mpc755_icache(name + ".ic")
        self.dcache = dcache if dcache is not None else mpc755_dcache(name + ".dc")
        self.program_device = program_device
        self.program_base = program_base
        self.code_footprint_words = code_footprint_words
        self.stats = PeStats(name)
        self._cycle_carry = 0.0
        self._fetch_cursor = 0
        self.finished_at: Optional[int] = None
        # Warm-footprint fast path state for _fetch_traffic (see there).
        self._fetch_warm = False
        line_words = self.icache.line_words
        if code_footprint_words % line_words == 0:
            self._footprint_lines: Optional[int] = code_footprint_words // line_words
        else:
            self._footprint_lines = None  # unaligned footprint: no fast path
        # Fault injector (repro.faults); None keeps compute() hook-free.
        self.faults = None

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------
    def run(self, program: Generator, name: str = "") -> Process:
        """Launch a program generator as a simulation process."""
        return self.sim.process(
            self._wrap(program), name or "%s.program" % self.name
        )

    def _wrap(self, program: Generator) -> Generator:
        value = yield from program
        self.finished_at = self.sim.now
        return value

    # ------------------------------------------------------------------
    # Compute phases
    # ------------------------------------------------------------------
    def compute(
        self,
        instructions: float,
        touches: Sequence[DataTouch] = (),
    ) -> Generator:
        """Charge a compute phase: cycles + I-fetch traffic + data streams."""
        if instructions < 0:
            raise ValueError("negative instruction count")
        faults = self.faults
        if faults is not None and faults.crash_due(self.name):
            # Crash + cold restart: caches invalidated, warm-fetch state
            # reset, restart latency charged before the phase begins.
            yield from faults.crash_restart(self)
        raw = instructions * self.cycles_per_instruction + self._cycle_carry
        cycles = int(raw)
        self._cycle_carry = raw - cycles
        if cycles > 0:
            self.stats.compute_cycles += cycles
            yield cycles
        yield from self._fetch_traffic(instructions)
        for touch in touches:
            yield from self._stream_traffic(touch)

    def _fetch_traffic(self, instructions: float) -> Generator:
        """Walk the code footprint through the I-cache; misses hit the bus.

        The walk is a fixed cyclic stride over the code footprint, one line
        per fetch, so each lap from the cursor to the wrap is one range of
        consecutive lines and goes to the cache as one
        :meth:`~repro.sim.cache.Cache.access_lines` call.

        Warm shortcut: the I-cache is private to this PE (nothing else
        issues accesses to it).  Once every footprint line is resident --
        observed as ``misses == footprint_lines`` with zero evictions --
        every later fetch is a hit and can never evict, so the rest of the
        walk, in this call and every later one, is replaced by a counter
        update.  The statistics, the cursor and the bus traffic are exactly
        those of the full walk.  Any eviction or flush (i.e. somebody else
        used the cache after all) invalidates the shortcut and the walk
        resumes.  An unaligned footprint never takes it.
        """
        if self.program_device is None or instructions <= 0:
            return
        icache = self.icache
        line_words = icache.line_words
        fetches = int(instructions) // line_words
        if fetches <= 0:
            return
        stats = self.stats
        cache_stats = icache.stats
        footprint = self.code_footprint_words
        cursor = self._fetch_cursor
        misses = 0
        while fetches:
            if (
                self._fetch_warm
                and cache_stats.evictions == 0
                and icache.flushes == 0
            ):
                stats.icache_hits += fetches
                cache_stats.hits += fetches
                cursor = (cursor + fetches * line_words) % footprint
                break
            # Fetches left in this lap: cursor, cursor + line_words, ...
            # while below the footprint.
            lap = min(fetches, (footprint - cursor + line_words - 1) // line_words)
            first = (self.program_base + cursor) // line_words
            hits, lap_misses, _writebacks = icache.access_lines(
                first, first + lap - 1, False
            )
            stats.icache_hits += hits
            stats.icache_misses += lap_misses
            misses += lap_misses
            fetches -= lap
            cursor = (cursor + lap * line_words) % footprint
            if (
                self._footprint_lines is not None
                and cache_stats.evictions == 0
                and icache.flushes == 0
                and cache_stats.misses == self._footprint_lines
                and cache_stats.misses == stats.icache_misses
                and cache_stats.hits == stats.icache_hits
            ):
                # The cache holds exactly the footprint (and only our
                # accesses ever touched it): steady state from here on.
                self._fetch_warm = True
        self._fetch_cursor = cursor
        if misses:
            yield from self.machine.miss_traffic(
                self, self.program_device, misses, line_words, write=False
            )

    def _stream_traffic(self, touch: DataTouch) -> Generator:
        """Stream a buffer pass through the D-cache; misses hit the bus."""
        dcache = self.dcache
        line_words = dcache.line_words
        first = touch.address // line_words
        last = (touch.address + max(touch.words, 1) - 1) // line_words
        hits, misses, writebacks = dcache.access_lines(first, last, touch.write)
        stats = self.stats
        stats.dcache_hits += hits
        stats.dcache_misses += misses
        if misses:
            yield from self.machine.miss_traffic(
                self, touch.device, misses, line_words, write=False
            )
        if writebacks:
            yield from self.machine.miss_traffic(
                self, touch.device, writebacks, line_words, write=True
            )

    # ------------------------------------------------------------------
    # Explicit bus accesses (uncached: shared buffers, registers, FIFOs)
    # ------------------------------------------------------------------
    def bus_read(self, device: str, address: int, words: int) -> Generator:
        """Read ``words`` 32-bit words from ``device``; returns the values."""
        start = self.sim.now
        values = yield from self.machine.transaction(
            self, device, address, words, write=False
        )
        self.stats.bus_cycles += self.sim.now - start
        self.stats.words_read += words
        return values

    def bus_write(self, device: str, address: int, values: Iterable[int]) -> Generator:
        values = list(values)
        start = self.sim.now
        yield from self.machine.transaction(
            self, device, address, len(values), write=True, data=values
        )
        self.stats.bus_cycles += self.sim.now - start
        self.stats.words_written += len(values)

    def stall(self, cycles: int) -> Generator:
        """Idle wait (polling interval, RTOS idle)."""
        self.stats.stall_cycles += cycles
        yield cycles
