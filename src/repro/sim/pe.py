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

__all__ = ["DataTouch", "ProcessingElement", "ProgramError", "MISS_GROUP"]

# Cache misses bundled into a single bus tenure (see module docstring).
MISS_GROUP = 8


class ProgramError(RuntimeError):
    """A PE's program raised, so the run's timing is not the workload's.

    Raised out of ``sim.run()`` in the cycle the program failed, which
    stops the run (its partners would otherwise poll for it forever), and
    by :meth:`repro.sim.fabric.Machine.program_cycles` after the run;
    chained to the program's exception either way."""

    @classmethod
    def naming(cls, machine_name: str, pe_name: str, error: BaseException) -> "ProgramError":
        return cls(
            "%s: PE %s's program raised %s: %s"
            % (machine_name, pe_name, type(error).__name__, error)
        )


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
        "program_error",
        "_fetch_warm",
        "_fetch_flushes",
        "_fetch_evictions",
        "_fetch_base",
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
        self.program_error: Optional[BaseException] = None
        # Warm-footprint fast path state for _fetch_misses (see there): the
        # I-cache's flush and eviction counts when the footprint last began
        # to fill, and its misses, misses - ours and hits - ours then.
        self._fetch_warm = False
        self._fetch_flushes = 0
        self._fetch_evictions = 0
        self._fetch_base = (0, 0, 0)
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
        """Launch a program generator as a simulation process.

        ``finished_at`` is set when the process event fires, in the cycle
        the program returned.  A program that raises leaves it None and
        its exception in ``program_error`` (the first, when several do),
        and stops the run: :class:`ProgramError` leaves ``sim.run()`` when
        the process event fires, in the cycle the program failed.
        """
        process = self.sim.process(program, name or "%s.program" % self.name)
        process.callbacks.append(self._finished)
        return process

    def _finished(self, process: Process) -> None:
        error = process._exception
        if error is None:
            self.finished_at = self.sim.now
            return
        if self.program_error is None:
            self.program_error = error
        raise ProgramError.naming(self.machine.name, self.name, error) from error

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
        cycles = self._charge(instructions)
        if cycles > 0:
            yield cycles
        misses = self._fetch_misses(instructions)
        if misses:
            yield from self.machine.miss_traffic(
                self, self.program_device, misses, self.icache.line_words, write=False
            )
        for touch in touches:
            yield from self._stream_traffic(touch)

    def _charge(self, instructions: float) -> int:
        """Whole cycles ``instructions`` take, counted as compute cycles;
        the fraction carries over to the next charge."""
        raw = instructions * self.cycles_per_instruction + self._cycle_carry
        cycles = int(raw)
        self._cycle_carry = raw - cycles
        if cycles > 0:
            self.stats.compute_cycles += cycles
        return cycles

    def _fetch_misses(self, instructions: float) -> int:
        """Walk the code footprint through the I-cache; return the misses.

        A plain method, not a generator: ``compute`` turns the misses into
        bus traffic, and most calls (warm, or too short to fetch a line)
        have none.

        The walk is a fixed cyclic stride over the code footprint, one line
        per fetch, so each lap from the cursor to the wrap is one range of
        consecutive lines and goes to the cache as one
        :meth:`~repro.sim.cache.Cache.access_lines` call.

        Warm shortcut: the I-cache is private to this PE (nothing else
        issues accesses to it).  Once every footprint line is resident --
        observed as ``footprint_lines`` misses, all of them ours, with no
        eviction since the cache was last empty -- every later fetch is a
        hit and can never evict, so the rest of the walk, in this call and
        every later one, is replaced by a counter update.  The statistics,
        the cursor and the bus traffic are exactly those of the full walk.
        An eviction or a flush invalidates the shortcut and the walk
        resumes; after a flush (a crash restart empties the cache) the
        footprint refills from the flush on, and the shortcut re-arms once
        it is resident again.  An unaligned footprint never takes it.
        """
        icache = self.icache
        line_words = icache.line_words
        fetches = int(instructions) // line_words
        if fetches <= 0 or self.program_device is None:
            return 0
        stats = self.stats
        cache_stats = icache.stats
        footprint = self.code_footprint_words
        cursor = self._fetch_cursor
        misses = 0
        if (
            not self._fetch_warm
            or icache.flushes != self._fetch_flushes
            or cache_stats.evictions != self._fetch_evictions
        ):
            if icache.flushes != self._fetch_flushes:
                # Emptied since the footprint last filled: count it anew.
                self._fetch_warm = False
                self._fetch_flushes = icache.flushes
                self._fetch_evictions = cache_stats.evictions
                self._fetch_base = (
                    cache_stats.misses,
                    cache_stats.misses - stats.icache_misses,
                    cache_stats.hits - stats.icache_hits,
                )
            base_misses, miss_gap, hit_gap = self._fetch_base
            while fetches:
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
                    and cache_stats.evictions == self._fetch_evictions
                    and cache_stats.misses - base_misses == self._footprint_lines
                    and cache_stats.misses - stats.icache_misses == miss_gap
                    and cache_stats.hits - stats.icache_hits == hit_gap
                ):
                    # The cache holds the whole footprint (and only our
                    # accesses touched it since it was empty): steady state
                    # from here on.
                    self._fetch_warm = True
                    break
        if fetches:
            # Warm: every fetch left hits.
            stats.icache_hits += fetches
            cache_stats.hits += fetches
            cursor = (cursor + fetches * line_words) % footprint
        self._fetch_cursor = cursor
        return misses

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
