"""Set-associative cache model.

Each MPC755 in the paper's experiments carries 32 KB of L1 instruction cache
and 32 KB of L1 data cache (section VI.C).  The caches matter to the result
shape: in GGBA program code lives in the single *shared* memory, so every
instruction-cache miss becomes an arbitrated global-bus transaction, whereas
GBAVIII keeps program and local data in per-BAN local memories (observation
B under Table II).

The model is a classic set-associative cache with true LRU replacement and a
write-back/write-allocate policy, operating on word addresses.  PEs feed it
deterministic address streams derived from their workload phases, so cache
behaviour -- and therefore bus traffic -- is exactly reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["CacheStats", "Cache", "mpc755_icache", "mpc755_dcache"]


class CacheStats:
    __slots__ = ("hits", "misses", "evictions", "writebacks")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class Cache:
    """Set-associative, LRU, write-back/write-allocate cache.

    ``access`` touches one word and returns ``(hit, fill_words,
    writeback_words)``; the PE model touches whole line ranges with
    :meth:`access_lines`, which returns the range's hit, miss and write-back
    counts.  A miss fetches ``line_words`` from the backing memory, and an
    eviction of a dirty line writes ``line_words`` back first.

    Each set is a ``{tag: dirty}`` dict in LRU order (least recent first):
    a hit re-inserts its tag at the end, an eviction pops the first key.
    Insertion-ordered dicts give the same true-LRU behaviour as the previous
    list-of-lines scan with O(1) C-level operations.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int = 32 * 1024,
        line_bytes: int = 32,
        ways: int = 8,
    ):
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError("%s: size must be divisible by line*ways" % name)
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = size_bytes // (line_bytes * ways)
        self.line_words = line_bytes // 4
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self.sets)]
        self.stats = CacheStats()
        # Bumped by flush(); lets callers (the PE warm-fetch fast path)
        # detect that a previously observed steady state was invalidated.
        self.flushes = 0
        # (first, last, all_dirty) of the last access_lines range while it
        # is known to sit, whole and in order, at the MRU end of its sets;
        # any other access or a flush forgets it.
        self._resident: Optional[Tuple[int, int, bool]] = None

    def access(self, word_address: int, write: bool = False) -> Tuple[bool, int, int]:
        """Touch one word; returns (hit, fill_words, writeback_words)."""
        self._resident = None
        line_index = word_address // self.line_words
        lines = self._sets[line_index % self.sets]
        tag = line_index // self.sets
        stats = self.stats
        dirty = lines.pop(tag, None)
        if dirty is not None:
            lines[tag] = dirty or write  # re-insert at MRU position
            stats.hits += 1
            return True, 0, 0
        # Miss: allocate, possibly evicting the LRU line.
        stats.misses += 1
        writeback_words = 0
        if len(lines) >= self.ways:
            victim_dirty = lines.pop(next(iter(lines)))
            stats.evictions += 1
            if victim_dirty:
                stats.writebacks += 1
                writeback_words = self.line_words
        lines[tag] = write
        return False, self.line_words, writeback_words

    def access_lines(self, first: int, last: int, write: bool = False) -> Tuple[int, int, int]:
        """Touch lines ``first..last`` in order; returns (hits, misses, writebacks).

        Leaves the sets, their LRU order and the statistics exactly as one
        :meth:`access` per line would.  Consecutive lines fall in distinct
        sets until the range wraps the set index, so a range of at most
        ``sets * ways`` lines ends with each of its sets holding its run of
        the range at the MRU end, in order.  Touching that same range again
        then changes nothing but the hit count (and the dirty bits, unless
        they are all set already or the pass only reads), so it is counted
        without walking the lines.
        """
        count = last - first + 1
        if count <= 0:
            return 0, 0, 0
        stats = self.stats
        resident = self._resident
        if (
            resident is not None
            and resident[0] == first
            and resident[1] == last
            and (resident[2] or not write)
        ):
            stats.hits += count
            return count, 0, 0
        sets = self._sets
        n_sets = self.sets
        ways = self.ways
        hits = 0
        evictions = 0
        writebacks = 0
        for line_index in range(first, last + 1):
            lines = sets[line_index % n_sets]
            tag = line_index // n_sets
            dirty = lines.pop(tag, None)
            if dirty is not None:
                lines[tag] = dirty or write  # re-insert at MRU position
                hits += 1
                continue
            if len(lines) >= ways:
                evictions += 1
                if lines.pop(next(iter(lines))):
                    writebacks += 1
            lines[tag] = write
        misses = count - hits
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        self._resident = (first, last, write) if count <= n_sets * ways else None
        return hits, misses, writebacks

    def flush(self) -> int:
        """Invalidate everything; returns dirty words that would write back."""
        self._resident = None
        writeback_words = 0
        for lines in self._sets:
            for dirty in lines.values():
                if dirty:
                    writeback_words += self.line_words
            lines.clear()
        self.flushes += 1
        return writeback_words


def mpc755_icache(name: str = "icache") -> Cache:
    """32 KB, 8-way, 32-byte-line instruction cache (MPC755 L1)."""
    return Cache(name, size_bytes=32 * 1024, line_bytes=32, ways=8)


def mpc755_dcache(name: str = "dcache") -> Cache:
    """32 KB, 8-way, 32-byte-line data cache (MPC755 L1)."""
    return Cache(name, size_bytes=32 * 1024, line_bytes=32, ways=8)
