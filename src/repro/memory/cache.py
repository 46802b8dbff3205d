"""The VAX-11/780 data cache.

8 Kbytes, two-way set associative, 8-byte blocks, write-through with no
write allocation: "during a data write, the cache is accessed to update
its contents with the data being written.  Note, however, that if the
write access misses, the cache is not updated" (Section 2.1).

Both the EBOX (D-stream) and the Instruction Buffer (I-stream) reference
this single cache; the stats distinguish the streams because the paper's
Section 4.2 reports them separately (0.18 I-stream + 0.10 D-stream read
misses per instruction).

The tag store is two dense flat tables (``_tags``/``_lru``, one slot per
line, a set's ways adjacent) instead of per-line objects: every simulated
reference lands here, and flat indexing is what lets the memory
subsystem's fused fast paths charge a reference without walking an
object graph.  Plain lists beat the
``array`` module for this access pattern (array reads re-box every tag
into a fresh int; lists hand back the stored object).
"""

from __future__ import annotations

from dataclasses import dataclass

BLOCK_SIZE = 8
DEFAULT_CACHE_BYTES = 8 * 1024
DEFAULT_WAYS = 2


@dataclass
class CacheStats:
    """Read/write hit and miss counters, split by stream."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    i_read_misses: int = 0
    d_read_misses: int = 0
    i_read_hits: int = 0
    d_read_hits: int = 0

    @property
    def read_references(self) -> int:
        return self.read_hits + self.read_misses

    @property
    def read_miss_rate(self) -> float:
        total = self.read_references
        return self.read_misses / total if total else 0.0


class Cache:
    """Physically-indexed, physically-tagged set-associative cache.

    The cache holds tags only — data always comes from
    :class:`~repro.memory.physical.PhysicalMemory`, which is correct for a
    write-through cache whose backing store is always up to date.  What
    the simulator needs from the cache is *timing truth*: whether each
    reference hit.
    """

    def __init__(
        self,
        size_bytes: int = DEFAULT_CACHE_BYTES,
        ways: int = DEFAULT_WAYS,
        block_size: int = BLOCK_SIZE,
    ):
        if size_bytes % (ways * block_size):
            raise ValueError("cache size must be a multiple of ways * block_size")
        self.block_size = block_size
        self.ways = ways
        self.sets = size_bytes // (ways * block_size)
        lines = self.sets * ways
        #: flat tag table, ``set * ways + way``; -1 = invalid.
        self._tags = [-1] * lines
        #: last-touch clock per line (same indexing).
        self._lru = [0] * lines
        self._clock = 0
        self.stats = CacheStats()

    def _base_and_tag(self, pa: int):
        block = pa // self.block_size
        return (block % self.sets) * self.ways, block // self.sets

    def read(self, pa: int, stream: str = "d") -> bool:
        """Look up one block read; returns True on hit, filling on miss.

        Inlined set/tag arithmetic over the flat tables: this and
        :meth:`~repro.memory.tb.TranslationBuffer.translate` sit on every
        simulated reference, so per-call overhead is throughput.
        """
        clock = self._clock + 1
        self._clock = clock
        block = pa // self.block_size
        ways = self.ways
        base = (block % self.sets) * ways
        tag = block // self.sets
        tags = self._tags
        stats = self.stats
        for i in range(base, base + ways):
            if tags[i] == tag:
                self._lru[i] = clock
                stats.read_hits += 1
                if stream == "i":
                    stats.i_read_hits += 1
                else:
                    stats.d_read_hits += 1
                return True
        stats.read_misses += 1
        if stream == "i":
            stats.i_read_misses += 1
        else:
            stats.d_read_misses += 1
        # First least-recently-touched way wins, matching min() over the
        # former per-line objects (ties resolve to the lowest way).
        lru = self._lru
        victim = base
        least = lru[base]
        for i in range(base + 1, base + ways):
            if lru[i] < least:
                least = lru[i]
                victim = i
        tags[victim] = tag
        lru[victim] = clock
        return False

    def write(self, pa: int) -> bool:
        """Look up one block write; updates the block only on hit
        (no write allocation).  Returns True on hit."""
        clock = self._clock + 1
        self._clock = clock
        block = pa // self.block_size
        ways = self.ways
        base = (block % self.sets) * ways
        tag = block // self.sets
        tags = self._tags
        for i in range(base, base + ways):
            if tags[i] == tag:
                self._lru[i] = clock
                self.stats.write_hits += 1
                return True
        self.stats.write_misses += 1
        return False

    def probe(self, pa: int) -> bool:
        """Check residency without statistics or LRU side effects."""
        base, tag = self._base_and_tag(pa)
        tags = self._tags
        for i in range(base, base + self.ways):
            if tags[i] == tag:
                return True
        return False

    def invalidate_all(self) -> None:
        """Full cache flush (boot time)."""
        lines = self.sets * self.ways
        self._tags[:] = [-1] * lines
        self._lru[:] = [0] * lines

    def blocks_spanned(self, pa: int, size: int) -> int:
        """How many cache blocks a [pa, pa+size) reference touches."""
        first = pa // self.block_size
        last = (pa + size - 1) // self.block_size
        return last - first + 1
