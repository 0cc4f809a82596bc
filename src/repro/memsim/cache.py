"""Exact set-associative cache and cache-hierarchy models.

These models are used where per-access fidelity matters: the Fig. 4-(b)
experiment (TLB-access vs LLC-access dispersion, which the paper produced
with the KCacheSim simulator) and the unit/property tests of the LLC
filter.  End-to-end simulations use the faster page-granularity
:class:`~repro.memsim.cachefilter.PageCacheFilter` instead.

The replacement policy is true LRU, implemented with a per-line timestamp
so that lookups are O(associativity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memsim.address import CACHE_LINE_SIZE


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


class Cache:
    """One level of a set-associative, write-allocate, LRU cache.

    Addresses are byte addresses; the cache indexes them by line.
    ``access`` returns ``True`` on hit.  Misses insert the line and evict
    the LRU way when the set is full.
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_size: int = CACHE_LINE_SIZE,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = size_bytes // line_size
        if num_lines % associativity != 0:
            raise ValueError(
                f"{name}: {num_lines} lines not divisible by associativity {associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.num_sets = num_lines // associativity
        # tags[set, way]; -1 means invalid.  lru[set, way] is a logical
        # timestamp; larger means more recently used.
        self._tags = np.full((self.num_sets, associativity), -1, dtype=np.int64)
        self._lru = np.zeros((self.num_sets, associativity), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_size
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int) -> bool:
        """Access byte address ``addr``; return True on hit."""
        set_idx, tag = self._locate(addr)
        self._clock += 1
        self.stats.accesses += 1
        ways = self._tags[set_idx]
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            self._lru[set_idx, hit_ways[0]] = self._clock
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            way = int(empty[0])
        else:
            way = int(np.argmin(self._lru[set_idx]))
            self.stats.evictions += 1
        self._tags[set_idx, way] = tag
        self._lru[set_idx, way] = self._clock
        return False

    def contains(self, addr: int) -> bool:
        """Probe without updating LRU or statistics."""
        set_idx, tag = self._locate(addr)
        return bool(np.any(self._tags[set_idx] == tag))

    def insert(self, addr: int) -> None:
        """Fill a line without touching hit/miss statistics.

        Used by the hierarchy to install lines into faster levels when a
        slower level hits, so counters reflect demand accesses only.
        """
        set_idx, tag = self._locate(addr)
        self._clock += 1
        ways = self._tags[set_idx]
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            self._lru[set_idx, hit_ways[0]] = self._clock
            return
        empty = np.nonzero(ways == -1)[0]
        way = int(empty[0]) if empty.size else int(np.argmin(self._lru[set_idx]))
        self._tags[set_idx, way] = tag
        self._lru[set_idx, way] = self._clock

    def flush(self) -> None:
        """Invalidate every line."""
        self._tags.fill(-1)
        self._lru.fill(0)
        self._clock = 0


class CacheHierarchy:
    """An inclusive multi-level cache hierarchy (L1 -> L2 -> LLC).

    ``access`` walks the levels in order and returns the index of the
    level that hit, or ``None`` for a memory access (LLC miss).  The
    default geometry mirrors the paper's Fig. 4-(b) methodology: 32 KB
    L1D, 2 MB L2 per core, and a shared LLC.
    """

    def __init__(self, levels: list[Cache] | None = None) -> None:
        if levels is None:
            levels = [
                Cache(32 * 1024, 8, name="l1d"),
                Cache(2 * 1024 * 1024, 16, name="l2"),
                Cache(60 * 1024 * 1024, 12, name="llc"),
            ]
        if not levels:
            raise ValueError("hierarchy needs at least one level")
        self.levels = levels

    def access(self, addr: int) -> int | None:
        """Access ``addr``; return hit level index or None for memory."""
        for idx, level in enumerate(self.levels):
            if level.access(addr):
                # Fill the line into every faster level (inclusive model).
                for upper in self.levels[:idx]:
                    upper.insert(addr)
                return idx
        # A miss at every level already installed the line at each level
        # (Cache.access allocates on miss), so nothing more to fill.
        return None

    def is_llc_miss(self, addr: int) -> bool:
        """Access ``addr`` and report whether it reached memory."""
        return self.access(addr) is None

    def flush(self) -> None:
        for level in self.levels:
            level.flush()

    @property
    def llc(self) -> Cache:
        return self.levels[-1]
