"""Byte-budgeted LRU cache of composed plans.

The unit of accounting is the plan's *device footprint*
(``fmt.footprint_bytes``): a cached plan pins its format arrays, so the
budget models keeping hot formats resident.  Eviction is strict LRU; a
plan larger than the whole budget is rejected outright (counted in
``rejected``) rather than thrashing the cache.

The cache also indexes its resident keys by sparsity pattern
(``key.fp.pattern``), so a miss can find a plan composed for the same
pattern under other values, op or ``J`` (:meth:`PlanCache.newest_of_pattern`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.core.pipeline import ComposePlan
from repro.serve.fingerprint import PlanKey

#: Default budget: 256 MiB of resident format arrays.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class CacheEntry:
    """One resident plan with its accounting metadata."""

    key: PlanKey
    plan: ComposePlan
    size_bytes: int
    #: Wall-clock cost of the compose that produced the plan; every later
    #: hit credits this amount to "composition time saved".
    compose_overhead_s: float
    hits: int = 0


class PlanCache:
    """LRU plan cache with a byte budget and hit/miss/eviction counters."""

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[PlanKey, CacheEntry]" = OrderedDict()
        #: pattern digest -> its resident keys, oldest put first.
        self._by_pattern: dict[str, dict[PlanKey, None]] = {}
        self.total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    def keys(self) -> list[PlanKey]:
        """Keys in LRU order (least recently used first)."""
        return list(self._entries)

    def entries(self) -> list[CacheEntry]:
        """Resident entries in LRU order (migration/inspection view)."""
        return list(self._entries.values())

    def peek(self, key: PlanKey) -> CacheEntry | None:
        """Look up without touching traffic counters or LRU recency.

        The cluster's replication/migration machinery uses this: moving a
        plan between shards is fleet plumbing, not a request, and must not
        perturb the hit-rate accounting or the eviction order.
        """
        return self._entries.get(key)

    def pop(self, key: PlanKey) -> CacheEntry | None:
        """Remove and return an entry (None if absent) without counting an
        eviction — the entry is being migrated, not discarded."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._drop(entry)
        return entry

    def newest_of_pattern(self, pattern: str) -> CacheEntry | None:
        """The most recently put resident entry whose key has sparsity
        pattern digest ``pattern`` (any values, op and ``J``), or None.
        Like :meth:`peek`, it touches no counters and no LRU recency."""
        keys = self._by_pattern.get(pattern)
        return self._entries[next(reversed(keys))] if keys else None

    def _drop(self, entry: CacheEntry) -> None:
        """Account for ``entry`` having left ``_entries``."""
        self.total_bytes -= entry.size_bytes
        pattern = entry.key.fp.pattern
        keys = self._by_pattern[pattern]
        del keys[entry.key]
        if not keys:
            del self._by_pattern[pattern]

    # ------------------------------------------------------------------
    def get(self, key: PlanKey) -> CacheEntry | None:
        """Look up a plan; a hit refreshes its LRU position."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        entry.hits += 1
        return entry

    def put(self, key: PlanKey, plan: ComposePlan, compose_overhead_s: float = 0.0) -> bool:
        """Insert (or refresh) a plan; returns False if it cannot fit."""
        size = int(plan.fmt.footprint_bytes)
        if size > self.max_bytes:
            self.rejected += 1
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._drop(old)
        # Evict *before* inserting: the fresh entry is never an eviction
        # candidate (it fits alone, per the budget check above), so the
        # loop needs no invariant assertion and stays correct under -O.
        while self._entries and self.total_bytes + size > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._drop(evicted)
            self.evictions += 1
        self._entries[key] = CacheEntry(
            key=key, plan=plan, size_bytes=size, compose_overhead_s=compose_overhead_s
        )
        self._by_pattern.setdefault(key.fp.pattern, {})[key] = None
        self.total_bytes += size
        return True

    def clear(self) -> None:
        self._entries.clear()
        self._by_pattern.clear()
        self.total_bytes = 0

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        """Counters snapshot (JSON-friendly)."""
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected": self.rejected,
            "hit_rate": self.hit_rate,
        }
