"""LRU cache of FusedMM execution plans.

One entry per ``(matrix fingerprint, pattern, backend, num_threads,
block_size, autotune, reorder)`` combination — the full key
under which a plan's resolution, partitioning, tuning and locality
(vertex-reordering) decisions are valid.  Repeated calls on the same
adjacency (the every-epoch training-loop case) hit the cache and skip
straight to kernel execution; asking for a different ``reorder=`` strategy
is a different plan, so bitwise-exact (``"none"``) and reordered plans
coexist without invalidating each other.

The cache is bounded twice — by entry count and by *retained bytes* —
and evicts least-recently-used plans.  The byte bound exists for the
locality tier: a reordered plan pins a permuted copy of its adjacency
plus compacted panels (roughly 2× the matrix), so a count bound alone
would let a serving loop over many large graphs grow without limit.
Entries report their weight through an optional ``retained()`` method
(bytes by owner: plans of one matrix may share a permuted copy); plans
without one weigh zero.  The budget charges every entry its full weight;
the per-lineage report (:meth:`PlanCache.bytes_for`) counts a shared
owner once.  Hit/miss/eviction counts are tracked so tests and
dashboards can observe cache effectiveness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Tuple

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time accounting of a :class:`PlanCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    retained_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports and logs."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "retained_bytes": self.retained_bytes,
            "hit_rate": round(self.hit_rate, 4),
        }


#: Default ceiling on the bytes cached plans may retain (permuted
#: matrices + panels of the locality tier).  The most-recent entry is
#: always kept even when it alone exceeds the budget — a cache that
#: refused the plan just built would defeat its purpose.
DEFAULT_BYTE_BUDGET = 2 * 1024 * 1024 * 1024


class PlanCache:
    """Thread-safe LRU mapping of plan keys to execution plans."""

    def __init__(
        self, capacity: int = 64, *, byte_budget: int = DEFAULT_BYTE_BUDGET
    ) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if byte_budget < 1:
            raise ValueError(f"byte_budget must be >= 1, got {byte_budget}")
        self.capacity = capacity
        self.byte_budget = byte_budget
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        # Entry weights by owner, computed at insert and on reweigh()
        # (weighing panel lists on every put/stats would be
        # O(entries × panels)).
        self._weights: Dict[Hashable, Mapping[int, int]] = {}
        self._retained = 0
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @staticmethod
    def _weight(plan) -> Mapping[int, int]:
        weigh = getattr(plan, "retained", None)
        return dict(weigh()) if callable(weigh) else {}

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable):
        """Return the cached plan for ``key`` (marking it most-recently
        used) or ``None`` on a miss."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return plan

    def put(self, key: Hashable, plan) -> None:
        """Insert a plan, evicting least-recently-used entries while the
        cache is over its entry count or its retained-byte budget."""
        weight = self._weight(plan)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = plan
                self._reweigh(key, weight)
                return
            self._entries[key] = plan
            self._weights[key] = weight
            self._retained += sum(weight.values())
            self._shrink()

    def reweigh(self, key: Hashable, plan) -> None:
        """Weigh ``key``'s entry again after ``plan`` grew (a block
        schedule built on its first execution), evicting LRU entries if
        that put the cache over budget; nothing when ``key`` no longer
        maps to ``plan``."""
        weight = self._weight(plan)
        with self._lock:
            if self._entries.get(key) is plan:
                self._reweigh(key, weight)
                self._shrink()

    def _reweigh(self, key: Hashable, weight: Mapping[int, int]) -> None:
        self._retained += sum(weight.values()) - sum(self._weights[key].values())
        self._weights[key] = weight

    def _shrink(self) -> None:
        while len(self._entries) > 1 and (
            len(self._entries) > self.capacity or self._retained > self.byte_budget
        ):
            evicted, _ = self._entries.popitem(last=False)
            self._retained -= sum(self._weights.pop(evicted).values())
            self._evictions += 1

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._weights.clear()
            self._retained = 0

    # ------------------------------------------------------------------ #
    # Fingerprint-targeted operations (dynamic graphs / leak fix)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key_fingerprint(key: Hashable) -> str:
        return str(getattr(key, "fingerprint", "") or "")

    @staticmethod
    def _covers(fingerprint: str, key_fp: str) -> bool:
        """Whether ``key_fp`` belongs to ``fingerprint``'s lineage.

        Matches the fingerprint itself, its derived keys
        (``<fp>|reorder=...``) and — when given a bare lineage hash — its
        versioned descendants (``<fp>@vN`` and their derived keys), so one
        call can retire a whole graph or exactly one superseded version.
        """
        if not key_fp or not fingerprint:
            return False
        return (
            key_fp == fingerprint
            or key_fp.startswith(fingerprint + "|")
            or key_fp.startswith(fingerprint + "@")
        )

    def evict_fingerprint(self, fingerprint: str) -> int:
        """Drop every plan keyed on ``fingerprint`` (or a key derived from
        it); returns the number of entries removed."""
        with self._lock:
            doomed = [
                key
                for key in self._entries
                if self._covers(fingerprint, self._key_fingerprint(key))
            ]
            for key in doomed:
                del self._entries[key]
                self._retained -= sum(self._weights.pop(key).values())
                self._evictions += 1
            return len(doomed)

    def entries_for(self, fingerprint: str) -> Tuple[Tuple[Hashable, object], ...]:
        """Snapshot of ``(key, plan)`` pairs in ``fingerprint``'s lineage."""
        with self._lock:
            return tuple(
                (key, plan)
                for key, plan in self._entries.items()
                if self._covers(fingerprint, self._key_fingerprint(key))
            )

    def bytes_for(self, fingerprint: str) -> Dict[str, int]:
        """``{"plans": n, "plan_bytes": b}`` retained for one lineage, a
        shared owner counted once."""
        with self._lock:
            owners: Dict[int, int] = {}
            keys = [
                key
                for key in self._entries
                if self._covers(fingerprint, self._key_fingerprint(key))
            ]
            for key in keys:
                owners.update(self._weights[key])
            return {"plans": len(keys), "plan_bytes": sum(owners.values())}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[Hashable, ...]:
        """Snapshot of the cached keys, LRU-first."""
        with self._lock:
            return tuple(self._entries.keys())

    def stats(self) -> CacheStats:
        """Current hit/miss/eviction accounting."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                retained_bytes=self._retained,
            )
