"""Per-configuration cache statistics.

:class:`CacheStats` mirrors the counters a Dinero IV run reports: demand
fetches broken down by access type, hits, misses, compulsory misses,
evictions and — the quantity Table 3 and Figure 6 revolve around — the total
number of tag comparisons the simulator performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.types import AccessType


@dataclass
class CacheStats:
    """Counters accumulated while simulating one cache configuration."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    compulsory_misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    tag_comparisons: int = 0
    by_type: Dict[AccessType, int] = field(
        default_factory=lambda: {t: 0 for t in AccessType}
    )

    # -- derived --------------------------------------------------------------

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when the trace was empty)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Hits per access (0 when the trace was empty)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def non_compulsory_misses(self) -> int:
        """Misses that were not first-touch (capacity/conflict) misses."""
        return self.misses - self.compulsory_misses

    # -- bookkeeping ----------------------------------------------------------

    def record(
        self,
        hit: bool,
        access_type: AccessType,
        compulsory: bool,
        evicted: bool,
        evicted_dirty: bool = False,
        comparisons: int = 0,
    ) -> None:
        """Record one access outcome."""
        self.accesses += 1
        self.by_type[access_type] = self.by_type.get(access_type, 0) + 1
        self.tag_comparisons += comparisons
        if hit:
            self.hits += 1
            return
        self.misses += 1
        if compulsory:
            self.compulsory_misses += 1
        if evicted:
            self.evictions += 1
            if evicted_dirty:
                self.writebacks += 1

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the element-wise sum of two stats objects."""
        merged = CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            compulsory_misses=self.compulsory_misses + other.compulsory_misses,
            evictions=self.evictions + other.evictions,
            writebacks=self.writebacks + other.writebacks,
            tag_comparisons=self.tag_comparisons + other.tag_comparisons,
        )
        for access_type in AccessType:
            merged.by_type[access_type] = (
                self.by_type.get(access_type, 0) + other.by_type.get(access_type, 0)
            )
        return merged

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "compulsory_misses": self.compulsory_misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "tag_comparisons": self.tag_comparisons,
        }
