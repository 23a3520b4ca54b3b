"""Instrumentation counters for a DEW run.

These counters are the quantities reported in Table 4 ("Effectiveness of
properties used in DEW") and Figure 6 (tag-comparison reduction):

``node_evaluations``
    How many simulation-tree nodes were visited (Property 1 bounds this by
    ``levels x requests``; the other properties shrink it).
``mra_hits``
    Evaluations resolved by the MRA entry (Property 2) — these stop the walk.
``wave_decisions``
    Evaluations where the parent's wave pointer decided hit/miss without a
    tag-list search (Property 3).
``mre_decisions``
    Evaluations where the MRE entry decided a miss without a search
    (Property 4).
``searches``
    Evaluations that fell through to a linear tag-list search.
``tag_comparisons``
    Every tag equality test the paper's algorithm makes: MRA checks,
    wave-pointer probes, MRE checks and the tag-list entries a linear search
    examines.  This is the algorithm's count, not the interpreter's work:
    the simulator scans a set's ways in one C-level call and derives the
    entries a search examined from FIFO fill order (a hit at way ``w``
    examined ``w + 1`` entries, a miss every valid way; see
    :mod:`repro.core.dew`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class DewCounters:
    """Counters accumulated over one DEW simulation pass."""

    requests: int = 0
    node_evaluations: int = 0
    mra_hits: int = 0
    wave_decisions: int = 0
    wave_hits: int = 0
    wave_misses: int = 0
    mre_decisions: int = 0
    searches: int = 0
    search_hits: int = 0
    tag_comparisons: int = 0
    evaluations_per_level: List[int] = field(default_factory=list)

    def ensure_levels(self, num_levels: int) -> None:
        """Size the per-level evaluation histogram."""
        if len(self.evaluations_per_level) < num_levels:
            self.evaluations_per_level.extend(
                [0] * (num_levels - len(self.evaluations_per_level))
            )

    # -- derived --------------------------------------------------------------

    @property
    def unoptimised_node_evaluations(self) -> int:
        """Worst-case evaluations with only Property 1: ``levels x requests``."""
        return self.requests * len(self.evaluations_per_level)

    @property
    def decisions_without_search(self) -> int:
        """Evaluations resolved without touching the tag list."""
        return self.mra_hits + self.wave_decisions + self.mre_decisions

    @property
    def average_evaluations_per_request(self) -> float:
        """Mean number of tree nodes visited per request."""
        return self.node_evaluations / self.requests if self.requests else 0.0

    def evaluation_reduction(self) -> float:
        """Fractional reduction of node evaluations vs the Property-1-only bound."""
        worst = self.unoptimised_node_evaluations
        if worst == 0:
            return 0.0
        return 1.0 - self.node_evaluations / worst

    def merge(self, other: "DewCounters") -> "DewCounters":
        """Element-wise sum of two counter sets (e.g. across traces)."""
        merged = DewCounters(
            requests=self.requests + other.requests,
            node_evaluations=self.node_evaluations + other.node_evaluations,
            mra_hits=self.mra_hits + other.mra_hits,
            wave_decisions=self.wave_decisions + other.wave_decisions,
            wave_hits=self.wave_hits + other.wave_hits,
            wave_misses=self.wave_misses + other.wave_misses,
            mre_decisions=self.mre_decisions + other.mre_decisions,
            searches=self.searches + other.searches,
            search_hits=self.search_hits + other.search_hits,
            tag_comparisons=self.tag_comparisons + other.tag_comparisons,
        )
        length = max(len(self.evaluations_per_level), len(other.evaluations_per_level))
        merged.evaluations_per_level = [
            (self.evaluations_per_level[i] if i < len(self.evaluations_per_level) else 0)
            + (other.evaluations_per_level[i] if i < len(other.evaluations_per_level) else 0)
            for i in range(length)
        ]
        return merged

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting."""
        return {
            "requests": self.requests,
            "node_evaluations": self.node_evaluations,
            "unoptimised_node_evaluations": self.unoptimised_node_evaluations,
            "mra_hits": self.mra_hits,
            "wave_decisions": self.wave_decisions,
            "wave_hits": self.wave_hits,
            "wave_misses": self.wave_misses,
            "mre_decisions": self.mre_decisions,
            "searches": self.searches,
            "search_hits": self.search_hits,
            "tag_comparisons": self.tag_comparisons,
        }
