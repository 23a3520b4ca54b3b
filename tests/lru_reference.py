"""The Janapsatya LRU walk as first written, kept as the oracle for both walks.

:class:`ReferenceLruWalk` replays block addresses one at a time through
``_access_block``, exactly as ``JanapsatyaSimulator`` did before its walks
learned to tally hits per recency position and derive every associativity's
misses and the work counters once per chunk.  It keeps one recency list per
set, so the differential tests can compare the final recency lists as well
as results and counters.

(A plain module rather than a conftest attribute, like ``dew_reference``.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.lru.janapsatya import JanapsatyaCounters


class ReferenceLruWalk:
    """Per-access LRU walk with the simulator's MRU early stop."""

    def __init__(
        self,
        associativities: Sequence[int],
        set_sizes: Sequence[int],
        use_mru_stop: bool = True,
    ) -> None:
        self.associativities = tuple(sorted(set(int(a) for a in associativities)))
        self.max_associativity = self.associativities[-1]
        self.set_sizes = tuple(set_sizes)
        self.use_mru_stop = use_mru_stop
        self.counters = JanapsatyaCounters()
        # Per level: one recency list (most recent first) per set.
        self._sets: List[List[List[int]]] = [
            [[] for _ in range(size)] for size in self.set_sizes
        ]
        # misses[level][assoc] accumulated so far.
        self._misses: List[Dict[int, int]] = [
            {assoc: 0 for assoc in self.associativities} for _ in self.set_sizes
        ]
        self._requests = 0

    @property
    def misses(self) -> Dict[tuple, int]:
        """Misses by ``(set size, associativity)``."""
        return {
            (size, assoc): level[assoc]
            for size, level in zip(self.set_sizes, self._misses)
            for assoc in self.associativities
        }

    def recency_lists(self) -> List[List[List[int]]]:
        """Per level, every set's blocks, most recent first."""
        return self._sets

    def run_blocks(self, blocks: Sequence[int]) -> None:
        for block in blocks:
            self._access_block(block)

    def _access_block(self, block: int) -> None:
        counters = self.counters
        counters.requests += 1
        self._requests += 1
        max_assoc = self.max_associativity
        associativities = self.associativities
        use_mru_stop = self.use_mru_stop
        for level, size in enumerate(self.set_sizes):
            counters.node_evaluations += 1
            recency = self._sets[level][block & (size - 1)]
            try:
                position = recency.index(block)
            except ValueError:
                position = -1
            # ``index`` examines position + 1 entries on success, the whole
            # list on failure.
            counters.tag_comparisons += position + 1 if position >= 0 else len(recency)
            misses_here = self._misses[level]
            if position < 0:
                for assoc in associativities:
                    misses_here[assoc] += 1
                recency.insert(0, block)
                if len(recency) > max_assoc:
                    recency.pop()
                continue
            for assoc in associativities:
                if position >= assoc:
                    misses_here[assoc] += 1
            if position == 0:
                if use_mru_stop:
                    counters.mru_stops += 1
                    return
                continue
            recency.pop(position)
            recency.insert(0, block)
