"""Single-pass multi-configuration LRU simulation (Janapsatya-style).

Janapsatya et al. (ASP-DAC 2006) showed that, because LRU caches obey the
inclusion property, a binomial tree of cache sets can produce exact hit/miss
counts for every set size in one pass over the trace — and because each node
keeps its tags in recency order, the position at which a tag is found also
yields the hit/miss outcome for *every associativity at once* (the Mattson
stack property applied within a set).

Two aspects mirror DEW and make the comparison meaningful:

* the same binomial-tree walk over set sizes (Property 1);
* an early-stop rule analogous to DEW's MRA: if the tag is found in the MRU
  position of a node, it is in the MRU position of every deeper node, and
  since "move to MRU" is then a no-op the walk can stop without
  desynchronising deeper levels.

This simulator is exact for the LRU policy only.  It is the registered
``janapsatya`` engine (see :mod:`repro.engine.base`), the test suite's
independent oracle for LRU runs, and the LRU side of the paper's limitation
statement (DEW simulating LRU-style workloads vs a dedicated LRU simulator).
It accepts run-length-collapsed chunks: an immediately repeated block hits at
the MRU position of every level's set (a universal hit, no recency movement),
so only each run's head needs the walk — see
:meth:`JanapsatyaSimulator.run_block_runs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.results import ResultsFrame, policy_code
from repro.engine.base import Engine, register_engine
from repro.errors import ConfigurationError, SimulationError
from repro.types import ReplacementPolicy, is_power_of_two, log2_exact


@dataclass
class JanapsatyaCounters:
    """Work counters for the LRU single-pass simulator."""

    requests: int = 0
    node_evaluations: int = 0
    mru_stops: int = 0
    tag_comparisons: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dictionary view for reporting."""
        return {
            "requests": self.requests,
            "node_evaluations": self.node_evaluations,
            "mru_stops": self.mru_stops,
            "tag_comparisons": self.tag_comparisons,
        }


@register_engine("janapsatya")
class JanapsatyaSimulator(Engine):
    """Exact single-pass LRU simulation of many (set size, associativity) pairs.

    Parameters
    ----------
    block_size:
        Block size in bytes shared by all simulated configurations.
    associativities:
        The associativities to report (all are produced from the same pass).
        The per-set recency list is bounded by ``max(associativities)``.
    set_sizes:
        Strictly doubling powers of two, e.g. ``(1, 2, 4, ..., 1024)``.
    use_mru_stop:
        Apply the early-stop rule when the tag is found in the MRU position.
    """

    supports_block_runs = True

    def __init__(
        self,
        block_size: int,
        associativities: Sequence[int],
        set_sizes: Sequence[int],
        use_mru_stop: bool = True,
    ) -> None:
        super().__init__()
        if not is_power_of_two(block_size):
            raise ConfigurationError(f"block size must be a power of two, got {block_size}")
        if not associativities:
            raise ConfigurationError("at least one associativity is required")
        if not set_sizes:
            raise ConfigurationError("at least one set size is required")
        for size in set_sizes:
            if not is_power_of_two(size):
                raise ConfigurationError(f"set size {size} is not a power of two")
        for previous, current in zip(set_sizes, list(set_sizes)[1:]):
            if current != 2 * previous:
                raise ConfigurationError("set sizes must double from level to level")
        self.block_size = block_size
        self._offset_bits = log2_exact(block_size)
        self.associativities = tuple(sorted(set(int(a) for a in associativities)))
        if self.associativities[0] < 1:
            raise ConfigurationError("associativities must be positive")
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
    def offset_bits(self) -> int:
        """Block-offset width used to pre-shift byte addresses."""
        return self._offset_bits

    # -- simulation ------------------------------------------------------------

    def access(self, address: int) -> None:
        """Simulate one byte-address request against every configuration."""
        if address < 0:
            raise SimulationError(f"negative address: {address}")
        self._access_block(address >> self._offset_bits)

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

    def run_blocks(
        self,
        blocks: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate a chunk of pre-shifted block addresses (engine pipeline).

        ``access_types`` is ignored: LRU hits and misses do not depend on them.
        """
        if isinstance(blocks, np.ndarray):
            blocks = blocks.tolist()
        access_block = self._access_block
        for block in blocks:
            access_block(block)

    def run_block_runs(
        self,
        values: Union[Sequence[int], np.ndarray],
        counts: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate a run-length-collapsed chunk: ``counts[i]`` consecutive
        accesses to block ``values[i]`` (see
        :func:`repro.trace.trace.collapse_block_runs`).

        Exactness mirrors DEW's bulk accounting: after any access to a block,
        that block sits in the MRU position of *every* level's set, so an
        immediately-repeated access hits at position 0 everywhere — a hit in
        every (set size, associativity) configuration — and "move to MRU" is
        a no-op.  Only each run's head needs the full walk; the remaining
        ``count - 1`` duplicates are accounted in bulk:

        * with the MRU early-stop enabled, each duplicate costs one node
          evaluation, one tag comparison and one MRU stop (the walk ends at
          the root);
        * with the early-stop disabled, each duplicate walks all levels and
          finds the tag first at every one: one evaluation and one
          comparison per level, no recency movement, no MRU stop (the
          raw walk's ``position == 0`` branch just continues).

        Both cases leave miss counts, request counts and every work counter
        identical to feeding the uncollapsed stream through
        :meth:`run_blocks`; the hypothesis oracle pins this byte-for-byte.
        """
        counts_arr = np.asarray(counts, dtype=np.int64)
        if counts_arr.size != len(values):
            raise SimulationError(
                f"run-length chunk mismatch: {len(values)} values vs "
                f"{counts_arr.size} counts"
            )
        if counts_arr.size == 0:
            return
        if counts_arr.min() < 1:
            raise SimulationError("run-length counts must be positive")
        duplicates = int(counts_arr.sum()) - int(counts_arr.size)
        self.run_blocks(values)
        if duplicates == 0:
            return
        counters = self.counters
        counters.requests += duplicates
        self._requests += duplicates
        if self.use_mru_stop:
            counters.node_evaluations += duplicates
            counters.tag_comparisons += duplicates
            counters.mru_stops += duplicates
        else:
            num_levels = len(self.set_sizes)
            counters.node_evaluations += duplicates * num_levels
            counters.tag_comparisons += duplicates * num_levels

    # -- results ---------------------------------------------------------------

    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        """Per-configuration results accumulated so far, with :attr:`counters`.

        One row per (set size, associativity), built as columns.
        """
        levels = len(self.set_sizes)
        ways = len(self.associativities)
        rows = levels * ways
        return ResultsFrame(
            np.repeat(self.set_sizes, ways),
            np.tile(self.associativities, levels),
            np.full(rows, self.block_size),
            np.full(rows, policy_code(ReplacementPolicy.LRU)),
            np.full(rows, self._requests),
            [misses[assoc] for misses in self._misses for assoc in self.associativities],
            np.zeros(rows),
            elapsed_seconds=self._elapsed,
            simulator_name="janapsatya-lru",
            trace_name=trace_name,
            counters=self.counters,
        )

    def reset(self) -> None:
        """Clear all simulation state and counters."""
        self._sets = [[[] for _ in range(size)] for size in self.set_sizes]
        self._misses = [
            {assoc: 0 for assoc in self.associativities} for _ in self.set_sizes
        ]
        self._requests = 0
        self._elapsed = 0.0
        self.counters = JanapsatyaCounters()
