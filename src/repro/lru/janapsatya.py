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

There are two walks, with identical results and counters:

* the **kernel walk**, ``repro/kernels/lru.c``, which
  :class:`JanapsatyaSimulator` runs whenever :func:`repro.kernels.load`
  builds and loads it.  It walks zero-initialised flat int64 storage: per
  set, up to ``A`` tags stored as ``block + 1``, most recent first, and a
  fill length, so a fresh simulator allocates a few arrays and no
  per-set objects;
* the **Python walk** over one recency list per set, the fallback on a host
  without a working C compiler (or with ``CC=false``) and the oracle the
  kernel is tested against.

Block addresses must lie in ``[0, 2**63 - 1)``; both walks reject any other
with :class:`~repro.errors.SimulationError`.  Either walk tallies only, per
level, the hits at each recency position, and in total the tags compared by
walks that missed; one shared function (:meth:`JanapsatyaSimulator._account`)
derives the rest once per chunk:

* a block found at position ``p`` hits in every associativity above ``p``,
  so each associativity's misses at a level are the walks reaching it less
  the hits at the positions it holds;
* with the MRU stop on, a walk stops at the first level that finds the
  block at position 0, which gives the walks reaching each level (every
  walk reaches every level with the stop off), the node evaluations and the
  MRU stops;
* a hit at position ``p`` compared ``p + 1`` tags.

A run-length collapsed chunk would not pay under the kernel walk, which
decides an immediately repeated block with one comparison at the root, so
the engine takes raw block chunks only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro import kernels
from repro.core.results import ResultsFrame, policy_code
from repro.engine.base import Engine
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

    The simulator runs the kernel walk when :func:`repro.kernels.load` loads
    it and the Python walk otherwise; :attr:`walk` says which.  The rows'
    compulsory misses are the distinct-block count handed over
    (:meth:`~repro.engine.base.Engine.set_compulsory`).
    """

    family = "janapsatya"

    #: 2: rows report the compulsory misses handed over (they read 0 before).
    result_version = 2

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
        self._walk = kernels.load("lru")
        self.reset()

    def _allocate(self) -> None:
        """Empty set storage for the walk this simulator runs.

        For the kernel, flat arrays and the pointers to them, which the
        simulator keeps referenced so a pointer never outlives its array.
        For the Python walk, one recency list per set and, per level, the
        walk's hit tallies for the chunk in flight.
        """
        ways = self.max_associativity
        if self._walk.function is None:
            self._levels = [
                (size - 1, [[] for _ in range(size)], [0] * ways) for size in self.set_sizes
            ]
            return
        sizes = np.asarray(self.set_sizes, dtype=np.int64)
        self._offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        masks = sizes - 1
        # The walks read a set's tags only below its fill length, so only
        # the fill lengths need zeroing.
        self._tags = np.empty(int(sizes.sum()) * ways, dtype=np.int64)
        self._fill = np.zeros(int(sizes.sum()), dtype=np.int64)
        self._tally = np.zeros(sizes.size * ways + 1, dtype=np.int64)
        arrays = (masks, self._offsets, self._tags, self._fill)
        self._kernel_arrays = (*arrays, self._tally)
        self._kernel_args = (
            sizes.size,
            ways,
            *(array.ctypes.data for array in arrays),
            int(self.use_mru_stop),
            self._tally.ctypes.data,
        )

    @property
    def offset_bits(self) -> int:
        """Block-offset width used to pre-shift byte addresses."""
        return self._offset_bits

    @property
    def walk(self) -> str:
        """The walk this simulator runs: ``kernel``, or ``python (<reason>)``."""
        return self._walk.name

    @property
    def accesses(self) -> int:
        """Accesses simulated since construction or the last :meth:`reset`."""
        return self.counters.requests

    def recency_lists(self) -> List[List[List[int]]]:
        """Per level, every set's blocks, most recent first (a copy)."""
        if self._walk.function is None:
            return [[list(recency) for recency in sets] for _, sets, _ in self._levels]
        ways = self.max_associativity
        tags = self._tags.reshape(-1, ways) - 1
        return [
            [tags[set_index, :self._fill[set_index]].tolist()
             for set_index in range(offset, offset + size)]
            for offset, size in zip(self._offsets.tolist(), self.set_sizes)
        ]

    # -- simulation ------------------------------------------------------------

    def access(self, address: int) -> None:
        """Simulate one byte-address request against every configuration."""
        if address < 0:
            raise SimulationError(f"negative address: {address}")
        self.run_blocks([address >> self._offset_bits])

    def run_blocks(
        self,
        blocks: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate a chunk of pre-shifted block addresses (engine pipeline).

        ``access_types`` is ignored: LRU hits and misses do not depend on
        them.  Raises :class:`~repro.errors.SimulationError`, changing
        nothing, for a block outside ``[0, 2**63 - 1)``.
        """
        chunk = kernels.block_chunk(blocks)
        if not chunk.size:
            return
        if self._walk.function is None:
            self._python_walk(chunk.tolist())
            return
        # The kernel releases the interpreter lock; ``chunk`` and the
        # simulator's own arrays stay referenced for the whole call.
        self._walk.function(chunk.ctypes.data, chunk.size, *self._kernel_args)
        ways = self.max_associativity
        self._account(
            chunk.size, self._tally[:-1].reshape(-1, ways), int(self._tally[-1])
        )

    def _python_walk(self, blocks: Sequence[int]) -> None:
        """The walk in Python, then the shared derivation."""
        max_assoc = self.max_associativity
        use_mru_stop = self.use_mru_stop
        levels = self._levels
        compared = 0
        for block in blocks:
            for mask, sets, hits in levels:
                recency = sets[block & mask]
                try:
                    position = recency.index(block)
                except ValueError:
                    # ``index`` examined the whole list.
                    compared += len(recency)
                    recency.insert(0, block)
                    if len(recency) > max_assoc:
                        recency.pop()
                    continue
                hits[position] += 1
                if position == 0:
                    if use_mru_stop:
                        break
                    continue
                recency.pop(position)
                recency.insert(0, block)
        tallies = np.array([hits for _, _, hits in levels], dtype=np.int64)
        for _, _, hits in levels:
            hits[:] = [0] * max_assoc
        self._account(len(blocks), tallies, compared)

    def _account(self, walks: int, hits: np.ndarray, compared: int) -> None:
        """Derive every counter of one chunk from either walk's tallies: per
        level (row), the hits at each recency position (column); in total,
        the tags compared by walks that missed."""
        counters = self.counters
        if self.use_mru_stop:
            # A walk stops at the first level that finds its block at MRU.
            stops = hits[:, 0]
            reached = walks - np.concatenate(([0], np.cumsum(stops)[:-1]))
            counters.mru_stops += int(stops.sum())
        else:
            reached = np.full(len(self.set_sizes), walks, dtype=np.int64)
        # An associativity hits at the positions below it.
        held = np.cumsum(hits, axis=1)[:, np.asarray(self.associativities) - 1]
        self._misses += reached[:, None] - held
        counters.requests += walks
        counters.node_evaluations += int(reached.sum())
        positions = np.arange(1, self.max_associativity + 1, dtype=np.int64)
        counters.tag_comparisons += int((hits @ positions).sum()) + compared

    # -- results ---------------------------------------------------------------

    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        """Per-configuration results accumulated so far, with :attr:`counters`
        and :attr:`walk`.

        One row per (set size, associativity), built as columns in canonical
        order: set sizes ascending, each with every associativity ascending.
        """
        levels = len(self.set_sizes)
        ways = len(self.associativities)
        rows = levels * ways
        return ResultsFrame._from_canonical(
            np.repeat(self.set_sizes, ways),
            np.tile(self.associativities, levels),
            np.full(rows, self.block_size),
            np.full(rows, policy_code(ReplacementPolicy.LRU)),
            np.full(rows, self.counters.requests),
            self._misses.flatten(),
            np.full(rows, self.compulsory_misses),
            elapsed_seconds=self._elapsed,
            simulator_name="janapsatya-lru",
            trace_name=trace_name,
            counters=self.counters,
            walk=self.walk,
        )

    def reset(self) -> None:
        """Clear all simulation state and counters."""
        self._misses = np.zeros((len(self.set_sizes), len(self.associativities)), dtype=np.int64)
        self._elapsed = 0.0
        self.compulsory_misses = 0
        self.counters = JanapsatyaCounters()
        self._allocate()
