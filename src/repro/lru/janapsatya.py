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
  builds and loads it.  It walks flat int64 storage: per set, up to ``A``
  tags stored as ``block + 1``, most recent first, and a fill length.  The
  walk reads no tag past a set's fill length, so only the fill lengths
  start zeroed, and a simulator allocates two arrays and no per-set
  objects.  One built with ``recycled=True`` (by the sweep executor) takes
  the two arrays of its shape from the pool of released engine storage
  (:data:`repro.core.tree.STORAGE_POOL`, keyed ``("janapsatya", sets,
  ways)``), zeroes only their fill lengths, and hands them back on
  :meth:`JanapsatyaSimulator.release`, so a sweep's LRU jobs do not
  page-fault a fresh tag array in each;
* the **Python walk** over one recency list per set, the fallback on a host
  without a working C compiler (or with ``CC=false``) and the oracle the
  kernel is tested against.

Block addresses must lie in ``[0, 2**63 - 1)``; the checks of ``Engine.run``
and ``run_blocks`` (:mod:`repro.engine.base`) reject any other before a walk
starts.  Either walk tallies only, per level, the hits at each recency
position, and in total the tags compared by walks that missed; one shared
function (:meth:`JanapsatyaSimulator._account`) derives the rest once per
chunk:

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.core.results import ResultsFrame, policy_code
from repro.core.tree import STORAGE_POOL
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
    recycled:
        Take the kernel walk's storage from the pool of storage finished
        sweep jobs released, and hand it back on :meth:`release` (see the
        module docstring).  Ignored by the Python walk.

    The simulator runs the kernel walk when :func:`repro.kernels.load` loads
    it and the Python walk otherwise; :attr:`walk` says which.  The rows'
    compulsory misses are the distinct-block count handed over
    (:meth:`~repro.engine.base.Engine.set_compulsory`).
    """

    family = "janapsatya"
    recycles_storage = True

    #: 2: rows report the compulsory misses handed over (they read 0 before).
    result_version = 2

    def __init__(
        self,
        block_size: int,
        associativities: Sequence[int],
        set_sizes: Sequence[int],
        use_mru_stop: bool = True,
        recycled: bool = False,
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
        #: ``True`` when the kernel walk's storage comes from, and goes back
        #: to, :data:`~repro.core.tree.STORAGE_POOL`, under ``_pool_key``.
        self.recycled = recycled and self._walk.function is not None
        self._pool_key = (self.family, sum(self.set_sizes), self.max_associativity)
        #: The kernel walk's ``(tags, fill lengths)``; ``None`` before the
        #: first :meth:`reset` and once :meth:`release` gave them away.
        self._storage: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.reset()

    def _allocate(self) -> None:
        """Empty set storage for the walk this simulator runs.

        For the kernel, flat arrays and the pointers to them, which the
        simulator keeps referenced so a pointer never outlives its array: its
        own storage emptied in place, or recycled storage, or new storage.
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
        if self._storage is None and self.recycled:
            self._storage = STORAGE_POOL.take(self._pool_key)
        if self._storage is None:
            sets = int(sizes.sum())
            self._storage = (np.empty(sets * ways, dtype=np.int64), np.zeros(sets, dtype=np.int64))
        else:
            # The walks read a set's tags only below its fill length, so
            # only the fill lengths need zeroing.
            self._storage[1].fill(0)
        self._tally = np.zeros(sizes.size * ways + 1, dtype=np.int64)
        arrays = (masks, self._offsets, *self._storage)
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
        self._check_storage()
        tags, fill = self._storage
        tags = tags.reshape(-1, self.max_associativity) - 1
        return [
            [tags[set_index, :fill[set_index]].tolist()
             for set_index in range(offset, offset + size)]
            for offset, size in zip(self._offsets.tolist(), self.set_sizes)
        ]

    # -- simulation ------------------------------------------------------------

    def access(self, address: int) -> None:
        """Simulate one byte-address request against every configuration."""
        if address < 0:
            raise SimulationError(f"negative address: {address}")
        self.run_blocks([address >> self._offset_bits])

    def run_checked(
        self, blocks: np.ndarray, access_types: Optional[np.ndarray] = None
    ) -> None:
        """Simulate a checked chunk of block addresses (see
        :meth:`~repro.engine.base.Engine.run_checked`).

        ``access_types`` is ignored: LRU hits and misses do not depend on
        them.  Raises :class:`~repro.errors.SimulationError`, changing
        nothing, once :meth:`release` gave the storage away.
        """
        if self._walk.function is None:
            if blocks.size:
                self._python_walk(blocks.tolist())
            return
        self._check_storage()
        if not blocks.size:
            return
        # The kernel releases the interpreter lock; ``blocks`` and the
        # simulator's own arrays stay referenced for the whole call.
        self._walk.function(blocks.ctypes.data, blocks.size, *self._kernel_args)
        ways = self.max_associativity
        self._account(
            blocks.size, self._tally[:-1].reshape(-1, ways), int(self._tally[-1])
        )

    def _check_storage(self) -> None:
        if self._storage is None:
            raise SimulationError("this simulator's storage was released")

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
            simulator_name="janapsatya-lru",
            trace_name=trace_name,
            counters=self.counters,
            walk=self.walk,
        )

    def release(self) -> None:
        """Hand recycled storage back to the pool as it is; the simulator then
        raises instead of simulating, until :meth:`reset`.  A no-op for a
        simulator that is not recycled."""
        if self.recycled and self._storage is not None:
            STORAGE_POOL.put(self._pool_key, self._storage)
            self._storage = None
            self._kernel_arrays = self._kernel_args = ()

    def reset(self) -> None:
        """Clear all simulation state and counters, emptying the storage in
        place (or taking storage again after :meth:`release`)."""
        self._misses = np.zeros((len(self.set_sizes), len(self.associativities)), dtype=np.int64)
        self.compulsory_misses = 0
        self.counters = JanapsatyaCounters()
        self._allocate()
