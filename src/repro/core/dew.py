"""The DEW simulator: one pass, many FIFO cache configurations.

:class:`DewSimulator` is the registered ``dew`` engine (see
:mod:`repro.engine.base`).  It walks the :class:`~repro.core.tree.DewTree`
top-down for every trace request, implementing the paper's Algorithms 1 and
2 and the four properties of Section 3.2:

* Property 1 — the binomial tree itself bounds the walk to one node per
  simulated set size.
* Property 2 — if the requested tag equals the node's MRA tag the request is
  a hit in that configuration and all larger set sizes, so the walk stops.
* Property 3 — the wave pointer carried down from the parent's matching
  entry decides hit/miss in the current node with one comparison.
* Property 4 — if the requested tag equals the node's MRE (most recently
  evicted) tag the request is a miss; no search is needed and, on
  re-insertion, the evicted entry's old wave pointer is recycled.

Because FIFO never reorders on hits, stopping the walk at a known-hit level
leaves every deeper node's contents exactly correct — this is the property
that makes a single-pass multi-configuration FIFO simulator possible at all,
and it is verified exhaustively against the reference simulator in the test
suite.

The simulator also reports the direct-mapped (associativity 1) results for
every set size "for free": the MRA tag of a node is precisely the block a
direct-mapped set would currently hold, so the Property 2 comparison doubles
as the direct-mapped lookup.

There are two walks, with identical results and counters:

* the **kernel walk**, a C port of the Python walk
  (``repro/kernels/dew.c``), which :class:`DewSimulator` runs whenever
  :func:`repro.kernels.load` builds and loads it.  It also takes the
  first-touch marks ``Engine.run`` hands over
  (:attr:`~repro.engine.base.Engine.wants_first_touches`).  A first touch
  is a miss at every level, whose outcome no property decides: a block
  never seen matches no MRA, wave or MRE tag, in any ablation mode.  So
  the kernel inserts a marked block at every level's FIFO pointer, with
  the bookkeeping a miss does and the tallies the Python walk makes for
  it, and decides nothing.  Its searches stop at a set's valid ways.
  Chunks fed by hand (:meth:`~repro.engine.base.Engine.run_blocks`,
  :meth:`DewSimulator.access`) carry no marks and take the full walk;
* the **Python walk** (``DewSimulator._python_walk``), the paper's
  algorithm as it stands: the fallback on a host without a working C
  compiler (or with ``CC=false``) and the oracle the kernel is tested
  against.  It takes no marks.

The kernel walks the tree's record layout (see :mod:`repro.core.tree`):
one zero-initialised record per node, in which tags hold ``block + 1`` and
wave pointers ``way + 1``, so 0 is the invalid/empty sentinel.  A record
stamped with another epoch than the tree's reads as empty, and the walk
zeroes it when it first evaluates the node, so neither a fresh tree nor a
reused one needs a pass over its storage: :meth:`DewSimulator.reset` moves
the tree to a new epoch.  Block addresses must lie in ``[0, 2**63 - 1)``;
the checks of ``Engine.run`` and ``run_blocks`` (:mod:`repro.engine.base`)
reject any other before a walk starts.
A simulator built with ``recycled=True`` (by the sweep executor, and for
the harness's timed Table 3 cells) takes its record storage from the tree
module's pool and hands it back, as it is, on :meth:`DewSimulator.release`.

The rows' compulsory misses are the trace's distinct blocks, which
``Engine.run`` counts once per (trace, block size) and hands over through
:meth:`~repro.engine.base.Engine.set_compulsory`: a first touch misses in
every configuration, and no other miss is compulsory.

The work counters (:class:`~repro.core.counters.DewCounters`) count what the
paper's algorithm does, not what the interpreter does.  A tag-list search
scans the set's ways in one call (one loop in C).  Either walk tallies only
the MRA matches and misses per level, the wave decisions and wave hits, the
MRE decisions and the entries searches compared; one shared function
(:meth:`DewSimulator._account`) derives the rest once per chunk:

* FIFO fills a set's ways in order ``0 .. A-1`` and never invalidates one,
  so the valid ways are always a prefix.  A search that finds the block at
  way ``w`` made ``w + 1`` comparisons; one that misses compared every valid
  way: ``A`` once the set is full, otherwise the set's fill pointer.
* A walk reaches level ``k`` unless an MRA match stopped it at a shallower
  level (every walk reaches every level with Property 2 off), which gives
  the evaluations per level; those without an MRA match are the
  direct-mapped misses.
* Each evaluation without an MRA match is decided by the wave pointer, else
  the MRE tag, else a search, and is a hit or a miss, which gives the
  searches and search hits.
* Each evaluation costs one MRA comparison, each wave decision one probe,
  and, with Property 4 on, each evaluation the MRA and wave pointer left
  undecided one MRE comparison.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import kernels
from repro.core.counters import DewCounters
from repro.core.results import ResultsFrame, policy_code
from repro.core.tree import DewTree
from repro.engine.base import Engine
from repro.errors import SimulationError
from repro.types import EMPTY_WAVE, INVALID_TAG, ReplacementPolicy

class DewSimulator(Engine):
    """Single-pass multi-configuration FIFO cache simulator (the ``dew`` engine).

    Parameters
    ----------
    block_size:
        Block size ``B`` in bytes shared by every simulated configuration.
    associativity:
        Associativity ``A`` shared by every simulated configuration.  The
        direct-mapped results for every set size are produced as a
        by-product whenever ``A > 1``.
    set_sizes:
        The set-size sweep (strictly doubling powers of two); defaults to
        the paper's ``2^0 .. 2^14``.
    enable_mra / enable_wave / enable_mre:
        Ablation switches for Properties 2, 3 and 4.  Disabling a property
        never changes the reported hit/miss counts — only how much work the
        simulator performs to obtain them (this is what Table 4 quantifies).
    recycled:
        Take the tree's record storage from the pool of storage finished
        sweep jobs released, and hand it back on :meth:`release` (see
        :mod:`repro.core.tree`).  The sweep executor builds its engines so,
        and so does the harness for the DEW half of a Table 3 cell.

    The simulator runs the kernel walk when :func:`repro.kernels.load`
    loads it, and the Python walk otherwise; :attr:`walk` says which.  It
    takes raw block chunks only: the kernel walk decides an immediately
    repeated block (a root MRA hit, Property 2) with one comparison, so
    run-length collapsed chunks would not pay.
    """

    family = "dew"
    recycles_storage = True
    wants_first_touches = True

    def __init__(
        self,
        block_size: int,
        associativity: int,
        set_sizes: Optional[Sequence[int]] = None,
        enable_mra: bool = True,
        enable_wave: bool = True,
        enable_mre: bool = True,
        recycled: bool = False,
    ) -> None:
        super().__init__()
        self._walk = kernels.load("dew")
        self.tree = DewTree(
            block_size,
            associativity,
            set_sizes,
            flat=self._walk.function is not None,
            recycled=recycled,
        )
        self.enable_mra = enable_mra
        self.enable_wave = enable_wave
        self.enable_mre = enable_mre
        self.counters = DewCounters()
        self.counters.ensure_levels(self.tree.num_levels)
        self._misses: List[int] = [0] * self.tree.num_levels
        self._dm_misses: List[int] = [0] * self.tree.num_levels
        self._requests = 0
        self._offset_bits = self.tree.offset_bits
        self._build_level_views()

    def _build_level_views(self) -> None:
        """Cache per-level storage references for the walk.

        For the Python walk, each level's tuple ends with the walk's two
        tallies for the chunk in flight, ``[MRA matches, misses]``.  For the
        kernel, the pointers to the tree's arrays, the size of a record and
        the pointer to the tally array it fills.  The simulator keeps those
        arrays referenced, so a pointer never outlives its array, even if
        the tree's storage is replaced other than through :meth:`reset`.
        """
        tree = self.tree
        if tree.flat:
            records = tree.storage.array
            self._tally = np.zeros(2 * tree.num_levels + 4, dtype=np.int64)
            self._kernel_arrays = (tree.index_masks, tree.level_offsets, records, self._tally)
            self._kernel_args = (
                tree.num_levels,
                tree.associativity,
                tree.index_masks.ctypes.data,
                tree.level_offsets.ctypes.data,
                records.ctypes.data,
                records.itemsize,
                self.enable_mra,
                self.enable_wave,
                self.enable_mre,
                self._tally.ctypes.data,
            )
            return
        self._levels = [
            (
                tree.set_sizes[level] - 1,  # index mask
                tree.tags[level],
                tree.waves[level],
                tree.mra[level],
                tree.mre_tag[level],
                tree.mre_wave[level],
                tree.fifo_ptr[level],
                [0, 0],  # this chunk's MRA matches and misses at the level
            )
            for level in range(tree.num_levels)
        ]

    # -- public queries --------------------------------------------------------

    @property
    def offset_bits(self) -> int:
        """Block-offset width used to pre-shift byte addresses."""
        return self._offset_bits

    @property
    def block_size(self) -> int:
        """Block size shared by all simulated configurations."""
        return self.tree.block_size

    @property
    def associativity(self) -> int:
        """Associativity shared by all simulated configurations."""
        return self.tree.associativity

    @property
    def walk(self) -> str:
        """The walk this simulator runs: ``kernel``, or ``python (<reason>)``."""
        return self._walk.name

    @property
    def requests(self) -> int:
        """Number of accesses simulated so far."""
        return self._requests

    @property
    def accesses(self) -> int:
        """Accesses simulated since construction or the last :meth:`reset`."""
        return self._requests

    def misses_at_level(self, level: int, direct_mapped: bool = False) -> int:
        """Miss count accumulated at one tree level."""
        return self._dm_misses[level] if direct_mapped else self._misses[level]

    # -- simulation ------------------------------------------------------------

    def access(self, address: int) -> None:
        """Simulate one byte-address request against every configuration."""
        if address < 0:
            raise SimulationError(f"negative address: {address}")
        self.run_blocks([address >> self._offset_bits])

    def run_checked(
        self,
        blocks: np.ndarray,
        access_types: Optional[np.ndarray] = None,
        first_touches: Optional[np.ndarray] = None,
    ) -> None:
        """Simulate a checked chunk of block addresses against every
        configuration (see :meth:`~repro.engine.base.Engine.run_checked`).

        Either walk hoists its per-request state (ablation switches,
        per-level storage views, counter references) once per chunk and
        tallies only the counts it cannot derive; the module docstring says
        how every other counter follows from them once per chunk.
        ``access_types`` is ignored: FIFO hits and misses do not depend on
        them.  ``first_touches``, the chunk's first-touch marks from
        ``Engine.run``, lets the kernel walk skip a first touch's
        decisions; the Python walk ignores it.  Raises
        :class:`~repro.errors.SimulationError` once :meth:`release` gave
        the tree's storage away.
        """
        if self.tree.storage is None:
            raise SimulationError("this simulator's tree storage was released")
        if not blocks.size:
            return
        self.counters.requests += blocks.size
        self._requests += blocks.size
        if self.tree.flat:
            self._kernel_walk(blocks, first_touches)
        else:
            self._python_walk(blocks.tolist())

    def _kernel_walk(self, chunk: np.ndarray, first_touches: Optional[np.ndarray]) -> None:
        """One kernel call over a C-contiguous int64 chunk and its
        first-touch marks, if any, at the tree's current epoch, then the
        shared derivation.  The arrays stay referenced for the whole call,
        which releases the interpreter lock; each simulator owns its
        storage."""
        self._walk.function(
            chunk.ctypes.data,
            None if first_touches is None else first_touches.ctypes.data,
            chunk.size,
            *self._kernel_args,
            self.tree.storage.epoch,
        )
        tally = self._tally.tolist()
        levels = 2 * self.tree.num_levels
        self._account(chunk.size, tally[0:levels:2], tally[1:levels:2], *tally[levels:])

    def _python_walk(self, blocks: Sequence[int]) -> None:
        """The walk in Python, then the shared derivation."""
        associativity = self.tree.associativity
        enable_mra = self.enable_mra
        enable_wave = self.enable_wave
        enable_mre = self.enable_mre
        levels = self._levels
        # The root (and, with Property 2 off, a node below an MRA match) has
        # no parent entry whose wave pointer needs refreshing; those writes
        # land in this throwaway slot instead of taking a branch.
        no_parent = [EMPTY_WAVE]

        n_wave = n_wave_hit = n_mre = n_examined = 0

        for block in blocks:
            # Wave pointer and matching-entry location carried down from the
            # parent node ("Matching entry location" in Algorithms 1 and 2).
            incoming_wave = EMPTY_WAVE
            parent_waves = no_parent
            parent_entry = 0

            for (index_mask, level_tags, level_waves, level_mra,
                 level_mre_tag, level_mre_wave, level_fifo, tally) in levels:
                set_index = block & index_mask

                # Property 2 (MRA): one comparison decides this configuration
                # *and* the direct-mapped cache of the same set size.
                if level_mra[set_index] == block:
                    tally[0] += 1
                    if enable_mra:
                        # Hit here and at every larger set size, both for the
                        # simulated associativity and direct mapped: stop.
                        break
                    # Ablation mode: keep walking.  The level is still a hit for
                    # both configurations and FIFO hits change no state, so the
                    # wave chain simply restarts below this level.
                    incoming_wave = EMPTY_WAVE
                    parent_waves = no_parent
                    parent_entry = 0
                    continue

                base = set_index * associativity
                way = -1  # the way holding the block; stays -1 on a miss
                if enable_wave and incoming_wave != EMPTY_WAVE:
                    # Property 3: probe exactly the way the parent last saw this
                    # tag occupy.  The tag cannot have moved without being
                    # processed here (which would have refreshed the pointer), so
                    # a mismatch proves the tag is absent.
                    n_wave += 1
                    if level_tags[base + incoming_wave] == block:
                        way = incoming_wave
                        n_wave_hit += 1
                elif enable_mre and level_mre_tag[set_index] == block:
                    # Property 4: the most recently evicted tag is guaranteed
                    # absent, so a match means "miss" with one comparison.
                    n_mre += 1
                else:
                    # Tag-list search, one scan of the set's ways.  FIFO fills
                    # ways in order and never invalidates one, so a hit at way
                    # w examined w + 1 entries and a miss examined every
                    # valid one: all A, or the fill pointer while filling.
                    ways = level_tags[base:base + associativity]
                    if block in ways:
                        way = ways.index(block)
                        n_examined += way + 1
                    elif ways[-1] == INVALID_TAG:
                        n_examined += level_fifo[set_index]
                    else:
                        n_examined += associativity

                level_mra[set_index] = block
                if way >= 0:
                    # Algorithm 1: Handle_hit.
                    parent_waves[parent_entry] = way
                    parent_entry = base + way
                    incoming_wave = level_waves[parent_entry]
                else:
                    # Algorithm 2: Handle_miss.
                    tally[1] += 1
                    victim = level_fifo[set_index]
                    parent_waves[parent_entry] = victim
                    parent_entry = base + victim
                    displaced_tag = level_tags[parent_entry]
                    level_tags[parent_entry] = block
                    if level_mre_tag[set_index] == block:
                        # Re-insert the evicted tag, recycling its wave pointer,
                        # and stash the newly evicted entry in the MRE slot.
                        incoming_wave = level_mre_wave[set_index]
                        level_mre_tag[set_index] = displaced_tag
                        level_mre_wave[set_index] = level_waves[parent_entry]
                    else:
                        incoming_wave = EMPTY_WAVE
                        if displaced_tag != INVALID_TAG:
                            level_mre_tag[set_index] = displaced_tag
                            level_mre_wave[set_index] = level_waves[parent_entry]
                    level_waves[parent_entry] = incoming_wave
                    level_fifo[set_index] = (victim + 1) % associativity
                parent_waves = level_waves

        tallies = [view[-1] for view in levels]
        matches = [tally[0] for tally in tallies]
        misses = [tally[1] for tally in tallies]
        for tally in tallies:
            tally[0] = tally[1] = 0
        self._account(len(blocks), matches, misses, n_wave, n_wave_hit, n_mre, n_examined)

    def _account(
        self,
        walks: int,
        matches: Sequence[int],
        misses: Sequence[int],
        n_wave: int,
        n_wave_hit: int,
        n_mre: int,
        n_examined: int,
    ) -> None:
        """Derive every counter of one chunk from either walk's tallies: per
        level, the MRA matches and misses; in total, the wave decisions and
        wave hits, the MRE decisions and the entries searches compared."""
        counters = self.counters
        enable_mra = self.enable_mra
        enable_mre = self.enable_mre
        # A walk reaches level k unless an MRA match stopped it higher up,
        # and every evaluation without an MRA match is a direct-mapped miss.
        level_misses = self._misses
        dm_misses = self._dm_misses
        per_level = counters.evaluations_per_level
        reached = walks
        evaluations = unmatched = mra_matches = chunk_misses = 0
        for level, (level_matches, missed) in enumerate(zip(matches, misses)):
            per_level[level] += reached
            dm_misses[level] += reached - level_matches
            level_misses[level] += missed
            evaluations += reached
            unmatched += reached - level_matches
            mra_matches += level_matches
            chunk_misses += missed
            if enable_mra:
                reached -= level_matches

        # Each unmatched evaluation is decided by the wave pointer, else by
        # the MRE tag, else by a search, and is a hit or a miss.  Every
        # evaluation costs one MRA comparison and every wave decision one
        # probe; with Property 4 on, each unmatched evaluation the wave
        # pointer left undecided costs one MRE comparison.
        searches = unmatched - n_wave - n_mre
        search_hits = unmatched - chunk_misses - n_wave_hit
        mre_checks = unmatched - n_wave if enable_mre else 0
        counters.node_evaluations += evaluations
        if enable_mra:
            counters.mra_hits += mra_matches
        counters.wave_decisions += n_wave
        counters.wave_hits += n_wave_hit
        counters.wave_misses += n_wave - n_wave_hit
        counters.mre_decisions += n_mre
        counters.searches += searches
        counters.search_hits += search_hits
        counters.tag_comparisons += evaluations + n_wave + mre_checks + n_examined

    # -- results ---------------------------------------------------------------

    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        """Per-configuration results accumulated so far.

        Emits the frame columns directly from the per-level miss arrays, in
        canonical order: per set size, the free direct-mapped row when
        ``A > 1``, then the family row.  :attr:`counters` and :attr:`walk`
        ride along.
        """
        tree = self.tree
        if tree.associativity > 1:
            ways, misses = [1, tree.associativity], [self._dm_misses, self._misses]
        else:
            ways, misses = [1], [self._misses]
        sets = np.asarray(tree.set_sizes, dtype=np.int64)
        rows = sets.size * len(ways)
        return ResultsFrame._from_canonical(
            np.repeat(sets, len(ways)),
            np.tile(np.asarray(ways, dtype=np.int64), sets.size),
            np.full(rows, tree.block_size, dtype=np.int64),
            np.full(rows, policy_code(ReplacementPolicy.FIFO), dtype=np.int8),
            np.full(rows, self._requests, dtype=np.int64),
            np.column_stack(misses).ravel(),
            np.full(rows, self.compulsory_misses, dtype=np.int64),
            simulator_name="dew",
            trace_name=trace_name,
            counters=self.counters,
            walk=self.walk,
        )

    def release(self) -> None:
        """Hand recycled tree storage back to the pool; the simulator then
        raises instead of simulating, until :meth:`reset`.  A no-op for a
        simulator that allocated its own storage."""
        if self.tree.recycled:
            self.tree.release()
            self._kernel_arrays = self._kernel_args = ()

    def reset(self) -> None:
        """Clear all simulation state, counters and results."""
        self.tree.reset()
        self.counters = DewCounters()
        self.counters.ensure_levels(self.tree.num_levels)
        self._misses = [0] * self.tree.num_levels
        self._dm_misses = [0] * self.tree.num_levels
        self._requests = 0
        self.compulsory_misses = 0
        self._build_level_views()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DewSimulator(block_size={self.block_size}, associativity={self.associativity}, "
            f"levels={self.tree.num_levels}, requests={self._requests})"
        )
