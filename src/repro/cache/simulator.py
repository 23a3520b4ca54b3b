"""Single-configuration trace-driven cache simulator.

:class:`SingleConfigSimulator` models what one Dinero IV invocation does: it
owns the storage for exactly one cache configuration and must be driven over
the whole trace to produce hit/miss counts for that configuration alone.  It
is the registered ``single`` engine (see :mod:`repro.engine.base`), the
reference for every replacement policy, and the DL1 of every mechanism
engine (:mod:`repro.mechanisms.engines`).

There are two walks, with identical results and statistics:

* the **kernel walk**, ``repro/kernels/single.c``, which the simulator runs
  for FIFO, LRU and PLRU whenever :func:`repro.kernels.load` builds and
  loads it.  It walks zero-initialised flat int64 storage: per set, ``A``
  tags stored as ``block + 1`` in way order, their dirty bits and the
  policy's state, so a fresh simulator allocates a few arrays and no
  per-set objects;
* the **Python walk** over one :class:`~repro.cache.cacheset.CacheSet` per
  set, the fallback on a host without a working C compiler (or with
  ``CC=false``), the oracle the kernel is tested against, and the only walk
  of ``random`` replacement.

Both walk a chunk in :meth:`SingleConfigSimulator._walk_chunk`, which
tallies the chunk's hits, misses, evictions, writebacks and tag comparisons
and returns its *miss stream*: each miss's position in the chunk and the
block it evicted.  :meth:`SingleConfigSimulator.run_misses` derives every
:class:`~repro.cache.stats.CacheStats` field from them; ``by_type`` is a
count of the chunk's access types.  The mechanism engines probe their
buffers over that miss stream only.

The compulsory misses are the trace's distinct blocks, since a block's
first touch always misses: ``Engine.run`` and the sweep executor count them
once per (trace, block size) and hand them over
(:meth:`SingleConfigSimulator.set_compulsory`).  Only a simulator built
with ``track_compulsory`` (the stream buffer's DL1) flags each miss that is
its block's first touch, from a set of the blocks seen so far.

Block addresses must lie in ``[0, 2**63 - 1)``; both walks reject any other
with :class:`~repro.errors.SimulationError`, changing nothing.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import kernels
from repro.cache.cacheset import CacheSet
from repro.cache.policies import make_policy
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.core.results import ResultsFrame, policy_code
from repro.engine.base import Engine
from repro.errors import ConfigurationError, SimulationError
from repro.types import AccessType, ReplacementPolicy, is_power_of_two

BlockChunk = Union[Sequence[int], np.ndarray]
TypeChunk = Optional[Union[Sequence[int], np.ndarray]]

#: The policies the kernel walks, by their code in ``single.c``.
_KERNEL_POLICIES = {ReplacementPolicy.FIFO: 0, ReplacementPolicy.LRU: 1, ReplacementPolicy.PLRU: 2}

#: The walk of ``random`` replacement, whose victims come from
#: :class:`random.Random`.
_RANDOM_WALK = kernels.Walk(reason="random replacement has no kernel")


class MissStream(NamedTuple):
    """The misses of one chunk, in access order."""

    #: The block each miss fetched.
    blocks: np.ndarray
    #: The block each miss evicted, or -1 when it filled an empty way.
    evicted: np.ndarray
    #: The access type code of each miss, or ``None`` when every access was
    #: a read.
    types: Optional[np.ndarray]
    #: True for a miss that is its block's first touch (always false when
    #: compulsory misses are not tracked).
    compulsory: np.ndarray


def _type_chunk(access_types: TypeChunk, size: int) -> Optional[np.ndarray]:
    """``access_types`` as an int8 array of ``size`` valid type codes."""
    if access_types is None:
        return None
    types = np.asarray(access_types)
    if types.shape != (size,):
        raise SimulationError(
            f"chunk mismatch: {size} blocks vs {types.size} access types"
        )
    if size and (types.min() < 0 or types.max() > max(AccessType)):
        raise SimulationError(f"unknown access type code in {types.min()}..{types.max()}")
    return np.ascontiguousarray(types, dtype=np.int8)


class SingleConfigSimulator(Engine):
    """Trace-driven simulator for one cache configuration (the ``single`` engine).

    Parameters
    ----------
    config:
        The cache configuration (sets, ways, block size, policy) to model.
    num_sets / associativity / block_size / policy:
        The configuration by parts, used when ``config`` is not given.
    seed:
        Seed forwarded to stochastic policies (``RANDOM``); ignored by the
        deterministic ones.
    track_compulsory:
        Flag each miss that is its block's first touch in the miss stream
        and count those in :attr:`stats`, which requires remembering every
        block ever missed.  The stream buffer's DL1 needs the flags; off by
        default, since ``Engine.run`` and the sweep executor hand over
        the count.

    After a run, :attr:`stats` holds the Dinero-style statistics.  The
    simulator runs the kernel walk when :func:`repro.kernels.load` loads it
    and the policy has one, and the Python walk otherwise; :attr:`walk`
    says which.
    """

    family = "single"
    wants_access_types = True

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        num_sets: Optional[int] = None,
        associativity: Optional[int] = None,
        block_size: Optional[int] = None,
        policy: Union[str, ReplacementPolicy] = ReplacementPolicy.FIFO,
        seed: int = 0,
        track_compulsory: bool = False,
    ) -> None:
        super().__init__()
        if config is None:
            if num_sets is None or associativity is None or block_size is None:
                raise ConfigurationError(
                    "single engine needs either config= or num_sets/associativity/block_size"
                )
            config = CacheConfig(num_sets, associativity, block_size, policy)
        self._policy = config.policy
        if self._policy is ReplacementPolicy.PLRU and not is_power_of_two(config.associativity):
            raise SimulationError("PLRU requires a power-of-two associativity")
        self.config = config
        self._seed = seed
        self._offset_bits = config.offset_bits
        self._index_mask = config.num_sets - 1
        self._track_compulsory = track_compulsory
        self._walk = (
            kernels.load("single") if self._policy in _KERNEL_POLICIES else _RANDOM_WALK
        )
        self.reset()

    def _allocate(self) -> None:
        """Empty set storage for the walk this simulator runs.

        For the kernel, flat arrays and the pointers to them, which the
        simulator keeps referenced so a pointer never outlives its array.
        For the Python walk, one :class:`CacheSet` and policy object per set.
        """
        config = self.config
        ways = config.associativity
        if self._walk.function is None:
            self._sets = [
                CacheSet(ways, make_policy(self._policy, ways, seed=self._seed + i))
                for i in range(config.num_sets)
            ]
            return
        # Per set: FIFO's next way, LRU's last-touch clock per way, or
        # PLRU's tree bits.
        width = {
            ReplacementPolicy.FIFO: 1,
            ReplacementPolicy.LRU: ways,
            ReplacementPolicy.PLRU: max(ways - 1, 1),
        }[self._policy]
        self._tags = np.zeros(config.num_sets * ways, dtype=np.int64)
        dirty = np.zeros(config.num_sets * ways, dtype=np.int64)
        state = np.zeros(config.num_sets * width, dtype=np.int64)
        self._tally = np.zeros(5, dtype=np.int64)
        self._kernel_arrays = (self._tags, dirty, state, self._tally)
        self._kernel_args = (
            config.num_sets,
            ways,
            _KERNEL_POLICIES[self._policy],
            *(array.ctypes.data for array in self._kernel_arrays),
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
        return self.stats.accesses

    # -- single access --------------------------------------------------------

    def access(self, address: int, access_type: AccessType = AccessType.READ) -> bool:
        """Simulate one byte-address reference; return ``True`` on a hit."""
        if address < 0:
            raise SimulationError(f"negative address: {address}")
        return self.access_block(address >> self._offset_bits, access_type)

    def access_block(self, block: int, access_type: AccessType = AccessType.READ) -> bool:
        """Simulate one reference given its block address; return ``True`` on a hit."""
        return not self.run_misses([block], [int(access_type)]).blocks.size

    # -- bulk simulation ------------------------------------------------------

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        """Simulate a chunk of pre-shifted block addresses (engine pipeline).

        Raises :class:`~repro.errors.SimulationError`, changing nothing, for
        a block outside ``[0, 2**63 - 1)`` or an unknown access type.
        """
        self.run_misses(blocks, access_types)

    def run_misses(self, blocks: BlockChunk, access_types: TypeChunk = None) -> MissStream:
        """Simulate a chunk like :meth:`run_blocks` and return its misses."""
        chunk = kernels.block_chunk(blocks)
        types = _type_chunk(access_types, chunk.size)
        tally, positions, evicted = self._walk_chunk(chunk, types)
        stats = self.stats
        hits, misses, evictions, writebacks, compared = tally
        stats.accesses += chunk.size
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        stats.tag_comparisons += compared
        if types is None:
            stats.by_type[AccessType.READ] += chunk.size
        else:
            for access_type, count in zip(
                AccessType, np.bincount(types, minlength=len(AccessType)).tolist()
            ):
                stats.by_type[access_type] += count
        missed = chunk[positions]
        compulsory = np.zeros(missed.size, dtype=bool)
        if self._track_compulsory and missed.size:
            # A first touch always misses, so the missed blocks include
            # every block's first touch.
            distinct, first = np.unique(missed, return_index=True)
            seen = self._seen_blocks
            fresh = np.fromiter(
                (block not in seen for block in distinct.tolist()), dtype=bool, count=distinct.size
            )
            seen.update(distinct[fresh].tolist())
            compulsory[first[fresh]] = True
            stats.compulsory_misses += int(fresh.sum())
        return MissStream(
            missed, evicted - 1, None if types is None else types[positions], compulsory
        )

    def _walk_chunk(
        self, chunk: np.ndarray, types: Optional[np.ndarray]
    ) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
        """Walk one checked chunk.

        Returns the tally ``(hits, misses, evictions, writebacks, tag
        comparisons)``, each miss's position in the chunk, and the tag it
        evicted (``block + 1``, 0 for an empty way).
        """
        if self._walk.function is None:
            return self._python_walk(chunk.tolist(), None if types is None else types.tolist())
        # Sized to this call's chunk, so an idle engine holds no buffer.
        positions = np.empty(chunk.size, dtype=np.int64)
        evicted = np.empty(chunk.size, dtype=np.int64)
        # The kernel releases the interpreter lock; every array passed stays
        # referenced for the whole call.
        self._walk.function(
            chunk.ctypes.data,
            None if types is None else types.ctypes.data,
            chunk.size,
            self.stats.accesses,
            *self._kernel_args,
            positions.ctypes.data,
            evicted.ctypes.data,
        )
        tally = tuple(self._tally.tolist())
        return tally, positions[:tally[1]], evicted[:tally[1]]

    def _python_walk(
        self, blocks: List[int], types: Optional[List[int]]
    ) -> Tuple[Tuple[int, ...], np.ndarray, np.ndarray]:
        """:meth:`_walk_chunk` over the :class:`CacheSet` objects."""
        sets = self._sets
        mask = self._index_mask
        write = int(AccessType.WRITE)
        positions: List[int] = []
        evicted_tags: List[int] = []
        evictions = writebacks = compared = 0
        for position, block in enumerate(blocks):
            cache_set = sets[block & mask]
            before = cache_set.comparisons
            hit, evicted = cache_set.access(
                block, is_write=types is not None and types[position] == write
            )
            compared += cache_set.comparisons - before
            if hit:
                continue
            positions.append(position)
            if evicted is None:
                evicted_tags.append(0)
            else:
                evicted_tags.append(evicted + 1)
                evictions += 1
                writebacks += cache_set.evicted_dirty
        misses = len(positions)
        tally = (len(blocks) - misses, misses, evictions, writebacks, compared)
        return (
            tally,
            np.array(positions, dtype=np.int64),
            np.array(evicted_tags, dtype=np.int64),
        )

    # -- results --------------------------------------------------------------

    def set_compulsory(self, distinct_blocks: int) -> None:
        """Record ``distinct_blocks`` as :attr:`stats`' compulsory misses."""
        self.stats.compulsory_misses = int(distinct_blocks)

    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        """The configuration's one result row, from :attr:`stats`, with :attr:`walk`."""
        stats = self.stats
        config = self.config
        return ResultsFrame._from_canonical(
            [config.num_sets],
            [config.associativity],
            [config.block_size],
            [policy_code(config.policy)],
            [stats.accesses],
            [stats.misses],
            [stats.compulsory_misses],
            simulator_name="single",
            trace_name=trace_name,
            walk=self.walk,
        )

    # -- inspection -----------------------------------------------------------

    def resident_blocks(self, set_index: Optional[int] = None) -> List[List[int]]:
        """Blocks currently resident, in way order, per set (or for one set)."""
        if self._walk.function is None:
            if set_index is not None:
                return [self._sets[set_index].resident_blocks()]
            return [cache_set.resident_blocks() for cache_set in self._sets]
        tags = self._tags.reshape(-1, self.config.associativity)
        if set_index is not None:
            tags = tags[[set_index]]
        return [[tag - 1 for tag in row if tag] for row in tags.tolist()]

    def contains_block(self, block: int) -> bool:
        """True when ``block`` (a block address) is resident."""
        return block in self.resident_blocks(block & self._index_mask)[0]

    def reset(self) -> None:
        """Empty the cache and zero the statistics."""
        self.stats = CacheStats()
        self._seen_blocks: Set[int] = set()
        self._elapsed = 0.0
        self._allocate()
