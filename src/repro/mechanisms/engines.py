"""Mechanism engines: a DL1 cache augmented on its miss path, every entry
count in one pass.

Each engine owns one :class:`~repro.cache.simulator.SingleConfigSimulator`
(the DL1 level) and one mechanism probed only when the DL1 misses.  It
takes all its entry counts at once, as one sorted, de-duplicated tuple,
and emits one row per count.  The emitted columns follow the "trips to the
next memory level" convention:

* ``accesses``  — DL1 accesses (identical to the bare cache's column);
* ``misses``    — DL1 misses *not* served by the mechanism, so a mechanism
  row's miss column compares directly against a bigger L1's;
* ``compulsory``— first-touch misses among those surviving misses;
* ``mechanism_hits`` / ``mechanism_swaps`` / ``mechanism_allocations`` —
  the per-mechanism counters, emitted via the frame's mechanism columns.

The DL1 never depends on the mechanism: a probe sees only a miss's outcome
and changes nothing in the DL1.  So each chunk's DL1 runs in one call
(:meth:`~repro.cache.simulator.SingleConfigSimulator.run_checked`), and
every entry count is probed over that chunk's miss stream: each missed
block, the block the DL1 evicted for it, its access type and whether it
was a first touch.  The probes run in ``kernels/mechanisms.c`` (the
``mechanisms`` entry of :data:`repro.kernels.KERNELS`) wherever it loads,
and otherwise in a Python walk with the same tallies:

* the victim and miss caches are stack algorithms over the miss stream
  (Mattson et al., IBM Systems Journal 1970).  Each keeps one recency list
  cut at its largest count, whose first ``n`` blocks are the ``n``-entry
  buffer, and tallies hits (and victim swaps) by list position: count
  ``n`` is credited with every hit at a position below ``n``.  A block is
  on the victim list only while it is out of the DL1, and a victim hit
  always comes with a DL1 eviction (the block left a full set, and a full
  set stays full), so the victim list never shrinks;
* stream buffers (Jouppi, ISCA 1990) keep one set of streams per count,
  since a write miss that only a larger set serves changes that set
  alone.  Only heads are probed and a head hit advances its head by one,
  so each stream is held as its head block.

Per count ``n``: ``misses`` is the DL1's misses less ``n``'s hits; a
victim cache's allocations are the DL1's evictions less its swaps, and a
miss cache's its surviving misses; ``compulsory`` is the DL1's count, the
distinct-block count ``Engine.run`` hands over (a first touch was never
evicted or missed before), less the first touches served for stream
buffers.  Only the stream buffer's DL1 flags each miss
that is a first touch, since only stream buffers can serve one.  A frame's
``walk`` reads ``kernel`` only when both the DL1 and the probes run
compiled.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import kernels
from repro.cache.simulator import MissStream, SingleConfigSimulator
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.core.results import ResultsFrame, mechanism_code, policy_code
from repro.engine.base import Engine
from repro.errors import ConfigurationError
from repro.types import AccessType, ReplacementPolicy

#: Registry keys of the mechanism engines, in MECHANISM_TABLE (code) order.
MECHANISM_ENGINE_NAMES: Tuple[str, ...] = (
    "miss-cache",
    "stream-buffer",
    "victim-cache",
)

#: The mechanism codes of ``kernels/mechanisms.c``.
_VICTIM, _MISS, _STREAM = range(3)

#: Per-count columns: hits, swaps, allocations and first touches served.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def entry_counts(entries: Union[int, Iterable[int]]) -> Tuple[int, ...]:
    """``entries``, one count or several, as a sorted, de-duplicated tuple.

    Raises :class:`~repro.errors.ConfigurationError` for no count, or for
    any count below 1.
    """
    counts = (entries,) if isinstance(entries, (int, np.integer)) else entries
    counts = tuple(sorted({int(count) for count in counts}))
    if not counts or counts[0] < 1:
        raise ConfigurationError(
            f"mechanism entry counts must be one or more positive integers, got {entries!r}"
        )
    return counts


class MechanismEngine(Engine):
    """A DL1 plus one mechanism at every entry count (not itself registered).

    Subclasses name their mechanism's code in ``kernels/mechanisms.c``
    (``_code``), walk a chunk's miss stream in Python with the kernel's
    tallies (:meth:`_probe_python`), and turn the tallies into per-count
    columns (:meth:`_columns`).
    """

    _code = -1

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        block_size: int,
        entries: Union[int, Iterable[int]],
        policy: Union[str, ReplacementPolicy] = ReplacementPolicy.FIFO,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.config = CacheConfig(num_sets, associativity, block_size, policy)
        self.entries = entry_counts(entries)
        self.dl1 = SingleConfigSimulator(
            self.config, seed=int(seed), track_compulsory=self._code == _STREAM
        )
        self._walk = kernels.load("mechanisms")
        self._allocate()

    def _allocate(self) -> None:
        """Empty probe state and zero tallies for the walk this engine runs.

        The recency list holds up to the largest count of blocks; stream
        buffers hold the sum of the counts of heads.  The kernel gets flat
        int64 storage and a fill length per list, which the engine keeps
        referenced so a pointer never outlives its array.
        """
        counts = self.entries
        streams = self._code == _STREAM
        self._tally = np.zeros(3 * len(counts) if streams else 2 * counts[-1], dtype=np.int64)
        if self._walk.function is None:
            self._lists: List[List[int]] = [[] for _ in (counts if streams else counts[-1:])]
            return
        self._kernel_arrays = (
            np.array(counts, dtype=np.int64),
            np.zeros(sum(counts) if streams else counts[-1], dtype=np.int64),
            np.zeros(len(counts), dtype=np.int64),
            self._tally,
        )
        entries, heads, fill, tally = (array.ctypes.data for array in self._kernel_arrays)
        self._kernel_args = (self._code, entries, len(counts), heads, fill, tally)

    # -- engine surface --------------------------------------------------------

    @property
    def offset_bits(self) -> int:
        return self.config.offset_bits

    @property
    def walk(self) -> str:
        """``kernel`` when the DL1 and the probes both run compiled, else the
        DL1's ``python (<reason>)``, or the probes' when only they do not."""
        dl1 = self.dl1.walk
        return self._walk.name if dl1 == "kernel" else dl1

    @property
    def accesses(self) -> int:
        """Accesses simulated since construction or the last :meth:`reset`."""
        return self.dl1.accesses

    def run_checked(self, blocks: np.ndarray, access_types: Optional[np.ndarray] = None) -> None:
        """Simulate a checked chunk (see
        :meth:`~repro.engine.base.Engine.run_checked`): the DL1 walks it in
        one call, then every entry count is probed over its misses."""
        self._probe(self.dl1.run_checked(blocks, access_types))

    def _probe(self, stream: MissStream) -> None:
        """Probe every entry count over one chunk's miss stream."""
        if not stream.blocks.size:
            return
        if self._walk.function is None:
            self._tally += self._probe_python(stream)
            return
        # The kernel releases the interpreter lock; every array passed stays
        # referenced for the whole call.
        self._walk.function(
            stream.blocks.ctypes.data,
            stream.evicted.ctypes.data,
            None if stream.types is None else stream.types.ctypes.data,
            stream.compulsory.ctypes.data,
            stream.blocks.size,
            *self._kernel_args,
        )

    def _probe_python(self, stream: MissStream) -> List[int]:
        """One chunk's tallies, in the kernel's layout, from the Python walk."""
        raise NotImplementedError

    def set_compulsory(self, distinct_blocks: int) -> None:
        """Record ``distinct_blocks`` as the DL1's compulsory misses."""
        self.dl1.set_compulsory(distinct_blocks)

    def _columns(self, stats: CacheStats) -> Columns:
        """Per-count hits, swaps, allocations and first touches served."""
        raise NotImplementedError

    def _by_position(self, tallies: np.ndarray) -> np.ndarray:
        """Per count ``n``, the sum of ``tallies`` over list positions below ``n``."""
        return np.cumsum(tallies)[np.array(self.entries) - 1]

    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        """One row per entry count, in the order of :attr:`entries`
        (ascending, so canonical)."""
        stats = self.dl1.stats
        config = self.config
        rows = np.ones(len(self.entries), dtype=np.int64)
        hits, swaps, allocations, served = self._columns(stats)
        return ResultsFrame._from_canonical(
            rows * config.num_sets,
            rows * config.associativity,
            rows * config.block_size,
            rows * policy_code(config.policy),
            rows * stats.accesses,
            stats.misses - hits,
            stats.compulsory_misses - served,
            simulator_name=self.family,
            trace_name=trace_name,
            mechanism_codes=rows * mechanism_code(self.family),
            mechanism_entries=self.entries,
            mechanism_hits=hits,
            mechanism_swaps=swaps,
            mechanism_allocations=allocations,
            walk=self.walk,
        )

    def reset(self) -> None:
        self.dl1.reset()
        self._allocate()


class VictimCacheEngine(MechanismEngine):
    """DL1 plus a fully-associative victim cache of DL1 evictions.

    On a DL1 miss the victim cache is probed *after* DL1 inserts the missed
    block.  A victim-cache hit promotes the block back (removing it from the
    buffer) and — when DL1 displaced a block for it — swaps that victim into
    the buffer (``mechanism_swaps``).  A victim-cache miss files the DL1
    victim, if any, at MRU (``mechanism_allocations``), evicting the
    buffer's LRU entry to make room.
    """

    family = "victim-cache"
    _code = _VICTIM

    def _probe_python(self, stream: MissStream) -> List[int]:
        (recency,) = self._lists
        largest = self.entries[-1]
        tally = [0] * (2 * largest)
        for block, victim in zip(stream.blocks.tolist(), stream.evicted.tolist()):
            if block in recency:
                position = recency.index(block)
                tally[position] += 1
                del recency[position]
                if victim >= 0:
                    tally[largest + position] += 1
                    recency.insert(0, victim)
            elif victim >= 0:
                recency.insert(0, victim)
                del recency[largest:]
        return tally

    def _columns(self, stats: CacheStats) -> Columns:
        hits, swaps = self._tally.reshape(2, -1)
        swaps = self._by_position(swaps)
        return self._by_position(hits), swaps, stats.evictions - swaps, np.zeros_like(swaps)


class MissCacheEngine(MechanismEngine):
    """DL1 plus a tags-only fully-associative miss cache.

    Every DL1 miss probes the buffer: a hit serves the miss (LRU touch,
    ``mechanism_hits``); a miss files the missed block itself at MRU
    (``mechanism_allocations``).  Swaps never occur (tags only — nothing is
    exchanged with DL1).
    """

    family = "miss-cache"
    _code = _MISS

    def _probe_python(self, stream: MissStream) -> List[int]:
        (recency,) = self._lists
        largest = self.entries[-1]
        tally = [0] * (2 * largest)
        for block in stream.blocks.tolist():
            if block in recency:
                position = recency.index(block)
                tally[position] += 1
                del recency[position]
            recency.insert(0, block)
            del recency[largest:]
        return tally

    def _columns(self, stats: CacheStats) -> Columns:
        hits = self._by_position(self._tally[: self.entries[-1]])
        zeros = np.zeros_like(hits)
        return hits, zeros, stats.misses - hits, zeros


class StreamBufferEngine(MechanismEngine):
    """DL1 plus N sequential-prefetch stream buffers.

    A DL1 miss head-probes every buffer (MRU first): a head hit serves the
    miss, advances that stream by one block and marks it MRU
    (``mechanism_hits``).  Otherwise a new stream starting at the next
    sequential block replaces the LRU buffer (``mechanism_allocations``) —
    but only for loads and instruction fetches: stores do not allocate
    streams, which is why this engine needs per-access types
    (:attr:`wants_access_types`).
    """

    family = "stream-buffer"
    _code = _STREAM
    wants_access_types = True

    def _probe_python(self, stream: MissStream) -> List[int]:
        tally = [0] * (3 * len(self.entries))
        write = int(AccessType.WRITE)
        types = repeat(int(AccessType.READ)) if stream.types is None else stream.types.tolist()
        for block, access_type, first in zip(
            stream.blocks.tolist(), types, stream.compulsory.tolist()
        ):
            for index, (entries, heads) in enumerate(zip(self.entries, self._lists)):
                if block in heads:
                    # Most recently used (last) first.
                    del heads[len(heads) - 1 - heads[::-1].index(block)]
                    tally[3 * index] += 1
                    tally[3 * index + 2] += first
                elif access_type != write:
                    if len(heads) == entries:
                        del heads[0]
                    tally[3 * index + 1] += 1
                else:
                    continue
                heads.append(block + 1)
        return tally

    def _columns(self, stats: CacheStats) -> Columns:
        # A copy: the frame keeps its columns, and the walk keeps writing
        # the tally.
        hits, allocations, served = self._tally.reshape(-1, 3).T.copy()
        return hits, np.zeros_like(hits), allocations, served
