"""Mechanism engines: a DL1 cache augmented on its miss path.

Each engine owns one :class:`~repro.cache.simulator.SingleConfigSimulator`
(the DL1 level) plus a small mechanism buffer probed only when the DL1
misses.  The emitted columns follow the "trips to the next memory level"
convention:

* ``accesses``  — DL1 accesses (identical to the bare cache's column);
* ``misses``    — DL1 misses *not* served by the mechanism, so a mechanism
  row's miss column compares directly against a bigger L1's;
* ``compulsory``— first-touch misses among those surviving misses;
* ``mechanism_hits`` / ``mechanism_swaps`` / ``mechanism_allocations`` —
  the per-mechanism counters, emitted via the frame's mechanism columns.

The DL1 never depends on the mechanism: a probe sees only a miss's outcome
and changes nothing in the DL1.  So each chunk's DL1 runs in one call
(:meth:`~repro.cache.simulator.SingleConfigSimulator.run_misses`, the
compiled walk wherever it loads), and the mechanism is probed over that
chunk's miss stream only: each missed block, the block the DL1 evicted for
it, its access type and whether it was a first touch.  A frame carries the
DL1's ``walk``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional, Tuple, Union

from repro.cache.simulator import BlockChunk, SingleConfigSimulator, TypeChunk
from repro.core.config import CacheConfig
from repro.core.results import ResultsFrame, mechanism_code, policy_code
from repro.engine.base import Engine, register_engine
from repro.errors import ConfigurationError
from repro.mechanisms.buffers import FullyAssociativeBuffer, StreamBufferSet
from repro.types import AccessType, ReplacementPolicy

#: Registry keys of the mechanism engines, in MECHANISM_TABLE (code) order.
MECHANISM_ENGINE_NAMES: Tuple[str, ...] = (
    "miss-cache",
    "stream-buffer",
    "victim-cache",
)


class MechanismEngine(Engine):
    """Shared DL1-plus-mechanism scaffolding (not itself registered).

    Subclasses implement :meth:`_probe` — called once per DL1 miss, in
    access order, with the missed block, the block DL1 evicted for it (or
    ``None``), and the access type — returning whether the mechanism served
    the miss.
    """

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        block_size: int,
        entries: int,
        policy: Union[str, ReplacementPolicy] = ReplacementPolicy.FIFO,
        seed: int = 0,
        track_compulsory: bool = True,
    ) -> None:
        super().__init__()
        self.config = CacheConfig(
            num_sets, associativity, block_size, ReplacementPolicy.parse(policy)
        )
        if int(entries) < 1:
            raise ConfigurationError(
                f"mechanism entry count must be positive, got {entries}"
            )
        self.entries = int(entries)
        self.dl1 = SingleConfigSimulator(
            self.config, seed=int(seed), track_compulsory=bool(track_compulsory)
        )
        self.mechanism_hits = 0
        self.mechanism_swaps = 0
        self.mechanism_allocations = 0
        self._misses = 0
        self._compulsory = 0

    # -- mechanism hook --------------------------------------------------------

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        """Probe the mechanism for a DL1 miss; return ``True`` when served."""
        raise NotImplementedError

    def _reset_mechanism(self) -> None:
        raise NotImplementedError

    # -- engine surface --------------------------------------------------------

    @property
    def offset_bits(self) -> int:
        return self.config.offset_bits

    @property
    def walk(self) -> str:
        """The walk the DL1 runs: ``kernel``, or ``python (<reason>)``."""
        return self.dl1.walk

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        """Simulate a chunk: the DL1 walks it in one call, then the mechanism
        is probed over its misses.

        Raises :class:`~repro.errors.SimulationError`, changing nothing, for
        a block outside ``[0, 2**63 - 1)`` or an unknown access type.
        """
        stream = self.dl1.run_misses(blocks, access_types)
        probe = self._probe
        for block, evicted, access_type, compulsory in zip(
            stream.blocks.tolist(),
            stream.evicted.tolist(),
            repeat(AccessType.READ) if stream.types is None else stream.types.tolist(),
            stream.compulsory.tolist(),
        ):
            if not probe(block, None if evicted < 0 else evicted, access_type):
                self._misses += 1
                self._compulsory += compulsory

    def finalize(self, trace_name: str = "trace") -> ResultsFrame:
        config = self.config
        return ResultsFrame(
            [config.num_sets],
            [config.associativity],
            [config.block_size],
            [policy_code(config.policy)],
            [self.dl1.stats.accesses],
            [self._misses],
            [self._compulsory],
            simulator_name=self.family,
            trace_name=trace_name,
            mechanism_codes=[mechanism_code(self.family)],
            mechanism_entries=[self.entries],
            mechanism_hits=[self.mechanism_hits],
            mechanism_swaps=[self.mechanism_swaps],
            mechanism_allocations=[self.mechanism_allocations],
            walk=self.walk,
        )

    def reset(self) -> None:
        self.dl1.reset()
        self.mechanism_hits = 0
        self.mechanism_swaps = 0
        self.mechanism_allocations = 0
        self._misses = 0
        self._compulsory = 0
        self._reset_mechanism()
        self._elapsed = 0.0


@register_engine("victim-cache")
class VictimCacheEngine(MechanismEngine):
    """DL1 plus a fully-associative victim cache of DL1 evictions.

    On a DL1 miss the victim cache is probed *after* DL1 inserts the missed
    block.  A victim-cache hit promotes the block back (removing it from the
    buffer) and — when DL1 displaced a block for it — swaps that victim into
    the buffer (``mechanism_swaps``).  A victim-cache miss files the DL1
    victim, if any, at MRU (``mechanism_allocations``), evicting the
    buffer's LRU entry to make room.
    """

    def __init__(self, *args, **options) -> None:
        super().__init__(*args, **options)
        self.buffer = FullyAssociativeBuffer(self.entries)

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        buffer = self.buffer
        if block in buffer:
            self.mechanism_hits += 1
            buffer.remove(block)
            if evicted is not None:
                buffer.insert(evicted)
                self.mechanism_swaps += 1
            return True
        if evicted is not None:
            buffer.insert(evicted)
            self.mechanism_allocations += 1
        return False

    def _reset_mechanism(self) -> None:
        self.buffer = FullyAssociativeBuffer(self.entries)


@register_engine("miss-cache")
class MissCacheEngine(MechanismEngine):
    """DL1 plus a tags-only fully-associative miss cache.

    Every DL1 miss probes the buffer: a hit serves the miss (LRU touch,
    ``mechanism_hits``); a miss files the missed block itself at MRU
    (``mechanism_allocations``).  Swaps never occur (tags only — nothing is
    exchanged with DL1).
    """

    def __init__(self, *args, **options) -> None:
        super().__init__(*args, **options)
        self.buffer = FullyAssociativeBuffer(self.entries)

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        buffer = self.buffer
        if block in buffer:
            self.mechanism_hits += 1
            buffer.touch(block)
            return True
        buffer.insert(block)
        self.mechanism_allocations += 1
        return False

    def _reset_mechanism(self) -> None:
        self.buffer = FullyAssociativeBuffer(self.entries)


@register_engine("stream-buffer")
class StreamBufferEngine(MechanismEngine):
    """DL1 plus N FIFO sequential-prefetch stream buffers.

    A DL1 miss head-probes every buffer (MRU first): a head hit serves the
    miss, advances that stream by one block and marks it MRU
    (``mechanism_hits``).  Otherwise a new stream starting at the next
    sequential block replaces the LRU buffer (``mechanism_allocations``) —
    but only for loads and instruction fetches: stores do not allocate
    streams, which is why this engine needs per-access types
    (:attr:`wants_access_types`).
    """

    wants_access_types = True

    def __init__(self, *args, depth: int = 4, **options) -> None:
        super().__init__(*args, **options)
        self.depth = int(depth)
        self.buffers = StreamBufferSet(self.entries, depth=self.depth)

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        if self.buffers.probe(block):
            self.mechanism_hits += 1
            return True
        if access_type != AccessType.WRITE:
            self.buffers.allocate(block)
            self.mechanism_allocations += 1
        return False

    def _reset_mechanism(self) -> None:
        self.buffers = StreamBufferSet(self.entries, depth=self.depth)
