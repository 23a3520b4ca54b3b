"""Single-configuration trace-driven cache simulator.

:class:`SingleConfigSimulator` models what one Dinero IV invocation does: it
owns the storage for exactly one cache configuration and must be driven over
the whole trace to produce hit/miss counts for that configuration alone.  It
is the registered ``single`` engine (see :mod:`repro.engine.base`), the
reference for every replacement policy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Union

import numpy as np

from repro.cache.cacheset import CacheSet
from repro.cache.policies import make_policy
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.core.results import ResultsFrame, SimulationResults, policy_code
from repro.engine.base import Engine, register_engine
from repro.errors import ConfigurationError, SimulationError
from repro.types import AccessType, ReplacementPolicy


@register_engine("single")
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
        When true (the default), first-touch misses are classified as
        compulsory, which requires remembering every block ever seen.
        Disable for very long traces if that memory matters.

    After a run, :attr:`stats` holds the Dinero-style statistics.
    """

    wants_access_types = True

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        num_sets: Optional[int] = None,
        associativity: Optional[int] = None,
        block_size: Optional[int] = None,
        policy: Union[str, ReplacementPolicy] = ReplacementPolicy.FIFO,
        seed: int = 0,
        track_compulsory: bool = True,
    ) -> None:
        super().__init__()
        if config is None:
            if num_sets is None or associativity is None or block_size is None:
                raise ConfigurationError(
                    "single engine needs either config= or num_sets/associativity/block_size"
                )
            config = CacheConfig(
                num_sets, associativity, block_size, ReplacementPolicy.parse(policy)
            )
        self.config = config
        self.stats = CacheStats()
        self._sets: List[CacheSet] = [
            CacheSet(config.associativity, make_policy(config.policy, config.associativity, seed=seed + i))
            for i in range(config.num_sets)
        ]
        self._offset_bits = config.offset_bits
        self._index_mask = config.num_sets - 1
        self._track_compulsory = track_compulsory
        self._seen_blocks: Set[int] = set()

    @property
    def offset_bits(self) -> int:
        """Block-offset width used to pre-shift byte addresses."""
        return self._offset_bits

    # -- single access --------------------------------------------------------

    def access(self, address: int, access_type: AccessType = AccessType.READ) -> bool:
        """Simulate one byte-address reference; return ``True`` on a hit."""
        if address < 0:
            raise SimulationError(f"negative address: {address}")
        return self.access_block(address >> self._offset_bits, access_type)

    def access_block(self, block: int, access_type: AccessType = AccessType.READ) -> bool:
        """Simulate one reference given its block address; return ``True`` on a hit."""
        return self.access_block_detail(block, access_type)[0]

    def access_block_detail(
        self, block: int, access_type: AccessType = AccessType.READ
    ) -> tuple:
        """One block reference with the miss-path detail the mechanism layer needs.

        Returns ``(hit, evicted_block, compulsory)``: the evicted block address
        (``None`` when nothing left the cache) feeds victim-cache insertion,
        and ``compulsory`` flags a first-touch miss so a mechanism engine can
        classify the misses that survive its own probe.
        """
        cache_set = self._sets[block & self._index_mask]
        before = cache_set.comparisons
        compulsory = False
        if self._track_compulsory:
            if block not in self._seen_blocks:
                compulsory = True
                self._seen_blocks.add(block)
        hit, evicted = cache_set.access(block, is_write=(access_type == AccessType.WRITE))
        self.stats.record(
            hit=hit,
            access_type=access_type,
            compulsory=compulsory and not hit,
            evicted=evicted is not None,
            evicted_dirty=cache_set.evicted_dirty,
            comparisons=cache_set.comparisons - before,
        )
        return hit, evicted, compulsory and not hit

    # -- bulk simulation ------------------------------------------------------

    def run_blocks(
        self,
        blocks: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate a chunk of pre-shifted block addresses (engine pipeline)."""
        if isinstance(blocks, np.ndarray):
            blocks = blocks.tolist()
        access_block = self.access_block
        if access_types is None:
            for block in blocks:
                access_block(block)
            return
        if isinstance(access_types, np.ndarray):
            access_types = access_types.tolist()
        for block, type_code in zip(blocks, access_types):
            access_block(block, AccessType(type_code))

    # -- results --------------------------------------------------------------

    def finalize_frame(self, trace_name: str = "trace") -> ResultsFrame:
        """The configuration's one result row, from :attr:`stats`."""
        stats = self.stats
        config = self.config
        return ResultsFrame(
            [config.num_sets],
            [config.associativity],
            [config.block_size],
            [policy_code(config.policy)],
            [stats.accesses],
            [stats.misses],
            [stats.compulsory_misses],
            simulator_name="single",
            trace_name=trace_name,
        )

    def finalize(self, trace_name: str = "trace") -> SimulationResults:
        """The configuration's one result row (frame-backed view)."""
        return SimulationResults.from_frame(self.finalize_frame(trace_name=trace_name))

    # -- inspection -----------------------------------------------------------

    def resident_blocks(self, set_index: Optional[int] = None) -> List[List[int]]:
        """Blocks currently resident, per set (or for one set)."""
        if set_index is not None:
            return [self._sets[set_index].resident_blocks()]
        return [cache_set.resident_blocks() for cache_set in self._sets]

    def contains_block(self, block: int) -> bool:
        """True when ``block`` (a block address) is resident."""
        cache_set = self._sets[block & self._index_mask]
        return block in cache_set.resident_blocks()

    def reset(self) -> None:
        """Empty the cache and zero the statistics."""
        for cache_set in self._sets:
            cache_set.reset()
        self.stats = CacheStats()
        self._seen_blocks = set()
        self._elapsed = 0.0
