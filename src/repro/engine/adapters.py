"""Registry adapters driving every simulator through the :class:`Engine` API.

========================  ====================================================
registry key              underlying simulator
========================  ====================================================
``dew``                   :class:`repro.core.dew.DewSimulator` (one pass, all
                          set sizes of one FIFO ``(B, A)`` family + direct
                          mapped for free)
``single``                :class:`repro.cache.simulator.SingleConfigSimulator`
                          (one Dinero-style configuration, any policy)
``janapsatya``            :class:`repro.lru.janapsatya.JanapsatyaSimulator`
                          (one pass, all set sizes x associativities, LRU)
========================  ====================================================
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.cache.simulator import SingleConfigSimulator
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.core.counters import DewCounters
from repro.core.dew import DewSimulator
from repro.core.results import ResultsFrame, SimulationResults, policy_code
from repro.engine.base import Engine, register_engine
from repro.errors import ConfigurationError
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.types import ReplacementPolicy

BlockChunk = Union[Sequence[int], np.ndarray]
TypeChunk = Optional[Union[Sequence[int], np.ndarray]]


@register_engine("dew")
class DewEngine(Engine):
    """Single-pass multi-configuration FIFO simulation (the paper's DEW).

    Takes raw block chunks only: the kernel walk decides an immediately
    repeated block (a root MRA hit, Property 2) with one comparison, so
    run-length collapsed chunks would not pay.  The simulator takes its
    first-touch set difference over each chunk's run heads (see
    :meth:`~repro.core.dew.DewSimulator.run_blocks`).
    """

    def __init__(
        self,
        block_size: int,
        associativity: int,
        set_sizes: Optional[Sequence[int]] = None,
        **simulator_options: bool,
    ) -> None:
        super().__init__()
        self.simulator = DewSimulator(
            block_size, associativity, set_sizes, **simulator_options
        )

    @property
    def offset_bits(self) -> int:
        return self.simulator.tree.offset_bits

    @property
    def counters(self) -> DewCounters:
        """Work counters of the underlying DEW simulator."""
        return self.simulator.counters

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        self.simulator.run_blocks(blocks)

    def finalize(self, trace_name: str = "trace") -> SimulationResults:
        return self.simulator.results(trace_name=trace_name)

    def finalize_frame(self, trace_name: str = "trace") -> ResultsFrame:
        return self.simulator.results_frame(trace_name=trace_name)

    def reset(self) -> None:
        self.simulator.reset()
        self._elapsed = 0.0


@register_engine("single")
class SingleConfigEngine(Engine):
    """One Dinero-style configuration; the reference for every policy."""

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
        self.simulator = SingleConfigSimulator(
            config, seed=seed, track_compulsory=track_compulsory
        )

    @property
    def offset_bits(self) -> int:
        return self.config.offset_bits

    @property
    def stats(self) -> CacheStats:
        """Dinero-style statistics of the underlying simulator."""
        return self.simulator.stats

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        self.simulator.run_blocks(blocks, access_types)

    def finalize(self, trace_name: str = "trace") -> SimulationResults:
        return SimulationResults.from_frame(self.finalize_frame(trace_name=trace_name))

    def finalize_frame(self, trace_name: str = "trace") -> ResultsFrame:
        stats = self.simulator.stats
        config = self.config
        return ResultsFrame(
            [config.num_sets],
            [config.associativity],
            [config.block_size],
            [policy_code(config.policy)],
            [stats.accesses],
            [stats.misses],
            [stats.compulsory_misses],
            simulator_name=self.family,
            trace_name=trace_name,
        )

    def reset(self) -> None:
        self.simulator.reset()
        self._elapsed = 0.0


@register_engine("janapsatya")
class JanapsatyaEngine(Engine):
    """Single-pass multi-configuration LRU simulation (Janapsatya-style).

    Accepts run-length-collapsed chunks: an immediately-repeated block hits
    at the MRU position of every level's set (a universal hit, no recency
    movement), so only each run's head needs the walk — see
    :meth:`repro.lru.janapsatya.JanapsatyaSimulator.run_block_runs`.
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
        self.simulator = JanapsatyaSimulator(
            block_size, associativities, set_sizes, use_mru_stop=use_mru_stop
        )

    @property
    def offset_bits(self) -> int:
        return self.simulator.offset_bits

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        self.simulator.run_blocks(blocks)

    def run_block_runs(
        self, values: BlockChunk, counts: BlockChunk, access_types: TypeChunk = None
    ) -> None:
        self.simulator.run_block_runs(values, counts)

    def finalize(self, trace_name: str = "trace") -> SimulationResults:
        return self.simulator.results(trace_name=trace_name)

    def reset(self) -> None:
        self.simulator.reset()
        self._elapsed = 0.0
