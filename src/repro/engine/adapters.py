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
``janapsatya-crcb``       same, with CRCB-style consecutive-same-block pruning
                          applied chunk by chunk (results stay exact)
``lru-stack``             :class:`repro.lru.stack.StackDistanceEngine`
                          (fully-associative LRU, every capacity in one pass)
========================  ====================================================
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.cache.simulator import SingleConfigSimulator
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.core.counters import DewCounters
from repro.core.dew import DewSimulator
from repro.core.results import ConfigResult, ResultsFrame, SimulationResults, policy_code
from repro.engine.base import Engine, register_engine
from repro.errors import ConfigurationError, SimulationError
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.lru.stack import StackDistanceEngine
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace
from repro.types import ReplacementPolicy, is_power_of_two, log2_exact

BlockChunk = Union[Sequence[int], np.ndarray]
TypeChunk = Optional[Union[Sequence[int], np.ndarray]]


@register_engine("dew")
class DewEngine(Engine):
    """Single-pass multi-configuration FIFO simulation (the paper's DEW).

    With ``collapse=True`` whole-trace runs feed the simulator run-length
    collapsed chunks (consecutive same-block accesses become bulk MRA hits,
    see :meth:`~repro.core.dew.DewSimulator.run_block_runs`); results and
    work counters are identical either way, so the switch is a pure
    performance knob for :meth:`run`.  The fused sweep executor has no such
    option: it always feeds this engine run-length collapsed chunks.
    """

    supports_block_runs = True

    def __init__(
        self,
        block_size: int,
        associativity: int,
        set_sizes: Optional[Sequence[int]] = None,
        collapse: bool = False,
        **simulator_options: bool,
    ) -> None:
        super().__init__()
        self.collapse = bool(collapse)
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

    def run(
        self,
        trace: Union[Trace, Iterable[int]],
        trace_name: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> SimulationResults:
        if not (self.collapse and isinstance(trace, Trace)):
            return super().run(trace, trace_name=trace_name, chunk_size=chunk_size)
        start = time.perf_counter()
        for values, counts in trace.iter_block_runs(self.offset_bits, chunk_size):
            self.simulator.run_block_runs(values, counts)
        self._elapsed += time.perf_counter() - start
        results = self.finalize(trace_name=trace_name or trace.name)
        results.elapsed_seconds = self._elapsed
        return results

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        self.simulator.run_blocks(blocks)

    def run_block_runs(
        self, values: BlockChunk, counts: BlockChunk, access_types: TypeChunk = None
    ) -> None:
        self.simulator.run_block_runs(values, counts)

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


@register_engine("janapsatya-crcb")
class CrcbJanapsatyaEngine(JanapsatyaEngine):
    """Janapsatya LRU with streaming CRCB pruning.

    Consecutive accesses to the same block are pruned before they reach the
    simulator — chunk by chunk, carrying the last block across chunk
    boundaries — and folded back in as universal hits at finalize time, so
    miss counts stay exact (Tojo et al.'s observation).
    """

    def __init__(
        self,
        block_size: int,
        associativities: Sequence[int],
        set_sizes: Sequence[int],
        use_mru_stop: bool = True,
    ) -> None:
        super().__init__(block_size, associativities, set_sizes, use_mru_stop=use_mru_stop)
        self._last_block: Optional[int] = None
        self._pending_pruned = 0

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        arr = np.asarray(blocks, dtype=np.int64)
        if arr.size == 0:
            return
        keep = np.ones(arr.size, dtype=bool)
        keep[1:] = arr[1:] != arr[:-1]
        if self._last_block is not None and int(arr[0]) == self._last_block:
            keep[0] = False
        kept = arr[keep]
        self._pending_pruned += int(arr.size - kept.size)
        self._last_block = int(arr[-1])
        if kept.size:
            self.simulator.run_blocks(kept)

    def run_block_runs(
        self, values: BlockChunk, counts: BlockChunk, access_types: TypeChunk = None
    ) -> None:
        # A run-length-collapsed chunk is exactly what CRCB pruning computes:
        # each run's head is the one access the simulator sees, the rest of
        # the run is pruned (and folded back in as universal hits at
        # finalize).  Consuming runs natively therefore skips re-deriving
        # the keep mask — only the chunk-boundary carry needs handling, plus
        # the defensive same-value-adjacent-runs case for non-canonical
        # inputs.
        arr = np.asarray(values, dtype=np.int64)
        counts_arr = np.asarray(counts, dtype=np.int64)
        if counts_arr.size != arr.size:
            raise SimulationError(
                f"run-length chunk mismatch: {arr.size} values vs "
                f"{counts_arr.size} counts"
            )
        if arr.size == 0:
            return
        if counts_arr.min() < 1:
            raise SimulationError("run-length counts must be positive")
        keep = np.ones(arr.size, dtype=bool)
        keep[1:] = arr[1:] != arr[:-1]
        if self._last_block is not None and int(arr[0]) == self._last_block:
            keep[0] = False
        kept = arr[keep]
        self._pending_pruned += int(counts_arr.sum()) - int(kept.size)
        self._last_block = int(arr[-1])
        if kept.size:
            self.simulator.run_blocks(kept)

    def finalize(self, trace_name: str = "trace") -> SimulationResults:
        if self._pending_pruned:
            self.simulator.account_pruned_hits(self._pending_pruned)
            self._pending_pruned = 0
        return super().finalize(trace_name=trace_name)

    def reset(self) -> None:
        super().reset()
        self._last_block = None
        self._pending_pruned = 0


@register_engine("lru-stack")
class StackDistanceLruEngine(Engine):
    """Fully-associative LRU via Mattson stack distances.

    One pass yields exact miss counts for every requested capacity: an access
    with stack distance ``d`` hits every fully-associative LRU cache holding
    more than ``d`` blocks.
    """

    def __init__(self, block_size: int, capacities: Sequence[int]) -> None:
        super().__init__()
        if not is_power_of_two(block_size):
            raise ConfigurationError(f"block size must be a power of two, got {block_size}")
        if not capacities:
            raise ConfigurationError("at least one capacity is required")
        self.block_size = block_size
        self.capacities = tuple(sorted(set(int(c) for c in capacities)))
        if self.capacities[0] < 1:
            raise ConfigurationError("capacities must be positive")
        self._offset_bits = log2_exact(block_size)
        self._stack = StackDistanceEngine()
        self._misses: Dict[int, int] = {capacity: 0 for capacity in self.capacities}
        self._requests = 0
        self._compulsory = 0

    @property
    def offset_bits(self) -> int:
        return self._offset_bits

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        if isinstance(blocks, np.ndarray):
            blocks = blocks.tolist()
        access = self._stack.access
        misses = self._misses
        capacities = self.capacities
        self._requests += len(blocks)
        for block in blocks:
            distance = access(block)
            if distance < 0:
                self._compulsory += 1
                for capacity in capacities:
                    misses[capacity] += 1
                continue
            for capacity in capacities:
                # Capacities are sorted: once one holds the block, all do.
                if distance < capacity:
                    break
                misses[capacity] += 1

    def finalize(self, trace_name: str = "trace") -> SimulationResults:
        results = SimulationResults(
            simulator_name=self.family, trace_name=trace_name
        )
        for capacity in self.capacities:
            results.add(
                ConfigResult(
                    config=CacheConfig(1, capacity, self.block_size, ReplacementPolicy.LRU),
                    accesses=self._requests,
                    misses=self._misses[capacity],
                    compulsory_misses=self._compulsory,
                )
            )
        return results

    def reset(self) -> None:
        self._stack = StackDistanceEngine()
        self._misses = {capacity: 0 for capacity in self.capacities}
        self._requests = 0
        self._compulsory = 0
        self._elapsed = 0.0
