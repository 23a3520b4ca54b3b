"""Tests for the single-configuration reference simulator and the Dinero-style runner."""

import pytest

from repro.cache.dinero import DineroStyleRunner
from repro.cache.simulator import SingleConfigSimulator
from repro.core.config import CacheConfig
from repro.errors import SimulationError
from repro.trace.trace import Trace
from repro.types import AccessType, ReplacementPolicy


class TestSingleConfigSimulator:
    def test_direct_mapped_conflict(self):
        # Two blocks that map to the same set of a direct-mapped cache
        # alternate: every access after the first two must miss.
        config = CacheConfig(num_sets=2, associativity=1, block_size=4)
        simulator = SingleConfigSimulator(config)
        for address in [0, 8, 0, 8, 0, 8]:
            simulator.access(address)
        assert simulator.stats.misses == 6
        assert simulator.stats.hits == 0

    def test_two_way_fifo_holds_both(self):
        config = CacheConfig(num_sets=1, associativity=2, block_size=4)
        simulator = SingleConfigSimulator(config)
        for address in [0, 8, 0, 8, 0, 8]:
            simulator.access(address)
        assert simulator.stats.misses == 2
        assert simulator.stats.hits == 4

    def test_fifo_vs_lru_divergence(self):
        # Classic sequence where FIFO and LRU disagree: with 2 ways,
        # A B A C A -> FIFO evicts A when C arrives (A oldest), LRU evicts B.
        addresses = [0, 8, 0, 16, 0]
        fifo = SingleConfigSimulator(CacheConfig(1, 2, 4, ReplacementPolicy.FIFO))
        fifo.run(addresses)
        lru = SingleConfigSimulator(CacheConfig(1, 2, 4, ReplacementPolicy.LRU))
        lru.run(addresses)
        assert fifo.stats.misses == 4   # A, B, C miss; final A misses (was evicted)
        assert lru.stats.misses == 3    # A, B, C miss; final A hits

    def test_compulsory_miss_classification(self):
        config = CacheConfig(1, 1, 4)
        simulator = SingleConfigSimulator(config, track_compulsory=True)
        for address in [0, 4, 0, 4]:
            simulator.access(address)
        assert simulator.stats.misses == 4
        assert simulator.stats.compulsory_misses == 2

    def test_block_size_merges_addresses(self):
        config = CacheConfig(1, 1, 64)
        simulator = SingleConfigSimulator(config)
        for address in [0, 4, 8, 60, 63]:
            simulator.access(address)
        assert simulator.stats.misses == 1
        assert simulator.stats.hits == 4

    def test_negative_address_rejected(self):
        simulator = SingleConfigSimulator(CacheConfig(1, 1, 4))
        with pytest.raises(SimulationError):
            simulator.access(-4)

    def test_run_with_trace_object(self):
        trace = Trace([0, 4, 0], [0, 1, 0])
        simulator = SingleConfigSimulator(CacheConfig(1, 2, 4))
        simulator.run(trace)
        stats = simulator.stats
        assert stats.accesses == 3
        assert stats.by_type[AccessType.WRITE] == 1

    def test_dirty_evictions_count_writebacks(self):
        write, read = int(AccessType.WRITE), int(AccessType.READ)
        # One 1-way set: W0 R4 W0 R4 all miss, the last three evict, and the
        # two evictions of the written block 0 are writebacks.
        one_way = SingleConfigSimulator(CacheConfig(1, 1, 4))
        one_way.run(Trace([0, 4, 0, 4], [write, read, write, read]))
        assert (one_way.stats.misses, one_way.stats.evictions, one_way.stats.writebacks) == (4, 3, 2)
        # Two FIFO ways: W0 W4 fill both ways dirty, then R8 and R0 evict
        # blocks 0 and 4, both dirty.
        two_way = SingleConfigSimulator(CacheConfig(1, 2, 4, ReplacementPolicy.FIFO))
        two_way.run(Trace([0, 4, 8, 0], [write, write, read, read]))
        assert (two_way.stats.misses, two_way.stats.evictions, two_way.stats.writebacks) == (4, 2, 2)

    def test_contains_block_and_resident(self):
        simulator = SingleConfigSimulator(CacheConfig(2, 1, 4))
        simulator.access(0)
        assert simulator.contains_block(0)
        assert not simulator.contains_block(1)
        assert simulator.resident_blocks(0) == [[0]]

    def test_reset(self):
        simulator = SingleConfigSimulator(CacheConfig(2, 2, 4))
        simulator.run([0, 4, 8, 12])
        simulator.reset()
        assert simulator.stats.accesses == 0
        assert simulator.resident_blocks() == [[], []]


class TestDineroStyleRunner:
    def test_sweep_produces_one_stat_per_config(self, loop_trace):
        configs = [CacheConfig(2**i, 2, 16) for i in range(4)]
        result = DineroStyleRunner(configs).run(loop_trace)
        assert result.passes == 4
        assert set(result.stats) == set(configs)
        assert result.trace_length == len(loop_trace)
        assert result.elapsed_seconds > 0

    def test_larger_caches_never_increase_compulsory_misses(self, mixed_trace):
        configs = [CacheConfig(2**i, 2, 16) for i in range(5)]
        result = DineroStyleRunner(configs).run(mixed_trace)
        compulsory = [result.stats[config].compulsory_misses for config in configs]
        assert len(set(compulsory)) == 1  # compulsory misses depend only on block size

    def test_total_tag_comparisons_sums_configs(self, loop_trace):
        configs = [CacheConfig(1, 2, 16), CacheConfig(2, 2, 16)]
        result = DineroStyleRunner(configs).run(loop_trace)
        assert result.total_tag_comparisons == sum(
            stat.tag_comparisons for stat in result.stats.values()
        )

    def test_miss_count_and_rates_helpers(self, loop_trace):
        config = CacheConfig(4, 2, 16)
        result = DineroStyleRunner([config]).run(loop_trace)
        assert result.miss_count(config) == result.stats[config].misses
        assert config in result.miss_rates()

    def test_as_rows(self, loop_trace):
        configs = [CacheConfig(1, 1, 16), CacheConfig(2, 1, 16)]
        rows = DineroStyleRunner(configs).run(loop_trace).as_rows()
        assert len(rows) == 2
        assert {"num_sets", "misses", "miss_rate"} <= set(rows[0])

    def test_requires_configs(self):
        with pytest.raises(SimulationError):
            DineroStyleRunner([])

    def test_rejects_duplicates(self):
        config = CacheConfig(1, 1, 16)
        with pytest.raises(SimulationError):
            DineroStyleRunner([config, config])
