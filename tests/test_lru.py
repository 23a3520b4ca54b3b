"""Tests for the LRU substrate: stack distances and the Janapsatya simulator."""

import random

import numpy as np
import pytest

from repro.cache.simulator import SingleConfigSimulator
from repro.core.config import CacheConfig
from repro.errors import ConfigurationError
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.trace.stats import reuse_distances
from repro.trace.trace import Trace
from repro.types import ReplacementPolicy
from repro.workloads.synthetic import WorkingSetGenerator


def stack_distances(blocks):
    return reuse_distances(np.asarray(blocks, dtype=np.int64))


class TestStackDistances:
    def test_first_touch_is_minus_one(self):
        assert stack_distances([1, 2, 3]) == [-1, -1, -1]

    def test_immediate_reuse_is_zero(self):
        assert stack_distances([7, 7]) == [-1, 0]

    def test_classic_sequence(self):
        # a b c b a: b reused over {c} -> 1, a reused over {b, c} -> 2
        assert stack_distances([1, 2, 3, 2, 1]) == [-1, -1, -1, 1, 2]

    def test_matches_fully_associative_lru_cache(self):
        rng = random.Random(5)
        blocks = [rng.randrange(0, 64) for _ in range(500)]
        distances = stack_distances(blocks)
        for capacity in (1, 2, 4, 8, 16):
            expected_hits = sum(1 for d in distances if 0 <= d < capacity)
            reference = SingleConfigSimulator(CacheConfig(1, capacity, 1, ReplacementPolicy.LRU))
            for block in blocks:
                reference.access(block)
            assert reference.stats.hits == expected_hits


class TestJanapsatyaSimulator:
    SET_SIZES = (1, 2, 4, 8, 16)

    def _reference_misses(self, addresses, config):
        reference = SingleConfigSimulator(config)
        for address in addresses:
            reference.access(address)
        return reference.stats.misses

    @pytest.mark.parametrize("use_mru_stop", [True, False])
    @pytest.mark.parametrize("runs", [True, False])
    def test_exact_against_reference(self, use_mru_stop, runs):
        rng = random.Random(17)
        addresses = [rng.randrange(0, 2048) for _ in range(700)]
        trace = Trace(addresses, name="rand")
        simulator = JanapsatyaSimulator(
            block_size=8,
            associativities=(1, 2, 4),
            set_sizes=self.SET_SIZES,
            use_mru_stop=use_mru_stop,
        )
        if runs:
            for values, counts in trace.iter_block_runs(simulator.offset_bits):
                simulator.run_block_runs(values, counts)
            results = simulator.finalize()
        else:
            results = simulator.run(trace)
        for config in results.configs():
            assert config.policy is ReplacementPolicy.LRU
            assert results[config].misses == self._reference_misses(addresses, config), config.label()
            assert results[config].accesses == len(addresses)

    def test_structured_trace_exact(self):
        trace = WorkingSetGenerator(hot_bytes=512, cold_bytes=8192).generate(800, seed=3)
        results = JanapsatyaSimulator(block_size=16, associativities=(1, 2, 4, 8),
                                      set_sizes=self.SET_SIZES).run(trace)
        for config in results.configs():
            assert results[config].misses == self._reference_misses(trace.address_list(), config)

    def test_mru_stop_reduces_evaluations(self):
        trace = WorkingSetGenerator(hot_bytes=256, cold_bytes=4096).generate(800, seed=4)
        fast = JanapsatyaSimulator(8, (2,), self.SET_SIZES, use_mru_stop=True)
        fast.run(trace)
        slow = JanapsatyaSimulator(8, (2,), self.SET_SIZES, use_mru_stop=False)
        slow.run(trace)
        assert fast.counters.mru_stops > 0
        assert fast.counters.node_evaluations < slow.counters.node_evaluations

    def test_inclusion_property_of_results(self):
        # LRU hit counts must be monotone in both set size and associativity.
        rng = random.Random(23)
        addresses = [rng.randrange(0, 4096) for _ in range(600)]
        results = JanapsatyaSimulator(block_size=4, associativities=(1, 2, 4),
                                      set_sizes=self.SET_SIZES).run(addresses)
        for config in results.configs():
            double_sets = CacheConfig(config.num_sets * 2, config.associativity,
                                      config.block_size, ReplacementPolicy.LRU)
            if double_sets in results:
                assert results[double_sets].misses <= results[config].misses
            double_ways = CacheConfig(config.num_sets, config.associativity * 2,
                                      config.block_size, ReplacementPolicy.LRU)
            if double_ways in results:
                assert results[double_ways].misses <= results[config].misses

    def test_reset(self):
        simulator = JanapsatyaSimulator(4, (2,), (1, 2))
        simulator.run([0, 4, 8, 0])
        simulator.reset()
        assert simulator.counters.requests == 0
        results = simulator.run([0, 4])
        assert results[CacheConfig(1, 2, 4, ReplacementPolicy.LRU)].misses == 2

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(3, (2,), (1, 2))
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(4, (), (1, 2))
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(4, (2,), (1, 4))
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(4, (0,), (1, 2))

