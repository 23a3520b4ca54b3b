"""Tests for the LRU substrate: stack distances and the Janapsatya simulator."""

import random

import numpy as np
import pytest

from repro.cache.simulator import SingleConfigSimulator
from repro.core.config import CacheConfig
from repro.errors import ConfigurationError, SimulationError
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.trace.stats import reuse_distances
from repro.trace.trace import Trace
from repro.types import ReplacementPolicy
from repro.workloads.mediabench import mediabench_trace
from repro.workloads.synthetic import WorkingSetGenerator
from walks import WALKS, walk_under_test, walks_here


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
        # With ``runs``, each address repeats one to four times in a row, so
        # the walk meets same-block runs (MRU hits at every level).
        rng = random.Random(17)
        addresses = [rng.randrange(0, 2048) for _ in range(700)]
        if runs:
            addresses = [a for a in addresses for _ in range(rng.randint(1, 4))]
        trace = Trace(addresses, name="rand")
        simulator = JanapsatyaSimulator(
            block_size=8,
            associativities=(1, 2, 4),
            set_sizes=self.SET_SIZES,
            use_mru_stop=use_mru_stop,
        )
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

    @pytest.mark.parametrize("walk", WALKS)
    @pytest.mark.parametrize("blocks", [[3, -1, -1, 2**70], [2**63 - 1], np.array([5, -7])])
    def test_out_of_range_block_raises(self, walk, blocks):
        with walk_under_test(walk):
            simulator = JanapsatyaSimulator(4, (2,), (1, 2))
        simulator.run_blocks([6, 6])
        before = (simulator.counters.as_dict(), simulator.recency_lists())
        with pytest.raises(SimulationError, match="outside"):
            simulator.run_blocks(blocks)
        # The rejected chunk changed nothing.
        assert (simulator.counters.as_dict(), simulator.recency_lists()) == before
        assert [row.accesses for row in simulator.finalize()] == [2, 2]

    def test_largest_valid_block_is_accepted(self):
        for walk in walks_here():
            with walk_under_test(walk):
                simulator = JanapsatyaSimulator(4, (1, 2), (1, 2))
            simulator.run_blocks([2**63 - 2, 2**63 - 2, 0])
            assert simulator.recency_lists() == [[[0, 2**63 - 2]], [[0, 2**63 - 2], []]], walk
            assert [row.misses for row in simulator.finalize()] == [2, 2, 2, 2], walk

    def test_non_int64_or_non_contiguous_chunks_are_converted(self):
        blocks = mediabench_trace("cjpeg", 4000, seed=5).addresses >> 4
        doubled = np.repeat(blocks, 2)
        assert not doubled[::2].flags.c_contiguous
        for walk in walks_here():

            def rows_and_counters(chunks):
                with walk_under_test(walk):
                    simulator = JanapsatyaSimulator(16, (1, 2, 4), (1, 2, 4, 8, 16, 32))
                for chunk in chunks:
                    simulator.run_blocks(chunk)
                return simulator.finalize().to_json(), simulator.counters.as_dict()

            expected = rows_and_counters([blocks[:2000], blocks[2000:]])
            assert rows_and_counters([blocks.astype(np.int32)]) == expected, walk
            assert rows_and_counters([doubled[::2]]) == expected, walk
            assert rows_and_counters([blocks.astype(np.uint64)]) == expected, walk
            assert rows_and_counters([blocks.tolist()]) == expected, walk

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(3, (2,), (1, 2))
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(4, (), (1, 2))
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(4, (2,), (1, 4))
        with pytest.raises(ConfigurationError):
            JanapsatyaSimulator(4, (0,), (1, 2))



class TestCompulsoryMisses:
    def test_every_lru_row_reports_the_single_engines_compulsory_misses(self):
        # The single engine classifies each miss as it happens (first touches
        # flagged); the LRU rows report the sweep's distinct-block count.
        from repro.engine.sweep import build_grid_jobs, run_sweep

        trace = mediabench_trace("cjpeg", 4000, seed=5)
        jobs = build_grid_jobs((4, 32), (1, 2, 4), (1, 2, 4, 8, 16, 32, 64), ("lru",))
        rows = [row for row in run_sweep(trace, jobs).merged()]
        assert len(rows) == 2 * 3 * 7
        for walk in walks_here():
            for row in rows:
                with walk_under_test(walk):
                    single = SingleConfigSimulator(row.config, track_compulsory=True)
                blocks = trace.addresses >> single.offset_bits
                for start in range(0, blocks.size, 1000):
                    stop = start + 1000
                    single.run_blocks(blocks[start:stop], trace.access_types[start:stop])
                assert row.misses == single.stats.misses, (walk, row.config)
                assert row.compulsory_misses == single.stats.compulsory_misses > 0, (
                    walk, row.config
                )
