"""Behavioural tests for the DEW simulator on hand-crafted traces."""

import pytest

from repro.core.config import CacheConfig
from repro.core.dew import DewSimulator
from repro.errors import SimulationError
from repro.types import ReplacementPolicy


class TestDewBasics:
    def test_single_level_direct_mapped(self):
        # One set, one way, block 4: alternating blocks always miss.
        simulator = DewSimulator(block_size=4, associativity=1, set_sizes=(1,))
        results = simulator.run([0, 4, 0, 4])
        config = CacheConfig(1, 1, 4, ReplacementPolicy.FIFO)
        assert results[config].misses == 4
        assert len(results) == 1  # no duplicate direct-mapped entry for A == 1

    def test_reports_assoc_and_direct_mapped(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2))
        results = simulator.run([0, 4, 0, 4])
        assert len(results) == 4
        # two ways hold both blocks -> 2 misses; direct mapped thrashes -> 4.
        assert results[CacheConfig(1, 2, 4)].misses == 2
        assert results[CacheConfig(1, 1, 4)].misses == 4

    def test_fifo_semantics_in_dew(self):
        # A B A C A: FIFO with 2 ways evicts A at C (4 misses total).
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1,))
        results = simulator.run([0, 8, 0, 16, 0])
        assert results[CacheConfig(1, 2, 4)].misses == 4

    def test_larger_block_size_merges_accesses(self):
        simulator = DewSimulator(block_size=64, associativity=2, set_sizes=(1, 2))
        results = simulator.run([0, 4, 60, 63, 64, 127])
        # Only two distinct 64-byte blocks are touched.
        assert results[CacheConfig(1, 2, 64)].misses == 2

    def test_compulsory_miss_tracking(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2))
        results = simulator.run([0, 4, 8, 0, 4, 8])
        for result in results:
            assert result.compulsory_misses == 3

    def test_compulsory_misses_are_handed_over(self):
        # Fed chunk by chunk, the simulator counts no first touches itself:
        # its rows report the distinct-block count it is handed.
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1,))
        simulator.run_blocks([0, 1, 2, 0])
        assert all(result.compulsory_misses == 0 for result in simulator.finalize())
        simulator.set_compulsory(3)
        assert all(result.compulsory_misses == 3 for result in simulator.finalize())

    def test_negative_address_rejected(self):
        simulator = DewSimulator(4, 2, (1, 2))
        with pytest.raises(SimulationError):
            simulator.access(-1)

    def test_requests_and_misses_at_level(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2))
        simulator.run([0, 8, 0])
        assert simulator.requests == 3
        assert simulator.misses_at_level(0) == 2
        assert simulator.misses_at_level(0, direct_mapped=True) == 3

    def test_reset(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2))
        simulator.run([0, 4, 8, 12])
        simulator.reset()
        assert simulator.requests == 0
        assert simulator.counters.node_evaluations == 0
        results = simulator.run([0, 4])
        assert results[CacheConfig(1, 2, 4)].misses == 2

    def test_simulate_fifo_family_helper(self):
        results = DewSimulator(block_size=16, associativity=2,
                               set_sizes=(1, 2, 4)).run([0, 64, 0, 128, 64])
        assert len(results) == 6
        assert results.counters.requests == 5

    def test_elapsed_time_recorded(self):
        results = DewSimulator(block_size=4, associativity=2,
                               set_sizes=(1, 2, 4)).run(range(0, 4000, 4))
        assert results.elapsed_seconds > 0


class TestDewCountersBehaviour:
    def test_mra_hit_on_repeated_block(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2, 4))
        simulator.run([0, 0, 0, 0])
        # After the first access, every subsequent request terminates at the
        # root via the MRA entry.
        assert simulator.counters.mra_hits == 3
        assert simulator.counters.node_evaluations == 3 + 3  # 3 for first access, 1 each after

    def test_mra_stop_avoids_deeper_levels(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2, 4, 8))
        simulator.run([0, 0])
        assert simulator.counters.evaluations_per_level == [2, 1, 1, 1]

    def test_wave_pointer_used_on_revisit(self):
        # Alternate between two blocks that conflict in small caches but not
        # larger ones: revisits exercise the wave-pointer path.
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2, 4))
        simulator.run([0, 8, 16, 0, 8, 16, 0, 8, 16])
        assert simulator.counters.wave_decisions > 0

    def test_mre_used_for_thrashing_pattern(self):
        # Direct-mapped-like thrashing at associativity 1: the evicted block
        # is immediately re-requested, which is exactly the MRE shortcut.
        simulator = DewSimulator(block_size=4, associativity=1, set_sizes=(1,))
        simulator.run([0, 4, 0, 4, 0, 4])
        assert simulator.counters.mre_decisions >= 3

    def test_counter_identity_evaluations(self):
        # Every evaluation is resolved by exactly one mechanism.
        simulator = DewSimulator(block_size=4, associativity=4, set_sizes=(1, 2, 4, 8))
        import random

        rng = random.Random(3)
        simulator.run([rng.randrange(0, 512) for _ in range(500)])
        counters = simulator.counters
        assert (
            counters.mra_hits + counters.wave_decisions + counters.mre_decisions + counters.searches
            == counters.node_evaluations
        )

    def test_tag_comparisons_at_least_evaluations(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2, 4))
        simulator.run(range(0, 400, 4))
        assert simulator.counters.tag_comparisons >= simulator.counters.node_evaluations

    def test_evaluations_bounded_by_unoptimised(self):
        simulator = DewSimulator(block_size=4, associativity=2, set_sizes=(1, 2, 4, 8))
        simulator.run(range(0, 1000, 4))
        counters = simulator.counters
        assert counters.node_evaluations <= counters.unoptimised_node_evaluations
