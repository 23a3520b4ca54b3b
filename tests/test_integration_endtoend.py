"""End-to-end integration tests: workload -> DEW -> exploration -> decision.

These tests exercise the same pipeline the examples and the paper's use case
describe: generate an application-like trace, simulate a whole configuration
family in one pass, verify it, and drive cache selection from the results.
"""

import pytest

from repro.cache.dinero import DineroStyleRunner
from repro.core.config import CacheConfig, ConfigSpace
from repro.core.dew import DewSimulator
from repro.explore.pareto import pareto_front_frame
from repro.explore.tuner import CacheTuner, TuningConstraints
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.types import ReplacementPolicy
from repro.verify.crosscheck import cross_check_space
from repro.workloads.mediabench import mediabench_trace

SET_SIZES = tuple(2**i for i in range(9))


@pytest.fixture(scope="module")
def app_trace():
    return mediabench_trace("djpeg", 6000, seed=42)


@pytest.fixture(scope="module")
def dew_results(app_trace):
    return DewSimulator(block_size=32, associativity=4, set_sizes=SET_SIZES).run(app_trace)


class TestSinglePassFamilySimulation:
    def test_family_covers_expected_configs(self, dew_results):
        assert len(dew_results) == 2 * len(SET_SIZES)
        assert CacheConfig(256, 4, 32) in dew_results
        assert CacheConfig(256, 1, 32) in dew_results

    def test_miss_rates_trend_downwards_with_capacity(self, dew_results):
        misses = [dew_results[CacheConfig(s, 4, 32)].misses for s in SET_SIZES]
        # Not necessarily monotone for FIFO, but the largest cache must do at
        # least as well as the smallest, and dramatically so for a workload
        # with locality.
        assert misses[-1] < misses[0]
        assert misses[-1] <= min(misses) * 1.01 + 1

    def test_results_match_baseline_sweep(self, app_trace, dew_results):
        configs = [CacheConfig(s, a, 32) for a in (1, 4) for s in SET_SIZES]
        baseline = DineroStyleRunner(configs).run(app_trace)
        for config in configs:
            assert baseline.stats[config].misses == dew_results[config].misses

    def test_dew_is_faster_than_baseline(self, app_trace):
        simulator = DewSimulator(block_size=32, associativity=4, set_sizes=SET_SIZES)
        dew_run = simulator.run(app_trace)
        configs = [CacheConfig(s, a, 32) for a in (1, 4) for s in SET_SIZES]
        baseline = DineroStyleRunner(configs).run(app_trace)
        assert dew_run.elapsed_seconds < baseline.elapsed_seconds


class TestExplorationPipeline:
    def test_pareto_and_tuner_agree_with_results(self, dew_results):
        front = [dew_results.config_at(int(row)) for row in pareto_front_frame(dew_results)]
        assert front
        constraints = TuningConstraints(max_total_size=16 << 10)
        outcome = CacheTuner(objective="misses").tune_frame(dew_results, constraints)
        assert outcome.best.config.total_size <= 16 << 10
        # The tuned configuration cannot be dominated in (size, miss rate).
        for config in front:
            if config == outcome.best.config:
                break
        else:
            # Not on the front is possible only if another config has equal
            # misses with smaller size; verify the tuner picked minimal misses
            # among admissible configurations.
            admissible = [r for r in dew_results if r.config.total_size <= 16 << 10]
            assert outcome.best.misses == min(r.misses for r in admissible)

    def test_policy_comparison_fifo_vs_lru(self, app_trace):
        """The library can reproduce the FIFO-vs-LRU comparison the paper cites."""
        fifo = DewSimulator(block_size=32, associativity=4, set_sizes=SET_SIZES).run(app_trace)
        lru = JanapsatyaSimulator(block_size=32, associativities=(4,), set_sizes=SET_SIZES).run(app_trace)
        for num_sets in SET_SIZES:
            fifo_misses = fifo[CacheConfig(num_sets, 4, 32, ReplacementPolicy.FIFO)].misses
            lru_misses = lru[CacheConfig(num_sets, 4, 32, ReplacementPolicy.LRU)].misses
            # Both are exact simulators of the same trace; FIFO can be better
            # or worse than LRU, but never by an implausible margin on a
            # locality-bearing workload.
            assert fifo_misses > 0 and lru_misses > 0
            assert fifo_misses < 3 * lru_misses + 10


class TestWholeSpaceVerification:
    def test_cross_check_embedded_space(self, app_trace):
        space = ConfigSpace(
            set_sizes=[2**i for i in range(6)],
            associativities=[1, 2, 4],
            block_sizes=[16, 64],
            policy=ReplacementPolicy.FIFO,
        )
        reports = cross_check_space(app_trace[:2500], space)
        assert all(report.exact for report in reports.values())
        checked = sum(report.configs_checked for report in reports.values())
        assert checked == 4 * 12  # 4 runs x (6 set sizes x 2 associativities)
