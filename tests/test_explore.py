"""Tests for the design-space exploration layer (energy, Pareto, tuner)."""

import numpy as np
import pytest

from repro.core.config import CacheConfig
from repro.core.results import ConfigResult, ResultsFrame
from repro.errors import ExplorationError
from repro.explore.energy import EnergyModel
from repro.explore.pareto import pareto_front_frame, pareto_mask
from repro.explore.tuner import CacheTuner, TuningConstraints


def _results() -> ResultsFrame:
    data = [
        (CacheConfig(16, 1, 16), 400),    # 256 B, many misses
        (CacheConfig(64, 2, 16), 150),    # 2 KB
        (CacheConfig(256, 2, 16), 60),    # 8 KB
        (CacheConfig(512, 4, 32), 20),    # 64 KB
        (CacheConfig(1024, 8, 64), 18),   # 512 KB, tiny improvement
    ]
    return ResultsFrame.from_results(
        [ConfigResult(config, accesses=1000, misses=misses) for config, misses in data],
        simulator_name="test",
        trace_name="t",
    )


def _estimate(config, accesses, misses):
    """The energy estimate of one configuration's result."""
    frame = ResultsFrame.from_results([ConfigResult(config, accesses=accesses, misses=misses)])
    return EnergyModel().estimate_frame(frame).estimate_at(0)


class TestEnergyModel:
    def test_hit_energy_grows_with_capacity_and_ways(self):
        model = EnergyModel()
        small = model.hit_energy_nj(CacheConfig(16, 1, 16))
        large = model.hit_energy_nj(CacheConfig(1024, 1, 16))
        wide = model.hit_energy_nj(CacheConfig(16, 8, 16))
        assert large > small
        assert wide > small

    def test_miss_cost_grows_with_block_size(self):
        model = EnergyModel()
        assert model.miss_cost_nj(CacheConfig(16, 1, 64)) > model.miss_cost_nj(CacheConfig(16, 1, 4))

    def test_access_time_grows_with_capacity(self):
        model = EnergyModel()
        assert model.access_time_ns(CacheConfig(1024, 4, 32)) > model.access_time_ns(CacheConfig(4, 1, 4))

    def test_estimate_components_sum(self):
        estimate = _estimate(CacheConfig(64, 2, 16), accesses=1000, misses=100)
        assert estimate.total_energy_nj == pytest.approx(
            estimate.hit_energy_nj + estimate.miss_energy_nj + estimate.leakage_nj
        )
        assert estimate.average_access_time_ns > 0
        assert estimate.as_dict()["misses"] == 100

    def test_estimate_empty_trace(self):
        estimate = _estimate(CacheConfig(64, 2, 16), accesses=0, misses=0)
        assert estimate.average_access_time_ns == 0.0

    def test_fewer_misses_lower_energy_same_config(self):
        config = CacheConfig(64, 2, 16)
        good = _estimate(config, accesses=1000, misses=10)
        bad = _estimate(config, accesses=1000, misses=500)
        assert good.total_energy_nj < bad.total_energy_nj

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ExplorationError):
            EnergyModel(base_hit_energy_nj=0)

    def test_estimate_all(self):
        frame = _results()
        estimates = EnergyModel().estimate_frame(frame)
        assert len(estimates) == 5
        assert [estimates.estimate_at(row).config for row in range(5)] == frame.configs()


class TestPareto:
    def test_domination(self):
        a, b, c = (1.0, 1.0), (2.0, 2.0), (0.5, 3.0)
        # a dominates b; a and c do not dominate each other.
        assert pareto_mask(np.array([a, b])).tolist() == [True, False]
        assert pareto_mask(np.array([b, a])).tolist() == [False, True]
        assert pareto_mask(np.array([a, c])).tolist() == [True, True]

    def test_domination_requires_same_arity(self):
        with pytest.raises(ExplorationError):
            pareto_mask(np.array([1.0, 2.0]))

    def test_pareto_front_removes_dominated(self):
        metrics = np.array([
            (1.0, 5.0),
            (2.0, 3.0),
            (3.0, 4.0),   # dominated by (2, 3)
            (4.0, 1.0),
        ])
        assert pareto_mask(metrics).tolist() == [True, True, False, True]

    def test_size_missrate_front_is_monotone(self):
        frame = _results()
        front = pareto_front_frame(frame)
        sizes = frame.total_sizes()[front].tolist()
        rates = frame.miss_rate_column()[front].tolist()
        ordered = sorted(zip(sizes, rates))
        assert all(ordered[i][1] >= ordered[i + 1][1] for i in range(len(ordered) - 1))
        # The huge cache with nearly no improvement is still non-dominated
        # (strictly fewer misses), so all five may appear; at minimum the
        # small thrashing cache must survive as the cheapest point.
        assert min(sizes) == 256

    def test_front_from_results_and_rows(self):
        frame = _results()
        front = pareto_front_frame(frame, ("total_size", "misses"))
        rows = [frame.result_at(int(row)).as_dict() for row in front]
        assert rows and {"num_sets", "total_size", "misses"} <= set(rows[0])


class TestTuner:
    def test_objective_misses_picks_lowest_misses(self):
        outcome = CacheTuner(objective="misses").tune_frame(_results())
        assert outcome.best.misses == 18

    def test_energy_objective_prefers_balanced_config(self):
        outcome = CacheTuner(objective="energy").tune_frame(_results())
        # The 512 KB cache pays enormous leakage/dynamic energy; the tuned
        # choice must be one of the mid-size caches.
        assert outcome.best.config.total_size <= 64 << 10

    def test_size_constraint(self):
        constraints = TuningConstraints(max_total_size=8 << 10)
        outcome = CacheTuner(objective="misses").tune_frame(_results(), constraints)
        assert outcome.best.config.total_size <= 8 << 10
        assert outcome.best.misses == 60

    def test_miss_rate_and_associativity_constraints(self):
        constraints = TuningConstraints(max_miss_rate=0.1, min_associativity=2, max_associativity=4)
        outcome = CacheTuner(objective="energy").tune_frame(_results(), constraints)
        assert outcome.best.miss_rate <= 0.1
        assert 2 <= outcome.best.config.associativity <= 4

    def test_unsatisfiable_constraints(self):
        with pytest.raises(ExplorationError):
            CacheTuner().tune_frame(_results(), TuningConstraints(max_total_size=8))

    def test_unknown_objective(self):
        with pytest.raises(ExplorationError):
            CacheTuner(objective="speed")

    def test_rank_ordering(self):
        ranked = CacheTuner(objective="misses").rank_frame(_results(), top=3)
        misses = [outcome.best.misses for outcome in ranked]
        assert misses == sorted(misses)
        assert len(ranked) == 3

    def test_tune_from_results_helper(self):
        outcome = CacheTuner(objective="amat").tune_frame(_results())
        assert outcome.candidates_considered == 5
        assert outcome.as_dict()["config"]

    def test_edp_objective_runs(self):
        outcome = CacheTuner(objective="edp").tune_frame(_results())
        assert outcome.objective_value > 0
