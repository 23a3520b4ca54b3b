"""Tests for DewCounters, ConfigResult and a ResultsFrame's row lookups."""

import pytest

from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.core.counters import DewCounters
from repro.core.results import ConfigResult, ResultsFrame
from repro.errors import ExplorationError, SimulationError
from repro.explore.tuner import CacheTuner, TuningConstraints
from repro.types import AccessType


class TestDewCounters:
    def test_unoptimised_evaluations(self):
        counters = DewCounters(requests=10)
        counters.ensure_levels(5)
        assert counters.unoptimised_node_evaluations == 50

    def test_evaluation_reduction(self):
        counters = DewCounters(requests=10, node_evaluations=20)
        counters.ensure_levels(4)
        assert counters.evaluation_reduction() == pytest.approx(0.5)

    def test_evaluation_reduction_empty(self):
        assert DewCounters().evaluation_reduction() == 0.0

    def test_decisions_without_search(self):
        counters = DewCounters(mra_hits=3, wave_decisions=4, mre_decisions=5)
        assert counters.decisions_without_search == 12

    def test_average_evaluations_per_request(self):
        counters = DewCounters(requests=4, node_evaluations=10)
        assert counters.average_evaluations_per_request == 2.5
        assert DewCounters().average_evaluations_per_request == 0.0

    def test_merge(self):
        a = DewCounters(requests=5, node_evaluations=10, mra_hits=2, tag_comparisons=30)
        a.ensure_levels(3)
        a.evaluations_per_level = [5, 3, 2]
        b = DewCounters(requests=7, node_evaluations=14, mra_hits=1, tag_comparisons=40)
        b.ensure_levels(2)
        b.evaluations_per_level = [7, 7]
        merged = a.merge(b)
        assert merged.requests == 12
        assert merged.node_evaluations == 24
        assert merged.tag_comparisons == 70
        assert merged.evaluations_per_level == [12, 10, 2]

    def test_as_dict_keys(self):
        data = DewCounters(requests=1).as_dict()
        assert {"requests", "node_evaluations", "mra_hits", "searches", "tag_comparisons"} <= set(data)


class TestConfigResult:
    def test_derived_quantities(self):
        result = ConfigResult(CacheConfig(4, 2, 16), accesses=100, misses=25, compulsory_misses=5)
        assert result.hits == 75
        assert result.miss_rate == 0.25
        assert result.hit_rate == 0.75

    def test_empty_trace(self):
        result = ConfigResult(CacheConfig(4, 2, 16), accesses=0, misses=0)
        assert result.miss_rate == 0.0
        assert result.hit_rate == 0.0

    def test_as_dict(self):
        data = ConfigResult(CacheConfig(4, 2, 16), accesses=10, misses=3).as_dict()
        assert data["misses"] == 3
        assert data["total_size"] == 4 * 2 * 16


class TestSimulationResults:
    """The lookups and reports a run's results offer, on the one container."""

    ROWS = [
        ConfigResult(CacheConfig(1, 2, 16), accesses=100, misses=40),
        ConfigResult(CacheConfig(2, 2, 16), accesses=100, misses=30),
        ConfigResult(CacheConfig(4, 2, 16), accesses=100, misses=10),
    ]

    def _make(self, rows=ROWS):
        return ResultsFrame.from_results(rows, simulator_name="test", trace_name="t")

    def test_container_protocol(self):
        results = self._make()
        assert len(results) == 3
        assert CacheConfig(2, 2, 16) in results
        assert CacheConfig(64, 2, 16) not in results
        assert results[CacheConfig(2, 2, 16)].misses == 30
        assert [r.config.num_sets for r in results] == [1, 2, 4]
        assert results.configs() == [r.config for r in self.ROWS]

    def test_duplicate_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            self._make(self.ROWS + [ConfigResult(CacheConfig(1, 2, 16), accesses=1, misses=0)])

    def test_missing_config_raises_keyerror(self):
        with pytest.raises(KeyError):
            self._make()[CacheConfig(64, 2, 16)]

    def test_get_and_misses(self):
        results = self._make()
        assert results.get(CacheConfig(64, 2, 16)) is None
        assert results.get(CacheConfig(4, 2, 16)).misses == 10
        # A bare configuration has no mechanism variant.
        assert results.get(CacheConfig(4, 2, 16), "victim-cache", 4) is None

    def test_best_config(self):
        # Fewest misses, ties toward the smaller cache: the tuner's
        # "misses" objective.
        tuner = CacheTuner(objective="misses")
        assert tuner.tune_frame(self._make()).best.config.num_sets == 4
        capped = tuner.tune_frame(self._make(), TuningConstraints(max_total_size=32))
        assert capped.best.config.num_sets == 1

    def test_best_config_unsatisfiable(self):
        with pytest.raises(ExplorationError):
            CacheTuner(objective="misses").tune_frame(
                self._make(), TuningConstraints(max_total_size=8)
            )

    def test_diff(self):
        # Two runs agree exactly when their rows do: one differing miss
        # count breaks both row and frame equality, at that row only.
        a = self._make()
        assert a.as_rows() == self._make().as_rows()
        assert a == self._make()
        rows = list(self.ROWS)
        rows[0] = ConfigResult(CacheConfig(1, 2, 16), accesses=100, misses=41)
        b = self._make(rows)
        assert a != b
        differing = [(x["misses"], y["misses"]) for x, y in zip(a.as_rows(), b.as_rows()) if x != y]
        assert differing == [(40, 41)]

    def test_from_stats(self):
        # The harness builds the Dinero-style baseline's frame from its
        # per-configuration stats this way.
        stats = CacheStats()
        stats.record(hit=False, access_type=AccessType.READ, compulsory=True, evicted=False)
        stats.record(hit=True, access_type=AccessType.READ, compulsory=False, evicted=False)
        config = CacheConfig(1, 1, 4)
        results = ResultsFrame.from_results(
            [ConfigResult(config, stats.accesses, stats.misses, stats.compulsory_misses)],
            simulator_name="dinero",
        )
        result = results[config]
        assert result.accesses == 2
        assert result.misses == 1
        assert result.compulsory_misses == 1

    def test_as_rows_and_miss_rates(self):
        results = self._make()
        rows = results.as_rows()
        assert len(rows) == 3
        assert rows[0]["num_sets"] == 1
        assert results.miss_rate_column()[2] == pytest.approx(0.1)
        assert [row["miss_rate"] for row in rows] == results.miss_rate_column().tolist()
