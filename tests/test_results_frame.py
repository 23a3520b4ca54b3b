"""Tests for the columnar ResultsFrame and its SimulationResults views."""

import io

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.config import CacheConfig
from repro.core.results import (
    FRAME_SCHEMA_VERSION,
    POLICY_TABLE,
    ConfigResult,
    ResultsFrame,
    SimulationResults,
)
from repro.errors import SimulationError, VerificationError
from repro.types import ReplacementPolicy


def _result(num_sets, assoc, block, policy=ReplacementPolicy.FIFO,
            accesses=100, misses=10, compulsory=2):
    return ConfigResult(
        CacheConfig(num_sets, assoc, block, policy),
        accesses=accesses,
        misses=misses,
        compulsory_misses=compulsory,
    )


def _sample_frame():
    return ResultsFrame.from_results(
        [
            _result(4, 2, 16, misses=20),
            _result(1, 1, 16, misses=60),
            _result(2, 2, 16, misses=30),
            _result(1, 2, 16, policy=ReplacementPolicy.LRU, misses=40),
        ],
        elapsed_seconds=1.25,
        simulator_name="dew",
        trace_name="t",
    )


class TestResultsFrame:
    def test_canonical_order_matches_config_sort(self):
        frame = _sample_frame()
        configs = [frame.config_at(i) for i in range(len(frame))]
        assert configs == sorted(configs)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SimulationError, match="duplicate"):
            ResultsFrame.from_results([_result(4, 2, 16), _result(4, 2, 16)])

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(SimulationError, match="rows"):
            ResultsFrame([1], [1, 2], [16], [0], [10], [1], [0])

    def test_unknown_policy_code_rejected(self):
        with pytest.raises(SimulationError, match="policy code"):
            ResultsFrame([1], [1], [16], [99], [10], [1], [0])

    def test_derived_columns(self):
        frame = _sample_frame()
        assert np.array_equal(frame.hits, frame.accesses - frame.misses)
        rates = frame.miss_rate_column()
        assert rates == pytest.approx(frame.misses / frame.accesses)

    def test_direct_mapped_and_dm_misses(self):
        frame = _sample_frame()
        dm = frame.direct_mapped()
        assert all(a == 1 for a in dm.associativities)
        assert frame.dm_misses() == {(16, 1): 60}

    def test_index_of_and_result_at(self):
        frame = _sample_frame()
        config = CacheConfig(2, 2, 16)
        row = frame.index_of(config)
        assert row is not None
        assert frame.result_at(row) == _result(2, 2, 16, misses=30)
        assert frame.index_of(CacheConfig(8, 8, 64)) is None

    def test_merge_matches_object_level_merge(self):
        from repro.engine import merge_results

        first = SimulationResults([_result(1, 1, 16, misses=5), _result(2, 2, 16, misses=4)])
        second = SimulationResults([_result(1, 1, 16, misses=5), _result(4, 2, 16, misses=3)])
        # Ignoring any one configuration key in the sort moves some row of
        # this family, so the two paths must agree on every key.
        third = SimulationResults([
            _result(2, 2, 16, policy=ReplacementPolicy.LRU, misses=7),
            _result(2, 1, 64, misses=9),
            _result(1, 1, 64, misses=6),
        ])
        families = [third, first, second]
        merged_frame = ResultsFrame.merge([family.frame() for family in families])
        merged_objects = merge_results(families)
        assert [r.as_dict() for r in merged_frame] == merged_objects.as_rows()

    def test_merge_conflict_raises(self):
        first = ResultsFrame.from_results([_result(1, 1, 16, misses=5)])
        second = ResultsFrame.from_results([_result(1, 1, 16, misses=6)])
        with pytest.raises(VerificationError, match="disagree"):
            ResultsFrame.merge([first, second])

    def test_merge_empty(self):
        assert len(ResultsFrame.merge([])) == 0

    def test_npz_round_trip_bytes(self):
        frame = _sample_frame()
        assert ResultsFrame.from_bytes(frame.to_bytes()) == frame

    def test_npz_round_trip_file(self, tmp_path):
        frame = _sample_frame()
        path = tmp_path / "frame.npz"
        with open(path, "wb") as handle:
            frame.to_npz(handle)
        with open(path, "rb") as handle:
            assert ResultsFrame.from_npz(handle) == frame

    def test_extra_metadata_round_trip(self):
        frame = _sample_frame()
        data = frame.to_bytes(extra_metadata={"key": {"digest": "abc"}})
        loaded, extra = ResultsFrame.read_npz(io.BytesIO(data))
        assert loaded == frame
        assert extra == {"key": {"digest": "abc"}}

    def test_schema_version_mismatch_rejected(self):
        frame = _sample_frame()
        data = frame.to_bytes()
        import json
        import zipfile

        buffer = io.BytesIO(data)
        with np.load(buffer) as payload:
            arrays = {name: payload[name] for name in payload.files}
        meta = json.loads(str(arrays["metadata"][()]))
        meta["schema"] = FRAME_SCHEMA_VERSION + 1
        arrays["metadata"] = np.asarray(json.dumps(meta))
        rewritten = io.BytesIO()
        np.savez(rewritten, **arrays)
        rewritten.seek(0)
        with pytest.raises(SimulationError, match="schema"):
            ResultsFrame.from_npz(rewritten)

    def test_with_metadata_shares_arrays(self):
        frame = _sample_frame()
        renamed = frame.with_metadata(trace_name="other", elapsed_seconds=9.0)
        assert renamed.trace_name == "other"
        assert renamed.elapsed_seconds == 9.0
        assert renamed.misses is frame.misses
        assert renamed != frame  # metadata participates in equality


class TestSimulationResultsViews:
    def test_from_frame_is_lazy_and_complete(self):
        frame = _sample_frame()
        view = SimulationResults.from_frame(frame)
        assert len(view) == len(frame)
        assert view.elapsed_seconds == frame.elapsed_seconds
        assert view[CacheConfig(2, 2, 16)].misses == 30
        assert CacheConfig(4, 2, 16) in view
        assert view.get(CacheConfig(64, 4, 32)) is None
        assert view.as_rows() == [r.as_dict() for r in frame]

    def test_frame_round_trip_preserves_rows(self):
        results = SimulationResults(
            [_result(1, 1, 16, misses=7), _result(2, 4, 32, misses=3)],
            elapsed_seconds=0.5,
            simulator_name="dew",
            trace_name="t",
        )
        view = SimulationResults.from_frame(results.frame())
        assert view.as_rows() == results.as_rows()
        assert view.elapsed_seconds == results.elapsed_seconds

    def test_add_after_from_frame(self):
        view = SimulationResults.from_frame(_sample_frame())
        view.add(_result(8, 2, 16, misses=1))
        assert len(view) == 5
        with pytest.raises(SimulationError, match="duplicate"):
            view.add(_result(8, 2, 16, misses=1))
        # The frame is rebuilt to include the added row.
        assert view.frame().index_of(CacheConfig(8, 2, 16)) is not None

    def test_frame_reflects_updated_elapsed(self):
        results = SimulationResults([_result(1, 1, 16)])
        results.frame()
        results.elapsed_seconds = 3.5
        assert results.frame().elapsed_seconds == 3.5

    def test_to_json_is_stable(self):
        a = SimulationResults(
            [_result(2, 2, 16, misses=4), _result(1, 1, 16, misses=9)],
            simulator_name="sweep", trace_name="t",
        )
        b = SimulationResults(
            [_result(1, 1, 16, misses=9), _result(2, 2, 16, misses=4)],
            simulator_name="sweep", trace_name="t",
        )
        assert a.to_json() == b.to_json()
        import json

        payload = json.loads(a.to_json())
        assert payload["schema"] == FRAME_SCHEMA_VERSION
        assert [row["num_sets"] for row in payload["configurations"]] == [1, 2]


# -- property-based round trip -------------------------------------------------

_POLICIES = [ReplacementPolicy(value) for value in POLICY_TABLE]


@st.composite
def result_lists(draw):
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 4, 64, 16384]),
                st.integers(min_value=1, max_value=16),
                st.sampled_from([1, 8, 64]),
                st.sampled_from(_POLICIES),
            ),
            min_size=0,
            max_size=25,
            unique=True,
        )
    )
    results = []
    for num_sets, assoc, block, policy in keys:
        accesses = draw(st.integers(min_value=0, max_value=2**40))
        misses = draw(st.integers(min_value=0, max_value=accesses))
        compulsory = draw(st.integers(min_value=0, max_value=misses))
        results.append(
            ConfigResult(
                CacheConfig(num_sets, assoc, block, policy),
                accesses=accesses,
                misses=misses,
                compulsory_misses=compulsory,
            )
        )
    return results


@given(results=result_lists(), elapsed=st.floats(min_value=0, max_value=1e6,
                                                 allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_results_frame_disk_round_trip_is_lossless(results, elapsed):
    """A frame survives the npz round trip bit-for-bit, any key mix."""
    frame = ResultsFrame.from_results(
        results, elapsed_seconds=elapsed, simulator_name="dew", trace_name="rt"
    )
    restored = ResultsFrame.from_bytes(frame.to_bytes())
    assert restored == frame
    assert [r.as_dict() for r in restored] == [r.as_dict() for r in frame]
    # And through the object-level view as well.
    view = SimulationResults.from_frame(restored)
    assert view.as_rows() == SimulationResults(results).as_rows()


class TestMetricColumns:
    def test_total_sizes_column(self):
        frame = _sample_frame()
        expected = [frame.config_at(row).total_size for row in range(len(frame))]
        assert frame.total_sizes().tolist() == expected

    def test_metric_columns_match_object_properties(self):
        frame = _sample_frame()
        rows = [frame.result_at(row) for row in range(len(frame))]
        assert frame.metric_column("num_sets").tolist() == [r.config.num_sets for r in rows]
        assert frame.metric_column("associativity").tolist() == [r.config.associativity for r in rows]
        assert frame.metric_column("block_size").tolist() == [r.config.block_size for r in rows]
        assert frame.metric_column("total_size").tolist() == [r.config.total_size for r in rows]
        assert frame.metric_column("accesses").tolist() == [r.accesses for r in rows]
        assert frame.metric_column("misses").tolist() == [r.misses for r in rows]
        assert frame.metric_column("hits").tolist() == [r.hits for r in rows]
        assert frame.metric_column("compulsory_misses").tolist() == [r.compulsory_misses for r in rows]
        assert frame.metric_column("miss_rate").tolist() == [r.miss_rate for r in rows]
        assert frame.metric_column("hit_rate").tolist() == [r.hit_rate for r in rows]

    def test_hit_rate_of_empty_trace_rows_is_zero(self):
        frame = ResultsFrame([1, 2], [1, 1], [16, 16], [0, 0], [0, 100], [0, 25], [0, 0])
        assert frame.metric_column("hit_rate").tolist() == [0.0, 0.75]
        assert frame.metric_column("miss_rate").tolist() == [0.0, 0.25]

    def test_unknown_metric_name_rejected(self):
        with pytest.raises(SimulationError, match="unknown metric column"):
            _sample_frame().metric_column("speedup")
