"""Tests for the columnar ResultsFrame: rows, lookups, merge and flat artifacts."""

import json
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.config import CacheConfig
from repro.core.results import (
    FRAME_SCHEMA_VERSION,
    MECHANISM_TABLE,
    POLICY_TABLE,
    ConfigResult,
    ResultsFrame,
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


def _round_trip(frame):
    restored, _ = ResultsFrame.from_bytes(frame.to_bytes())
    return restored


def _rewrite_header(data, **changes):
    """The artifact with header fields replaced (body and CRC kept)."""
    size = struct.unpack_from("<I", data, 12)[0]
    header = json.loads(data[16:16 + size])
    header.update(changes)
    blob = json.dumps(header).encode("ascii")
    body = data[-(header["rows"] * 12 * 8):] if header["rows"] else b""
    padding = -(16 + len(blob)) % 8
    return data[:12] + struct.pack("<I", len(blob)) + blob + bytes(padding) + body


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
        dm = frame.select(frame.associativities == 1)
        assert all(a == 1 for a in dm.associativities)
        assert [(r.config.block_size, r.config.num_sets, r.misses) for r in dm] == [(16, 1, 60)]
        assert dm.trace_name == frame.trace_name

    def test_index_of_and_result_at(self):
        frame = _sample_frame()
        config = CacheConfig(2, 2, 16)
        row = frame.index_of(config)
        assert row is not None
        assert frame.result_at(row) == _result(2, 2, 16, misses=30)
        assert frame.index_of(CacheConfig(8, 8, 64)) is None

    def test_merge_matches_object_level_merge(self):
        first = [_result(1, 1, 16, misses=5), _result(2, 2, 16, misses=4)]
        second = [_result(1, 1, 16, misses=5), _result(4, 2, 16, misses=3)]
        # Ignoring any one configuration key in the sort moves some row of
        # this family, so the merge must order by every key.
        third = [
            _result(2, 2, 16, policy=ReplacementPolicy.LRU, misses=7),
            _result(2, 1, 64, misses=9),
            _result(1, 1, 64, misses=6),
        ]
        families = [third, first, second]
        merged = ResultsFrame.merge(
            [ResultsFrame.from_results(family, elapsed_seconds=0.5) for family in families]
        )
        # The oracle: the union of every family's rows, one per
        # configuration, sorted by the configuration tuple.
        union = {result.config: result for family in families for result in family}
        assert merged.as_rows() == [union[config].as_dict() for config in sorted(union)]
        assert merged.elapsed_seconds == 1.5
        assert merged.counters is None

    def test_merge_conflict_raises(self):
        first = ResultsFrame.from_results([_result(1, 1, 16, misses=5)])
        second = ResultsFrame.from_results([_result(1, 1, 16, misses=6)])
        with pytest.raises(VerificationError, match="disagree"):
            ResultsFrame.merge([first, second])

    def test_merge_empty(self):
        assert len(ResultsFrame.merge([])) == 0

    def test_flat_round_trip_bytes(self):
        frame = _sample_frame()
        assert _round_trip(frame) == frame

    def test_flat_round_trip_file(self, tmp_path):
        frame = _sample_frame()
        path = tmp_path / "frame.frame"
        path.write_bytes(frame.to_bytes())
        assert ResultsFrame.from_bytes(path.read_bytes()) == (frame, {})

    def test_flat_layout_is_a_header_then_one_int64_matrix(self):
        frame = _sample_frame()
        data = frame.to_bytes()
        assert data[:12] == b"REPROFRAME1\n"
        body = np.frombuffer(data[-len(frame) * 12 * 8:], dtype="<i8").reshape(12, -1)
        assert body[0].tolist() == frame.num_sets.tolist()
        assert body[3].tolist() == frame.policy_codes.tolist()
        assert body[11].tolist() == frame.mechanism_allocations.tolist()

    def test_extra_metadata_round_trip(self):
        frame = _sample_frame()
        data = frame.to_bytes(extra_metadata={"key": {"digest": "abc"}})
        loaded, extra = ResultsFrame.from_bytes(data)
        assert loaded == frame
        assert extra == {"key": {"digest": "abc"}}

    def test_schema_version_mismatch_rejected(self):
        data = _rewrite_header(_sample_frame().to_bytes(), schema=FRAME_SCHEMA_VERSION + 1)
        with pytest.raises(SimulationError, match="schema"):
            ResultsFrame.from_bytes(data)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda data: b"NOTAFRAME!!\n" + data[12:], "magic"),
            (lambda data: data[:-8], "bytes"),
            (lambda data: data[:10], "truncated"),
            (lambda data: data[:-1] + bytes([data[-1] ^ 1]), "CRC-32"),
            (lambda data: _rewrite_header(data, policy_table=["lru", "fifo"]), "codes"),
            (lambda data: data[:12] + struct.pack("<I", 3) + data[16:], "header"),
        ],
        ids=["magic", "short-body", "short-preamble", "flipped-bit", "tables", "header"],
    )
    def test_damaged_artifacts_are_rejected(self, damage, message):
        data = damage(_sample_frame().to_bytes())
        with pytest.raises(SimulationError, match=message):
            ResultsFrame.from_bytes(data)


class TestSimulationResultsViews:
    """Lookup, reporting and metadata of one run's results on the frame."""

    def test_from_frame_is_lazy_and_complete(self):
        frame = _sample_frame()
        assert len(frame) == 4
        assert frame[CacheConfig(2, 2, 16)].misses == 30
        assert CacheConfig(4, 2, 16) in frame
        assert frame.get(CacheConfig(64, 4, 32)) is None
        assert frame.as_rows() == [r.as_dict() for r in frame]
        assert frame.configs() == [r.config for r in frame]

    def test_frame_round_trip_preserves_rows(self):
        frame = ResultsFrame.from_results(
            [_result(1, 1, 16, misses=7), _result(2, 4, 32, misses=3)],
            elapsed_seconds=0.5,
            simulator_name="dew",
            trace_name="t",
        )
        rebuilt = ResultsFrame.from_rows(frame.as_rows(), simulator_name="dew", trace_name="t")
        assert rebuilt.as_rows() == frame.as_rows()
        assert rebuilt.to_json() == frame.to_json()

    def test_frame_reflects_updated_elapsed(self):
        # Engine.run and the executor stamp the measured time on a finished
        # frame; the store persists it with the rows.
        frame = ResultsFrame.from_results([_result(1, 1, 16)])
        frame.elapsed_seconds = 3.5
        assert _round_trip(frame).elapsed_seconds == 3.5

    def test_counters_and_walk_stay_out_of_rows_and_equality(self):
        frame = _sample_frame()
        other = _sample_frame()
        frame.counters = object()
        frame.walk = "kernel"
        assert frame == other
        assert frame.to_json() == other.to_json()
        assert _round_trip(frame).counters is None
        # The scalar metadata does take part in equality.
        other.elapsed_seconds = 9.0
        assert frame != other

    def test_to_json_is_stable(self):
        a = ResultsFrame.from_results(
            [_result(2, 2, 16, misses=4), _result(1, 1, 16, misses=9)],
            simulator_name="sweep", trace_name="t",
        )
        b = ResultsFrame.from_results(
            [_result(1, 1, 16, misses=9), _result(2, 2, 16, misses=4)],
            simulator_name="sweep", trace_name="t",
        )
        assert a.to_json() == b.to_json()
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
        mechanism = draw(st.sampled_from(MECHANISM_TABLE))
        bare = mechanism == "none"
        results.append(
            ConfigResult(
                CacheConfig(num_sets, assoc, block, policy),
                accesses=accesses,
                misses=misses,
                compulsory_misses=compulsory,
                mechanism=mechanism,
                mechanism_entries=0 if bare else draw(st.integers(1, 64)),
                mechanism_hits=0 if bare else draw(st.integers(0, 2**40)),
                mechanism_swaps=0 if bare else draw(st.integers(0, 2**40)),
                mechanism_allocations=0 if bare else draw(st.integers(0, 2**40)),
            )
        )
    return results


@given(results=result_lists(), elapsed=st.floats(min_value=0, max_value=1e6,
                                                 allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_results_frame_disk_round_trip_is_lossless(results, elapsed):
    """A frame survives the flat artifact round trip bit-for-bit, any key mix."""
    frame = ResultsFrame.from_results(
        results, elapsed_seconds=elapsed, simulator_name="dew", trace_name="rt"
    )
    restored = _round_trip(frame)
    assert restored == frame
    assert restored.as_rows() == [r.as_dict() for r in sorted(results, key=lambda r: r.config)]


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
