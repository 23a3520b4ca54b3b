"""Tests for the Trace container and builder."""

import pickle

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.record import MemoryAccess
from repro.trace.trace import Trace, TraceBuilder
from repro.types import AccessType
from repro.workloads.mediabench import mediabench_trace


class TestMemoryAccess:
    def test_block_address(self):
        access = MemoryAccess(0x1234)
        assert access.block_address(16) == 0x1234 >> 4

    def test_block_address_requires_power_of_two(self):
        with pytest.raises(ValueError):
            MemoryAccess(0x10).block_address(12)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            MemoryAccess(-1)

    def test_non_positive_size_rejected(self):
        with pytest.raises(TraceError):
            MemoryAccess(0, size=0)

    def test_din_line(self):
        assert MemoryAccess(0xFF, AccessType.WRITE).as_din_line() == "1 ff"


class TestTrace:
    def test_length_and_iteration(self):
        trace = Trace([0, 4, 8], [0, 1, 2])
        assert len(trace) == 3
        accesses = list(trace)
        assert accesses[1].access_type is AccessType.WRITE
        assert accesses[2].access_type is AccessType.INSTR_FETCH

    def test_getitem_scalar_and_slice(self):
        trace = Trace([0, 4, 8, 12])
        assert trace[2].address == 8
        sliced = trace[1:3]
        assert isinstance(sliced, Trace)
        assert sliced.addresses.tolist() == [4, 8]

    def test_equality(self):
        assert Trace([1, 2, 3]) == Trace([1, 2, 3])
        assert Trace([1, 2, 3]) != Trace([1, 2, 4])
        assert Trace([1, 2]) != "not a trace"

    def test_block_addresses_and_unique_blocks(self):
        trace = Trace([0, 4, 8, 12, 16])
        assert trace.block_addresses(16).tolist() == [0, 0, 0, 0, 1]
        assert trace.unique_blocks(16) == 2
        assert trace.unique_blocks(4) == 5

    def test_block_addresses_rejects_bad_block_size(self):
        with pytest.raises(TraceError):
            Trace([0]).block_addresses(3)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            Trace([-5])

    def test_mismatched_types_length_rejected(self):
        with pytest.raises(TraceError):
            Trace([1, 2], access_types=[0])

    def test_mismatched_sizes_length_rejected(self):
        with pytest.raises(TraceError):
            Trace([1, 2], sizes=[4])

    def test_concatenate_and_repeat(self):
        a = Trace([0, 4], name="a")
        b = Trace([8], name="b")
        combined = a.concatenate(b)
        assert combined.addresses.tolist() == [0, 4, 8]
        repeated = b.repeat(3)
        assert repeated.addresses.tolist() == [8, 8, 8]
        assert a.repeat(0).addresses.tolist() == []

    def test_repeat_rejects_negative(self):
        with pytest.raises(TraceError):
            Trace([0]).repeat(-1)

    def test_from_accesses_round_trip(self):
        records = [MemoryAccess(0, AccessType.READ), MemoryAccess(8, AccessType.WRITE, size=8)]
        trace = Trace.from_accesses(records)
        assert list(trace) == records

    def test_empty(self):
        trace = Trace.empty()
        assert len(trace) == 0
        assert trace.unique_blocks(32) == 0

    def test_addresses_are_read_only(self):
        trace = Trace([1, 2, 3])
        with pytest.raises(ValueError):
            trace.addresses[0] = 99

    def test_with_name(self):
        assert Trace([1], name="x").with_name("y").name == "y"

    def test_address_list_matches_numpy(self):
        trace = Trace(np.arange(10) * 4)
        assert trace.address_list() == (np.arange(10) * 4).tolist()


def _first_touch_loop(addresses, block_size):
    """Per access, whether its block was not seen before: a set-based loop."""
    seen = set()
    marks = []
    for address in addresses:
        block = address // block_size
        marks.append(block not in seen)
        seen.add(block)
    return marks


class TestFirstTouches:
    @pytest.mark.parametrize(
        "addresses",
        [
            [],
            [12],
            [0, 4, 8, 12, 16, 0, 4, 64, 12],
            # Blocks spanning 62 bits: packed keys fit with two accesses...
            [2**62 - 1, 0],
            # ... but not with three, nor anywhere near 2**63.
            [2**62 - 1, 0, 2**62 - 1],
            [2**63 - 1, 0, 2**63 - 8, 5, 2**63 - 1, 2**62],
            list(range(2**63 - 64, 2**63, 3)) * 2,
        ],
        ids=["empty", "one", "small", "wide-packed", "wide", "near-2**63", "top-repeated"],
    )
    @pytest.mark.parametrize("block_size", [1, 4, 64])
    def test_marks_match_a_set_based_loop(self, addresses, block_size):
        trace = Trace(addresses)
        marks = trace.first_touches(block_size)
        assert marks.dtype == bool and not marks.flags.writeable
        assert marks.tolist() == _first_touch_loop(addresses, block_size)
        # The count is that block size's distinct blocks, memoized from the
        # same sort, and equal to the count-only sort's.
        assert trace.unique_blocks(block_size) == int(marks.sum())
        assert Trace(addresses).unique_blocks(block_size) == int(marks.sum())
        assert trace.first_touches(block_size) is marks

    def test_corpus_trace_marks_match_a_set_based_loop(self):
        trace = mediabench_trace("cjpeg", 6000, seed=1)
        for block_size in (4, 16, 64):
            marks = trace.first_touches(block_size)
            assert marks.tolist() == _first_touch_loop(trace.address_list(), block_size)

    def test_pickling_drops_the_marks(self):
        trace = Trace([0, 4, 8, 0])
        trace.first_touches(4)
        copy = pickle.loads(pickle.dumps(trace))
        assert copy._first_touch_cache == {}
        assert copy.first_touches(4).tolist() == [True, True, True, False]

    def test_bad_block_size_rejected(self):
        with pytest.raises(TraceError):
            Trace([0]).first_touches(12)


class TestTraceBuilder:
    def test_build(self):
        builder = TraceBuilder("built")
        builder.add(0)
        builder.add(16, AccessType.WRITE, size=8)
        builder.add_access(MemoryAccess(32, AccessType.INSTR_FETCH))
        builder.extend_addresses([64, 68])
        trace = builder.build()
        assert len(builder) == 5
        assert trace.name == "built"
        assert trace.addresses.tolist() == [0, 16, 32, 64, 68]
        assert trace.access_types.tolist()[:3] == [0, 1, 2]

    def test_negative_address_rejected(self):
        builder = TraceBuilder()
        with pytest.raises(TraceError):
            builder.add(-1)

    @pytest.mark.parametrize("address", [2**63, 2**64])
    def test_address_past_int64_rejected_on_add(self, address):
        builder = TraceBuilder()
        with pytest.raises(TraceError, match=r"outside \[0, 2\*\*63\)"):
            builder.add(address)
        assert len(builder) == 0
        builder.add(2**63 - 1)
        assert builder.build().addresses.tolist() == [2**63 - 1]


class TestTraceFingerprint:
    def test_content_addressed_not_name_addressed(self):
        trace = Trace([0, 16, 32], name="a")
        assert trace.fingerprint() == trace.with_name("b").fingerprint()

    def test_differs_on_any_column(self):
        base = Trace([0, 16, 32])
        assert base.fingerprint() != Trace([0, 16, 48]).fingerprint()
        assert base.fingerprint() != Trace([0, 16, 32], [0, 1, 0]).fingerprint()
        assert base.fingerprint() != Trace([0, 16, 32], sizes=[4, 8, 4]).fingerprint()

    def test_chunk_size_does_not_change_digest(self):
        trace = Trace(list(range(0, 4000, 4)))
        assert trace.fingerprint(chunk_size=7) == Trace(list(range(0, 4000, 4))).fingerprint()

    def test_memoized_and_survives_pickling(self):
        import pickle

        trace = Trace([0, 16, 32])
        first = trace.fingerprint()
        assert trace.fingerprint() is first
        assert pickle.loads(pickle.dumps(trace)).fingerprint() == first

    def test_empty_trace_has_a_fingerprint(self):
        assert len(Trace.empty().fingerprint()) == 64
