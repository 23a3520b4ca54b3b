"""Property-based tests for the substrates: policies, cache sets, traces, stack."""

import io

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.cache.cacheset import CacheSet
from repro.cache.policies import FifoPolicy, LruPolicy
from repro.trace.din import read_din, write_din
from repro.trace.stats import reuse_distances
from repro.trace.textio import read_text_trace, write_text_trace
from repro.trace.trace import Trace
from repro.types import AccessType

BLOCKS = st.lists(st.integers(min_value=0, max_value=31), min_size=0, max_size=100)


@given(blocks=BLOCKS, associativity=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_fifo_set_never_holds_duplicates_and_respects_capacity(blocks, associativity):
    cache_set = CacheSet(associativity, FifoPolicy(associativity))
    for block in blocks:
        cache_set.access(block)
        resident = cache_set.resident_blocks()
        assert len(resident) == len(set(resident))
        assert len(resident) <= associativity


@given(blocks=BLOCKS, associativity=st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None)
def test_fifo_eviction_order_is_insertion_order(blocks, associativity):
    """The block evicted by FIFO is always the oldest *inserted* resident block."""
    cache_set = CacheSet(associativity, FifoPolicy(associativity))
    insertion_order = []
    for block in blocks:
        hit, evicted = cache_set.access(block)
        if hit:
            continue
        if evicted is not None:
            assert evicted == insertion_order.pop(0)
        insertion_order.append(block)
        assert len(insertion_order) <= associativity


@given(blocks=BLOCKS, associativity=st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None)
def test_lru_hit_iff_stack_distance_below_associativity(blocks, associativity):
    cache_set = CacheSet(associativity, LruPolicy(associativity))
    distances = reuse_distances(np.asarray(blocks, dtype=np.int64))
    for block, distance in zip(blocks, distances):
        hit, _ = cache_set.access(block)
        assert hit == (0 <= distance < associativity)


@given(blocks=BLOCKS)
@settings(max_examples=60, deadline=None)
def test_stack_distances_are_bounded_by_distinct_blocks(blocks):
    distances = reuse_distances(np.asarray(blocks, dtype=np.int64))
    assert len(distances) == len(blocks)
    for distance in distances:
        assert distance == -1 or 0 <= distance < len(set(blocks))


@st.composite
def traces(draw):
    length = draw(st.integers(min_value=0, max_value=60))
    addresses = draw(
        st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=length, max_size=length)
    )
    types = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=length, max_size=length))
    return Trace(addresses, types, name="hyp")


@given(trace=traces())
@settings(max_examples=50, deadline=None)
def test_din_round_trip_preserves_trace(trace):
    buffer = io.StringIO()
    write_din(trace, buffer)
    buffer.seek(0)
    loaded = read_din(buffer)
    assert loaded.addresses.tolist() == trace.addresses.tolist()
    assert loaded.access_types.tolist() == trace.access_types.tolist()


@given(trace=traces())
@settings(max_examples=50, deadline=None)
def test_csv_round_trip_preserves_trace(trace):
    buffer = io.StringIO()
    write_text_trace(trace, buffer, fmt="csv")
    buffer.seek(0)
    loaded = read_text_trace(io.StringIO(buffer.getvalue()))
    assert loaded.addresses.tolist() == trace.addresses.tolist()
    assert loaded.access_types.tolist() == trace.access_types.tolist()


@given(trace=traces(), block_size_log2=st.integers(min_value=0, max_value=8))
@settings(max_examples=50, deadline=None)
def test_block_addresses_consistent_with_unique_blocks(trace, block_size_log2):
    block_size = 1 << block_size_log2
    blocks = trace.block_addresses(block_size)
    assert len(blocks) == len(trace)
    assert trace.unique_blocks(block_size) == len(set(blocks.tolist()))
    # Blocks merge monotonically: doubling the block size cannot increase
    # the number of distinct blocks.
    assert trace.unique_blocks(block_size * 2) <= trace.unique_blocks(block_size)


@given(
    addresses=st.lists(st.integers(min_value=0, max_value=1023), min_size=2, max_size=80),
    access_type=st.sampled_from(list(AccessType)),
)
@settings(max_examples=30, deadline=None)
def test_trace_concatenate_length(addresses, access_type):
    first = Trace(addresses, [int(access_type)] * len(addresses))
    second = Trace(addresses[::-1])
    combined = first.concatenate(second)
    assert len(combined) == 2 * len(addresses)
    assert combined.addresses.tolist()[: len(addresses)] == addresses
