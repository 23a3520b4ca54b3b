"""Differential tests: both LRU walks against the per-access reference walk.

``JanapsatyaSimulator`` tallies only the hits at each recency position per
level and the tags compared by walks that missed, and derives every
associativity's misses and the work counters once per chunk (see
:mod:`repro.lru.janapsatya`).  Every result row, every
``JanapsatyaCounters`` field and the final per-set recency lists must equal
those of :class:`lru_reference.ReferenceLruWalk`, which counts each access
where it happens — with the MRU stop on and off, for any associativity set,
chunking and entry point (``run_blocks`` and per-address ``access``), and
for each walk in every case: the compiled kernel over flat storage
(wherever a C compiler runs) and the Python walk over recency lists.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from lru_reference import ReferenceLruWalk
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.trace.trace import Trace
from repro.workloads.mediabench import mediabench_trace
from walks import walk_under_test, walks_here

PATHS = ("run_blocks", "access")


def _simulate(simulator, addresses, chunk_size, path):
    """Feed ``addresses`` to ``simulator`` through one entry point."""
    if path == "access":
        for address in addresses:
            simulator.access(address)
        return
    blocks = np.asarray(addresses, dtype=np.int64) >> simulator.offset_bits
    for start in range(0, blocks.size, chunk_size):
        simulator.run_blocks(blocks[start:start + chunk_size])


def assert_matches_reference(
    addresses, block_size, associativities, levels, use_mru_stop, chunk_size, path
):
    set_sizes = tuple(2**i for i in range(levels))
    reference = ReferenceLruWalk(associativities, set_sizes, use_mru_stop)
    offset_bits = block_size.bit_length() - 1
    reference.run_blocks([address >> offset_bits for address in addresses])
    distinct = len({address >> offset_bits for address in addresses})

    for walk in walks_here():
        with walk_under_test(walk):
            simulator = JanapsatyaSimulator(block_size, associativities, set_sizes, use_mru_stop)
        assert simulator.walk.split()[0] == walk
        _simulate(simulator, addresses, chunk_size, path)

        assert dataclasses.asdict(simulator.counters) == dataclasses.asdict(
            reference.counters
        ), walk
        assert simulator.recency_lists() == reference.recency_lists(), walk
        simulator.set_compulsory(Trace(addresses).unique_blocks(block_size))
        frame = simulator.finalize()
        assert frame.walk == simulator.walk and frame.counters is simulator.counters
        rows = {}
        for result in frame:
            config = result.config
            assert (config.block_size, result.accesses) == (block_size, len(addresses)), walk
            assert result.compulsory_misses == distinct, walk
            rows[(config.num_sets, config.associativity)] = result.misses
        assert rows == reference.misses, walk


@st.composite
def address_streams(draw):
    """Byte addresses with a drawn footprint, some in same-block runs."""
    span = draw(st.sampled_from([16, 256, 4096, 1 << 20]))
    heads = draw(st.lists(st.integers(min_value=0, max_value=span - 1), max_size=150))
    repeats = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(heads),
                            max_size=len(heads)))
    return [address for address, count in zip(heads, repeats) for _ in range(count)]


@given(
    addresses=address_streams(),
    block_size_log2=st.integers(min_value=0, max_value=6),
    associativities=st.one_of(
        st.sampled_from([(1,), (3, 5), (1, 2, 4, 8, 16)]),
        st.sets(st.integers(min_value=1, max_value=16), min_size=1, max_size=4),
    ),
    levels=st.integers(min_value=1, max_value=15),
    use_mru_stop=st.booleans(),
    chunk_size=st.sampled_from([1, 7, 65_536]),
    path=st.sampled_from(PATHS),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_walk_matches_reference(
    addresses, block_size_log2, associativities, levels, use_mru_stop, chunk_size, path
):
    assert_matches_reference(
        addresses, 1 << block_size_log2, tuple(associativities), levels, use_mru_stop,
        chunk_size, path,
    )


@pytest.mark.parametrize("use_mru_stop", [True, False])
@pytest.mark.parametrize("path", PATHS)
def test_corpus_trace_matches_reference(use_mru_stop, path):
    addresses = mediabench_trace("mpeg2_enc", 1500, seed=3).address_list()
    for block_size, associativities in ((4, (1, 2, 4, 8, 16)), (16, (3, 5)), (64, (1,))):
        assert_matches_reference(
            addresses, block_size, associativities, 11, use_mru_stop, 512, path
        )


@pytest.mark.parametrize("use_mru_stop", [True, False])
def test_full_depth_corpus_trace_matches_reference(use_mru_stop):
    addresses = mediabench_trace("cjpeg", 6000, seed=1).address_list()
    for block_size in (4, 16, 64):
        assert_matches_reference(
            addresses, block_size, (1, 2, 4, 8, 16), 15, use_mru_stop, 65_536, "run_blocks"
        )


def test_one_long_run_stops_at_the_root():
    # One walk misses at every level; each of the 499 repeats finds the
    # block at the root's MRU position and stops there.
    for walk in walks_here():
        with walk_under_test(walk):
            simulator = JanapsatyaSimulator(16, (1, 2), (1, 2, 4))
        simulator.run_blocks([9] * 500)
        assert simulator.counters.as_dict() == {
            "requests": 500, "node_evaluations": 3 + 499, "mru_stops": 499,
            "tag_comparisons": 499,
        }, walk
        assert [row.misses for row in simulator.finalize()] == [1, 1, 1, 1, 1, 1], walk
