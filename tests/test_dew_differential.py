"""Differential tests: the fast DEW walk against the per-way reference walk.

``DewSimulator`` scans a set's ways in one call and derives most work
counters once per chunk (see :mod:`repro.core.dew`).  Every result row, every
``DewCounters`` field, the per-level evaluation histogram, the per-level and
direct-mapped misses and the final tree storage must equal those of
:class:`dew_reference.ReferenceDewWalk`, which counts each comparison where
it happens — for every ablation mode, chunking and entry point
(``run_blocks`` and per-address ``access``), and for each walk in every
case: the compiled kernel over the tree's node records (wherever a C compiler
runs) and the Python walk over the list layout.  The rows' compulsory
misses, which ``Engine.run`` and the sweep executor hand over as
:meth:`Trace.unique_blocks`, must
equal the reference's first touches.
"""

import dataclasses
import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from dew_reference import ReferenceDewWalk
from repro.core.dew import DewSimulator
from repro.trace.trace import Trace
from repro.workloads.mediabench import mediabench_trace
from walks import walk_under_test, walks_here

ASSOCIATIVITIES = (1, 2, 3, 4, 8, 16)
ABLATION_MODES = list(itertools.product([True, False], repeat=3))
PATHS = ("run_blocks", "access")


def _tree_state(tree):
    return (tree.tags, tree.waves, tree.mra, tree.mre_tag, tree.mre_wave, tree.fifo_ptr)


def _simulate(simulator, addresses, chunk_size, path):
    """Feed ``addresses`` to ``simulator`` through one entry point."""
    if path == "access":
        for address in addresses:
            simulator.access(address)
        return
    blocks = np.asarray(addresses, dtype=np.int64) >> simulator.tree.offset_bits
    for start in range(0, blocks.size, chunk_size):
        simulator.run_blocks(blocks[start:start + chunk_size])


def assert_matches_reference(addresses, block_size, associativity, levels, modes, chunk_size, path):
    set_sizes = tuple(2**i for i in range(levels))
    enable_mra, enable_wave, enable_mre = modes
    reference = ReferenceDewWalk(
        block_size, associativity, set_sizes, enable_mra, enable_wave, enable_mre
    )
    reference.run_blocks([address >> reference.tree.offset_bits for address in addresses])
    expected = {}
    for level, num_sets in enumerate(set_sizes):
        expected[(num_sets, associativity)] = reference.misses[level]
        if associativity > 1:
            expected[(num_sets, 1)] = reference.dm_misses[level]

    for walk in walks_here():
        with walk_under_test(walk):
            simulator = DewSimulator(
                block_size,
                associativity,
                set_sizes,
                enable_mra=enable_mra,
                enable_wave=enable_wave,
                enable_mre=enable_mre,
            )
        assert simulator.walk.split()[0] == walk
        _simulate(simulator, addresses, chunk_size, path)

        # Every counter field, the per-level histogram included.
        counters = dataclasses.asdict(simulator.counters)
        assert counters == dataclasses.asdict(reference.counters), walk
        for level in range(levels):
            assert simulator.misses_at_level(level) == reference.misses[level], (walk, level)
            assert (
                simulator.misses_at_level(level, direct_mapped=True) == reference.dm_misses[level]
            ), (walk, level)
        assert _tree_state(simulator.tree) == _tree_state(reference.tree), walk

        simulator.set_compulsory(Trace(addresses).unique_blocks(block_size))
        rows = {}
        for result in simulator.finalize():
            config = result.config
            assert (config.block_size, result.accesses) == (block_size, len(addresses)), walk
            assert result.compulsory_misses == reference.compulsory, walk
            rows[(config.num_sets, config.associativity)] = result.misses
        assert rows == expected, walk


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
    associativity=st.sampled_from(ASSOCIATIVITIES),
    levels=st.integers(min_value=1, max_value=15),
    modes=st.sampled_from(ABLATION_MODES),
    chunk_size=st.sampled_from([1, 2, 7, 100, 65_536]),
    path=st.sampled_from(PATHS),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_walk_matches_reference(
    addresses, block_size_log2, associativity, levels, modes, chunk_size, path
):
    assert_matches_reference(
        addresses, 1 << block_size_log2, associativity, levels, modes, chunk_size, path
    )


@pytest.mark.parametrize("modes", ABLATION_MODES)
@pytest.mark.parametrize("path", PATHS)
def test_corpus_trace_matches_reference_in_every_mode(modes, path):
    addresses = mediabench_trace("mpeg2_enc", 1500, seed=3).address_list()
    for block_size, associativity in ((4, 16), (16, 3), (64, 1)):
        assert_matches_reference(addresses, block_size, associativity, 11, modes, 512, path)


@pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
def test_full_depth_corpus_trace_matches_reference(associativity):
    addresses = mediabench_trace("cjpeg", 6000, seed=1).address_list()
    for block_size in (4, 16, 64):
        assert_matches_reference(
            addresses, block_size, associativity, 15, (True, True, True), 65_536, "run_blocks"
        )
