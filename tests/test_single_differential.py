"""Differential tests: both single-configuration walks against a per-access walk.

``SingleConfigSimulator`` walks a chunk in the compiled kernel
(``kernels/single.c``) or over :class:`~repro.cache.cacheset.CacheSet`
objects, and derives every :class:`~repro.cache.stats.CacheStats` field
from the chunk's tally and miss stream (see :mod:`repro.cache.simulator`).
Every field, ``by_type`` included, the resident blocks of every set and the
miss stream must equal those of :class:`ReferenceSingle`, which drives one
``CacheSet`` per set one access at a time and records each access in its
``CacheStats`` where it happens — for FIFO, LRU and PLRU, any geometry,
chunking, access-type mix and entry point (``run_misses``/``run_blocks``
and per-address ``access``), and for each walk in every case: the kernel
over flat storage (wherever a C compiler runs) and the ``CacheSet`` walk.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.cacheset import CacheSet
from repro.cache.policies import make_policy
from repro.cache.simulator import SingleConfigSimulator
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.errors import SimulationError
from repro.types import AccessType, ReplacementPolicy
from repro.workloads.mediabench import mediabench_trace
from walks import walk_under_test, walks_here

READ, WRITE, FETCH = (int(AccessType.READ), int(AccessType.WRITE), int(AccessType.INSTR_FETCH))

#: Access-type mixes, from all reads to three writes in four.
TYPE_MIXES = ((READ,), (READ, WRITE), (WRITE, WRITE, WRITE, READ), (READ, WRITE, FETCH))
PATHS = ("run_blocks", "access")


class ReferenceSingle:
    """One ``CacheSet`` per set, walked and recorded one access at a time."""

    def __init__(self, config: CacheConfig, seed: int = 0) -> None:
        ways = config.associativity
        self.sets = [
            CacheSet(ways, make_policy(config.policy, ways, seed=seed + index))
            for index in range(config.num_sets)
        ]
        self.stats = CacheStats()
        self.seen = set()
        self.hits = []
        #: (block, evicted block or -1, access type, first touch) per miss.
        self.misses = []

    def access_block(self, block: int, access_type: int) -> None:
        cache_set = self.sets[block % len(self.sets)]
        before = cache_set.comparisons
        first_touch = block not in self.seen
        self.seen.add(block)
        hit, evicted = cache_set.access(block, is_write=access_type == WRITE)
        self.stats.record(
            hit=hit,
            access_type=AccessType(access_type),
            compulsory=first_touch and not hit,
            evicted=evicted is not None,
            evicted_dirty=cache_set.evicted_dirty,
            comparisons=cache_set.comparisons - before,
        )
        self.hits.append(hit)
        if not hit:
            self.misses.append((block, -1 if evicted is None else evicted, access_type, first_touch))

    def resident_blocks(self):
        return [cache_set.resident_blocks() for cache_set in self.sets]


def _simulate(simulator, addresses, types, chunk_size, path):
    """Feed the accesses through one entry point; return the miss stream
    (``run_blocks``) or the per-access hits (``access``)."""
    if path == "access":
        return [
            simulator.access(address, AccessType(code)) for address, code in zip(addresses, types)
        ]
    blocks = np.asarray(addresses, dtype=np.int64) >> simulator.offset_bits
    codes = np.asarray(types, dtype=np.int8)
    misses = []
    for start in range(0, blocks.size, chunk_size):
        stream = simulator.run_misses(
            blocks[start:start + chunk_size], codes[start:start + chunk_size]
        )
        misses.extend(zip(
            stream.blocks.tolist(),
            stream.evicted.tolist(),
            stream.types.tolist(),
            stream.compulsory.tolist(),
        ))
    return misses


def assert_matches_reference(addresses, types, config, chunk_size, path):
    reference = ReferenceSingle(config)
    for address, code in zip(addresses, types):
        reference.access_block(address >> config.offset_bits, code)
    expected_stream = reference.hits if path == "access" else reference.misses

    for walk in walks_here():
        with walk_under_test(walk):
            simulator = SingleConfigSimulator(config)
        assert simulator.walk.split()[0] == walk
        stream = _simulate(simulator, addresses, types, chunk_size, path)

        assert dataclasses.asdict(simulator.stats) == dataclasses.asdict(reference.stats), walk
        assert simulator.resident_blocks() == reference.resident_blocks(), walk
        for set_index, blocks in enumerate(reference.resident_blocks()):
            assert simulator.resident_blocks(set_index) == [blocks], walk
        assert stream == expected_stream, walk
        frame = simulator.finalize()
        assert frame.walk == simulator.walk and frame.counters is None
        [row] = list(frame)
        stats = reference.stats
        assert (row.accesses, row.misses, row.compulsory_misses) == (
            stats.accesses, stats.misses, stats.compulsory_misses
        ), walk


@st.composite
def accesses(draw):
    """Byte addresses with a drawn footprint, some in same-block runs, and
    their access types from one drawn mix."""
    span = draw(st.sampled_from([16, 256, 4096, 1 << 20]))
    heads = draw(st.lists(st.integers(min_value=0, max_value=span - 1), max_size=150))
    repeats = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(heads),
                            max_size=len(heads)))
    addresses = [address for address, count in zip(heads, repeats) for _ in range(count)]
    mix = draw(st.sampled_from(TYPE_MIXES))
    types = draw(st.lists(st.sampled_from(mix), min_size=len(addresses),
                          max_size=len(addresses)))
    return addresses, types


@st.composite
def configs(draw):
    """FIFO, LRU and PLRU geometries: any way count up to 16 for FIFO and
    LRU, powers of two for PLRU."""
    policy = draw(st.sampled_from(
        [ReplacementPolicy.FIFO, ReplacementPolicy.LRU, ReplacementPolicy.PLRU]
    ))
    ways = (
        draw(st.sampled_from([1, 2, 4, 8, 16]))
        if policy is ReplacementPolicy.PLRU
        else draw(st.integers(min_value=1, max_value=16))
    )
    sets = 1 << draw(st.integers(min_value=0, max_value=10))
    block_size = 1 << draw(st.integers(min_value=0, max_value=6))
    return CacheConfig(sets, ways, block_size, policy)


@given(
    stream=accesses(),
    config=configs(),
    chunk_size=st.sampled_from([1, 7, 65_536]),
    path=st.sampled_from(PATHS),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_walk_matches_reference(stream, config, chunk_size, path):
    addresses, types = stream
    assert_matches_reference(addresses, types, config, chunk_size, path)


@pytest.mark.parametrize("policy", ["fifo", "lru", "plru"])
def test_corpus_trace_matches_reference(policy):
    trace = mediabench_trace("cjpeg", 6000, seed=1)
    addresses = trace.address_list()
    types = trace.access_types.tolist()
    for num_sets, associativity, block_size in ((1, 16, 4), (64, 4, 16), (1024, 1, 32)):
        config = CacheConfig(num_sets, associativity, block_size, ReplacementPolicy.parse(policy))
        for chunk_size in (512, 65_536):
            assert_matches_reference(addresses, types, config, chunk_size, "run_blocks")


@pytest.mark.parametrize("policy", ["fifo", "lru", "plru"])
def test_access_matches_run_blocks(policy):
    trace = mediabench_trace("djpeg", 2000, seed=2)
    config = CacheConfig(16, 4, 8, ReplacementPolicy.parse(policy))
    for walk in walks_here():
        with walk_under_test(walk):
            chunked, single = SingleConfigSimulator(config), SingleConfigSimulator(config)
        chunked.run(trace, chunk_size=333)
        hits = [
            single.access(address, AccessType(code))
            for address, code in zip(trace.address_list(), trace.access_types.tolist())
        ]
        assert dataclasses.asdict(single.stats) == dataclasses.asdict(chunked.stats), walk
        assert single.resident_blocks() == chunked.resident_blocks(), walk
        assert sum(hits) == chunked.stats.hits, walk


@pytest.mark.parametrize("policy", ["fifo", "lru", "plru"])
def test_reset_reproduces_a_fresh_simulator(policy):
    trace = mediabench_trace("cjpeg", 3000, seed=4)
    config = CacheConfig(8, 4, 16, ReplacementPolicy.parse(policy))
    for walk in walks_here():
        with walk_under_test(walk):
            simulator = SingleConfigSimulator(config)
            fresh = SingleConfigSimulator(config)
        simulator.run(trace)
        simulator.reset()
        assert simulator.stats == CacheStats() and simulator.resident_blocks() == [[]] * 8
        simulator.run(trace)
        fresh.run(trace)
        assert dataclasses.asdict(simulator.stats) == dataclasses.asdict(fresh.stats), walk
        assert simulator.resident_blocks() == fresh.resident_blocks(), walk


def test_plru_needs_a_power_of_two_associativity():
    for walk in walks_here():
        with walk_under_test(walk):
            with pytest.raises(SimulationError, match="power-of-two"):
                SingleConfigSimulator(CacheConfig(4, 3, 4, ReplacementPolicy.PLRU))
            # Only PLRU's tree needs a power of two.
            SingleConfigSimulator(CacheConfig(4, 3, 4, ReplacementPolicy.LRU)).run_blocks([0, 4])
