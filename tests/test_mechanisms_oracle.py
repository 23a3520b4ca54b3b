"""Oracle tests for the mechanism engines (victim / miss cache, stream buffers).

A naive pure-python reference re-implements each mechanism with plain lists,
driven strictly one access at a time over its own DL1 of
:class:`~repro.cache.cacheset.CacheSet` objects, so the engines' DL1 (the
compiled single-configuration walk wherever it loads) is checked against an
independent one.  Hypothesis then pins the registered engines byte-identical
to the reference — emitted frame rows *and* every mechanism counter — on
both walks, across geometries, all four policies (``random`` seeded), entry
counts {2, 4, 8, 16}, write-heavy access-type mixes and chunk sizes.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.cacheset import CacheSet
from repro.cache.policies import make_policy
from repro.engine import get_engine, get_engine_class
from repro.errors import ConfigurationError, SimulationError
from repro.mechanisms import (
    MECHANISM_ENGINE_NAMES,
    FullyAssociativeBuffer,
    StreamBufferSet,
)
from repro.trace.trace import Trace
from repro.types import AccessType, ReplacementPolicy
from walks import walk_under_test, walks_here

ENTRY_COUNTS = (2, 4, 8, 16)
READ, WRITE, FETCH = (int(AccessType.READ), int(AccessType.WRITE), int(AccessType.INSTR_FETCH))

#: Access-type mixes, from all reads to three writes in four.
TYPE_MIXES = ((READ,), (READ, WRITE), (WRITE, WRITE, WRITE, READ), (READ, WRITE, FETCH))


@st.composite
def accesses(draw):
    """(address, access-type) streams with a footprint small enough to thrash
    tiny caches but large enough to cycle every buffer size under test, in
    same-address runs of up to 9 that regularly straddle chunk boundaries."""
    heads = draw(st.lists(st.integers(min_value=0, max_value=255), max_size=80))
    repeats = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=len(heads),
                            max_size=len(heads)))
    addresses = [address for address, count in zip(heads, repeats) for _ in range(count)]
    mix = draw(st.sampled_from(TYPE_MIXES))
    types = draw(st.lists(st.sampled_from(mix), min_size=len(addresses),
                          max_size=len(addresses)))
    return list(zip(addresses, types))


@st.composite
def dl1_geometries(draw):
    """(policy, sets, ways): PLRU only with a power-of-two way count."""
    policy = draw(st.sampled_from(["fifo", "lru", "plru", "random"]))
    ways = (
        draw(st.sampled_from([1, 2, 4, 8]))
        if policy == "plru"
        else draw(st.integers(min_value=1, max_value=8))
    )
    sets = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    return policy, sets, ways


class NaiveMechanismReference:
    """Per-access reference: a DL1 of CacheSet objects plus naive list-based
    mechanism state.

    Mirrors the documented mechanism semantics with the dumbest possible data
    structures — ``buffer`` is a plain list (index 0 LRU, end MRU) and
    ``streams`` a list of lists probed MRU-first — so any cleverness in
    :mod:`repro.mechanisms.buffers`, the engines' miss-stream probing or
    the compiled DL1 walk has an independent implementation to disagree
    with.
    """

    def __init__(
        self,
        mechanism,
        num_sets,
        associativity,
        block_size,
        entries,
        policy="fifo",
        depth=4,
        seed=0,
    ):
        self.mechanism = mechanism
        self.entries = entries
        self.depth = depth
        self.offset_bits = block_size.bit_length() - 1
        self.sets = [
            CacheSet(
                associativity,
                make_policy(ReplacementPolicy.parse(policy), associativity, seed=seed + index),
            )
            for index in range(num_sets)
        ]
        self.seen = set()
        self.accesses = 0
        self.buffer = []
        self.streams = []
        self.misses = 0
        self.compulsory = 0
        self.hits = 0
        self.swaps = 0
        self.allocations = 0

    def access(self, address, access_type=AccessType.READ):
        self.access_block(address >> self.offset_bits, access_type)

    def access_block(self, block, access_type=AccessType.READ):
        self.accesses += 1
        first_touch = block not in self.seen
        self.seen.add(block)
        hit, evicted = self.sets[block % len(self.sets)].access(
            block, is_write=access_type == AccessType.WRITE
        )
        if hit or self._probe(block, evicted, access_type):
            return
        self.misses += 1
        if first_touch:
            self.compulsory += 1

    def _file(self, block):
        if block in self.buffer:
            self.buffer.remove(block)
        elif len(self.buffer) >= self.entries:
            del self.buffer[0]
        self.buffer.append(block)

    def _probe(self, block, evicted, access_type):
        if self.mechanism == "victim-cache":
            if block in self.buffer:
                self.hits += 1
                self.buffer.remove(block)
                if evicted is not None:
                    self._file(evicted)
                    self.swaps += 1
                return True
            if evicted is not None:
                self._file(evicted)
                self.allocations += 1
            return False
        if self.mechanism == "miss-cache":
            if block in self.buffer:
                self.hits += 1
                self.buffer.remove(block)
                self.buffer.append(block)
                return True
            self._file(block)
            self.allocations += 1
            return False
        assert self.mechanism == "stream-buffer"
        for index in range(len(self.streams) - 1, -1, -1):
            stream = self.streams[index]
            if stream and stream[0] == block:
                self.hits += 1
                del stream[0]
                stream.append(block + self.depth)
                self.streams.append(self.streams.pop(index))
                return True
        if access_type != AccessType.WRITE:
            if len(self.streams) >= self.entries:
                del self.streams[0]
            self.streams.append([block + offset for offset in range(1, self.depth + 1)])
            self.allocations += 1
        return False


def _assert_frame_matches_reference(engine, reference, mechanism, entries):
    frame = engine.finalize("oracle")
    assert len(frame) == 1
    assert frame.mechanism_at(0) == mechanism
    assert int(frame.mechanism_entries[0]) == entries
    assert frame.walk == engine.walk
    observed = {
        "accesses": int(frame.accesses[0]),
        "misses": int(frame.misses[0]),
        "compulsory": int(frame.compulsory[0]),
        "mechanism_hits": int(frame.mechanism_hits[0]),
        "mechanism_swaps": int(frame.mechanism_swaps[0]),
        "mechanism_allocations": int(frame.mechanism_allocations[0]),
    }
    expected = {
        "accesses": reference.accesses,
        "misses": reference.misses,
        "compulsory": reference.compulsory,
        "mechanism_hits": reference.hits,
        "mechanism_swaps": reference.swaps,
        "mechanism_allocations": reference.allocations,
    }
    assert observed == expected, engine.walk


class TestOracleParity:
    @given(
        stream=accesses(),
        mechanism=st.sampled_from(MECHANISM_ENGINE_NAMES),
        entries=st.sampled_from(ENTRY_COUNTS),
        block_size_log2=st.integers(min_value=0, max_value=3),
        geometry=dl1_geometries(),
        seed=st.integers(min_value=0, max_value=3),
        chunk_size=st.sampled_from([1, 3, 7, 1000]),
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_engine_matches_naive_reference(
        self, stream, mechanism, entries, block_size_log2, geometry, seed, chunk_size
    ):
        addresses = [address for address, _ in stream]
        types = [code for _, code in stream]
        policy, num_sets, associativity = geometry
        options = dict(
            num_sets=num_sets,
            associativity=associativity,
            block_size=1 << block_size_log2,
            entries=entries,
            policy=policy,
            seed=seed,
        )
        reference = NaiveMechanismReference(mechanism, **options)
        # Engines without wants_access_types never see the type stream, so
        # the reference must replay the same all-reads view they simulated.
        wants = get_engine_class(mechanism).wants_access_types
        for address, code in zip(addresses, types):
            reference.access(address, AccessType(code) if wants else AccessType.READ)
        for walk in walks_here():
            with walk_under_test(walk):
                engine = get_engine(mechanism, **options)
            if policy != "random":
                assert engine.walk.split()[0] == walk
            engine.run(Trace(addresses, types, name="oracle"), chunk_size=chunk_size)
            _assert_frame_matches_reference(engine, reference, mechanism, entries)


class TestDeterministicPins:
    def _thrash_engine(self, mechanism, entries=2):
        # 1-set direct-mapped DL1 with 1-byte blocks: every distinct address
        # is a distinct block and any two alternating blocks thrash DL1.
        return get_engine(
            mechanism, num_sets=1, associativity=1, block_size=1, entries=entries
        )

    def test_victim_cache_swap_cycle(self):
        engine = self._thrash_engine("victim-cache")
        engine.run_blocks([0, 1] * 4)
        frame = engine.finalize("pin")
        assert int(frame.accesses[0]) == 8
        assert int(frame.misses[0]) == 2
        assert int(frame.compulsory[0]) == 2
        assert int(frame.mechanism_hits[0]) == 6
        assert int(frame.mechanism_swaps[0]) == 6
        assert int(frame.mechanism_allocations[0]) == 1

    def test_miss_cache_thrash(self):
        engine = self._thrash_engine("miss-cache")
        engine.run_blocks([0, 1] * 4)
        frame = engine.finalize("pin")
        assert int(frame.misses[0]) == 2
        assert int(frame.mechanism_hits[0]) == 6
        assert int(frame.mechanism_swaps[0]) == 0
        assert int(frame.mechanism_allocations[0]) == 2

    def test_stream_buffer_sequential_stream(self):
        engine = self._thrash_engine("stream-buffer", entries=1)
        engine.run_blocks(list(range(10)))
        frame = engine.finalize("pin")
        assert int(frame.misses[0]) == 1
        assert int(frame.mechanism_hits[0]) == 9
        assert int(frame.mechanism_allocations[0]) == 1

    def test_stream_buffer_write_does_not_allocate(self):
        engine = self._thrash_engine("stream-buffer")
        engine.run_blocks([0], [int(AccessType.WRITE)])
        assert engine.mechanism_allocations == 0
        engine.run_blocks([64], [int(AccessType.READ)])
        assert engine.mechanism_allocations == 1

    def test_run_split_across_calls_matches_raw(self):
        # A same-block run split across two calls gives the frame of the
        # whole stream in one call.
        options = dict(num_sets=1, associativity=1, block_size=1, entries=4)
        for walk in walks_here():
            with walk_under_test(walk):
                split = get_engine("victim-cache", **options)
                raw = get_engine("victim-cache", **options)
            split.run_blocks([6, 5, 5, 5])
            split.run_blocks([5, 5, 6])
            raw.run_blocks([6, 5, 5, 5, 5, 5, 6])
            assert split.finalize("split") == raw.finalize("split"), walk
            assert int(raw.finalize("split").mechanism_hits[0]) == 1, walk

    def test_reset_restores_a_fresh_engine(self):
        engine = self._thrash_engine("victim-cache")
        engine.run_blocks([0, 1, 0, 1])
        engine.reset()
        engine.run_blocks([0, 1] * 4)
        assert int(engine.finalize("pin").mechanism_swaps[0]) == 6


class TestValidation:
    @pytest.mark.parametrize("mechanism", MECHANISM_ENGINE_NAMES)
    def test_entries_must_be_positive(self, mechanism):
        with pytest.raises(ConfigurationError, match="positive"):
            get_engine(
                mechanism, num_sets=1, associativity=1, block_size=4, entries=0
            )

    def test_stream_buffer_type_mismatch_rejected(self):
        options = dict(num_sets=1, associativity=1, block_size=4, entries=2)
        for walk in walks_here():
            with walk_under_test(walk):
                engine = get_engine("stream-buffer", **options)
            for types in ([0], [0, 1, 0], [0, 3]):
                with pytest.raises(SimulationError, match="access type"):
                    engine.run_blocks([1, 2], types)
            # The rejected chunks changed nothing.
            assert engine.finalize("pin") == get_engine("stream-buffer", **options).finalize(
                "pin"
            ), walk


class TestBufferStructures:
    def test_fully_associative_lru_order(self):
        buffer = FullyAssociativeBuffer(2)
        assert buffer.insert(1) is None
        assert buffer.insert(2) is None
        assert buffer.insert(1) is None  # refresh, no eviction
        assert buffer.resident_blocks() == [2, 1]
        assert buffer.insert(3) == 2  # LRU evicted
        buffer.touch(1)
        assert buffer.resident_blocks() == [3, 1]
        buffer.remove(3)
        assert 3 not in buffer and len(buffer) == 1
        buffer.reset()
        assert len(buffer) == 0

    def test_fully_associative_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            FullyAssociativeBuffer(0)

    def test_stream_buffer_set_probes_mru_first(self):
        buffers = StreamBufferSet(2, depth=1)
        buffers.allocate(4)  # stream A: head 5
        buffers.allocate(4)  # stream B: head 5, MRU
        assert buffers.probe(5) is True
        # The MRU stream consumed its head and advanced; LRU stream intact.
        assert buffers.heads() == [5, 6]

    def test_stream_buffer_set_replaces_lru(self):
        buffers = StreamBufferSet(2, depth=2)
        buffers.allocate(0)  # heads [1]
        buffers.allocate(10)  # heads [1, 11]
        buffers.allocate(20)  # LRU (head 1) replaced
        assert buffers.heads() == [11, 21]
        buffers.reset()
        assert len(buffers) == 0

    def test_stream_buffer_set_validation(self):
        with pytest.raises(ConfigurationError):
            StreamBufferSet(0)
        with pytest.raises(ConfigurationError):
            StreamBufferSet(1, depth=0)
