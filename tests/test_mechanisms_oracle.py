"""Oracle tests for the mechanism engines (victim / miss cache, stream buffers).

A naive pure-python reference re-implements each mechanism at one entry
count with plain lists, driven strictly one access at a time over its own
DL1 of :class:`~repro.cache.cacheset.CacheSet` objects, so the engines' DL1
(the compiled single-configuration walk wherever it loads) is checked
against an independent one.  The reference keeps each stream buffer's
whole stream, ``depth`` blocks deep, where the engines keep only its head.
Hypothesis then pins each registered engine, run once over a set of entry
counts, to one reference per count — every column of every emitted row —
on both walks, across geometries, all four policies (``random`` seeded),
entry counts 1-16, stream depths, write-heavy access-type mixes and chunk
sizes.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.cacheset import CacheSet
from repro.cache.policies import make_policy
from repro.core.config import CacheConfig
from repro.engine import get_engine, get_engine_class
from repro.errors import ConfigurationError, SimulationError
from repro.mechanisms import MECHANISM_ENGINE_NAMES, entry_counts
from repro.trace.trace import Trace
from repro.types import AccessType, ReplacementPolicy
from walks import walk_under_test, walks_here

READ, WRITE, FETCH = (int(AccessType.READ), int(AccessType.WRITE), int(AccessType.INSTR_FETCH))

#: Access-type mixes, from all reads to three writes in four.
TYPE_MIXES = ((READ,), (READ, WRITE), (WRITE, WRITE, WRITE, READ), (READ, WRITE, FETCH))

#: Stream depths the reference runs; the engines have none.
DEPTHS = (1, 2, 4, 8)


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


class NaiveMechanismReference:
    """Per-access reference: a DL1 of CacheSet objects plus naive list-based
    mechanism state.

    Mirrors the documented mechanism semantics at one entry count with the
    dumbest possible data structures — ``buffer`` is a plain list (index 0
    LRU, end MRU) and ``streams`` a list of ``depth``-long lists probed
    MRU-first — so any cleverness in the engines (one recency list for
    every count, streams held as heads, the compiled probes and DL1 walk)
    has an independent implementation to disagree with.
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


def _run(mechanism, blocks, types=None, entries=(2,)):
    """The frame of one engine over ``blocks`` on a 1-set direct-mapped DL1
    with 1-byte blocks, where every distinct block is a distinct block and
    any two alternating blocks thrash the DL1.  Every walk here must agree."""
    frames = []
    for walk in walks_here():
        with walk_under_test(walk):
            engine = get_engine(
                mechanism, num_sets=1, associativity=1, block_size=1, entries=entries
            )
        engine.run_blocks(blocks, types)
        engine.set_compulsory(len(set(blocks)))
        frames.append(engine.finalize("pin"))
    assert all(frame == frames[0] for frame in frames), walks_here()
    return frames[0]


def _column(frame, name):
    """``name``'s column by entry count."""
    return dict(zip(frame.mechanism_entries.tolist(), getattr(frame, name).tolist()))


def _assert_rows_match_references(frame, engine, references, mechanism, config):
    assert frame.walk == engine.walk
    assert [frame.mechanism_at(row) for row in range(len(frame))] == [mechanism] * len(references)
    assert [frame.config_at(row) for row in range(len(frame))] == [config] * len(references)
    observed = {
        int(frame.mechanism_entries[row]): {
            "accesses": int(frame.accesses[row]),
            "misses": int(frame.misses[row]),
            "compulsory": int(frame.compulsory[row]),
            "mechanism_hits": int(frame.mechanism_hits[row]),
            "mechanism_swaps": int(frame.mechanism_swaps[row]),
            "mechanism_allocations": int(frame.mechanism_allocations[row]),
        }
        for row in range(len(frame))
    }
    expected = {
        count: {
            "accesses": reference.accesses,
            "misses": reference.misses,
            "compulsory": reference.compulsory,
            "mechanism_hits": reference.hits,
            "mechanism_swaps": reference.swaps,
            "mechanism_allocations": reference.allocations,
        }
        for count, reference in references.items()
    }
    assert observed == expected, engine.walk


class TestOracleParity:
    @given(
        stream=accesses(),
        mechanism=st.sampled_from(MECHANISM_ENGINE_NAMES),
        counts=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=5),
        depth=st.sampled_from(DEPTHS),
        block_size_log2=st.integers(min_value=0, max_value=3),
        geometry=dl1_geometries(),
        seed=st.integers(min_value=0, max_value=3),
        chunk_size=st.sampled_from([1, 7, 65536]),
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_engine_matches_naive_reference(
        self, stream, mechanism, counts, depth, block_size_log2, geometry, seed, chunk_size
    ):
        addresses = [address for address, _ in stream]
        types = [code for _, code in stream]
        policy, num_sets, associativity = geometry
        options = dict(
            num_sets=num_sets,
            associativity=associativity,
            block_size=1 << block_size_log2,
            policy=policy,
            seed=seed,
        )
        references = {
            count: NaiveMechanismReference(mechanism, entries=count, depth=depth, **options)
            for count in sorted(set(counts))
        }
        # Engines without wants_access_types never see the type stream, so
        # the references must replay the same all-reads view they simulated.
        wants = get_engine_class(mechanism).wants_access_types
        for address, code in zip(addresses, types):
            for reference in references.values():
                reference.access(address, AccessType(code) if wants else AccessType.READ)
        config = CacheConfig(num_sets, associativity, 1 << block_size_log2, policy)
        for walk in walks_here():
            with walk_under_test(walk):
                engine = get_engine(mechanism, entries=counts, **options)
            assert engine.entries == tuple(references)
            if policy != "random":
                assert engine.walk.split()[0] == walk
            frame = engine.run(Trace(addresses, types, name="oracle"), chunk_size=chunk_size)
            _assert_rows_match_references(frame, engine, references, mechanism, config)


class TestDeterministicPins:
    def test_victim_cache_swap_cycle(self):
        frame = _run("victim-cache", [0, 1] * 4)
        assert int(frame.accesses[0]) == 8
        assert int(frame.misses[0]) == 2
        assert int(frame.compulsory[0]) == 2
        assert int(frame.mechanism_hits[0]) == 6
        assert int(frame.mechanism_swaps[0]) == 6
        assert int(frame.mechanism_allocations[0]) == 1

    def test_miss_cache_thrash(self):
        frame = _run("miss-cache", [0, 1] * 4)
        assert int(frame.misses[0]) == 2
        assert int(frame.mechanism_hits[0]) == 6
        assert int(frame.mechanism_swaps[0]) == 0
        assert int(frame.mechanism_allocations[0]) == 2

    def test_stream_buffer_sequential_stream(self):
        frame = _run("stream-buffer", list(range(10)), entries=1)
        assert int(frame.misses[0]) == 1
        assert int(frame.mechanism_hits[0]) == 9
        assert int(frame.mechanism_allocations[0]) == 1

    def test_stream_buffer_write_does_not_allocate(self):
        assert int(_run("stream-buffer", [0], [WRITE]).mechanism_allocations[0]) == 0
        frame = _run("stream-buffer", [0, 64], [WRITE, READ])
        assert int(frame.mechanism_allocations[0]) == 1

    def test_victim_list_position_credits_only_larger_counts(self):
        # Blocks 0..3 each evict the one before: the victim list is then
        # [2, 1, 0], and block 0 is found at position 2.
        frame = _run("victim-cache", [0, 1, 2, 3, 0], entries=(2, 16))
        assert _column(frame, "mechanism_hits") == {2: 0, 16: 1}
        assert _column(frame, "mechanism_swaps") == {2: 0, 16: 1}
        # Four evictions: each is a swap or an allocation.
        assert _column(frame, "mechanism_allocations") == {2: 4, 16: 3}
        assert _column(frame, "misses") == {2: 5, 16: 4}

    def test_write_served_only_by_the_larger_set_changes_only_that_set(self):
        # After reads of 10 and 20, one stream heads at 21 and two at 11 and
        # 21.  The write of 11 hits only the two-stream set, and allocates
        # nothing in the one-stream set, whose stream still serves 21.
        frame = _run("stream-buffer", [10, 20, 11, 21], [READ, READ, WRITE, READ], entries=(1, 2))
        assert _column(frame, "mechanism_hits") == {1: 1, 2: 2}
        assert _column(frame, "mechanism_allocations") == {1: 2, 2: 2}
        assert _column(frame, "misses") == {1: 3, 2: 2}

    def test_served_first_touch_lowers_only_its_count_compulsory(self):
        # Block 1's first touch is served where the stream from 0 survived
        # the one from 10: with two streams, not with one.
        frame = _run("stream-buffer", [0, 10, 1], entries=(1, 2))
        assert _column(frame, "mechanism_hits") == {1: 0, 2: 1}
        assert _column(frame, "compulsory") == {1: 3, 2: 2}

    def test_run_split_across_calls_matches_raw(self):
        # A same-block run split across two calls gives the frame of the
        # whole stream in one call.
        options = dict(num_sets=1, associativity=1, block_size=1, entries=(1, 4))
        for walk in walks_here():
            with walk_under_test(walk):
                split = get_engine("victim-cache", **options)
                raw = get_engine("victim-cache", **options)
            split.run_blocks([6, 5, 5, 5])
            split.run_blocks([5, 5, 6])
            raw.run_blocks([6, 5, 5, 5, 5, 5, 6])
            assert split.finalize("split") == raw.finalize("split"), walk
            assert _column(raw.finalize("split"), "mechanism_hits") == {1: 1, 4: 1}, walk

    def test_reset_restores_a_fresh_engine(self):
        for walk in walks_here():
            for mechanism in MECHANISM_ENGINE_NAMES:
                with walk_under_test(walk):
                    engine = get_engine(
                        mechanism, num_sets=1, associativity=1, block_size=1, entries=(2, 3)
                    )
                engine.run_blocks([0, 1, 2, 0, 1])
                engine.reset()
                engine.run_blocks([0, 1] * 4)
                engine.set_compulsory(2)
                assert engine.finalize("pin") == _run(mechanism, [0, 1] * 4, entries=(2, 3))


class TestValidation:
    @pytest.mark.parametrize("mechanism", MECHANISM_ENGINE_NAMES)
    def test_entries_must_be_positive(self, mechanism):
        with pytest.raises(ConfigurationError, match="positive"):
            get_engine(
                mechanism, num_sets=1, associativity=1, block_size=4, entries=0
            )

    @pytest.mark.parametrize("mechanism", MECHANISM_ENGINE_NAMES)
    @pytest.mark.parametrize("entries", [(), [], (2, 0), (4, -1, 8)])
    def test_entry_counts_need_one_and_none_below_one(self, mechanism, entries):
        with pytest.raises(ConfigurationError, match="positive"):
            get_engine(mechanism, num_sets=1, associativity=1, block_size=4, entries=entries)

    def test_entry_counts_are_sorted_and_deduplicated(self):
        assert entry_counts(16) == (16,)
        assert entry_counts([16, 2, 16, 3]) == (2, 3, 16)

    def test_stream_buffer_type_mismatch_rejected(self):
        options = dict(num_sets=1, associativity=1, block_size=4, entries=(2, 3))
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
    """The buffers' own behaviour, seen through the engines' rows."""

    def test_fully_associative_lru_order(self):
        # A miss-cache hit refreshes its block, so the third miss evicts 2,
        # not 1, from the two-entry buffer, and 1 hits again.
        frame = _run("miss-cache", [1, 2, 1, 3, 1], entries=(1, 2))
        assert _column(frame, "mechanism_hits") == {1: 0, 2: 2}
        assert _column(frame, "mechanism_allocations") == {1: 5, 2: 3}

    def test_fully_associative_rejects_zero_entries(self):
        for mechanism in ("victim-cache", "miss-cache"):
            with pytest.raises(ConfigurationError):
                get_engine(mechanism, num_sets=1, associativity=1, block_size=1, entries=(0, 2))

    def test_stream_buffer_set_probes_mru_first(self):
        # Heads after 4, 8, 4 (least recent first): 5, 9, 5.  The probe of 5
        # advances the most recent stream (5, 9, 6), so the allocation for
        # 30 drops the other (9, 6, 31), and 5 misses again.  Advancing the
        # least recent one would have left 5 to serve it.
        frame = _run("stream-buffer", [4, 8, 4, 5, 30, 5], entries=3)
        assert int(frame.mechanism_hits[0]) == 1
        assert int(frame.mechanism_allocations[0]) == 5

    def test_stream_buffer_set_replaces_lru(self):
        # Streams from 0, 10 and 20 in two buffers: the one from 0 goes.
        assert int(_run("stream-buffer", [0, 10, 20, 11, 21]).mechanism_hits[0]) == 2
        assert int(_run("stream-buffer", [0, 10, 20, 1]).mechanism_hits[0]) == 0

    def test_stream_buffer_set_validation(self):
        options = dict(num_sets=1, associativity=1, block_size=1)
        with pytest.raises(ConfigurationError):
            get_engine("stream-buffer", entries=(), **options)
        # Only heads are probed and a hit advances a head by one, so a
        # stream's depth changes nothing and is no option.
        with pytest.raises(TypeError, match="depth"):
            get_engine("stream-buffer", entries=2, depth=4, **options)
