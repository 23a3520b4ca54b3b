"""Property-based engine parity: every registered engine equals the reference.

The engine registry promises that any multi-configuration engine reports
miss counts identical to an independent
:class:`~repro.cache.simulator.SingleConfigSimulator` run of each
configuration, for any trace, any policy the engine models, and any chunk
size — including chunk size 1, a prime size that straddles chunk boundaries,
and a size larger than the whole trace.
"""

import hypothesis.strategies as st
import pytest
from engine_options import ENGINE_TEST_OPTIONS
from hypothesis import HealthCheck, given, settings

from repro.cache.simulator import SingleConfigSimulator
from repro.engine import available_engines, get_engine
from repro.mechanisms import MECHANISM_ENGINE_NAMES
from repro.trace.trace import Trace

ADDRESSES = st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=120)

#: Chunk sizes covering the degenerate, misaligned and whole-trace cases.
CHUNK_SIZES = st.sampled_from([1, 7, 1000])


def _assert_matches_reference(results, trace):
    for config in results.configs():
        reference = SingleConfigSimulator(config)
        reference.run(trace)
        assert reference.stats.misses == results[config].misses, (
            f"{config.label()}: engine={results[config].misses} "
            f"reference={reference.stats.misses}"
        )


@given(
    addresses=ADDRESSES,
    block_size_log2=st.integers(min_value=0, max_value=4),
    associativity=st.sampled_from([1, 2, 4]),
    levels=st.integers(min_value=1, max_value=5),
    chunk_size=CHUNK_SIZES,
)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dew_engine_matches_reference(addresses, block_size_log2, associativity, levels, chunk_size):
    trace = Trace(addresses, name="random")
    engine = get_engine(
        "dew",
        block_size=1 << block_size_log2,
        associativity=associativity,
        set_sizes=tuple(2**i for i in range(levels)),
    )
    _assert_matches_reference(engine.run(trace, chunk_size=chunk_size), trace)


@given(
    addresses=ADDRESSES,
    block_size_log2=st.integers(min_value=0, max_value=4),
    levels=st.integers(min_value=1, max_value=4),
    chunk_size=CHUNK_SIZES,
    runs=st.booleans(),
)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lru_family_engines_match_reference(addresses, block_size_log2, levels, chunk_size, runs):
    """``janapsatya`` is exact fed raw chunks or run-length collapsed ones."""
    trace = Trace(addresses, name="random")
    engine = get_engine(
        "janapsatya",
        block_size=1 << block_size_log2,
        associativities=(1, 2, 4),
        set_sizes=tuple(2**i for i in range(levels)),
    )
    if not runs:
        _assert_matches_reference(engine.run(trace, chunk_size=chunk_size), trace)
        return
    for values, counts in trace.iter_block_runs(engine.offset_bits, chunk_size):
        engine.run_block_runs(values, counts)
    _assert_matches_reference(engine.finalize(trace_name=trace.name), trace)


@given(
    addresses=ADDRESSES,
    block_size_log2=st.integers(min_value=0, max_value=3),
    num_sets=st.sampled_from([1, 2, 8]),
    associativity=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from(["fifo", "lru", "plru"]),
    chunk_size=CHUNK_SIZES,
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_single_engine_matches_direct_simulation(
    addresses, block_size_log2, num_sets, associativity, policy, chunk_size
):
    from repro.core.config import CacheConfig
    from repro.types import ReplacementPolicy

    trace = Trace(addresses, name="random")
    config = CacheConfig(num_sets, associativity, 1 << block_size_log2,
                         ReplacementPolicy.parse(policy))
    engine = get_engine("single", config=config)
    results = engine.run(trace, chunk_size=chunk_size)
    direct = SingleConfigSimulator(config)
    for address in addresses:
        direct.access(address)
    assert direct.stats.misses == results[config].misses
    assert direct.stats.as_dict() == engine.stats.as_dict()


@pytest.mark.parametrize("engine_name", available_engines())
@given(addresses=ADDRESSES, chunk_size=CHUNK_SIZES)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_registered_engine_is_chunk_invariant(engine_name, addresses, chunk_size):
    """Registry-driven: any engine's results are independent of chunking.

    Parametrized over ``available_engines()`` with options from
    :data:`engine_options.ENGINE_TEST_OPTIONS`, so newly registered engines are
    property-tested automatically.
    """
    trace = Trace(addresses, name="random")
    baseline = get_engine(engine_name, **ENGINE_TEST_OPTIONS[engine_name]).run(
        trace, chunk_size=17
    )
    probe = get_engine(engine_name, **ENGINE_TEST_OPTIONS[engine_name]).run(
        trace, chunk_size=chunk_size
    )
    assert probe.as_rows() == baseline.as_rows()


@pytest.mark.parametrize("engine_name", MECHANISM_ENGINE_NAMES)
@given(
    addresses=ADDRESSES,
    entries=st.sampled_from([2, 4, 8, 16]),
    chunk_size=CHUNK_SIZES,
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mechanism_engines_conserve_bare_cache_misses(
    engine_name, addresses, entries, chunk_size
):
    """Every DL1 miss is either served by the mechanism or survives.

    The mechanism never changes DL1's own behaviour, so ``misses +
    mechanism_hits`` must equal the bare cache's miss count exactly, and the
    access column must match the reference run.
    """
    trace = Trace(addresses, name="random")
    options = ENGINE_TEST_OPTIONS[engine_name] | {"entries": entries}
    engine = get_engine(engine_name, **options)
    engine.run(trace, chunk_size=chunk_size)
    reference = SingleConfigSimulator(engine.config)
    reference.run(trace)
    frame = engine.finalize_frame("random")
    assert int(frame.accesses[0]) == reference.stats.accesses
    assert int(frame.misses[0]) + int(frame.mechanism_hits[0]) == reference.stats.misses
