"""Recycled DEW tree storage: the pool of :mod:`repro.core.tree`.

Each pass of the sweep executor builds its DEW engines with
``recycled=True``: a tree takes record storage of its shape that the
previous pass released, and hands its own back, as it is, once its job is
finalized.  The taker moves the storage to a new epoch, under which every
record the last tree wrote reads as empty.  Recycled storage must give
exactly what fresh storage gives — rows, every ``DewCounters`` field and
the final tree — under every ablation mode, the same trace run twice
included; the pool holds only what the latest pass released, and nothing
in a forked child.  The records exist only under the compiled walk, so
every case here needs the kernels.
"""

import dataclasses
import itertools
import os
import sys
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.dew import DewSimulator
from repro.core.tree import STORAGE_POOL, Records, record_dtype
from repro.engine.base import get_engine_class
from repro.engine.sweep import FusedSweepExecutor, build_grid_jobs, run_sweep
from repro.errors import SimulationError
from repro.service.api import doubling_set_sizes
from repro.workloads.mediabench import mediabench_trace
from walks import require_kernel

ABLATION_MODES = list(itertools.product([True, False], repeat=3))
TABLE3_SETS = doubling_set_sizes(16384)


@pytest.fixture(autouse=True)
def empty_pool():
    """Every case starts and ends with an empty pool."""
    require_kernel()
    STORAGE_POOL.clear()
    yield
    STORAGE_POOL.clear()


def _tree_state(tree):
    return (tree.tags, tree.waves, tree.mra, tree.mre_tag, tree.mre_wave, tree.fifo_ptr)


def _held():
    """The storage the pool holds now, each with the shape it is held by:
    ``(node count, associativity)``."""
    return [(shape, storage) for shape, free in STORAGE_POOL._free.items() for storage in free]


def _epochs(storage):
    """The epoch each record was last stamped with (0: never)."""
    return storage.array["epoch"]


def _assert_empty(tree):
    """Every node of ``tree`` reads as empty, whatever its records hold (the
    resident blocks of each level's first 16 sets)."""
    assert tree.mra == [[-1] * size for size in tree.set_sizes]
    assert tree.tags == [[-1] * (size * tree.associativity) for size in tree.set_sizes]
    assert all(
        tree.resident_blocks(level, index) == []
        for level, size in enumerate(tree.set_sizes)
        for index in range(min(size, 16))
    )


def _dew(block_size, associativity, set_sizes, modes, recycled=False):
    enable_mra, enable_wave, enable_mre = modes
    return DewSimulator(
        block_size,
        associativity,
        set_sizes,
        enable_mra=enable_mra,
        enable_wave=enable_wave,
        enable_mre=enable_mre,
        recycled=recycled,
    )


@st.composite
def address_streams(draw):
    """Byte addresses with a drawn footprint, some in same-block runs."""
    span = draw(st.sampled_from([16, 256, 4096, 1 << 20]))
    heads = draw(st.lists(st.integers(min_value=0, max_value=span - 1), max_size=150))
    repeats = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(heads),
                            max_size=len(heads)))
    return [address for address, count in zip(heads, repeats) for _ in range(count)]


@given(
    previous=address_streams(),
    addresses=address_streams(),
    block_size_log2=st.integers(min_value=0, max_value=6),
    associativity=st.sampled_from((1, 2, 3, 4, 8, 16)),
    levels=st.integers(min_value=1, max_value=12),
    previous_modes=st.sampled_from(ABLATION_MODES),
    modes=st.sampled_from(ABLATION_MODES),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_recycled_storage_matches_fresh(
    previous, addresses, block_size_log2, associativity, levels, previous_modes, modes
):
    block_size, set_sizes = 1 << block_size_log2, doubling_set_sizes(1 << (levels - 1))
    STORAGE_POOL.clear()
    # Storage another trace walked, under its own ablation mode, then released.
    used = _dew(block_size, associativity, set_sizes, previous_modes, recycled=True)
    used.run(previous)
    used.release()
    [(_, released)] = _held()

    recycled = _dew(block_size, associativity, set_sizes, modes, recycled=True)
    assert recycled.tree.storage is released and not _held()
    fresh = _dew(block_size, associativity, set_sizes, modes)
    recycled_frame, fresh_frame = recycled.run(addresses), fresh.run(addresses)

    assert recycled_frame.as_rows() == fresh_frame.as_rows()
    # Every counter field, the per-level evaluation histogram included.
    assert dataclasses.asdict(recycled.counters) == dataclasses.asdict(fresh.counters)
    assert _tree_state(recycled.tree) == _tree_state(fresh.tree)


def test_recycling_passes_give_the_frames_of_fresh_engines():
    traces = [mediabench_trace(app, 3000, seed=4) for app in ("cjpeg", "mpeg2_enc", "cjpeg")]
    jobs = build_grid_jobs((4, 64), (4, 16), TABLE3_SETS, ("fifo",))
    for trace in traces:
        for job, frame in zip(jobs, FusedSweepExecutor(trace, jobs).execute()):
            alone = job.build().run(trace)
            assert frame.as_rows() == alone.as_rows(), job.label()
            assert dataclasses.asdict(frame.counters) == dataclasses.asdict(alone.counters)


@pytest.mark.parametrize("modes", ABLATION_MODES)
def test_same_trace_twice_over_recycled_storage_matches_fresh(modes):
    # The second run looks up exactly the blocks the stale records hold, so
    # a walk that read a stale record as live would hit where fresh storage
    # misses.
    trace = mediabench_trace("cjpeg", 3000, seed=11)
    for block_size, associativity in ((4, 1), (16, 4), (64, 16)):
        STORAGE_POOL.clear()
        used = _dew(block_size, associativity, TABLE3_SETS, modes, recycled=True)
        used.run(trace)
        used.release()
        [(_, released)] = _held()
        again = _dew(block_size, associativity, TABLE3_SETS, modes, recycled=True)
        assert again.tree.storage is released
        _assert_empty(again.tree)
        fresh = _dew(block_size, associativity, TABLE3_SETS, modes)
        again_frame, fresh_frame = again.run(trace), fresh.run(trace)
        assert again_frame.as_rows() == fresh_frame.as_rows(), (block_size, associativity)
        assert dataclasses.asdict(again.counters) == dataclasses.asdict(fresh.counters)
        assert _tree_state(again.tree) == _tree_state(fresh.tree)


def test_released_storage_is_handed_back_as_it_is():
    trace = mediabench_trace("mpeg2_enc", 3000, seed=3)
    jobs = build_grid_jobs((4, 16), (2, 4, 16), TABLE3_SETS, ("fifo",))
    FusedSweepExecutor(trace, jobs).execute()
    held = _held()
    assert sorted(shape for shape, _ in held) == [
        (32767, 2), (32767, 2), (32767, 4), (32767, 4), (32767, 16), (32767, 16)
    ]
    for (nodes, associativity), storage in held:
        assert isinstance(storage, Records)
        assert storage.array.shape == (nodes,)
        assert storage.array.dtype == record_dtype(associativity)
        # No pass zeroed it: the records keep what the walk wrote, stamped
        # with the epoch the storage was last used at.
        assert storage.epoch == 1 and _epochs(storage).max() == 1
    # The next tree of a shape takes one, at the next epoch, and reads every
    # node as empty.
    for associativity in (2, 4, 16):
        taker = DewSimulator(4, associativity, TABLE3_SETS, recycled=True)
        assert any(taker.tree.storage is storage for _, storage in held)
        assert taker.tree.storage.epoch == 2
        _assert_empty(taker.tree)


def test_reset_empties_the_same_storage_in_place():
    trace = mediabench_trace("cjpeg", 2000, seed=5)
    simulator = DewSimulator(16, 4, TABLE3_SETS)
    first = simulator.run(trace).as_rows()
    storage = simulator.tree.storage
    written = storage.array.copy()
    simulator.reset()
    # A new epoch, and no pass over the array.
    assert simulator.tree.storage is storage and storage.epoch == 2
    assert np.array_equal(storage.array, written)
    _assert_empty(simulator.tree)
    assert simulator.run(trace).as_rows() == first
    # A reset of the tree alone empties it for the simulator's walk too.
    simulator.tree.reset()
    blocks = trace.addresses >> 4
    fresh = DewSimulator(16, 4, TABLE3_SETS)
    simulator.run_blocks(blocks)
    fresh.run_blocks(blocks)
    assert _tree_state(simulator.tree) == _tree_state(fresh.tree)


def test_epochs_past_the_int32_range_never_wrap():
    trace = mediabench_trace("cjpeg", 2000, seed=5)
    simulator = DewSimulator(16, 4, TABLE3_SETS)
    first = simulator.run(trace).as_rows()
    storage = simulator.tree.storage
    # Epochs are int64: the walk stamps 2**31 - 1 and 2**31 like any other,
    # and each reads the records of the one before as stale.
    storage.epoch = 2**31 - 2
    for epoch in (2**31 - 1, 2**31):
        simulator.reset()
        assert storage.epoch == epoch and simulator.tree.storage is storage
        _assert_empty(simulator.tree)
        assert simulator.run(trace).as_rows() == first
        assert _epochs(storage).max() == epoch
    fresh = DewSimulator(16, 4, TABLE3_SETS)
    fresh.run(trace)
    assert _tree_state(simulator.tree) == _tree_state(fresh.tree)


def test_released_engine_raises_instead_of_writing():
    simulator = DewSimulator(4, 4, (1, 2, 4), recycled=True)
    simulator.run_blocks([1, 2, 3, 1])
    simulator.release()
    [(_, held)] = _held()
    written = held.array.copy()
    with pytest.raises(SimulationError, match="released"):
        simulator.run_blocks([5, 6])
    with pytest.raises(SimulationError, match="released"):
        simulator.access(20)
    with pytest.raises(SimulationError, match="released"):
        simulator.tree.tags
    assert held.epoch == 1 and np.array_equal(held.array, written)
    # What it simulated before the release still finalizes.
    assert set(simulator.finalize().accesses.tolist()) == {4}
    # A reset gives the simulator storage again.
    simulator.reset()
    simulator.run_blocks([5, 6])
    assert simulator.requests == 2


def test_engines_built_by_callers_never_touch_the_pool():
    trace = mediabench_trace("cjpeg", 2000, seed=6)
    jobs = build_grid_jobs((16,), (4,), TABLE3_SETS, ("fifo",))
    FusedSweepExecutor(trace, jobs).execute()
    [(_, held)] = _held()
    simulator = jobs[0].build()
    assert simulator.tree.storage is not held
    simulator.run(trace)
    simulator.release()
    assert [id(storage) for _, storage in _held()] == [id(held)]
    assert simulator.tree.storage is not None
    # LRU storage is not pooled at all.
    assert not get_engine_class("janapsatya").recycles_storage


def test_pool_keeps_only_what_the_latest_pass_released():
    trace = mediabench_trace("cjpeg", 2000, seed=7)
    sizes = doubling_set_sizes(1024)
    first = build_grid_jobs((4,), (2, 4), sizes, ("fifo",))
    second = build_grid_jobs((4,), (4, 8), sizes, ("fifo",))
    FusedSweepExecutor(trace, first).execute()
    held_first = _held()
    assert sorted(shape for shape, _ in held_first) == [(2047, 2), (2047, 4)]
    for _ in range(3):
        FusedSweepExecutor(trace, second).execute()
        held = _held()
        assert sorted(shape for shape, _ in held) == [(2047, 4), (2047, 8)]
    # The A 4 trees kept reusing the first pass's A 4 storage; its A 2
    # storage went with the second pass.
    assert {id(storage) for _, storage in held_first} & {id(storage) for _, storage in held} == {
        id(storage) for shape, storage in held_first if shape == (2047, 4)
    }


def test_threads_sharing_the_pool_never_share_storage():
    # The service daemon runs jobs on several threads, and the walks run
    # with the interpreter lock released.  A tree handed storage
    # another live tree still uses would give other rows.
    trace = mediabench_trace("cjpeg", 2000, seed=9)
    jobs = build_grid_jobs((4, 16), (2, 4), doubling_set_sizes(1024), ("fifo",))
    expected = [frame.as_rows() for frame in FusedSweepExecutor(trace, jobs).execute()]
    failures = []

    def passes():
        try:
            for _ in range(10):
                frames = FusedSweepExecutor(trace, jobs).execute()
                if [frame.as_rows() for frame in frames] != expected:
                    failures.append("rows differ")
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=passes) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_forked_child_starts_with_an_empty_pool():
    trace = mediabench_trace("cjpeg", 1000, seed=8)
    FusedSweepExecutor(trace, build_grid_jobs((4,), (4,), (1, 2), ("fifo",))).execute()
    assert _held()
    # Another thread's hold on the lock, at the moment of the fork: the
    # child must get a fresh lock as well as an empty pool.
    with STORAGE_POOL._lock:
        pid = os.fork()
        if pid == 0:
            code = 3
            try:
                code = 0 if STORAGE_POOL._lock.acquire(timeout=10) else 1
                if code == 0 and STORAGE_POOL._free:
                    code = 2
            finally:
                os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _held()


def test_repeated_pass_takes_almost_no_minor_faults():
    trace = mediabench_trace("mpeg2_enc", 6000, seed=1)
    jobs = build_grid_jobs((4,), (16,), TABLE3_SETS, ("fifo",))
    run_sweep(trace, jobs)
    # On fresh storage this pass faults in up to about 1,800 pages of its
    # tree (fewer where the heap happens to hold freed pages); what is left
    # on recycled storage are the pass's small allocations.
    assert run_sweep(trace, jobs).minor_faults <= 128
