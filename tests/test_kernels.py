"""The kernel loader and the compiled walks' input handling.

The differential suites (``test_dew_differential.py``,
``test_lru_differential.py``, ``test_single_differential.py``) pin each
kernel's results, counters and storage to its reference walk; these tests
pin how the table's kernels are built, cached and loaded, and what the DEW,
``single`` and mechanism wrappers do with the chunks they are handed
(``test_lru.py`` holds the LRU wrapper's).  ``test_mechanisms_oracle.py``
pins the ``mechanisms`` kernel's rows on both walks.
"""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.cache.simulator import SingleConfigSimulator
from repro.core.config import CacheConfig
from repro.core.dew import DewSimulator
from repro.engine import get_engine
from repro.errors import SimulationError
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.mechanisms import MECHANISM_ENGINE_NAMES, VictimCacheEngine
from repro.types import ReplacementPolicy
from repro.workloads.mediabench import mediabench_trace
from walks import WALKS, require_kernel, walk_under_test

SRC = str(Path(kernels.__file__).resolve().parents[2])
PRINT_WALKS = (
    "from repro.core.dew import DewSimulator; "
    "from repro.lru.janapsatya import JanapsatyaSimulator; "
    "from repro.cache.simulator import SingleConfigSimulator; "
    "from repro.mechanisms import VictimCacheEngine; "
    "print(DewSimulator(4, 2).walk); print(JanapsatyaSimulator(4, (2,), (1, 2)).walk); "
    "print(SingleConfigSimulator(num_sets=4, associativity=2, block_size=4).walk); "
    "print(VictimCacheEngine(4, 2, 4, (1, 2))._walk.name)"
)
#: The table's entries, each with the position in :func:`_walks` of the walk
#: it runs in.
WALK_OF = {"dew": 0, "lru": 1, "single": 2, "mechanisms": 3}
NAMES = tuple(WALK_OF)
ENTRIES = sorted(NAMES)


def _walks():
    """The walks ``dew``, ``janapsatya`` and ``single`` run in this process,
    and the mechanism engines' probes (the engines' own ``walk`` is also
    their cache's)."""
    return [
        DewSimulator(4, 2).walk,
        JanapsatyaSimulator(4, (2,), (1, 2)).walk,
        SingleConfigSimulator(num_sets=4, associativity=2, block_size=4).walk,
        VictimCacheEngine(4, 2, 4, (1, 2))._walk.name,
    ]


def _library_entries(directory):
    """The table entry each library in ``directory`` was built for, sorted."""
    return sorted(library.name.rsplit("-", 1)[0] for library in Path(directory).iterdir())


def _environment(cache_home, **overrides):
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache_home))
    env.update(overrides)
    return env


def _walks_in_subprocess(cache_home, **overrides):
    """:func:`_walks` in a fresh process."""
    completed = subprocess.run(
        [sys.executable, "-c", PRINT_WALKS],
        env=_environment(cache_home, **overrides),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout.splitlines()


def test_kernel_loads_wherever_a_compiler_runs():
    # Fails rather than skips when ``$CC --version`` works here.
    require_kernel()
    assert _walks() == ["kernel"] * 4


def test_import_builds_and_loads_nothing(tmp_path):
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.cli"],
        env=_environment(tmp_path),
        timeout=120,
        check=True,
    )
    assert not (tmp_path / "repro-dew").exists()


def test_cc_false_keeps_the_python_walk_with_a_reason(tmp_path):
    walks = _walks_in_subprocess(tmp_path, CC="false")
    assert walks == ["python (no compiler: false --version failed)"] * 4


def test_build_error_keeps_the_python_walk_with_its_first_line(tmp_path, monkeypatch):
    require_kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", f"{os.environ.get('CC') or 'cc'} -include {tmp_path}/missing.h")
    walk = kernels.KernelLoader().load("dew")
    assert walk.function is None
    assert walk.reason.startswith("build error: ") and "missing.h" in walk.reason
    assert os.listdir(tmp_path / "repro-dew") == []


def test_build_error_in_one_entry_leaves_the_others_loaded(tmp_path, monkeypatch):
    require_kernel()
    assert sorted(kernels.KERNELS) == ENTRIES
    for name in NAMES:
        kernel = kernels.KERNELS[name]
        cache_home = tmp_path / name
        broken = cache_home / f"{name}.c"
        cache_home.mkdir()
        broken.write_text(kernel.source.read_text() + "\n#error deliberately broken\n")
        with monkeypatch.context() as patch:
            patch.setenv("XDG_CACHE_HOME", str(cache_home))
            patch.setitem(kernels.KERNELS, name, dataclasses.replace(kernel, source=broken))
            patch.setattr(kernels, "_LOADER", kernels.KernelLoader())
            walks = _walks()
        failed = walks.pop(WALK_OF[name])
        assert failed.startswith("python (build error: ") and "deliberately broken" in failed
        assert walks == ["kernel"] * 3, name
        assert _library_entries(cache_home / "repro-dew") == [
            entry for entry in ENTRIES if entry != name
        ]


def test_cache_dir_others_can_write_is_not_used(tmp_path, monkeypatch):
    require_kernel()
    shared = tmp_path / "repro-dew"
    shared.mkdir()
    shared.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernels.KernelLoader().load("dew").function is not None
    assert os.listdir(shared) == []


def test_truncated_cached_library_is_rebuilt(tmp_path):
    require_kernel()
    assert _walks_in_subprocess(tmp_path) == ["kernel"] * 4
    libraries = sorted((tmp_path / "repro-dew").iterdir())
    assert _library_entries(tmp_path / "repro-dew") == ENTRIES
    sizes = [library.stat().st_size for library in libraries]
    for library in libraries:
        library.write_bytes(library.read_bytes()[:64])
    assert _walks_in_subprocess(tmp_path) == ["kernel"] * 4
    assert [library.stat().st_size for library in libraries] == sizes


def test_racing_processes_build_one_library_and_leave_no_temp_files(tmp_path):
    require_kernel()
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", PRINT_WALKS],
            env=_environment(tmp_path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(4)
    ]
    outputs = [process.communicate(timeout=120)[0].splitlines() for process in processes]
    assert [process.returncode for process in processes] == [0] * 4
    assert outputs == [["kernel"] * 4] * 4
    # One library per entry, and no temp file left behind.
    assert _library_entries(tmp_path / "repro-dew") == ENTRIES
    assert all(library.endswith(".so") for library in os.listdir(tmp_path / "repro-dew"))


def test_loading_every_kernel_asks_the_compiler_its_version_once(tmp_path, monkeypatch):
    calls = []
    run = subprocess.run

    def counting_run(command, *args, **kwargs):
        calls.append(list(command))
        return run(command, *args, **kwargs)

    monkeypatch.setattr(kernels, "_VERSIONS", {})
    monkeypatch.setattr(kernels.subprocess, "run", counting_run)
    loader = kernels.KernelLoader()
    for name in kernels.KERNELS:
        loader.load(name)
    assert [command[-1] for command in calls].count("--version") == 1
    # Another compiler command gets its own answer.
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    assert kernels.compiler_version() is None
    assert [command[-1] for command in calls].count("--version") == 2


def test_racing_threads_load_once(tmp_path, monkeypatch):
    require_kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    builds = []
    build = kernels._build
    monkeypatch.setattr(
        kernels, "_build", lambda library, source: builds.append(library) or build(library, source)
    )
    loader = kernels.KernelLoader()
    barrier = threading.Barrier(8)
    walks = []

    def load():
        barrier.wait(timeout=60)
        walks.append(loader.load("dew"))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=load) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(walks) == 8 and len({id(walk) for walk in walks}) == 1
    assert walks[0].function is not None and len(builds) == 1


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("blocks", [[3, -1], [2**63 - 1], np.array([5, -7], dtype=np.int64)])
def test_out_of_range_block_raises(walk, blocks):
    with walk_under_test(walk):
        simulator = DewSimulator(4, 2, (1, 2, 4))
    with pytest.raises(SimulationError, match="outside"):
        simulator.run_blocks(blocks)
    # The rejected chunk changed nothing.
    assert simulator.requests == 0 and simulator.counters.node_evaluations == 0


#: ``single`` under every policy (``random`` has only its Python walk) and
#: each mechanism engine at two entry counts, all over one small cache.
CACHE_ENGINES = [
    ("single", dict(config=CacheConfig(4, 2, 4, policy))) for policy in ReplacementPolicy
] + [
    (mechanism, dict(num_sets=4, associativity=2, block_size=4, entries=(1, 2)))
    for mechanism in MECHANISM_ENGINE_NAMES
]


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize(
    "engine, options",
    CACHE_ENGINES,
    ids=[f"{engine}-{options['config'].policy.value}" if "config" in options else engine
         for engine, options in CACHE_ENGINES],
)
@pytest.mark.parametrize(
    "blocks", [[-1, -1, -1, 2**70], [3, -1], [2**63 - 1], np.array([5, -7], dtype=np.int64)]
)
def test_out_of_range_block_raises_in_cache_engines(walk, engine, options, blocks):
    with walk_under_test(walk):
        simulator = get_engine(engine, **options)
    with pytest.raises(SimulationError, match="outside"):
        simulator.run_blocks(blocks)
    # The rejected chunk changed nothing, and the largest valid block runs.
    cache = simulator if engine == "single" else simulator.dl1
    assert cache.stats.accesses == 0 and cache.resident_blocks() == [[]] * 4
    simulator.run_blocks([2**63 - 2, 2**63 - 2, 0])
    assert (cache.stats.accesses, cache.stats.misses) == (3, 2)
    assert cache.resident_blocks() == [[0], [], [2**63 - 2], []]


def test_largest_valid_block_is_accepted():
    require_kernel()
    simulator = DewSimulator(4, 2, (1, 2, 4))
    simulator.run_blocks([2**63 - 2, 2**63 - 2, 0])
    assert [simulator.misses_at_level(level) for level in range(3)] == [2, 2, 2]


def test_non_int64_or_non_contiguous_chunks_are_converted():
    require_kernel()
    blocks = mediabench_trace("cjpeg", 4000, seed=5).addresses >> 4

    def rows_and_counters(chunks):
        simulator = DewSimulator(16, 4, (1, 2, 4, 8, 16, 32))
        for chunk in chunks:
            simulator.run_blocks(chunk)
        return simulator.finalize().to_json(), simulator.counters.as_dict()

    expected = rows_and_counters([blocks[:2000], blocks[2000:]])
    doubled = np.repeat(blocks, 2)
    assert not doubled[::2].flags.c_contiguous
    assert rows_and_counters([blocks.astype(np.int32)]) == expected
    assert rows_and_counters([doubled[::2]]) == expected
    assert rows_and_counters([blocks.astype(np.uint64)]) == expected
    assert rows_and_counters([blocks.tolist()]) == expected
