"""The kernel loader and the compiled DEW walk's input handling.

The differential suite (``test_dew_differential.py``) pins the kernel's
results, counters and tree storage to the reference walk; these tests pin
how the kernel is built, cached and loaded, and what the wrapper does with
the chunks it is handed.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.core.dew import DewSimulator
from repro.errors import SimulationError
from repro.workloads.mediabench import mediabench_trace
from walks import WALKS, require_kernel, walk_under_test

SRC = str(Path(kernels.__file__).resolve().parents[2])
PRINT_WALK = "from repro.core.dew import DewSimulator; print(DewSimulator(4, 2).walk)"


def _environment(cache_home, **overrides):
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache_home))
    env.update(overrides)
    return env


def _walk_in_subprocess(cache_home, **overrides):
    completed = subprocess.run(
        [sys.executable, "-c", PRINT_WALK],
        env=_environment(cache_home, **overrides),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout.strip()


def test_kernel_loads_wherever_a_compiler_runs():
    # Fails rather than skips when ``$CC --version`` works here.
    require_kernel()
    assert DewSimulator(4, 2).walk == "kernel"


def test_import_builds_and_loads_nothing(tmp_path):
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.cli"],
        env=_environment(tmp_path),
        timeout=120,
        check=True,
    )
    assert not (tmp_path / "repro-dew").exists()


def test_cc_false_keeps_the_python_walk_with_a_reason(tmp_path):
    walk = _walk_in_subprocess(tmp_path, CC="false")
    assert walk == "python (no compiler: false --version failed)"


def test_build_error_keeps_the_python_walk_with_its_first_line(tmp_path, monkeypatch):
    require_kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("CC", f"{os.environ.get('CC') or 'cc'} -include {tmp_path}/missing.h")
    walk = kernels.KernelLoader().dew_walk()
    assert walk.function is None
    assert walk.reason.startswith("build error: ") and "missing.h" in walk.reason
    assert os.listdir(tmp_path / "repro-dew") == []


def test_cache_dir_others_can_write_is_not_used(tmp_path, monkeypatch):
    require_kernel()
    shared = tmp_path / "repro-dew"
    shared.mkdir()
    shared.chmod(0o777)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernels.KernelLoader().dew_walk().function is not None
    assert os.listdir(shared) == []


def test_truncated_cached_library_is_rebuilt(tmp_path):
    require_kernel()
    assert _walk_in_subprocess(tmp_path) == "kernel"
    [library] = (tmp_path / "repro-dew").iterdir()
    size = library.stat().st_size
    library.write_bytes(library.read_bytes()[:64])
    assert _walk_in_subprocess(tmp_path) == "kernel"
    assert library.stat().st_size == size


def test_racing_processes_build_one_library_and_leave_no_temp_files(tmp_path):
    require_kernel()
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", PRINT_WALK],
            env=_environment(tmp_path),
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(4)
    ]
    outputs = [process.communicate(timeout=120)[0].strip() for process in processes]
    assert [process.returncode for process in processes] == [0] * 4
    assert outputs == ["kernel"] * 4
    [library] = os.listdir(tmp_path / "repro-dew")
    assert library.startswith("dew-") and library.endswith(".so")


def test_racing_threads_load_once(tmp_path, monkeypatch):
    require_kernel()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    builds = []
    build = kernels._build
    monkeypatch.setattr(kernels, "_build", lambda library: builds.append(library) or build(library))
    loader = kernels.KernelLoader()
    barrier = threading.Barrier(8)
    walks = []

    def load():
        barrier.wait(timeout=60)
        walks.append(loader.dew_walk())

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
