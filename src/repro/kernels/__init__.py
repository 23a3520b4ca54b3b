"""Compiled kernels, built on first use and cached per user.

:data:`KERNELS` is the table of kernels.  Each entry names a C source in
this package, the function it exports and that function's ctypes
``argtypes``:

* ``dew`` — ``dew.c``, a port of the Python walk of
  :class:`repro.core.dew.DewSimulator`, over one record per tree
  node; a record stamped with an older epoch reads as empty, so emptying a
  tree for reuse takes no pass (see :mod:`repro.core.tree`).  It also takes
  the first-touch marks ``Engine.run`` hands over, and inserts a marked
  block at every level without a decision; the Python walk takes none;
* ``lru`` — ``lru.c``, a port of the walk in
  :class:`repro.lru.janapsatya.JanapsatyaSimulator`;
* ``single`` — ``single.c``, a port of the per-access FIFO, LRU and PLRU
  walk of :class:`repro.cache.simulator.SingleConfigSimulator`, which also
  writes each chunk's miss stream;
* ``mechanisms`` — ``mechanisms.c``, a port of the Python walks of the
  mechanism engines (:mod:`repro.mechanisms.engines`), which probe every
  entry count of a victim cache, miss cache or stream buffers over that
  miss stream in one pass.

Importing this package builds and loads nothing.  The first :func:`load` of
an entry in a process compiles its source with ``$CC`` (default ``cc``) and
``-O2 -shared -fPIC``, unless a library built from the same source, flags
and compiler is already in ``$XDG_CACHE_HOME/repro-dew/`` (or
``~/.cache/repro-dew/``), and loads it with :mod:`ctypes`.  The compiler
is asked its version once per process.

Any failure (no compiler, a build error, a load error) leaves that entry's
simulator on its Python walk and records why; the other entries load on
their own.  A host opts out of every kernel the way it would for any C
build, with ``CC=false``.

The cache walks store ``block + 1`` so that zero-filled storage is empty,
and walk chunks in the one form :func:`block_chunk` makes (with type codes
in the one form :func:`type_chunk` makes); the mechanism probes keep a
fill length per list instead, and take the ``single`` walk's miss stream.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import SimulationError
from repro.types import AccessType

#: The flags every kernel is built with.
CFLAGS = ("-O2", "-shared", "-fPIC")

#: Block addresses the kernels accept lie below this: they store
#: ``block + 1``, which must not overflow int64.
BLOCK_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class Kernel:
    """One table entry: a C source, the function it exports and its argument types."""

    source: Path
    function: str
    argtypes: Tuple[Any, ...]


_POINTER, _INTEGER = ctypes.c_void_p, ctypes.c_int64
_HERE = Path(__file__).parent

#: The kernels, by name.  A library's file name starts with its entry's name.
KERNELS: Dict[str, Kernel] = {
    "dew": Kernel(_HERE / "dew.c", "dew_walk", (
        _POINTER, _POINTER, _INTEGER,  # blocks, first-touch marks or NULL, count
        _INTEGER, _INTEGER,  # levels, associativity
        _POINTER, _POINTER, _POINTER, _INTEGER,  # index masks, node offsets, records, record size
        _INTEGER, _INTEGER, _INTEGER,  # enable_mra, enable_wave, enable_mre
        _POINTER, _INTEGER,  # tally, epoch
    )),
    "lru": Kernel(_HERE / "lru.c", "lru_walk", (
        _POINTER, _INTEGER, _INTEGER, _INTEGER,  # blocks, count, levels, associativity
        _POINTER, _POINTER,  # index masks, set offsets
        _POINTER, _POINTER,  # recency tags, fill lengths
        _INTEGER,  # mru_stop
        _POINTER,  # tally
    )),
    "single": Kernel(_HERE / "single.c", "single_walk", (
        _POINTER, _POINTER, _INTEGER, _INTEGER,  # blocks, access types, count, clock
        _INTEGER, _INTEGER, _INTEGER,  # sets, associativity, policy
        _POINTER, _POINTER, _POINTER,  # tags, dirty bits, policy state
        _POINTER, _POINTER, _POINTER,  # tally, miss positions, evicted tags
    )),
    "mechanisms": Kernel(_HERE / "mechanisms.c", "mechanism_walk", (
        _POINTER, _POINTER, _POINTER, _POINTER, _INTEGER,  # blocks, evicted, types, first, count
        _INTEGER, _POINTER, _INTEGER,  # mechanism, entry counts, how many
        _POINTER, _POINTER, _POINTER,  # lists, fill lengths, tally
    )),
}


@dataclass(frozen=True)
class Walk:
    """The walk a simulator runs: the compiled function, or why not."""

    #: The kernel's ctypes function; ``None`` means the Python walk.
    function: Optional[Any] = None
    reason: str = ""

    @property
    def name(self) -> str:
        """``kernel``, or ``python (<reason>)``."""
        return "kernel" if self.function is not None else f"python ({self.reason})"


def block_chunk(blocks: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """``blocks`` as the C-contiguous int64 array every walk takes.

    Raises :class:`~repro.errors.SimulationError`, before any walk starts,
    for a block outside ``[0, 2**63 - 1)``.
    """
    try:
        chunk = np.ascontiguousarray(blocks, dtype=np.int64)
    except OverflowError as exc:
        raise SimulationError(f"block address outside [0, 2**63 - 1): {exc}") from None
    if chunk.size:
        check_block_range(int(chunk.min()), int(chunk.max()))
    return chunk


def check_block_range(low: int, high: int) -> None:
    """Raise :class:`~repro.errors.SimulationError` unless every block from
    ``low`` to ``high`` lies in ``[0, 2**63 - 1)``."""
    if low < 0 or high >= BLOCK_LIMIT:
        raise SimulationError(
            f"block address {low if low < 0 else high} is outside [0, 2**63 - 1)"
        )


def type_chunk(
    access_types: Optional[Union[Sequence[int], np.ndarray]], size: int
) -> Optional[np.ndarray]:
    """``access_types`` as the C-contiguous int8 array of ``size`` valid type
    codes the ``single`` walk takes, or ``None`` (every access a read).

    Raises :class:`~repro.errors.SimulationError` for another length or an
    unknown code.
    """
    if access_types is None:
        return None
    types = np.asarray(access_types)
    if types.shape != (size,):
        raise SimulationError(
            f"chunk mismatch: {size} blocks vs {types.size} access types"
        )
    if size and (types.min() < 0 or types.max() > max(AccessType)):
        raise SimulationError(f"unknown access type code in {types.min()}..{types.max()}")
    return np.ascontiguousarray(types, dtype=np.int8)


def _compiler() -> list:
    return shlex.split(os.environ.get("CC") or "cc")


#: ``--version`` output per compiler command, asked once per process.
_VERSIONS: Dict[str, Optional[bytes]] = {}


def compiler_version() -> Optional[bytes]:
    """``$CC --version`` output, or ``None`` when no compiler runs.

    Asked once per process for each ``$CC`` command, so loading every
    kernel spawns one ``--version``, and a changed ``$CC`` gets its own.
    """
    command = os.environ.get("CC") or "cc"
    if command not in _VERSIONS:
        try:
            completed = subprocess.run(
                _compiler() + ["--version"], capture_output=True, check=True, timeout=60
            )
            _VERSIONS[command] = completed.stdout
        except (OSError, ValueError, subprocess.SubprocessError):
            _VERSIONS[command] = None
    return _VERSIONS[command]


def _cache_dir() -> Path:
    """The per-user library cache, or a fresh private directory when the
    cache cannot be written or could be written by someone else."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    directory = Path(base) / "repro-dew"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        status = directory.stat()
        if (
            status.st_uid == os.getuid()
            and not status.st_mode & 0o022
            and os.access(directory, os.W_OK)
        ):
            return directory
    except OSError:
        pass
    private = tempfile.mkdtemp(prefix="repro-dew-")
    atexit.register(shutil.rmtree, private, ignore_errors=True)
    return Path(private)


def _build(library: Path, source: Path) -> Optional[str]:
    """Compile ``source`` to ``library`` through a temp file and a rename, so
    processes racing to build it never load a partial file.  Returns the
    first line of the compiler's error output, or the OS error, on failure."""
    try:
        handle, temporary = tempfile.mkstemp(dir=library.parent, prefix=".build-", suffix=".so")
    except OSError as exc:
        return str(exc)
    os.close(handle)
    try:
        completed = subprocess.run(
            _compiler() + [*CFLAGS, "-o", temporary, str(source)],
            capture_output=True,
            timeout=300,
        )
        if completed.returncode != 0:
            lines = completed.stderr.decode(errors="replace").strip().splitlines()
            return lines[0] if lines else f"exit status {completed.returncode}"
        os.replace(temporary, library)
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
    return None


def _bind(library: Path, kernel: Kernel) -> Walk:
    """Load ``library`` and declare the kernel's signature."""
    function = getattr(ctypes.CDLL(str(library)), kernel.function)
    function.argtypes = list(kernel.argtypes)
    function.restype = None
    return Walk(function)


def _load(name: str, kernel: Kernel) -> Walk:
    """Bind the cached library of one entry, building it first if needed."""
    version = compiler_version()
    if version is None:
        return Walk(reason=f"no compiler: {os.environ.get('CC') or 'cc'} --version failed")
    try:
        source = kernel.source.read_bytes()
        directory = _cache_dir()
    except OSError as exc:
        return Walk(reason=f"build error: {exc}")
    digest = hashlib.sha256()
    # The command line keys flags passed in ``$CC`` as well as CFLAGS.
    for part in (source, " ".join(_compiler() + list(CFLAGS)).encode(), version):
        digest.update(hashlib.sha256(part).digest())
    library = directory / f"{name}-{digest.hexdigest()[:32]}.so"
    if library.exists():
        try:
            return _bind(library, kernel)
        except (OSError, AttributeError):
            pass  # a cached library that does not load (truncated, say) is rebuilt once
    error = _build(library, kernel.source)
    if error is not None:
        return Walk(reason=f"build error: {error}")
    try:
        return _bind(library, kernel)
    except (OSError, AttributeError) as exc:
        return Walk(reason=f"load error: {exc}")


class KernelLoader:
    """Builds and loads each kernel at most once, whichever thread asks first."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._walks: Dict[str, Walk] = {}

    def load(self, name: str) -> Walk:
        """The walk of :data:`KERNELS` entry ``name``, loaded on first call."""
        with self._lock:
            walk = self._walks.get(name)
            if walk is None:
                walk = self._walks[name] = _load(name, KERNELS[name])
            return walk


_LOADER = KernelLoader()
# A child forked while another thread held the loader's lock would wait on
# it forever; the child gets a fresh lock (and loads for itself if needed).
os.register_at_fork(after_in_child=lambda: setattr(_LOADER, "_lock", threading.Lock()))


def load(name: str) -> Walk:
    """This process's walk for kernel ``name``, built and loaded on first call."""
    return _LOADER.load(name)
