"""Compiled kernels, built on first use and cached per user.

The one kernel is the DEW walk in ``dew.c``, a line-for-line C port of the
walk loop in :meth:`repro.core.dew.DewSimulator.run_blocks`.  Importing this
package builds and loads nothing.  The first :func:`dew_walk` call in a
process compiles ``dew.c`` with ``$CC`` (default ``cc``) and
``-O2 -shared -fPIC``, unless a library built from the same source, flags
and compiler is already in ``$XDG_CACHE_HOME/repro-dew/`` (or
``~/.cache/repro-dew/``), and loads it with :mod:`ctypes`.

Any failure (no compiler, a build error, a load error) leaves the Python
walk in place and records why.  A host opts out the way it would for any C
build, with ``CC=false``.
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
from typing import Any, Optional

#: The kernel source and the flags it is built with.
SOURCE = Path(__file__).with_name("dew.c")
CFLAGS = ("-O2", "-shared", "-fPIC")


@dataclass(frozen=True)
class Walk:
    """The DEW walk a process runs: the compiled function, or why not."""

    #: The kernel's ``dew_walk`` ctypes function; ``None`` means the Python walk.
    function: Optional[Any] = None
    reason: str = ""

    @property
    def name(self) -> str:
        """``kernel``, or ``python (<reason>)``."""
        return "kernel" if self.function is not None else f"python ({self.reason})"


def _compiler() -> list:
    return shlex.split(os.environ.get("CC") or "cc")


def compiler_version() -> Optional[bytes]:
    """``$CC --version`` output, or ``None`` when no compiler runs."""
    try:
        completed = subprocess.run(
            _compiler() + ["--version"], capture_output=True, check=True, timeout=60
        )
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    return completed.stdout


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


def _build(library: Path) -> Optional[str]:
    """Compile the kernel to ``library`` through a temp file and a rename, so
    processes racing to build it never load a partial file.  Returns the
    first line of the compiler's error output, or the OS error, on failure."""
    try:
        handle, temporary = tempfile.mkstemp(dir=library.parent, prefix=".build-", suffix=".so")
    except OSError as exc:
        return str(exc)
    os.close(handle)
    try:
        completed = subprocess.run(
            _compiler() + [*CFLAGS, "-o", temporary, str(SOURCE)],
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


def _bind(library: Path) -> Walk:
    """Load ``library`` and declare the kernel's signature."""
    function = ctypes.CDLL(str(library)).dew_walk
    pointer, integer = ctypes.c_void_p, ctypes.c_int64
    function.argtypes = [
        pointer, integer, integer, integer,  # blocks, count, levels, associativity
        pointer, pointer,  # index masks, node offsets
        pointer, pointer, pointer, pointer, pointer, pointer,  # node fields
        integer, integer, integer,  # enable_mra, enable_wave, enable_mre
        pointer,  # tally
    ]
    function.restype = None
    return Walk(function)


class KernelLoader:
    """Builds and loads the DEW kernel at most once, whichever thread asks first."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._walk: Optional[Walk] = None

    def dew_walk(self) -> Walk:
        with self._lock:
            if self._walk is None:
                self._walk = self._load()
            return self._walk

    @staticmethod
    def _load() -> Walk:
        version = compiler_version()
        if version is None:
            return Walk(reason=f"no compiler: {os.environ.get('CC') or 'cc'} --version failed")
        try:
            source = SOURCE.read_bytes()
            directory = _cache_dir()
        except OSError as exc:
            return Walk(reason=f"build error: {exc}")
        digest = hashlib.sha256()
        # The command line keys flags passed in ``$CC`` as well as CFLAGS.
        for part in (source, " ".join(_compiler() + list(CFLAGS)).encode(), version):
            digest.update(hashlib.sha256(part).digest())
        library = directory / f"dew-{digest.hexdigest()[:32]}.so"
        if library.exists():
            try:
                return _bind(library)
            except (OSError, AttributeError):
                pass  # a cached library that does not load (truncated, say) is rebuilt once
        error = _build(library)
        if error is not None:
            return Walk(reason=f"build error: {error}")
        try:
            return _bind(library)
        except (OSError, AttributeError) as exc:
            return Walk(reason=f"load error: {exc}")


_LOADER = KernelLoader()
# A child forked while another thread held the loader's lock would wait on
# it forever; the child gets a fresh lock (and loads for itself if needed).
os.register_at_fork(after_in_child=lambda: setattr(_LOADER, "_lock", threading.Lock()))


def dew_walk() -> Walk:
    """This process's DEW walk, building and loading the kernel on first call."""
    return _LOADER.dew_walk()
