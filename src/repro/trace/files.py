"""Format- and compression-aware trace file loading.

One entry point, :func:`load_trace_file`, shared by every surface that
accepts a trace *path* — the CLI commands and the service daemon — so all of
them agree on format detection (``.din`` vs hex/CSV text), transparent
``.gz`` decompression, trace naming and error reporting.

When a :class:`~repro.trace.planecache.TracePlaneCache` (or anything with
its sidecar API) is passed as ``cache``, the loader memoizes the trace's
content fingerprint across processes: a warm load seeds
:meth:`~repro.trace.trace.Trace.fingerprint` from the ``(path, mtime, size)``
sidecar and skips the full-array hash; a cold load computes the fingerprint
once and records the sidecar for every later consumer (the submitting
client, the service daemon, the next CLI invocation).

The module also counts text parses (:func:`decode_count`): every call that
actually reads and parses a trace file increments a process-wide counter,
which is what lets CI assert that a warm, plane-cached sweep performed
*zero* text parses.
"""

from __future__ import annotations

import gzip
import os
from typing import Optional, Union

from repro.errors import TraceError
from repro.trace.din import read_din
from repro.trace.textio import read_text_trace
from repro.trace.trace import Trace

_decode_count = 0


def decode_count() -> int:
    """Number of trace-file text parses this process has performed."""
    return _decode_count


def trace_name_for_path(path: Union[str, os.PathLike]) -> str:
    """The reporting name a trace loaded from ``path`` would carry.

    Basename with the extension (and any ``.gz``) stripped — exposed so the
    service daemon can label plane-cache results identically to a real load
    without performing one.
    """
    path = os.fspath(path)
    stem = path[:-3] if path.endswith(".gz") else path
    return os.path.splitext(os.path.basename(stem))[0]


def load_trace_file(
    path: Union[str, os.PathLike], cache: Optional[object] = None
) -> Trace:
    """Load a ``.din``/CSV/hex trace, transparently decompressing ``.gz`` files.

    The trace is named after the file's basename (extension stripped), so
    reports and result rows carry a human-readable workload label.
    Unreadable or missing files raise :class:`~repro.errors.TraceError` with
    a one-line message instead of a traceback.

    ``cache`` (a :class:`~repro.trace.planecache.TracePlaneCache`) enables
    the fingerprint sidecar: on a sidecar hit the loaded trace's fingerprint
    memo is seeded without hashing; on a miss the fingerprint is computed
    eagerly — off the arrays just parsed — and recorded for the next loader.
    """
    global _decode_count
    path = os.fspath(path)
    compressed = path.endswith(".gz")
    stem = path[:-3] if compressed else path
    opener = gzip.open if compressed else open
    try:
        with opener(path, "rt", encoding="ascii") as handle:
            _decode_count += 1
            trace = read_din(handle) if stem.endswith(".din") else read_text_trace(handle)
    except FileNotFoundError:
        raise TraceError(f"trace file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"could not read trace file {path}: {exc}") from exc
    name = os.path.splitext(os.path.basename(stem))[0]
    trace = trace.with_name(name) if name else trace
    if cache is not None:
        known = cache.cached_fingerprint(path)
        if known is not None:
            trace.seed_fingerprint(known)
        else:
            cache.record_fingerprint(path, trace.fingerprint())
    return trace
