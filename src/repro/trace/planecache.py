"""Content-addressed on-disk cache of parsed trace columns.

Every sweep surface — ``repro-dew sweep``, ``submit``, the service daemons —
would otherwise re-pay the text parse (``.din``/CSV/hex to packed arrays) on
every run over the same trace file.  This module removes that cost across
runs and processes: the first sweep over a trace persists its columns, and
every later sweep — in any process, on any daemon sharing the cache
directory — ``mmap``-attaches the artifact as a
:class:`~repro.trace.trace.Trace` and never touches the text file again.
What a sweep derives from the columns (per-block-size shifts, run-length
collapse) is recomputed by each process, pool workers included: it costs a
small fraction of the parse and depends on the job grid, which the artifact
therefore never does.

This is the result store's idea applied one level down.  The layout mirrors
:mod:`repro.store.resultstore` deliberately::

    <root>/planecache.json                  {"schema": 1, "format": "trace-plane"}
    <root>/objects/<f[:2]>/<f>.plane        one trace, f = its content fingerprint
    <root>/fingerprints/<p[:2]>/<p>.json    trace-fingerprint sidecars,
                                            p = sha256(absolute trace path)

An artifact is addressed by :meth:`Trace.fingerprint` alone, so every job
grid over one trace shares one artifact, and a changed trace can never alias
a stale one.  The same durability rules as the store apply: writes go
through the atomic temp-plus-``os.replace`` primitive, a damaged artifact
(bad magic, unknown schema, truncation, a header naming another trace) is
treated as a miss and overwritten by the next put, and concurrent writers
race benignly (both produce byte-identical content).

**Artifact format.**  ``numpy``'s ``.npz`` cannot be memory-mapped (members
sit inside a zip), so the artifact is a flat file: a magic preamble, an
ASCII JSON header (artifact schema, fingerprint, trace name, length) and the
three :class:`Trace` columns — addresses ``int64``, access types ``int8``,
sizes ``int16`` — each starting on a 64-byte boundary at an offset fixed by
the length.  Attaching validates only the header and the total size, then
maps the file read-only, so a warm sweep faults in only the pages it walks.
Integrity is the address itself: ``trace cache verify`` recomputes the
fingerprint over the mapped columns, the get-vs-verify split the result
store uses.

**Fingerprint sidecars.**  Hashing a multi-million-access trace to compute
its content fingerprint costs a full pass over the arrays.  The cache keeps
one tiny JSON sidecar per trace *path*, validated by ``(path, mtime_ns,
size)``: a warm submission or daemon job reads the fingerprint from the
sidecar and skips the hash (and, with a cached artifact, the entire load).
Sidecars are only ever written from fingerprints computed off the actual
file contents, so a stale sidecar requires an mtime-and-size-preserving
in-place rewrite — the standard build-system staleness tradeoff.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import StoreError, TraceError
from repro.obs.metrics import component_snapshot, get_registry
from repro.store.manage import (
    STATUS_CORRUPT,
    STATUS_FOREIGN,
    STATUS_MIS_ADDRESSED,
    STATUS_OK,
    STATUS_TEMP,
    ArtifactRecord,
    GcReport,
    VerifyReport,
    _DIGEST_RE,
    collect_garbage,
)
from repro.store.resultstore import _atomic_replace
from repro.trace.trace import Trace

#: Version of the cache directory layout recorded in ``planecache.json``.
CACHE_SCHEMA_VERSION = 1

#: Version of the artifact envelope.  Artifacts of any other version are
#: treated as damaged (a miss on attach, collected by gc), so a cache shared
#: between builds degrades to re-parsing, never to misreads.  Version 1
#: artifacts held grid-specific derived arrays under a grid-keyed address.
PLANE_SCHEMA_VERSION = 2

_MANIFEST_NAME = "planecache.json"
_OBJECTS_DIR = "objects"
_FINGERPRINTS_DIR = "fingerprints"
_PLANE_SUFFIX = ".plane"

#: Artifact preamble: 12 magic bytes then a little-endian uint32 header size.
_MAGIC = b"REPROPLANE1\n"
_PREAMBLE = struct.Struct("<12sI")

#: Headers beyond this are corrupt by definition (a real header is ~200 B).
_MAX_HEADER_BYTES = 1 << 24

#: Payload bytes start on the first 64-byte boundary past the header, and
#: every column on a 64-byte boundary within the payload.
_PAYLOAD_ALIGN = 64

#: The payload's columns, in file order, with the dtypes :class:`Trace` holds.
_COLUMNS = (np.dtype(np.int64), np.dtype(np.int8), np.dtype(np.int16))


def _align(value: int) -> int:
    return (value + _PAYLOAD_ALIGN - 1) // _PAYLOAD_ALIGN * _PAYLOAD_ALIGN


def _column_offsets(length: int) -> Tuple[List[int], int]:
    """Payload-relative offset of each column, and the payload size."""
    offsets = []
    cursor = 0
    for dtype in _COLUMNS:
        cursor = _align(cursor)
        offsets.append(cursor)
        cursor += length * dtype.itemsize
    return offsets, cursor


def _read_header(path: Path, data: mmap.mmap) -> Tuple[Dict[str, Any], int, int]:
    """Validate a mapped artifact's preamble, header and size.

    Returns ``(header, length, payload_base)``; raises
    :class:`~repro.errors.StoreError` on any malformation.  Unknown *extra*
    header fields are tolerated (forward compatibility within a readable
    schema); unknown schema versions are not.
    """
    if len(data) < _PREAMBLE.size:
        raise StoreError(f"plane artifact {path} is truncated")
    magic, header_bytes = _PREAMBLE.unpack_from(data)
    if magic != _MAGIC:
        raise StoreError(f"plane artifact {path} has a bad magic preamble")
    if not 0 < header_bytes <= _MAX_HEADER_BYTES:
        raise StoreError(f"plane artifact {path} declares an implausible header size")
    blob = data[_PREAMBLE.size:_PREAMBLE.size + header_bytes]
    if len(blob) != header_bytes:
        raise StoreError(f"plane artifact {path} is truncated")
    try:
        header = json.loads(blob.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreError(f"plane artifact {path} has a malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise StoreError(f"plane artifact {path} has a malformed header")
    schema = header.get("schema")
    if schema != PLANE_SCHEMA_VERSION:
        raise StoreError(
            f"plane artifact {path} uses schema {schema!r}; "
            f"this build reads version {PLANE_SCHEMA_VERSION}"
        )
    try:
        length = int(header["length"])
        fingerprint = header["fingerprint"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StoreError(f"plane artifact {path} has a malformed header") from exc
    if length < 0 or not isinstance(fingerprint, str) or not _DIGEST_RE.match(fingerprint):
        raise StoreError(f"plane artifact {path} has a malformed header")
    payload_base = _align(_PREAMBLE.size + header_bytes)
    expected = payload_base + _column_offsets(length)[1]
    if len(data) != expected:
        raise StoreError(
            f"plane artifact {path} is {len(data)} bytes; header promises {expected}"
        )
    return header, length, payload_base


class CachedPlane(Trace):
    """A trace whose columns are read-only mmap views of one cache artifact.

    It is a :class:`Trace` in every respect, so the sweep executor, the
    result store and :meth:`Engine.run` take it unchanged.  Its fingerprint
    comes from the header (no hashing), and it pickles as a reference to the
    artifact's path: a pool worker re-maps the file instead of receiving the
    columns, and the page cache holds one copy machine-wide.
    """

    def __init__(self, path: Union[str, os.PathLike], trace_name: Optional[str] = None) -> None:
        self.path = Path(path)
        try:
            with open(self.path, "rb") as handle:
                mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except FileNotFoundError:
            # Absence is a plain miss, never corruption — let the caller count it.
            raise
        except (OSError, ValueError) as exc:
            raise StoreError(f"could not map plane artifact {self.path}: {exc}") from exc
        try:
            header, length, payload_base = _read_header(self.path, mapping)
        except StoreError:
            mapping.close()
            raise
        offsets, _ = _column_offsets(length)
        columns = [
            np.frombuffer(mapping, dtype=dtype, count=length, offset=payload_base + offset)
            for dtype, offset in zip(_COLUMNS, offsets)
        ]
        if trace_name is None:
            trace_name = str(header.get("trace_name", "trace"))
        self._install(*columns, name=trace_name)
        self.seed_fingerprint(header["fingerprint"])
        self._mapping: Optional[mmap.mmap] = mapping

    def __reduce__(self):
        return (CachedPlane, (str(self.path), self.name))

    def close(self) -> None:
        """Drop the columns and unmap the artifact (idempotent).

        The plane is empty afterwards.  A view a caller still holds keeps
        the mapping alive until it is garbage collected.
        """
        mapping, self._mapping = self._mapping, None
        if mapping is None:
            return
        self._install(
            np.empty(0, _COLUMNS[0]), np.empty(0, _COLUMNS[1]), np.empty(0, _COLUMNS[2]),
            self.name,
        )
        try:
            mapping.close()
        except BufferError:
            pass

    def __enter__(self) -> "CachedPlane":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class TracePlaneCache:
    """A directory of fingerprint-addressed trace artifacts.

    Construct via :func:`open_plane_cache`.  Lookup statistics (``hits``,
    ``misses``, ``corrupt``, ``puts`` plus the sidecar split) accumulate per
    instance — the service daemon surfaces them through its heartbeat so
    ``queue stats`` can show how much parsing the fleet skipped.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.hit_count = 0
        self.miss_count = 0
        self.corrupt_count = 0
        self.put_count = 0
        self.sidecar_hit_count = 0
        self.sidecar_miss_count = 0
        # Process-wide named instruments alongside the per-instance ints:
        # the registry totals ride daemon heartbeats for fleet aggregation.
        registry = get_registry()
        self._metric_hits = registry.counter(
            "plane_cache_hits_total", "trace artifacts attached from the cache"
        )
        self._metric_misses = registry.counter(
            "plane_cache_misses_total", "trace artifact lookups with no artifact"
        )
        self._metric_corrupt = registry.counter(
            "plane_cache_corrupt_total", "unreadable trace artifacts (read as misses)"
        )
        self._metric_puts = registry.counter(
            "plane_cache_puts_total", "trace artifacts persisted"
        )
        self._metric_sidecar_hits = registry.counter(
            "plane_cache_sidecar_hits_total", "fingerprints served from sidecars"
        )
        self._metric_sidecar_misses = registry.counter(
            "plane_cache_sidecar_misses_total", "fingerprint sidecar misses"
        )

    # -- accounting -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Lookup/write accounting accumulated by this instance."""
        return {
            "hits": self.hit_count,
            "misses": self.miss_count,
            "corrupt": self.corrupt_count,
            "puts": self.put_count,
            "sidecar_hits": self.sidecar_hit_count,
            "sidecar_misses": self.sidecar_miss_count,
        }

    def snapshot(self) -> Dict[str, Any]:
        """The unified per-component stats shape (see
        :func:`repro.obs.metrics.component_snapshot`); ``counters`` carries
        exactly the legacy :meth:`stats` keys."""
        return component_snapshot("trace_plane_cache", self.stats())

    # -- addressing -----------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / _OBJECTS_DIR

    def path_for(self, fingerprint: str) -> Path:
        """Filesystem path of the artifact for the trace with ``fingerprint``."""
        return self.objects_dir / fingerprint[:2] / (fingerprint + _PLANE_SUFFIX)

    def contains(self, fingerprint: str) -> bool:
        """Whether an artifact exists for ``fingerprint`` (without validating it)."""
        return self.path_for(fingerprint).is_file()

    __contains__ = contains

    def artifact_paths(self) -> List[Path]:
        """All plane artifacts currently in the cache (sorted, deterministic)."""
        objects = self.objects_dir
        if not objects.is_dir():
            return []
        return [
            path
            for path in sorted(objects.glob("*/*" + _PLANE_SUFFIX))
            if not path.name.startswith(".")
        ]

    def __len__(self) -> int:
        return len(self.artifact_paths())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TracePlaneCache({str(self.root)!r}, {len(self)} planes)"

    # -- read/write -----------------------------------------------------------

    def _attach(self, fingerprint: str, trace_name: Optional[str]) -> CachedPlane:
        """Header-validate and mmap the artifact for ``fingerprint`` (may raise)."""
        plane = CachedPlane(self.path_for(fingerprint), trace_name)
        if plane.fingerprint() != fingerprint:
            plane.close()
            raise StoreError(
                f"plane artifact {plane.path} names a different trace than its address"
            )
        return plane

    def get(
        self, fingerprint: str, trace_name: Optional[str] = None
    ) -> Optional[CachedPlane]:
        """Attach the cached trace with ``fingerprint``, or ``None`` on miss.

        Damage of any kind — bad magic, unknown schema, truncation, a header
        naming another trace — counts in ``corrupt_count`` and reads as a
        miss; the caller re-parses and the next put overwrites the bad
        artifact.  ``trace_name`` overrides the stored reporting name (the
        artifact is shared by every path holding the same content, so the
        caller's basename wins over the writer's).
        """
        try:
            plane = self._attach(fingerprint, trace_name)
        except FileNotFoundError:
            self.miss_count += 1
            self._metric_misses.inc()
            return None
        except (StoreError, OSError, ValueError):
            self.corrupt_count += 1
            self._metric_corrupt.inc()
            return None
        self.hit_count += 1
        self._metric_hits.inc()
        return plane

    def put(self, trace: Trace) -> Path:
        """Persist ``trace``'s columns atomically; returns the artifact path.

        Concurrent writers race benignly: both temp files hold byte-identical
        content and ``os.replace`` installs whichever finishes last.
        """
        fingerprint = trace.fingerprint()
        offsets, _ = _column_offsets(len(trace))
        columns = [
            np.ascontiguousarray(column, dtype=dtype)
            for column, dtype in zip((trace.addresses, trace.access_types, trace.sizes), _COLUMNS)
        ]
        header = {
            "schema": PLANE_SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "trace_name": trace.name,
            "length": len(trace),
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        payload_base = _align(_PREAMBLE.size + len(blob))

        def write(handle) -> None:
            handle.write(_PREAMBLE.pack(_MAGIC, len(blob)))
            handle.write(blob)
            position = _PREAMBLE.size + len(blob)
            for offset, column in zip(offsets, columns):
                handle.write(b"\0" * (payload_base + offset - position))
                handle.write(column.data.cast("B"))
                position = payload_base + offset + column.nbytes

        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_replace(path, write, prefix=".tmp-" + fingerprint[:8] + "-")
        self.put_count += 1
        self._metric_puts.inc()
        return path

    def ensure(self, trace: Trace, jobs: Optional[Sequence] = None) -> CachedPlane:
        """Attach ``trace``'s artifact, persisting it first on a miss.

        ``jobs`` is ignored: one artifact serves every job grid over the
        trace.  It is accepted so callers that pass a sweep's job list keep
        working; new callers pass only the trace.
        """
        plane = self.get(trace.fingerprint(), trace_name=trace.name)
        if plane is not None:
            return plane
        self.put(trace)
        return self._attach(trace.fingerprint(), trace.name)

    # -- fingerprint sidecars -------------------------------------------------

    def _sidecar_path(self, trace_path: Union[str, os.PathLike]) -> Path:
        digest = hashlib.sha256(
            os.path.abspath(os.fspath(trace_path)).encode("utf-8")
        ).hexdigest()
        return self.root / _FINGERPRINTS_DIR / digest[:2] / (digest + ".json")

    def cached_fingerprint(
        self, trace_path: Union[str, os.PathLike]
    ) -> Optional[str]:
        """The trace file's fingerprint, if a sidecar matches its stat identity.

        Validated against the file's current ``(mtime_ns, size)``; any
        mismatch, missing sidecar or unreadable payload is a (counted) miss.
        """
        try:
            stat = os.stat(trace_path)
            payload = json.loads(
                self._sidecar_path(trace_path).read_text(encoding="utf-8")
            )
            if (
                int(payload["mtime_ns"]) == stat.st_mtime_ns
                and int(payload["size"]) == stat.st_size
            ):
                fingerprint = str(payload["fingerprint"])
                if _DIGEST_RE.match(fingerprint):
                    self.sidecar_hit_count += 1
                    self._metric_sidecar_hits.inc()
                    return fingerprint
        except (OSError, ValueError, KeyError, TypeError):
            pass
        self.sidecar_miss_count += 1
        self._metric_sidecar_misses.inc()
        return None

    def record_fingerprint(
        self, trace_path: Union[str, os.PathLike], fingerprint: str
    ) -> None:
        """Persist a sidecar binding the file's stat identity to ``fingerprint``.

        Only call with a fingerprint computed from the file's actual
        contents (``load_trace_file`` does); best-effort — a failed write
        just means the next run hashes again.
        """
        try:
            stat = os.stat(trace_path)
        except OSError:
            return
        payload = {
            "schema": 1,
            "path": os.path.abspath(os.fspath(trace_path)),
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "fingerprint": str(fingerprint),
        }
        sidecar = self._sidecar_path(trace_path)
        try:
            sidecar.parent.mkdir(parents=True, exist_ok=True)
            _atomic_replace(
                sidecar,
                lambda handle: json.dump(payload, handle, sort_keys=True),
                mode="w",
                prefix=".tmp-sidecar-",
            )
        except (OSError, StoreError):
            pass


def open_plane_cache(path: Union[str, os.PathLike]) -> TracePlaneCache:
    """Open (creating if necessary) the plane cache rooted at ``path``.

    The root gains a ``planecache.json`` manifest recording the directory
    layout version; re-opening a cache written by an incompatible build
    raises :class:`~repro.errors.StoreError` instead of misreading it.
    """
    root = Path(path)
    manifest_path = root / _MANIFEST_NAME
    try:
        (root / _OBJECTS_DIR).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreError(f"could not create trace plane cache at {root}: {exc}") from exc
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"unreadable plane cache manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("schema") != CACHE_SCHEMA_VERSION:
            raise StoreError(
                f"trace plane cache at {root} uses schema {manifest.get('schema')!r}; "
                f"this build reads version {CACHE_SCHEMA_VERSION}"
            )
    else:
        manifest = {"schema": CACHE_SCHEMA_VERSION, "format": "trace-plane"}
        _atomic_replace(
            manifest_path,
            lambda handle: json.dump(manifest, handle, sort_keys=True),
            mode="w",
            prefix=".tmp-manifest-",
        )
    return TracePlaneCache(root)


def coerce_plane_cache(
    value: Union[None, bool, str, os.PathLike, TracePlaneCache]
) -> Optional[TracePlaneCache]:
    """Normalize the ``trace_cache`` argument every consumer accepts.

    ``None``/``False`` disable the cache; an open cache passes through; a
    path opens (creating) a cache there.
    """
    if value is None or value is False:
        return None
    if isinstance(value, TracePlaneCache):
        return value
    if value is True:
        raise StoreError("trace_cache=True needs a directory; pass a path")
    return open_plane_cache(value)


# -- management (ls / verify / gc) ---------------------------------------------
#
# These reuse the result store's operator vocabulary wholesale: the same
# ArtifactRecord/VerifyReport/GcReport types, the same status constants and
# the same eviction policy, so `trace cache verify/gc` behaves exactly like
# `store verify/gc` with a different artifact parser.


def _classify_plane(path: Path, size: int) -> ArtifactRecord:
    """Fully re-verify one fingerprint-named ``.plane`` file."""
    stem = path.name[: -len(_PLANE_SUFFIX)]
    try:
        plane = CachedPlane(path)
    except (StoreError, OSError) as exc:
        return ArtifactRecord(
            path=path, status=STATUS_CORRUPT, size_bytes=size, digest=stem,
            detail=f"unreadable artifact: {exc}",
        )
    recorded = plane.fingerprint()
    length = len(plane)
    problem = None
    try:
        actual = Trace(plane.addresses, plane.access_types, plane.sizes).fingerprint()
        if actual != recorded:
            problem = (
                f"content fingerprint mismatch (header {recorded[:12]}..., "
                f"recomputed {actual[:12]}...)"
            )
    except TraceError as exc:
        problem = f"invalid columns: {exc}"
    finally:
        plane.close()
    if problem is not None:
        return ArtifactRecord(
            path=path, status=STATUS_CORRUPT, size_bytes=size, digest=stem,
            trace_fingerprint=recorded, detail=problem,
        )
    if recorded != stem:
        return ArtifactRecord(
            path=path, status=STATUS_MIS_ADDRESSED, size_bytes=size, digest=stem,
            trace_fingerprint=recorded, rows=length,
            detail=f"address {stem[:12]}... holds trace {recorded[:12]}...",
        )
    return ArtifactRecord(
        path=path, status=STATUS_OK, size_bytes=size, digest=stem,
        engine="plane", trace_fingerprint=recorded, rows=length,
    )


def scan_plane_cache(cache: TracePlaneCache) -> List[ArtifactRecord]:
    """Classify every file under the cache root (sorted, deterministic).

    The cache manifest and the fingerprint sidecars are the cache's own
    bookkeeping (neither artifacts nor foreign junk); everything else is
    classified ok/corrupt/mis-addressed/temp/foreign exactly as
    :func:`repro.store.manage.scan_store` does for result artifacts.
    """
    root = cache.root
    objects = cache.objects_dir
    sidecars = root / _FINGERPRINTS_DIR
    records: List[ArtifactRecord] = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path == root / _MANIFEST_NAME:
            continue
        if sidecars in path.parents:
            continue
        size = path.stat().st_size
        if path.name.startswith(".tmp-"):
            records.append(ArtifactRecord(
                path=path, status=STATUS_TEMP, size_bytes=size,
                detail="orphaned in-flight write",
            ))
            continue
        in_bucket = (
            path.parent.parent == objects
            and path.name.endswith(_PLANE_SUFFIX)
            and _DIGEST_RE.match(path.name[: -len(_PLANE_SUFFIX)]) is not None
            and path.parent.name == path.name[:2]
        )
        if not in_bucket:
            records.append(ArtifactRecord(
                path=path, status=STATUS_FOREIGN, size_bytes=size,
                detail="not a plane artifact",
            ))
            continue
        records.append(_classify_plane(path, size))
    return records


def verify_plane_cache(cache: TracePlaneCache) -> VerifyReport:
    """Re-read every artifact and recompute its trace's fingerprint."""
    return VerifyReport(records=tuple(scan_plane_cache(cache)))


def gc_plane_cache(
    cache: TracePlaneCache,
    keep_fingerprints=None,
    dry_run: bool = False,
    max_bytes: Optional[int] = None,
) -> GcReport:
    """Collect garbage (and, with a keep-list, other traces') artifacts.

    Semantics are identical to :func:`repro.store.manage.gc_store` — temp,
    corrupt and mis-addressed files always go; ``keep_fingerprints`` are
    prefixes of trace fingerprints; ``max_bytes`` evicts valid artifacts
    oldest-modification-time-first; foreign files are never touched.  An
    evicted artifact is only a cache loss: the next sweep re-parses it.
    """
    return collect_garbage(
        scan_plane_cache(cache),
        cache.objects_dir,
        keep_fingerprints=keep_fingerprints,
        dry_run=dry_run,
        max_bytes=max_bytes,
    )
