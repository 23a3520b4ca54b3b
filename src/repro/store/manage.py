"""Management operations over a content-addressed result store.

The store itself (:mod:`repro.store.resultstore`) only ever needs ``get`` /
``put``; everything an *operator* needs lives here and behind the
``repro-dew store`` CLI family:

``scan_store`` / ``verify_store``
    Walk the store directory, re-read every artifact and classify each file:
    ``ok``, ``corrupt`` (unreadable / truncated / wrong schema),
    ``mis-addressed`` (the embedded key does not hash to the file's address),
    ``temp`` (orphaned in-flight write) or ``foreign`` (a file that is not a
    store artifact at all).  Verification decodes each artifact with the
    store's own codec (which checks the body against the CRC-32 in its
    header) and re-derives the address from the embedded key fields; it
    does not maintain a separate whole-file content hash —
    ``export``/``import`` add that for transfers.
``gc_store``
    Remove temp files, corrupt and mis-addressed artifacts, and — given a
    keep-list of trace fingerprints — every artifact belonging to other
    traces.  A ``max_bytes`` size budget additionally evicts valid
    artifacts oldest-modification-time-first until the store fits, so long
    campaigns stay bounded without explicit keep lists.  Foreign files are
    never touched (they are not ours to delete).
``export_store`` / ``import_store``
    A manifest-based sharing format: ``export`` writes a JSON manifest
    describing every valid artifact (address, relative path, SHA-256 of the
    file bytes, size), ``import`` installs the listed artifacts into another
    store after re-hashing each file.  Because artifact paths are relative
    to the manifest, ``rsync``-ing a store directory (manifest included) to
    another machine and importing there reproduces every warm-sweep cell
    byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.results import ResultsFrame
from repro.errors import StoreError
from repro.store import DEFAULT_MANIFEST_NAME
from repro.store.resultstore import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreKey,
    _ARTIFACT_SUFFIX,
    _DIGEST_RE,
    _MANIFEST_NAME,
    _OBJECTS_DIR,
    _atomic_replace,
    read_artifact,
)

#: Version of the export manifest format written by :func:`export_store`.
MANIFEST_SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_CORRUPT = "corrupt"
STATUS_MIS_ADDRESSED = "mis-addressed"
STATUS_TEMP = "temp"
STATUS_FOREIGN = "foreign"


@dataclass(frozen=True)
class ArtifactRecord:
    """One classified file found inside a store directory."""

    path: Path
    status: str
    size_bytes: int
    digest: str = ""
    engine: str = ""
    trace_fingerprint: str = ""
    options_json: str = ""
    rows: int = 0
    elapsed_seconds: float = 0.0
    detail: str = ""

    def as_dict(self, root: Optional[Path] = None) -> Dict[str, object]:
        """JSON-able view; ``path`` is relative to ``root`` when given."""
        path = self.path
        if root is not None:
            try:
                path = path.relative_to(root)
            except ValueError:
                pass
        return {
            "path": path.as_posix(),
            "status": self.status,
            "size_bytes": self.size_bytes,
            "digest": self.digest,
            "engine": self.engine,
            "trace_fingerprint": self.trace_fingerprint,
            "options": self.options_json,
            "rows": self.rows,
            "elapsed_seconds": self.elapsed_seconds,
            "detail": self.detail,
        }


def _classify_artifact(
    path: Path, size: int
) -> Tuple[ArtifactRecord, Optional[ResultsFrame]]:
    """Decode one digest-named artifact and decide ok/corrupt/mis-addressed.

    Returns the record with the decoded frame (``None`` when corrupt).
    """
    stem = path.name[: -len(_ARTIFACT_SUFFIX)]
    try:
        frame, extra = read_artifact(path)
    except Exception as exc:
        return ArtifactRecord(
            path=path, status=STATUS_CORRUPT, size_bytes=size, digest=stem,
            detail=f"unreadable artifact: {exc}",
        ), None
    key_info = extra.get("key")
    if not isinstance(key_info, dict):
        key_info = {}
    embedded_digest = key_info.get("digest", "")
    key = StoreKey(
        trace_fingerprint=str(key_info.get("trace_fingerprint", "")),
        engine=str(key_info.get("engine", "")),
        options_json=str(key_info.get("options", "")),
    )
    rehashed = key.digest
    if embedded_digest != stem or rehashed != stem:
        return ArtifactRecord(
            path=path, status=STATUS_MIS_ADDRESSED, size_bytes=size, digest=stem,
            engine=key.engine, trace_fingerprint=key.trace_fingerprint,
            options_json=key.options_json, rows=len(frame),
            detail=(
                f"address {stem[:12]}... does not match embedded key "
                f"(embedded {str(embedded_digest)[:12]}..., re-hashed {rehashed[:12]}...)"
            ),
        ), frame
    return ArtifactRecord(
        path=path, status=STATUS_OK, size_bytes=size, digest=stem,
        engine=key.engine, trace_fingerprint=key.trace_fingerprint,
        options_json=key.options_json, rows=len(frame),
        elapsed_seconds=frame.elapsed_seconds,
    ), frame


def _scan(store: ResultStore) -> Iterator[Tuple[ArtifactRecord, Optional[ResultsFrame]]]:
    """Classify every file under the store root, with each artifact's frame.

    Each artifact is decoded once; the frame is ``None`` for every file that
    is not a readable artifact.
    """
    root = store.root
    objects = root / _OBJECTS_DIR
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        # store.json and a default-named export manifest are the store's
        # own bookkeeping, not artifacts and not foreign junk.
        if path in (root / _MANIFEST_NAME, root / DEFAULT_MANIFEST_NAME):
            continue
        size = path.stat().st_size
        if path.name.startswith(".tmp-"):
            yield ArtifactRecord(
                path=path, status=STATUS_TEMP, size_bytes=size,
                detail="orphaned in-flight write",
            ), None
            continue
        in_bucket = (
            path.parent.parent == objects
            and path.name.endswith(_ARTIFACT_SUFFIX)
            and _DIGEST_RE.match(path.name[: -len(_ARTIFACT_SUFFIX)]) is not None
            and path.parent.name == path.name[:2]
        )
        if not in_bucket:
            yield ArtifactRecord(
                path=path, status=STATUS_FOREIGN, size_bytes=size,
                detail="not a store artifact",
            ), None
            continue
        yield _classify_artifact(path, size)


def scan_store(store: ResultStore) -> List[ArtifactRecord]:
    """Classify every file under the store root (sorted, deterministic).

    The store manifest (``store.json``) is the only file that is neither an
    artifact nor reported; everything else is classified as described in the
    module docstring.
    """
    return [record for record, _ in _scan(store)]


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :func:`verify_store`."""

    records: Tuple[ArtifactRecord, ...]

    def count(self, status: str) -> int:
        """Number of scanned files carrying the given status."""
        return sum(1 for record in self.records if record.status == status)

    @property
    def problems(self) -> Tuple[ArtifactRecord, ...]:
        """Corrupt and mis-addressed artifacts (the integrity failures)."""
        return tuple(
            record
            for record in self.records
            if record.status in (STATUS_CORRUPT, STATUS_MIS_ADDRESSED)
        )

    @property
    def clean(self) -> bool:
        """True when every artifact re-hashed to its own address."""
        return not self.problems

    def summary(self) -> str:
        """One-line human-readable verdict."""
        return (
            f"verified {len(self.records)} file(s): "
            f"{self.count(STATUS_OK)} ok, {self.count(STATUS_CORRUPT)} corrupt, "
            f"{self.count(STATUS_MIS_ADDRESSED)} mis-addressed, "
            f"{self.count(STATUS_TEMP)} temp, {self.count(STATUS_FOREIGN)} foreign"
        )


def verify_store(store: ResultStore) -> VerifyReport:
    """Re-read every artifact and re-derive its content address.

    Catches truncation, malformed payloads, wrong schema versions and
    mis-addressed artifacts (embedded key vs filename).  Data integrity
    within a parseable payload rests on the body's CRC-32 — see the module
    docstring for the exact guarantees.
    """
    return VerifyReport(records=tuple(scan_store(store)))


@dataclass(frozen=True)
class GcReport:
    """Outcome of :func:`gc_store`."""

    removed: Tuple[ArtifactRecord, ...]
    kept: int
    freed_bytes: int
    dry_run: bool = False
    unmatched_keeps: Tuple[str, ...] = ()
    budget_evicted: int = 0

    def summary(self) -> str:
        """One-line human-readable verdict."""
        verb = "would remove" if self.dry_run else "removed"
        budget = (
            f", {self.budget_evicted} evicted for the size budget"
            if self.budget_evicted
            else ""
        )
        return (
            f"{verb} {len(self.removed)} file(s) ({self.freed_bytes:,} bytes), "
            f"kept {self.kept} artifact(s){budget}"
        )


def collect_garbage(
    records: Iterable[ArtifactRecord],
    objects_dir: Path,
    keep_fingerprints: Optional[Iterable[str]] = None,
    dry_run: bool = False,
    max_bytes: Optional[int] = None,
) -> GcReport:
    """The shared gc policy over pre-scanned records (store and plane cache).

    Both content-addressed directories — the result store and the trace
    plane cache — garbage-collect identically; only the scan that produces
    the records differs.  See :func:`gc_store` for the full semantics.
    """
    keep = (
        None
        if keep_fingerprints is None
        else [str(fp) for fp in keep_fingerprints if str(fp)]
    )
    if max_bytes is not None and max_bytes < 0:
        raise StoreError(f"size budget must be non-negative, got {max_bytes}")
    matched_keeps = set()

    def keep_matches(fingerprint: str) -> bool:
        hit = False
        for prefix in keep or ():
            if fingerprint.startswith(prefix):
                matched_keeps.add(prefix)
                hit = True
        return hit

    removed: List[ArtifactRecord] = []
    survivors: List[ArtifactRecord] = []
    for record in records:
        if record.status in (STATUS_TEMP, STATUS_CORRUPT, STATUS_MIS_ADDRESSED):
            collect = True
        elif record.status == STATUS_OK:
            collect = keep is not None and not keep_matches(record.trace_fingerprint)
        else:
            collect = False
        if not collect:
            if record.status == STATUS_OK:
                survivors.append(record)
            continue
        removed.append(record)
        if not dry_run:
            try:
                record.path.unlink()
            except FileNotFoundError:
                pass
    budget_evicted = 0
    if max_bytes is not None:
        total = sum(record.size_bytes for record in survivors)
        if total > max_bytes:
            def age_key(record: ArtifactRecord):
                try:
                    mtime = record.path.stat().st_mtime_ns
                except OSError:
                    mtime = 0
                return (mtime, str(record.path))

            by_age = sorted(survivors, key=age_key)
            evicted = []
            for record in by_age:
                if total <= max_bytes:
                    break
                evicted.append(record)
                total -= record.size_bytes
                if not dry_run:
                    try:
                        record.path.unlink()
                    except FileNotFoundError:
                        pass
            budget_evicted = len(evicted)
            removed.extend(evicted)
            evicted_paths = {record.path for record in evicted}
            survivors = [r for r in survivors if r.path not in evicted_paths]
    kept = len(survivors)
    if not dry_run:
        if objects_dir.is_dir():
            for bucket in sorted(objects_dir.iterdir()):
                if bucket.is_dir() and not any(bucket.iterdir()):
                    bucket.rmdir()
    return GcReport(
        removed=tuple(removed),
        kept=kept,
        freed_bytes=sum(record.size_bytes for record in removed),
        dry_run=dry_run,
        unmatched_keeps=tuple(p for p in (keep or ()) if p not in matched_keeps),
        budget_evicted=budget_evicted,
    )


def gc_store(
    store: ResultStore,
    keep_fingerprints: Optional[Iterable[str]] = None,
    dry_run: bool = False,
    max_bytes: Optional[int] = None,
) -> GcReport:
    """Remove garbage (and, with a keep-list, other traces') artifacts.

    Always collected: orphaned temp files, corrupt artifacts and
    mis-addressed artifacts.  With ``keep_fingerprints`` every valid
    artifact whose trace fingerprint matches none of the entries is
    collected too.  Entries are *prefixes* of the full 64-character
    fingerprint (``store ls`` prints a 12-character prefix, so the natural
    copy-paste workflow keeps working); entries that match no artifact are
    reported in :attr:`GcReport.unmatched_keeps` — including the case where
    nothing matches at all, which empties the store (it stays valid and the
    next sweep re-simulates).  Foreign files are reported by
    :func:`verify_store` but never deleted.

    ``max_bytes`` adds a *size budget*: after the keep-list filtering, valid
    artifacts are evicted oldest-modification-time-first (ties broken by
    path, so the order is deterministic) until the survivors' total size
    fits the budget.  Evicted cells are only a cache loss — the next sweep
    re-simulates them — which makes long unattended campaigns self-limiting
    without maintaining explicit keep lists.
    """
    return collect_garbage(
        scan_store(store),
        store.root / _OBJECTS_DIR,
        keep_fingerprints=keep_fingerprints,
        dry_run=dry_run,
        max_bytes=max_bytes,
    )


def load_store_frame(
    store: ResultStore,
    trace_fingerprint: Optional[str] = None,
) -> ResultsFrame:
    """Merge every valid artifact of one trace into a single columnar frame.

    ``trace_fingerprint`` may be a prefix (as printed by ``store ls``); when
    omitted the store must contain artifacts for exactly one trace — with
    several traces present the caller has to disambiguate, and the error
    lists the candidate fingerprints.  Corrupt/mis-addressed/temp/foreign
    files are skipped exactly as ``store export`` skips them.  This is the
    data source behind ``repro-dew explore --store``; each artifact is
    decoded once, by the scan that classifies it.
    """
    artifacts = [
        (record, frame)
        for record, frame in _scan(store)
        if record.status == STATUS_OK
        and record.trace_fingerprint.startswith(trace_fingerprint or "")
    ]
    fingerprints = sorted({record.trace_fingerprint for record, _ in artifacts})
    if not artifacts:
        raise StoreError(
            f"store {store.root} holds no valid artifacts"
            + (f" for trace {trace_fingerprint!r}" if trace_fingerprint else "")
        )
    if len(fingerprints) > 1:
        listing = ", ".join(fp[:12] for fp in fingerprints)
        raise StoreError(
            f"store {store.root} holds results for {len(fingerprints)} traces "
            f"({listing}); pick one with --trace"
        )
    return ResultsFrame.merge(
        [frame for _, frame in artifacts],
        simulator_name="store",
        trace_name=fingerprints[0][:12],
    )


#: Chunk length for streaming hash/copy operations (1 MiB): large enough to
#: amortise syscall overhead, small enough that importing a multi-gigabyte
#: bundle never stages a whole artifact in memory.
STREAM_CHUNK_BYTES = 1 << 20


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(STREAM_CHUNK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def _atomic_write_bytes(target: Path, data: bytes) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    _atomic_replace(target, lambda handle: handle.write(data), prefix=".tmp-import-")


def _atomic_copy_validated(source: Path, target: Path, expected_sha256: str) -> int:
    """Stream ``source`` into ``target`` chunk-by-chunk, re-hashing in transit.

    The copy goes through the shared temp-file-plus-``os.replace`` primitive,
    so a crash mid-copy never leaves a partial artifact under its final name,
    and a hash mismatch (the source changed after validation) aborts before
    the rename — the temp file is discarded and :class:`StoreError` raised.
    Peak memory is one :data:`STREAM_CHUNK_BYTES` buffer regardless of
    artifact size.  Returns the number of bytes copied.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    copied = 0

    def copy_stream(handle) -> None:
        nonlocal copied
        digest = hashlib.sha256()
        with open(source, "rb") as stream:
            for block in iter(lambda: stream.read(STREAM_CHUNK_BYTES), b""):
                digest.update(block)
                handle.write(block)
                copied += len(block)
        if digest.hexdigest() != expected_sha256:
            raise StoreError(
                f"manifest artifact {source} changed during import "
                f"(expected sha256 {expected_sha256}, got {digest.hexdigest()})"
            )

    _atomic_replace(target, copy_stream, prefix=".tmp-import-")
    return copied


def export_store(store: ResultStore, manifest_path: os.PathLike) -> Dict[str, Any]:
    """Write an export manifest describing every valid artifact.

    Artifact paths in the manifest are relative to the manifest's own
    directory, so the default location (inside the store root) makes the
    whole store directory a self-describing, rsync-able bundle.  Corrupt,
    mis-addressed, temp and foreign files are skipped — an export is always
    a clean snapshot.  Returns the manifest payload.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent.resolve()
    entries = []
    for record in scan_store(store):
        if record.status != STATUS_OK:
            continue
        entries.append({
            "digest": record.digest,
            "path": Path(os.path.relpath(record.path.resolve(), base)).as_posix(),
            "sha256": _sha256_file(record.path),
            "size_bytes": record.size_bytes,
            "engine": record.engine,
            "trace_fingerprint": record.trace_fingerprint,
        })
    payload = {
        "manifest_schema": MANIFEST_SCHEMA_VERSION,
        "store_schema": STORE_SCHEMA_VERSION,
        "artifacts": sorted(entries, key=lambda entry: entry["digest"]),
    }
    _atomic_write_bytes(
        manifest_path,
        (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii"),
    )
    return payload


@dataclass(frozen=True)
class ImportReport:
    """Outcome of :func:`import_store`."""

    imported: int
    skipped: int
    copied_bytes: int = 0

    def summary(self) -> str:
        """One-line human-readable verdict."""
        return (
            f"imported {self.imported} artifact(s) "
            f"({self.copied_bytes:,} bytes), {self.skipped} already present"
        )


def import_store(store: ResultStore, manifest_path: os.PathLike) -> ImportReport:
    """Install the artifacts listed in an export manifest into ``store``.

    Two streaming passes, neither of which ever holds a whole artifact in
    memory (peak usage is one :data:`STREAM_CHUNK_BYTES` buffer however
    large the bundle's files are):

    1. every listed file is re-read and re-hashed chunk-by-chunk — a missing
       file or a SHA-256 mismatch (a bad transfer) raises
       :class:`~repro.errors.StoreError` before anything is written, so a
       bad bundle cannot leave a half-imported store;
    2. validated files are streamed into place through the atomic
       temp-plus-rename primitive, re-hashing in transit — a source that
       changes between the passes aborts that copy before the rename.

    Artifacts already present (same content address) are skipped, so imports
    are idempotent and two stores can exchange manifests in either
    direction.
    """
    manifest_path = Path(manifest_path)
    try:
        payload = json.loads(manifest_path.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        raise StoreError(f"unreadable export manifest {manifest_path}: {exc}") from exc
    if payload.get("manifest_schema") != MANIFEST_SCHEMA_VERSION:
        raise StoreError(
            f"manifest {manifest_path} uses schema {payload.get('manifest_schema')!r}; "
            f"this build reads version {MANIFEST_SCHEMA_VERSION}"
        )
    if payload.get("store_schema") != STORE_SCHEMA_VERSION:
        raise StoreError(
            f"manifest {manifest_path} describes store schema "
            f"{payload.get('store_schema')!r}; this build reads version {STORE_SCHEMA_VERSION}"
        )
    base = manifest_path.parent
    staged: List[Tuple[Path, Path, str]] = []  # (source, target, sha256)
    skipped = 0
    for entry in payload.get("artifacts", []):
        digest = str(entry.get("digest", ""))
        if not _DIGEST_RE.match(digest):
            raise StoreError(f"manifest {manifest_path} lists invalid digest {digest!r}")
        target = store.root / _OBJECTS_DIR / digest[:2] / (digest + _ARTIFACT_SUFFIX)
        if target.is_file():
            skipped += 1
            continue
        source = base / str(entry.get("path", ""))
        try:
            actual = _sha256_file(source)
        except OSError as exc:
            raise StoreError(f"manifest artifact {source} is unreadable: {exc}") from exc
        if actual != entry.get("sha256"):
            raise StoreError(
                f"manifest artifact {source} fails its hash check "
                f"(expected {entry.get('sha256')}, got {actual})"
            )
        staged.append((source, target, actual))
    copied_bytes = 0
    for source, target, sha256 in staged:
        copied_bytes += _atomic_copy_validated(source, target, sha256)
    return ImportReport(imported=len(staged), skipped=skipped, copied_bytes=copied_bytes)
