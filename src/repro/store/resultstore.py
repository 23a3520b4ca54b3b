"""Content-addressed on-disk store for per-job sweep results.

An artifact is one :class:`~repro.core.results.ResultsFrame` — the outcome of
one engine invocation over one trace — addressed by the SHA-256 digest of
``(trace fingerprint, engine key, canonicalized options)``.  Because the key
is pure content (no timestamps, no paths), re-running the same sweep over the
same trace rediscovers every artifact, and an incremental sweep only pays for
the cells whose key has never been computed.

Layout::

    <root>/store.json                 {"schema": 2, "format": "flat-frame"}
    <root>/objects/<d[:2]>/<d>.frame  one frame per artifact, d = key digest

An artifact is :meth:`ResultsFrame.to_bytes`'s flat file, as the plane
cache's is: a magic preamble, a JSON header (frame schema, code tables,
metadata, row count, body CRC-32, and the store's ``extra``: the full key
and the producing engine's counters) and one ``int64`` matrix of the
frame's columns.  A lookup reads it in one call and decodes the columns with
one ``np.frombuffer``.

Durability rules:

* **Atomic writes** — artifacts are written to a temporary file in the same
  directory and ``os.replace``-d into place, so a killed sweep never leaves a
  truncated artifact under its final name.  Two writers of one key (jobs
  of two daemons that share a store, or a daemon's job and a direct
  ``sweep --store``, over a shared cell) each replace it with the same bytes.
* **Corruption is a miss** — an artifact that cannot be parsed, carries an
  unknown schema version, or whose embedded key digest disagrees with its
  address is ignored (and counted in :attr:`ResultStore.corrupt_count`); the
  next ``put`` simply overwrites it.
* **Versioned schema** — both the store manifest and each artifact embed a
  schema version; opening a store written by an incompatible build raises
  :class:`~repro.errors.StoreError` instead of misreading it.  Schema 1
  held compressed numpy archives; such a store is refused, and deleting it
  costs only re-simulating its cells.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import CacheConfig
from repro.core.counters import DewCounters
from repro.core.results import ResultsFrame
from repro.errors import StoreError
from repro.obs.metrics import get_registry

#: Version of the store directory layout and artifact envelope.  It is part
#: of every key digest, so artifacts of two versions never share an address.
STORE_SCHEMA_VERSION = 2

_MANIFEST_NAME = "store.json"
_OBJECTS_DIR = "objects"
_ARTIFACT_SUFFIX = ".frame"

#: A SHA-256 hex digest: an artifact's address (and a plane's fingerprint).
_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


def _atomic_replace(target: Path, writer, mode: str = "wb", prefix: str = ".tmp-") -> None:
    """Write via ``writer(handle)`` to a temp file and ``os.replace`` it in.

    The single durability primitive shared by artifact writes, manifest
    creation and store imports: flush + fsync before the rename, unlink the
    temp file on failure, raise :class:`~repro.errors.StoreError` with the
    target path on any OS-level problem.
    """
    fd, temp_name = tempfile.mkstemp(prefix=prefix, dir=target.parent)

    def discard_temp() -> None:
        try:
            os.unlink(temp_name)
        except OSError:
            pass

    try:
        with os.fdopen(fd, mode) as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, target)
    except OSError as exc:
        discard_temp()
        raise StoreError(f"could not write {target}: {exc}") from exc
    except BaseException:
        # A writer that raises its own error (e.g. a streaming copy whose
        # hash check fails) must not leave the temp file behind either.
        discard_temp()
        raise


def _json_canonical_default(value: Any) -> Any:
    """Reduce non-JSON option values to a canonical JSON-able form."""
    if isinstance(value, CacheConfig):
        return {
            "__config__": [
                value.num_sets,
                value.associativity,
                value.block_size,
                value.policy.value,
            ]
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"option value {value!r} cannot be canonicalized for a store key")


def canonical_options_json(options: Union[Mapping[str, Any], Sequence[Tuple[str, Any]]]) -> str:
    """Deterministic JSON encoding of engine options.

    Key order is sorted, tuples and lists collapse to JSON arrays, enums to
    their values and configs to a tagged list, so semantically equal option
    sets always produce the same text (and therefore the same digest).
    """
    mapping = dict(options)
    return json.dumps(
        mapping,
        sort_keys=True,
        separators=(",", ":"),
        default=_json_canonical_default,
    )


@dataclass(frozen=True)
class StoreKey:
    """Content address of one engine invocation's results.

    ``options_json`` must be the canonical encoding produced by
    :func:`canonical_options_json`; use :meth:`make` to build keys from raw
    option mappings.
    """

    trace_fingerprint: str
    engine: str
    options_json: str

    @classmethod
    def make(
        cls,
        trace_fingerprint: str,
        engine: str,
        options: Union[Mapping[str, Any], Sequence[Tuple[str, Any]]],
    ) -> "StoreKey":
        """Build a key, canonicalizing ``options`` on the way in."""
        return cls(str(trace_fingerprint), str(engine), canonical_options_json(options))

    @property
    def digest(self) -> str:
        """SHA-256 hex digest addressing this key's artifact."""
        payload = json.dumps(
            {
                "schema": STORE_SCHEMA_VERSION,
                "trace": self.trace_fingerprint,
                "engine": self.engine,
                "options": self.options_json,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def describe(self) -> Dict[str, str]:
        """JSON-able key description embedded into artifacts for integrity."""
        return {
            "digest": self.digest,
            "trace_fingerprint": self.trace_fingerprint,
            "engine": self.engine,
            "options": self.options_json,
        }


def read_artifact(path: Path) -> Tuple[ResultsFrame, Dict[str, Any]]:
    """Read one artifact file in one call and decode it.

    Returns ``(frame, extra)``; raises ``OSError`` when the file cannot be
    read and :class:`~repro.errors.SimulationError` when it is damaged.
    """
    return ResultsFrame.from_bytes(path.read_bytes())


class ResultStore:
    """A directory of content-addressed result artifacts.

    Construct via :func:`open_store`.  Lookup statistics (``hit_count``,
    ``miss_count``, ``corrupt_count``, ``put_count``) accumulate per instance
    so sweeps can report how much work the store saved.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.hit_count = 0
        self.miss_count = 0
        self.corrupt_count = 0
        self.put_count = 0
        # Process-wide named instruments (shared across store instances):
        # the per-instance ints above stay the per-sweep view, the registry
        # aggregates everything the process did and rides the heartbeat.
        registry = get_registry()
        self._metric_hits = registry.counter(
            "store_hits_total", "result-store artifact lookups served from disk"
        )
        self._metric_misses = registry.counter(
            "store_misses_total", "result-store lookups with no artifact"
        )
        self._metric_corrupt = registry.counter(
            "store_corrupt_total", "unreadable or mis-addressed artifacts (read as misses)"
        )
        self._metric_puts = registry.counter(
            "store_puts_total", "artifacts persisted"
        )

    # -- accounting --------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Lookup/write accounting accumulated by this instance.

        The counts are shared by every consumer of the same instance — the
        sweep orchestrator, the service daemon and the stats endpoint all
        see one set of numbers, so a served sweep's hit/miss split reflects
        everything that happened to the store, not one caller's view.
        """
        return {
            "hits": self.hit_count,
            "misses": self.miss_count,
            "corrupt": self.corrupt_count,
            "puts": self.put_count,
        }

    # -- addressing -------------------------------------------------------------

    def path_for(self, key: StoreKey) -> Path:
        """Filesystem path of the artifact addressed by ``key``."""
        digest = key.digest
        return self.root / _OBJECTS_DIR / digest[:2] / (digest + _ARTIFACT_SUFFIX)

    def contains(self, key: StoreKey) -> bool:
        """Whether an artifact exists under ``key`` (without validating it)."""
        return self.path_for(key).is_file()

    __contains__ = contains

    # -- read/write ---------------------------------------------------------------

    def get(self, key: StoreKey) -> Optional[ResultsFrame]:
        """The stored frame for ``key``, or ``None`` on miss.

        The frame's ``counters`` are a
        :class:`~repro.core.counters.DewCounters` when the stored counters
        fit its fields, and ``None`` otherwise.

        Unreadable, schema-incompatible or mis-addressed artifacts are
        treated as misses (counted separately in ``corrupt_count``); the
        caller re-simulates and overwrites.
        """
        try:
            frame, extra = read_artifact(self.path_for(key))
        except FileNotFoundError:
            self.miss_count += 1
            self._metric_misses.inc()
            return None
        except Exception:
            # Truncated body, bad magic, malformed header, wrong schema, ...
            self.corrupt_count += 1
            self._metric_corrupt.inc()
            return None
        embedded = extra.get("key")
        if not isinstance(embedded, dict) or embedded.get("digest") != key.digest:
            self.corrupt_count += 1
            self._metric_corrupt.inc()
            return None
        self.hit_count += 1
        self._metric_hits.inc()
        raw_counters = extra.get("counters")
        if isinstance(raw_counters, dict):
            try:
                frame.counters = DewCounters(**raw_counters)
            except TypeError:
                # Not DEW's counter fields (another engine's, or fields
                # changed since the artifact was written); the hit/miss
                # columns are still valid, so keep the result.
                pass
        return frame

    def put(self, key: StoreKey, frame: ResultsFrame) -> Path:
        """Persist ``frame`` under ``key`` atomically; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        counters = None if frame.counters is None else dataclasses.asdict(frame.counters)
        data = frame.to_bytes(
            extra_metadata={
                "store_schema": STORE_SCHEMA_VERSION,
                "key": key.describe(),
                # Instrumentation rides along so warm runs report the
                # same work counters the cold run measured.
                "counters": counters,
            }
        )
        _atomic_replace(
            path, lambda handle: handle.write(data), prefix=".tmp-" + key.digest[:8] + "-"
        )
        self.put_count += 1
        self._metric_puts.inc()
        return path

    def delete(self, key: StoreKey) -> bool:
        """Remove the artifact for ``key``; returns whether one existed."""
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    # -- inventory ---------------------------------------------------------------

    def artifact_paths(self) -> Iterator[Path]:
        """All artifact files currently in the store (sorted, deterministic)."""
        objects = self.root / _OBJECTS_DIR
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*" + _ARTIFACT_SUFFIX)):
            # Skip in-flight/orphaned temp files (".tmp-..."); only
            # digest-named files are artifacts.
            if path.name.startswith("."):
                continue
            yield path

    def __len__(self) -> int:
        return sum(1 for _ in self.artifact_paths())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r}, {len(self)} artifacts)"


def open_store(path: Union[str, os.PathLike]) -> ResultStore:
    """Open (creating if necessary) the result store rooted at ``path``.

    The root gains a ``store.json`` manifest recording the schema version;
    re-opening a store written by an incompatible build raises
    :class:`~repro.errors.StoreError`.
    """
    root = Path(path)
    manifest_path = root / _MANIFEST_NAME
    try:
        (root / _OBJECTS_DIR).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreError(f"could not create result store at {root}: {exc}") from exc
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable store manifest {manifest_path}: {exc}") from exc
        if manifest.get("schema") != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"store at {root} uses schema {manifest.get('schema')!r}; "
                f"this build reads version {STORE_SCHEMA_VERSION} "
                "(delete the store: its cells re-simulate)"
            )
    else:
        manifest = {"schema": STORE_SCHEMA_VERSION, "format": "flat-frame"}
        _atomic_replace(
            manifest_path,
            lambda handle: json.dump(manifest, handle, sort_keys=True),
            mode="w",
            prefix=".tmp-manifest-",
        )
    return ResultStore(root)
