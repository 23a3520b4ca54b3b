"""Span records and the sweep-phase timer.

**Trace ids.**  :func:`new_trace_id` mints the id a
:class:`~repro.service.api.ServiceClient` stamps onto a submission; it
rides the wire payload into the job record, survives daemon crashes and
recovery (the record is the durable carrier), and every span the executing
daemon emits — claim, per-cell completion, terminal state — carries it, so
one id threads a request from the submitting client through any number of
daemon restarts down to individual cells.

**Span logs.**  A :class:`SpanLog` appends newline-delimited JSON records
under ``<svc>/telemetry/`` with size-capped rotation (the current file is
renamed to ``*.jsonl.1`` when it would exceed the cap, keeping exactly one
previous generation).  Emission is failure-tolerant by design: telemetry
must never break serving, so I/O errors are swallowed and counted on the
instance.

**Phase timing.**  :class:`PhaseTimer` attributes wall clock to named
phases with *exclusive* accounting: a phase entered while another is open
is charged to itself and subtracted from its parent, so the per-phase sums
add up to the covered wall clock without double counting.  ``run_sweep``
uses it to split execution into decode / plane-ensure / store-lookup /
simulate / persist (and ``merged()`` adds merge), which is what
``sweep --profile`` prints and BENCH_MICRO.json records.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

#: Schema version stamped on every span record.
SPAN_SCHEMA_VERSION = 1

#: Name of the telemetry directory inside a service root.
TELEMETRY_DIR = "telemetry"

#: Default rotation cap for one span-log file.
DEFAULT_SPAN_LOG_MAX_BYTES = 4 * 1024 * 1024


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (random, collision-safe)."""
    return uuid.uuid4().hex


class PhaseTimer:
    """Exclusive-time phase accounting for one orchestrating thread.

    ``with timer.phase("simulate"): ...`` charges the enclosed wall clock
    to ``simulate``; a nested ``timer.phase("persist")`` inside it moves
    that slice from ``simulate`` to ``persist``.  Repeated phases
    accumulate.  Not thread-safe — it times the single orchestrating
    thread of ``run_sweep`` (worker-pool time shows up as the
    orchestrator's blocking wait, which is exactly the attribution the
    profile wants).
    """

    def __init__(self) -> None:
        self.times: Dict[str, float] = {}
        self._stack: List[List[Any]] = []  # [name, child_seconds]

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        frame: List[Any] = [str(name), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            exclusive = max(elapsed - frame[1], 0.0)
            self.times[frame[0]] = self.times.get(frame[0], 0.0) + exclusive
            if self._stack:
                self._stack[-1][1] += elapsed

    def add(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` to a phase directly (no context manager)."""
        self.times[str(name)] = self.times.get(str(name), 0.0) + float(seconds)

    def total(self) -> float:
        """Sum of all phase times."""
        return sum(self.times.values())

    def as_dict(self, digits: int = 6) -> Dict[str, float]:
        """Rounded copy of the phase table (JSON/report-friendly)."""
        return {name: round(value, digits) for name, value in sorted(self.times.items())}


class SpanLog:
    """Append-only JSON-lines span writer with size-capped rotation.

    One file per writer (conventionally ``spans-<daemon_id>.jsonl`` under
    ``<svc>/telemetry/``).  When an append would push the file past
    ``max_bytes`` the current file is atomically renamed to ``<name>.1``
    and a fresh file started, so disk use is bounded at roughly twice the
    cap.  All I/O failures are swallowed (and counted in
    :attr:`dropped`): span emission must never fail the caller.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        name: str = "spans",
        max_bytes: int = DEFAULT_SPAN_LOG_MAX_BYTES,
        source: Optional[str] = None,
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / (str(name) + ".jsonl")
        self.rotated_path = self.directory / (str(name) + ".jsonl.1")
        self.max_bytes = max(int(max_bytes), 4096)
        self.source = source
        self.emitted = 0
        self.dropped = 0
        self._lock = threading.Lock()

    def emit(
        self,
        name: str,
        trace_id: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Append one span record (never raises)."""
        record: Dict[str, Any] = {
            "schema": SPAN_SCHEMA_VERSION,
            "ts": round(time.time(), 6),
            "name": str(name),
        }
        if trace_id:
            record["trace_id"] = str(trace_id)
        if self.source:
            record["source"] = self.source
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        try:
            line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        except (TypeError, ValueError):
            self.dropped += 1
            return
        data = line.encode("utf-8")
        with self._lock:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._rotate_if_needed(len(data))
                with open(self.path, "ab") as handle:
                    handle.write(data)
            except OSError:
                self.dropped += 1
                return
            self.emitted += 1

    def _rotate_if_needed(self, incoming: int) -> None:
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size + incoming <= self.max_bytes:
            return
        try:
            os.replace(self.path, self.rotated_path)
        except OSError:
            pass

    def read_spans(self, include_rotated: bool = True) -> List[Dict[str, Any]]:
        """Parse the log back into span dicts (oldest first; tests/tools).

        Unparsable lines are skipped — a crash mid-append leaves at most
        one truncated trailing line.
        """
        spans: List[Dict[str, Any]] = []
        paths = ([self.rotated_path] if include_rotated else []) + [self.path]
        for path in paths:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                continue
            for line in text.splitlines():
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                if isinstance(payload, dict):
                    spans.append(payload)
        return spans


def read_all_spans(directory: Union[str, os.PathLike]) -> List[Dict[str, Any]]:
    """Every span under a telemetry directory, across all writers and
    rotated generations (sorted by timestamp)."""
    root = Path(directory)
    spans: List[Dict[str, Any]] = []
    if not root.is_dir():
        return spans
    for path in sorted(root.glob("*.jsonl*")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if isinstance(payload, dict):
                spans.append(payload)
    spans.sort(key=lambda span: span.get("ts", 0.0))
    return spans


__all__ = [
    "DEFAULT_SPAN_LOG_MAX_BYTES",
    "PhaseTimer",
    "SPAN_SCHEMA_VERSION",
    "SpanLog",
    "TELEMETRY_DIR",
    "new_trace_id",
    "read_all_spans",
]
