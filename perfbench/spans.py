"""In-memory spans recorded around the benchmark's calls into the program.

Nothing inside ``src/`` is instrumented: every span wraps one public call the
benchmark itself makes.  A disabled tracer records nothing, so untraced runs
pay one attribute test per call.  Spans are written out as JSONL once the run
has ended.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class Tracer:
    """Records ``{name, start, end, parent, ...attrs}`` spans in memory.

    ``source`` tags every span with where its work came from: ``workload``
    for the run's own units, set-up and checks, ``census`` for the small
    pass through layers the workload bypasses (see ``workloads.census``).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self.source = "workload"
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Optional[Dict[str, Any]]]:
        """Time the enclosed block as one span; yields the record to annotate."""
        if not self.enabled:
            yield None
            return
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "source": self.source,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= span["end"] - span["start"]
    return own
