"""A process-local, thread-safe metrics registry.

Three instrument kinds, mirroring the Prometheus data model without the
dependency:

* :class:`Counter` — a monotonically increasing total (float increments are
  allowed, so phase-time accumulators are counters too);
* :class:`Gauge` — a value that can go up and down (queue depth, in-flight
  cells);
* :class:`Histogram` — fixed cumulative-style buckets plus sum and count,
  with quantile estimation by linear interpolation inside the bucket.

Instruments are *named* and live in a :class:`MetricsRegistry`; the
process-wide default registry (:func:`get_registry`) is what every
component reports through, so one ``registry.snapshot()`` captures the
whole process.  Snapshots are canonical (sorted keys, plain JSON types) and
therefore stable across runs up to the measured values; the service
daemon's heartbeat carries one.  :func:`render_exposition` turns any
snapshot into Prometheus-style text, so the socket ``metrics`` op and
``repro-dew metrics --format text`` are scrapeable.

The whole plane can be switched off (:func:`set_metrics_enabled`); disabled
instruments are single-branch no-ops, which is how the benchmark suite
measures the instrumentation overhead of the fused hot path (pinned < 2%).
Telemetry never influences results: instruments only ever *observe*.
"""

from __future__ import annotations

import bisect
import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Schema version of snapshot payloads (the heartbeat embeds one).
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds for latencies in seconds: from
#: sub-millisecond (socket round trips) to a minute (deep-queue claims).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

# One global switch instead of per-instrument flags: the hot-path cost of a
# disabled instrument is a single module-global read.
_ENABLED = True


def set_metrics_enabled(enabled: bool) -> bool:
    """Globally enable/disable all instruments; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def metrics_enabled() -> bool:
    """Whether instruments currently record observations."""
    return _ENABLED


class Counter:
    """A monotonically increasing total (float-valued)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = str(name)
        self.help = str(help)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        """The current total as a plain JSON number (ints stay ints)."""
        value = self._value
        return int(value) if float(value).is_integer() else value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = str(name)
        self.help = str(help)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        value = self._value
        return int(value) if float(value).is_integer() else value


class Histogram:
    """Fixed-bucket histogram with sum, count and quantile estimation.

    ``buckets`` are the finite upper bounds (sorted ascending); an implicit
    +Inf bucket catches the tail.  Counts are *per bucket* (not cumulative)
    in memory and in snapshots — cumulative form is derived where needed
    (the Prometheus exposition).
    """

    __slots__ = ("name", "help", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        self.name = str(name)
        self.help = str(help)
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf tail
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        if not _ENABLED:
            return
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        """Canonical JSON form: bounds, per-bucket counts, sum and count."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            accumulated = self._sum
        return {
            "buckets": [_json_number(b) for b in self.bounds],
            "counts": counts,
            "count": total,
            "sum": _json_number(round(accumulated, 9)),
        }

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (e.g. 0.5, 0.95), or ``None`` when empty."""
        return quantile_from_snapshot(self.snapshot(), q)


def _json_number(value: float) -> Any:
    return int(value) if float(value).is_integer() else float(value)


def quantile_from_snapshot(snapshot: Mapping[str, Any], q: float) -> Optional[float]:
    """Estimate a quantile from a histogram snapshot.

    Linear interpolation inside the target bucket, the classic
    ``histogram_quantile`` estimate; observations in the +Inf tail clamp to
    the largest finite bound.  Returns ``None`` for an empty histogram.
    """
    bounds = [float(b) for b in snapshot.get("buckets", ())]
    counts = [int(c) for c in snapshot.get("counts", ())]
    total = sum(counts)
    if total <= 0 or not bounds:
        return None
    q = min(max(float(q), 0.0), 1.0)
    rank = q * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if seen + count >= rank:
            if index >= len(bounds):
                return bounds[-1]  # +Inf tail: clamp to the last finite bound
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (rank - seen) / count if count else 0.0
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        seen += count
    return bounds[-1]


class MetricsRegistry:
    """A named collection of instruments with a canonical snapshot.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call for a name creates the instrument, later calls return the same
    object (a kind clash raises ``ValueError``), so any module can say
    ``get_registry().counter("store_hits_total")`` without coordination.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, factory) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets, help)
        )

    def instruments(self) -> List[Any]:
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> Dict[str, Any]:
        """Canonical JSON view of every instrument (sorted names)."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Counter):
                counters[instrument.name] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                gauges[instrument.name] = instrument.snapshot()
            elif isinstance(instrument, Histogram):
                histograms[instrument.name] = instrument.snapshot()
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def snapshot_json(self) -> str:
        """The snapshot as canonical JSON text (sorted keys, compact)."""
        return json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))

    def exposition(self) -> str:
        """Prometheus-style text exposition of the current snapshot."""
        return render_exposition(self.snapshot())

    def reset(self) -> None:
        """Drop every instrument (test isolation only)."""
        with self._lock:
            self._instruments.clear()


# The process-wide default registry every component reports through.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def _format_value(value: Any) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


def render_exposition(snapshot: Mapping[str, Any]) -> str:
    """Prometheus-style text form of a registry snapshot.

    Counters and gauges become one sample each; histograms expand to the
    conventional cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.  Output is sorted and ends with a newline, so it is stable
    and diff-able.
    """
    lines: List[str] = []
    for name, value in sorted(dict(snapshot.get("counters", {})).items()):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(value)}")
    for name, value in sorted(dict(snapshot.get("gauges", {})).items()):
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")
    for name, hist in sorted(dict(snapshot.get("histograms", {})).items()):
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        bounds = list(hist.get("buckets", ()))
        counts = list(hist.get("counts", ()))
        for bound, count in zip(bounds, counts):
            cumulative += int(count)
            lines.append(f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}')
        cumulative += sum(int(c) for c in counts[len(bounds):])
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_format_value(hist.get('sum', 0))}")
        lines.append(f"{name}_count {int(hist.get('count', 0))}")
    return "\n".join(lines) + "\n"


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "get_registry",
    "metrics_enabled",
    "quantile_from_snapshot",
    "render_exposition",
    "set_metrics_enabled",
]
