"""Per-layer metrics, derived from the traced run's spans.

Timings are medians per call.  The ``count`` metrics are built from work the
program reports (DEW counters, store, plane-cache and queue statistics) and
repeat exactly for a given seed.  A layer the workload bypasses is read from
the census spans instead (see ``workloads.census``).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from perfbench.corpus import MECHANISMS
from perfbench.spans import self_times

def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, Optional[float]]:
    """Every per-layer metric over one set of spans (``None`` where the spans
    hold no sample)."""
    own = self_times(spans)

    def self_time(name: str, scale: float = 1.0) -> Optional[float]:
        return _median([own[s["id"]] * scale for s in spans if s["name"] == name])

    jobs: Dict[str, List[Dict[str, Any]]] = {}
    overheads = []
    for span in spans:
        for job in span.get("jobs", ()):
            jobs.setdefault(job["engine"], []).append(job)
        if span["name"] == "run_sweep":
            overheads.append(
                span["end"] - span["start"] - sum(job["seconds"] for job in span["jobs"])
            )

    def rate(engine: str) -> Optional[float]:
        return _median([j["accesses"] / j["seconds"] for j in jobs.get(engine, ()) if j["seconds"] > 0])

    dew = [job["counters"] for job in jobs.get("dew", ())]
    dew_requests = sum(c["requests"] for c in dew)
    evaluations = sum(c["node_evaluations"] for c in dew)
    decided = sum(c["mra_hits"] + c["wave_decisions"] + c["mre_decisions"] for c in dew)

    rounds = [s for s in spans if s["name"] == "served_round"]
    first = rounds[0] if rounds else None
    requests = [s for s in spans if s["name"] == "request" and "deduped" in s]
    executed = [s for s in requests if not s["deduped"]]
    per_round_phase: Dict[str, List[float]] = {"store_lookup": [], "persist": []}
    for served in rounds:
        inside = [s for s in executed if s["parent"] == served["id"]]
        for phase, totals in per_round_phase.items():
            totals.append(sum(s["phases"].get(phase, 0.0) for s in inside))

    def counts(key: str) -> Tuple[float, float]:
        stats = first[key] if first else {}
        return stats.get("hits", 0), stats.get("hits", 0) + stats.get("misses", 0)

    metrics: Dict[str, Optional[float]] = {
        "cli.import_s": _median([s["seconds"] for s in spans if s["name"] == "import"]),
        "trace.parse_s": self_time("load_trace_file"),
        "trace.plane_warm_s": self_time("TracePlaneCache.ensure"),
        "trace.plane_hit_ratio": _ratio(*counts("planes")) if first else None,
        "trace.text_parses": float(first["text_parses"]) if first else None,
        "engine.overhead_s": _median(overheads),
        "core.dew.accesses_per_s": rate("dew"),
        "core.dew.ns_per_node_eval": _median(
            [j["seconds"] * 1e9 / j["counters"]["node_evaluations"] for j in jobs.get("dew", ())]
        ),
        "core.dew.node_evals_per_access": _ratio(evaluations, dew_requests),
        "core.dew.tag_comparisons_per_access": _ratio(
            sum(c["tag_comparisons"] for c in dew), dew_requests
        ),
        "core.dew.no_search_ratio": _ratio(decided, evaluations),
        "lru.janapsatya.accesses_per_s": rate("janapsatya"),
        "cache.single.accesses_per_s": rate("single"),
        **{f"mechanisms.{name}.accesses_per_s": rate(name) for name in MECHANISMS},
        "store.hit_ratio": _ratio(*counts("store")) if first else None,
        "store.lookup_s": _median(per_round_phase["store_lookup"]),
        "store.persist_s": _median(per_round_phase["persist"]),
        "service.submit_ms": self_time("ServiceClient.submit", 1e3),
        "service.result_ms": self_time("ServiceClient.result_frame", 1e3),
        "service.queue_wait_ms": _median([s["queue_wait_s"] * 1e3 for s in executed]),
        "service.execute_ms": _median([s["execute_s"] * 1e3 for s in executed]),
        "service.coalesced_ratio": (
            _ratio(
                sum(1 for s in requests if s["deduped"] and s["parent"] == first["id"]),
                first["requests"],
            )
            if first
            else None
        ),
        "explore.pareto_ms": self_time("pareto_front_frame", 1e3),
    }
    return metrics


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer values by name, each from the workload's own spans when it
    has samples for that layer, else from the census (0 if neither has)."""
    workload = _layer_metrics([s for s in spans if s["source"] == "workload"])
    census = _layer_metrics([s for s in spans if s["source"] == "census"])
    result = {}
    for name, value in workload.items():
        if value is None:
            value = census[name]
        result[name] = value if value is not None else 0.0
    return result
