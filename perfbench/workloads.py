"""The three workloads: what one round of each runs, and how it is checked.

A round replays every unit of a workload once, each between host probes.
The runner repeats rounds and reduces each unit's readings to one time in
reference-host seconds; every replay must produce the same output, and
outputs are checked against a reference outside the timed region.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.engine.base import get_engine
from repro.engine.sweep import SweepJob, SweepOutcome, run_sweep
from repro.explore.pareto import pareto_front_frame
from repro.service.api import ServiceClient, SweepRequest
from repro.service.daemon import ServiceDaemon
from repro.service.socketserver import discover_socket
from repro.trace.files import decode_count
from repro.trace.planecache import open_plane_cache
from repro.trace.trace import Trace
from repro.types import ReplacementPolicy

from perfbench import corpus
from perfbench.hostspeed import HostClock, Reading, probe_seconds
from perfbench.spans import Tracer

#: Longest a served request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: The client's pause before each distinct request, outside the timed
#: region.  The daemon has then always finished its post-job bookkeeping and
#: gone to sleep, so the idle poll a new job waits out has the same phase in
#: every replay instead of depending on which thread won a race.
THINK_S = 0.015

Traces = Dict[Path, Trace]


@dataclass
class Outcome:
    """One timed unit in one round: its reading, its answer, or its failure."""

    unit: str
    reading: Optional[Reading] = None
    config_accesses: int = 0
    output: str = ""
    counters: Tuple[Any, ...] = ()
    error: Optional[str] = None


def _failure(unit: str, exc: Exception) -> Outcome:
    return Outcome(unit, error=f"{type(exc).__name__}: {exc}")


def _job_records(outcome: SweepOutcome, accesses: int) -> List[Dict[str, Any]]:
    """Per-job engine, simulate seconds and DEW counters, for the span log."""
    return [
        {
            "engine": job.engine,
            "seconds": results.elapsed_seconds,
            "accesses": accesses,
            "counters": results.counters.as_dict() if job.engine == "dew" else None,
        }
        for job, results in zip(outcome.jobs, outcome.results)
    ]


def _dew_counters(outcome: SweepOutcome) -> Tuple[Any, ...]:
    return tuple(
        (sorted(results.counters.as_dict().items()), results.counters.evaluations_per_level)
        for job, results in zip(outcome.jobs, outcome.results)
        if job.engine == "dew"
    )


def timed_sweep(
    tracer: Tracer, trace: Trace, jobs: Sequence[SweepJob], unit: str
) -> Tuple[float, SweepOutcome, Any]:
    """``run_sweep`` plus the merge a caller needs before reading rows."""
    with tracer.span("sweep", unit=unit):
        start = time.perf_counter()
        with tracer.span("run_sweep") as span:
            outcome = run_sweep(trace, jobs)
        with tracer.span("SweepOutcome.merged"):
            merged = outcome.merged()
        seconds = time.perf_counter() - start
    if span is not None:
        span["jobs"] = _job_records(outcome, len(trace))
    return seconds, outcome, merged


def reference_check(tracer: Tracer, row: Dict[str, Any], trace: Trace) -> Optional[str]:
    """Compare one result row with the ``single`` (Dinero-style) engine.

    Accesses and misses must match; compulsory misses are not compared,
    because the LRU engines do not count them.  A mechanism never changes
    DL1 behaviour, so a mechanism row's misses plus mechanism hits must
    equal the bare DL1's misses.
    """
    config = CacheConfig(
        int(row["num_sets"]),
        int(row["associativity"]),
        int(row["block_size"]),
        ReplacementPolicy.parse(str(row["policy"])),
    )
    with tracer.span("Engine.run") as span:
        results = get_engine("single", config=config).run(trace)
    if span is not None:
        span["jobs"] = [
            {"engine": "single", "seconds": results.elapsed_seconds, "accesses": len(trace)}
        ]
    expected = results.get(config)
    got = (row["accesses"], row["misses"] + row.get("mechanism_hits", 0))
    want = (expected.accesses, expected.misses)
    if got != want:
        return f"{config.label()} differs from the single engine: {got} != {want}"
    return None


class SweepWorkload:
    """Storeless ``run_sweep`` units over every corpus trace: each trace's
    grid is swept in the parts ``grid`` lists."""

    name = ""
    setups_per_round = 1

    def __init__(
        self, seed: int, paths: Sequence[Path], work: Path, tracer: Tracer, census: bool = False
    ) -> None:
        self.seed = seed
        self.tracer = tracer
        self.units = [
            (f"{path.stem}/{label}", path, jobs)
            for path in (paths[:1] if census else paths)
            for label, jobs in self.grid(census)
        ]

    @staticmethod
    def grid(census: bool) -> List[corpus.SweepUnit]:
        raise NotImplementedError

    def setup_round(self, traces: Traces, clock: HostClock) -> Dict[str, Reading]:
        return {}

    def run_round(self, traces: Traces, clock: HostClock) -> List[Outcome]:
        """Every unit once, each read between two host probes."""
        outcomes = []
        for unit, path, jobs in self.units:
            trace = traces[path]
            try:
                seconds, outcome, merged = timed_sweep(self.tracer, trace, jobs, unit)
            except Exception as exc:  # noqa: BLE001 - a failed unit is counted, not fatal
                outcomes.append(_failure(unit, exc))
                continue
            outcomes.append(Outcome(
                unit,
                clock.reading(seconds),
                len(merged) * len(trace),
                merged.to_json(),
                _dew_counters(outcome),
            ))
        return outcomes

    def finish_round(self) -> None:
        pass

    def verify(self, traces: Traces, outputs: Dict[str, str]) -> Dict[str, str]:
        """Units whose sampled row disagrees with the single engine."""
        rng = random.Random(self.seed)
        errors = {}
        for unit, path, _ in self.units:
            if unit in outputs:
                row = rng.choice(json.loads(outputs[unit])["configurations"])
                problem = reference_check(self.tracer, row, traces[path])
                if problem:
                    errors[unit] = problem
        return errors


class DewFamily(SweepWorkload):
    name = "dew-family"
    grid = staticmethod(corpus.dew_family_units)


class EngineMix(SweepWorkload):
    name = "engine-mix"
    grid = staticmethod(corpus.engine_mix_units)


class ServedExplore:
    """A closed-loop client against one in-process daemon with serve defaults.

    Each set-up starts a daemon over a fresh service directory, so every
    replay of the request stream meets the same empty store and queue.

    The stream is 54 distinct requests and 42 coalesced repeats: 96 units.
    p50 falls among the store-answered distinct requests, whose latency
    the daemon's 0.1 s idle poll sets: each arrives while the daemon sleeps,
    so the client's own work on them only shortens its wait for the claim.
    p90 has ten samples beyond it, all requests that simulate fresh cells.
    The repeats, a few milliseconds each, are the client path alone, but
    their p25 swung by 1.7x across five seeds, far beyond any bound, so no
    percentile is taken among them.
    """

    name = "served-explore"
    #: A run has about three rounds; two set-ups per round give each
    #: set-up item six readings.
    setups_per_round = 2

    def __init__(
        self, seed: int, paths: Sequence[Path], work: Path, tracer: Tracer, census: bool = False
    ) -> None:
        self.seed = seed
        self.paths = list(paths[:1] if census else paths)
        self.work = work
        self.tracer = tracer
        self.census = census
        self.stream = corpus.served_stream(seed, self.paths)
        self.setups = 0
        self.daemon: Optional[ServiceDaemon] = None
        self.thread: Optional[threading.Thread] = None
        self.client: Optional[ServiceClient] = None

    def setup_round(self, traces: Traces, clock: HostClock) -> Dict[str, Reading]:
        self.setups += 1
        root = self.work / f"{'census' if self.census else 'svc'}{self.setups}"
        times = {}
        with self.tracer.span("daemon_start"):
            start = time.perf_counter()
            self.daemon = ServiceDaemon(root, daemon_id="bench")
            self.thread = threading.Thread(target=self.daemon.run, name="bench-daemon", daemon=True)
            self.thread.start()
            while (transport := discover_socket(self.daemon.queue)) is None:
                if time.perf_counter() - start > REQUEST_TIMEOUT_S:
                    raise RuntimeError("the daemon never answered ping on its socket")
                time.sleep(0.001)
            transport.close()
            seconds = time.perf_counter() - start
        times["daemon_start"] = clock.reading(seconds)
        # A separate cache instance, so the daemon's hit counts cover only
        # the timed requests.
        cache = open_plane_cache(root / "tracecache")
        for path in self.paths:
            trace = traces[path]
            warm = SweepRequest(str(path), corpus.SERVED_BLOCK_SIZES, (2,)).build_jobs()
            with self.tracer.span("plane_warm", unit=path.stem):
                start = time.perf_counter()
                cache.record_fingerprint(path, trace.fingerprint())
                with self.tracer.span("TracePlaneCache.ensure"):
                    cache.ensure(trace, warm).close()
                seconds = time.perf_counter() - start
            times[f"plane_warm:{path.stem}"] = clock.reading(seconds)
        # Created only once the socket answers, and pinned to it: an
        # ``auto`` client that misses the socket polls files for good.
        self.client = ServiceClient(root, transport="socket")
        return times

    def run_round(self, traces: Traces, clock: HostClock) -> List[Outcome]:
        """The whole request stream once.

        Of a request's latency, only the daemon's execute time is CPU-bound
        work that scales with host speed; most of the rest of a distinct
        request is the daemon's idle poll.  A probe is taken before each
        request, after the client's pause, and one more at the end; a
        request's probe is the mean of the one before it and the next.
        """
        assert self.client is not None and self.daemon is not None
        client, tracer = self.client, self.tracer
        outcomes = []
        probes = []
        answered: List[Tuple[Outcome, str]] = []
        parses_before = decode_count()
        with tracer.span("served_round") as round_span:
            for index, (kind, request) in enumerate(self.stream):
                unit = f"{index:03d}"
                if kind != "repeat":
                    time.sleep(THINK_S)
                probes.append(probe_seconds())
                try:
                    with tracer.span("request", unit=unit, kind=kind) as span:
                        start = time.perf_counter()
                        with tracer.span("ServiceClient.submit"):
                            submitted = client.submit(request)
                        with tracer.span("ServiceClient.wait"):
                            record = client.wait(submitted["job_id"], timeout=REQUEST_TIMEOUT_S)
                        if record.state != "done":
                            raise RuntimeError(f"job ended {record.state}: {record.error}")
                        with tracer.span("ServiceClient.result_frame"):
                            frame = client.result_frame(record.id)
                        with tracer.span("pareto_front_frame"):
                            pareto_front_frame(frame)
                        seconds = time.perf_counter() - start
                except Exception as exc:  # noqa: BLE001 - a failed request is counted
                    outcomes.append(_failure(unit, exc))
                    continue
                if span is not None:
                    span.update(
                        deduped=bool(submitted["deduped"]),
                        queue_wait_s=(record.started_at or 0.0) - record.submitted_at,
                        execute_s=record.execute_seconds,
                        phases=record.extra.get("phases", {}),
                    )
                accesses = len(traces[Path(request.trace_path)])
                # A coalesced request's record is the finished job's, whose
                # execute time an earlier request waited for.
                execute = 0.0 if submitted["deduped"] else record.execute_seconds
                outcomes.append(Outcome(unit, Reading(seconds, 0.0, execute), len(frame) * accesses))
                answered.append((outcomes[-1], record.id))
            time.sleep(THINK_S)
            probes.append(probe_seconds())
        if round_span is not None:
            round_span.update(
                requests=len(self.stream),
                text_parses=decode_count() - parses_before,
                store=self.daemon.store.stats(),
                planes=self.daemon.trace_cache.stats(),
            )
        for index, outcome in enumerate(outcomes):
            if outcome.reading is not None:
                outcome.reading.probe = (probes[index] + probes[index + 1]) / 2
        # The payloads to check are fetched once every timed request is
        # done, so no untimed call sits between two timed ones.
        payloads: Dict[str, str] = {}
        for outcome, job_id in answered:
            try:
                if job_id not in payloads:
                    payloads[job_id] = client.result_text(job_id)
                outcome.output = payloads[job_id]
            except Exception as exc:  # noqa: BLE001 - a failed fetch is counted
                outcome.error = f"{type(exc).__name__}: {exc}"
        return outcomes

    def finish_round(self) -> None:
        client, self.client = self.client, None
        if client is not None:
            client.close()
        if self.daemon is not None:
            self.daemon.stop()
        thread, self.thread = self.thread, None
        if thread is not None:
            thread.join(timeout=REQUEST_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("the daemon thread did not stop")

    def verify(self, traces: Traces, outputs: Dict[str, str]) -> Dict[str, str]:
        """Requests whose served payload differs from a direct ``run_sweep``
        of the same request, or, for each trace's first request, whose
        sampled row disagrees with the single engine."""
        rng = random.Random(self.seed)
        references: Dict[SweepRequest, str] = {}
        errors = {}
        for index, (_, request) in enumerate(self.stream):
            unit = f"{index:03d}"
            trace = traces[Path(request.trace_path)]
            if request not in references:
                first_of_trace = all(r.trace_path != request.trace_path for r in references)
                _, _, merged = timed_sweep(self.tracer, trace, request.build_jobs(), unit)
                references[request] = merged.to_json()
                problem = first_of_trace and reference_check(
                    self.tracer, rng.choice(merged.as_rows()), trace
                )
                if problem:
                    errors[unit] = problem
            output = outputs.get(unit)
            if output is not None and output != references[request]:
                errors[unit] = "served payload differs from a direct run_sweep"
        return errors


WORKLOADS = {cls.name: cls for cls in (DewFamily, EngineMix, ServedExplore)}


def census(
    name: str, seed: int, paths: Sequence[Path], work: Path, tracer: Tracer, traces: Traces
) -> List[Outcome]:
    """A small traced pass of every other workload, on the first trace.

    It gives the traced run a reading for each layer the workload itself
    bypasses; ``layers.py`` prefers the workload's own spans when it has any.
    """
    outcomes: List[Outcome] = []
    tracer.source = "census"
    try:
        for other, cls in WORKLOADS.items():
            if other == name:
                continue
            workload = cls(seed, paths, work, tracer, census=True)
            try:
                clock = HostClock()
                workload.setup_round(traces, clock)
                outcomes += workload.run_round(traces, clock)
            finally:
                workload.finish_round()
    finally:
        tracer.source = "workload"
    return outcomes
