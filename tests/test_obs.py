"""Tests for the unified telemetry plane: registry, spans, phase timing.

The invariants protected here: instruments are process-shared and their
snapshot rides the daemon's heartbeat, span logs carry one trace id from
the submitting client through claims, cells and terminal transitions —
across daemon deaths — and every bit of telemetry is purely observational
(results byte-identical with it on or off).
"""

from __future__ import annotations

import json

import pytest

from repro import kernels
from repro.engine import build_grid_jobs, get_engine, run_sweep
from repro.errors import ServiceError
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    metrics_enabled,
    quantile_from_snapshot,
    render_exposition,
    set_metrics_enabled,
)
from repro.obs.tracing import PhaseTimer, SpanLog, new_trace_id, read_all_spans
from repro.service import ServiceClient, ServiceDaemon, SweepRequest, open_service
from repro.service.queue import STATE_DONE, STATE_RUNNING
from repro.service.socketserver import SocketTransport
from repro.store import open_store
from repro.trace.files import load_trace_file
from repro.trace.textio import write_text_trace
from repro.workloads.synthetic import WorkingSetGenerator
from walks import PYTHON_WALK, walk_under_test, walks_here


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    trace = WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 15).generate(
        1200, seed=13
    )
    write_text_trace(trace, path, fmt="csv")
    return str(path)


def _request(trace_file, **overrides):
    options = dict(
        trace_path=trace_file,
        block_sizes=(8, 16),
        associativities=(1, 2),
        max_sets=32,
        policies=("fifo", "lru"),
    )
    options.update(overrides)
    return SweepRequest(**options)


class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", help="c")
        counter.inc()
        counter.inc(3)
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.dec(2)
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(10.0)
        snap = registry.snapshot()
        assert snap["counters"]["c_total"] == 4
        assert snap["gauges"]["g"] == 3
        assert snap["histograms"]["h_seconds"]["count"] == 3
        assert snap["histograms"]["h_seconds"]["counts"] == [1, 1, 1]
        # Canonical JSON is stable (sorted keys, no whitespace surprises).
        assert registry.snapshot_json() == registry.snapshot_json()

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_disable_switch_stops_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        histogram = registry.histogram("h")
        assert metrics_enabled()
        previous = set_metrics_enabled(False)
        try:
            assert previous is True
            counter.inc()
            histogram.observe(1.0)
        finally:
            set_metrics_enabled(True)
        assert counter.value == 0
        assert histogram.snapshot()["count"] == 0
        counter.inc()
        assert counter.value == 1

    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="things").inc(2)
        registry.histogram("h_seconds", buckets=(0.5,)).observe(0.1)
        text = render_exposition(registry.snapshot())
        assert "# TYPE c_total counter" in text
        assert "c_total 2" in text
        # Histogram buckets render cumulative, with the +Inf tail and
        # _sum/_count series.
        assert 'h_seconds_bucket{le="0.5"} 1' in text
        assert 'h_seconds_bucket{le="+Inf"} 1' in text
        assert "h_seconds_count 1" in text
        assert text.endswith("\n")

    def test_quantile_from_snapshot_edges(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        assert quantile_from_snapshot(histogram.snapshot(), 0.5) is None
        for value in (0.5, 1.5, 5.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert quantile_from_snapshot(snap, 0.0) >= 0.0
        # The +Inf tail clamps to the last finite bound.
        assert quantile_from_snapshot(snap, 1.0) == 2.0


class TestPhaseTimer:
    def test_nested_phases_account_exclusively(self):
        timer = PhaseTimer()
        with timer.phase("outer"):
            with timer.phase("inner"):
                pass
        assert set(timer.times) == {"outer", "inner"}
        # Exclusive accounting: outer + inner never exceeds a single
        # wall-clock measurement of the outer block (no double counting).
        assert timer.times["outer"] >= 0.0
        assert timer.times["inner"] >= 0.0

    def test_repeated_phases_accumulate(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("p"):
                pass
        timer.add("p", 1.0)
        assert timer.times["p"] >= 1.0
        assert timer.total() == sum(timer.times.values())
        assert timer.as_dict()["p"] == round(timer.times["p"], 6)


class TestSpanLog:
    def test_emit_and_read_roundtrip(self, tmp_path):
        log = SpanLog(tmp_path / "telemetry", name="spans-t", source="t")
        trace_id = new_trace_id()
        log.emit("job_claimed", trace_id=trace_id, job_id="abc", attempt=1)
        log.emit("cell", trace_id=trace_id, index=0, cached=False, skipme=None)
        spans = log.read_spans()
        assert [span["name"] for span in spans] == ["job_claimed", "cell"]
        assert all(span["trace_id"] == trace_id for span in spans)
        assert all(span["source"] == "t" for span in spans)
        assert all(span["schema"] == 1 for span in spans)
        assert "skipme" not in spans[1]
        assert log.emitted == 2 and log.dropped == 0

    def test_rotation_keeps_one_generation(self, tmp_path):
        log = SpanLog(tmp_path / "telemetry", name="spans-r", max_bytes=4096)
        for index in range(200):
            log.emit("cell", trace_id="x" * 32, index=index, pad="p" * 64)
        assert log.rotated_path.is_file()
        assert log.path.stat().st_size <= log.max_bytes
        spans = log.read_spans(include_rotated=True)
        # Rotation keeps exactly one previous generation; the tail of the
        # stream is always intact and ordered.
        indices = [span["index"] for span in spans]
        assert indices == sorted(indices)
        assert indices[-1] == 199
        assert read_all_spans(tmp_path / "telemetry")[-1]["index"] == 199

    def test_emit_never_raises(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        log = SpanLog(blocker / "telemetry", name="spans")
        log.emit("cell", index=0)
        assert log.dropped == 1 and log.emitted == 0


class TestTraceIdPropagation:
    def test_trace_id_rides_record_and_spans(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        response = client.submit(_request(trace_file))
        trace_id = response["trace_id"]
        assert len(trace_id) == 32
        record = client.queue.find(response["job_id"])
        assert record.request["trace_id"] == trace_id
        # A duplicate submission coalesces onto the original trace.
        duplicate = client.submit(_request(trace_file))
        assert duplicate["deduped"] is True
        assert duplicate["trace_id"] == trace_id

        daemon = ServiceDaemon(root, daemon_id="obs1", socket=False)
        daemon.run(drain=True)
        spans = daemon.span_log.read_spans()
        names = [span["name"] for span in spans]
        assert names[0] == "job_claimed"
        assert names[-1] == "job_done"
        cells = [span for span in spans if span["name"] == "cell"]
        jobs = _request(trace_file).build_jobs()
        assert len(cells) == len(jobs)
        assert all(span["trace_id"] == trace_id for span in spans)
        # Every cell names its engine job and the accesses it replayed; a
        # fresh one carries its own simulate time and, for DEW and LRU cells,
        # the walk that ran it and the engine's work counters.
        by_label = {job.label(): job for job in jobs}
        assert sorted(span["label"] for span in cells) == sorted(by_label)
        trace = load_trace_file(trace_file)
        for span in cells:
            job = by_label[span["label"]]
            assert span["cached"] is False
            assert span["engine"] == job.engine
            assert span["accesses"] == len(trace)
            assert span["seconds"] > 0.0
            assert span["walk"] == job.build().walk
            assert span["counters"] == job.build().run(trace).counters.as_dict()
            assert span["counters"]["requests"] == len(trace)
        assert {span["engine"] for span in cells} == {"dew", "janapsatya"}
        done = spans[-1]
        assert done["job_id"] == response["job_id"]
        assert done["phases"]["simulate"] > 0.0
        # The daemon simulated in-process, so it counted its minor faults
        # and the engine overhead of its simulate phase.
        assert isinstance(done["minor_faults"], int) and done["minor_faults"] >= 0
        assert 0.0 <= done["engine_overhead_s"] <= done["phases"]["simulate"]
        # Resolving the job's trace (here a text parse) is its own phase,
        # and so is encoding the payload.
        assert done["phases"]["load"] > 0.0
        assert done["phases"]["encode"] > 0.0
        finished = client.queue.find(response["job_id"])
        assert finished.extra["phases"] == done["phases"]
        assert finished.extra["minor_faults"] == done["minor_faults"]
        # The claim span carries how long the job sat queued.
        queue_wait = round(finished.started_at - finished.submitted_at, 6)
        assert spans[0]["queue_wait_s"] == queue_wait >= 0.0

        # Another grid: its LRU cells come from the store, and its fresh
        # PLRU cells run ``single``, which keeps no counters but names its walk.
        client.submit(_request(trace_file, policies=("lru", "plru")))
        second = ServiceDaemon(root, daemon_id="obs2", socket=False)
        second.run(drain=True)
        cells = [span for span in second.span_log.read_spans() if span["name"] == "cell"]
        assert {span["engine"] for span in cells} == {"janapsatya", "single"}
        for span in cells:
            assert span["accesses"] == len(trace)
            assert span["cached"] is (span["engine"] == "janapsatya")
            assert ("seconds" in span) is (span["engine"] == "single")
            assert "counters" not in span
            assert span.get("walk") == (
                kernels.load("single").name if span["engine"] == "single" else None
            )

    def test_trace_survives_daemon_kill_and_reclaim(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        response = client.submit(_request(trace_file))
        trace_id = response["trace_id"]
        job_id = response["job_id"]

        def die_after_first_cell(record, index, job, cached):
            raise KeyboardInterrupt

        store = open_store(root / "store")
        first = ServiceDaemon(
            root, store=store, on_cell=die_after_first_cell, socket=False
        )
        with pytest.raises(KeyboardInterrupt):
            first.run(drain=True)
        assert client.queue.find(job_id).state == STATE_RUNNING

        second = ServiceDaemon(root, store=store, socket=False)
        assert second.run(drain=True) == 1
        assert client.queue.find(job_id).state == STATE_DONE

        # Both daemon lives wrote to the service's telemetry directory and
        # every span of both attempts carries the submission's trace id:
        # the job record is the durable carrier, so a crash cannot sever
        # the trace.
        spans = read_all_spans(root / "telemetry")
        claims = [span for span in spans if span["name"] == "job_claimed"]
        assert [span["attempt"] for span in claims] == [1, 2]
        assert all(span["trace_id"] == trace_id for span in spans)
        assert spans[-1]["name"] == "job_done"
        # Byte-identity across the crash is the existing service guarantee;
        # the telemetry must not have bent it.
        served = client.result_text(job_id)
        direct = (
            run_sweep(load_trace_file(trace_file), _request(trace_file).build_jobs())
            .merged()
            .to_json()
        )
        assert served == direct


class TestStickyNotes:
    def test_socket_failure_note_survives_renewals(
        self, tmp_path, trace_file, monkeypatch
    ):
        from repro.service import socketserver

        def broken_start(self):
            raise ServiceError("no sockets on this filesystem")

        monkeypatch.setattr(socketserver.ServiceSocketServer, "start", broken_start)
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        daemon = ServiceDaemon(root, daemon_id="sticky1")
        daemon.run(drain=True)
        payload = json.loads(client.queue.heartbeat_path().read_text(encoding="utf-8"))
        assert any("socket disabled" in note for note in payload["notes"])
        assert "socket disabled" in payload["note"]
        # The regression: a later renewal without a transient note used to
        # silently erase the degradation.  It must stay sticky.
        daemon._write_heartbeat()
        payload = json.loads(client.queue.heartbeat_path().read_text(encoding="utf-8"))
        assert any("socket disabled" in note for note in payload["notes"])
        assert "socket disabled" in payload["note"]
        # And surface in the stats' daemon entry.
        entry = client.stats()["daemon"]
        assert entry["daemon_id"] == "sticky1"
        assert any("socket disabled" in note for note in entry["notes"])


class TestFleetMetrics:
    def test_heartbeat_carries_registry_and_stats_merge(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        daemon = ServiceDaemon(root, daemon_id="m1", socket=False)
        before = get_registry().snapshot()["counters"].get("queue_completed_total", 0)
        daemon.run(drain=True)
        heartbeat = client.queue.heartbeat()
        assert heartbeat["daemon_id"] == "m1"
        snapshot = heartbeat["metrics"]
        assert snapshot["schema"] == 1
        assert snapshot["counters"]["queue_completed_total"] >= before + 1
        # With the daemon gone, stats serve the registry from the file.
        stats = client.stats()
        assert stats["ok"] is True
        assert stats["daemon"]["metrics"] == snapshot
        text = render_exposition(stats["daemon"]["metrics"])
        assert "# TYPE queue_completed_total counter" in text

    def test_socket_metrics_op(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        daemon = ServiceDaemon(root, daemon_id="sock1")
        import threading

        # Not drain mode: a draining daemon may finish the one job and
        # unbind its socket before the client connects.
        thread = threading.Thread(target=daemon.run, kwargs={"drain": False})
        thread.start()
        try:
            assert daemon.ready.wait(10.0), "daemon never became ready"
            transport = SocketTransport(client.queue.socket_path())
            response = transport.request({"wire": 1, "op": "metrics"})
            assert response["ok"] and response["type"] == "metrics"
            assert response["metrics"]["schema"] == 1
            assert "queue_claimed_total" in response["metrics"]["counters"]
            text = transport.request({"wire": 1, "op": "metrics", "format": "text"})
            assert "# TYPE queue_claimed_total counter" in text["exposition"]
            error = transport.request({"wire": 1, "op": "metrics", "format": "xml"})
            assert error["ok"] is False
            transport.close()
        finally:
            daemon.stop()
            thread.join(timeout=10.0)
        assert not thread.is_alive(), "daemon did not stop"


class TestSweepPhasesAndIdentity:
    def test_phases_cover_wall_clock(self, trace_file, tmp_path):
        trace = load_trace_file(trace_file)
        jobs = build_grid_jobs(
            block_sizes=[8, 16],
            associativities=[1, 2],
            set_sizes=[1, 2, 4, 8, 16, 32],
            policies=["fifo", "lru"],
        )
        outcome = run_sweep(
            trace,
            jobs,
            store=open_store(tmp_path / "store"),
            trace_cache=str(tmp_path / "planes"),
        )
        outcome.merged()
        phases = outcome.phases
        assert set(phases) >= {"simulate", "persist", "store_lookup", "merge"}
        assert all(value >= 0.0 for value in phases.values())
        covered = sum(phases.values())
        # The phases blanket everything expensive the orchestrator does;
        # what is left outside (argument prep, the final list comprehension)
        # is microseconds.  `merge` runs after elapsed_seconds was taken,
        # hence the small allowance above 1.0.
        assert covered <= outcome.elapsed_seconds * 1.10 + 0.05
        assert covered >= outcome.elapsed_seconds * 0.5

    def test_served_job_phases_cover_its_execute_time(self, tmp_path, trace_file):
        # A served job's phases (the trace load, the sweep's phases and the
        # payload encode) blanket its execute time, as a sweep's phases do
        # its wall clock; the daemon sums them per phase for `queue top`.
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        job_id = client.submit(_request(trace_file))["job_id"]
        daemon = ServiceDaemon(root, daemon_id="phases", socket=False)
        daemon.run(drain=True)
        record = client.queue.find(job_id)
        assert record.state == STATE_DONE
        phases = record.extra["phases"]
        assert set(phases) >= {"load", "simulate", "persist", "merge", "encode"}
        assert all(value >= 0.0 for value in phases.values())
        covered = sum(phases.values())
        # Every phase runs inside the execute time (6-digit rounding aside);
        # what is left outside (decoding the request, building its jobs) is
        # a small share.
        assert covered <= record.execute_seconds + 1e-5
        assert covered >= record.execute_seconds * 0.5
        assert daemon.heartbeat()["phase_seconds"] == phases

    def test_on_result_hook_time_is_the_progress_phase(
        self, trace_file, tmp_path, monkeypatch
    ):
        import time

        from repro.obs import tracing

        class Clock:
            """The phase timer's clock, which the hook moves on an hour."""

            skew = 0.0

            def perf_counter(self):
                return time.perf_counter() + self.skew

            def __getattr__(self, name):
                return getattr(time, name)

        clock = Clock()
        monkeypatch.setattr(tracing, "time", clock)
        trace = load_trace_file(trace_file)
        jobs = build_grid_jobs([8, 16], [1, 2], [1, 2, 4], policies=["fifo", "lru"])
        store = open_store(tmp_path / "store")
        run_sweep(trace, jobs[:2], store=store)
        calls = []

        def slow_hook(index, job, results, cached):
            calls.append(cached)
            clock.skew += 3600.0

        phases = run_sweep(trace, jobs, store=store, on_result=slow_hook).phases
        assert sorted(calls) == [False] * (len(jobs) - 2) + [True, True]
        assert phases["progress"] >= 3600.0 * len(jobs)
        assert phases["store_lookup"] < 3600.0
        assert phases["persist"] < 3600.0

    def test_minor_faults_counted_only_when_simulating_in_process(self, trace_file):
        trace = load_trace_file(trace_file)
        jobs = build_grid_jobs([8, 16], [2], [1, 2, 4], policies=["fifo", "lru"])
        serial = run_sweep(trace, jobs)
        assert isinstance(serial.minor_faults, int) and serial.minor_faults >= 0
        # Worker processes take their own faults, which this process does
        # not see.
        assert run_sweep(trace, jobs, workers=2).minor_faults is None

    def test_engine_overhead_is_simulate_outside_the_jobs(self, trace_file, tmp_path):
        trace = load_trace_file(trace_file)
        jobs = build_grid_jobs([8, 16], [1, 2], [1, 2, 4, 8], policies=["fifo", "lru", "plru"])
        store = open_store(tmp_path / "store")
        run_sweep(trace, jobs[:3], store=store)
        for outcome in (run_sweep(trace, jobs), run_sweep(trace, jobs, store=store)):
            overhead = outcome.engine_overhead_seconds
            simulate = outcome.phases["simulate"]
            job_seconds = sum(outcome.results[index].elapsed_seconds for index in outcome.executed)
            assert 0.0 <= overhead <= simulate
            assert overhead == pytest.approx(simulate - job_seconds, abs=1e-12)
        # Worker processes time their own engines, outside this process.
        assert run_sweep(trace, jobs, workers=2).engine_overhead_seconds is None

    def test_results_byte_identical_with_metrics_disabled(self, trace_file):
        trace = load_trace_file(trace_file)
        jobs = build_grid_jobs(
            block_sizes=[8, 16],
            associativities=[1, 2],
            set_sizes=[1, 2, 4, 8, 16, 32],
            policies=["fifo", "lru"],
        )
        enabled = run_sweep(trace, jobs).merged().to_json()
        set_metrics_enabled(False)
        try:
            disabled = run_sweep(trace, jobs).merged().to_json()
        finally:
            set_metrics_enabled(True)
        assert enabled == disabled

    def test_claim_latency_histogram_observed(self, tmp_path):
        queue = open_service(tmp_path)
        before = (
            get_registry()
            .snapshot()["histograms"]
            .get("queue_claim_latency_seconds", {"count": 0})["count"]
        )
        queue.submit("a" * 64, {})
        assert queue.claim(daemon_id="d1") is not None
        after = get_registry().snapshot()["histograms"][
            "queue_claim_latency_seconds"
        ]["count"]
        assert after == before + 1


class TestCliSurfaces:
    def test_metrics_and_queue_top_commands(self, tmp_path, trace_file, capsys):
        from repro.cli import main

        root = str(tmp_path / "svc")
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        daemon = ServiceDaemon(root, daemon_id="cli1", socket=False)
        daemon.run(drain=True)

        assert main(["metrics", root]) == 0
        text = capsys.readouterr().out
        assert "# TYPE queue_completed_total counter" in text

        assert main(["metrics", root, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["daemon_id"] == "cli1"
        assert payload["metrics"]["counters"]["queue_completed_total"] >= 1

        assert main(["queue", "top", root]) == 0
        top = capsys.readouterr().out
        assert "daemon cli1: 1 done" in top and "jobs/s" in top
        # The finished job's phases, the payload encode among them.
        [phases] = [line for line in top.splitlines() if line.startswith("job phases: ")]
        assert "simulate" in phases and "encode" in phases

        assert main(["queue", "stats", root]) == 0
        stats_text = capsys.readouterr().out
        assert "daemon: cli1" in stats_text and "1 done" in stats_text

    def test_engine_profiles_cover_only_executed_jobs(self, tmp_path):
        trace = WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 15).generate(1500, seed=3)
        jobs = build_grid_jobs([8, 16], [1, 2], (1, 2, 4, 8), policies=("fifo", "lru"))
        store = tmp_path / "store"
        run_sweep(trace, [job for job in jobs if job.engine == "janapsatya"], store=store)
        outcome = run_sweep(trace, jobs, store=store)

        dew = tuple(index for index, job in enumerate(jobs) if job.engine == "dew")
        assert outcome.executed == dew and outcome.executed_jobs == len(dew)
        [profile] = outcome.engine_profiles()
        assert (profile.engine, profile.jobs) == ("dew", len(dew))
        results = [outcome.results[index] for index in dew]
        requests = sum(r.counters.requests for r in results)
        assert requests == len(trace) * len(dew)
        assert profile.seconds == sum(r.elapsed_seconds for r in results)
        assert profile.node_evals_per_access == (
            sum(r.counters.node_evaluations for r in results) / requests
        )
        assert profile.tag_comparisons_per_access == (
            sum(r.counters.tag_comparisons for r in results) / requests
        )
        assert profile.accesses_per_s > 0 and profile.ns_per_node_eval > 0
        # Both DEW jobs (B 8 and B 16) emit as many rows, each carrying the
        # trace's distinct blocks at its block size.
        assert sorted(dict(jobs[index].options)["block_size"] for index in dew) == [8, 16]
        assert profile.first_touches_per_access == pytest.approx(
            (trace.unique_blocks(8) + trace.unique_blocks(16)) / (2 * len(trace))
        )

        warm = run_sweep(trace, jobs, store=store)
        assert warm.executed == () and warm.engine_profiles() == []

    def test_lru_frames_carry_the_engine_counters(self, trace_file, capsys):
        from repro.cli import main
        from repro.lru.janapsatya import JanapsatyaCounters

        trace = WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 15).generate(1500, seed=3)
        engine = get_engine("janapsatya", block_size=16, associativities=(1, 2), set_sizes=(1, 2, 4))
        frame = engine.run(trace)
        assert isinstance(frame.counters, JanapsatyaCounters)
        assert frame.counters is engine.counters
        assert frame.counters.requests == len(trace)
        assert frame.counters.node_evaluations > frame.counters.requests

        # The profile's ratios are the executed LRU jobs' counters over the
        # accesses they replayed.
        jobs = build_grid_jobs([8, 16], [1, 2], (1, 2, 4, 8), policies=("lru",))
        outcome = run_sweep(trace, jobs)
        [profile] = outcome.engine_profiles()
        counters = [r.counters for r in outcome.results]
        reference = [job.build().run(trace).counters for job in jobs]
        assert counters == reference
        requests = sum(c.requests for c in counters)
        assert requests == len(trace) * len(jobs)
        assert profile.node_evals_per_access == (
            sum(c.node_evaluations for c in counters) / requests
        )
        assert profile.tag_comparisons_per_access == (
            sum(c.tag_comparisons for c in counters) / requests
        )
        assert profile.mru_stops_per_access == sum(c.mru_stops for c in counters) / requests
        assert profile.ns_per_node_eval > 0
        assert profile.walk == jobs[0].build().walk

        argv = ["sweep", trace_file, "--block-sizes", "8", "--associativities", "1,2",
                "--max-sets", "16", "--policies", "lru", "--profile"]
        assert main(argv) == 0
        [line] = [line for line in capsys.readouterr().err.splitlines()
                  if line.split()[:1] == ["janapsatya"]]
        ran = get_engine(
            "janapsatya", block_size=8, associativities=(1, 2), set_sizes=(1, 2, 4, 8, 16)
        ).run(load_trace_file(trace_file)).counters
        assert f"{ran.node_evaluations / ran.requests:.2f} node evals/access" in line
        assert f"{ran.tag_comparisons / ran.requests:.2f} tag comparisons/access" in line
        assert f"{ran.mru_stops / ran.requests:.2f} MRU stops/access" in line
        assert "ns/node eval" in line

    def test_sweep_profile_flag(self, trace_file, tmp_path, capsys):
        from repro.cli import main

        for walk in walks_here():
            argv = [
                "sweep",
                trace_file,
                "--block-sizes",
                "8,16",
                "--associativities",
                "1,2",
                "--max-sets",
                "32",
                "--policies",
                "fifo,lru",
                "--store",
                str(tmp_path / walk / "store"),
                "--profile",
            ]
            with walk_under_test(walk):
                assert main(argv) == 0
            err = capsys.readouterr().err
            assert "profile (exclusive seconds per phase):" in err
            assert "simulate" in err
            assert "covered" in err
            faults = [line.split() for line in err.splitlines() if "minor faults" in line]
            assert len(faults) == 1 and faults[0][-2:] == ["while", "simulating"]
            overhead = [line.split() for line in err.splitlines() if "engine overhead" in line]
            assert len(overhead) == 1 and float(overhead[0][2].rstrip("s")) >= 0.0
            # The text parse happens before run_sweep and still shows up.
            load = [line.split() for line in err.splitlines() if line.split()[:1] == ["load"]]
            assert len(load) == 1 and float(load[0][1].rstrip("s")) > 0.0

            # One line per engine that simulated: two DEW jobs (B8/A2, B16/A2)
            # and two LRU jobs; both add their work ratios, LRU its MRU stops.
            engines = {line.split()[0]: line for line in err.splitlines()
                       if line.split()[:1] in (["dew"], ["janapsatya"])}
            assert set(engines) == {"dew", "janapsatya"}
            assert "2 job(s)" in engines["dew"] and "2 job(s)" in engines["janapsatya"]
            assert "accesses/s per job" in engines["janapsatya"]
            # Every FIFO and LRU row counts the trace's first touches.
            assert "first touches/access" in engines["dew"]
            assert "first touches/access" in engines["janapsatya"]
            for ratio in ("node evals/access", "ns/node eval", "tag comparisons/access"):
                assert ratio in engines["dew"]
                assert ratio in engines["janapsatya"]
            assert "MRU stops/access" in engines["janapsatya"]
            assert "MRU stops/access" not in engines["dew"]
            # ... and ends with the walk its jobs ran.
            expected = "walk=kernel" if walk == "kernel" else f"walk={PYTHON_WALK.name}"
            assert engines["dew"].endswith(expected)
            assert engines["janapsatya"].endswith(expected)

            # A store-warm rerun executes nothing, so no engine line appears.
            assert main(argv) == 0
            warm = capsys.readouterr().err
            assert "0 executed" in warm
            assert not [line for line in warm.splitlines()
                        if line.split()[:1] in (["dew"], ["janapsatya"])]

    def test_sweep_profile_mechanism_lines(self, trace_file, capsys):
        from repro.cli import main

        grid = [
            "sweep", trace_file, "--block-sizes", "16", "--associativities", "1,2",
            "--max-sets", "16", "--policies", "fifo",
            "--mechanisms", "victim-cache,miss-cache,stream-buffer",
            "--mechanism-entries", "16,2",
        ]
        assert main([*grid, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["configurations"]
        for walk in walks_here():
            with walk_under_test(walk):
                assert main([*grid, "--profile"]) == 0
            err = capsys.readouterr().err.splitlines()
            # The wall runs from the trace load to the end of the merge, so
            # it holds every phase the profile lists.
            [covered] = [line.split() for line in err if line.split()[:1] == ["covered"]]
            assert float(covered[1].rstrip("s")) <= float(covered[3].rstrip("s"))
            for mechanism in ("victim-cache", "miss-cache", "stream-buffer"):
                [line] = [line for line in err if line.split()[:1] == [mechanism]]
                # One job per DL1 (5 set counts x 2 associativities) serves
                # both entry counts.
                assert "10 job(s)" in line
                # Per count, the rows' hits over hits plus surviving misses.
                rates = []
                for count in (2, 16):
                    mine = [row for row in rows if row.get("mechanism") == mechanism
                            and row["mechanism_entries"] == count]
                    hits = sum(row["mechanism_hits"] for row in mine)
                    lookups = hits + sum(row["misses"] for row in mine)
                    assert 0 < hits < lookups
                    rates.append(f"{count}:{hits / lookups:.3f}")
                assert f", hits/lookup {' '.join(rates)}, " in line
                # kernel only when the cache walk and the probes both are.
                expected = "walk=kernel" if walk == "kernel" else f"walk={PYTHON_WALK.name}"
                assert line.endswith(expected)
            # Bare engines carry no hit rate.
            assert not [line for line in err if line.split()[:1] == ["dew"]
                        and "hits/lookup" in line]
