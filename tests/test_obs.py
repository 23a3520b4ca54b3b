"""Tests for the unified telemetry plane: registry, spans, phase timing.

The invariants protected here: instruments are process-shared and
mergeable across a fleet (heartbeat snapshots sum bucket-wise), span logs
carry one trace id from the submitting client through claims, cells and
terminal transitions — across daemon deaths — and every bit of telemetry
is purely observational (results byte-identical with it on or off).
"""

from __future__ import annotations

import json

import pytest

from repro.engine import build_grid_jobs, run_sweep
from repro.errors import ServiceError
from repro.obs.metrics import (
    MetricsRegistry,
    component_snapshot,
    get_registry,
    merge_snapshots,
    metrics_enabled,
    quantile_from_snapshot,
    render_exposition,
    set_metrics_enabled,
)
from repro.obs.tracing import PhaseTimer, SpanLog, new_trace_id, read_all_spans
from repro.service import ServiceClient, ServiceDaemon, SweepRequest, open_service
from repro.service.api import fleet_metrics
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

    def test_merge_snapshots_sums_counters_and_buckets(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for registry, count in ((a, 2), (b, 3)):
            registry.counter("c_total").inc(count)
            histogram = registry.histogram("h", buckets=(1.0, 10.0))
            for _ in range(count):
                histogram.observe(0.5)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c_total"] == 5
        assert merged["histograms"]["h"]["count"] == 5
        assert merged["histograms"]["h"]["counts"][0] == 5
        # Quantiles work on merged snapshots — that is what fleet p50/p95
        # in `queue top` is computed from.
        assert quantile_from_snapshot(merged["histograms"]["h"], 0.5) <= 1.0

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

    def test_component_snapshot_contract(self):
        snap = component_snapshot("thing", {"hits": 3, "misses": 1, "puts": 7})
        assert snap["schema"] == 1
        assert snap["component"] == "thing"
        assert snap["counters"] == {"hits": 3, "misses": 1, "puts": 7}
        assert snap["hit_rate"] == 0.75

    def test_store_and_plane_cache_expose_snapshot(self, tmp_path):
        store = open_store(tmp_path / "store")
        snap = store.snapshot()
        assert snap["component"] == "result_store"
        assert set(snap["counters"]) >= {"hits", "misses", "puts"}
        from repro.trace.planecache import TracePlaneCache

        cache = TracePlaneCache(tmp_path / "planes")
        snap = cache.snapshot()
        assert snap["component"] == "trace_plane_cache"
        assert set(snap["counters"]) >= {"hits", "misses", "sidecar_hits"}


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
        assert len(cells) == len(_request(trace_file).build_jobs())
        assert all(span["trace_id"] == trace_id for span in spans)
        done = spans[-1]
        assert done["job_id"] == response["job_id"]
        assert done["phases"]["simulate"] > 0.0
        # Resolving the job's trace (here a text parse) is its own phase.
        assert done["phases"]["load"] > 0.0
        finished = client.queue.find(response["job_id"])
        assert finished.extra["phases"]["load"] == done["phases"]["load"]

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
        payload = json.loads(
            client.queue.heartbeat_path("sticky1").read_text(encoding="utf-8")
        )
        assert any("socket disabled" in note for note in payload["notes"])
        assert "socket disabled" in payload["note"]
        # The regression: a later renewal without a transient note used to
        # silently erase the degradation.  It must stay sticky.
        daemon._write_heartbeat()
        payload = json.loads(
            client.queue.heartbeat_path("sticky1").read_text(encoding="utf-8")
        )
        assert any("socket disabled" in note for note in payload["notes"])
        assert "socket disabled" in payload["note"]
        # And surface in the fleet stats daemons table.
        stats = client.stats()
        entry = stats["daemons"]["sticky1"]
        assert any("socket disabled" in note for note in entry["notes"])


class TestFleetMetrics:
    def test_heartbeat_carries_registry_and_stats_merge(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        daemon = ServiceDaemon(root, daemon_id="m1", socket=False)
        before = get_registry().snapshot()["counters"].get("queue_completed_total", 0)
        daemon.run(drain=True)
        heartbeats = client.queue.daemon_heartbeats()
        snapshot = heartbeats["m1"]["metrics"]
        assert snapshot["schema"] == 1
        assert snapshot["counters"]["queue_completed_total"] >= before + 1
        stats = client.stats()
        fleet = stats["fleet_metrics"]
        assert fleet["counters"]["queue_completed_total"] >= before + 1

        response = fleet_metrics(client.queue)
        assert response["ok"] is True
        assert response["daemons"]["m1"]["source"] == "heartbeat"
        assert (
            response["fleet"]["counters"]["queue_completed_total"] >= before + 1
        )
        text = render_exposition(response["fleet"])
        assert "# TYPE queue_completed_total counter" in text

    def test_socket_metrics_op(self, tmp_path, trace_file):
        root = tmp_path / "svc"
        client = ServiceClient(root, create=True)
        client.submit(_request(trace_file))
        daemon = ServiceDaemon(root, daemon_id="sock1", poll_interval=0.01)
        import threading

        # Not drain mode: a draining daemon may finish the one job and
        # unbind its socket before the client connects.
        thread = threading.Thread(target=daemon.run, kwargs={"drain": False})
        thread.start()
        try:
            deadline = 50
            transport = None
            while transport is None and deadline:
                try:
                    transport = SocketTransport(
                        client.queue.sockets_dir() / "sock1.sock"
                    )
                except OSError:
                    deadline -= 1
                    import time

                    time.sleep(0.05)
            assert transport is not None, "daemon socket never came up"
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
        assert payload["fleet"]["counters"]["queue_completed_total"] >= 1

        assert main(["queue", "top", root]) == 0
        top = capsys.readouterr().out
        assert "fleet:" in top and "cli1" in top and "jobs/s" in top

        assert main(["queue", "stats", root]) == 0
        stats_text = capsys.readouterr().out
        assert "fleet:" in stats_text

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

        warm = run_sweep(trace, jobs, store=store)
        assert warm.executed == () and warm.engine_profiles() == []

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
            # The text parse happens before run_sweep and still shows up.
            load = [line.split() for line in err.splitlines() if line.split()[:1] == ["load"]]
            assert len(load) == 1 and float(load[0][1].rstrip("s")) > 0.0

            # One line per engine that simulated: two DEW jobs (B8/A2, B16/A2)
            # and two LRU jobs; DEW adds its work ratios.
            engines = {line.split()[0]: line for line in err.splitlines()
                       if line.split()[:1] in (["dew"], ["janapsatya"])}
            assert set(engines) == {"dew", "janapsatya"}
            assert "2 job(s)" in engines["dew"] and "2 job(s)" in engines["janapsatya"]
            assert "accesses/s per job" in engines["janapsatya"]
            assert "node evals/access" not in engines["janapsatya"]
            for ratio in ("node evals/access", "ns/node eval", "tag comparisons/access"):
                assert ratio in engines["dew"]
            # ... and ends with the walk its jobs ran.
            expected = "walk=kernel" if walk == "kernel" else f"walk={PYTHON_WALK.name}"
            assert engines["dew"].endswith(expected)
            assert "walk=" not in engines["janapsatya"]

            # A store-warm rerun executes nothing, so no engine line appears.
            assert main(argv) == 0
            warm = capsys.readouterr().err
            assert "0 executed" in warm
            assert not [line for line in warm.splitlines()
                        if line.split()[:1] in (["dew"], ["janapsatya"])]
