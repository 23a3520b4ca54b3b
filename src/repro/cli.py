"""Command-line interface.

Installed as ``repro-dew``.  Subcommands:

``generate``
    Write a synthetic (Mediabench-style) trace to a ``.din`` or CSV file.
``dew``
    Run DEW on a trace file for one (block size, associativity) family and
    print per-configuration miss rates.
``baseline``
    Run the Dinero-style one-config-at-a-time baseline over the same family.
``sweep``
    Fan a (block size x associativity x policy) grid out over the engine
    registry, optionally across ``--workers`` processes, and print the
    deterministically merged per-configuration results.  With ``--store DIR``
    the sweep is incremental: cells already simulated for this trace are
    loaded from the content-addressed result store, only missing cells are
    executed (``--force`` re-runs everything), and the printed output is
    byte-identical to a cold run.  ``--format json`` emits machine-readable
    output with a stable sort order.
``verify``
    Cross-check DEW against the reference simulator on a trace.
``explore``
    Design-space exploration over swept results — ``explore pareto`` (the
    non-dominated configurations over chosen metrics) and ``explore tune``
    (constraint-driven selection) — fed from either a ``sweep --format
    json`` payload or a result store directory.
``store``
    Manage a persistent result store: ``store ls`` (inventory), ``store
    verify`` (re-hash every artifact, report corrupt/mis-addressed files),
    ``store gc`` (collect garbage, optionally keeping only listed trace
    fingerprints) and ``store export`` / ``store import`` (manifest-based,
    rsync-able cross-machine sharing).
``serve``
    Run the simulation service daemon over a service directory: drains the
    durable job queue through the fused sweep executor, coalescing
    duplicate and already-stored work.  One daemon serves a directory (a
    second ``serve`` is refused while one runs); it serves a Unix-domain
    socket unless ``--no-socket``.
``submit`` / ``status`` / ``result`` / ``cancel``
    Client commands against a service directory.  ``status`` and
    ``result`` read the service's files; ``submit``, ``cancel`` and
    ``queue stats`` go through the live daemon's socket when one answers
    and act on the files otherwise (``--transport`` pins either path).
    ``submit`` enqueues a sweep grid (idempotent per canonical identity;
    ``--wait`` blocks to completion), ``result`` prints a completed job's
    payload — byte-identical to a direct ``sweep --format json`` run.
``queue``
    Inspect and maintain a service: ``queue ls`` (jobs per state),
    ``queue stats`` (counts, dedup ratio, the daemon's heartbeat) and
    ``queue gc`` (evict finished job records past a retention window).
``trace``
    Trace utilities — ``trace cache ls/verify/gc/warm`` manage the
    fingerprint-addressed trace cache (``--trace-cache`` on ``sweep``,
    ``serve`` and ``submit``): each trace is text-parsed once, ever; warm
    consumers mmap-attach its columns read-only.
``reproduce``
    Regenerate the paper's tables and figures (scaled-down traces).

Trace files may be Dinero ``.din``, CSV or hex lists, optionally
gzip-compressed (``.din.gz``, ``.csv.gz``); unreadable inputs produce a
one-line error instead of a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro._version import __version__
from repro.errors import (
    ConfigurationError,
    ExplorationError,
    ReproError,
    ServiceError,
    StoreError,
)
from repro.service import DEFAULT_JOB_RETAIN_SECONDS, JOB_STATES
from repro.store import DEFAULT_MANIFEST_NAME
from repro.workloads import PAPER_REQUEST_COUNTS

if TYPE_CHECKING:
    from repro.core.results import ResultsFrame

# Only light modules are imported above: building the parser, which every
# command (``--help`` and ``--version`` too) does, imports no numpy.  Each
# command imports what it runs.


def _load_trace(path: str, cache=None):
    """Trace loading is shared with the service daemon; see repro.trace.files."""
    from repro.trace.files import load_trace_file

    return load_trace_file(path, cache=cache)


def _set_sizes(max_sets: int) -> List[int]:
    """The power-of-two set-size ladder, shared with the service requests."""
    from repro.core.config import doubling_set_sizes

    return doubling_set_sizes(max_sets)


def _client(service_dir: str, **options):
    """A :class:`~repro.service.api.ServiceClient`, closed on leaving the block."""
    from repro.service.api import ServiceClient

    return contextlib.closing(ServiceClient(service_dir, **options))


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.trace.din import write_din
    from repro.trace.textio import write_text_trace
    from repro.workloads.mediabench import mediabench_trace

    trace = mediabench_trace(args.app, args.requests, seed=args.seed)
    if args.output.endswith(".din"):
        write_din(trace, args.output)
    else:
        write_text_trace(trace, args.output, fmt="csv")
    print(f"wrote {len(trace):,} accesses modelling {args.app} to {args.output}")
    return 0


def _cmd_dew(args: argparse.Namespace) -> int:
    from repro.engine.base import get_engine

    trace = _load_trace(args.trace)
    engine = get_engine(
        "dew",
        block_size=args.block_size,
        associativity=args.associativity,
        set_sizes=_set_sizes(args.max_sets),
    )
    results = engine.run(trace)
    print(f"DEW: {len(trace):,} requests, {len(results)} configurations, "
          f"{results.elapsed_seconds:.3f}s, {engine.counters.tag_comparisons:,} tag comparisons")
    for result in results:
        print(
            f"  S={result.config.num_sets:<6} A={result.config.associativity:<3} "
            f"B={result.config.block_size:<3} size={result.config.total_size:<9,} "
            f"misses={result.misses:<10,} miss_rate={result.miss_rate:.4f}"
        )
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from repro.cache.dinero import DineroStyleRunner
    from repro.core.config import CacheConfig
    from repro.types import ReplacementPolicy

    trace = _load_trace(args.trace)
    configs = [
        CacheConfig(num_sets, assoc, args.block_size, ReplacementPolicy.FIFO)
        for assoc in sorted({1, args.associativity})
        for num_sets in _set_sizes(args.max_sets)
    ]
    runner = DineroStyleRunner(configs)
    outcome = runner.run(trace)
    print(f"baseline: {outcome.passes} passes over {len(trace):,} requests, "
          f"{outcome.elapsed_seconds:.3f}s, {outcome.total_tag_comparisons:,} tag comparisons")
    for config, stats in sorted(outcome.stats.items()):
        print(
            f"  S={config.num_sets:<6} A={config.associativity:<3} B={config.block_size:<3} "
            f"misses={stats.misses:<10,} miss_rate={stats.miss_rate:.4f}"
        )
    return 0


def _parse_int_list(text: str, what: str) -> List[int]:
    try:
        values = [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ConfigurationError(
            f"invalid {what} list: {text!r} (expected comma-separated integers)"
        ) from None
    if not values:
        raise ConfigurationError(f"empty {what} list: {text!r}")
    return values


def _print_result_rows(merged) -> None:
    """The per-configuration text lines shared by ``sweep`` and ``result``."""
    for result in merged:
        config = result.config
        line = (
            f"  S={config.num_sets:<6} A={config.associativity:<3} B={config.block_size:<3} "
            f"policy={config.policy.value:<6} misses={result.misses:<10,} "
            f"miss_rate={result.miss_rate:.4f}"
        )
        if result.mechanism != "none":
            line += (
                f" +{result.mechanism}x{result.mechanism_entries}"
                f" (mech_hits={result.mechanism_hits:,})"
            )
        print(line)


def _sweep_trace_cache(args: argparse.Namespace):
    """The plane cache a command was asked to use, or ``None``.

    Cache-open failures degrade to no cache with a stderr note — the cache
    accelerates, it never gates.
    """
    from repro.trace.planecache import coerce_plane_cache

    target = getattr(args, "trace_cache", None)
    if not target:
        return None
    try:
        return coerce_plane_cache(target)
    except (StoreError, OSError) as exc:
        print(f"trace cache disabled: {exc}", file=sys.stderr)
        return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine.sweep import build_grid_jobs, build_mechanism_grid_jobs, run_sweep
    from repro.store.resultstore import open_store
    from repro.trace.files import trace_name_for_path
    from repro.trace.planecache import CachedPlane

    jobs = build_grid_jobs(
        block_sizes=_parse_int_list(args.block_sizes, "block size"),
        associativities=_parse_int_list(args.associativities, "associativity"),
        set_sizes=_set_sizes(args.max_sets),
        policies=[token for token in args.policies.split(",") if token.strip()],
        seed=args.seed,
    )
    mechanisms = [token.strip() for token in args.mechanisms.split(",") if token.strip()]
    if mechanisms:
        # Mechanism cells are additive: the base grid still answers
        # "bigger L1", the mechanism cells answer "VC/MC/SB instead".
        jobs += build_mechanism_grid_jobs(
            mechanisms,
            block_sizes=_parse_int_list(args.block_sizes, "block size"),
            associativities=_parse_int_list(args.associativities, "associativity"),
            set_sizes=_set_sizes(args.max_sets),
            entry_counts=_parse_int_list(args.mechanism_entries, "mechanism entry count"),
            policies=[token for token in args.policies.split(",") if token.strip()],
            seed=args.seed,
        )
    store = open_store(args.store) if args.store else None
    cache = _sweep_trace_cache(args)
    # Warm path: a fingerprint sidecar plus a cached artifact for that
    # fingerprint means the sweep never opens the trace file at all — the
    # mmap-attached trace is swept and only walked pages are read.
    load_start = time.perf_counter()
    sweep_input = None
    if cache is not None:
        known = cache.cached_fingerprint(args.trace)
        if known is not None:
            sweep_input = cache.get(known, trace_name=trace_name_for_path(args.trace))
    if sweep_input is None:
        sweep_input = _load_trace(args.trace, cache=cache)
    load_seconds = time.perf_counter() - load_start
    requests = len(sweep_input)
    try:
        outcome = run_sweep(
            sweep_input,
            jobs,
            workers=args.workers,
            store=store,
            force=args.force,
            trace_cache=cache,
        )
    finally:
        if isinstance(sweep_input, CachedPlane):
            sweep_input.close()
    merged = outcome.merged()
    wall_seconds = time.perf_counter() - load_start
    # Result lines are deterministic (byte-identical for any worker count and
    # for cold vs store-warmed runs); timing and store bookkeeping go to
    # stderr so stdout stays comparable.
    if args.format == "json":
        print(merged.to_json())
    else:
        print(f"sweep: {requests:,} requests, {len(jobs)} jobs, {len(merged)} configurations")
        _print_result_rows(merged)
    if store is not None:
        print(
            f"store: {outcome.cached_jobs} job(s) from cache, "
            f"{outcome.executed_jobs} executed",
            file=sys.stderr,
        )
    print(
        f"sweep finished in {outcome.elapsed_seconds:.3f}s with {outcome.workers} worker(s)",
        file=sys.stderr,
    )
    if args.profile:
        # merged() already ran above, so the merge phase is accounted for;
        # the trace load (text parse or cache attach) precedes run_sweep.
        # The wall runs from the load to the end of the merge, so it holds
        # every phase.
        phases = dict(outcome.phases, load=load_seconds)
        covered = sum(phases.values())
        print("profile (exclusive seconds per phase):", file=sys.stderr)
        for name, seconds in sorted(phases.items(), key=lambda item: -item[1]):
            share = (seconds / covered * 100.0) if covered else 0.0
            print(f"  {name:<14} {seconds:9.4f}s  {share:5.1f}%", file=sys.stderr)
        print(
            f"  {'covered':<14} {covered:9.4f}s of {wall_seconds:.4f}s wall",
            file=sys.stderr,
        )
        faults = (
            "not counted (worker processes simulated)"
            if outcome.minor_faults is None
            else f"{outcome.minor_faults:,} while simulating"
        )
        print(f"  {'minor faults':<14} {faults}", file=sys.stderr)
        overhead = (
            "not measured (worker processes simulated)"
            if outcome.engine_overhead_seconds is None
            else f"{outcome.engine_overhead_seconds:.4f}s of simulate outside the executed "
            "jobs' own seconds (engine build, finalize, checks, shifts and loop)"
        )
        print(f"  {'engine overhead':<14} {overhead}", file=sys.stderr)
        _print_engine_profiles(outcome)
    return 0


def _print_engine_profiles(outcome) -> None:
    """Simulate time per engine over the jobs this run executed (stderr)."""
    profiles = outcome.engine_profiles()
    if not profiles:
        return
    print("simulate per engine (executed jobs only):", file=sys.stderr)
    for profile in profiles:
        line = (
            f"  {profile.engine:<14} {profile.jobs:3d} job(s) {profile.seconds:9.4f}s  "
            f"{profile.accesses_per_s:,.0f} accesses/s per job, "
            f"{profile.first_touches_per_access:.3f} first touches/access"
        )
        if profile.node_evals_per_access is not None:
            line += f", {profile.node_evals_per_access:.2f} node evals/access"
        if profile.ns_per_node_eval is not None:
            line += f", {profile.ns_per_node_eval:.0f} ns/node eval"
        if profile.tag_comparisons_per_access is not None:
            line += f", {profile.tag_comparisons_per_access:.2f} tag comparisons/access"
        if profile.mru_stops_per_access is not None:
            line += f", {profile.mru_stops_per_access:.2f} MRU stops/access"
        if profile.hits_per_lookup is not None:
            line += ", hits/lookup " + " ".join(
                f"{entries}:{rate:.3f}" for entries, rate in profile.hits_per_lookup
            )
        if profile.walk is not None:
            line += f", walk={profile.walk}"
        print(line, file=sys.stderr)


def _open_existing_store(path: str):
    """Open a store that must already exist.

    Management commands are read-only (or destructive) over an *existing*
    store; silently creating an empty store at a mistyped path and reporting
    it clean would be worse than an error.  ``store import`` is the one
    command allowed to create its destination.
    """
    from repro.store.resultstore import open_store

    if not os.path.isfile(os.path.join(path, "store.json")):
        raise StoreError(
            f"no result store at {path} "
            f"(create one with 'sweep --store {path}' or 'store import')"
        )
    return open_store(path)


def _cmd_store_ls(args: argparse.Namespace) -> int:
    from repro.store.manage import verify_store

    store = _open_existing_store(args.store_dir)
    report = verify_store(store)
    if args.format == "json":
        print(json.dumps(
            [record.as_dict(root=store.root) for record in report.records], indent=2
        ))
        return 0
    artifacts = [record for record in report.records if record.status == "ok"]
    traces = sorted({record.trace_fingerprint for record in artifacts})
    total_bytes = sum(record.size_bytes for record in artifacts)
    print(
        f"store {args.store_dir}: {len(artifacts)} artifact(s), "
        f"{len(traces)} trace(s), {total_bytes:,} bytes"
    )
    for record in report.records:
        if record.status == "ok":
            print(
                f"  {record.digest[:12]}  {record.engine:<12} "
                f"trace={record.trace_fingerprint[:12]}  rows={record.rows:<5} "
                f"{record.size_bytes:,} B"
            )
        else:
            print(f"  [{record.status}] {record.path}  ({record.detail})")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store.manage import verify_store

    report = verify_store(_open_existing_store(args.store_dir))
    print(report.summary())
    for record in report.problems:
        print(f"  [{record.status}] {record.path}: {record.detail}")
    return 0 if report.clean else 1


def _cmd_store_gc(args: argparse.Namespace) -> int:
    from repro.store.manage import gc_store

    keep = None
    if args.keep_fingerprints is not None:
        keep = [token.strip() for token in args.keep_fingerprints.split(",") if token.strip()]
    report = gc_store(_open_existing_store(args.store_dir), keep_fingerprints=keep,
                      dry_run=args.dry_run, max_bytes=args.max_bytes)
    print(report.summary())
    for record in report.removed:
        print(f"  [{record.status}] {record.path}")
    for prefix in report.unmatched_keeps:
        print(
            f"warning: keep fingerprint {prefix!r} matched no artifact",
            file=sys.stderr,
        )
    return 0


def _cmd_store_export(args: argparse.Namespace) -> int:
    from repro.store.manage import export_store

    store = _open_existing_store(args.store_dir)
    manifest = args.manifest or os.path.join(args.store_dir, DEFAULT_MANIFEST_NAME)
    payload = export_store(store, manifest)
    print(f"exported {len(payload['artifacts'])} artifact(s) to {manifest}")
    return 0


def _cmd_store_import(args: argparse.Namespace) -> int:
    from repro.store.manage import import_store
    from repro.store.resultstore import open_store

    report = import_store(open_store(args.store_dir), args.manifest)
    print(report.summary())
    return 0


def _open_existing_plane_cache(path: str):
    """Open a plane cache that must already exist (management commands)."""
    from repro.trace.planecache import open_plane_cache

    if not os.path.isfile(os.path.join(path, "planecache.json")):
        raise StoreError(
            f"no trace plane cache at {path} "
            f"(create one with 'sweep --trace-cache {path}' or 'trace cache warm')"
        )
    return open_plane_cache(path)


def _cmd_trace_cache_ls(args: argparse.Namespace) -> int:
    from repro.trace.planecache import scan_plane_cache

    cache = _open_existing_plane_cache(args.cache_dir)
    records = scan_plane_cache(cache)
    if args.format == "json":
        print(json.dumps(
            [record.as_dict(root=cache.root) for record in records], indent=2
        ))
        return 0
    planes = [record for record in records if record.status == "ok"]
    traces = sorted({record.trace_fingerprint for record in planes})
    total_bytes = sum(record.size_bytes for record in planes)
    print(
        f"trace cache {args.cache_dir}: {len(planes)} plane(s), "
        f"{len(traces)} trace(s), {total_bytes:,} bytes"
    )
    for record in records:
        if record.status == "ok":
            print(
                f"  {record.digest[:12]}  accesses={record.rows:<10,} "
                f"{record.size_bytes:,} B"
            )
        else:
            print(f"  [{record.status}] {record.path}  ({record.detail})")
    return 0


def _cmd_trace_cache_verify(args: argparse.Namespace) -> int:
    from repro.trace.planecache import verify_plane_cache

    report = verify_plane_cache(_open_existing_plane_cache(args.cache_dir))
    print(report.summary())
    for record in report.problems:
        print(f"  [{record.status}] {record.path}: {record.detail}")
    return 0 if report.clean else 1


def _cmd_trace_cache_gc(args: argparse.Namespace) -> int:
    from repro.trace.planecache import gc_plane_cache

    keep = None
    if args.keep_fingerprints is not None:
        keep = [token.strip() for token in args.keep_fingerprints.split(",") if token.strip()]
    report = gc_plane_cache(_open_existing_plane_cache(args.cache_dir),
                            keep_fingerprints=keep,
                            dry_run=args.dry_run, max_bytes=args.max_bytes)
    print(report.summary())
    for record in report.removed:
        print(f"  [{record.status}] {record.path}")
    for prefix in report.unmatched_keeps:
        print(
            f"warning: keep fingerprint {prefix!r} matched no plane",
            file=sys.stderr,
        )
    return 0


def _cmd_trace_cache_warm(args: argparse.Namespace) -> int:
    from repro.trace.planecache import open_plane_cache

    cache = open_plane_cache(args.cache_dir)
    trace = _load_trace(args.trace, cache=cache)
    cache.ensure(trace).close()
    fingerprint = trace.fingerprint()
    path = cache.path_for(fingerprint)
    verb = "already cached" if cache.stats()["puts"] == 0 else "parsed and cached"
    print(f"{verb}: trace {fingerprint[:12]} ({os.path.getsize(path):,} B) at {path}")
    return 0


def _explore_frame(args: argparse.Namespace) -> ResultsFrame:
    """The columnar result set an ``explore`` sub-command operates on.

    Sources are mutually exclusive: ``--json`` (a ``sweep --format json``
    payload), ``--store`` (every valid artifact of one trace, merged) or
    ``--service`` + ``--job`` (a completed service job's frame).
    """
    from repro.core.results import ResultsFrame
    from repro.store.manage import load_store_frame

    service = getattr(args, "service", None)
    chosen = sum(1 for source in (args.json, args.store, service) if source)
    if chosen != 1:
        raise ExplorationError(
            "explore needs exactly one of --json FILE, --store DIR or "
            "--service DIR --job ID"
        )
    if service:
        if not getattr(args, "job", None):
            raise ExplorationError("--service needs --job ID (see 'queue ls')")
        try:
            with _client(service) as client:
                return client.result_frame(args.job)
        except ServiceError as exc:
            raise ExplorationError(str(exc)) from exc
    if getattr(args, "job", None):
        raise ExplorationError("--job selects a --service job")
    if args.json:
        if args.trace:
            raise ExplorationError(
                "--trace filters a --store source; a sweep JSON already "
                "covers exactly one trace"
            )
        try:
            with open(args.json, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise ExplorationError(f"sweep JSON not found: {args.json}") from None
        except (OSError, ValueError) as exc:
            raise ExplorationError(f"could not read sweep JSON {args.json}: {exc}") from exc
        if not isinstance(payload, dict) or "configurations" not in payload:
            raise ExplorationError(
                f"{args.json} is not a sweep JSON payload (missing 'configurations')"
            )
        return ResultsFrame.from_json_payload(payload)
    return load_store_frame(_open_existing_store(args.store), args.trace)


#: Metric names the explore CLI accepts: every frame column plus the two
#: energy-model columns (computed on demand).
_ENERGY_METRICS = ("energy", "amat")


def _explore_metric_columns(frame: ResultsFrame, names: List[str]):
    from repro.explore.energy import EnergyModel

    model_estimate = None
    columns = []
    for name in names:
        if name in _ENERGY_METRICS:
            if model_estimate is None:
                model_estimate = EnergyModel().estimate_frame(frame)
            columns.append(
                model_estimate.total_energy_nj
                if name == "energy"
                else model_estimate.average_access_time_ns
            )
        else:
            columns.append(frame.metric_column(name))
    return columns


def _cmd_explore_pareto(args: argparse.Namespace) -> int:
    from repro.explore.pareto import pareto_front_frame

    frame = _explore_frame(args)
    names = [token.strip() for token in args.metrics.split(",") if token.strip()]
    if len(names) < 2:
        raise ExplorationError(f"need at least two metrics, got {args.metrics!r}")
    columns = _explore_metric_columns(frame, names)
    front = pareto_front_frame(frame, columns)
    rows = []
    for index in front.tolist():
        config = frame.config_at(index)
        label = config.label()
        mechanism = frame.mechanism_at(index)
        if mechanism != "none":
            label += f"+{mechanism}x{int(frame.mechanism_entries[index])}"
        row = {
            "config": label,
            "num_sets": config.num_sets,
            "associativity": config.associativity,
            "block_size": config.block_size,
            "policy": config.policy.value,
        }
        if mechanism != "none":
            row["mechanism"] = mechanism
            row["mechanism_entries"] = int(frame.mechanism_entries[index])
        for name, column in zip(names, columns):
            row[name] = float(column[index])
        rows.append(row)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
        return 0
    print(
        f"pareto front over ({', '.join(names)}): "
        f"{len(rows)} of {len(frame)} configurations"
    )
    for row in rows:
        metrics = "  ".join(f"{name}={row[name]:g}" for name in names)
        print(f"  {row['config']:<32} {metrics}")
    return 0


def _cmd_explore_tune(args: argparse.Namespace) -> int:
    from repro.explore.tuner import CacheTuner, TuningConstraints

    frame = _explore_frame(args)
    constraints = TuningConstraints(
        max_total_size=args.max_size,
        max_miss_rate=args.max_miss_rate,
        max_energy_nj=args.max_energy,
        max_average_access_time_ns=args.max_amat,
        min_associativity=args.min_associativity,
        max_associativity=args.max_associativity,
    )
    tuner = CacheTuner(objective=args.objective)
    outcomes = tuner.rank_frame(frame, constraints=constraints, top=max(args.top, 1))
    if not outcomes:
        raise ExplorationError("no configuration satisfies the tuning constraints")
    rows = [outcome.as_dict() for outcome in outcomes]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
        return 0
    best = rows[0]
    print(
        f"tuned {best['candidates_considered']} configurations "
        f"({best['candidates_admitted']} admitted) for minimal {args.objective}"
    )
    for rank, row in enumerate(rows, start=1):
        print(
            f"  #{rank} {row['config']:<32} {args.objective}={row['objective_value']:g} "
            f"size={row['total_size']:,} miss_rate={row['miss_rate']:.4f} "
            f"energy={row['total_energy_nj']:.1f}nJ amat={row['average_access_time_ns']:.3f}ns"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(
        args.service_dir,
        store=args.store,
        sweep_workers=args.sweep_workers,
        poll_interval=args.poll,
        socket=args.socket,
        job_retain_seconds=args.job_retain_seconds,
        trace_cache=args.trace_cache,
    )
    print(
        f"serving {args.service_dir} as {daemon.daemon_id} "
        f"(store: {daemon.store.root}, "
        f"socket {'on' if daemon.socket_enabled else 'off'}, "
        f"trace cache "
        f"{daemon.trace_cache.root if daemon.trace_cache is not None else 'off'})",
        file=sys.stderr,
    )
    try:
        finished = daemon.run(drain=args.drain, max_jobs=args.max_jobs)
    except KeyboardInterrupt:
        # A mid-job interrupt leaves that job in 'running'; the next serve
        # run re-queues it and the store-backed re-run pays only for cells
        # that were not yet persisted.
        print("interrupted; queued work resumes on the next serve", file=sys.stderr)
        return 130
    print(f"served {finished} job(s)", file=sys.stderr)
    return 0


def _submit_request(args: argparse.Namespace):
    from repro.service.api import SweepRequest

    return SweepRequest(
        trace_path=os.path.abspath(args.trace),
        block_sizes=tuple(_parse_int_list(args.block_sizes, "block size")),
        associativities=tuple(_parse_int_list(args.associativities, "associativity")),
        max_sets=args.max_sets,
        policies=tuple(token for token in args.policies.split(",") if token.strip()),
        seed=args.seed,
        mechanisms=tuple(
            token.strip() for token in args.mechanisms.split(",") if token.strip()
        ),
        mechanism_entries=tuple(
            _parse_int_list(args.mechanism_entries, "mechanism entry count")
        ),
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    with _client(
        args.service_dir,
        create=True,
        transport=args.transport,
        trace_cache=args.trace_cache,
    ) as client:
        response = client.submit(_submit_request(args), priority=args.priority)
        if args.wait:
            record = client.wait(response["job_id"], timeout=args.timeout)
            response["state"] = record.state
            if record.error:
                response["error"] = record.error
    if args.format == "json":
        print(json.dumps(response, indent=2))
    else:
        verb = "coalesced onto" if response["deduped"] else "queued as"
        print(f"{verb} job {response['job_id'][:12]} ({response['state']})")
        if response.get("error"):
            print(f"error: {response['error']}", file=sys.stderr)
    if args.wait and response["state"] != "done":
        return 1
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with _client(args.service_dir) as client:
        response = client.status(args.job)
    if args.format == "json":
        print(json.dumps(response, indent=2))
        return 0
    job = response["job"]
    line = (
        f"job {job['id'][:12]}: {job['state']}  "
        f"cells {job['cells_done']}/{job['cells_total']} "
        f"({job['cells_cached']} cached)  attempts={job['attempts']}"
    )
    if job.get("error"):
        line += f"  error: {job['error']}"
    print(line)
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    with _client(args.service_dir) as client:
        record = client.queue.find(args.job)
        payload = client.queue.result_text(record)
    if args.format == "json":
        # The stored payload verbatim: byte-identical to what a direct
        # `sweep --format json` over the same grid prints.
        print(payload)
        return 0
    from repro.core.results import ResultsFrame

    frame = ResultsFrame.from_json_payload(json.loads(payload))
    print(f"job {record.id[:12]}: {len(frame)} configurations")
    _print_result_rows(frame)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    with _client(args.service_dir, transport=args.transport) as client:
        response = client.cancel(args.job)
    if args.format == "json":
        print(json.dumps(response, indent=2))
    elif response.get("requested"):
        print(
            f"cancellation requested for running job {response['job']['id'][:12]} "
            f"(the daemon stops it between cells; finished cells stay stored)"
        )
    else:
        print(f"cancelled job {response['job']['id'][:12]}")
    return 0


def _cmd_queue_ls(args: argparse.Namespace) -> int:
    with _client(args.service_dir) as client:
        jobs = client.jobs(state=args.state)
    if args.format == "json":
        print(json.dumps(jobs, indent=2))
        return 0
    print(f"service {args.service_dir}: {len(jobs)} job(s)")
    for job in jobs:
        print(
            f"  {job['id'][:12]}  {job['state']:<9} prio={job['priority']:<3} "
            f"cells={job['cells_done']}/{job['cells_total']} "
            f"trace={str(job['request'].get('trace_path', '?')).rsplit('/', 1)[-1]}"
        )
    return 0


def _cmd_queue_stats(args: argparse.Namespace) -> int:
    with _client(args.service_dir, transport=args.transport) as client:
        if args.prune_events:
            pruned = client.prune_events(retain_seconds=args.retain_seconds)
            print(f"pruned {pruned} submit event(s)", file=sys.stderr)
        response = client.stats()
    if args.format == "json":
        print(json.dumps(response, indent=2))
        return 0
    counts = response["queue"]
    states = ", ".join(f"{counts[state]} {state}" for state in JOB_STATES)
    print(f"queue: {states}")
    print(
        f"submissions: {response['submissions']} "
        f"({response['coalesced_submissions']} coalesced, "
        f"dedup ratio {response['dedup_ratio']:.2f})"
    )
    daemon = response.get("daemon")
    if not daemon:
        print("daemon: no heartbeat")
        return 0
    line = (
        f"daemon: {daemon.get('daemon_id')}, pid {daemon.get('pid')}, "
        f"{daemon.get('jobs_done', 0)} done, {daemon.get('jobs_failed', 0)} failed, "
        f"{daemon.get('cells_executed', 0)} cells executed, "
        f"{daemon.get('cells_cached', 0)} cached, "
        f"socket {'yes' if daemon.get('socket') else 'no'}"
    )
    if daemon.get("heartbeat_errors"):
        line += f", {daemon['heartbeat_errors']} heartbeat error(s)"
    tc = daemon.get("trace_cache")
    if tc:
        line += (
            f", trace cache {tc.get('hits', 0)} hit(s)/"
            f"{tc.get('misses', 0)} miss(es)"
            f"/{tc.get('sidecar_hits', 0)} sidecar hit(s)"
        )
    print(line + _notes_text(daemon))
    return 0


def _notes_text(daemon) -> str:
    notes = daemon.get("notes") or ([daemon["note"]] if daemon.get("note") else [])
    return f" ({'; '.join(str(note) for note in notes)})" if notes else ""


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.metrics import render_exposition
    from repro.service.api import ok_response

    # The registry snapshot rides the daemon's heartbeat; `stats` answers
    # with the live one over the socket and the last published one over files.
    with _client(args.service_dir) as client:
        daemon = client.stats().get("daemon") or {}
    snapshot = daemon.get("metrics") or {}
    if args.format == "text":
        # Prometheus-style exposition: pipe it to a file and any
        # textfile-collector-shaped scraper ingests it as-is.
        sys.stdout.write(render_exposition(snapshot))
        return 0
    response = ok_response("metrics", daemon_id=daemon.get("daemon_id"), metrics=snapshot)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _counter_hit_rate(counters, hits_key: str, misses_key: str) -> Optional[float]:
    hits = float(counters.get(hits_key, 0) or 0)
    misses = float(counters.get(misses_key, 0) or 0)
    total = hits + misses
    return (hits / total) if total else None


def _claim_latency_text(metrics) -> str:
    from repro.obs.metrics import quantile_from_snapshot

    histogram = (metrics.get("histograms") or {}).get("queue_claim_latency_seconds")
    if not histogram:
        return ""
    p50 = quantile_from_snapshot(histogram, 0.5)
    p95 = quantile_from_snapshot(histogram, 0.95)
    if p50 is None or p95 is None:
        return ""
    return f", claim p50/p95 {p50 * 1000:.1f}/{p95 * 1000:.1f}ms"


def _render_queue_top(service_dir: str, response) -> None:
    counts = response["queue"]
    print(f"{service_dir}: " + ", ".join(f"{counts[state]} {state}" for state in JOB_STATES))
    daemon = response.get("daemon")
    if not daemon:
        print("daemon: no heartbeat")
        return
    jobs_done = int(daemon.get("jobs_done", 0) or 0)
    try:
        uptime = float(daemon.get("updated_at", 0) or 0) - float(
            daemon.get("started_at", 0) or 0
        )
    except (TypeError, ValueError):
        uptime = 0.0
    rate = jobs_done / uptime if uptime > 0 else 0.0
    metrics = daemon.get("metrics") or {}
    counters = metrics.get("counters") or {}
    line = (
        f"daemon {daemon.get('daemon_id')}: {jobs_done} done, "
        f"{daemon.get('jobs_failed', 0)} failed, {rate:.2f} jobs/s, cells "
        f"{daemon.get('cells_executed', 0)} fresh/"
        f"{daemon.get('cells_cached', 0)} cached"
        f"{_claim_latency_text(metrics)}"
    )
    store_rate = _counter_hit_rate(counters, "store_hits_total", "store_misses_total")
    if store_rate is not None:
        line += f", store hit rate {store_rate:.0%}"
    plane_rate = _counter_hit_rate(
        counters, "plane_cache_hits_total", "plane_cache_misses_total"
    )
    if plane_rate is not None:
        line += f", plane cache hit rate {plane_rate:.0%}"
    print(line + _notes_text(daemon))
    # Where the finished jobs' execute time went, largest phase first.
    phases = daemon.get("phase_seconds") or {}
    total = sum(phases.values())
    if total > 0:
        print("job phases: " + ", ".join(
            f"{name} {seconds:.3f}s ({seconds / total:.0%})"
            for name, seconds in sorted(phases.items(), key=lambda item: -item[1])
        ))


def _cmd_queue_top(args: argparse.Namespace) -> int:
    with _client(args.service_dir, transport=args.transport) as client:
        iterations = max(int(args.iterations), 1)
        for iteration in range(iterations):
            if iteration:
                time.sleep(max(float(args.interval), 0.0))
                print()
            response = client.stats()
            if args.format == "json":
                print(json.dumps(response, indent=2, sort_keys=True))
            else:
                _render_queue_top(args.service_dir, response)
        return 0


def _cmd_queue_gc(args: argparse.Namespace) -> int:
    from repro.service.queue import open_service

    queue = open_service(args.service_dir, create=False)
    report = queue.gc(retain_seconds=args.retain_seconds, dry_run=args.dry_run)
    if args.format == "json":
        print(json.dumps({"ok": True, "type": "gc", "dry_run": args.dry_run, **report},
                         indent=2))
        return 0
    evicted = sum(
        count for state, count in report.items()
        if state not in ("results", "bytes", "kept")
    )
    verb = "would evict" if args.dry_run else "evicted"
    per_state = ", ".join(
        f"{report[state]} {state}" for state in ("done", "failed", "cancelled")
    )
    print(
        f"{verb} {evicted} job record(s) ({per_state}), "
        f"{report['results']} result payload(s), {report['bytes']:,} bytes; "
        f"kept {report['kept']} within {args.retain_seconds:g}s retention"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.crosscheck import cross_check

    trace = _load_trace(args.trace)
    report = cross_check(trace, args.block_size, args.associativity, _set_sizes(args.max_sets))
    print(report.summary())
    return 0 if report.exact else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.bench.figures import (
        comparison_reduction_series,
        implementation_label,
        render_ascii_chart,
        speedup_series,
    )
    from repro.bench.harness import ExperimentRunner
    from repro.bench.tables import format_table1, format_table2, format_table3, format_table4

    runner = ExperimentRunner(max_requests=args.requests, seed=args.seed, workers=args.workers)
    print(format_table1())
    print()
    print(format_table2(runner.traces(), PAPER_REQUEST_COUNTS))
    print()
    cells = runner.run_table3()
    print(format_table3(cells))
    print()
    print(format_table4(runner.run_table4()))
    print()
    sides = implementation_label(cells)
    print(render_ascii_chart(
        speedup_series(cells), f"Figure 5: speed-up of DEW over baseline ({sides})"))
    print()
    print(render_ascii_chart(
        comparison_reduction_series(cells), "Figure 6: % reduction of tag comparisons"))
    print()
    headline = runner.run_headline_claims(cells)
    print(f"Headline claims (this run; {sides}):")
    for key, value in headline.items():
        print(f"  {key}: {value:.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-dew",
        description="DEW single-pass multi-configuration FIFO cache simulation (DATE 2010 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic Mediabench-style trace")
    generate.add_argument("app", choices=sorted(PAPER_REQUEST_COUNTS))
    generate.add_argument("output", help="output path (.din or .csv)")
    generate.add_argument("--requests", type=int, default=100_000)
    generate.add_argument("--seed", type=int, default=2010)
    generate.set_defaults(func=_cmd_generate)

    def add_family_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("trace", help="trace file (.din, .csv or hex list)")
        sub.add_argument("--block-size", type=int, default=16)
        sub.add_argument("--associativity", type=int, default=4)
        sub.add_argument("--max-sets", type=int, default=16384)

    dew = subparsers.add_parser("dew", help="run DEW over a trace")
    add_family_arguments(dew)
    dew.set_defaults(func=_cmd_dew)

    baseline = subparsers.add_parser("baseline", help="run the Dinero-style baseline over a trace")
    add_family_arguments(baseline)
    baseline.set_defaults(func=_cmd_baseline)

    sweep = subparsers.add_parser(
        "sweep",
        help="sweep a (block size x associativity x policy) grid, optionally in parallel",
    )
    sweep.add_argument("trace", help="trace file (.din, .csv or hex list; .gz accepted)")
    sweep.add_argument("--block-sizes", default="4,16,64",
                       help="comma-separated block sizes in bytes")
    sweep.add_argument("--associativities", default="1,4,8",
                       help="comma-separated associativities")
    sweep.add_argument("--max-sets", type=int, default=16384,
                       help="largest number of sets (sweep doubles from 1)")
    sweep.add_argument("--policies", default="fifo",
                       help="comma-separated replacement policies (fifo, lru, random, plru)")
    sweep.add_argument("--mechanisms", default="",
                       help="comma-separated miss-path mechanisms to sweep in "
                            "addition to the bare grid (victim-cache, "
                            "miss-cache, stream-buffer)")
    sweep.add_argument("--mechanism-entries", default="2,4,8,16",
                       help="comma-separated mechanism buffer entry counts")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial; results are identical)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="seed for stochastic policies")
    sweep.add_argument("--store", default=None, metavar="DIR",
                       help="persistent result store directory; cells already "
                            "simulated for this trace are loaded, not re-run")
    sweep.add_argument("--force", action="store_true",
                       help="with --store, re-execute every job even when cached")
    sweep.add_argument("--trace-cache", dest="trace_cache", default=None,
                       metavar="DIR",
                       help="trace cache directory: the first sweep caches "
                            "the parsed trace, later sweeps mmap-attach it "
                            "and never re-parse the file (results are "
                            "identical)")
    sweep.add_argument("--no-trace-cache", dest="trace_cache",
                       action="store_const", const=False,
                       help="disable the trace cache")
    sweep.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (json rows use a stable sort order)")
    sweep.add_argument("--profile", action="store_true",
                       help="print a per-phase wall-clock breakdown (load, "
                            "decode, plane ensure, store lookup, simulate, "
                            "persist, merge) to stderr")
    sweep.set_defaults(func=_cmd_sweep)

    verify = subparsers.add_parser("verify", help="cross-check DEW against the reference simulator")
    add_family_arguments(verify)
    verify.set_defaults(func=_cmd_verify)

    explore = subparsers.add_parser(
        "explore",
        help="explore swept results: Pareto fronts and constraint-driven tuning",
    )
    explore_sub = explore.add_subparsers(dest="explore_command", required=True)

    def add_source_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--json", default=None, metavar="FILE",
                         help="sweep results as written by 'sweep --format json'")
        sub.add_argument("--store", default=None, metavar="DIR",
                         help="result store directory (all artifacts of one trace)")
        sub.add_argument("--trace", default=None, metavar="FP",
                         help="with --store: trace fingerprint prefix "
                              "(as printed by 'store ls')")
        sub.add_argument("--service", default=None, metavar="DIR",
                         help="service directory; explore a completed job's results")
        sub.add_argument("--job", default=None, metavar="ID",
                         help="with --service: job id or prefix (see 'queue ls')")
        sub.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format")

    explore_pareto = explore_sub.add_parser(
        "pareto", help="non-dominated configurations over the chosen metrics")
    add_source_arguments(explore_pareto)
    explore_pareto.add_argument(
        "--metrics", default="total_size,miss_rate",
        help="comma-separated lower-is-better metrics: frame columns "
             "(total_size, miss_rate, misses, ...) plus 'energy' and 'amat'")
    explore_pareto.set_defaults(func=_cmd_explore_pareto)

    explore_tune = explore_sub.add_parser(
        "tune", help="pick the best admissible configuration under constraints")
    add_source_arguments(explore_tune)
    explore_tune.add_argument("--objective", choices=("misses", "energy", "edp", "amat"),
                              default="energy", help="quantity to minimise")
    explore_tune.add_argument("--top", type=int, default=1,
                              help="report the N best configurations")
    explore_tune.add_argument("--max-size", type=int, default=None, metavar="BYTES",
                              help="largest admissible total cache size")
    explore_tune.add_argument("--max-miss-rate", type=float, default=None, metavar="X")
    explore_tune.add_argument("--max-energy", type=float, default=None, metavar="NJ",
                              help="largest admissible total energy (nJ)")
    explore_tune.add_argument("--max-amat", type=float, default=None, metavar="NS",
                              help="largest admissible average access time (ns)")
    explore_tune.add_argument("--min-associativity", type=int, default=None, metavar="A")
    explore_tune.add_argument("--max-associativity", type=int, default=None, metavar="A")
    explore_tune.set_defaults(func=_cmd_explore_tune)

    store = subparsers.add_parser("store", help="inspect and manage a persistent result store")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_ls = store_sub.add_parser("ls", help="list the store's artifacts")
    store_ls.add_argument("store_dir", help="result store directory")
    store_ls.add_argument("--format", choices=("text", "json"), default="text",
                          help="output format")
    store_ls.set_defaults(func=_cmd_store_ls)

    store_verify = store_sub.add_parser(
        "verify",
        help="re-read every artifact and re-derive its content address; "
             "report corrupt/mis-addressed files")
    store_verify.add_argument("store_dir", help="result store directory")
    store_verify.set_defaults(func=_cmd_store_verify)

    store_gc = store_sub.add_parser(
        "gc", help="remove temp files, corrupt artifacts and (with a keep-list) other traces")
    store_gc.add_argument("store_dir", help="result store directory")
    store_gc.add_argument("--keep-fingerprints", default=None, metavar="FP[,FP...]",
                          help="comma-separated trace fingerprint prefixes to keep "
                               "(as printed by 'store ls'); every valid artifact "
                               "matching none of them is removed")
    store_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                          help="size budget: evict valid artifacts oldest-first "
                               "until the store fits in N bytes (evicted cells "
                               "are re-simulated by the next sweep)")
    store_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be removed without deleting anything")
    store_gc.set_defaults(func=_cmd_store_gc)

    store_export = store_sub.add_parser(
        "export", help="write a manifest describing every valid artifact")
    store_export.add_argument("store_dir", help="result store directory")
    store_export.add_argument("manifest", nargs="?", default=None,
                              help=f"manifest path (default: <store>/{DEFAULT_MANIFEST_NAME})")
    store_export.set_defaults(func=_cmd_store_export)

    store_import = store_sub.add_parser(
        "import", help="install the artifacts listed in an export manifest")
    store_import.add_argument("store_dir", help="destination result store directory")
    store_import.add_argument("manifest", help="manifest written by 'store export'")
    store_import.set_defaults(func=_cmd_store_import)

    serve = subparsers.add_parser(
        "serve",
        help="run the simulation service daemon over a service directory",
    )
    serve.add_argument("service_dir", help="service directory (created if missing)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="result store backing execution "
                            "(default: <service_dir>/store)")
    serve.add_argument("--sweep-workers", type=int, default=1,
                       help="process fan-out within each job's sweep")
    serve.add_argument("--poll", type=float, default=0.1, metavar="SECONDS",
                       help="longest idle wait between scheduler ticks "
                            "(positive): it bounds only file-path submits "
                            "and the idle heartbeat; socket submits and "
                            "stops wake the daemon at once")
    serve.add_argument("--drain", action="store_true",
                       help="exit once the queue is empty (batch mode)")
    serve.add_argument("--max-jobs", type=int, default=None, metavar="N",
                       help="exit after finishing N jobs")
    serve.add_argument("--socket", dest="socket", action="store_true",
                       default=True,
                       help="serve the Unix-domain-socket front end (default)")
    serve.add_argument("--no-socket", dest="socket", action="store_false",
                       help="polling-file transport only")
    serve.add_argument("--job-retain-seconds", type=float,
                       default=DEFAULT_JOB_RETAIN_SECONDS, metavar="SECONDS",
                       help="startup 'queue gc' retention window for "
                            "finished job records (default: 7 days)")
    serve.add_argument("--trace-cache", dest="trace_cache", default=None,
                       metavar="DIR",
                       help="trace cache shared with clients "
                            "(default: <service_dir>/tracecache); a warm "
                            "cache lets the daemon run jobs without ever "
                            "opening the trace file")
    serve.add_argument("--no-trace-cache", dest="trace_cache",
                       action="store_const", const=False,
                       help="disable the trace cache")
    serve.set_defaults(func=_cmd_serve)

    def add_transport_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--transport", choices=("auto", "files", "socket"),
                         default="auto",
                         help="auto (default) sends submit, cancel, stats and "
                              "wait to a live daemon's socket and falls back "
                              "to files; files/socket pin one path for them")

    def add_service_client_arguments(sub: argparse.ArgumentParser, with_job: bool) -> None:
        sub.add_argument("service_dir", help="service directory")
        if with_job:
            sub.add_argument("job", help="job id or unique prefix (see 'queue ls')")
        sub.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format")

    submit = subparsers.add_parser(
        "submit",
        help="submit a sweep to the service (idempotent; duplicates are coalesced)",
    )
    submit.add_argument("service_dir", help="service directory (created if missing)")
    submit.add_argument("trace", help="trace file (.din, .csv or hex list; .gz accepted)")
    submit.add_argument("--block-sizes", default="4,16,64",
                        help="comma-separated block sizes in bytes")
    submit.add_argument("--associativities", default="1,4,8",
                        help="comma-separated associativities")
    submit.add_argument("--max-sets", type=int, default=16384,
                        help="largest number of sets (sweep doubles from 1)")
    submit.add_argument("--policies", default="fifo",
                        help="comma-separated replacement policies (fifo, lru, random, plru)")
    submit.add_argument("--mechanisms", default="",
                        help="comma-separated miss-path mechanisms to sweep in "
                             "addition to the bare grid (victim-cache, "
                             "miss-cache, stream-buffer)")
    submit.add_argument("--mechanism-entries", default="2,4,8,16",
                        help="comma-separated mechanism buffer entry counts")
    submit.add_argument("--seed", type=int, default=0,
                        help="seed for stochastic policies")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher-priority jobs are claimed first")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job reaches a final state")
    submit.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                        help="with --wait: give up after this long")
    submit.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")
    add_transport_argument(submit)
    submit.add_argument("--trace-cache", dest="trace_cache", default=None,
                        metavar="DIR",
                        help="trace cache for the fingerprint sidecar "
                             "(default: <service_dir>/tracecache); a "
                             "warm sidecar makes resubmission skip the "
                             "full-file hash entirely")
    submit.add_argument("--no-trace-cache", dest="trace_cache",
                        action="store_const", const=False,
                        help="disable the trace cache")
    submit.set_defaults(func=_cmd_submit)

    status = subparsers.add_parser("status", help="show one service job's state and progress")
    add_service_client_arguments(status, with_job=True)
    status.set_defaults(func=_cmd_status)

    result = subparsers.add_parser(
        "result",
        help="print a completed job's results (json output is byte-identical "
             "to a direct 'sweep --format json' run)",
    )
    add_service_client_arguments(result, with_job=True)
    result.set_defaults(func=_cmd_result)

    cancel = subparsers.add_parser(
        "cancel",
        help="cancel a service job (running jobs stop between cells)")
    add_service_client_arguments(cancel, with_job=True)
    add_transport_argument(cancel)
    cancel.set_defaults(func=_cmd_cancel)

    metrics = subparsers.add_parser(
        "metrics",
        help="the daemon's metrics registry: live over its socket, "
             "otherwise from its last heartbeat")
    metrics.add_argument("service_dir", help="service directory")
    metrics.add_argument("--format", choices=("text", "json"), default="text",
                         help="text renders Prometheus-style "
                              "exposition; json the registry snapshot")
    metrics.set_defaults(func=_cmd_metrics)

    queue = subparsers.add_parser("queue", help="inspect a service's job queue")
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)

    queue_ls = queue_sub.add_parser("ls", help="list the service's jobs")
    add_service_client_arguments(queue_ls, with_job=False)
    queue_ls.add_argument("--state", choices=JOB_STATES, default=None,
                          help="only jobs in this state")
    queue_ls.set_defaults(func=_cmd_queue_ls)

    queue_stats = queue_sub.add_parser(
        "stats", help="queue counts, dedup ratio and daemon heartbeat")
    add_service_client_arguments(queue_stats, with_job=False)
    add_transport_argument(queue_stats)
    queue_stats.add_argument("--prune-events", action="store_true",
                             help="prune submit-event files older than the "
                                  "retain window before reporting (the pruned "
                                  "count is archived; the dedup ratio is "
                                  "unchanged)")
    queue_stats.add_argument("--retain-seconds", type=float, default=86400.0,
                             metavar="SECONDS",
                             help="retain window for --prune-events "
                                  "(default: one day)")
    queue_stats.set_defaults(func=_cmd_queue_stats)

    queue_top = queue_sub.add_parser(
        "top",
        help="live view: the daemon's jobs/sec, claim latency "
             "p50/p95, cache hit rates and degradation notes")
    add_service_client_arguments(queue_top, with_job=False)
    add_transport_argument(queue_top)
    queue_top.add_argument("--interval", type=float, default=2.0,
                           metavar="SECONDS",
                           help="seconds between refreshes (with --iterations)")
    queue_top.add_argument("--iterations", type=int, default=1, metavar="N",
                           help="number of refreshes to print (default: one "
                                "shot)")
    queue_top.set_defaults(func=_cmd_queue_top)

    queue_gc = queue_sub.add_parser(
        "gc",
        help="evict finished/failed/cancelled job records (and their result "
             "payloads) older than the retention window")
    queue_gc.add_argument("service_dir", help="service directory")
    queue_gc.add_argument("--retain-seconds", type=float,
                          default=DEFAULT_JOB_RETAIN_SECONDS, metavar="SECONDS",
                          help="keep finished jobs younger than this "
                               "(default: 7 days)")
    queue_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be evicted without deleting")
    queue_gc.add_argument("--format", choices=("text", "json"), default="text",
                          help="output format")
    queue_gc.set_defaults(func=_cmd_queue_gc)

    trace = subparsers.add_parser(
        "trace", help="trace utilities (the trace cache)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_cache = trace_sub.add_parser(
        "cache",
        help="manage a trace cache (fingerprint-addressed, mmap-attached; "
             "parse each trace once, ever)")
    cache_sub = trace_cache.add_subparsers(dest="cache_command", required=True)

    tc_ls = cache_sub.add_parser("ls", help="list the cache's traces")
    tc_ls.add_argument("cache_dir", help="plane cache directory")
    tc_ls.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format")
    tc_ls.set_defaults(func=_cmd_trace_cache_ls)

    tc_verify = cache_sub.add_parser(
        "verify",
        help="re-read every plane and recompute its trace fingerprint "
             "(its address); report corrupt/mis-addressed files")
    tc_verify.add_argument("cache_dir", help="plane cache directory")
    tc_verify.set_defaults(func=_cmd_trace_cache_verify)

    tc_gc = cache_sub.add_parser(
        "gc", help="remove temp files, corrupt planes and (with a keep-list) "
                   "other traces' planes")
    tc_gc.add_argument("cache_dir", help="plane cache directory")
    tc_gc.add_argument("--keep-fingerprints", default=None, metavar="FP[,FP...]",
                       help="comma-separated trace fingerprint prefixes to keep; "
                            "every valid plane matching none of them is removed")
    tc_gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                       help="size budget: evict valid planes oldest-first until "
                            "the cache fits in N bytes (evicted traces are "
                            "re-parsed by the next sweep)")
    tc_gc.add_argument("--dry-run", action="store_true",
                       help="report what would be removed without deleting anything")
    tc_gc.set_defaults(func=_cmd_trace_cache_gc)

    tc_warm = cache_sub.add_parser(
        "warm",
        help="parse a trace into the cache ahead of time (so the first "
             "sweep or service job over it is already warm)")
    tc_warm.add_argument("cache_dir", help="plane cache directory (created if missing)")
    tc_warm.add_argument("trace", help="trace file (.din, .csv or hex list; .gz accepted)")
    tc_warm.set_defaults(func=_cmd_trace_cache_warm)

    reproduce = subparsers.add_parser("reproduce", help="regenerate the paper's tables and figures")
    reproduce.add_argument("--requests", type=int, default=None,
                           help="trace length for the largest application")
    reproduce.add_argument("--seed", type=int, default=2010)
    reproduce.add_argument("--workers", type=int, default=1,
                           help="worker processes for the Table 3 sweep")
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # Flush here, so a closed stdout raises below and not at exit.
        sys.stdout.flush()
        return status
    except ReproError as exc:
        print(f"repro-dew: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (`| head -1`).  Point stdout at devnull, as
        # the SIGPIPE note in Python's `signal` docs does, so the flush at
        # exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
