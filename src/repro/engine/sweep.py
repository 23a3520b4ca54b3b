"""Process-parallel, store-aware sweep orchestration over the engine registry.

A *sweep* is a (block size x associativity x policy) grid decomposed into
:class:`SweepJob` specs — each a registry key plus constructor options, so a
job is picklable and can be executed in any worker process.  The decomposition
exploits each engine's multi-configuration reach:

* FIFO cells become one ``dew`` job per ``(B, A)`` pair (all set sizes plus
  direct-mapped results in a single pass);
* LRU cells become one ``janapsatya`` job per block size (all set sizes and
  associativities in a single pass);
* any other policy falls back to one ``single`` job per configuration.

Job options are canonicalized at construction (lists become tuples, policy
strings/enums collapse to the enum's value), so semantically equal jobs have
equal identities — and, through :meth:`SweepJob.store_key`, equal
content-addresses in the persistent result store.

:func:`run_sweep` executes the jobs through one :class:`FusedSweepExecutor`
pass per batch — serially, or one batch per worker of a ``multiprocessing``
pool — and merges the per-job
:class:`~repro.core.results.SimulationResults` deterministically: results are
collected in job order regardless of completion order, and configurations
reported by more than one job (direct-mapped results come free with every DEW
run) are deduplicated with an exactness check.  With ``store=`` the sweep is
*incremental*: cached cells are loaded instead of simulated, fresh cells are
persisted the moment they finish (so a killed sweep resumes where it died),
and the merged outcome is byte-identical to a cold run.
"""

from __future__ import annotations

import enum
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import CacheConfig
from repro.core.results import ResultsFrame, SimulationResults, mechanism_code
from repro.engine.base import Engine, get_engine
from repro.errors import EngineError, ReproError, SimulationError, VerificationError
from repro.obs.tracing import PhaseTimer
from repro.store import ResultStore, StoreKey, open_store
from repro.trace.planecache import CachedPlane, TracePlaneCache, coerce_plane_cache
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace, collapse_block_runs
from repro.types import ReplacementPolicy

#: Option names whose values are replacement policies and are parsed as such
#: during canonicalization (so ``"FIFO"``, ``"fifo"`` and
#: ``ReplacementPolicy.FIFO`` all canonicalize to ``"fifo"``).
_POLICY_OPTION_NAMES = frozenset({"policy"})
_POLICY_LIST_OPTION_NAMES = frozenset({"policies"})


def _canonical_value(value: Any) -> Any:
    """Collapse semantically equal option values onto one canonical form.

    Sequences become tuples, enums their values, numpy scalars plain Python
    numbers.  :class:`CacheConfig` is already frozen, hashable and ordered,
    so it passes through unchanged.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, enum.Enum):
        return _canonical_value(value.value)
    if isinstance(value, CacheConfig):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_canonical_value(item) for item in value))
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _canonical_value(v)) for k, v in value.items()))
    return value


def _canonical_option(name: str, value: Any) -> Any:
    if name in _POLICY_OPTION_NAMES and isinstance(value, (str, ReplacementPolicy)):
        return ReplacementPolicy.parse(value).value
    if name in _POLICY_LIST_OPTION_NAMES and isinstance(value, (list, tuple, set, frozenset)):
        return tuple(ReplacementPolicy.parse(item).value for item in value)
    return _canonical_value(value)


@dataclass(frozen=True)
class SweepJob:
    """One engine invocation of a sweep: a registry key plus options.

    Options are stored as a sorted tuple of ``(name, value)`` pairs —
    canonicalized by :meth:`make` — so jobs are hashable, comparable,
    picklable, and semantically equal option dicts (``set_sizes`` as list vs
    tuple, ``policy`` as string vs enum) produce identical job identities
    and store keys.
    """

    engine: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, engine: str, **options: Any) -> "SweepJob":
        """Build a job from keyword options, canonicalizing their values."""
        canonical = {
            name: _canonical_option(name, value) for name, value in options.items()
        }
        return cls(str(engine).strip().lower(), tuple(sorted(canonical.items())))

    def build(self) -> Engine:
        """Construct the engine this job describes."""
        return get_engine(self.engine, **dict(self.options))

    def store_key(self, trace_fingerprint: str) -> StoreKey:
        """Content address of this job's results over the given trace."""
        return StoreKey.make(trace_fingerprint, self.engine, self.options)

    def label(self) -> str:
        """Short human-readable job description."""
        parts = ", ".join(f"{key}={value}" for key, value in self.options)
        return f"{self.engine}({parts})"


def build_grid_jobs(
    block_sizes: Sequence[int],
    associativities: Sequence[int],
    set_sizes: Sequence[int],
    policies: Sequence[Union[str, ReplacementPolicy]] = (ReplacementPolicy.FIFO,),
    seed: int = 0,
) -> List[SweepJob]:
    """Decompose a (block size x associativity x policy) grid into sweep jobs."""
    if not block_sizes or not associativities or not set_sizes or not policies:
        raise EngineError("sweep grid dimensions must be non-empty")
    block_list = sorted(set(int(b) for b in block_sizes))
    assoc_list = sorted(set(int(a) for a in associativities))
    size_tuple = tuple(sorted(set(int(s) for s in set_sizes)))
    jobs: List[SweepJob] = []
    seen_policies = set()
    for raw_policy in policies:
        try:
            policy = ReplacementPolicy.parse(raw_policy)
        except ValueError as exc:
            raise EngineError(str(exc)) from None
        if policy in seen_policies:
            continue
        seen_policies.add(policy)
        if policy is ReplacementPolicy.FIFO:
            # One DEW pass per (B, A); associativity 1 rides along with any
            # larger associativity as the direct-mapped by-product.
            dew_assocs = [a for a in assoc_list if a > 1] or [1]
            for block_size in block_list:
                for associativity in dew_assocs:
                    jobs.append(
                        SweepJob.make(
                            "dew",
                            block_size=block_size,
                            associativity=associativity,
                            set_sizes=size_tuple,
                        )
                    )
        elif policy is ReplacementPolicy.LRU:
            for block_size in block_list:
                jobs.append(
                    SweepJob.make(
                        "janapsatya",
                        block_size=block_size,
                        associativities=tuple(assoc_list),
                        set_sizes=size_tuple,
                    )
                )
        else:
            for block_size in block_list:
                for associativity in assoc_list:
                    for num_sets in size_tuple:
                        jobs.append(
                            SweepJob.make(
                                "single",
                                config=CacheConfig(num_sets, associativity, block_size, policy),
                                seed=seed,
                            )
                        )
    return jobs


def build_mechanism_grid_jobs(
    mechanisms: Sequence[str],
    block_sizes: Sequence[int],
    associativities: Sequence[int],
    set_sizes: Sequence[int],
    entry_counts: Sequence[int] = (2, 4, 8, 16),
    policies: Sequence[Union[str, ReplacementPolicy]] = (ReplacementPolicy.FIFO,),
    stream_depth: int = 4,
    seed: int = 0,
) -> List[SweepJob]:
    """Decompose a mechanism grid into sweep jobs (one per cell).

    Each job simulates one DL1 configuration augmented with one mechanism at
    one entry count, so the full grid is ``mechanisms x block sizes x
    associativities x set counts x policies x entry counts``.  Mechanism
    engines are single-configuration (the mechanism buffer's state depends
    on the exact DL1 eviction stream), so no multi-configuration collapse
    applies — but they ride the fused executor's shared decode and
    run-length fast paths like any other job.  An empty ``mechanisms`` list
    yields no jobs, which is how callers make mechanism cells purely
    additive to a base grid.
    """
    if not mechanisms:
        return []
    if not block_sizes or not associativities or not set_sizes or not entry_counts:
        raise EngineError("sweep grid dimensions must be non-empty")
    if not policies:
        raise EngineError("sweep grid dimensions must be non-empty")
    mech_list: List[str] = []
    for name in mechanisms:
        key = str(name).strip().lower()
        try:
            code = mechanism_code(key)
        except SimulationError as exc:
            raise EngineError(str(exc)) from None
        if code == 0:
            raise EngineError(
                "'none' is the bare-cache marker, not a mechanism engine; "
                "omit it from the mechanism grid"
            )
        if key not in mech_list:
            mech_list.append(key)
    policy_list: List[ReplacementPolicy] = []
    for raw_policy in policies:
        try:
            policy = ReplacementPolicy.parse(raw_policy)
        except ValueError as exc:
            raise EngineError(str(exc)) from None
        if policy not in policy_list:
            policy_list.append(policy)
    jobs: List[SweepJob] = []
    for mechanism in sorted(mech_list):
        for block_size in sorted(set(int(b) for b in block_sizes)):
            for associativity in sorted(set(int(a) for a in associativities)):
                for num_sets in sorted(set(int(s) for s in set_sizes)):
                    for policy in policy_list:
                        for entries in sorted(set(int(e) for e in entry_counts)):
                            options: Dict[str, Any] = {
                                "num_sets": num_sets,
                                "associativity": associativity,
                                "block_size": block_size,
                                "policy": policy,
                                "entries": entries,
                                "seed": seed,
                            }
                            if mechanism == "stream-buffer":
                                options["depth"] = int(stream_depth)
                            jobs.append(SweepJob.make(mechanism, **options))
    return jobs


def merge_results(
    per_job_results: Iterable[SimulationResults],
    simulator_name: str = "sweep",
    trace_name: str = "trace",
) -> SimulationResults:
    """Deterministically merge per-job results into one container.

    Configurations reported by several jobs (e.g. direct-mapped results from
    two DEW runs sharing a block size) must agree exactly; a conflict raises
    :class:`~repro.errors.VerificationError`.
    """
    merged = SimulationResults(simulator_name=simulator_name, trace_name=trace_name)
    for results in per_job_results:
        merged.elapsed_seconds += results.elapsed_seconds
        for result in results:
            existing = merged.get(
                result.config, result.mechanism, result.mechanism_entries
            )
            if existing is None:
                merged.add(result)
            elif (existing.misses, existing.accesses) != (result.misses, result.accesses):
                label = result.config.label()
                if result.mechanism != "none":
                    label += f"+{result.mechanism}x{result.mechanism_entries}"
                raise VerificationError(
                    f"sweep jobs disagree on {label}: "
                    f"{existing.misses}/{existing.accesses} vs {result.misses}/{result.accesses}"
                )
    return merged


@dataclass(frozen=True)
class EngineProfile:
    """Simulate time of one engine's jobs executed in a sweep.

    ``accesses_per_s`` and ``ns_per_node_eval`` are medians over the jobs;
    the per-access DEW work ratios sum the counters of every job first.
    ``walk`` names the DEW walk the jobs ran (``kernel``, or
    ``python (<reason>)``; several, comma-separated, if they differed).  The
    DEW-only fields are ``None`` for other engines.
    """

    engine: str
    jobs: int
    seconds: float
    accesses_per_s: float
    node_evals_per_access: Optional[float] = None
    ns_per_node_eval: Optional[float] = None
    tag_comparisons_per_access: Optional[float] = None
    walk: Optional[str] = None


@dataclass
class SweepOutcome:
    """Per-job and merged results of one sweep execution."""

    jobs: Tuple[SweepJob, ...]
    results: Tuple[SimulationResults, ...]
    trace_name: str = "trace"
    workers: int = 1
    elapsed_seconds: float = 0.0
    cached_jobs: int = 0
    #: Positions in :attr:`jobs` of the jobs this run simulated (store hits
    #: excluded), in job order.
    executed: Tuple[int, ...] = ()
    #: Trace accesses every job replayed.
    accesses: int = 0
    #: Exclusive per-phase wall clock from the orchestrator's
    #: :class:`~repro.obs.tracing.PhaseTimer` — decode / plane_ensure /
    #: store_lookup / simulate / persist, plus merge once :meth:`merged` has
    #: run.  Purely observational; empty for outcomes built outside
    #: :func:`run_sweep`.
    phases: Dict[str, float] = field(default_factory=dict)
    _merged: Optional[SimulationResults] = field(default=None, repr=False)

    @property
    def executed_jobs(self) -> int:
        """How many jobs this run simulated rather than loaded from the store."""
        return len(self.executed)

    def engine_profiles(self) -> List[EngineProfile]:
        """Per-engine simulate time over the jobs this run executed.

        One :class:`EngineProfile` per engine, in order of first appearance
        among the executed jobs; engines with no executed job are left out.
        """
        by_engine: Dict[str, List[SimulationResults]] = {}
        for index in self.executed:
            by_engine.setdefault(self.jobs[index].engine, []).append(self.results[index])
        profiles = []
        for engine, results in by_engine.items():
            rates = [self.accesses / r.elapsed_seconds for r in results if r.elapsed_seconds > 0]
            dew: Dict[str, Any] = {}
            if engine == "dew" and self.accesses:
                # Every walk evaluates at least the root, so no count is zero.
                counters = [r.counters for r in results]
                requests = sum(c.requests for c in counters)
                dew = {
                    "node_evals_per_access": sum(c.node_evaluations for c in counters) / requests,
                    "ns_per_node_eval": statistics.median(
                        r.elapsed_seconds * 1e9 / r.counters.node_evaluations for r in results
                    ),
                    "tag_comparisons_per_access": (
                        sum(c.tag_comparisons for c in counters) / requests
                    ),
                    "walk": ", ".join(sorted({r.walk for r in results if r.walk})) or None,
                }
            profiles.append(EngineProfile(
                engine,
                len(results),
                sum(r.elapsed_seconds for r in results),
                statistics.median(rates) if rates else 0.0,
                **dew,
            ))
        return profiles

    def merged(self) -> SimulationResults:
        """All configurations of the sweep in one deterministic container.

        Merging happens columnar-side (:meth:`ResultsFrame.merge` over the
        per-job frames) and the outcome is a frame-backed view, so no
        per-row objects are materialised until a caller iterates; rows,
        conflict checking and summed elapsed time are identical to the
        object-level :func:`merge_results`.
        """
        if self._merged is None:
            merge_start = time.perf_counter()
            merged_frame = ResultsFrame.merge(
                [results.frame() for results in self.results],
                simulator_name="sweep",
                trace_name=self.trace_name,
            )
            self._merged = SimulationResults.from_frame(merged_frame)
            self.phases["merge"] = self.phases.get("merge", 0.0) + (
                time.perf_counter() - merge_start
            )
        return self._merged

    def frame(self) -> ResultsFrame:
        """The merged sweep results in columnar form (cached via :meth:`merged`).

        This is the hand-off point to the frame-native exploration layer:
        ``outcome.frame()`` feeds straight into
        :func:`repro.explore.pareto.pareto_front_frame` and
        :meth:`repro.explore.tuner.CacheTuner.tune_frame` without building
        a single :class:`~repro.core.results.ConfigResult`.
        """
        return self.merged().frame()

    def as_rows(self) -> List[Dict[str, object]]:
        """Deterministic per-configuration rows (no timing fields).

        Row content is byte-identical between serial and parallel execution
        of the same jobs — and between cold and store-warmed runs — which is
        what the sweep CLI prints and what the test suite compares.
        """
        rows = []
        for result in self.merged():
            row = result.as_dict()
            rows.append(row)
        return rows


def _coerce_trace(trace: Union[Trace, Sequence[int]]) -> Trace:
    """A :class:`Trace` view of any address input (no copy when already one)."""
    if isinstance(trace, Trace):
        return trace
    return Trace(np.fromiter((int(a) for a in trace), dtype=np.int64))


class FusedSweepExecutor:
    """Run many sweep jobs in one pass over the trace, sharing the decode.

    Running each :class:`SweepJob` on its own (:meth:`Engine.run`) pays one
    full trace traversal, including the byte-address-to-block-address shift,
    per job.  This executor exploits that the *trace-side* work is identical
    across jobs:

    * byte addresses are sliced into chunks once;
    * each distinct ``offset_bits`` shift is computed once per chunk and the
      resulting block array shared by every same-block-size engine;
    * the run-length collapse (:func:`repro.trace.trace.collapse_block_runs`)
      is computed once per (chunk, block size) and fed to every engine that
      advertises :attr:`~repro.engine.base.Engine.supports_block_runs`
      (``janapsatya`` and the mechanism engines), so consecutive same-block
      accesses cost those Python walks one bulk update instead of one
      access each;
    * engines that do not consume runs (DEW among them) receive the shared
      raw block array unchanged.

    Results are exactly those of running each job separately: identical
    rows, identical work counters (the run consumers' bulk accounting is
    exact), identical store artifacts up to timing.  The
    reported per-job ``elapsed_seconds`` covers only that engine's simulation
    time — the shared decode is excluded, mirroring how a per-job run's
    timing is dominated by engine work.
    """

    def __init__(
        self,
        trace: Union[Trace, Sequence[int]],
        jobs: Sequence[SweepJob],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.trace = _coerce_trace(trace)
        self.jobs = list(jobs)
        if not self.jobs:
            raise EngineError("FusedSweepExecutor needs at least one job")
        self.chunk_size = max(int(chunk_size), 1)

    def execute(self) -> List[SimulationResults]:
        """One fused pass; per-job results in job order."""
        engines = [job.build() for job in self.jobs]
        groups: Dict[int, List[int]] = {}
        for index, engine in enumerate(engines):
            groups.setdefault(engine.offset_bits, []).append(index)
        elapsed = [0.0] * len(engines)
        addresses = self.trace.addresses
        access_types = self.trace.access_types
        for start in range(0, addresses.size, self.chunk_size):
            address_chunk = addresses[start:start + self.chunk_size]
            type_chunk = access_types[start:start + self.chunk_size]
            for offset_bits, members in groups.items():
                # All shared decode work happens outside the per-engine
                # timers, so reported timings are order-independent.
                blocks = address_chunk >> offset_bits
                runs: Optional[Tuple[List[int], np.ndarray]] = None
                if any(engines[index].supports_block_runs for index in members):
                    values, counts = collapse_block_runs(blocks)
                    # One list conversion shared by every consumer; counts
                    # stay an ndarray (summed vectorised).
                    runs = (values.tolist(), counts)
                run_head_types: Optional[np.ndarray] = None
                for index in members:
                    engine = engines[index]
                    begin = time.perf_counter()
                    if runs is not None and engine.supports_block_runs:
                        if engine.wants_access_types:
                            # Collapsed runs carry one type code per run —
                            # the head access's type (each run's tail
                            # accesses are guaranteed hits that never reach
                            # the type-sensitive miss path).  Computed once
                            # per (chunk, block size) and shared.
                            if run_head_types is None:
                                run_head_types = type_chunk[np.cumsum(counts) - counts]
                            engine.run_block_runs(runs[0], runs[1], run_head_types)
                        else:
                            engine.run_block_runs(runs[0], runs[1])
                    elif engine.wants_access_types:
                        engine.run_blocks(blocks, type_chunk)
                    else:
                        engine.run_blocks(blocks)
                    elapsed[index] += time.perf_counter() - begin
        results = []
        for index, engine in enumerate(engines):
            fresh = engine.finalize(trace_name=self.trace.name)
            fresh.elapsed_seconds = elapsed[index]
            results.append(fresh)
        return results


# Per-worker state installed by the pool initializer: each worker receives
# the trace and the job list once instead of with every batch.  Under
# ``fork`` both are inherited; otherwise they are pickled, and a
# cache-attached trace pickles as its artifact's path.
_WORKER_STATE: Dict[str, Any] = {}


def _sweep_worker_init(trace: Trace, jobs: Sequence[SweepJob], chunk_size: int) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE["trace"] = trace
    _WORKER_STATE["jobs"] = list(jobs)
    _WORKER_STATE["chunk_size"] = chunk_size


def _fused_worker_run(positions: Sequence[int]) -> Tuple[Tuple[int, ...], List[SimulationResults]]:
    """Execute one fused batch; returns the positions with their results."""
    jobs = _WORKER_STATE["jobs"]
    executor = FusedSweepExecutor(
        _WORKER_STATE["trace"],
        [jobs[position] for position in positions],
        _WORKER_STATE["chunk_size"],
    )
    return tuple(positions), executor.execute()


def _job_decode_key(job: SweepJob) -> Tuple[int, str]:
    """Grouping key approximating the job's decode (block size) requirements."""
    options = dict(job.options)
    block_size = options.get("block_size")
    if block_size is None:
        config = options.get("config")
        block_size = getattr(config, "block_size", 0)
    return int(block_size or 0), job.engine


def _partition_fused_batches(jobs: Sequence[SweepJob], workers: int) -> List[List[int]]:
    """Split job positions into ``workers`` batches maximising shared decode.

    Positions are ordered by block size (so same-shift jobs land in the same
    batch and share one set of decoded arrays) and split contiguously into
    near-equal slices.  Batch contents are deterministic for a given job
    list and worker count; merge order is unaffected because callers map
    results back through the returned positions.
    """
    order = sorted(range(len(jobs)), key=lambda position: (_job_decode_key(jobs[position]), position))
    batches: List[List[int]] = [[] for _ in range(workers)]
    size, remainder = divmod(len(order), workers)
    cursor = 0
    for batch_index in range(workers):
        take = size + (1 if batch_index < remainder else 0)
        batches[batch_index] = order[cursor:cursor + take]
        cursor += take
    return [batch for batch in batches if batch]


def _coerce_store(store: Optional[Union[str, "os.PathLike", ResultStore]]) -> Optional[ResultStore]:
    if store is None or isinstance(store, ResultStore):
        return store
    return open_store(store)


def run_sweep(
    trace: Union[Trace, Sequence[int]],
    jobs: Iterable[SweepJob],
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    store: Optional[Union[str, "os.PathLike", ResultStore]] = None,
    force: bool = False,
    on_result: Optional[Callable[[int, SweepJob, SimulationResults, bool], None]] = None,
    trace_cache: Optional[Union[str, "os.PathLike", TracePlaneCache]] = None,
) -> SweepOutcome:
    """Execute sweep jobs over ``trace``, optionally in parallel and incremental.

    Parameters
    ----------
    trace:
        The trace every job replays: a :class:`Trace` — in particular a
        cache-attached :class:`~repro.trace.planecache.CachedPlane`, which
        lets a warm caller (the service daemon) run a store-keyed sweep
        without ever parsing the trace file — or a bare address sequence.
    jobs:
        The sweep decomposition, e.g. from :func:`build_grid_jobs`.
    workers:
        Process count; ``<= 1`` runs serially in-process.  Either way the
        jobs run through :class:`FusedSweepExecutor` passes, and results are
        merged in job order, so the outcome is identical.
    chunk_size:
        Block-pipeline chunk length.
    store:
        Optional persistent result store (a :class:`~repro.store.ResultStore`
        or a directory path).  Jobs whose results are already stored for this
        trace are loaded instead of executed; fresh results are persisted the
        moment their fused pass finishes — one decode group per pass
        serially, one batch per worker in parallel — so an interrupted sweep
        resumes paying only for unfinished work.  The merged outcome is
        byte-identical to a cold run.
    force:
        With a store, re-execute (and overwrite) every job even when cached.
    on_result:
        Optional job-granular progress hook, called as
        ``on_result(index, job, results, cached)`` in the orchestrating
        process the moment each job's results become available — with
        ``cached=True`` for store hits and ``cached=False`` for fresh
        executions (after the result has been persisted, when a store is
        in use).  The service daemon uses this to record per-cell
        completion durably, and to *abort* a sweep between cells: a hook
        may raise (conventionally :class:`~repro.errors.SweepAborted`) and
        the exception propagates to the caller after the worker pool is
        torn down.  Results persisted before the abort stay in the store,
        so a re-run resumes from them.
    trace_cache:
        Optional trace artifact cache (a
        :class:`~repro.trace.planecache.TracePlaneCache` or a directory
        path).  The sweep persists the trace's artifact on its first visit,
        so later runs and other processes attach it instead of parsing, and
        executes over the mmap-attached artifact, which pool workers receive
        by path.  Cache failures of any kind degrade to the in-memory trace;
        results are byte-identical with the cache on or off.
    """
    job_list = list(jobs)
    if not job_list:
        raise EngineError("run_sweep needs at least one job")
    start = time.perf_counter()
    # Exclusive phase accounting for the orchestrating thread; the timer's
    # live dict is handed to the outcome, so `sweep --profile` and the
    # daemon's job spans read it without any extra bookkeeping.
    timer = PhaseTimer()
    result_store = _coerce_store(store)
    keys: Optional[List[StoreKey]] = None
    results: List[Optional[SimulationResults]] = [None] * len(job_list)
    cached_jobs = 0

    with timer.phase("decode"):
        trace = _coerce_trace(trace)
    trace_name = trace.name
    attached: Optional[CachedPlane] = None
    if trace_cache is not None and not isinstance(trace, CachedPlane):
        with timer.phase("plane_ensure"):
            try:
                cache = coerce_plane_cache(trace_cache)
                if cache is not None:
                    attached = cache.ensure(trace)
            except (ReproError, OSError, ValueError):
                # The cache is an optimisation, never a correctness
                # dependency: any trouble (unwritable dir, bad manifest,
                # racing gc) falls back to the in-memory trace.
                attached = None
        if attached is not None:
            trace = attached

    if result_store is not None:
        with timer.phase("store_lookup"):
            fingerprint = trace.fingerprint()
            keys = [job.store_key(fingerprint) for job in job_list]
            if not force:
                for index, key in enumerate(keys):
                    cached = result_store.get(key)
                    if cached is not None:
                        results[index] = cached
                        if on_result is not None:
                            on_result(index, job_list[index], cached, True)
                cached_jobs = sum(1 for r in results if r is not None)
    missing = [index for index, loaded in enumerate(results) if loaded is None]

    def persist(index: int, fresh: SimulationResults) -> None:
        with timer.phase("persist"):
            results[index] = fresh
            if result_store is not None and keys is not None:
                result_store.put(keys[index], fresh)
            if on_result is not None:
                on_result(index, job_list[index], fresh, False)

    effective_workers = 1
    try:
        with timer.phase("simulate"):
            if workers > 1 and len(missing) > 1:
                effective_workers = min(workers, len(missing))
                pending = [job_list[index] for index in missing]
                with multiprocessing.Pool(
                    effective_workers,
                    initializer=_sweep_worker_init,
                    initargs=(trace, pending, chunk_size),
                ) as pool:
                    # One fused batch per worker, batched to maximise shared
                    # decode; each batch's artifacts are persisted the moment
                    # the batch finishes.
                    batches = _partition_fused_batches(pending, effective_workers)
                    for positions, batch in pool.imap_unordered(_fused_worker_run, batches):
                        for position, fresh in zip(positions, batch):
                            persist(missing[position], fresh)
            elif missing:
                # With a store, run one fused pass per decode group and
                # persist as each group finishes: cross-block-size fusion
                # shares almost nothing (the shift and collapse are
                # per-offset anyway), so this keeps a killed sweep's resume
                # granularity close to per-job instead of all-or-nothing.
                # Storeless runs use one pass over everything.
                if result_store is not None:
                    group_batches: Dict[Tuple[int, str], List[int]] = {}
                    for index in missing:
                        group_batches.setdefault(_job_decode_key(job_list[index]), []).append(index)
                    batches = list(group_batches.values())
                else:
                    batches = [missing]
                for batch in batches:
                    executor = FusedSweepExecutor(
                        trace, [job_list[index] for index in batch], chunk_size
                    )
                    for offset, fresh in enumerate(executor.execute()):
                        persist(batch[offset], fresh)
    finally:
        if attached is not None:
            attached.close()
    elapsed = time.perf_counter() - start
    final = [result for result in results if result is not None]
    assert len(final) == len(job_list)
    return SweepOutcome(
        jobs=tuple(job_list),
        results=tuple(final),
        trace_name=trace_name,
        workers=effective_workers,
        elapsed_seconds=elapsed,
        cached_jobs=cached_jobs,
        executed=tuple(missing),
        accesses=len(trace),
        # The live timer dict: `merged()` keeps adding its merge time here.
        phases=timer.times,
    )
