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
pool.  Every job yields one :class:`~repro.core.results.ResultsFrame`, and
:meth:`SweepOutcome.merged` merges them with
:meth:`~repro.core.results.ResultsFrame.merge` deterministically: frames are
collected in job order regardless of completion order, and configurations
reported by more than one job (direct-mapped results come free with every DEW
run) are deduplicated with an exactness check.  With ``store=`` the sweep is
*incremental*: cached cells are loaded instead of simulated, fresh cells are
persisted the moment they finish (so a killed sweep resumes where it died),
and the merged outcome is byte-identical to a cold run.
"""

from __future__ import annotations

import contextlib
import enum
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import CacheConfig
from repro.core.results import ResultsFrame, mechanism_code
from repro.core.tree import STORAGE_POOL
from repro.engine.base import ENGINES, Engine, check_chunk_size, get_engine, get_engine_class
from repro.errors import EngineError, ReproError, SimulationError
from repro.obs.tracing import PhaseTimer
from repro.store import ResultStore, StoreKey, open_store
from repro.trace.planecache import CachedPlane, TracePlaneCache, coerce_plane_cache
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace, as_trace
from repro.types import ReplacementPolicy

# Import every engine's module with this one, so that no sweep, served
# request or benchmark unit imports one mid-run (the registry imports an
# engine's module on its first lookup).
for _key in ENGINES:
    get_engine_class(_key)
del _key

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
        """Content address of this job's results over the given trace.

        An engine past its first :attr:`Engine.result_version` adds the
        version to the keyed options, so artifacts stored before its rows
        changed are never served.
        """
        options = self.options
        version = get_engine_class(self.engine).result_version
        if version > 1:
            options += (("result_version", version),)
        return StoreKey.make(trace_fingerprint, self.engine, options)

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
    seed: int = 0,
) -> List[SweepJob]:
    """Decompose a mechanism grid into sweep jobs, one per mechanism family.

    The grid is ``mechanisms x block sizes x associativities x set counts x
    policies x entry counts``.  Each job is one mechanism over one DL1
    configuration at every entry count (a sorted, de-duplicated ``entries``
    tuple): it walks its DL1 once and emits one row per count, riding the
    pass's once-per-trace checks like any other job.  Mechanisms do not
    share a DL1 pass with each other.  An empty ``mechanisms`` list yields
    no jobs, which is how callers make mechanism cells purely additive to a
    base grid.
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
    entries = tuple(sorted(set(int(e) for e in entry_counts)))
    return [
        SweepJob.make(
            mechanism,
            num_sets=num_sets,
            associativity=associativity,
            block_size=block_size,
            policy=policy,
            entries=entries,
            seed=seed,
        )
        for mechanism in sorted(mech_list)
        for block_size in sorted(set(int(b) for b in block_sizes))
        for associativity in sorted(set(int(a) for a in associativities))
        for num_sets in sorted(set(int(s) for s in set_sizes))
        for policy in policy_list
    ]


@dataclass(frozen=True)
class EngineProfile:
    """Simulate time of one engine's jobs executed in a sweep.

    ``accesses_per_s`` and ``ns_per_node_eval`` are medians over the jobs;
    the per-access work ratios sum the counters of every job first.
    ``first_touches_per_access`` is the jobs' rows' compulsory misses over
    their accesses: the trace's first touches per access at the jobs' block
    sizes (a stream buffer's rows count only those it did not serve), the
    accesses whose DEW walk decides nothing.  The
    work fields are filled for engines whose frames carry counters (``dew``
    and ``janapsatya``), and are ``None`` otherwise; ``mru_stops_per_access``
    only for ``janapsatya``.  ``hits_per_lookup`` is filled for the
    mechanism engines: per entry count, ascending, the hits over the
    lookups (hits plus surviving misses) summed over the jobs' rows, which
    is ``mechanism_hit_rate``.  ``walk`` names the walk the jobs ran
    (``kernel``, or ``python (<reason>)``; several, comma-separated, if they
    differed): the DEW or LRU walk, for ``single`` the single-configuration
    walk of its cache, and for the mechanism engines ``kernel`` only when
    both their cache's walk and their probes are compiled.
    """

    engine: str
    jobs: int
    seconds: float
    accesses_per_s: float
    first_touches_per_access: float
    node_evals_per_access: Optional[float] = None
    ns_per_node_eval: Optional[float] = None
    tag_comparisons_per_access: Optional[float] = None
    mru_stops_per_access: Optional[float] = None
    hits_per_lookup: Optional[Tuple[Tuple[int, float], ...]] = None
    walk: Optional[str] = None


@dataclass
class SweepOutcome:
    """Per-job and merged results of one sweep execution."""

    jobs: Tuple[SweepJob, ...]
    results: Tuple[ResultsFrame, ...]
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
    #: store_lookup / simulate / persist, progress (the ``on_result`` hook)
    #: when a hook was given, plus merge once :meth:`merged` has run.
    #: Purely observational; empty for outcomes built outside
    #: :func:`run_sweep`.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Minor page faults the executor passes took when they ran in this
    #: process (persisting excluded); ``None`` when worker processes ran
    #: them, or for outcomes built outside :func:`run_sweep`.
    minor_faults: Optional[int] = None
    #: The ``simulate`` phase minus the executed jobs' own
    #: ``elapsed_seconds``: building, finalizing and releasing the engines,
    #: a pass's checks and each engine's shifts.  ``None`` when
    #: worker processes simulated, or for outcomes built outside
    #: :func:`run_sweep`.
    engine_overhead_seconds: Optional[float] = None
    _merged: Optional[ResultsFrame] = field(default=None, repr=False)

    @property
    def executed_jobs(self) -> int:
        """How many jobs this run simulated rather than loaded from the store."""
        return len(self.executed)

    def engine_profiles(self) -> List[EngineProfile]:
        """Per-engine simulate time over the jobs this run executed.

        One :class:`EngineProfile` per engine, in order of first appearance
        among the executed jobs; engines with no executed job are left out.
        """
        by_engine: Dict[str, List[ResultsFrame]] = {}
        for index in self.executed:
            by_engine.setdefault(self.jobs[index].engine, []).append(self.results[index])
        profiles = []
        for engine, results in by_engine.items():
            rates = [self.accesses / r.elapsed_seconds for r in results if r.elapsed_seconds > 0]
            work: Dict[str, Any] = {}
            counters = [r.counters for r in results]
            if self.accesses and all(c is not None for c in counters):
                # Every walk evaluates at least the root, so no count is zero.
                requests = sum(c.requests for c in counters)
                work = {
                    "node_evals_per_access": sum(c.node_evaluations for c in counters) / requests,
                    "ns_per_node_eval": statistics.median(
                        r.elapsed_seconds * 1e9 / r.counters.node_evaluations for r in results
                    ),
                    "tag_comparisons_per_access": (
                        sum(c.tag_comparisons for c in counters) / requests
                    ),
                }
                if all(hasattr(c, "mru_stops") for c in counters):
                    work["mru_stops_per_access"] = sum(c.mru_stops for c in counters) / requests
            if all(r.mechanism_codes.all() for r in results):
                work["hits_per_lookup"] = _hits_per_lookup(results)
            row_accesses = sum(int(r.accesses.sum()) for r in results)
            first_touches = sum(int(r.compulsory.sum()) for r in results)
            profiles.append(EngineProfile(
                engine,
                len(results),
                sum(r.elapsed_seconds for r in results),
                statistics.median(rates) if rates else 0.0,
                first_touches / row_accesses if row_accesses else 0.0,
                walk=", ".join(sorted({r.walk for r in results if r.walk})) or None,
                **work,
            ))
        return profiles

    def merged(self) -> ResultsFrame:
        """All configurations of the sweep in one deterministic frame.

        :meth:`ResultsFrame.merge` over the per-job frames, in job order
        (cached after the first call); conflicting cells raise
        :class:`~repro.errors.VerificationError`.  The merged frame feeds
        straight into :func:`repro.explore.pareto.pareto_front_frame` and
        :meth:`repro.explore.tuner.CacheTuner.tune_frame`.
        """
        if self._merged is None:
            merge_start = time.perf_counter()
            self._merged = ResultsFrame.merge(
                self.results, simulator_name="sweep", trace_name=self.trace_name
            )
            self.phases["merge"] = self.phases.get("merge", 0.0) + (
                time.perf_counter() - merge_start
            )
        return self._merged

    def as_rows(self) -> List[Dict[str, object]]:
        """Deterministic per-configuration rows (no timing fields).

        Row content is byte-identical between serial and parallel execution
        of the same jobs — and between cold and store-warmed runs — which is
        what the sweep CLI prints and what the test suite compares.
        """
        return self.merged().as_rows()


def _hits_per_lookup(results: Sequence[ResultsFrame]) -> Tuple[Tuple[int, float], ...]:
    """Per entry count, ascending, the mechanism rows' hits over their
    lookups (hits plus surviving misses), summed over ``results``."""
    entries = np.concatenate([r.mechanism_entries for r in results])
    hits = np.concatenate([r.mechanism_hits for r in results])
    misses = np.concatenate([r.misses for r in results])
    rates = []
    for count in np.unique(entries).tolist():
        mine = entries == count
        served, lookups = int(hits[mine].sum()), int((hits + misses)[mine].sum())
        rates.append((count, served / lookups if lookups else 0.0))
    return tuple(rates)


#: Usage of the calling thread where the platform counts it, else of the process.
_RUSAGE_WHO = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)


def _minor_faults() -> int:
    """Minor page faults taken so far (see :data:`_RUSAGE_WHO`)."""
    return resource.getrusage(_RUSAGE_WHO).ru_minflt


def _build_recycling(job: SweepJob) -> Engine:
    """``job``'s engine, built to recycle storage when its class can
    (:attr:`Engine.recycles_storage`)."""
    options = dict(job.options)
    if get_engine_class(job.engine).recycles_storage:
        options["recycled"] = True
    return get_engine(job.engine, **options)


class FusedSweepExecutor:
    """Run many sweep jobs in one pass, one engine at a time.

    Each job runs, in job order, as a build, :meth:`Engine.run` (the one
    whole-trace driver) and :meth:`Engine.release`, so the jobs share what
    a per-job run would repeat:

    * the trace's checks, and its distinct blocks per block size (every
      row's compulsory misses), which :meth:`Engine.run` memoizes on the
      trace, so a pass checks its trace once;
    * storage: engines that recycle it (DEW trees, LRU stores) are built to
      take what an earlier engine released, and each releases its own
      before the next is built, so jobs of one shape share one storage and
      a process's later jobs and passes do not page-fault fresh storage
      in.  A pass that builds one leaves the pool holding only what it
      released; any other pass leaves the pool as it was
      (:mod:`repro.core.tree`).

    Results are exactly those of running each job separately: identical
    rows, identical work counters, identical store artifacts up to timing.
    A job's ``elapsed_seconds`` is its engine's time walking chunks;
    building, the shifts, finalizing and releasing are
    :attr:`SweepOutcome.engine_overhead_seconds`.
    """

    def __init__(
        self,
        trace: Union[Trace, Sequence[int]],
        jobs: Sequence[SweepJob],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.trace = as_trace(trace)
        self.jobs = list(jobs)
        if not self.jobs:
            raise EngineError("FusedSweepExecutor needs at least one job")
        self.chunk_size = check_chunk_size(chunk_size)

    def frames(self) -> Iterator[ResultsFrame]:
        """Each job's frame, in job order, the moment the job finishes.

        The pass ends when the iterator is exhausted or closed: a caller
        that stops early closes it, so the storage pool's pass scope ends
        then, not when the iterator is collected.
        """
        recycling = any(get_engine_class(job.engine).recycles_storage for job in self.jobs)
        with STORAGE_POOL.one_pass() if recycling else contextlib.nullcontext():
            for job in self.jobs:
                engine = _build_recycling(job)
                fresh = engine.run(self.trace, chunk_size=self.chunk_size)
                engine.release()
                yield fresh

    def execute(self) -> List[ResultsFrame]:
        """One pass; per-job results in job order."""
        return list(self.frames())


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


def _fused_worker_run(positions: Sequence[int]) -> Tuple[Tuple[int, ...], List[ResultsFrame]]:
    """Execute one fused batch; returns the positions with their results."""
    jobs = _WORKER_STATE["jobs"]
    executor = FusedSweepExecutor(
        _WORKER_STATE["trace"],
        [jobs[position] for position in positions],
        _WORKER_STATE["chunk_size"],
    )
    return tuple(positions), executor.execute()


def _job_decode_key(job: SweepJob) -> Tuple[int, str]:
    """Grouping key: the job's block size and engine."""
    options = dict(job.options)
    block_size = options.get("block_size")
    if block_size is None:
        config = options.get("config")
        block_size = getattr(config, "block_size", 0)
    return int(block_size or 0), job.engine


def _partition_fused_batches(jobs: Sequence[SweepJob], workers: int) -> List[List[int]]:
    """Split job positions into ``workers`` batches of like jobs.

    Positions are ordered by block size and engine (so like jobs land in the
    same batch, where jobs of one shape share one storage) and split
    contiguously into near-equal slices.  Batch contents are deterministic
    for a given job list and worker count; merge order is unaffected
    because callers map results back through the returned positions.
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
    on_result: Optional[Callable[[int, SweepJob, ResultsFrame, bool], None]] = None,
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
        Block-pipeline chunk length; below 1 raises
        :class:`~repro.errors.TraceError`, as :meth:`Engine.run` does.
    store:
        Optional persistent result store (a :class:`~repro.store.ResultStore`
        or a directory path).  Jobs whose results are already stored for this
        trace are loaded instead of executed; fresh results are persisted the
        moment they finish — each job serially, each worker's batch in
        parallel — so an interrupted sweep resumes paying only for
        unfinished work.  The merged outcome is byte-identical to a cold
        run.
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
        the exception propagates to the caller once the serial pass has
        ended, running no further job, or the worker pool is torn down.
        Results persisted before the abort stay in the store,
        so a re-run resumes from them.  The hook's own time is the
        ``progress`` phase, not the store's.
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
    chunk_size = check_chunk_size(chunk_size)
    start = time.perf_counter()
    # Exclusive phase accounting for the orchestrating thread; the timer's
    # live dict is handed to the outcome, so `sweep --profile` and the
    # daemon's job spans read it without any extra bookkeeping.
    timer = PhaseTimer()
    result_store = _coerce_store(store)
    keys: Optional[List[StoreKey]] = None
    results: List[Optional[ResultsFrame]] = [None] * len(job_list)
    cached_jobs = 0

    with timer.phase("decode"):
        trace = as_trace(trace)
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
                            with timer.phase("progress"):
                                on_result(index, job_list[index], cached, True)
                cached_jobs = sum(1 for r in results if r is not None)
    missing = [index for index, loaded in enumerate(results) if loaded is None]

    def persist(index: int, fresh: ResultsFrame) -> None:
        with timer.phase("persist"):
            results[index] = fresh
            if result_store is not None and keys is not None:
                result_store.put(keys[index], fresh)
            if on_result is not None:
                with timer.phase("progress"):
                    on_result(index, job_list[index], fresh, False)

    effective_workers = 1
    minor_faults: Optional[int] = 0
    try:
        with timer.phase("simulate"):
            if workers > 1 and len(missing) > 1:
                import multiprocessing

                effective_workers = min(workers, len(missing))
                minor_faults = None
                pending = [job_list[index] for index in missing]
                with multiprocessing.Pool(
                    effective_workers,
                    initializer=_sweep_worker_init,
                    initargs=(trace, pending, chunk_size),
                ) as pool:
                    # One batch of like jobs per worker; each batch's
                    # artifacts are persisted the moment the batch finishes.
                    batches = _partition_fused_batches(pending, effective_workers)
                    for positions, batch in pool.imap_unordered(_fused_worker_run, batches):
                        for position, fresh in zip(positions, batch):
                            persist(missing[position], fresh)
            elif missing:
                # One pass.  Each job is persisted and reported the moment it
                # finishes, so a killed or aborted sweep keeps every job
                # done before it; a hook that raises ends the pass at once.
                pending = [job_list[index] for index in missing]
                with contextlib.closing(
                    FusedSweepExecutor(trace, pending, chunk_size).frames()
                ) as frames:
                    for index in missing:
                        before = _minor_faults()
                        fresh = next(frames)
                        minor_faults += _minor_faults() - before
                        persist(index, fresh)
    finally:
        if attached is not None:
            attached.close()
    elapsed = time.perf_counter() - start
    final = [result for result in results if result is not None]
    assert len(final) == len(job_list)
    engine_overhead: Optional[float] = None
    if minor_faults is not None:
        engine_overhead = timer.times.get("simulate", 0.0) - sum(
            final[index].elapsed_seconds for index in missing
        )
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
        minor_faults=minor_faults,
        engine_overhead_seconds=engine_overhead,
    )
