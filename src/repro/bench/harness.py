"""Experiment runner reproducing the paper's evaluation grid.

One *cell* of the paper's Table 3 is: an application, a block size and an
associativity pair ("1 & A"), simulated across the full set-size sweep by
both DEW (one pass) and the Dinero-style baseline (one pass per
configuration).  :class:`ExperimentRunner` produces those cells, the Table 4
property-effectiveness rows and — because every cell carries both simulators'
results — an exactness check on every run.

The traces are synthesised (:mod:`repro.workloads` says why) and scaled
down from the paper's multi-million-request traces; the default budget is
controlled by the ``REPRO_BENCH_REQUESTS`` environment variable.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cache.dinero import DineroStyleRunner
from repro.core.config import CacheConfig
from repro.core.counters import DewCounters
from repro.core.results import SimulationResults
from repro.engine import build_grid_jobs, get_engine, run_sweep
from repro.engine.sweep import SweepJob, SweepOutcome
from repro.errors import VerificationError
from repro.store import ResultStore, StoreKey, open_store
from repro.trace.trace import Trace
from repro.types import ReplacementPolicy
from repro.workloads.mediabench import MEDIABENCH_APPS, mediabench_trace, scaled_request_count

#: Paper defaults: Table 3 sweeps these block sizes and associativities.
PAPER_BLOCK_SIZES: Tuple[int, ...] = (4, 16, 64)
PAPER_ASSOCIATIVITIES: Tuple[int, ...] = (4, 8, 16)
PAPER_SET_SIZES: Tuple[int, ...] = tuple(2**i for i in range(0, 15))


def default_request_budget() -> int:
    """Trace length (largest application) used by the benchmark harness.

    Reads ``REPRO_BENCH_REQUESTS`` so a full-scale run can be requested
    without editing code; the default keeps a complete Table 3 sweep within
    a few minutes of pure Python execution.
    """
    value = os.environ.get("REPRO_BENCH_REQUESTS", "20000")
    try:
        requests = int(value)
    except ValueError:
        requests = 20000
    return max(requests, 1000)


@dataclass
class ExperimentCell:
    """One (application, block size, associativity) comparison cell."""

    app: str
    block_size: int
    associativity: int
    requests: int
    dew_seconds: float
    dinero_seconds: float
    dew_comparisons: int
    dinero_comparisons: int
    configs_simulated: int
    exact_match: bool
    #: The DEW walk that ran (``kernel``, or ``python (<reason>)``); ``None``
    #: when the DEW half came from the result store.
    dew_walk: Optional[str] = None

    @property
    def speedup(self) -> float:
        """Dinero time divided by DEW time (Figure 5's metric)."""
        return self.dinero_seconds / self.dew_seconds if self.dew_seconds > 0 else float("inf")

    @property
    def comparison_reduction_percent(self) -> float:
        """Percentage reduction of tag comparisons (Figure 6's metric)."""
        if self.dinero_comparisons == 0:
            return 0.0
        return 100.0 * (1.0 - self.dew_comparisons / self.dinero_comparisons)

    @property
    def comparison_ratio(self) -> float:
        """How many times more comparisons the baseline performs."""
        if self.dew_comparisons == 0:
            return float("inf")
        return self.dinero_comparisons / self.dew_comparisons

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting."""
        return {
            "app": self.app,
            "block_size": self.block_size,
            "associativity": self.associativity,
            "requests": self.requests,
            "dew_seconds": self.dew_seconds,
            "dinero_seconds": self.dinero_seconds,
            "speedup": self.speedup,
            "dew_comparisons": self.dew_comparisons,
            "dinero_comparisons": self.dinero_comparisons,
            "comparison_reduction_percent": self.comparison_reduction_percent,
            "configs_simulated": self.configs_simulated,
            "exact_match": self.exact_match,
        }


@dataclass
class PropertyCell:
    """One application row of Table 4 (property effectiveness)."""

    app: str
    block_size: int
    requests: int
    unoptimised_evaluations: int
    dew_evaluations: int
    mra_count: int
    per_associativity: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting."""
        row: Dict[str, object] = {
            "app": self.app,
            "block_size": self.block_size,
            "requests": self.requests,
            "unoptimised_evaluations": self.unoptimised_evaluations,
            "dew_evaluations": self.dew_evaluations,
            "mra_count": self.mra_count,
        }
        for associativity, counters in sorted(self.per_associativity.items()):
            for key, value in counters.items():
                row[f"assoc{associativity}_{key}"] = value
        return row


# Worker-side runner installed by the pool initializer: the (trace-bearing)
# runner is pickled once per worker rather than once per cell.
_TABLE3_RUNNER: Optional["ExperimentRunner"] = None


def _table3_worker_init(runner: "ExperimentRunner") -> None:
    global _TABLE3_RUNNER
    _TABLE3_RUNNER = runner


def _table3_worker_cell(params: Tuple[str, int, int]) -> "ExperimentCell":
    assert _TABLE3_RUNNER is not None
    return _TABLE3_RUNNER.run_cell(*params)


class ExperimentRunner:
    """Drive DEW and the Dinero-style baseline over the modelled workloads.

    Parameters
    ----------
    apps:
        Application names (default: the six Mediabench models).
    block_sizes / associativities / set_sizes:
        The evaluation grid (defaults: the paper's grid).
    max_requests:
        Trace length for the largest application; other applications are
        scaled down proportionally to Table 2 (see
        :func:`repro.workloads.mediabench.scaled_request_count`).
    proportional_lengths:
        When false, every application gets exactly ``max_requests`` accesses.
    seed:
        Workload generation seed.
    verify:
        Cross-check DEW against the baseline on every cell (recommended; the
        cost is already dominated by the baseline itself).
    workers:
        Default process count for :meth:`run_table3`; ``1`` keeps the sweep
        serial and in-process.
    store:
        Optional persistent result store (a
        :class:`~repro.store.ResultStore` or a directory path) used by
        :meth:`sweep_app`: grid cells already simulated for a trace are
        loaded instead of re-run, so repeated experiment campaigns pay only
        for new cells.
    """

    def __init__(
        self,
        apps: Optional[Sequence[str]] = None,
        block_sizes: Sequence[int] = PAPER_BLOCK_SIZES,
        associativities: Sequence[int] = PAPER_ASSOCIATIVITIES,
        set_sizes: Sequence[int] = PAPER_SET_SIZES,
        max_requests: Optional[int] = None,
        proportional_lengths: bool = True,
        seed: int = 2010,
        verify: bool = True,
        workers: int = 1,
        store: Optional[Union[str, "os.PathLike", ResultStore]] = None,
    ) -> None:
        self.apps = list(apps) if apps is not None else [app.name for app in MEDIABENCH_APPS]
        self.block_sizes = tuple(block_sizes)
        self.associativities = tuple(associativities)
        self.set_sizes = tuple(set_sizes)
        self.max_requests = max_requests if max_requests is not None else default_request_budget()
        self.proportional_lengths = proportional_lengths
        self.seed = seed
        self.verify = verify
        self.workers = workers
        self._store = store
        self._traces: Dict[str, Trace] = {}

    def store(self) -> Optional[ResultStore]:
        """The opened result store, or ``None`` when none was configured."""
        if self._store is not None and not isinstance(self._store, ResultStore):
            self._store = open_store(self._store)
        return self._store

    # -- workload handling ------------------------------------------------------

    def request_count(self, app: str) -> int:
        """Trace length used for ``app``."""
        if not self.proportional_lengths:
            return self.max_requests
        return scaled_request_count(app, self.max_requests)

    def trace_for(self, app: str) -> Trace:
        """Generate (and cache) the trace for one application."""
        if app not in self._traces:
            self._traces[app] = mediabench_trace(app, self.request_count(app), seed=self.seed)
        return self._traces[app]

    def traces(self) -> Dict[str, Trace]:
        """All application traces, generated on demand."""
        return {app: self.trace_for(app) for app in self.apps}

    # -- one comparison cell ------------------------------------------------------

    def _cell_keys(
        self, trace: Trace, block_size: int, associativity: int
    ) -> Tuple[Optional[StoreKey], Optional[StoreKey]]:
        """Store keys of one cell's DEW and baseline halves (``None`` storeless)."""
        store = self.store()
        if store is None:
            return None, None
        fingerprint = trace.fingerprint()
        dew_key = SweepJob.make(
            "dew",
            block_size=block_size,
            associativity=associativity,
            set_sizes=tuple(self.set_sizes),
        ).store_key(fingerprint)
        baseline_key = StoreKey.make(
            fingerprint,
            "dinero-baseline",
            {
                "block_size": block_size,
                "associativity": associativity,
                "set_sizes": tuple(self.set_sizes),
            },
        )
        return dew_key, baseline_key

    def run_cell(self, app: str, block_size: int, associativity: int) -> ExperimentCell:
        """Run DEW and the baseline for one Table 3 cell and compare them.

        With a configured result store both halves of the cell — the DEW
        family pass *and* the Dinero-style baseline sweep — are routed
        through it: cold cells persist their results (wall time and tag
        comparison counters ride along in the artifact), warm reruns load
        them and report the cold run's measured timings, so a repeated
        Table 3 campaign is near-free and its cells are value-identical.
        """
        trace = self.trace_for(app)
        store = self.store()
        dew_key, baseline_key = self._cell_keys(trace, block_size, associativity)

        dew_results = store.get(dew_key) if store is not None else None
        if dew_results is None:
            dew = get_engine(
                "dew",
                block_size=block_size,
                associativity=associativity,
                set_sizes=self.set_sizes,
            )
            dew_start = time.perf_counter()
            dew_results = dew.run(trace)
            dew_seconds = time.perf_counter() - dew_start
            dew_results.elapsed_seconds = dew_seconds
            if store is not None:
                store.put(dew_key, dew_results)
        dew_seconds = dew_results.elapsed_seconds

        baseline_configs = self._baseline_configs(block_size, associativity)
        baseline_results = store.get(baseline_key) if store is not None else None
        if baseline_results is None:
            runner = DineroStyleRunner(baseline_configs)
            baseline = runner.run(trace)
            baseline_results = SimulationResults.from_stats(
                baseline.stats,
                elapsed_seconds=baseline.elapsed_seconds,
                simulator_name="dinero",
                trace_name=trace.name,
            )
            # The artifact's counters carry the baseline's aggregate tag
            # comparisons so warm cells report the cold run's measurement.
            baseline_results.counters = DewCounters(
                requests=len(trace), tag_comparisons=baseline.total_tag_comparisons
            )
            if store is not None:
                store.put(baseline_key, baseline_results)

        exact = True
        if self.verify:
            exact = self._verify(
                dew_results, {result.config: result for result in baseline_results}
            )

        return ExperimentCell(
            app=app,
            block_size=block_size,
            associativity=associativity,
            requests=len(trace),
            dew_seconds=dew_seconds,
            dinero_seconds=baseline_results.elapsed_seconds,
            dew_comparisons=dew_results.counters.tag_comparisons,
            dinero_comparisons=baseline_results.counters.tag_comparisons,
            configs_simulated=len(baseline_configs),
            exact_match=exact,
            dew_walk=dew_results.walk,
        )

    def _baseline_configs(self, block_size: int, associativity: int) -> List[CacheConfig]:
        configs = []
        associativities = [associativity] if associativity == 1 else [1, associativity]
        for assoc in associativities:
            for num_sets in self.set_sizes:
                configs.append(CacheConfig(num_sets, assoc, block_size, ReplacementPolicy.FIFO))
        return configs

    @staticmethod
    def _verify(dew_results: SimulationResults, baseline_stats) -> bool:
        for config, stats in baseline_stats.items():
            dew_result = dew_results.get(config)
            if dew_result is None:
                raise VerificationError(f"DEW produced no result for {config.label()}")
            if dew_result.misses != stats.misses:
                raise VerificationError(
                    f"DEW/baseline mismatch for {config.label()}: "
                    f"dew={dew_result.misses} baseline={stats.misses}"
                )
        return True

    # -- full sweeps ------------------------------------------------------------

    def run_table3(self, workers: Optional[int] = None) -> List[ExperimentCell]:
        """All (app, block size, associativity) cells of Table 3.

        With ``workers > 1`` the cells are fanned out over a process pool;
        each cell still runs (and times) both simulators inside one process,
        so per-cell speedup numbers keep their meaning.  Cell order — and,
        because traces are generated from fixed seeds, cell content — is
        identical to the serial sweep.
        """
        cell_params = [
            (app, block_size, associativity)
            for app in self.apps
            for block_size in self.block_sizes
            for associativity in self.associativities
        ]
        workers = self.workers if workers is None else workers
        if workers <= 1 or len(cell_params) <= 1:
            return [self.run_cell(*params) for params in cell_params]
        # Generate every trace up front so workers inherit them with the
        # runner instead of regenerating one per cell.
        self.traces()
        context = multiprocessing.get_context()
        with context.Pool(
            min(workers, len(cell_params)),
            initializer=_table3_worker_init,
            initargs=(self,),
        ) as pool:
            return pool.map(_table3_worker_cell, cell_params)

    def sweep_app(
        self,
        app: str,
        policies: Sequence[Union[str, ReplacementPolicy]] = (ReplacementPolicy.FIFO,),
        workers: Optional[int] = None,
        force: bool = False,
    ) -> SweepOutcome:
        """Sweep the runner's full grid for one application, incrementally.

        Decomposes ``(block_sizes x associativities x set_sizes x policies)``
        into engine jobs and executes them through :func:`run_sweep`'s fused
        single-pass executor, routed through the configured result store
        when one was given: a repeated campaign
        loads finished cells from disk and simulates only the cells that
        changed (``force=True`` re-runs everything).  The outcome is
        byte-identical to a cold run either way.
        """
        trace = self.trace_for(app)
        jobs = build_grid_jobs(
            block_sizes=self.block_sizes,
            associativities=self.associativities,
            set_sizes=self.set_sizes,
            policies=policies,
            seed=self.seed,
        )
        return run_sweep(
            trace,
            jobs,
            workers=self.workers if workers is None else workers,
            store=self.store(),
            force=force,
        )

    def run_table4(
        self,
        block_size: int = 4,
        associativities: Sequence[int] = (4, 8),
    ) -> List[PropertyCell]:
        """Property-effectiveness rows of Table 4 (one per application)."""
        rows = []
        for app in self.apps:
            trace = self.trace_for(app)
            per_assoc: Dict[int, Dict[str, int]] = {}
            shared: Optional[DewCounters] = None
            for associativity in associativities:
                dew = get_engine(
                    "dew",
                    block_size=block_size,
                    associativity=associativity,
                    set_sizes=self.set_sizes,
                )
                dew.run(trace)
                counters = dew.counters
                per_assoc[associativity] = {
                    "searches": counters.searches,
                    "wave_count": counters.wave_decisions,
                    "mre_count": counters.mre_decisions,
                }
                # Node evaluations and MRA counts are associativity
                # independent (the walk shape only depends on MRA state,
                # which only depends on the request stream); keep the first.
                if shared is None:
                    shared = counters
            assert shared is not None
            rows.append(
                PropertyCell(
                    app=app,
                    block_size=block_size,
                    requests=len(trace),
                    unoptimised_evaluations=shared.unoptimised_node_evaluations,
                    dew_evaluations=shared.node_evaluations,
                    mra_count=shared.mra_hits,
                    per_associativity=per_assoc,
                )
            )
        return rows

    def run_headline_claims(self, cells: Optional[Iterable[ExperimentCell]] = None) -> Dict[str, float]:
        """Aggregate the paper's headline numbers from Table 3 cells.

        Returns the minimum/maximum/mean speed-up and the comparison-ratio
        and reduction ranges, mirroring the claims in the abstract.
        """
        cell_list = list(cells) if cells is not None else self.run_table3()
        if not cell_list:
            return {}
        speedups = [cell.speedup for cell in cell_list]
        ratios = [cell.comparison_ratio for cell in cell_list]
        reductions = [cell.comparison_reduction_percent for cell in cell_list]
        return {
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "mean_speedup": sum(speedups) / len(speedups),
            "min_comparison_ratio": min(ratios),
            "max_comparison_ratio": max(ratios),
            "min_reduction_percent": min(reductions),
            "max_reduction_percent": max(reductions),
            "all_exact": float(all(cell.exact_match for cell in cell_list)),
        }
