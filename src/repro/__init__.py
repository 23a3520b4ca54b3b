"""repro: a reproduction of DEW, the single-pass multi-configuration FIFO
L1 cache simulator of Haque et al. (DATE 2010).

The package is organised by subsystem (the README's "Architecture" section
has the full inventory):

* :mod:`repro.core` — the DEW simulator itself (binomial simulation tree,
  wave pointers, MRA/MRE shortcuts) and the configuration space.
* :mod:`repro.cache` — a conventional single-configuration reference
  simulator with pluggable replacement policies (the Dinero IV stand-in).
* :mod:`repro.lru` — the single-pass LRU baseline (Janapsatya-style
  simulator).
* :mod:`repro.trace` — trace containers, file formats, statistics, filters.
* :mod:`repro.workloads` — synthetic Mediabench-style workload generators.
* :mod:`repro.explore` — energy model, Pareto fronts and cache tuning.
* :mod:`repro.engine` — the uniform engine layer: every simulator behind one
  ``run_blocks``/``finalize`` protocol, a string-keyed registry
  (``get_engine("dew", ...)``) and a process-parallel sweep orchestrator.
* :mod:`repro.store` — content-addressed persistent result store; sweeps
  routed through it are incremental and resumable (``open_store(path)``).
* :mod:`repro.bench` — the harness regenerating the paper's tables/figures.
* :mod:`repro.verify` — exact-match cross-checking between simulators.

Quickstart
----------
>>> from repro import DewSimulator, mediabench_trace
>>> trace = mediabench_trace("cjpeg", 10_000)
>>> results = DewSimulator(block_size=16, associativity=4,
...                        set_sizes=(1, 2, 4, 8, 16, 32)).run(trace)
>>> len(results)            # 6 four-way + 6 direct-mapped configurations
12
"""

from repro._version import __version__
from repro.core.config import CacheConfig, ConfigSpace
from repro.core.counters import DewCounters
from repro.core.dew import DewSimulator
from repro.core.results import ConfigResult, ResultsFrame
from repro.core.tree import DewTree
from repro.cache.dinero import DineroRunResult, DineroStyleRunner
from repro.cache.simulator import SingleConfigSimulator
from repro.cache.stats import CacheStats
from repro.engine import (
    Engine,
    FusedSweepExecutor,
    SweepJob,
    SweepOutcome,
    available_engines,
    build_grid_jobs,
    get_engine,
    register_engine,
    run_sweep,
)
from repro.lru.janapsatya import JanapsatyaSimulator
from repro.store import ResultStore, StoreKey, open_store
from repro.trace.trace import Trace, TraceBuilder
from repro.trace.din import read_din, write_din
from repro.types import AccessType, ReplacementPolicy
from repro.verify.crosscheck import cross_check, cross_check_space
from repro.workloads.mediabench import MEDIABENCH_APPS, mediabench_trace
from repro.explore.tuner import CacheTuner, TuningConstraints

__all__ = [
    "__version__",
    "CacheConfig",
    "ConfigSpace",
    "DewCounters",
    "DewSimulator",
    "ConfigResult",
    "ResultsFrame",
    "DewTree",
    "DineroRunResult",
    "DineroStyleRunner",
    "SingleConfigSimulator",
    "CacheStats",
    "Engine",
    "available_engines",
    "get_engine",
    "register_engine",
    "SweepJob",
    "SweepOutcome",
    "build_grid_jobs",
    "run_sweep",
    "FusedSweepExecutor",
    "JanapsatyaSimulator",
    "ResultStore",
    "StoreKey",
    "open_store",
    "Trace",
    "TraceBuilder",
    "read_din",
    "write_din",
    "AccessType",
    "ReplacementPolicy",
    "cross_check",
    "cross_check_space",
    "MEDIABENCH_APPS",
    "mediabench_trace",
    "CacheTuner",
    "TuningConstraints",
]
