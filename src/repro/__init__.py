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

Importing :mod:`repro` (or any of its packages) imports none of them: each
name below is re-exported lazily, and imports its module on first access
(see :mod:`repro._lazy`).  ``from repro import DewSimulator`` loads DEW and
what it needs, and ``import repro.cli`` stays clear of numpy until a
command runs.

Quickstart
----------
>>> from repro import DewSimulator, mediabench_trace
>>> trace = mediabench_trace("cjpeg", 10_000)
>>> results = DewSimulator(block_size=16, associativity=4,
...                        set_sizes=(1, 2, 4, 8, 16, 32)).run(trace)
>>> len(results)            # 6 four-way + 6 direct-mapped configurations
12
"""

from repro._lazy import lazy_exports
from repro._version import __version__

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".core.config": ("CacheConfig", "ConfigSpace"),
        ".core.counters": ("DewCounters",),
        ".core.dew": ("DewSimulator",),
        ".core.results": ("ConfigResult", "ResultsFrame"),
        ".core.tree": ("DewTree",),
        ".cache.dinero": ("DineroRunResult", "DineroStyleRunner"),
        ".cache.simulator": ("SingleConfigSimulator",),
        ".cache.stats": ("CacheStats",),
        ".engine.base": ("Engine", "available_engines", "get_engine"),
        ".engine.sweep": (
            "SweepJob",
            "SweepOutcome",
            "build_grid_jobs",
            "run_sweep",
            "FusedSweepExecutor",
        ),
        ".lru.janapsatya": ("JanapsatyaSimulator",),
        ".store.resultstore": ("ResultStore", "StoreKey", "open_store"),
        ".trace.trace": ("Trace", "TraceBuilder"),
        ".trace.din": ("read_din", "write_din"),
        ".types": ("AccessType", "ReplacementPolicy"),
        ".verify.crosscheck": ("cross_check", "cross_check_space"),
        ".workloads.mediabench": ("MEDIABENCH_APPS", "mediabench_trace"),
        ".explore.tuner": ("CacheTuner", "TuningConstraints"),
    },
    submodules=(
        "bench", "cache", "core", "engine", "explore", "kernels", "lru", "mechanisms",
        "obs", "service", "store", "trace", "verify", "workloads",
    ),
)
__all__.insert(0, "__version__")
