"""Unified engine layer: one API over every simulator, plus parallel sweeps.

``get_engine("dew", block_size=16, associativity=4)`` constructs any
registered simulator behind the uniform :class:`~repro.engine.base.Engine`
protocol (``run_blocks(chunk)`` / ``finalize()``); :mod:`repro.engine.sweep`
fans grids of engines out over worker processes.  The simulators are the
engines; each registers itself when its module is imported:

========================  ====================================================
registry key              engine class
========================  ====================================================
``dew``                   :class:`repro.core.dew.DewSimulator` (one pass, all
                          set sizes of one FIFO ``(B, A)`` family + direct
                          mapped for free)
``single``                :class:`repro.cache.simulator.SingleConfigSimulator`
                          (one Dinero-style configuration, any policy)
``janapsatya``            :class:`repro.lru.janapsatya.JanapsatyaSimulator`
                          (one pass, all set sizes x associativities, LRU)
``miss-cache``,           :mod:`repro.mechanisms.engines` (one DL1
``stream-buffer``,        configuration plus a miss-path mechanism)
``victim-cache``
========================  ====================================================
"""

from repro.engine.base import (
    Engine,
    available_engines,
    get_engine,
    get_engine_class,
    register_engine,
)
from repro.engine.sweep import (
    FusedSweepExecutor,
    SweepJob,
    SweepOutcome,
    build_grid_jobs,
    build_mechanism_grid_jobs,
    merge_results,
    run_sweep,
)
from repro.mechanisms import (
    MissCacheEngine,
    StreamBufferEngine,
    VictimCacheEngine,
)

__all__ = [
    "Engine",
    "available_engines",
    "get_engine",
    "get_engine_class",
    "register_engine",
    "MissCacheEngine",
    "StreamBufferEngine",
    "VictimCacheEngine",
    "FusedSweepExecutor",
    "SweepJob",
    "SweepOutcome",
    "build_grid_jobs",
    "build_mechanism_grid_jobs",
    "merge_results",
    "run_sweep",
]
