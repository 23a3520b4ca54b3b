"""Unified engine layer: one API over every simulator, plus parallel sweeps.

``get_engine("dew", block_size=16, associativity=4)`` constructs any
registered simulator behind the uniform :class:`~repro.engine.base.Engine`
protocol (``run_blocks(chunk)`` / ``finalize()``); :mod:`repro.engine.sweep`
fans grids of engines out over worker processes.  See
:mod:`repro.engine.adapters` for the registry inventory.
"""

from repro.engine.base import (
    Engine,
    available_engines,
    get_engine,
    get_engine_class,
    register_engine,
)
from repro.engine.adapters import (
    DewEngine,
    JanapsatyaEngine,
    SingleConfigEngine,
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
    "DewEngine",
    "SingleConfigEngine",
    "JanapsatyaEngine",
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
