"""Unified engine layer: one API over every simulator, plus parallel sweeps.

``get_engine("dew", block_size=16, associativity=4)`` constructs any
registered simulator behind the uniform :class:`~repro.engine.base.Engine`
protocol (``run(trace)``, the one whole-trace driver, or ``run_blocks(chunk)``
then ``finalize()``; either returns a
:class:`~repro.core.results.ResultsFrame`); :mod:`repro.engine.sweep`
runs grids of engines through ``run``, serially or over worker processes.  The simulators are the
engines.  The registry is a table (:data:`repro.engine.base.ENGINES`) of
each key's module and class: listing it imports nothing, and the first
lookup of a key imports that engine's module.  Importing
:mod:`repro.engine.sweep` looks every engine up, so no sweep imports one
mid-run:

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
``miss-cache``,           :mod:`repro.mechanisms.engines` (one pass, one DL1
``stream-buffer``,        configuration plus a miss-path mechanism at every
``victim-cache``          entry count)
========================  ====================================================
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": (
            "Engine",
            "available_engines",
            "get_engine",
            "get_engine_class",
        ),
        "repro.mechanisms.engines": (
            "MissCacheEngine",
            "StreamBufferEngine",
            "VictimCacheEngine",
        ),
        ".sweep": (
            "FusedSweepExecutor",
            "SweepJob",
            "SweepOutcome",
            "build_grid_jobs",
            "build_mechanism_grid_jobs",
            "run_sweep",
        ),
    },
)
