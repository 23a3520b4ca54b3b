"""Miss-path mechanism engines: victim cache, miss cache, stream buffers.

Each engine composes the single-configuration DL1 simulator
(:class:`repro.cache.simulator.SingleConfigSimulator`) with a small buffer
probed on DL1 misses.  One engine takes every entry count of its mechanism
and emits one :class:`~repro.core.results.ResultsFrame` row per count,
keyed by ``(config, mechanism, entries)``, from a single DL1 pass: the
victim and miss caches keep one recency list cut at the largest count, and
stream buffers one set of stream heads per count.  The probes run in
``kernels/mechanisms.c`` wherever it builds.  ``repro-dew explore
pareto/tune`` can then rank "victim cache vs miss cache vs bigger L1"
directly.

The engine registry's table (:mod:`repro.engine.base`) names the engines
(``victim-cache``, ``miss-cache``, ``stream-buffer``) and imports
:mod:`repro.mechanisms.engines` on the first lookup of one of them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".engines": (
            "MECHANISM_ENGINE_NAMES",
            "MechanismEngine",
            "MissCacheEngine",
            "StreamBufferEngine",
            "VictimCacheEngine",
            "entry_counts",
        ),
    },
)
