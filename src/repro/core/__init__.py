"""DEW core: the paper's primary contribution.

This package contains the single-pass, multi-configuration FIFO cache
simulator described in the paper:

``config``
    :class:`CacheConfig` and :class:`ConfigSpace` (the Table 1 parameter
    grid).
``tree``
    :class:`DewTree`, the binomial simulation tree of cache sets with wave
    pointers, MRA and MRE entries (Properties 1, 3 and 4).
``dew``
    :class:`DewSimulator`, the registered ``dew`` engine: the per-request
    walk implementing Algorithms 1 and 2 and Property 2 (MRA early stop).
``counters``
    :class:`DewCounters`, the instrumentation behind Table 4 and Figure 6.
``results``
    Per-configuration hit/miss results: the columnar :class:`ResultsFrame`
    every simulation run returns, and the :class:`ConfigResult` row it
    yields when iterated.
``properties``
    Executable statements of the four DEW properties, used by the test
    suite.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".config": ("CacheConfig", "ConfigSpace"),
        ".counters": ("DewCounters",),
        ".results": ("ConfigResult", "ResultsFrame"),
        ".tree": ("DewTree",),
        ".dew": ("DewSimulator",),
    },
)
