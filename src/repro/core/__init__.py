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
    data spine plus the object-level multi-configuration result set
    returned by a simulation run.
``properties``
    Executable statements of the four DEW properties, used by the test
    suite.
"""

from repro.core.config import CacheConfig, ConfigSpace
from repro.core.counters import DewCounters
from repro.core.results import ConfigResult, ResultsFrame, SimulationResults
from repro.core.tree import DewTree
from repro.core.dew import DewSimulator

__all__ = [
    "CacheConfig",
    "ConfigSpace",
    "DewCounters",
    "ConfigResult",
    "ResultsFrame",
    "SimulationResults",
    "DewTree",
    "DewSimulator",
]
