"""Reference single-configuration cache simulator (the "Dinero IV" stand-in).

This package provides a conventional trace-driven, set-associative cache
model with pluggable replacement policies.  It plays three roles in
the reproduction:

* it is the *baseline* the paper compares against (Dinero IV simulates one
  configuration per pass over the trace), exposed through
  :class:`~repro.cache.dinero.DineroStyleRunner`;
* it is the registered ``single`` engine
  (:class:`~repro.cache.simulator.SingleConfigSimulator`), the reference for
  every replacement policy in sweeps and the DL1 of the mechanism engines,
  which runs the compiled ``single`` kernel for FIFO, LRU and PLRU wherever
  it loads;
* it is the *oracle* used to verify that DEW's single-pass results are exact
  (:mod:`repro.verify`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".policies": (
            "FifoPolicy",
            "LruPolicy",
            "PlruPolicy",
            "RandomPolicy",
            "ReplacementPolicyModel",
            "make_policy",
        ),
        ".cacheset": ("CacheSet",),
        ".stats": ("CacheStats",),
        ".simulator": ("SingleConfigSimulator",),
        ".dinero": ("DineroStyleRunner", "DineroRunResult"),
    },
)
