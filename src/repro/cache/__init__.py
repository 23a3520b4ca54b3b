"""Reference single-configuration cache simulator (the "Dinero IV" stand-in).

This package provides a conventional trace-driven, set-associative cache
model with pluggable replacement policies.  It plays three roles in
the reproduction:

* it is the *baseline* the paper compares against (Dinero IV simulates one
  configuration per pass over the trace), exposed through
  :class:`~repro.cache.dinero.DineroStyleRunner`;
* it is the registered ``single`` engine
  (:class:`~repro.cache.simulator.SingleConfigSimulator`), the reference for
  every replacement policy in sweeps;
* it is the *oracle* used to verify that DEW's single-pass results are exact
  (:mod:`repro.verify`).
"""

from repro.cache.policies import (
    FifoPolicy,
    LruPolicy,
    PlruPolicy,
    RandomPolicy,
    ReplacementPolicyModel,
    make_policy,
)
from repro.cache.cacheset import CacheSet
from repro.cache.stats import CacheStats
from repro.cache.simulator import SingleConfigSimulator
from repro.cache.dinero import DineroStyleRunner, DineroRunResult

__all__ = [
    "FifoPolicy",
    "LruPolicy",
    "PlruPolicy",
    "RandomPolicy",
    "ReplacementPolicyModel",
    "make_policy",
    "CacheSet",
    "CacheStats",
    "SingleConfigSimulator",
    "DineroStyleRunner",
    "DineroRunResult",
]
