"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so applications can catch library failures with a single
``except`` clause while still letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid cache configuration or configuration space was requested.

    Raised, for example, when a set size or associativity is not a power of
    two, when a block size is zero, or when a configuration space is empty.
    """


class TraceError(ReproError):
    """A trace file or trace object is malformed or inconsistent."""


class TraceFormatError(TraceError):
    """A trace file could not be parsed in the requested format."""


class SimulationError(ReproError):
    """A simulator was driven into an inconsistent state.

    This normally indicates a bug in the caller (for instance, feeding
    negative addresses) rather than in the simulator itself.
    """


class EngineError(ReproError):
    """An engine lookup or sweep orchestration request was invalid.

    Raised for unknown registry keys, duplicate registrations and empty
    sweep plans.
    """


class StoreError(ReproError):
    """The persistent result store is unusable or incompatible.

    Raised when a store directory cannot be created, its schema version is
    not understood, or an artifact cannot be written.  Unreadable artifacts
    during lookup are *not* errors — they are treated as cache misses.
    """


class SweepAborted(ReproError):
    """A sweep was deliberately stopped between cells.

    Raised by a :func:`~repro.engine.sweep.run_sweep` ``on_result`` hook to
    abort the remaining work — the service daemon raises it when a running
    job's cancel request is observed.  ``run_sweep`` propagates it after
    tearing down its worker pool; cells persisted before the abort stay in
    the store, so a re-run resumes from them.
    """


class VerificationError(ReproError):
    """Cross-checking two simulators found differing hit/miss counts."""


class ExplorationError(ReproError):
    """Design-space exploration was asked an unsatisfiable question."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class ServiceError(ReproError):
    """The simulation service or its job queue was asked something invalid.

    Raised for unknown or ambiguous job ids, results requested before a job
    completes, cancellation of jobs past the point of no return, and
    incompatible service directory schemas.
    """
