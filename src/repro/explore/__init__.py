"""Design-space exploration on top of multi-configuration simulation results.

The paper's motivation (Section 1) is embedded cache tuning: given exact
hit/miss counts for hundreds of configurations, pick the cache that meets
energy/performance/cost constraints.  This package closes that loop:

``energy``
    An analytic per-access energy and access-time model in the spirit of
    CACTI-style estimators (documented, deliberately simple coefficients).
``pareto``
    Pareto-front extraction over (size, miss rate, energy, ...) metrics.
``tuner``
    Constraint-driven selection of the best configuration for a workload.

All three run on :class:`~repro.core.results.ResultsFrame` columns with
vectorised numpy kernels (``pareto_front_frame``,
``EnergyModel.estimate_frame``, ``CacheTuner.tune_frame``/``rank_frame``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".energy": ("EnergyModel", "EnergyEstimate", "FrameEnergyEstimate"),
        ".pareto": ("metric_matrix", "pareto_front_frame", "pareto_mask"),
        ".tuner": ("CacheTuner", "TuningConstraints", "TuningOutcome"),
    },
)
