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

from repro.explore.energy import EnergyModel, EnergyEstimate, FrameEnergyEstimate
from repro.explore.pareto import metric_matrix, pareto_front_frame, pareto_mask
from repro.explore.tuner import CacheTuner, TuningConstraints, TuningOutcome

__all__ = [
    "EnergyModel",
    "EnergyEstimate",
    "FrameEnergyEstimate",
    "metric_matrix",
    "pareto_front_frame",
    "pareto_mask",
    "CacheTuner",
    "TuningConstraints",
    "TuningOutcome",
]
