"""Constraint-driven cache selection.

:class:`CacheTuner` is the "so what" of fast multi-configuration simulation:
run DEW once per (block size, associativity) family, hand the combined
results to the tuner together with area/performance/energy constraints, and
get back the configuration an embedded designer would pick.

The tuner is frame-native: :meth:`CacheTuner.tune_frame` and
:meth:`CacheTuner.rank_frame` evaluate constraints as boolean masks over
:class:`~repro.core.results.ResultsFrame` columns and pick winners with
vectorised argmin/lexsort — no per-row :class:`ConfigResult` or
:class:`EnergyEstimate` objects exist until the chosen rows are
materialised.  The object-based :meth:`CacheTuner.tune`/:meth:`CacheTuner.rank`
APIs are thin wrappers that coerce their input to a frame and delegate;
ties on (objective value, total size) resolve toward the frame's canonical
row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.config import CacheConfig
from repro.core.results import ConfigResult, ResultsFrame, SimulationResults
from repro.errors import ExplorationError
from repro.explore.energy import EnergyEstimate, EnergyModel, FrameEnergyEstimate


@dataclass(frozen=True)
class TuningConstraints:
    """Hard limits a candidate configuration must satisfy."""

    max_total_size: Optional[int] = None
    max_miss_rate: Optional[float] = None
    max_energy_nj: Optional[float] = None
    max_average_access_time_ns: Optional[float] = None
    min_associativity: Optional[int] = None
    max_associativity: Optional[int] = None

    def admits(self, result: ConfigResult, estimate: EnergyEstimate) -> bool:
        """Check whether one configuration satisfies every constraint."""
        config = result.config
        if self.max_total_size is not None and config.total_size > self.max_total_size:
            return False
        if self.max_miss_rate is not None and result.miss_rate > self.max_miss_rate:
            return False
        if self.max_energy_nj is not None and estimate.total_energy_nj > self.max_energy_nj:
            return False
        if (
            self.max_average_access_time_ns is not None
            and estimate.average_access_time_ns > self.max_average_access_time_ns
        ):
            return False
        if self.min_associativity is not None and config.associativity < self.min_associativity:
            return False
        if self.max_associativity is not None and config.associativity > self.max_associativity:
            return False
        return True

    def admit_mask(self, frame: ResultsFrame, energy: FrameEnergyEstimate) -> np.ndarray:
        """Per-row admissibility of a whole frame as one boolean mask."""
        mask = np.ones(len(frame), dtype=bool)
        if self.max_total_size is not None:
            mask &= frame.total_sizes() <= self.max_total_size
        if self.max_miss_rate is not None:
            mask &= frame.miss_rate_column() <= self.max_miss_rate
        if self.max_energy_nj is not None:
            mask &= energy.total_energy_nj <= self.max_energy_nj
        if self.max_average_access_time_ns is not None:
            mask &= energy.average_access_time_ns <= self.max_average_access_time_ns
        if self.min_associativity is not None:
            mask &= frame.associativities >= self.min_associativity
        if self.max_associativity is not None:
            mask &= frame.associativities <= self.max_associativity
        return mask


@dataclass(frozen=True)
class TuningOutcome:
    """The tuner's decision and the evidence behind it."""

    best: ConfigResult
    estimate: EnergyEstimate
    objective_value: float
    candidates_considered: int
    candidates_admitted: int
    mechanism: str = "none"
    mechanism_entries: int = 0

    def label(self) -> str:
        """Cache label plus the mechanism rider, matching the pareto output."""
        label = self.best.config.label()
        if self.mechanism != "none":
            label += f"+{self.mechanism}x{self.mechanism_entries}"
        return label

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting."""
        row: Dict[str, object] = {
            "config": self.label(),
            "total_size": self.best.config.total_size,
            "miss_rate": self.best.miss_rate,
            "total_energy_nj": self.estimate.total_energy_nj,
            "average_access_time_ns": self.estimate.average_access_time_ns,
            "objective_value": self.objective_value,
            "candidates_considered": self.candidates_considered,
            "candidates_admitted": self.candidates_admitted,
        }
        if self.mechanism != "none":
            row["mechanism"] = self.mechanism
            row["mechanism_entries"] = self.mechanism_entries
        return row


def _coerce_frame(
    results: Union[ResultsFrame, SimulationResults, Iterable[ConfigResult]],
) -> ResultsFrame:
    """A columnar view of any results-like input (no copy when already framed).

    Plain iterables may repeat a configuration — e.g. two concatenated
    result lists sharing DEW's free direct-mapped rows, which the historical
    object loop simply iterated over.  Exact duplicates are collapsed;
    duplicates that disagree on their counts are ambiguous and raise
    :class:`~repro.errors.ExplorationError`.
    """
    if isinstance(results, ResultsFrame):
        return results
    if isinstance(results, SimulationResults):
        return results.frame()
    unique: Dict[CacheConfig, ConfigResult] = {}
    for result in results:
        previous = unique.setdefault(result.config, result)
        if previous is not result and previous != result:
            raise ExplorationError(
                f"conflicting duplicate results for {result.config.label()}"
            )
    return ResultsFrame.from_results(unique.values())


class CacheTuner:
    """Select the best configuration from simulation results under constraints.

    Parameters
    ----------
    energy_model:
        The analytic model used for energy/latency terms (default model if
        omitted).
    objective:
        What to minimise among admissible configurations: ``"misses"``,
        ``"energy"``, ``"edp"`` (energy-delay product) or ``"amat"``
        (average access time).
    """

    _OBJECTIVES = ("misses", "energy", "edp", "amat")

    def __init__(self, energy_model: Optional[EnergyModel] = None, objective: str = "energy") -> None:
        if objective not in self._OBJECTIVES:
            raise ExplorationError(
                f"unknown objective {objective!r}; expected one of {self._OBJECTIVES}"
            )
        self.energy_model = energy_model or EnergyModel()
        self.objective = objective

    def _objective_column(self, frame: ResultsFrame, energy: FrameEnergyEstimate) -> np.ndarray:
        if self.objective == "misses":
            return frame.misses.astype(np.float64)
        if self.objective == "energy":
            return energy.total_energy_nj
        if self.objective == "amat":
            return energy.average_access_time_ns
        # Energy-delay product: energy x total run time (in arbitrary but
        # consistent units).
        runtime = frame.accesses * energy.average_access_time_ns
        return energy.total_energy_nj * runtime

    def _admitted_order(
        self,
        frame: ResultsFrame,
        constraints: TuningConstraints,
    ):
        """Shared mask/sort machinery behind tune_frame and rank_frame.

        Returns ``(energy, admitted_rows, objective, order)`` where ``order``
        sorts the admitted rows by (objective, total size, row index).
        """
        energy = self.energy_model.estimate_frame(frame)
        mask = constraints.admit_mask(frame, energy)
        rows = np.flatnonzero(mask)
        objective = self._objective_column(frame, energy)[rows]
        sizes = frame.total_sizes()[rows]
        order = np.lexsort((rows, sizes, objective))
        return energy, rows, objective, order

    def tune_frame(
        self,
        frame: ResultsFrame,
        constraints: Optional[TuningConstraints] = None,
    ) -> TuningOutcome:
        """Pick the admissible row minimising the objective, frame-natively.

        Raises :class:`~repro.errors.ExplorationError` when no row satisfies
        the constraints.
        """
        constraints = constraints or TuningConstraints()
        energy, rows, objective, order = self._admitted_order(frame, constraints)
        if rows.size == 0:
            raise ExplorationError("no configuration satisfies the tuning constraints")
        winner = int(order[0])
        best_row = int(rows[winner])
        return TuningOutcome(
            best=frame.result_at(best_row),
            estimate=energy.estimate_at(best_row),
            objective_value=float(objective[winner]),
            candidates_considered=len(frame),
            candidates_admitted=int(rows.size),
            mechanism=frame.mechanism_at(best_row),
            mechanism_entries=int(frame.mechanism_entries[best_row]),
        )

    def rank_frame(
        self,
        frame: ResultsFrame,
        constraints: Optional[TuningConstraints] = None,
        top: int = 10,
    ) -> List[TuningOutcome]:
        """The ``top`` admissible rows ordered by the objective, frame-natively."""
        constraints = constraints or TuningConstraints()
        energy, rows, objective, order = self._admitted_order(frame, constraints)
        outcomes = []
        for position in order[: max(top, 0)]:
            row = int(rows[int(position)])
            outcomes.append(
                TuningOutcome(
                    best=frame.result_at(row),
                    estimate=energy.estimate_at(row),
                    objective_value=float(objective[int(position)]),
                    candidates_considered=len(frame),
                    candidates_admitted=int(rows.size),
                    mechanism=frame.mechanism_at(row),
                    mechanism_entries=int(frame.mechanism_entries[row]),
                )
            )
        return outcomes

    def tune(
        self,
        results: Union[ResultsFrame, SimulationResults, Iterable[ConfigResult]],
        constraints: Optional[TuningConstraints] = None,
    ) -> TuningOutcome:
        """Pick the admissible configuration minimising the objective.

        Thin wrapper: coerces ``results`` to a columnar frame and delegates
        to :meth:`tune_frame`.  Raises
        :class:`~repro.errors.ExplorationError` when no configuration
        satisfies the constraints.
        """
        return self.tune_frame(_coerce_frame(results), constraints=constraints)

    def rank(
        self,
        results: Union[ResultsFrame, SimulationResults, Iterable[ConfigResult]],
        constraints: Optional[TuningConstraints] = None,
        top: int = 10,
    ) -> List[TuningOutcome]:
        """Return the ``top`` admissible configurations ordered by the objective.

        Thin wrapper over :meth:`rank_frame`; every outcome reports the full
        considered/admitted totals.
        """
        return self.rank_frame(_coerce_frame(results), constraints=constraints, top=top)


def tune_from_results(
    results: SimulationResults,
    objective: str = "energy",
    constraints: Optional[TuningConstraints] = None,
    energy_model: Optional[EnergyModel] = None,
) -> TuningOutcome:
    """One-call convenience wrapper around :class:`CacheTuner`."""
    tuner = CacheTuner(energy_model=energy_model, objective=objective)
    return tuner.tune(results, constraints=constraints)
