"""Analytic cache energy and access-time model.

This is a deliberately transparent stand-in for CACTI-class estimators: the
goal is to rank configurations sensibly (bigger and more associative caches
cost more per access; misses cost main-memory energy and stall time), not to
predict joules for a particular process node.  All coefficients are explicit
constructor parameters so studies can substitute their own technology
numbers.

The default coefficients follow the usual first-order scaling arguments:

* dynamic read energy grows with capacity (word/bit-line length) and with
  associativity (ways probed in parallel);
* leakage power is proportional to capacity;
* a miss costs a main-memory access plus a line refill proportional to the
  block size.

:meth:`EnergyModel.estimate_frame` computes energy and access-time
*columns* over a whole :class:`~repro.core.results.ResultsFrame` in one shot
of numpy array operations; :meth:`FrameEnergyEstimate.estimate_at` gives one
row's :class:`EnergyEstimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.config import CacheConfig
from repro.core.results import ResultsFrame
from repro.errors import ExplorationError


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy/latency estimate for running one workload on one configuration."""

    config: CacheConfig
    accesses: int
    misses: int
    hit_energy_nj: float
    miss_energy_nj: float
    leakage_nj: float
    total_energy_nj: float
    average_access_time_ns: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for reporting."""
        return {
            "config": self.config.label(),
            "total_size": self.config.total_size,
            "accesses": self.accesses,
            "misses": self.misses,
            "hit_energy_nj": self.hit_energy_nj,
            "miss_energy_nj": self.miss_energy_nj,
            "leakage_nj": self.leakage_nj,
            "total_energy_nj": self.total_energy_nj,
            "average_access_time_ns": self.average_access_time_ns,
        }


@dataclass(frozen=True, eq=False)
class FrameEnergyEstimate:
    """Per-row energy/latency columns for one whole results frame.

    Every field is a numpy array parallel to the frame's rows; no per-row
    Python objects exist until a caller asks for one via :meth:`estimate_at`.
    The columns plug directly into
    :func:`~repro.explore.pareto.pareto_front_frame` metric matrices and
    the tuner's constraint masks.  Equality/hashing are object identity
    (``eq=False``): a generated ``__eq__`` over array fields would raise on
    truth-value ambiguity; compare the column arrays directly instead.
    """

    frame: ResultsFrame
    hit_energy_nj: np.ndarray
    miss_energy_nj: np.ndarray
    leakage_nj: np.ndarray
    total_energy_nj: np.ndarray
    average_access_time_ns: np.ndarray

    def __len__(self) -> int:
        return len(self.frame)

    def estimate_at(self, row: int) -> EnergyEstimate:
        """Materialise the object-level estimate for one frame row."""
        return EnergyEstimate(
            config=self.frame.config_at(row),
            accesses=int(self.frame.accesses[row]),
            misses=int(self.frame.misses[row]),
            hit_energy_nj=float(self.hit_energy_nj[row]),
            miss_energy_nj=float(self.miss_energy_nj[row]),
            leakage_nj=float(self.leakage_nj[row]),
            total_energy_nj=float(self.total_energy_nj[row]),
            average_access_time_ns=float(self.average_access_time_ns[row]),
        )


class EnergyModel:
    """First-order analytic energy/latency model for L1 caches.

    Parameters
    ----------
    base_hit_energy_nj:
        Dynamic energy of reading a minimal (1-set, 1-way, smallest-block)
        cache, in nanojoules.
    capacity_exponent:
        Hit energy scales with ``(capacity / reference_capacity) ** exponent``.
    associativity_factor:
        Extra energy per additional way probed, as a fraction of the hit
        energy.
    miss_energy_nj:
        Fixed main-memory access energy charged per miss.
    refill_energy_per_byte_nj:
        Additional energy per byte of the refilled block.
    leakage_nw_per_byte:
        Leakage power per byte of capacity (nanowatts); combined with
        ``cycle_time_ns`` and the trace length to charge static energy.
    hit_time_ns / miss_penalty_ns:
        Latency parameters for the average-access-time estimate.
    """

    def __init__(
        self,
        base_hit_energy_nj: float = 0.01,
        reference_capacity: int = 1024,
        capacity_exponent: float = 0.5,
        associativity_factor: float = 0.18,
        miss_energy_nj: float = 2.0,
        refill_energy_per_byte_nj: float = 0.02,
        leakage_nw_per_byte: float = 0.01,
        cycle_time_ns: float = 1.0,
        hit_time_ns: float = 1.0,
        miss_penalty_ns: float = 40.0,
    ) -> None:
        if base_hit_energy_nj <= 0 or miss_energy_nj < 0 or reference_capacity <= 0:
            raise ExplorationError("energy model coefficients must be positive")
        self.base_hit_energy_nj = base_hit_energy_nj
        self.reference_capacity = reference_capacity
        self.capacity_exponent = capacity_exponent
        self.associativity_factor = associativity_factor
        self.miss_energy_nj = miss_energy_nj
        self.refill_energy_per_byte_nj = refill_energy_per_byte_nj
        self.leakage_nw_per_byte = leakage_nw_per_byte
        self.cycle_time_ns = cycle_time_ns
        self.hit_time_ns = hit_time_ns
        self.miss_penalty_ns = miss_penalty_ns

    # -- per-configuration quantities ------------------------------------------

    def hit_energy_nj(self, config: CacheConfig) -> float:
        """Dynamic energy of one hit in ``config`` (nanojoules)."""
        capacity_scale = (max(config.total_size, 1) / self.reference_capacity) ** self.capacity_exponent
        associativity_scale = 1.0 + self.associativity_factor * (config.associativity - 1)
        return self.base_hit_energy_nj * capacity_scale * associativity_scale

    def miss_cost_nj(self, config: CacheConfig) -> float:
        """Energy of one miss (memory access plus line refill)."""
        return self.miss_energy_nj + self.refill_energy_per_byte_nj * config.block_size

    def access_time_ns(self, config: CacheConfig) -> float:
        """Hit access time; grows gently (log) with capacity and ways."""
        return self.hit_time_ns * (
            1.0
            + 0.08 * math.log2(max(config.total_size, 1))
            + 0.05 * math.log2(max(config.associativity, 1))
        )

    # -- vectorised kernel -------------------------------------------------------

    def _estimate_columns(
        self,
        total_sizes: np.ndarray,
        associativities: np.ndarray,
        block_sizes: np.ndarray,
        accesses: np.ndarray,
        misses: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All energy/latency columns from raw per-row arrays, in one shot."""
        total = np.asarray(total_sizes, dtype=np.float64)
        ways = np.asarray(associativities, dtype=np.float64)
        blocks = np.asarray(block_sizes, dtype=np.float64)
        accesses = np.asarray(accesses, dtype=np.float64)
        misses = np.asarray(misses, dtype=np.float64)
        capacity = np.maximum(total, 1.0)
        capacity_scale = (capacity / self.reference_capacity) ** self.capacity_exponent
        associativity_scale = 1.0 + self.associativity_factor * (ways - 1.0)
        hit_energy = self.base_hit_energy_nj * capacity_scale * associativity_scale * accesses
        miss_energy = (self.miss_energy_nj + self.refill_energy_per_byte_nj * blocks) * misses
        runtime_ns = accesses * self.cycle_time_ns + misses * self.miss_penalty_ns
        leakage = self.leakage_nw_per_byte * total * runtime_ns * 1e-9
        total_energy = hit_energy + miss_energy + leakage
        access_time = self.hit_time_ns * (
            1.0
            + 0.08 * np.log2(capacity)
            + 0.05 * np.log2(np.maximum(ways, 1.0))
        )
        populated = accesses > 0
        miss_rate = np.zeros(accesses.shape, dtype=np.float64)
        np.divide(misses, accesses, out=miss_rate, where=populated)
        average_time = np.where(
            populated, access_time + miss_rate * self.miss_penalty_ns, 0.0
        )
        return hit_energy, miss_energy, leakage, total_energy, average_time

    def estimate_frame(self, frame: ResultsFrame) -> FrameEnergyEstimate:
        """Energy/latency columns for every row of ``frame`` at once."""
        hit_energy, miss_energy, leakage, total_energy, average_time = self._estimate_columns(
            frame.total_sizes(),
            frame.associativities,
            frame.block_sizes,
            frame.accesses,
            frame.misses,
        )
        return FrameEnergyEstimate(
            frame=frame,
            hit_energy_nj=hit_energy,
            miss_energy_nj=miss_energy,
            leakage_nj=leakage,
            total_energy_nj=total_energy,
            average_access_time_ns=average_time,
        )
