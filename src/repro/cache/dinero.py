"""Dinero-style multi-configuration sweeps.

Dinero IV can only simulate one cache configuration per invocation, so
exploring ``N`` configurations costs ``N`` complete passes over the trace.
:class:`DineroStyleRunner` reproduces that cost model: it constructs one
:class:`~repro.cache.simulator.SingleConfigSimulator` (the ``single`` engine)
per configuration and replays the trace through each of them independently,
accumulating wall-clock time and tag-comparison counts.  This is the
baseline that Table 3, Figure 5 and Figure 6 measure DEW against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Union

from repro.cache.simulator import SingleConfigSimulator
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig, ConfigSpace
from repro.errors import SimulationError
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace


@dataclass
class DineroRunResult:
    """Outcome of sweeping a set of configurations one at a time."""

    stats: Dict[CacheConfig, CacheStats] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    trace_length: int = 0
    passes: int = 0

    @property
    def total_tag_comparisons(self) -> int:
        """Tag comparisons summed over every configuration simulated."""
        return sum(stat.tag_comparisons for stat in self.stats.values())

    def miss_count(self, config: CacheConfig) -> int:
        """Misses recorded for ``config``."""
        return self.stats[config].misses

    def miss_rates(self) -> Dict[CacheConfig, float]:
        """Miss rate per configuration."""
        return {config: stat.miss_rate for config, stat in self.stats.items()}

    def as_rows(self) -> List[Dict[str, object]]:
        """Flat list of per-configuration dictionaries for reporting."""
        rows = []
        for config, stat in sorted(self.stats.items()):
            row: Dict[str, object] = {
                "num_sets": config.num_sets,
                "associativity": config.associativity,
                "block_size": config.block_size,
                "policy": config.policy.value,
            }
            row.update(stat.as_dict())
            rows.append(row)
        return rows


class DineroStyleRunner:
    """Simulate many configurations the way Dinero IV would: one at a time.

    Parameters
    ----------
    configs:
        The configurations to sweep (a :class:`ConfigSpace` or any iterable
        of :class:`CacheConfig`).
    seed:
        Seed forwarded to stochastic replacement policies.
    """

    def __init__(
        self,
        configs: Union[ConfigSpace, Sequence[CacheConfig], Iterable[CacheConfig]],
        seed: int = 0,
    ) -> None:
        self.configs: List[CacheConfig] = list(configs)
        if not self.configs:
            raise SimulationError("DineroStyleRunner needs at least one configuration")
        if len(set(self.configs)) != len(self.configs):
            raise SimulationError("duplicate configurations in Dinero-style sweep")
        self.seed = seed

    def run(self, trace: Trace, chunk_size: int = DEFAULT_CHUNK_SIZE) -> DineroRunResult:
        """Replay ``trace`` once per configuration, in chunks of ``chunk_size``."""
        result = DineroRunResult(trace_length=len(trace))
        start = time.perf_counter()
        for config in self.configs:
            simulator = SingleConfigSimulator(config, seed=self.seed)
            simulator.run(trace, chunk_size=chunk_size)
            result.stats[config] = simulator.stats
            result.passes += 1
        result.elapsed_seconds = time.perf_counter() - start
        return result
