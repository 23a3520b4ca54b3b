"""Exact-match verification of DEW against the reference simulator.

:func:`cross_check` verifies one DEW run (one block size, one associativity,
all set sizes) against independent single-configuration simulations;
:func:`cross_check_space` sweeps a whole :class:`ConfigSpace` the way the
paper verified all 525 configurations.  Both sides are constructed through
the engine registry, so any registered multi-configuration engine can be
verified the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import CacheConfig, ConfigSpace
from repro.core.results import ResultsFrame
from repro.engine import get_engine
from repro.errors import VerificationError
from repro.trace.trace import Trace
from repro.types import ReplacementPolicy


@dataclass
class CrossCheckReport:
    """Outcome of comparing DEW against the reference simulator."""

    trace_name: str
    configs_checked: int = 0
    mismatches: List[Tuple[CacheConfig, int, int]] = field(default_factory=list)
    dew_results: Optional[ResultsFrame] = None

    @property
    def exact(self) -> bool:
        """True when every configuration matched exactly."""
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        """Raise :class:`VerificationError` when any configuration differed."""
        if self.mismatches:
            config, dew_misses, reference_misses = self.mismatches[0]
            raise VerificationError(
                f"{len(self.mismatches)} configuration(s) differ; first: {config.label()} "
                f"dew={dew_misses} reference={reference_misses}"
            )

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "EXACT" if self.exact else f"{len(self.mismatches)} MISMATCHES"
        return f"cross-check {self.trace_name}: {self.configs_checked} configs, {status}"


def cross_check(
    trace: Union[Trace, Sequence[int]],
    block_size: int,
    associativity: int,
    set_sizes: Sequence[int],
    engine: str = "dew",
    **engine_options: bool,
) -> CrossCheckReport:
    """Verify one multi-configuration engine run against per-configuration references.

    ``engine`` names any registered family engine taking ``(block_size,
    associativity, set_sizes)`` — by default DEW; every configuration it
    reports is re-simulated independently through the ``single`` engine.
    """
    family = get_engine(
        engine,
        block_size=block_size,
        associativity=associativity,
        set_sizes=set_sizes,
        **engine_options,
    )
    dew_results = family.run(trace)
    trace_name = trace.name if isinstance(trace, Trace) else "trace"
    report = CrossCheckReport(trace_name=trace_name, dew_results=dew_results)
    for config in dew_results.configs():
        reference = get_engine("single", config=config)
        reference_results = reference.run(trace)
        report.configs_checked += 1
        if reference_results[config].misses != dew_results[config].misses:
            report.mismatches.append(
                (config, dew_results[config].misses, reference_results[config].misses)
            )
    return report


def cross_check_space(
    trace: Union[Trace, Sequence[int]],
    space: Optional[ConfigSpace] = None,
    raise_on_mismatch: bool = True,
) -> Dict[Tuple[int, int], CrossCheckReport]:
    """Verify DEW over a whole configuration space.

    The space is decomposed into DEW runs (one per block size and
    associativity, with direct-mapped results folded in) exactly as the
    paper's 525-configuration study was; each run is cross-checked against
    the reference simulator.

    Returns a mapping from ``(block_size, associativity)`` to the per-run
    report.
    """
    space = space or ConfigSpace.embedded_space(ReplacementPolicy.FIFO)
    reports: Dict[Tuple[int, int], CrossCheckReport] = {}
    for block_size, associativity, set_sizes in space.dew_runs():
        report = cross_check(trace, block_size, associativity, set_sizes)
        reports[(block_size, associativity)] = report
        if raise_on_mismatch:
            report.raise_on_mismatch()
    return reports
