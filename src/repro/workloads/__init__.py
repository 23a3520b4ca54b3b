"""Workload substrate: synthetic memory-trace generators.

The paper drives its evaluation with SimpleScalar traces of six Mediabench
programs.  Neither SimpleScalar nor the Mediabench inputs are available
offline, so this package provides deterministic, parameterised generators
that model the dominant access structure of each program, plus a toolbox of
generic generators for tests and custom studies.
"""

from repro.workloads.base import WorkloadGenerator, GeneratorSpec
from repro.workloads.synthetic import (
    SequentialStream,
    StridedLoop,
    RandomUniform,
    WorkingSetGenerator,
    PointerChase,
    ZipfGenerator,
    BlockedMatrixWalk,
    InstructionLoop,
    ReadModifyWrite,
)
from repro.workloads.mixes import PhasedWorkload, InterleavedWorkload
from repro.workloads.mediabench import (
    MediabenchApp,
    MEDIABENCH_APPS,
    PAPER_REQUEST_COUNTS,
    mediabench_generator,
    mediabench_trace,
)

__all__ = [
    "WorkloadGenerator",
    "GeneratorSpec",
    "SequentialStream",
    "StridedLoop",
    "RandomUniform",
    "WorkingSetGenerator",
    "PointerChase",
    "ZipfGenerator",
    "BlockedMatrixWalk",
    "InstructionLoop",
    "ReadModifyWrite",
    "PhasedWorkload",
    "InterleavedWorkload",
    "MediabenchApp",
    "MEDIABENCH_APPS",
    "PAPER_REQUEST_COUNTS",
    "mediabench_generator",
    "mediabench_trace",
]
