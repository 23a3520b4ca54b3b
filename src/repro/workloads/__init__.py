"""Workload substrate: synthetic memory-trace generators.

The paper drives its evaluation with SimpleScalar traces of six Mediabench
programs.  Neither SimpleScalar nor the Mediabench inputs are available
offline, so this package provides deterministic, parameterised generators
that model the dominant access structure of each program, plus a toolbox of
generic generators for tests and custom studies.
"""

from repro._lazy import lazy_exports

#: Trace lengths reported in Table 2 of the paper (number of requests), by
#: application.  Defined here, not in :mod:`repro.workloads.mediabench`,
#: so the CLI's parser reads the application names without importing the
#: generators (and numpy).
PAPER_REQUEST_COUNTS = {
    "cjpeg": 25_680_911,
    "djpeg": 7_617_458,
    "g721_enc": 154_999_563,
    "g721_dec": 154_856_346,
    "mpeg2_enc": 3_738_851_450,
    "mpeg2_dec": 1_411_434_040,
}

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".base": ("WorkloadGenerator", "GeneratorSpec"),
        ".synthetic": (
            "SequentialStream",
            "StridedLoop",
            "RandomUniform",
            "WorkingSetGenerator",
            "PointerChase",
            "ZipfGenerator",
            "BlockedMatrixWalk",
            "InstructionLoop",
            "ReadModifyWrite",
        ),
        ".mixes": ("PhasedWorkload", "InterleavedWorkload"),
        ".mediabench": (
            "MediabenchApp",
            "MEDIABENCH_APPS",
            "mediabench_generator",
            "mediabench_trace",
        ),
    },
)
__all__.append("PAPER_REQUEST_COUNTS")
