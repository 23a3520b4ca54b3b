"""Mediabench-style application workload models.

The paper evaluates DEW on six Mediabench programs traced with SimpleScalar
(Table 2).  Those traces cannot be regenerated offline, so each program is
modelled here as an :class:`~repro.workloads.mixes.InterleavedWorkload` of
the synthetic patterns that dominate its memory behaviour:

=================  ==============================================================
Application        Dominant behaviour modelled
=================  ==============================================================
``cjpeg``          8x8 blocked DCT walks over the input image, quantisation and
                   Huffman table look-ups, sequential output stream, hot
                   encoder loop for instruction fetches.
``djpeg``          Entropy-decode table look-ups, inverse-DCT blocked walks,
                   sequential writes of the decoded image.
``g721_enc``       Tight ADPCM loop over a sample stream with a very small
                   predictor state (high temporal locality, tiny working set).
``g721_dec``       Mirror image of the encoder with the same state footprint.
``mpeg2_enc``      Motion-estimation search windows (large working set, strided
                   revisits), DCT blocks and frame-buffer streaming.
``mpeg2_dec``      Motion-compensation reads, IDCT blocks and frame-buffer
                   writes.
=================  ==============================================================

The intent is not instruction-accurate fidelity but matching the *locality
regimes* the paper's numbers turn on: G721 is tiny and loop-dominated, JPEG
is block-structured with medium tables, MPEG2 has by far the largest
footprint and trace length.  ``PAPER_REQUEST_COUNTS`` records the paper's
Table 2 trace lengths so harnesses can preserve the relative scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import WorkloadError
from repro.trace.trace import Trace
from repro.workloads import PAPER_REQUEST_COUNTS
from repro.workloads.base import WorkloadGenerator
from repro.workloads.mixes import InterleavedWorkload
from repro.workloads.synthetic import (
    BlockedMatrixWalk,
    InstructionLoop,
    ReadModifyWrite,
    SequentialStream,
    StridedLoop,
    WorkingSetGenerator,
    ZipfGenerator,
)

@dataclass(frozen=True)
class MediabenchApp:
    """Descriptor of one modelled Mediabench application."""

    name: str
    description: str
    paper_requests: int

    def generator(self, seed: int = 0) -> WorkloadGenerator:
        """Build the workload generator modelling this application."""
        return mediabench_generator(self.name, seed=seed)


def _cjpeg(seed: int) -> WorkloadGenerator:
    return InterleavedWorkload(
        [
            ReadModifyWrite(
                StridedLoop(base=0x7000_0000, array_bytes=128, stride=4),
                repeat_probability=0.55, seed=seed),
            ReadModifyWrite(
                BlockedMatrixWalk(rows=128, cols=128, tile=8, element_bytes=2, tile_passes=2,
                                  base=0x1000_0000),
                repeat_probability=0.35, seed=seed),
            ReadModifyWrite(
                ZipfGenerator(blocks=256, block_bytes=32, exponent=1.2, base=0x2000_0000),
                repeat_probability=0.25, seed=seed),
            SequentialStream(base=0x3000_0000, stride=4, region_bytes=1 << 18),
            InstructionLoop(loop_bytes=768, call_probability=0.03, num_functions=12, seed=seed),
        ],
        weights=[0.33, 0.22, 0.12, 0.08, 0.25],
        seed=seed,
    )


def _djpeg(seed: int) -> WorkloadGenerator:
    return InterleavedWorkload(
        [
            ReadModifyWrite(
                StridedLoop(base=0x7000_0000, array_bytes=160, stride=4),
                repeat_probability=0.55, seed=seed),
            ReadModifyWrite(
                ZipfGenerator(blocks=512, block_bytes=32, exponent=1.1, base=0x2000_0000),
                repeat_probability=0.3, seed=seed),
            ReadModifyWrite(
                BlockedMatrixWalk(rows=96, cols=96, tile=8, element_bytes=2, tile_passes=2,
                                  base=0x1000_0000),
                repeat_probability=0.35, seed=seed),
            SequentialStream(base=0x3000_0000, stride=4, region_bytes=1 << 17),
            InstructionLoop(loop_bytes=640, call_probability=0.025, num_functions=10, seed=seed),
        ],
        weights=[0.34, 0.15, 0.20, 0.08, 0.23],
        seed=seed,
    )


def _g721_enc(seed: int) -> WorkloadGenerator:
    return InterleavedWorkload(
        [
            ReadModifyWrite(
                StridedLoop(base=0x7000_0000, array_bytes=96, stride=4),
                repeat_probability=0.6, seed=seed),
            ReadModifyWrite(
                StridedLoop(base=0x1000_0000, array_bytes=256, stride=4),
                repeat_probability=0.5, seed=seed),
            SequentialStream(base=0x2000_0000, stride=2, region_bytes=1 << 16),
            ReadModifyWrite(
                ZipfGenerator(blocks=64, block_bytes=16, exponent=1.3, base=0x3000_0000),
                repeat_probability=0.4, seed=seed),
            InstructionLoop(loop_bytes=320, call_probability=0.01, num_functions=4, seed=seed),
        ],
        weights=[0.34, 0.22, 0.08, 0.10, 0.26],
        seed=seed,
    )


def _g721_dec(seed: int) -> WorkloadGenerator:
    return InterleavedWorkload(
        [
            ReadModifyWrite(
                StridedLoop(base=0x7000_0000, array_bytes=112, stride=4),
                repeat_probability=0.6, seed=seed),
            ReadModifyWrite(
                StridedLoop(base=0x1000_0000, array_bytes=288, stride=4),
                repeat_probability=0.5, seed=seed),
            SequentialStream(base=0x2000_0000, stride=2, region_bytes=1 << 16),
            ReadModifyWrite(
                ZipfGenerator(blocks=64, block_bytes=16, exponent=1.3, base=0x3000_0000),
                repeat_probability=0.4, seed=seed),
            InstructionLoop(loop_bytes=352, call_probability=0.01, num_functions=4, seed=seed),
        ],
        weights=[0.34, 0.22, 0.08, 0.10, 0.26],
        seed=seed,
    )


def _mpeg2_enc(seed: int) -> WorkloadGenerator:
    return InterleavedWorkload(
        [
            ReadModifyWrite(
                StridedLoop(base=0x7000_0000, array_bytes=256, stride=4),
                repeat_probability=0.5, seed=seed),
            ReadModifyWrite(
                WorkingSetGenerator(hot_bytes=32 << 10, cold_bytes=2 << 20, hot_fraction=0.75,
                                    base=0x1000_0000),
                repeat_probability=0.3, seed=seed),
            ReadModifyWrite(
                BlockedMatrixWalk(rows=288, cols=352, tile=16, element_bytes=1, tile_passes=3,
                                  base=0x2000_0000),
                repeat_probability=0.25, seed=seed),
            SequentialStream(base=0x3000_0000, stride=8, region_bytes=2 << 20),
            StridedLoop(base=0x4000_0000, array_bytes=8192, stride=8),
            InstructionLoop(loop_bytes=1024, call_probability=0.04, num_functions=16, seed=seed),
        ],
        weights=[0.26, 0.16, 0.16, 0.08, 0.08, 0.26],
        seed=seed,
    )


def _mpeg2_dec(seed: int) -> WorkloadGenerator:
    return InterleavedWorkload(
        [
            ReadModifyWrite(
                StridedLoop(base=0x7000_0000, array_bytes=192, stride=4),
                repeat_probability=0.5, seed=seed),
            ReadModifyWrite(
                WorkingSetGenerator(hot_bytes=16 << 10, cold_bytes=1 << 20, hot_fraction=0.8,
                                    base=0x1000_0000),
                repeat_probability=0.3, seed=seed),
            ReadModifyWrite(
                BlockedMatrixWalk(rows=288, cols=352, tile=8, element_bytes=1, tile_passes=2,
                                  base=0x2000_0000),
                repeat_probability=0.25, seed=seed),
            SequentialStream(base=0x3000_0000, stride=8, region_bytes=1 << 20),
            InstructionLoop(loop_bytes=896, call_probability=0.03, num_functions=12, seed=seed),
        ],
        weights=[0.28, 0.18, 0.16, 0.10, 0.28],
        seed=seed,
    )


_BUILDERS = {
    "cjpeg": _cjpeg,
    "djpeg": _djpeg,
    "g721_enc": _g721_enc,
    "g721_dec": _g721_dec,
    "mpeg2_enc": _mpeg2_enc,
    "mpeg2_dec": _mpeg2_dec,
}

#: The six applications of Table 2, in the paper's order.
MEDIABENCH_APPS: Tuple[MediabenchApp, ...] = (
    MediabenchApp("cjpeg", "JPEG encode", PAPER_REQUEST_COUNTS["cjpeg"]),
    MediabenchApp("djpeg", "JPEG decode", PAPER_REQUEST_COUNTS["djpeg"]),
    MediabenchApp("g721_enc", "G.721 voice encode", PAPER_REQUEST_COUNTS["g721_enc"]),
    MediabenchApp("g721_dec", "G.721 voice decode", PAPER_REQUEST_COUNTS["g721_dec"]),
    MediabenchApp("mpeg2_enc", "MPEG-2 video encode", PAPER_REQUEST_COUNTS["mpeg2_enc"]),
    MediabenchApp("mpeg2_dec", "MPEG-2 video decode", PAPER_REQUEST_COUNTS["mpeg2_dec"]),
)


def mediabench_generator(app_name: str, seed: int = 0) -> WorkloadGenerator:
    """Return the workload generator modelling ``app_name``.

    Valid names are the keys of :data:`PAPER_REQUEST_COUNTS`.
    """
    try:
        builder = _BUILDERS[app_name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown Mediabench application {app_name!r}; valid names: {sorted(_BUILDERS)}"
        ) from exc
    generator = builder(seed)
    generator.name = app_name
    return generator


def mediabench_trace(app_name: str, num_requests: int, seed: int = 0) -> Trace:
    """Generate a trace of ``num_requests`` accesses modelling ``app_name``."""
    return mediabench_generator(app_name, seed=seed).generate(num_requests, seed=seed).with_name(app_name)


def scaled_request_count(app_name: str, scale_to_largest: int) -> int:
    """Scale Table 2's trace lengths so the largest app gets ``scale_to_largest``.

    Preserves the relative sizes of the six traces (MPEG2 encode being the
    largest) while keeping Python-side runtimes tractable.  A minimum of 1000
    requests is enforced so even heavily scaled-down traces exercise the
    caches meaningfully.
    """
    if scale_to_largest <= 0:
        raise WorkloadError("scale_to_largest must be positive")
    largest = max(PAPER_REQUEST_COUNTS.values())
    try:
        paper_count = PAPER_REQUEST_COUNTS[app_name]
    except KeyError as exc:
        raise WorkloadError(f"unknown Mediabench application {app_name!r}") from exc
    return max(int(round(paper_count * scale_to_largest / largest)), 1000)
