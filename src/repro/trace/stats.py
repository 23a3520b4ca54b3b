"""Trace-level statistics.

These statistics characterise *why* a given workload benefits (or not) from
DEW's shortcuts: a high fraction of immediately-repeated block accesses feeds
Property 2 (MRA), while a compact working set keeps wave pointers valid for
longer (Property 3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.trace.trace import Trace
from repro.types import AccessType


@dataclass
class TraceStatistics:
    """Summary statistics of a trace at a particular block size."""

    name: str
    length: int
    block_size: int
    unique_blocks: int
    repeat_block_fraction: float
    read_fraction: float
    write_fraction: float
    ifetch_fraction: float
    address_span: int
    mean_reuse_distance: float
    reuse_distance_histogram: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view (convenient for CSV/JSON reporting)."""
        return {
            "name": self.name,
            "length": self.length,
            "block_size": self.block_size,
            "unique_blocks": self.unique_blocks,
            "repeat_block_fraction": self.repeat_block_fraction,
            "read_fraction": self.read_fraction,
            "write_fraction": self.write_fraction,
            "ifetch_fraction": self.ifetch_fraction,
            "address_span": self.address_span,
            "mean_reuse_distance": self.mean_reuse_distance,
        }


def reuse_distances(block_addresses: np.ndarray) -> List[int]:
    """Per-access LRU stack distance over block addresses.

    The distance of an access is the number of *distinct* blocks referenced
    since the previous access to the same block, or ``-1`` for a first-time
    (compulsory) access.  This simple O(n·d) stack implementation is intended
    for reporting on modest traces, and is the package's only stack-distance
    computation.
    """
    stack: List[int] = []
    result: List[int] = []
    for block in block_addresses.tolist():
        try:
            index = stack.index(block)
        except ValueError:
            stack.append(block)
            result.append(-1)
            continue
        result.append(len(stack) - index - 1)
        stack.pop(index)
        stack.append(block)
    return result


def compute_trace_statistics(trace: Trace, block_size: int = 32) -> TraceStatistics:
    """Compute :class:`TraceStatistics` for ``trace`` at ``block_size`` bytes."""
    length = len(trace)
    if length == 0:
        return TraceStatistics(
            name=trace.name,
            length=0,
            block_size=block_size,
            unique_blocks=0,
            repeat_block_fraction=0.0,
            read_fraction=0.0,
            write_fraction=0.0,
            ifetch_fraction=0.0,
            address_span=0,
            mean_reuse_distance=0.0,
        )
    blocks = trace.block_addresses(block_size)
    repeats = int(np.count_nonzero(blocks[1:] == blocks[:-1])) if length > 1 else 0
    counts = Counter(trace.access_types.tolist())
    distances = reuse_distances(blocks)
    finite = [distance for distance in distances if distance >= 0]
    histogram: Dict[int, int] = dict(Counter(finite))
    return TraceStatistics(
        name=trace.name,
        length=length,
        block_size=block_size,
        unique_blocks=trace.unique_blocks(block_size),
        repeat_block_fraction=repeats / max(length - 1, 1),
        read_fraction=counts.get(int(AccessType.READ), 0) / length,
        write_fraction=counts.get(int(AccessType.WRITE), 0) / length,
        ifetch_fraction=counts.get(int(AccessType.INSTR_FETCH), 0) / length,
        address_span=int(trace.addresses.max() - trace.addresses.min()),
        mean_reuse_distance=float(np.mean(finite)) if finite else 0.0,
        reuse_distance_histogram=histogram,
    )
