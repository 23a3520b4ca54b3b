"""Generic synthetic trace generators.

Each generator models one archetypal access pattern.  They are used directly
in tests and examples, and composed by :mod:`repro.workloads.mediabench` into
application-shaped workloads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadGenerator


class SequentialStream(WorkloadGenerator):
    """A pure streaming pattern: ``base, base+stride, base+2*stride, ...``.

    Optionally wraps around after ``region_bytes`` so long traces revisit the
    same footprint (modelling a circular buffer).
    """

    name = "sequential"

    def __init__(
        self,
        base: int = 0,
        stride: int = 4,
        region_bytes: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if stride <= 0:
            raise WorkloadError("stride must be positive")
        if region_bytes is not None and region_bytes < stride:
            raise WorkloadError("region_bytes must be at least one stride")
        self.base = base
        self.stride = stride
        self.region_bytes = region_bytes

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        offsets = np.arange(num_requests, dtype=np.int64) * self.stride
        if self.region_bytes is not None:
            offsets %= self.region_bytes
        return self.base + offsets


class StridedLoop(WorkloadGenerator):
    """Repeatedly sweep a fixed-size array with a fixed stride.

    This is the canonical "working set of N bytes revisited over and over"
    pattern: small arrays give near-perfect reuse, arrays larger than the
    cache thrash it.
    """

    name = "strided-loop"

    def __init__(self, base: int = 0, array_bytes: int = 4096, stride: int = 4, seed: int = 0) -> None:
        super().__init__(seed)
        if stride <= 0 or array_bytes <= 0:
            raise WorkloadError("array_bytes and stride must be positive")
        if array_bytes < stride:
            raise WorkloadError("array_bytes must be at least one stride")
        self.base = base
        self.array_bytes = array_bytes
        self.stride = stride

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        elements = max(self.array_bytes // self.stride, 1)
        indices = np.arange(num_requests, dtype=np.int64) % elements
        return self.base + indices * self.stride


class RandomUniform(WorkloadGenerator):
    """Uniformly random addresses in ``[base, base + region_bytes)``.

    The worst case for every locality-exploiting shortcut; useful as a lower
    bound in speed-up studies.
    """

    name = "random-uniform"

    def __init__(self, base: int = 0, region_bytes: int = 1 << 20, align: int = 4, seed: int = 0) -> None:
        super().__init__(seed)
        if region_bytes <= 0 or align <= 0:
            raise WorkloadError("region_bytes and align must be positive")
        self.base = base
        self.region_bytes = region_bytes
        self.align = align

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        slots = max(self.region_bytes // self.align, 1)
        return self.base + rng.integers(0, slots, size=num_requests, dtype=np.int64) * self.align


class WorkingSetGenerator(WorkloadGenerator):
    """Two-level working-set model.

    With probability ``hot_fraction`` an access goes to a small "hot" region,
    otherwise to a much larger "cold" region; both draws are uniform.  This
    reproduces the hit-rate-vs-cache-size knee that real applications show.
    """

    name = "working-set"

    def __init__(
        self,
        hot_bytes: int = 8 << 10,
        cold_bytes: int = 1 << 20,
        hot_fraction: float = 0.9,
        align: int = 4,
        base: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if not 0.0 <= hot_fraction <= 1.0:
            raise WorkloadError("hot_fraction must be in [0, 1]")
        if hot_bytes <= 0 or cold_bytes <= 0 or align <= 0:
            raise WorkloadError("region sizes and alignment must be positive")
        self.hot_bytes = hot_bytes
        self.cold_bytes = cold_bytes
        self.hot_fraction = hot_fraction
        self.align = align
        self.base = base

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        hot = rng.random(num_requests) < self.hot_fraction
        hot_slots = max(self.hot_bytes // self.align, 1)
        cold_slots = max(self.cold_bytes // self.align, 1)
        addresses = np.where(
            hot,
            rng.integers(0, hot_slots, size=num_requests, dtype=np.int64),
            hot_slots + rng.integers(0, cold_slots, size=num_requests, dtype=np.int64),
        )
        return self.base + addresses * self.align


class PointerChase(WorkloadGenerator):
    """Walk a random permutation of nodes (linked-list traversal).

    Every access depends on the previous one and the node order is random,
    so spatial locality is absent while temporal locality appears only once
    the whole list has been walked.
    """

    name = "pointer-chase"

    def __init__(self, nodes: int = 4096, node_bytes: int = 16, base: int = 0, seed: int = 0) -> None:
        super().__init__(seed)
        if nodes <= 0 or node_bytes <= 0:
            raise WorkloadError("nodes and node_bytes must be positive")
        self.nodes = nodes
        self.node_bytes = node_bytes
        self.base = base

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        order = rng.permutation(self.nodes)
        repeats = -(-num_requests // self.nodes)  # ceiling division
        walk = np.tile(order, repeats)[:num_requests]
        return self.base + walk.astype(np.int64) * self.node_bytes


class ZipfGenerator(WorkloadGenerator):
    """Zipf-distributed block popularity (a few very hot blocks, a long tail)."""

    name = "zipf"

    def __init__(
        self,
        blocks: int = 8192,
        block_bytes: int = 32,
        exponent: float = 1.1,
        base: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if blocks <= 0 or block_bytes <= 0:
            raise WorkloadError("blocks and block_bytes must be positive")
        if exponent <= 0:
            raise WorkloadError("exponent must be positive")
        self.blocks = blocks
        self.block_bytes = block_bytes
        self.exponent = exponent
        self.base = base

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        ranks = np.arange(1, self.blocks + 1, dtype=np.float64)
        weights = ranks ** (-self.exponent)
        weights /= weights.sum()
        chosen = rng.choice(self.blocks, size=num_requests, p=weights)
        return self.base + chosen.astype(np.int64) * self.block_bytes


class BlockedMatrixWalk(WorkloadGenerator):
    """Visit a 2-D array in square tiles (the 8x8 DCT / blocked-kernel pattern).

    The array is ``rows x cols`` elements of ``element_bytes`` each and is
    walked tile by tile; inside a tile the accesses are row-major.  Each tile
    is visited ``tile_passes`` times before moving on, modelling the repeated
    reads a transform kernel performs on its input block.
    """

    name = "blocked-matrix"

    def __init__(
        self,
        rows: int = 64,
        cols: int = 64,
        tile: int = 8,
        element_bytes: int = 2,
        tile_passes: int = 2,
        base: int = 0,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if min(rows, cols, tile, element_bytes, tile_passes) <= 0:
            raise WorkloadError("all BlockedMatrixWalk parameters must be positive")
        if tile > rows or tile > cols:
            raise WorkloadError("tile must not exceed the matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.tile = tile
        self.element_bytes = element_bytes
        self.tile_passes = tile_passes
        self.base = base

    def _one_sweep(self) -> np.ndarray:
        addresses = []
        for tile_row in range(0, self.rows - self.tile + 1, self.tile):
            for tile_col in range(0, self.cols - self.tile + 1, self.tile):
                tile_addresses = []
                for row in range(tile_row, tile_row + self.tile):
                    for col in range(tile_col, tile_col + self.tile):
                        tile_addresses.append((row * self.cols + col) * self.element_bytes)
                for _ in range(self.tile_passes):
                    addresses.extend(tile_addresses)
        return np.asarray(addresses, dtype=np.int64)

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        sweep = self._one_sweep()
        repeats = -(-num_requests // len(sweep))
        return self.base + np.tile(sweep, repeats)[:num_requests]


class InstructionLoop(WorkloadGenerator):
    """An instruction-fetch stream dominated by a hot loop.

    The program body is ``loop_bytes`` of straight-line code fetched
    sequentially and repeated; with probability ``call_probability`` the flow
    detours through one of ``num_functions`` out-of-loop functions of
    ``function_bytes`` each (modelling library calls).
    """

    name = "instruction-loop"

    def __init__(
        self,
        loop_bytes: int = 512,
        fetch_bytes: int = 4,
        call_probability: float = 0.02,
        num_functions: int = 8,
        function_bytes: int = 256,
        base: int = 0x40_0000,
        seed: int = 0,
    ) -> None:
        super().__init__(seed)
        if loop_bytes <= 0 or fetch_bytes <= 0 or function_bytes <= 0 or num_functions <= 0:
            raise WorkloadError("sizes must be positive")
        if not 0.0 <= call_probability <= 1.0:
            raise WorkloadError("call_probability must be in [0, 1]")
        self.loop_bytes = loop_bytes
        self.fetch_bytes = fetch_bytes
        self.call_probability = call_probability
        self.num_functions = num_functions
        self.function_bytes = function_bytes
        self.base = base

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        loop_length = max(self.loop_bytes // self.fetch_bytes, 1)
        function_length = max(self.function_bytes // self.fetch_bytes, 1)
        addresses = np.empty(num_requests, dtype=np.int64)
        function_base = self.base + self.loop_bytes
        position = 0
        index = 0
        while index < num_requests:
            addresses[index] = self.base + (position % loop_length) * self.fetch_bytes
            position += 1
            index += 1
            if index < num_requests and rng.random() < self.call_probability:
                function = int(rng.integers(0, self.num_functions))
                start = function_base + function * self.function_bytes
                span = min(function_length, num_requests - index)
                addresses[index : index + span] = (
                    start + np.arange(span, dtype=np.int64) * self.fetch_bytes
                )
                index += span
        return addresses

    def _access_types(self, num_requests: int, rng: np.random.Generator) -> Optional[np.ndarray]:
        from repro.types import AccessType

        return np.full(num_requests, int(AccessType.INSTR_FETCH), dtype=np.int8)


class ReadModifyWrite(WorkloadGenerator):
    """Wrap another generator, re-issuing some accesses to the same address.

    Real data traces contain many back-to-back accesses to the same word:
    read-modify-write sequences, spilled locals, and multi-byte accesses that
    the trace records per byte or per halfword.  With probability
    ``repeat_probability`` each access of the inner generator is followed by
    a write to the same address.  This is the main source of DEW's level-0
    MRA matches on real traces, so modelling it matters for the Table 4 /
    Figure 6 shapes.
    """

    name = "read-modify-write"

    def __init__(self, inner: WorkloadGenerator, repeat_probability: float = 0.25, seed: int = 0) -> None:
        super().__init__(seed)
        if not 0.0 <= repeat_probability <= 1.0:
            raise WorkloadError("repeat_probability must be in [0, 1]")
        self.inner = inner
        self.repeat_probability = repeat_probability

    def _addresses(self, num_requests: int, rng: np.random.Generator) -> np.ndarray:
        # Generate enough inner accesses that duplication reaches the target
        # length, then trim.
        expected_unique = max(int(num_requests / (1.0 + self.repeat_probability)), 1)
        inner_trace = self.inner.generate(expected_unique + 2, seed=self.seed + 1)
        inner_addresses = inner_trace.addresses
        repeats = rng.random(inner_addresses.size) < self.repeat_probability
        pieces = []
        for address, repeat in zip(inner_addresses.tolist(), repeats.tolist()):
            pieces.append(address)
            if repeat:
                pieces.append(address)
            if len(pieces) >= num_requests:
                break
        while len(pieces) < num_requests:
            pieces.append(int(inner_addresses[len(pieces) % inner_addresses.size]))
        return np.asarray(pieces[:num_requests], dtype=np.int64)
