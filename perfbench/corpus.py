"""Seeded inputs: the Mediabench-model trace corpus, the sweep grids and the
served request stream.

Everything here is built outside the timed region, and the program only ever
receives the generated ``.din`` files.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.engine.sweep import SweepJob, build_grid_jobs, build_mechanism_grid_jobs
from repro.service.api import SweepRequest, doubling_set_sizes
from repro.trace.din import write_din
from repro.workloads.mediabench import MEDIABENCH_APPS, mediabench_trace

#: Accesses per corpus trace.  Every trace has the same length, so each
#: application weighs the same in every sum.
TRACE_LENGTH = 6_000

#: The paper's Table 3 FIFO grid: B 4,16,64 x A 4,8,16 x S 1..16384.
TABLE3_BLOCK_SIZES = (4, 16, 64)
TABLE3_ASSOCIATIVITIES = (4, 8, 16)
TABLE3_SET_SIZES = doubling_set_sizes(16384)

#: The DL1 of the mechanism experiment plan (SNIPPETS.md): direct-mapped,
#: 32-byte blocks, 16..1024 sets, with 2..16 mechanism entries.
MECHANISMS = ("victim-cache", "miss-cache", "stream-buffer")
MECHANISM_SETS = (16, 64, 256, 1024)
MECHANISM_ENTRIES = (2, 16)

#: A sweep unit: a label and the jobs of one ``run_sweep`` over one trace.
SweepUnit = Tuple[str, List[SweepJob]]


def write_corpus(seed: int, directory: Path, length: int = TRACE_LENGTH) -> List[Path]:
    """Write the six Table 2 application models as ``.din`` files."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for app in MEDIABENCH_APPS:
        path = directory / f"{app.name}.din"
        write_din(mediabench_trace(app.name, length, seed=seed), path)
        paths.append(path)
    return paths


# Each trace's grid is swept in parts of a fraction of a second, so that the
# host probes taken around a part read the speed the part ran at (see
# ``hostspeed.py``).


def dew_family_units(census: bool = False) -> List[SweepUnit]:
    """The Table 3 grid, one sweep per block size: every job is one DEW pass
    over a (B, A) family of 15 set-size levels."""
    if census:
        return [("B16", build_grid_jobs((16,), (4,), TABLE3_SET_SIZES, ("fifo",)))]
    return [
        (f"B{block_size}", build_grid_jobs(
            (block_size,), TABLE3_ASSOCIATIVITIES, TABLE3_SET_SIZES, ("fifo",)
        ))
        for block_size in TABLE3_BLOCK_SIZES
    ]


def engine_mix_units(census: bool = False) -> List[SweepUnit]:
    """A grid with no FIFO cells, one sweep per engine: LRU families, PLRU
    singles and each mechanism's cells."""
    if census:
        return [(
            "mix",
            build_grid_jobs((32,), (1, 2, 4), doubling_set_sizes(1024), ("lru",))
            + build_grid_jobs((32,), (2,), (64,), ("plru",))
            + build_mechanism_grid_jobs(MECHANISMS, (32,), (1,), (64,), (4,)),
        )]
    return [
        ("lru", build_grid_jobs(
            TABLE3_BLOCK_SIZES, (1, 2, 4, 8, 16), TABLE3_SET_SIZES, ("lru",)
        )),
        ("plru", build_grid_jobs((32,), (2, 4), (16, 256, 1024), ("plru",))),
    ] + [
        (mechanism, build_mechanism_grid_jobs(
            (mechanism,), (32,), (1,), MECHANISM_SETS, MECHANISM_ENTRIES
        ))
        for mechanism in MECHANISMS
    ]


# -- served stream ------------------------------------------------------------

#: Block-size set every trace's plane is warmed for.  Requests for a single
#: block size need a different plane, so their first use parses the text.
SERVED_BLOCK_SIZES = (16, 32)
SERVED_MAX_SETS = 1024
_LRU_ASSOCIATIVITIES = (1, 2, 4)


def _request(path: Path, blocks, assocs, policy: str) -> SweepRequest:
    return SweepRequest(
        trace_path=str(path),
        block_sizes=tuple(blocks),
        associativities=tuple(assocs),
        max_sets=SERVED_MAX_SETS,
        policies=(policy,),
    )


def _trace_requests(rng: random.Random, path: Path) -> List[Tuple[str, SweepRequest]]:
    """Nine distinct requests over one trace: two that simulate fresh
    cells, then seven whose cells are all stored by then.

    The seed picks the order and one subset, never the mix, so the latency
    distribution has the same shape for every seed.  The two warm requests
    over both block sizes find their plane warm; the first request over a
    single block size needs a plane nobody warmed, so the daemon parses the
    trace text for it.
    """
    both = SERVED_BLOCK_SIZES
    fresh = [_request(path, both, (2, 4), "fifo"), _request(path, both, _LRU_ASSOCIATIVITIES, "lru")]
    rng.shuffle(fresh)
    warm = [_request(path, both, (2,), "fifo"), _request(path, both, (4,), "fifo")]
    for block_size in both:
        warm.append(_request(path, (block_size,), (2, 4), "fifo"))
        warm.append(_request(path, (block_size,), _LRU_ASSOCIATIVITIES, "lru"))
    warm.append(_request(path, (rng.choice(both),), (rng.choice((2, 4)),), "fifo"))
    rng.shuffle(warm)
    return [("fresh", request) for request in fresh] + [("warm", request) for request in warm]


def served_stream(seed: int, paths: Sequence[Path]) -> List[Tuple[str, SweepRequest]]:
    """The closed-loop client's requests as ``(kind, request)`` pairs.

    First every distinct request, each trace's nine in order, interleaved
    at random across traces; then a resubmission of every "warm" request,
    in random order, which the service coalesces onto its finished job.
    Every trace contributes the same seven repeats, so the repeats' frame
    sizes are the same for every seed.

    Distinct requests go back to back, so each is submitted once the daemon
    has gone idle after the previous job (see ``workloads.THINK_S``).
    """
    rng = random.Random(seed)
    queues = [_trace_requests(rng, path) for path in paths]
    distinct: List[Tuple[str, SweepRequest]] = []
    while any(queues):
        distinct.append(rng.choice([queue for queue in queues if queue]).pop(0))
    repeats = [request for kind, request in distinct if kind == "warm"]
    rng.shuffle(repeats)
    return distinct + [("repeat", request) for request in repeats]
