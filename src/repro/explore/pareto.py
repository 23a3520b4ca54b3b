"""Pareto-front extraction over per-configuration metrics.

Cache tuning is inherently multi-objective: capacity (cost/area), miss rate
(performance) and energy pull in different directions.  The helpers here
compute the set of configurations not dominated in any requested metric.

:func:`pareto_front_frame` builds a ``(rows x metrics)`` matrix straight
from a :class:`~repro.core.results.ResultsFrame`'s columns and finds the
non-dominated rows with :func:`pareto_mask`, a numpy kernel whose pairwise
comparisons are broadcast array operations, so no per-row objects are
materialised.  Rows with identical metrics never dominate each other, and
surviving rows keep their canonical order.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.core.results import ResultsFrame
from repro.errors import ExplorationError

#: Default metric pair of the classic capacity-vs-performance front.
DEFAULT_METRICS: Tuple[str, ...] = ("total_size", "miss_rate")


def _pareto_mask_2d(values: np.ndarray) -> np.ndarray:
    """Exact two-metric front in O(n log n): lexsort plus a running minimum.

    After sorting by ``(metric0, metric1)`` ascending, a row is dominated
    exactly when an earlier group (strictly smaller metric0) reaches a
    metric1 no larger than its own, or when its own metric0 group contains a
    strictly smaller metric1 (the group head).  Rows with identical metric
    pairs share a group head, so exact duplicates all survive.
    """
    rows = values.shape[0]
    order = np.lexsort((values[:, 1], values[:, 0]))
    sorted0 = values[order, 0]
    sorted1 = values[order, 1]
    new_group = np.empty(rows, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted0[1:], sorted0[:-1], out=new_group[1:])
    group_ids = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    running_min1 = np.minimum.accumulate(sorted1)
    # Best metric1 seen in groups strictly before each group's start.
    before_group = np.concatenate(([np.inf], running_min1[starts[1:] - 1]))[group_ids]
    head1 = sorted1[starts][group_ids]
    dominated_sorted = (before_group <= sorted1) | (sorted1 > head1)
    mask = np.empty(rows, dtype=bool)
    mask[order] = ~dominated_sorted
    return mask


#: Below this many rows the divide-and-conquer kernel stops recursing and
#: hands the sub-problem to the pairwise kernel (whose constant factor wins
#: on small inputs).
DIVIDE_THRESHOLD = 128

#: Row-block length for the front-vs-front filtering step of the merge, so
#: the broadcast comparison matrix stays bounded regardless of front size.
_MERGE_BLOCK = 256


def _pareto_mask_pairwise(values: np.ndarray) -> np.ndarray:
    """General-arity kernel: pairwise comparisons as broadcast array ops.

    Each surviving candidate row is compared against every still-alive row
    at once, and the rows it dominates are dropped before the next candidate
    is examined.  Dominance is transitive, so every dominated row is
    eliminated by the time the scan finishes; the worst case (an
    all-non-dominated input) degrades gracefully to the full O(n^2)
    comparison sweep, still vectorised.
    """
    total_rows = values.shape[0]
    alive = np.arange(total_rows)
    position = 0
    while position < len(values):
        reference = values[position]
        dominated = np.all(values >= reference, axis=1) & np.any(values > reference, axis=1)
        keep = ~dominated
        alive = alive[keep]
        values = values[keep]
        position = int(np.count_nonzero(keep[:position])) + 1
    mask = np.zeros(total_rows, dtype=bool)
    mask[alive] = True
    return mask


def _filter_dominated_by(front: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Mask of ``candidates`` rows NOT dominated by any ``front`` row.

    The comparison is blocked over ``front`` so the broadcast intermediate
    stays at most ``len(candidates) x _MERGE_BLOCK x arity`` — bounded
    memory even when both fronts are large — and the scan exits early once
    every candidate is dominated.
    """
    alive = np.ones(candidates.shape[0], dtype=bool)
    for start in range(0, front.shape[0], _MERGE_BLOCK):
        block = front[start:start + _MERGE_BLOCK]
        remaining = np.flatnonzero(alive)
        if remaining.size == 0:
            break
        sub = candidates[remaining]
        dominated = (
            np.all(sub[:, None, :] >= block[None, :, :], axis=2)
            & np.any(sub[:, None, :] > block[None, :, :], axis=2)
        ).any(axis=1)
        alive[remaining[dominated]] = False
    return alive


def _pareto_mask_divide(values: np.ndarray, threshold: int = DIVIDE_THRESHOLD) -> np.ndarray:
    """Divide-and-conquer front for arity >= 3, exact and duplicate-stable.

    Rows are ordered lexicographically over all metric columns (first
    column primary) and split at the midpoint.  Because a row later in
    lexicographic order can dominate an earlier one only if the two are
    component-wise equal — and equal rows never dominate each other — the
    left half's front is final, and the merge step only has to remove
    right-half survivors dominated by the left front.  Transitivity
    guarantees every dominated right row is caught by a left *front* row,
    so the filter never needs the left half's interior points.

    The recursion bottoms out in the pairwise kernel below ``threshold``
    rows.  On fronts of realistic size this replaces the pairwise kernel's
    O(n^2) full-matrix behaviour with O(n log n) partitioning plus
    front-vs-front merges; the worst case (everything non-dominated)
    degrades to the same quadratic comparison count, just split across the
    merge steps.
    """
    rows = values.shape[0]
    threshold = max(int(threshold), 2)
    # np.lexsort's last key is primary, so feed columns in reverse.
    order = np.lexsort(tuple(values[:, c] for c in range(values.shape[1] - 1, -1, -1)))
    ordered = values[order]

    def recurse(positions: np.ndarray) -> np.ndarray:
        if positions.size <= threshold:
            return positions[_pareto_mask_pairwise(ordered[positions])]
        mid = positions.size // 2
        left = recurse(positions[:mid])
        right = recurse(positions[mid:])
        keep_right = _filter_dominated_by(ordered[left], ordered[right])
        return np.concatenate([left, right[keep_right]])

    surviving = recurse(np.arange(rows))
    mask = np.zeros(rows, dtype=bool)
    mask[order[surviving]] = True
    return mask


def pareto_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of a ``(rows x metrics)`` matrix.

    All metrics are lower-is-better.  Row ``j`` is dominated when some row
    ``i`` satisfies ``all(values[i] <= values[j])`` and
    ``any(values[i] < values[j])`` — rows with identical metrics therefore
    never dominate each other, so exact duplicates all stay on the front.

    The common two-metric case (the default size/miss-rate front) runs the
    O(n log n) sort-and-scan kernel; arity >= 3 uses the divide-and-conquer
    kernel (which itself bottoms out in the broadcast pairwise kernel on
    small sub-problems); arity 1 stays on the pairwise kernel.  All are
    exact and agree on every input.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ExplorationError(
            f"pareto_mask expects a (rows x metrics) matrix, got shape {values.shape}"
        )
    if values.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if values.shape[1] == 0:
        # No metrics: nothing can dominate anything, every row survives.
        return np.ones(values.shape[0], dtype=bool)
    if values.shape[1] == 2:
        return _pareto_mask_2d(values)
    if values.shape[1] >= 3 and values.shape[0] > DIVIDE_THRESHOLD:
        return _pareto_mask_divide(values)
    return _pareto_mask_pairwise(values)


def metric_matrix(
    frame: ResultsFrame,
    metrics: Sequence[Union[str, np.ndarray]] = DEFAULT_METRICS,
) -> np.ndarray:
    """Stack frame metric columns into the ``(rows x metrics)`` matrix.

    Each entry of ``metrics`` is either a column name understood by
    :meth:`~repro.core.results.ResultsFrame.metric_column` or a ready-made
    per-row array (e.g. an energy column from
    :meth:`~repro.explore.energy.EnergyModel.estimate_frame`) — so custom
    lower-is-better metrics mix freely with the built-in ones.
    """
    columns = []
    for metric in metrics:
        if isinstance(metric, str):
            column = frame.metric_column(metric)
        else:
            column = np.asarray(metric, dtype=np.float64)
        if column.ndim != 1 or column.shape[0] != len(frame):
            raise ExplorationError(
                f"metric column has shape {column.shape}, expected ({len(frame)},)"
            )
        columns.append(column.astype(np.float64, copy=False))
    if not columns:
        return np.empty((len(frame), 0), dtype=np.float64)
    return np.stack(columns, axis=1)


def pareto_front_frame(
    frame: ResultsFrame,
    metrics: Sequence[Union[str, np.ndarray]] = DEFAULT_METRICS,
) -> np.ndarray:
    """Row indices of the frame's non-dominated rows (ascending, stable).

    The returned indices are in the frame's canonical row order, so slicing
    any frame column with them yields the front without materialising a
    single per-row object; ``frame.select(mask)`` with the equivalent mask
    produces a front sub-frame.
    """
    return np.flatnonzero(pareto_mask(metric_matrix(frame, metrics)))
