"""Empirical ROC curves and ranking-based evaluation measures.

Scores are anomaly scores: larger means more anomalous, and a sample is
classified positive (anomalous) when its score is >= the threshold.  The
empirical curve is the full staircase: one vertex per distinct score value
plus the (0, 0) origin, so both corners of every step are present and tied
scores across classes produce a diagonal segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


def check_labels(labels: NDArray[np.int64]) -> NDArray[np.int64]:
    """``labels`` as integers, checked to be 0/1 with both classes present."""
    labels = np.asarray(labels, dtype=np.int64)
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if labels.sum() == 0:
        raise ValueError("need at least one positive (anomalous) sample")
    if labels.sum() == labels.shape[0]:
        raise ValueError("need at least one negative (normal) sample")
    return labels


@dataclass(frozen=True)
class RocRows:
    """Empirical ROC staircases of several score rows, stored flat.

    Row r's curve is ``fpr[starts[r]:starts[r + 1]]`` with the matching
    slices of ``tpr`` and ``thresholds``.  Its vertices run from (0, 0) to
    (1, 1) with nondecreasing FPR and TPR and nonincreasing thresholds;
    the first threshold is +inf, the operating point before any sample is
    flagged, and each later vertex carries the score value whose >= rule
    realizes it.
    """

    fpr: NDArray[np.float64]
    tpr: NDArray[np.float64]
    thresholds: NDArray[np.float64]
    starts: NDArray[np.intp]


# ---------------------------------------------------------------------------
# Curve construction
# ---------------------------------------------------------------------------


def descending_order(scores: NDArray[np.float64]) -> NDArray[np.intp]:
    """Each row's column indices by descending score, ties toward the lower index."""
    return np.argsort(-scores, axis=1, kind="stable")


def roc_rows(
    labels: NDArray[np.int64], scores: NDArray[np.float64], order: NDArray[np.intp]
) -> RocRows:
    """Empirical ROC staircase of every row of a (rows, n) score matrix.

    ``labels`` are the 0/1 labels of the columns, both classes present,
    and ``order`` is :func:`descending_order` of ``scores``.  Each row's
    thresholds sweep from +inf down through its distinct scores; samples
    sharing a score form one block, so class ties yield a single diagonal
    segment rather than an arbitrary tie order.  Every row gets one
    vertex per distinct score plus the origin.
    """
    s = np.take_along_axis(scores, order, axis=1)
    y = labels[order]
    # Last index of every distinct-score block of each row in descending order.
    block_end = np.empty(s.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=block_end[:, :-1])
    block_end[:, -1] = True
    tp = np.cumsum(y, axis=1)[block_end]
    fp = np.cumsum(1 - y, axis=1)[block_end]

    starts = np.r_[0, np.cumsum(np.count_nonzero(block_end, axis=1) + 1)]
    vertex = np.ones(starts[-1], dtype=bool)
    vertex[starts[:-1]] = False  # the origin of each row
    fpr = np.zeros(starts[-1])
    tpr = np.zeros(starts[-1])
    thresholds = np.full(starts[-1], np.inf)
    n_pos = int(labels.sum())
    fpr[vertex] = fp / (len(labels) - n_pos)
    tpr[vertex] = tp / n_pos
    thresholds[vertex] = s[block_end]
    return RocRows(fpr=fpr, tpr=tpr, thresholds=thresholds, starts=starts)


# ---------------------------------------------------------------------------
# Measures on curves
#
# Each measure is defined once, over every row of a RocRows; a row's value
# does not depend on the other rows.  A measure at an FPR level takes a
# sequence of levels and returns one row of values per level, each level's
# row the same, bit for bit, as a one-level call at it.
# ---------------------------------------------------------------------------


def _check_alphas(alphas: Sequence[float], zero_ok: bool = False) -> NDArray[np.float64]:
    """``alphas`` as a nonempty 1-D array, each level in (0, 1], or in [0, 1] with ``zero_ok``."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 1 or len(alphas) == 0:
        raise ValueError("alphas must be a nonempty one-dimensional sequence of levels")
    bad = ~(((alphas >= 0.0) if zero_ok else (alphas > 0.0)) & (alphas <= 1.0))
    if bad.any():
        shown = "[0, 1]" if zero_ok else "(0, 1]"
        raise ValueError(f"alpha must lie in {shown}, got {float(alphas[bad][0])!r}")
    return alphas


def _row_sums(values: NDArray[np.float64], bounds: NDArray[np.intp]) -> NDArray[np.float64]:
    """``values[..., bounds[r, 0]:bounds[r, 1]].sum(axis=-1)`` of every row r.

    Returns a (..., rows) array.  The rows of one slice length are summed
    together, by one reduction over the last axis of their (..., rows,
    length) gather, which ``take`` writes C-contiguous (a fancy index
    after ``...`` need not).  numpy sums each contiguous row pairwise,
    as it sums the 1-D slice alone, so every sum equals the slice's own
    ``sum`` bit for bit and does not depend on the other rows.
    """
    start, stop = bounds[:, 0], bounds[:, 1]
    length = stop - start
    out = np.empty(values.shape[:-1] + (len(bounds),))
    for n in dict.fromkeys(length.tolist()):
        rows = np.flatnonzero(length == n)
        gather = np.take(values, start[rows, None] + np.arange(n), axis=-1)
        out[..., rows] = np.add.reduce(gather, axis=-1)
    return out


def _segments(rows: RocRows) -> tuple[NDArray[np.float64], ...]:
    """Segment endpoints (f0, f1, t0, t1) between consecutive flat vertices.

    Row r's segments are ``[starts[r], starts[r + 1] - 1)``; the segment
    from one row's last vertex to the next row's origin has FPR width -1,
    and every measure below ignores it.
    """
    return rows.fpr[:-1], rows.fpr[1:], rows.tpr[:-1], rows.tpr[1:]


def _segment_bounds(rows: RocRows) -> NDArray[np.intp]:
    return np.stack([rows.starts[:-1], rows.starts[1:] - 1], axis=1)


def _area_below(rows: RocRows, alphas: NDArray[np.float64]) -> NDArray[np.float64]:
    """Trapezoidal area under each row's polyline restricted to FPR in [0, alpha], per level.

    Returns a (levels, rows) array.  The segment bracketing each alpha is
    split linearly at FPR = alpha.  Both :func:`auc_rows` and
    :func:`auc_at_rows` route through here, so the alpha = 1 case is the
    full AUC by construction, not merely up to rounding.
    """
    f0, f1, t0, t1 = _segments(rows)
    alpha = alphas[:, None]
    width = f1 - f0
    live = (width > 0) & (f0 < alpha)
    hi = np.minimum(f1, alpha)
    t_hi = np.where(
        hi == f1,
        t1,
        t0 + np.where(live, (hi - f0) / np.where(width > 0, width, 1.0), 0.0) * (t1 - t0),
    )
    areas = np.where(live, (hi - f0) * (t0 + t_hi) / 2.0, 0.0)
    return _row_sums(areas, _segment_bounds(rows))


def auc_rows(rows: RocRows) -> NDArray[np.float64]:
    """Area under each row's full ROC curve by the trapezoidal rule.

    Equals the probability that a random positive outranks a random
    negative, counting score ties as one half.
    """
    return _area_below(rows, np.ones(1))[0]


def auc_at_rows(
    rows: RocRows, alphas: Sequence[float], normalized: bool = False
) -> NDArray[np.float64]:
    """Area under each row's ROC curve restricted to FPR in [0, alpha], per level.

    Returns a (levels, rows) array.  Each alpha lies in (0, 1]; the
    bracketing segment is split linearly at FPR = alpha.  With
    ``normalized`` the area is divided by alpha, so an ideal detector
    scores 1.
    """
    alphas = _check_alphas(alphas)
    area = _area_below(rows, alphas)
    return area / alphas[:, None] if normalized else area


def auc_weighted_rows(rows: RocRows) -> NDArray[np.float64]:
    """FPR-weighted area of each row: the integral of TPR / FPR over FPR.

    Discretized as a right-endpoint rectangle sum over the FPR-increasing
    segments, with any contribution at FPR = 0 defined as zero.  The
    increments are the empirical FPR steps of the curve itself.  Weighting
    by 1 / FPR emphasizes the low-FPR region; the result is >= the plain
    AUC and is not bounded by 1.
    """
    f0, f1, _, t1 = _segments(rows)
    live = f1 > f0
    ratio = np.where(live, t1 / np.where(live, f1, 1.0), 0.0)
    # Sum the live segments only: their positions in the compressed array.
    at = np.r_[0, np.cumsum(live)][_segment_bounds(rows)]
    return _row_sums((ratio * (f1 - f0))[live], at)


def _bracket(rows: RocRows, alphas: NDArray[np.float64]) -> tuple[NDArray, NDArray, NDArray]:
    """Flat vertex indices around FPR = alpha in each row, as (levels, rows) arrays.

    Returns (hit, top, left): ``hit`` where some vertex sits exactly at
    alpha, ``top`` the uppermost such vertex, and ``left`` the first
    vertex with FPR >= alpha.  Each row's FPRs are nondecreasing, so the
    counts of FPRs below and at most alpha are its ``searchsorted``
    positions.
    """
    first = rows.starts[:-1]
    alpha = alphas[:, None]
    below = np.add.reduceat(rows.fpr < alpha, first, axis=1, dtype=np.intp)
    at_most = np.add.reduceat(rows.fpr <= alpha, first, axis=1, dtype=np.intp)
    left = first + below
    return rows.fpr[left] == alpha, first + at_most - 1, left


def tpr_at_rows(rows: RocRows, alphas: Sequence[float]) -> NDArray[np.float64]:
    """True-positive rate of each row's polyline at FPR = alpha, in [0, 1], per level.

    Returns a (levels, rows) array.  Each alpha lies in [0, 1].  Where a
    vertical edge sits exactly at alpha the uppermost TPR is returned;
    alpha = 0 therefore gives the TPR attainable at zero false-positive
    rate.
    """
    alphas = _check_alphas(alphas, zero_ok=True)
    hit, top, left = _bracket(rows, alphas)
    out = rows.tpr[top]
    miss = ~hit
    hi = left[miss]
    lo = hi - 1
    alpha = np.broadcast_to(alphas[:, None], hit.shape)[miss]
    frac = (alpha - rows.fpr[lo]) / (rows.fpr[hi] - rows.fpr[lo])
    out[miss] = rows.tpr[lo] + frac * (rows.tpr[hi] - rows.tpr[lo])
    return out


def threshold_at_fpr_rows(rows: RocRows, alphas: Sequence[float]) -> NDArray[np.float64]:
    """Score threshold of each row realizing the target FPR alpha, in (0, 1], per level.

    Returns a (levels, rows) array.  If alpha coincides with a vertex FPR,
    the threshold of the uppermost-TPR vertex at that FPR is returned.
    Otherwise the threshold is interpolated linearly between the endpoints
    of the FPR-increasing segment bracketing alpha.  When alpha falls below
    the first achievable positive FPR (the top score block contains a
    negative), the first finite threshold is returned.  Alpha = 1 gives the
    minimal threshold, at which every sample is flagged.
    """
    alphas = _check_alphas(alphas)
    hit, top, left = _bracket(rows, alphas)
    out = rows.thresholds[top]
    miss = ~hit
    hi = left[miss]
    lo = hi - 1
    alpha = np.broadcast_to(alphas[:, None], hit.shape)[miss]
    t_lo, t_hi = rows.thresholds[lo], rows.thresholds[hi]
    # Below the first achievable positive FPR: the first finite threshold.
    finite = np.isfinite(t_lo)
    lo, hi, alpha = lo[finite], hi[finite], alpha[finite]
    frac = (alpha - rows.fpr[lo]) / (rows.fpr[hi] - rows.fpr[lo])
    t_hi[finite] = t_lo[finite] + frac * (t_hi[finite] - t_lo[finite])
    out[miss] = t_hi
    return out
