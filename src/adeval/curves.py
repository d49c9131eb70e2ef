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
    realizes it.  The rows may come from different labelled samples.
    """

    fpr: NDArray[np.float64]
    tpr: NDArray[np.float64]
    thresholds: NDArray[np.float64]
    starts: NDArray[np.intp]

    @classmethod
    def of(cls, parts: Sequence[RocRows]) -> RocRows:
        """The rows of ``parts`` one after another."""
        offsets = np.cumsum([0] + [len(p.fpr) for p in parts])
        return cls(
            fpr=np.concatenate([p.fpr for p in parts]),
            tpr=np.concatenate([p.tpr for p in parts]),
            thresholds=np.concatenate([p.thresholds for p in parts]),
            starts=np.concatenate([[0]] + [p.starts[1:] + o for p, o in zip(parts, offsets)]),
        )


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
# does not depend on the other rows.
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    return alpha


def _row_sums(values: NDArray[np.float64], bounds: NDArray[np.intp]) -> NDArray[np.float64]:
    """``values[bounds[r, 0]:bounds[r, 1]].sum()`` of every row r.

    Each sum is a 1-D ``sum`` over the row's own slice, so a row's value
    does not depend on the other rows.
    """
    return np.array([values[a:b].sum() for a, b in bounds.tolist()])


def _segments(rows: RocRows) -> tuple[NDArray[np.float64], ...]:
    """Segment endpoints (f0, f1, t0, t1) between consecutive flat vertices.

    Row r's segments are ``[starts[r], starts[r + 1] - 1)``; the segment
    from one row's last vertex to the next row's origin has FPR width -1,
    and every measure below ignores it.
    """
    return rows.fpr[:-1], rows.fpr[1:], rows.tpr[:-1], rows.tpr[1:]


def _segment_bounds(rows: RocRows) -> NDArray[np.intp]:
    return np.stack([rows.starts[:-1], rows.starts[1:] - 1], axis=1)


def _area_below(rows: RocRows, alpha: float) -> NDArray[np.float64]:
    """Trapezoidal area under each row's polyline restricted to FPR in [0, alpha].

    The segment bracketing ``alpha`` is split linearly at FPR = alpha.
    Both :func:`auc_rows` and :func:`auc_at_rows` route through here, so
    the alpha = 1 case is the full AUC by construction, not merely up to
    rounding.
    """
    f0, f1, t0, t1 = _segments(rows)
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
    return _area_below(rows, 1.0)


def auc_at_rows(rows: RocRows, alpha: float, normalized: bool = False) -> NDArray[np.float64]:
    """Area under each row's ROC curve restricted to FPR in [0, alpha].

    ``alpha`` lies in (0, 1]; the bracketing segment is split linearly at
    FPR = alpha.  With ``normalized`` the area is divided by ``alpha``, so
    an ideal detector scores 1.
    """
    alpha = _check_alpha(alpha)
    area = _area_below(rows, alpha)
    return area / alpha if normalized else area


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


def _bracket(rows: RocRows, alpha: float) -> tuple[NDArray, NDArray, NDArray]:
    """Flat vertex indices around FPR = alpha in each row.

    Returns (hit, top, left): ``hit`` where some vertex sits exactly at
    ``alpha``, ``top`` the uppermost such vertex, and ``left`` the first
    vertex with FPR >= alpha.  Each row's FPRs are nondecreasing, so the
    counts of FPRs below and at most ``alpha`` are its ``searchsorted``
    positions.
    """
    first = rows.starts[:-1]
    below = np.add.reduceat(rows.fpr < alpha, first, dtype=np.intp)
    at_most = np.add.reduceat(rows.fpr <= alpha, first, dtype=np.intp)
    left = first + below
    return rows.fpr[left] == alpha, first + at_most - 1, left


def tpr_at_rows(rows: RocRows, alpha: float) -> NDArray[np.float64]:
    """True-positive rate of each row's polyline at FPR = alpha, in [0, 1].

    Where a vertical edge sits exactly at ``alpha`` the uppermost TPR is
    returned; ``alpha`` = 0 therefore gives the TPR attainable at zero
    false-positive rate.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    hit, top, left = _bracket(rows, alpha)
    out = rows.tpr[top]
    hi = left[~hit]
    lo = hi - 1
    frac = (alpha - rows.fpr[lo]) / (rows.fpr[hi] - rows.fpr[lo])
    out[~hit] = rows.tpr[lo] + frac * (rows.tpr[hi] - rows.tpr[lo])
    return out


def threshold_at_fpr_rows(rows: RocRows, alpha: float) -> NDArray[np.float64]:
    """Score threshold of each row realizing the target FPR alpha, in (0, 1].

    If ``alpha`` coincides with a vertex FPR, the threshold of the
    uppermost-TPR vertex at that FPR is returned.  Otherwise the threshold
    is interpolated linearly between the endpoints of the FPR-increasing
    segment bracketing ``alpha``.  When ``alpha`` falls below the first
    achievable positive FPR (the top score block contains a negative), the
    first finite threshold is returned.  ``alpha`` = 1 gives the minimal
    threshold, at which every sample is flagged.
    """
    alpha = _check_alpha(alpha)
    hit, top, left = _bracket(rows, alpha)
    out = rows.thresholds[top]
    hi = left[~hit]
    lo = hi - 1
    t_lo, t_hi = rows.thresholds[lo], rows.thresholds[hi]
    # Below the first achievable positive FPR: the first finite threshold.
    finite = np.isfinite(t_lo)
    lo, hi = lo[finite], hi[finite]
    frac = (alpha - rows.fpr[lo]) / (rows.fpr[hi] - rows.fpr[lo])
    t_hi[finite] = t_lo[finite] + frac * (t_hi[finite] - t_lo[finite])
    out[~hit] = t_hi
    return out
