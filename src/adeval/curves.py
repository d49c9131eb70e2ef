"""Empirical ROC curves and ranking-based evaluation measures.

Scores are anomaly scores: larger means more anomalous, and a sample is
classified positive (anomalous) when its score is >= the threshold.  The
empirical curve is the full staircase: one vertex per distinct score value
plus the (0, 0) origin, so both corners of every step are present and tied
scores across classes produce a diagonal segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledScores:
    """Binary ground-truth labels (1 = anomaly) paired with anomaly scores.

    Parameters
    ----------
    labels:
        Integer array of 0/1 labels.  Both classes must be present.
    scores:
        Real anomaly scores, one per label.  All values must be finite.
    """

    labels: NDArray[np.int64]
    scores: NDArray[np.float64]

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if labels.ndim != 1 or scores.ndim != 1:
            raise ValueError("labels and scores must be one-dimensional")
        if labels.shape[0] != scores.shape[0]:
            raise ValueError(
                f"length mismatch: {labels.shape[0]} labels vs "
                f"{scores.shape[0]} scores"
            )
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        _check_finite(scores)
        if labels.sum() == 0:
            raise ValueError("need at least one positive (anomalous) sample")
        if labels.sum() == labels.shape[0]:
            raise ValueError("need at least one negative (normal) sample")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scores", scores)

    def rescored(self, scores: NDArray[np.float64]) -> LabeledScores:
        """These labels paired with ``scores`` instead.

        Only the new scores are checked (one per label, all finite), so the
        labels of a sample are checked once however many rows of scores
        are paired with them.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != self.labels.shape:
            raise ValueError(
                f"length mismatch: {self.labels.shape[0]} labels vs "
                f"scores of shape {scores.shape}"
            )
        _check_finite(scores)
        out = object.__new__(LabeledScores)
        object.__setattr__(out, "labels", self.labels)
        object.__setattr__(out, "scores", scores)
        return out

    @property
    def n_pos(self) -> int:
        return int(self.labels.sum())

    @property
    def n_neg(self) -> int:
        return int(self.labels.shape[0] - self.labels.sum())

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def _check_finite(scores: NDArray[np.float64]) -> None:
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")


@dataclass(frozen=True)
class RocCurve:
    """Empirical ROC staircase.

    Vertices run from (0, 0) to (1, 1) with nondecreasing FPR and TPR and
    nonincreasing thresholds.  ``thresholds[0]`` is +inf: the operating
    point before any sample is flagged.  Each later vertex carries the
    score value whose >= rule realizes it.
    """

    fpr: NDArray[np.float64]
    tpr: NDArray[np.float64]
    thresholds: NDArray[np.float64]

    def __post_init__(self) -> None:
        fpr = np.asarray(self.fpr, dtype=np.float64)
        tpr = np.asarray(self.tpr, dtype=np.float64)
        thr = np.asarray(self.thresholds, dtype=np.float64)
        if not (fpr.shape == tpr.shape == thr.shape) or fpr.ndim != 1:
            raise ValueError("fpr, tpr and thresholds must share one shape")
        if fpr.shape[0] < 2:
            raise ValueError("a curve needs at least two vertices")
        if fpr[0] != 0.0 or tpr[0] != 0.0:
            raise ValueError("first vertex must be (0, 0)")
        if fpr[-1] != 1.0 or tpr[-1] != 1.0:
            raise ValueError("last vertex must be (1, 1)")
        if (np.diff(fpr) < 0).any() or (np.diff(tpr) < 0).any():
            raise ValueError("fpr and tpr must be nondecreasing")
        if (np.diff(thr) > 0).any():
            raise ValueError("thresholds must be nonincreasing")
        if ((np.diff(fpr) == 0) & (np.diff(tpr) == 0)).any():
            raise ValueError("adjacent vertices must differ")
        object.__setattr__(self, "fpr", fpr)
        object.__setattr__(self, "tpr", tpr)
        object.__setattr__(self, "thresholds", thr)

    @property
    def vertices(self) -> list[tuple[float, float, float]]:
        """Vertex list as (fpr, tpr, threshold) tuples."""
        return list(zip(self.fpr.tolist(), self.tpr.tolist(), self.thresholds.tolist()))

    def __len__(self) -> int:
        return int(self.fpr.shape[0])


# ---------------------------------------------------------------------------
# Curve construction
# ---------------------------------------------------------------------------


def build_roc(data: LabeledScores) -> RocCurve:
    """Build the empirical ROC staircase of a scored sample.

    Thresholds sweep from +inf down through every distinct score.  Samples
    sharing a score form one block, so class ties yield a single diagonal
    segment rather than an arbitrary tie order.

    Parameters
    ----------
    data:
        Labeled anomaly scores with both classes present.

    Returns
    -------
    RocCurve
        Staircase with one vertex per distinct score plus the origin.
    """
    order = np.argsort(-data.scores, kind="stable")
    s = data.scores[order]
    y = data.labels[order]

    # Last index of every distinct-score block in descending order.
    block_end = np.nonzero(np.r_[np.diff(s) != 0, True])[0]
    tp = np.cumsum(y)[block_end]
    fp = np.cumsum(1 - y)[block_end]

    fpr = np.r_[0.0, fp / data.n_neg]
    tpr = np.r_[0.0, tp / data.n_pos]
    thresholds = np.r_[np.inf, s[block_end]]
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


# ---------------------------------------------------------------------------
# Measures on curves
# ---------------------------------------------------------------------------


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    return alpha


def _area_below(curve: RocCurve, alpha: float) -> float:
    """Trapezoidal area under the polyline restricted to FPR in [0, alpha].

    The segment bracketing ``alpha`` is split linearly at FPR = alpha.
    Both ``auc`` and ``auc_at`` route through here, so the alpha = 1 case
    is the full AUC by construction, not merely up to rounding.
    """
    f0, f1 = curve.fpr[:-1], curve.fpr[1:]
    t0, t1 = curve.tpr[:-1], curve.tpr[1:]

    width = f1 - f0
    live = (width > 0) & (f0 < alpha)
    hi = np.minimum(f1, alpha)
    t_hi = np.where(
        hi == f1,
        t1,
        t0 + np.where(live, (hi - f0) / np.where(width > 0, width, 1.0), 0.0) * (t1 - t0),
    )
    areas = np.where(live, (hi - f0) * (t0 + t_hi) / 2.0, 0.0)
    return float(areas.sum())


def auc(curve: RocCurve) -> float:
    """Area under the full ROC curve by the trapezoidal rule.

    Equals the probability that a random positive outranks a random
    negative, counting score ties as one half.
    """
    return _area_below(curve, 1.0)


def auc_at(curve: RocCurve, alpha: float, normalized: bool = False) -> float:
    """Area under the ROC curve restricted to FPR in [0, alpha].

    Parameters
    ----------
    curve:
        Empirical ROC curve.
    alpha:
        Upper FPR bound, in (0, 1].  The bracketing segment is split
        linearly at FPR = alpha.
    normalized:
        When true, divide by ``alpha`` so an ideal detector scores 1.
    """
    alpha = _check_alpha(alpha)
    area = _area_below(curve, alpha)
    return area / alpha if normalized else area


def tpr_at(curve: RocCurve, alpha: float) -> float:
    """True-positive rate of the curve polyline at FPR = alpha.

    Where a vertical edge sits exactly at ``alpha`` the uppermost TPR is
    returned; ``alpha`` = 0 therefore gives the TPR attainable at zero
    false-positive rate.

    Parameters
    ----------
    curve:
        Empirical ROC curve.
    alpha:
        FPR position in [0, 1].
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    left = int(np.searchsorted(curve.fpr, alpha, side="left"))
    if left < len(curve.fpr) and curve.fpr[left] == alpha:
        top = int(np.searchsorted(curve.fpr, alpha, side="right")) - 1
        return float(curve.tpr[top])
    lo, hi = left - 1, left
    frac = (alpha - curve.fpr[lo]) / (curve.fpr[hi] - curve.fpr[lo])
    return float(curve.tpr[lo] + frac * (curve.tpr[hi] - curve.tpr[lo]))


def auc_weighted(curve: RocCurve) -> float:
    """FPR-weighted area: the integral of TPR / FPR over FPR.

    Discretized as a right-endpoint rectangle sum over the FPR-increasing
    segments, with any contribution at FPR = 0 defined as zero.  The
    increments are the empirical FPR steps of the curve itself.  Weighting
    by 1 / FPR emphasizes the low-FPR region; the result is >= the plain
    AUC and is not bounded by 1.
    """
    f0, f1 = curve.fpr[:-1], curve.fpr[1:]
    t1 = curve.tpr[1:]
    live = f1 > f0
    ratio = np.where(live, t1 / np.where(live, f1, 1.0), 0.0)
    return float((ratio * (f1 - f0))[live].sum())


def threshold_at_fpr(curve: RocCurve, alpha: float) -> float:
    """Score threshold realizing a target false-positive rate.

    If ``alpha`` coincides with a vertex FPR, the threshold of the
    uppermost-TPR vertex at that FPR is returned.  Otherwise the threshold
    is interpolated linearly between the endpoints of the FPR-increasing
    segment bracketing ``alpha``.  When ``alpha`` falls below the first
    achievable positive FPR (the top score block contains a negative), the
    first finite threshold is returned.

    Parameters
    ----------
    curve:
        Empirical ROC curve.
    alpha:
        Target FPR in (0, 1].  ``alpha`` = 1 gives the minimal threshold,
        at which every sample is flagged.
    """
    alpha = _check_alpha(alpha)
    left = int(np.searchsorted(curve.fpr, alpha, side="left"))
    if left < len(curve.fpr) and curve.fpr[left] == alpha:
        top = int(np.searchsorted(curve.fpr, alpha, side="right")) - 1
        return float(curve.thresholds[top])
    lo, hi = left - 1, left
    t_lo = curve.thresholds[lo]
    t_hi = curve.thresholds[hi]
    if not np.isfinite(t_lo):
        return float(t_hi)
    frac = (alpha - curve.fpr[lo]) / (curve.fpr[hi] - curve.fpr[lo])
    return float(t_lo + frac * (t_hi - t_lo))
