"""Measures that evaluate a detector after thresholding its scores.

The decision rule everywhere is: a sample is flagged anomalous when its
score is >= the threshold.  F1 at an FPR budget alpha is
``f1_score(confusion_at(data, threshold_at_fpr(curve, alpha)))``; the grid
shares that threshold with CVOL at the same alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from adeval.curves import LabeledScores, descending_order


@dataclass(frozen=True)
class ConfusionCounts:
    """Confusion-matrix counts at a fixed threshold."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_rows(
    labels: NDArray[np.int64], scores: NDArray[np.float64], thresholds: NDArray[np.float64]
) -> tuple[NDArray[np.intp], ...]:
    """Confusion counts (tp, fp, tn, fn) of the >= rule, one threshold per score row.

    ``labels`` are the 0/1 labels of the columns of the (rows, n) matrix
    ``scores``; row r is thresholded at ``thresholds[r]``.
    """
    flagged = scores >= np.asarray(thresholds)[:, None]
    pos = labels == 1
    tp = np.count_nonzero(flagged & pos, axis=1)
    fp = np.count_nonzero(flagged, axis=1) - tp
    n_pos = int(np.count_nonzero(pos))
    return tp, fp, len(labels) - n_pos - fp, n_pos - tp


def confusion_at(data: LabeledScores, threshold: float) -> ConfusionCounts:
    """Count the confusion matrix of the >= threshold rule."""
    counts = confusion_rows(data.labels, data.scores[None, :], [threshold])
    return ConfusionCounts(*(int(c[0]) for c in counts))


def f1_rows(tp: NDArray, fp: NDArray, fn: NDArray) -> NDArray[np.float64]:
    """F1 = 2 tp / (2 tp + fp + fn) of each set of counts; zero where the denominator is zero."""
    tp, fp, fn = np.asarray(tp), np.asarray(fp), np.asarray(fn)
    denom = 2 * tp + fp + fn
    return np.where(denom > 0, 2.0 * tp / np.where(denom > 0, denom, 1), 0.0)


def f1_score(counts: ConfusionCounts) -> float:
    """F1 of one confusion matrix (:func:`f1_rows`)."""
    return float(f1_rows(counts.tp, counts.fp, counts.fn))


# ---------------------------------------------------------------------------
# Precision at a controlled contamination rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecisionAtPConfig:
    """Configuration for :func:`precision_at_p`.

    Parameters
    ----------
    p:
        Target anomaly proportion in (0, 1).  The evaluated sample is
        subsampled to this contamination before taking the top fraction.
    rounds:
        Number of independent subsampling rounds to average over.
    seed:
        Seed of the round subsampling stream.
    """

    p: float
    rounds: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")


def precision_at_p_rows(
    labels: NDArray[np.int64], order: NDArray[np.intp], cfg: PrecisionAtPConfig
) -> NDArray[np.float64]:
    """Precision of the top p-fraction at anomaly proportion p, one value per score row.

    ``labels`` are the 0/1 labels of the columns of a (rows, n) score
    matrix, and ``order`` is its :func:`~adeval.curves.descending_order`:
    each row's columns by descending score, ties toward the lower index.
    Each round subsamples the anomalies (or, when the sample is less
    contaminated than ``p``, the normals) so the retained set has anomaly
    proportion as close to ``p`` as achievable, then takes each row's
    ceil(p * size) first retained samples in that order and measures the
    fraction of true anomalies among them.  Rounds are averaged.  The
    retained sets come from one stream seeded ``cfg.seed`` and are drawn
    once per round for every row, so a row's value does not depend on the
    other rows.

    Returns
    -------
    ndarray
        Mean precision over ``cfg.rounds`` subsampling rounds, per row.
    """
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    n_pos, n_neg = len(pos_idx), len(neg_idx)

    # Nearest achievable composition at proportion p, keeping one class whole.
    keep_pos = max(1, int(round(cfg.p * n_neg / (1.0 - cfg.p))))
    if keep_pos <= n_pos:
        keep_neg = n_neg
    else:
        # Sample is less contaminated than p: thin the normals instead.
        keep_pos = n_pos
        keep_neg = min(n_neg, max(1, int(round(n_pos * (1.0 - cfg.p) / cfg.p))))
    m = math.ceil(cfg.p * (keep_pos + keep_neg))
    if m < 1:
        raise ValueError("top set is empty; p too small for this sample")

    rng = np.random.default_rng(cfg.seed)
    retained = np.zeros((cfg.rounds, len(labels)), dtype=bool)
    retained[:, pos_idx] = keep_pos == n_pos
    retained[:, neg_idx] = keep_neg == n_neg
    for r in range(cfg.rounds):
        if keep_pos < n_pos:
            retained[r, rng.choice(pos_idx, size=keep_pos, replace=False)] = True
        if keep_neg < n_neg:
            retained[r, rng.choice(neg_idx, size=keep_neg, replace=False)] = True
    # (round, row, rank): whether the sample at that rank of the row is retained.
    kept = retained[:, order]
    top = kept & (np.cumsum(kept, axis=2) <= m)
    hits = np.count_nonzero(top & (labels[order] == 1), axis=2)
    values = np.ascontiguousarray((hits / m).T)
    return values.mean(axis=1)


def precision_at_p(data: LabeledScores, cfg: PrecisionAtPConfig) -> float:
    """Precision of the top p-fraction at anomaly proportion p.

    :func:`precision_at_p_rows` of ``data``'s one row of scores.
    """
    scores = data.scores[None, :]
    return float(precision_at_p_rows(data.labels, descending_order(scores), cfg)[0])
