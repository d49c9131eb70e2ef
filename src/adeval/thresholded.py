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

from adeval.curves import LabeledScores


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


def confusion_at(data: LabeledScores, threshold: float) -> ConfusionCounts:
    """Count the confusion matrix of the >= threshold rule."""
    flagged = data.scores >= threshold
    pos = data.labels == 1
    return ConfusionCounts(
        tp=int((flagged & pos).sum()),
        fp=int((flagged & ~pos).sum()),
        tn=int((~flagged & ~pos).sum()),
        fn=int((~flagged & pos).sum()),
    )


def f1_score(counts: ConfusionCounts) -> float:
    """F1 = 2 tp / (2 tp + fp + fn); zero when the denominator is zero."""
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return 0.0
    return 2.0 * counts.tp / denom


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


def _top_fraction_indices(scores: np.ndarray, indices: np.ndarray, m: int) -> np.ndarray:
    # Deterministic cut: descending score, then ascending input index.
    order = np.lexsort((indices, -scores))
    return order[:m]


def precision_at_p(data: LabeledScores, cfg: PrecisionAtPConfig) -> float:
    """Precision of the top p-fraction at anomaly proportion p.

    Each round subsamples the anomalies (or, when the sample is less
    contaminated than ``p``, the normals) so the retained set has anomaly
    proportion as close to ``p`` as achievable, then takes the
    ceil(p * size) highest-scoring samples and measures the fraction of
    true anomalies among them.  Rounds are averaged.

    Returns
    -------
    float
        Mean precision over ``cfg.rounds`` subsampling rounds.
    """
    pos_idx = np.flatnonzero(data.labels == 1)
    neg_idx = np.flatnonzero(data.labels == 0)
    n_pos, n_neg = len(pos_idx), len(neg_idx)

    # Nearest achievable composition at proportion p, keeping one class whole.
    keep_pos = max(1, int(round(cfg.p * n_neg / (1.0 - cfg.p))))
    if keep_pos <= n_pos:
        keep_neg = n_neg
    else:
        # Sample is less contaminated than p: thin the normals instead.
        keep_pos = n_pos
        keep_neg = min(n_neg, max(1, int(round(n_pos * (1.0 - cfg.p) / cfg.p))))

    rng = np.random.default_rng(cfg.seed)
    values = np.empty(cfg.rounds)
    for r in range(cfg.rounds):
        pos_take = (
            pos_idx
            if keep_pos == n_pos
            else rng.choice(pos_idx, size=keep_pos, replace=False)
        )
        neg_take = (
            neg_idx
            if keep_neg == n_neg
            else rng.choice(neg_idx, size=keep_neg, replace=False)
        )
        retained = np.concatenate([pos_take, neg_take])
        m = math.ceil(cfg.p * len(retained))
        if m < 1:
            raise ValueError("top set is empty; p too small for this sample")
        top = _top_fraction_indices(data.scores[retained], retained, m)
        values[r] = data.labels[retained][top].mean()
    return float(values.mean())
