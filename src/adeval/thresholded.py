"""Measures that evaluate a detector after thresholding its scores.

The decision rule everywhere is: a sample is flagged anomalous when its
score is >= the threshold.  F1 at an FPR budget alpha is :func:`f1_rows` of
the :func:`confusion_rows` at each row's :func:`~adeval.curves.threshold_at_fpr_rows`,
which :class:`~adeval.experiments.LabelledSample` computes once for every level
and CVOL at alpha shares.

precision@p evaluates every level p from one shared draw: one permutation
per class and round, each level keeping a prefix of its subsampled class's
permutation (:func:`precision_composition` says which class and how many),
and each top set is cut from the members' ranks in each row's sort.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray


def confusion_rows(
    labels: NDArray[np.int64], scores: NDArray[np.float64], thresholds: NDArray[np.float64]
) -> tuple[NDArray[np.intp], ...]:
    """Confusion counts (tp, fp, tn, fn) of the >= rule, one threshold per score row.

    ``labels`` are the 0/1 labels of the columns of the (rows, n) matrix
    ``scores``; row r is thresholded at ``thresholds[..., r]``, so a
    (levels, rows) array of thresholds gives (levels, rows) counts.
    """
    flagged = scores >= np.asarray(thresholds)[..., None]
    pos = labels == 1
    tp = np.count_nonzero(flagged & pos, axis=-1)
    fp = np.count_nonzero(flagged, axis=-1) - tp
    n_pos = int(np.count_nonzero(pos))
    return tp, fp, len(labels) - n_pos - fp, n_pos - tp


def f1_rows(tp: NDArray, fp: NDArray, fn: NDArray) -> NDArray[np.float64]:
    """F1 = 2 tp / (2 tp + fp + fn) of each set of counts; zero where the denominator is zero."""
    tp, fp, fn = np.asarray(tp), np.asarray(fp), np.asarray(fn)
    denom = 2 * tp + fp + fn
    return np.where(denom > 0, 2.0 * tp / np.where(denom > 0, denom, 1), 0.0)


# ---------------------------------------------------------------------------
# Precision at a controlled contamination rate
# ---------------------------------------------------------------------------


def precision_composition(n_pos: int, n_neg: int, p: float) -> tuple[int, int, int]:
    """(anomalies kept, normals kept, top-set size m) of precision@p on a labelled sample.

    The nearest achievable composition at anomaly proportion ``p`` that
    keeps one class whole: the anomalies are subsampled, or, when that
    would keep more anomalies than the sample holds, the normals are
    thinned instead (possibly to all of them).  The top set is the first
    ceil(p * kept) retained samples.
    """
    keep_pos = max(1, int(round(p * n_neg / (1.0 - p))))
    keep_neg = n_neg
    if keep_pos > n_pos:
        keep_pos = n_pos
        keep_neg = min(n_neg, max(1, int(round(n_pos * (1.0 - p) / p))))
    return keep_pos, keep_neg, math.ceil(p * (keep_pos + keep_neg))


def precision_at_p_rows(
    labels: NDArray[np.int64],
    order: NDArray[np.intp],
    ps: Sequence[float],
    rounds: int = 10,
    seed: int = 0,
) -> NDArray[np.float64]:
    """Precision of the top p-fraction at anomaly proportion p, per level p and score row.

    ``labels`` are the 0/1 labels of the columns of a (rows, n) score
    matrix, and ``order`` is its :func:`~adeval.curves.descending_order`:
    each row's columns by descending score, ties toward the lower index.
    Each p lies in (0, 1).  One stream seeded ``seed`` draws one
    permutation of the anomalies and then one of the normals per round,
    for every level and row.  In each round, level p retains the first
    members of its subsampled class's permutation and the whole other
    class (:func:`precision_composition`), takes each row's first m
    retained samples in that order and measures the fraction of true
    anomalies among them.  Rounds are averaged.  So a value depends
    neither on the other rows nor on the other levels.

    The top sets are cut from ranks: a kept member of the subsampled class
    is among the first m retained iff the kept members ranked before it
    plus the whole class's members ranked before it number fewer than m.

    Returns
    -------
    ndarray
        Mean precision over ``rounds`` subsampling rounds, (levels, rows).
    """
    ps = np.asarray(ps, dtype=np.float64)
    if ps.ndim != 1 or len(ps) == 0:
        raise ValueError("ps must be a nonempty one-dimensional sequence of levels")
    bad = ~((ps > 0.0) & (ps < 1.0))
    if bad.any():
        raise ValueError(f"p must lie in (0, 1), got {float(ps[bad][0])!r}")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    rng = np.random.default_rng(seed)
    # (round, j): the j-th member of each class's permutation in that round.
    pos_perm = rng.permuted(np.tile(pos_idx, (rounds, 1)), axis=1)
    neg_perm = rng.permuted(np.tile(neg_idx, (rounds, 1)), axis=1)

    n_rows, n = order.shape
    ranks = np.empty_like(order)
    ranks[np.arange(n_rows)[:, None], order] = np.arange(n)
    # pos_before[row, k]: anomalies among the row's first k samples.
    pos_before = np.zeros((n_rows, n + 1), dtype=np.intp)
    np.cumsum(labels[order], axis=1, out=pos_before[:, 1:])

    out = np.empty((len(ps), n_rows))
    for level, p in enumerate(ps.tolist()):
        keep_pos, keep_neg, m = precision_composition(n_pos, n_neg, p)
        thinned = keep_neg < n_neg
        kept = neg_perm[:, :keep_neg] if thinned else pos_perm[:, :keep_pos]
        # (row, round, j): the row's rank of its j-th highest-ranked kept member.
        rank = np.sort(ranks[:, kept], axis=2)
        flat = rank.reshape(n_rows, -1)
        pos_ahead = np.take_along_axis(pos_before, flat, axis=1)
        # Members of the class kept whole that rank ahead of each kept member.
        whole_ahead = (pos_ahead if thinned else flat - pos_ahead).reshape(rank.shape)
        in_top = np.arange(rank.shape[2]) + whole_ahead < m
        counted = np.count_nonzero(in_top, axis=2)
        # The other m - counted places of the top set hold the class kept whole.
        hits = m - counted if thinned else counted
        # Each row's rounds contiguous: its mean is the 1-D mean of its own rounds.
        out[level] = np.ascontiguousarray(hits / m).mean(axis=1)
    return out
