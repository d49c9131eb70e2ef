"""Reference anomaly detectors: kNN statistics, LOF and isolation forest.

All detectors share the interface: fit on an unlabeled (n, d) training
matrix, then score arbitrary query points, larger score = more anomalous.
Every model's ``score`` method is vectorized over an (m, d) array, which
is the shape expected by the volume estimator.

Distances are Euclidean throughout.  Neighbor ties beyond position k are
broken toward the lowest training index, which keeps scores reproducible
on datasets with repeated rows.  kNN and LOF share one definition of a
neighbourhood: distances that differ only by rounding count as tied
(:func:`_tie_tolerance`), kNN neighbour order comes from
:func:`_neighbour_table`, and a LOF neighbourhood holds every training
point up to the k-th distance plus that tolerance.  :func:`neighbour_scores`
scores any kNN and LOF models fitted on the same points, one model
(``KnnModel.score``, ``LofModel.score``) or every such combo of a grid
block.  Isolation trees are grown level by level in heap layout, tree t
from its own stream seeded by (seed, t), so a forest of n trees is the
n-tree prefix of a larger forest of the same seed; :func:`forest_scores`
scores one forest or all of its prefixes in one walk over the trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.spatial.distance import cdist

_CHUNK = 4096

# Rounding in the coordinates moves a computed distance by a few ulps of
# the largest coordinate magnitude, so a rotated or shifted copy of an exact
# tie may no longer tie exactly.  Distances closer than this fraction of the
# row's largest coordinate magnitude (query and training points) are tied.
_TIE_RTOL = 1e-12

KNN_VARIANTS = ("kappa", "gamma", "delta")


def _as_points(x: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


def _validate_train(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("training points must form a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("training points must be finite")
    return pts


# ---------------------------------------------------------------------------
# k-nearest-neighbor statistics
# ---------------------------------------------------------------------------


def _tie_tolerance(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per query row, as an (m, 1) column, how far apart two tied distances may be."""
    scale = np.maximum(np.abs(queries).max(axis=1), np.abs(points).max())
    return (_TIE_RTOL * scale)[:, None]


def _neighbour_table(
    dist: np.ndarray, k: int, bound: np.ndarray, tol: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and training indices of each row's k nearest neighbours.

    This defines neighbour order for every kNN score: rows are sorted by
    distance, then by training index, where distances within ``tol`` of
    the previous one in sorted order count as tied.  Only the candidate
    columns not beyond ``bound`` (the k-th distance plus ``tol``) are
    sorted; every training point tied at that distance stays a candidate,
    so the lowest indices among the ties win.  Without near-ties this is
    the order a full-row stable sort gives.  "Not beyond" the bound rather
    than "<=" keeps every column of a NaN row, in the order a full sort
    gives it.
    """
    keep = ~(dist > bound)
    counts = keep.sum(axis=1)
    # Candidates keep their column order, padded with distance inf and index
    # n; boolean assignment fills row-major, like the order of ``keep``'s hits.
    filled = np.arange(counts.max()) < counts[:, None]
    cand_idx = np.full(filled.shape, dist.shape[1])
    cand_idx[filled] = np.nonzero(keep)[1]
    cand_dist = np.full(filled.shape, np.inf)
    cand_dist[filled] = dist[keep]
    order = np.lexsort((cand_idx, cand_dist), axis=1)
    cand_dist = np.take_along_axis(cand_dist, order, axis=1)
    cand_idx = np.take_along_axis(cand_idx, order, axis=1)
    # Padding (inf - inf) and NaN rows give NaN gaps, which start no group.
    with np.errstate(invalid="ignore"):
        new_group = np.diff(cand_dist, axis=1) > tol
    group = np.hstack([np.zeros((len(order), 1), int), np.cumsum(new_group, axis=1)])
    order = np.lexsort((cand_idx, group), axis=1)[:, :k]
    return (
        np.take_along_axis(cand_dist, order, axis=1),
        np.take_along_axis(cand_idx, order, axis=1),
    )


@dataclass(frozen=True)
class KnnModel:
    """Distance-to-neighborhood detector.

    Variants of the score statistic over the k nearest training points:

    - ``kappa``: distance to the k-th nearest neighbor,
    - ``gamma``: mean distance to the k nearest neighbors,
    - ``delta``: length of the mean displacement vector to them (small
      when the query sits amid its neighbors, large on the outside).

    ``score`` is :func:`neighbour_scores` of this one model.
    """

    points: NDArray[np.float64]
    k: int
    variant: str

    def score(self, x: np.ndarray) -> NDArray[np.float64]:
        return neighbour_scores([self], x)[0]


def knn_fit(points: np.ndarray, k: int, variant: str) -> KnnModel:
    """Fit the kNN detector (stores the training set).

    Parameters
    ----------
    points:
        Training matrix (n, d).
    k:
        Neighborhood size, 1 <= k <= n.
    variant:
        One of ``kappa``, ``gamma``, ``delta``.
    """
    pts = _validate_train(points)
    if variant not in KNN_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {KNN_VARIANTS}")
    if not 1 <= k <= pts.shape[0]:
        raise ValueError(f"k must lie in [1, {pts.shape[0]}], got {k}")
    return KnnModel(points=pts, k=k, variant=variant)


# ---------------------------------------------------------------------------
# Local outlier factor
# ---------------------------------------------------------------------------


def _local_density(
    dist: np.ndarray, member: np.ndarray, kdist: np.ndarray, lrd_cap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Member counts and local reachability densities (capped at ``lrd_cap``) of rows.

    Row i's reachability distance to training column j is
    ``max(kdist[j], dist[i, j])``.
    """
    counts = member.sum(axis=1)
    reach = np.maximum(kdist[None, :], dist)
    reach_sum = np.where(member, reach, 0.0).sum(axis=1)
    lrd = np.where(
        reach_sum > 0,
        counts / np.where(reach_sum > 0, reach_sum, 1.0),
        lrd_cap,
    )
    return counts, np.minimum(lrd, lrd_cap)


@dataclass(frozen=True)
class LofModel:
    """Local outlier factor with out-of-sample queries.

    Neighborhoods are tie-inclusive: every training point at distance
    <= the k-th neighbor distance plus the tie tolerance of kNN
    (:func:`_tie_tolerance`) belongs to the neighborhood, so it may hold
    more than k members.  Queries are scored against the training
    neighborhoods only; the query never joins them.  Values near 1 mean
    the query is as dense as its neighbors, values far above 1 mean an
    outlier.  ``score`` is :func:`neighbour_scores` of this one model.
    """

    points: NDArray[np.float64]
    k: int
    kdist: NDArray[np.float64] = field(repr=False)
    lrd: NDArray[np.float64] = field(repr=False)
    lrd_cap: float = field(repr=False)

    def score(self, x: np.ndarray) -> NDArray[np.float64]:
        return neighbour_scores([self], x)[0]


def lof_fit(points: np.ndarray, k: int) -> LofModel:
    """Fit LOF: precompute neighbor distances and local densities.

    Parameters
    ----------
    points:
        Training matrix (n, d), n >= 2, not all rows identical.
    k:
        Neighborhood size, 1 <= k < n.
    """
    pts = _validate_train(points)
    n = pts.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must lie in [1, {n - 1}], got {k}")

    dist = cdist(pts, pts)
    np.fill_diagonal(dist, np.inf)
    kdist = np.sort(dist, axis=1)[:, k - 1]
    diameter = dist[np.isfinite(dist)].max() if n > 1 else 0.0
    if diameter == 0.0:
        raise ValueError("all training points are identical; LOF is undefined")
    # Repeated rows zero the reachability sum; densities are clamped at
    # 1 / eps with eps tied to the data scale so scores stay finite.
    lrd_cap = 1.0 / (1e-12 * diameter)

    member = dist <= kdist[:, None] + _tie_tolerance(pts, pts)
    _, lrd = _local_density(dist, member, kdist, lrd_cap)
    return LofModel(points=pts, k=k, kdist=kdist, lrd=lrd, lrd_cap=lrd_cap)


# ---------------------------------------------------------------------------
# Scoring kNN and LOF models together
# ---------------------------------------------------------------------------


def neighbour_scores(
    models: Sequence[KnnModel | LofModel], x: np.ndarray
) -> NDArray[np.float64]:
    """Scores of kNN and LOF models fitted on the same points, one row per model.

    Each chunk of queries gets one distance matrix, one tie tolerance
    (:func:`_tie_tolerance`) and one partition that places the k-th
    distance of every k in use; the bound of k is that distance plus the
    tolerance.  kNN statistics are prefixes of one neighbour table at the
    largest kNN k (:func:`_neighbour_table`): kappa = ``d[:, k-1]``, gamma
    = ``d[:, :k].mean(axis=1)``, delta = ``|points[idx[:, :k]].mean(axis=1)
    - q|``.  A LOF neighbourhood holds the columns ``<=`` its bound, so a
    NaN query has none and scores NaN.
    """
    points = models[0].points
    if any(m.points is not points and not np.array_equal(m.points, points) for m in models):
        raise ValueError("models scored together must share their training points")
    queries = _as_points(x, points.shape[1])
    knn_k = max((m.k for m in models if isinstance(m, KnnModel)), default=0)
    ks = sorted({m.k for m in models if isinstance(m, LofModel)} | ({knn_k} if knn_k else set()))
    out = np.empty((len(models), queries.shape[0]))
    for start in range(0, queries.shape[0], _CHUNK):
        chunk = queries[start : start + _CHUNK]
        dist = cdist(chunk, points)
        tol = _tie_tolerance(chunk, points)
        kth = np.partition(dist, [k - 1 for k in ks], axis=1)[:, [k - 1 for k in ks]]
        bound = {k: kth[:, [i]] + tol for i, k in enumerate(ks)}
        if knn_k:
            table, idx = _neighbour_table(dist, knn_k, bound[knn_k], tol)
        for row, m in zip(out[:, start : start + _CHUNK], models):
            if isinstance(m, LofModel):
                member = dist <= bound[m.k]
                counts, lrd_q = _local_density(dist, member, m.kdist, m.lrd_cap)
                lrd_sum = np.where(member, m.lrd[None, :], 0.0).sum(axis=1)
                row[:] = lrd_sum / (lrd_q * counts)
            elif m.variant == "kappa":
                row[:] = table[:, m.k - 1]
            elif m.variant == "gamma":
                row[:] = table[:, : m.k].mean(axis=1)
            else:  # delta
                row[:] = np.linalg.norm(points[idx[:, : m.k]].mean(axis=1) - chunk, axis=1)
    return out




# ---------------------------------------------------------------------------
# Isolation forest
# ---------------------------------------------------------------------------

# Trees grow in batches of this many.  One level of a batch is a few numpy
# passes over the batch's points, and the batch bounds the working set of
# growth whatever the forest size.
_TREE_BATCH = 25


def _avg_path_length(n: int) -> float:
    """Expected path length c(n) of an unsuccessful BST search."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1.0) + np.euler_gamma) - 2.0 * (n - 1.0) / n


@dataclass(frozen=True)
class IsolationForestModel:
    """Ensemble of random isolation trees in heap layout.

    Row t of ``feature``, ``threshold`` and ``path`` is tree t.  The
    children of node i are 2i+1, which takes the points with
    ``x[feature] < threshold``, and 2i+2.  A leaf has ``feature`` -1 and
    ``threshold`` -inf, and ``path`` holds its depth plus c(leaf size).
    A descent therefore passes on from a leaf to its right child, down to
    depth ``height_limit``, and the nodes on that way repeat the leaf's
    ``path``: every descent takes ``height_limit`` steps without a leaf
    test.

    The anomaly score of a point is 2 ** (-E[h] / c(psi)) where E[h] is
    its mean path length over the trees, psi the per-tree subsample size
    and c the unsuccessful-search normalizer; scores fall in (0, 1) and
    0.5 marks path lengths at the random-tree expectation.  ``score`` is
    :func:`forest_scores` of this one model.
    """

    feature: NDArray[np.int64] = field(repr=False)
    threshold: NDArray[np.float64] = field(repr=False)
    path: NDArray[np.float64] = field(repr=False)
    subsample: int
    height_limit: int
    dim: int

    @property
    def n_trees(self) -> int:
        return self.feature.shape[0]

    def prefix(self, n_trees: int) -> IsolationForestModel:
        """The forest of this model's first ``n_trees`` trees."""
        if not 1 <= n_trees <= self.n_trees:
            raise ValueError(f"n_trees must lie in [1, {self.n_trees}], got {n_trees}")
        return replace(
            self,
            feature=self.feature[:n_trees],
            threshold=self.threshold[:n_trees],
            path=self.path[:n_trees],
        )

    def score(self, x: np.ndarray) -> NDArray[np.float64]:
        return forest_scores([self], x)[0]


def _grow_batch(
    points: np.ndarray,
    seed: int,
    first: int,
    psi: int,
    leaf_path: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Grow trees ``first, first + 1, ...`` level by level into ``rows``.

    ``rows`` are the (feature, threshold, path) rows of the batch's trees.
    Each level sorts the points still in inner nodes by (tree, node), so a
    node's points are one run and its bounds one ``reduceat``.
    ``leaf_path[s]`` is c(s).
    """
    batch, n_heap = rows[0].shape
    height_limit = n_heap.bit_length() - 1
    n_inner = n_heap // 2
    streams = [np.random.default_rng((seed, t)) for t in range(first, first + batch)]
    sample = np.concatenate([s.choice(len(points), size=psi, replace=False) for s in streams])
    uniforms = np.concatenate([s.random((n_inner, 2)) for s in streams])
    feature, threshold, path = (r.reshape(-1) for r in rows)
    x = points[sample]
    node = np.repeat(np.arange(batch) * n_heap, psi)  # tree * n_heap + heap index
    for depth in range(height_limit + 1):
        order = np.argsort(node, kind="stable")
        node, x = node[order], x[order]
        starts = np.flatnonzero(np.r_[True, node[1:] != node[:-1]])
        size = np.diff(np.r_[starts, node.size])
        head = node[starts]
        lo = np.minimum.reduceat(x, starts)
        hi = np.maximum.reduceat(x, starts)
        splittable = hi > lo
        count = splittable.sum(axis=1)
        split = (size > 1) & (count > 0) & (depth < height_limit)
        path[head[~split]] = depth + leaf_path[size[~split]]
        if not split.any():
            break
        keep = np.repeat(split, size)
        head, count = head[split], count[split]
        local = head % n_heap
        u = uniforms[head // n_heap * n_inner + local]
        pick = np.minimum((u[:, 0] * count).astype(np.intp), count - 1)
        dim = np.argmax(np.cumsum(splittable[split], axis=1) > pick[:, None], axis=1)
        lo, hi = lo[split, dim], hi[split, dim]
        value = np.minimum(lo + u[:, 1] * (hi - lo), hi)
        feature[head] = dim
        threshold[head] = value
        # A child that receives no point stays an empty leaf one level down.
        path[head + local + 1] = path[head + local + 2] = depth + 1
        x, node = x[keep], node[keep]
        group = np.repeat(np.arange(head.size), size[split])
        below = x[np.arange(node.size), dim[group]] < value[group]
        node = node + local[group] + 2 - below


def iforest_fit(
    points: np.ndarray,
    n_trees: int = 100,
    subsample: int = 256,
    seed: int = 0,
) -> IsolationForestModel:
    """Fit an isolation forest.

    Each tree grows on a subsample of size psi (the full set when smaller
    than ``subsample``) by uniform splits: a random non-constant dimension,
    a uniform split value between that dimension's min and max within the
    node.  Growth stops at singleton nodes, all-duplicate nodes and at
    height ceil(log2(psi)).

    Trees are stored in heap layout (:class:`IsolationForestModel`) and
    grow level by level, ``_TREE_BATCH`` trees at a time.  Tree t draws
    from its own stream, seeded by ``(seed, t)``: first its subsample, then
    one pair of uniforms (u1, u2) per inner heap node, where u1 picks among
    the node's non-constant dimensions and u2 places the split.  Tree t
    therefore depends only on the points, psi, ``seed`` and t, so the first
    n trees of a forest are the forest of n trees, and :func:`forest_scores`
    scores both the same, bit for bit.  Trees are i.i.d. (Liu, Ting & Zhou,
    "Isolation Forest", ICDM 2008), so nesting smaller forests in a larger
    one changes no forest's distribution.

    Parameters
    ----------
    points:
        Training matrix (n, d), n >= 2, d >= 1.
    n_trees:
        Ensemble size.
    subsample:
        Per-tree subsample size psi before clipping to n.
    seed:
        Seed of the per-tree streams.
    """
    pts = _validate_train(points)
    if pts.shape[1] < 1:
        raise ValueError("training points need at least one dimension")
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if subsample < 2:
        raise ValueError("subsample must be at least 2")
    psi = min(subsample, pts.shape[0])
    if psi < 2:
        raise ValueError("need at least 2 training points")
    height_limit = math.ceil(math.log2(psi))
    n_heap = 2 ** (height_limit + 1) - 1
    leaf_path = np.array([_avg_path_length(s) for s in range(psi + 1)])
    feature = np.full((n_trees, n_heap), -1, dtype=np.int64)
    threshold = np.full((n_trees, n_heap), -np.inf)
    path = np.zeros((n_trees, n_heap))
    for first in range(0, n_trees, _TREE_BATCH):
        batch = slice(first, first + _TREE_BATCH)
        _grow_batch(pts, seed, first, psi, leaf_path,
                    (feature[batch], threshold[batch], path[batch]))
    for depth in range(1, height_limit + 1):
        right = np.arange(2**depth, 2 ** (depth + 1) - 1, 2)
        parent = right // 2 - 1
        path[:, right] = np.where(feature[:, parent] < 0, path[:, parent], path[:, right])
    return IsolationForestModel(
        feature=feature,
        threshold=threshold,
        path=path,
        subsample=psi,
        height_limit=height_limit,
        dim=pts.shape[1],
    )


def forest_scores(
    models: Sequence[IsolationForestModel], x: np.ndarray
) -> NDArray[np.float64]:
    """Scores of isolation forests that are prefixes of one forest, one row per model.

    The trees of the largest forest are walked once, in order.  Every query
    descends a tree from the root by ``idx = 2*idx + 1 + go_right`` to depth
    ``height_limit`` (past its leaf, see :class:`IsolationForestModel`), and
    the path length found there over c(psi) is added to the query's running
    total; a model's row, ``2 ** (-total / n_trees)``, is read off
    when the walk reaches its tree count.  The sum runs in tree order, so a
    forest scores the same, bit for bit, alone or as a prefix of a larger
    one (:meth:`IsolationForestModel.prefix`).  Averaging h/c(psi) rather
    than normalizing the averaged depth is algebraically the same, but a
    forest of pure leaves then yields exponent -1 and score 0.5 without
    rounding.
    """
    forest = max(models, key=lambda m: m.n_trees)
    if any(
        m is not forest and not (
            (m.subsample, m.dim) == (forest.subsample, forest.dim)
            and all(np.array_equal(getattr(m, a), getattr(forest, a)[: m.n_trees])
                    for a in ("feature", "threshold", "path"))
        )
        for m in models
    ):
        raise ValueError("models scored together must be prefixes of one forest")
    queries = _as_points(x, forest.dim)
    n, d = queries.shape
    coords = queries.ravel()
    row_start = np.arange(n) * d
    norm = _avg_path_length(forest.subsample)
    readout: dict[int, list[int]] = {}
    for row, m in enumerate(models):
        readout.setdefault(m.n_trees, []).append(row)
    out = np.empty((len(models), n))
    total = np.zeros(n)
    for t, (feature, threshold) in enumerate(zip(forest.feature, forest.threshold)):
        idx = np.zeros(n, dtype=np.intp)
        for _ in range(forest.height_limit):
            # At a leaf, feature -1 reads some coordinate, and none lies below -inf.
            below = coords[row_start + feature[idx]] < threshold[idx]
            idx = 2 * idx + 2 - below
        total += forest.path[t, idx] / norm
        if t + 1 in readout:
            out[readout[t + 1]] = np.power(2.0, -total / (t + 1))
    return out
