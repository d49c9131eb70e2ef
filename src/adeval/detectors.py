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
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _avg_path_length(n: int) -> float:
    """Expected path length c(n) of an unsuccessful BST search."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (math.log(n - 1.0) + np.euler_gamma) - 2.0 * (n - 1.0) / n


@dataclass(frozen=True)
class _FlatTree:
    """One isolation tree flattened to arrays for vectorized descent."""

    feature: NDArray[np.int64]  # -1 marks a leaf
    threshold: NDArray[np.float64]
    left: NDArray[np.int64]
    right: NDArray[np.int64]
    depth: NDArray[np.int64]
    adjust: NDArray[np.float64]  # c(leaf size) at leaves, 0 elsewhere


def _grow_tree(points: np.ndarray, height_limit: int, rng: np.random.Generator) -> _FlatTree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    depth: list[int] = []
    adjust: list[float] = []

    def add_node(dep: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        depth.append(dep)
        adjust.append(0.0)
        return len(feature) - 1

    def grow(subset: np.ndarray, dep: int) -> int:
        node = add_node(dep)
        if subset.shape[0] <= 1 or dep >= height_limit:
            adjust[node] = _avg_path_length(subset.shape[0])
            return node
        lo = subset.min(axis=0)
        hi = subset.max(axis=0)
        splittable = np.flatnonzero(hi > lo)
        if splittable.size == 0:  # duplicate rows: nothing to isolate
            adjust[node] = _avg_path_length(subset.shape[0])
            return node
        q = int(splittable[rng.integers(splittable.size)])
        v = float(rng.uniform(lo[q], hi[q]))
        mask = subset[:, q] < v
        feature[node] = q
        threshold[node] = v
        left[node] = grow(subset[mask], dep + 1)
        right[node] = grow(subset[~mask], dep + 1)
        return node

    grow(points, 0)
    return _FlatTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        adjust=np.array(adjust),
    )


@dataclass(frozen=True)
class IsolationForestModel:
    """Ensemble of random isolation trees.

    The anomaly score of a point is 2 ** (-E[h] / c(psi)) where E[h] is
    its mean path length over the trees, psi the per-tree subsample size
    and c the unsuccessful-search normalizer; scores fall in (0, 1) and
    0.5 marks path lengths at the random-tree expectation.
    """

    trees: tuple[_FlatTree, ...]
    n_trees: int
    subsample: int
    height_limit: int
    dim: int

    def _tree_paths(self, tree: _FlatTree, queries: np.ndarray) -> NDArray[np.float64]:
        idx = np.zeros(queries.shape[0], dtype=np.int64)
        for _ in range(self.height_limit + 1):
            feat = tree.feature[idx]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                break
            go_left = (
                queries[active, feat[active]] < tree.threshold[idx[active]]
            )
            idx[active] = np.where(
                go_left, tree.left[idx[active]], tree.right[idx[active]]
            )
        return tree.depth[idx] + tree.adjust[idx]

    def score(self, x: np.ndarray) -> NDArray[np.float64]:
        queries = _as_points(x, self.dim)
        # Average the per-tree normalized depth h/c(psi) rather than
        # normalizing the averaged depth: algebraically the same, but a
        # forest of pure leaves then yields exponent -1 and score 0.5
        # without rounding.
        norm = _avg_path_length(self.subsample)
        total = np.zeros(queries.shape[0])
        for tree in self.trees:
            total += self._tree_paths(tree, queries) / norm
        return np.power(2.0, -total / self.n_trees)


def iforest_fit(
    points: np.ndarray,
    n_trees: int = 100,
    subsample: int = 256,
    seed: int = 0,
) -> IsolationForestModel:
    """Fit an isolation forest.

    Each tree grows on an independent subsample of size psi (the full set
    when smaller than ``subsample``) by recursive uniform splits: a random
    non-constant dimension, a uniform split value between that dimension's
    min and max within the node.  Growth stops at singleton nodes,
    all-duplicate nodes and at height ceil(log2(psi)).  A fixed seed makes
    fitting and scoring exactly reproducible.

    Parameters
    ----------
    points:
        Training matrix (n, d), n >= 2.
    n_trees:
        Ensemble size.
    subsample:
        Per-tree subsample size psi before clipping to n.
    seed:
        Seed of the tree-growing stream.
    """
    pts = _validate_train(points)
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if subsample < 2:
        raise ValueError("subsample must be at least 2")
    psi = min(subsample, pts.shape[0])
    if psi < 2:
        raise ValueError("need at least 2 training points")
    height_limit = math.ceil(math.log2(psi))
    rng = np.random.default_rng(seed)
    trees = tuple(
        _grow_tree(pts[rng.choice(pts.shape[0], size=psi, replace=False)], height_limit, rng)
        for _ in range(n_trees)
    )
    return IsolationForestModel(
        trees=trees,
        n_trees=n_trees,
        subsample=psi,
        height_limit=height_limit,
        dim=pts.shape[1],
    )
