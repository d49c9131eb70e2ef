"""Reference anomaly detectors: kNN statistics, LOF and isolation forest.

All detectors share the interface: fit on an unlabeled (n, d) training
matrix, then score arbitrary query points, larger score = more anomalous.
Every model's ``score`` method is vectorized over an (m, d) array, which
is the shape expected by the volume estimator.

Distances are Euclidean throughout.  kNN and LOF share one definition of
a neighbourhood: distances that differ only by rounding count as tied
(:func:`_tie_tolerance`), kNN neighbour order is distance, then training
index (:func:`_neighbour_table`), which keeps scores reproducible on
datasets with repeated rows, and a LOF neighbourhood holds every training
point up to the k-th distance plus that tolerance.  LOF fits of any number
of k share one training distance matrix (:func:`lof_fitter`).
:func:`neighbour_scores` scores any kNN and LOF models fitted on the same
points, one model (``KnnModel.score``, ``LofModel.score``) or every such
combo of a grid block, from one distance matrix per chunk of queries: one
sorted prefix of each row's nearest distances gives the k-th distance of
every k, one neighbour table every kNN statistic, and one running sum of
the neighbours' coordinates every delta.  Isolation trees are grown level
by level in heap layout, every draw of tree t a counter-based hash of
(seed, t, slot), so a forest of n trees is the n-tree prefix of a larger
forest of the same seed; :func:`forest_scores` scores one forest or all of
its prefixes in one pass over the trees.  Forest growth and descent work in
batches of at most ``_TILE`` elements (trees x subsample points x
dimensions, trees x queries), so a batch holds every tree for a test fold
and a few trees for a large volume sample.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

_CHUNK = 4096


def cdist(a: NDArray[np.float64], b: NDArray[np.float64]) -> NDArray[np.float64]:
    """Euclidean distances between the rows of ``a`` and ``b`` (scipy's ``cdist``).

    scipy is imported at the first call, so importing ``adeval`` (and every
    command that fits no neighbour model) loads no scipy.
    """
    from scipy.spatial.distance import cdist

    return cdist(a, b)


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
    # Sorted by distance only: the tie groups below come from the sorted
    # values, which any sort gives alike, and the (group, index) sort after
    # it fixes the order inside each group, so this sort need not be stable.
    order = np.argsort(cand_dist, axis=1)
    cand_dist = np.take_along_axis(cand_dist, order, axis=1)
    cand_idx = np.take_along_axis(cand_idx, order, axis=1)
    # Padding (inf - inf) and NaN rows give NaN gaps, which start no group.
    with np.errstate(invalid="ignore"):
        new_group = np.diff(cand_dist, axis=1) > tol
    group = np.zeros(cand_dist.shape, int)
    np.cumsum(new_group, axis=1, out=group[:, 1:])
    # Indices lie in [0, n], so group * (n + 1) + index orders by (group,
    # index).  Built in place: these arrays are as large as the distances.
    group *= dist.shape[1] + 1
    group += cand_idx
    order = np.argsort(group, axis=1, kind="stable")[:, :k]
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


def lof_fitter(points: np.ndarray) -> Callable[[int], LofModel]:
    """``k ->`` the LOF model of ``points`` at neighbourhood size k.

    ``points`` is the training matrix (n, d), n >= 2, not all rows
    identical, and 1 <= k < n.  A fit precomputes the neighbour distances
    and local densities.  The training distance matrix (diagonal excluded), its row sort and the
    tie tolerance are computed by the first call and shared by the later
    ones, so the LOF combos of a grid block fit from one of each.  Each
    call checks its own k, so a k out of range fails only its own fit.
    """

    @functools.cache
    def neighbourhoods():
        pts = _validate_train(points)
        dist = cdist(pts, pts)
        np.fill_diagonal(dist, np.inf)
        diameter = dist[np.isfinite(dist)].max() if pts.shape[0] > 1 else 0.0
        return pts, dist, np.sort(dist, axis=1), _tie_tolerance(pts, pts), diameter

    def fit(k: int) -> LofModel:
        pts, dist, ordered, tol, diameter = neighbourhoods()
        n = pts.shape[0]
        if not 1 <= k < n:
            raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
        if diameter == 0.0:
            raise ValueError("all training points are identical; LOF is undefined")
        # Repeated rows zero the reachability sum; densities are clamped at
        # 1 / eps with eps tied to the data scale so scores stay finite.
        lrd_cap = 1.0 / (1e-12 * diameter)
        kdist = ordered[:, k - 1]
        member = dist <= kdist[:, None] + tol
        _, lrd = _local_density(dist, member, kdist, lrd_cap)
        return LofModel(points=pts, k=k, kdist=kdist, lrd=lrd, lrd_cap=lrd_cap)

    return fit


# ---------------------------------------------------------------------------
# Scoring kNN and LOF models together
# ---------------------------------------------------------------------------


def neighbour_scores(
    models: Sequence[KnnModel | LofModel], x: np.ndarray
) -> NDArray[np.float64]:
    """Scores of kNN and LOF models fitted on the same points, one row per model.

    Each chunk of queries gets one distance matrix, one tie tolerance
    (:func:`_tie_tolerance`), and one partition at the largest k in use
    whose prefix is then sorted, so column k - 1 of that prefix is the k-th
    distance of every k; the bound of k is that distance plus the
    tolerance.  kNN statistics are prefixes of one neighbour table at the
    largest kNN k (:func:`_neighbour_table`): kappa = ``d[:, k-1]``, gamma
    = ``d[:, :k].mean(axis=1)``, delta = ``|s_k / k - q|``, where ``s_k``
    adds the first k neighbours' coordinates one at a time, in neighbour
    order: column k - 1 of one running sum over ``points[idx]``, gathered
    once at the largest delta k.  For d >= 2 that is the sum numpy's
    ``points[idx[:, :k]].mean(axis=1)`` takes.  A LOF neighbourhood holds
    the columns ``<=`` its bound, so a NaN query has none; every kNN and
    LOF model scores a NaN query NaN.
    """
    points = models[0].points
    if any(m.points is not points and not np.array_equal(m.points, points) for m in models):
        raise ValueError("models scored together must share their training points")
    queries = _as_points(x, points.shape[1])
    knn = [m for m in models if isinstance(m, KnnModel)]
    knn_k = max((m.k for m in knn), default=0)
    delta_k = max((m.k for m in knn if m.variant == "delta"), default=0)
    ks = sorted({m.k for m in models if isinstance(m, LofModel)} | ({knn_k} if knn_k else set()))
    out = np.empty((len(models), queries.shape[0]))
    for start in range(0, queries.shape[0], _CHUNK):
        chunk = queries[start : start + _CHUNK]
        rows = out[:, start : start + _CHUNK]
        dist = cdist(chunk, points)
        tol = _tie_tolerance(chunk, points)
        nearest = np.partition(dist, ks[-1] - 1, axis=1)[:, : ks[-1]]
        nearest.sort(axis=1)
        bound = {k: nearest[:, [k - 1]] + tol for k in ks}
        del nearest  # a view that keeps the partitioned copy of ``dist`` alive
        if knn_k:
            table, idx = _neighbour_table(dist, knn_k, bound[knn_k], tol)
            # Running sums of the neighbours up to the largest delta k, added
            # in neighbour order: delta at k reads column k - 1.  The gather is
            # as large as LOF's arrays, so it is released before any LOF row.
            near = points[idx[:, :delta_k]]
            np.cumsum(near, axis=1, out=near)
            for row, m in zip(rows, models):
                if isinstance(m, LofModel):
                    continue
                if m.variant == "kappa":
                    row[:] = table[:, m.k - 1]
                elif m.variant == "gamma":
                    row[:] = table[:, : m.k].mean(axis=1)
                else:  # delta
                    row[:] = np.linalg.norm(near[:, m.k - 1] / m.k - chunk, axis=1)
            del near
        for row, m in zip(rows, models):
            if isinstance(m, LofModel):
                member = dist <= bound[m.k]
                counts, lrd_q = _local_density(dist, member, m.kdist, m.lrd_cap)
                lrd_sum = np.where(member, m.lrd[None, :], 0.0).sum(axis=1)
                row[:] = lrd_sum / (lrd_q * counts)
    return out




# ---------------------------------------------------------------------------
# Isolation forest
# ---------------------------------------------------------------------------

# Elements in one batch of forest work: trees x subsample points x dimensions
# (or trees x training points, whichever is larger) in growth, trees x
# queries in a descent.  A batch of this size makes each numpy pass long
# enough to pay for its call, and bounds the working set whatever the forest
# size or the number of queries.
_TILE = 2**16


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


# splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): the state increment and the finaliser's
# multipliers.  Every constant is a np.uint64, so uint64 arrays never meet a
# Python int or a signed array and stay uint64 under either numpy promotion
# rule (NEP 50 or value-based).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(state: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Output ``k`` (from 0) of splitmix64 seeded with ``state``, elementwise.

    That is the finaliser of ``state + (k + 1) * gamma`` mod 2**64.  Both
    arguments are uint64 arrays (broadcast together): numpy array arithmetic
    wraps silently, where uint64 scalars would warn on overflow.
    """
    z = state + (k + np.uint64(1)) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


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

    Every draw is a pure function of (seed, t, slot), counter-based in the
    sense of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
    (SC 2011): output ``slot`` of splitmix64 seeded with output t of
    splitmix64 seeded with ``seed``.  Heap node i's (u1, u2) are slots 2i
    and 2i + 1, as their top 53 bits over 2**53, computed only for the
    nodes that split.  The key of point j is slot ``2 * n_heap + j`` with
    its low ceil(log2 n) bits replaced by j, and a tree grows on the points
    of its psi smallest keys (every point when psi equals n).  A batch holds
    one key per tree and training point.
    """
    batch, n_heap = rows[0].shape
    n = len(points)
    height_limit = n_heap.bit_length() - 1
    tree_key = _splitmix(np.array([seed], dtype=np.uint64),
                         np.arange(first, first + batch, dtype=np.uint64))
    # The psi smallest keys, whose low bits are the point index, so all keys
    # differ and the chosen set does not depend on how ties break.
    index = np.arange(n, dtype=np.uint64)
    slot = np.uint64(2 * n_heap) + index
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = _splitmix(tree_key[:, None], slot) & ~low | index
    x = points[np.argpartition(keys, psi - 1, axis=1)[:, :psi].ravel()]
    feature, threshold, path = (r.reshape(-1) for r in rows)
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
        slot = (2 * local).astype(np.uint64)[:, None] + np.array([0, 1], dtype=np.uint64)
        bits = _splitmix(tree_key[head // n_heap, None], slot) >> np.uint64(11)
        u = bits.astype(np.float64) * 2.0**-53
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
    grow level by level, ``max(1, _TILE // max(psi * d, n))`` trees at a
    time, so a batch's points and its per-point keys both stay within
    ``_TILE`` elements when n does.  Trees of a batch grow independently,
    so the batch size changes no tree.  Every draw of tree t is a
    splitmix64 hash of ``(seed, t, slot)`` (:func:`_grow_batch`), with no
    generator state: its subsample is the psi points with the smallest
    per-point keys, so every point when psi equals n, and each node that
    splits takes one pair of uniforms
    (u1, u2) from its heap index, where u1 picks among the node's
    non-constant dimensions and u2 places the split.  A tree depends on the
    set of its points, not on their row order.  Tree t therefore depends
    only on the points, psi, ``seed`` and t, so the first n trees of a
    forest are the forest of n trees, and :func:`forest_scores` scores both
    the same, bit for bit.  Trees are i.i.d. (Liu, Ting & Zhou,
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
        Seed of every tree's draws, in [0, 2**64).
    """
    pts = _validate_train(points)
    if pts.shape[1] < 1:
        raise ValueError("training points need at least one dimension")
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if subsample < 2:
        raise ValueError("subsample must be at least 2")
    # An integer in uint64's range: a cast would truncate a float and wrap a
    # negative or too-large seed onto another forest's.
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    psi = min(subsample, pts.shape[0])
    if psi < 2:
        raise ValueError("need at least 2 training points")
    height_limit = math.ceil(math.log2(psi))
    n_heap = 2 ** (height_limit + 1) - 1
    leaf_path = np.array([_avg_path_length(s) for s in range(psi + 1)])
    feature = np.full((n_trees, n_heap), -1, dtype=np.int64)
    threshold = np.full((n_trees, n_heap), -np.inf)
    path = np.zeros((n_trees, n_heap))
    per_batch = max(1, _TILE // max(psi * pts.shape[1], pts.shape[0]))
    for first in range(0, n_trees, per_batch):
        batch = slice(first, first + per_batch)
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

    The trees of the largest forest are descended once, in tiles of at most
    ``_TILE`` (trees x queries) elements: all trees at once for up to
    ``_TILE // n_trees`` queries, chunks of ``_TILE`` queries one tree at a
    time for more than ``_TILE``.  Every query descends each tree of a tile
    from the root by ``idx = 2*idx + 1 + go_right`` to depth
    ``height_limit`` (past its leaf, see :class:`IsolationForestModel`), and
    the path length found there over c(psi) is added to the query's running
    total one tree at a time, in tree order; a model's row,
    ``2 ** (-total / n_trees)``, is read off at its tree count.  A tiling
    therefore gives the same scores, bit for bit, as a walk over single
    trees, and a forest scores the same alone or as a prefix of a larger
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
    n_heap = forest.feature.shape[1]
    feature, threshold, path = (
        getattr(forest, a).ravel() for a in ("feature", "threshold", "path")
    )
    norm = _avg_path_length(forest.subsample)
    readout: dict[int, list[int]] = {}
    for row, m in enumerate(models):
        readout.setdefault(m.n_trees, []).append(row)
    out = np.empty((len(models), n))
    width = max(1, min(n, _TILE))  # queries per tile
    height = max(1, _TILE // width)  # trees per tile
    for first in range(0, n, width):
        cols = slice(first, first + width)
        row_start = np.arange(n)[cols] * d
        total = np.zeros(row_start.size)
        for top in range(0, forest.n_trees, height):
            stop = min(top + height, forest.n_trees)
            # Tree t's heap starts at t * n_heap, so in flat indices the
            # children of node i are 2i + 1 - root and 2i + 2 - root.
            root = np.arange(top * n_heap, stop * n_heap, n_heap)[:, None]
            node = np.repeat(root, row_start.size, axis=1)
            for _ in range(forest.height_limit):
                # At a leaf, feature -1 reads some coordinate, and none lies below -inf.
                below = coords[row_start + feature[node]] < threshold[node]
                node *= 2
                node += 2 - root
                node -= below
            # Row i becomes the total after tree top + i: cumsum adds one tree
            # at a time, in tree order, as a walk over single trees does.
            step = path[node] / norm
            step[0] += total
            totals = np.cumsum(step, axis=0)
            total = totals[-1]
            for n_trees, rows in readout.items():
                if top < n_trees <= stop:
                    out[rows, cols] = np.power(2.0, -totals[n_trees - top - 1] / n_trees)
    return out
