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
point up to the k-th distance plus that tolerance.  Every such
neighbourhood is read from a row's neighbour prefix (:func:`_nearest`):
its K + 1 nearest columns from one ``argpartition``, K the largest k in
use.  A row whose (K + 1)-th distance is beyond the bound of K (its K-th
distance plus the tolerance) holds every neighbour of every k <= K in its
prefix; any other row, and every row when the prefix would hold more than
half the training points, reads its whole row.  Sums over a neighbourhood
are taken over a zero row with the prefix written in at its columns
(:meth:`_Rows.sums`), the array the whole-row path sums, so both paths
give the same bits.  LOF fits of any number of k share one prefix per
training row, computed in blocks of rows, so a fit never holds the n x n
distance matrix (:func:`lof_fitter`).  :func:`neighbour_scores` scores any
kNN and LOF models fitted on the same points, one model
(``KnnModel.score``, ``LofModel.score``) or every such combo of a grid
block, from one distance matrix and one prefix per chunk of queries: the
sorted prefix gives the k-th distance of every k, one neighbour table
every kNN statistic, and one running sum of the neighbours' coordinates
every delta; a chunk of queries holds at most ``_CHUNK`` rows and
``_BLOCK_ELEMENTS`` (rows x training points) elements.  The prefix keeps
its columns in sorted order, and a row whose first k + 1 distances lie
pairwise more than the tolerance apart takes its kNN neighbour table from
that prefix as it stands (:func:`_knn_table`); only the other rows sort
candidates by tie group and index.  Isolation trees are grown level by
level in heap layout, from training rows held as flat offsets into the
points, each carrying the index of its live node and never sorted by
node: a level reads node sizes from one ``bincount`` and a split's bounds
from ``minimum.at`` / ``maximum.at`` over the coordinates of its column
(:func:`_grow_batch`).  Every draw of tree t is a counter-based hash of
(seed, t, slot), hashed per point only when the subsample is smaller than
the training set, so a forest of n trees is the n-tree prefix of a larger
forest of the same seed;
:func:`forest_scores` scores one forest or all of its prefixes in one
pass over the trees, each level of a descent updating one node array in
place from bounds-checked ``take`` gathers, and each tree adding its row
of path lengths over c(psi) (divided once per call) to a running total, so
a prefix is read off when the count reaches its trees.  Forest growth
works in batches of at most ``_BLOCK_ELEMENTS`` elements (trees x
subsample points x dimensions, or trees x training points), and a descent
in tiles of at most ``_DESCENT_TILE`` (trees x queries) elements, so a
tile holds every tree for a small test fold and a few trees for a large
volume sample.  The root level of a tile compares one
gathered row of the transposed queries per tree with the tree's root
threshold; only the levels below gather per element.  Query chunks, LOF
fit blocks and growth batches share the one budget ``_BLOCK_ELEMENTS``
(2**17 elements, 1 MiB of float64), and each query, training row and tree
is computed alone, so the budget changes no value.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

# Elements (1 MiB of float64) in one unit of work over an array wider than a
# cache: a chunk of neighbour-scoring queries (rows x training points), a
# block of training rows in a LOF fit (rows x training points) and a batch of
# forest growth (trees x the larger of subsample points x dimensions and
# training points).  Each site divides it by its row width, so its arrays
# stay bounded whatever n_train, n_trees or psi.  Of 2**16, 2**17 and 2**18,
# 2**17 was fastest or tied at every shape measured (2-vCPU x86_64): query
# chunks of 2**21 elements ran about 1.35x slower at n_train = 4000 and 8000,
# with a 13x larger traced peak, and 2**16 grew forests up to 18% slower.
_BLOCK_ELEMENTS = 2**17
# At most this many queries per chunk, for small training sets.
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


@dataclass(frozen=True)
class _Rows:
    """Distance rows to the n training points: whole rows, or a prefix of each.

    ``index`` picks the rows from the matrix they come from.  With ``cols``
    None, ``dist`` holds whole rows; otherwise entry (i, j) of ``dist`` is
    the distance to training column ``cols[i, j]``, and the prefix holds
    every column within the row's largest neighbourhood bound
    (:func:`_nearest`).
    """

    index: NDArray[np.intp]
    dist: NDArray[np.float64]
    cols: NDArray[np.intp] | None
    n: int

    def at(self, values: np.ndarray) -> np.ndarray:
        """Per-training-column ``values`` at each entry of ``dist``."""
        return values[None, :] if self.cols is None else values[self.cols]

    @functools.cached_property
    def _flat(self) -> np.ndarray:
        return (self.cols + self.n * np.arange(len(self.cols))[:, None]).ravel()

    @functools.cached_property
    def _whole(self) -> np.ndarray:
        return np.zeros((len(self.cols), self.n))

    def sums(self, member: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Per row, the sum of ``values`` over ``member``, as the whole rows sum it.

        That is ``np.where(member, values, 0.0).sum(axis=1)`` over whole rows,
        bit for bit: a prefix is written at its columns into one zero (rows x
        n) array, whose other columns are never written, and that array is
        summed.  Every call writes the same columns, so one array serves
        them all.
        """
        kept = np.where(member, values, 0.0)
        if self.cols is None:
            return kept.sum(axis=1)
        self._whole.ravel()[self._flat] = kept.ravel()
        return self._whole.sum(axis=1)

    def take(self, at: np.ndarray) -> _Rows:
        """The rows at positions ``at`` of these rows."""
        cols = None if self.cols is None else self.cols[at]
        return _Rows(self.index[at], self.dist[at], cols, self.n)


def _nearest(
    dist: np.ndarray, top: int, tol: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[_Rows]]:
    """Each row's nearest distances and columns, sorted, and the rows that hold its neighbours.

    Returns ``(near, cols, parts)``.  ``near`` holds each row's top + 1
    smallest distances (all n when top = n) in ascending order, and
    ``cols`` their training columns in the same order.  Equal distances
    come in the order an unstable sort gives, so only a row whose
    distances are pairwise more than ``tol`` apart may read its order
    (:func:`_knn_table`).

    One ``argpartition`` takes each row's top + 1 nearest columns, and one
    ``argsort`` of that prefix orders them.  A row keeps only its prefix
    when its (top + 1)-th distance is beyond the bound of ``top`` (the
    top-th distance plus ``tol``): every column within the bound of any
    k <= top is then in the prefix.  Any other row (a tie group at the
    top-th distance may reach past the prefix, or the row is NaN) keeps
    its whole row.  ``parts`` holds the prefix rows, then the whole rows,
    each part only if it holds a row.  When the prefix would hold more than half the
    columns, every row keeps its whole row and ``cols`` comes from one
    ``argsort`` of each whole row, faster there than a partition and a
    sort of the prefix.
    """
    n = dist.shape[1]
    if 2 * (top + 1) > n:
        cols = np.argsort(dist, axis=1)[:, : top + 1]
        near = np.take_along_axis(dist, cols, axis=1)
        return near, cols, [_Rows(np.arange(len(dist)), dist, None, n)]
    cols = np.argpartition(dist, top, axis=1)[:, : top + 1]
    near = np.take_along_axis(dist, cols, axis=1)
    order = np.argsort(near, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    near = np.take_along_axis(near, order, axis=1)
    served = near[:, top] > near[:, top - 1] + tol[:, 0]
    prefix, whole = np.flatnonzero(served), np.flatnonzero(~served)
    parts = [_Rows(prefix, near[prefix], cols[prefix], n), _Rows(whole, dist[whole], None, n)]
    return near, cols, [part for part in parts if len(part.index)]


def _neighbour_table(
    rows: _Rows, k: int, bound: np.ndarray, tol: np.ndarray
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
    gives it.  The candidates of a row that :func:`_nearest` serves from
    its prefix are those of its whole row, so the table is the same.
    """
    dist, n = rows.dist, rows.n
    keep = ~(dist > bound)
    counts = keep.sum(axis=1)
    # Candidates keep their column order, padded with distance inf and index
    # n; boolean assignment fills row-major, like the order of ``keep``'s hits.
    filled = np.arange(counts.max()) < counts[:, None]
    cand_idx = np.full(filled.shape, n)
    cand_idx[filled] = np.nonzero(keep)[1] if rows.cols is None else rows.cols[keep]
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
    # index).  Built in place: these arrays are as large as the candidates.
    group *= n + 1
    group += cand_idx
    order = np.argsort(group, axis=1, kind="stable")[:, :k]
    return (
        np.take_along_axis(cand_dist, order, axis=1),
        np.take_along_axis(cand_idx, order, axis=1),
    )


def _knn_table(
    near: np.ndarray,
    cols: np.ndarray,
    parts: list[_Rows],
    k: int,
    bound: np.ndarray,
    tol: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_neighbour_table` of every row, read from the sorted prefix where it can be.

    ``near``, ``cols`` and ``parts`` come from :func:`_nearest`.  A row
    whose first k distances are each more than ``tol`` above the one
    before, and whose (k + 1)-th is beyond ``bound`` (the k-th plus
    ``tol``), has exactly its first k columns as candidates, each a tie
    group of its own, so its table is that sorted prefix: the same bits as
    :func:`_neighbour_table`.  Its order is unique, whatever
    the sort.  Any other row (near-ties, exact ties, a NaN row, and every
    row when k = n, which has no (k + 1)-th column) is tabled by
    :func:`_neighbour_table` from the rows ``parts`` hold for it.
    """
    table, idx = near[:, :k], cols[:, :k]
    # An infinite query gives inf - inf here, which is NaN: not apart.
    with np.errstate(invalid="ignore"):
        fast = (np.diff(table, axis=1) > tol).all(axis=1)
    fast &= near[:, k] > bound[:, 0] if k < near.shape[1] else False
    if fast.all():
        return table, idx
    table, idx = table.copy(), idx.copy()
    for part in parts:
        at = np.flatnonzero(~fast[part.index])
        if at.size:
            rows = part.take(at)
            table[rows.index], idx[rows.index] = _neighbour_table(
                rows, k, bound[rows.index], tol[rows.index]
            )
    return table, idx


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
    rows: _Rows, member: np.ndarray, kdist: np.ndarray, lrd_cap: float
) -> tuple[np.ndarray, np.ndarray]:
    """Member counts and local reachability densities (capped at ``lrd_cap``) of rows.

    Row i's reachability distance to training column j is
    ``max(kdist[j], dist[i, j])``.
    """
    counts = member.sum(axis=1)
    reach_sum = rows.sums(member, np.maximum(rows.at(kdist), rows.dist))
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


def _training_rows(points: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Distances from training rows ``index`` to every training point, itself at inf."""
    dist = cdist(points if len(index) == len(points) else points[index], points)
    dist[np.arange(len(index)), index] = np.inf
    return dist


def lof_fitter(points: np.ndarray, ks: Iterable[int] = ()) -> Callable[[int], LofModel]:
    """``k ->`` the LOF model of ``points`` at neighbourhood size k.

    ``points`` is the training matrix (n, d), n >= 2, not all rows
    identical, and 1 <= k < n.  A fit precomputes the neighbour distances
    and local densities.  The training rows' neighbour prefixes
    (:func:`_nearest`) at the largest k of ``ks`` and the fitted k, and
    the tie tolerance, are computed by the first call and shared by the
    later ones, so the LOF combos of a grid block fit from one of each;
    ``ks`` out of range are ignored there.  Each call checks its own k, so
    a k out of range fails only its own fit.

    The training distances are computed in blocks of rows of at most
    ``_BLOCK_ELEMENTS`` (rows x n) elements, and only each row's prefix is
    kept, so a fit never holds the n x n matrix.  A row served by its
    prefix sums its reachability distances through :meth:`_Rows.sums`, bit
    for bit as its whole row would; the other rows' distances are computed
    again, a block at a time, for each k.  Each row is computed alone, so
    the block size changes no value.
    """
    ks = tuple(ks)

    @functools.cache
    def training():
        pts = _validate_train(points)
        return pts, _tie_tolerance(pts, pts)

    @functools.cache
    def neighbourhoods(top: int):
        pts, tol = training()
        n = pts.shape[0]
        step = max(1, _BLOCK_ELEMENTS // n)
        near = np.empty((n, top))
        # (index, prefix, cols) per block of rows and group; whole rows keep
        # only their index, as their distances are computed again.
        parts = []
        diameter = 0.0
        for start in range(0, n, step):
            index = np.arange(start, min(start + step, n))
            dist = _training_rows(pts, index)
            diameter = max(diameter, dist[np.isfinite(dist)].max())
            nearest, _, groups = _nearest(dist, top, tol[index])
            near[index] = nearest[:, :top]
            parts += [(index[g.index], None if g.cols is None else g.dist, g.cols) for g in groups]
        return near, parts, diameter

    def fit(k: int) -> LofModel:
        pts, tol = training()
        n = pts.shape[0]
        if not 1 <= k < n:
            raise ValueError(f"k must lie in [1, {n - 1}], got {k}")
        near, parts, diameter = neighbourhoods(max([k, *(j for j in ks if 1 <= j < n)]))
        if diameter == 0.0:
            raise ValueError("all training points are identical; LOF is undefined")
        # Repeated rows zero the reachability sum; densities are clamped at
        # 1 / eps with eps tied to the data scale so scores stay finite.
        lrd_cap = 1.0 / (1e-12 * diameter)
        kdist = near[:, k - 1].copy()
        lrd = np.empty(n)
        for index, prefix, cols in parts:
            # A new _Rows per block and k: its zero array lives for one block.
            dist = _training_rows(pts, index) if cols is None else prefix
            rows = _Rows(index, dist, cols, n)
            member = dist <= kdist[index, None] + tol[index]
            _, lrd[index] = _local_density(rows, member, kdist, lrd_cap)
        return LofModel(points=pts, k=k, kdist=kdist, lrd=lrd, lrd_cap=lrd_cap)

    return fit


# ---------------------------------------------------------------------------
# Scoring kNN and LOF models together
# ---------------------------------------------------------------------------


def neighbour_scores(
    models: Sequence[KnnModel | LofModel], x: np.ndarray
) -> NDArray[np.float64]:
    """Scores of kNN and LOF models fitted on the same points, one row per model.

    Queries are scored in chunks of at most ``_CHUNK`` rows and at most
    ``_BLOCK_ELEMENTS`` (rows x n_train) elements: 4096 rows up to 32
    training points, fewer above.  Each chunk gets one distance matrix and
    one tie tolerance (:func:`_tie_tolerance`).  :func:`_nearest` takes
    each row's K + 1 nearest columns from one partition, K the largest k
    in use, and sorts them, so column k - 1 of the sorted prefix is the
    k-th distance of every k; the bound of k is that distance plus the
    tolerance.  A row whose (K + 1)-th distance is beyond the bound of K
    has every neighbour of every k in its prefix, and the neighbour table,
    the LOF members and the reachability and lrd sums read only the prefix
    columns; any other row, and every row when K + 1 is more than half the
    training points, reads its whole row.  Both give the same bits
    (:func:`_neighbour_table`, :meth:`_Rows.sums`).  The prefix is sorted
    with its columns (by one ``argsort`` of each whole row when those are
    read), and the neighbour table at the largest kNN k is that sorted
    prefix for every row whose first k + 1 distances lie
    pairwise apart (:func:`_knn_table`): on real-valued data, every row.
    kNN statistics are prefixes of that table: kappa = ``d[:, k-1]``, gamma
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
    step = min(_CHUNK, max(1, _BLOCK_ELEMENTS // points.shape[0]))
    for start in range(0, queries.shape[0], step):
        chunk = queries[start : start + step]
        rows = out[:, start : start + step]
        tol = _tie_tolerance(chunk, points)
        near, cols, parts = _nearest(cdist(chunk, points), ks[-1], tol)
        bound = {k: near[:, [k - 1]] + tol for k in ks}
        if knn_k:
            table, idx = _knn_table(near, cols, parts, knn_k, bound[knn_k], tol)
            # Running sums of the neighbours up to the largest delta k, added
            # in neighbour order: delta at k reads column k - 1.  The gather is
            # as large as LOF's arrays, so it is released before any LOF row.
            gathered = points[idx[:, :delta_k]]
            np.cumsum(gathered, axis=1, out=gathered)
            for row, m in zip(rows, models):
                if isinstance(m, LofModel):
                    continue
                if m.variant == "kappa":
                    row[:] = table[:, m.k - 1]
                elif m.variant == "gamma":
                    row[:] = table[:, : m.k].mean(axis=1)
                else:  # delta
                    row[:] = np.linalg.norm(gathered[:, m.k - 1] / m.k - chunk, axis=1)
            del table, idx, gathered
        # ``cols`` may be a view that keeps a sort of the whole distance rows alive.
        del near, cols
        for part in parts:
            at = part.index
            for row, m in zip(rows, models):
                if isinstance(m, LofModel):
                    member = part.dist <= bound[m.k][at]
                    counts, lrd_q = _local_density(part, member, m.kdist, m.lrd_cap)
                    row[at] = part.sums(member, part.at(m.lrd)) / (lrd_q * counts)
    return out


# ---------------------------------------------------------------------------
# Isolation forest
# ---------------------------------------------------------------------------

# Elements (trees x queries) in one tile of a forest descent.  A level of a
# descent makes a few tile-sized temporaries, and at this size they stay
# within a 2 MiB L2 cache.
_DESCENT_TILE = 2**15


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
    repeated: np.ndarray,
    seed: int,
    first: int,
    psi: int,
    leaf_path: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Grow trees ``first, first + 1, ...`` level by level into ``rows``.

    ``rows`` are the (feature, threshold, path) rows of the batch's trees.
    The points still in inner nodes are training rows, each held as the
    flat offset ``id * d`` of its row in the C-ordered ``points`` and
    carrying the index of its live node among the level's nodes, which are
    in (tree, heap index) order; rows are never sorted or grouped by node.
    Every coordinate is gathered by one 1-D ``take`` from the flat points.
    A level counts its nodes' sizes with one ``bincount`` and reads a split
    node's bounds in its split column alone, from one gather of each row's
    coordinate there and one ``minimum.at`` / ``maximum.at`` over the node
    indices.  Only the ``repeated`` columns (those with a repeated value
    among ``points``) are read in every node, to find the columns constant
    in it: a subsample holds distinct rows, so no other column is constant
    in a node of two or more points.  A split sends each row to child
    ``2 * node + 1 - below`` of the next level's nodes (an empty child is a
    leaf there, of size 0), and the rows of leaves drop out with one
    ``cumsum`` remap of the nodes that split.  A level's work is
    O(points x (1 + repeated columns)), not O(points x d).
    ``leaf_path[s]`` is c(s), and c(0) = 0, so a node's path is its depth
    plus c(its size) at a leaf and its depth at a split.

    Every draw is a pure function of (seed, t, slot), counter-based in the
    sense of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
    (SC 2011): output ``slot`` of splitmix64 seeded with output t of
    splitmix64 seeded with ``seed``.  Heap node i's (u1, u2) are slots 2i
    and 2i + 1, as their top 53 bits over 2**53, computed only for the
    nodes that split.  The key of point j is slot ``2 * n_heap + j`` with
    its low ceil(log2 n) bits replaced by j, and a tree grows on the points
    of its psi smallest keys.  When psi equals n that is every point, and
    no key is hashed: a tree depends on the set of its points alone.
    Otherwise a batch hashes one key per tree and training point.
    """
    batch, n_heap = rows[0].shape
    n, d = points.shape
    height_limit = n_heap.bit_length() - 1
    tree_key = _splitmix(np.array([seed], dtype=np.uint64),
                         np.arange(first, first + batch, dtype=np.uint64))
    if psi < n:
        # The psi smallest keys, whose low bits are the point index, so all
        # keys differ and the chosen set does not depend on how ties break.
        index = np.arange(n, dtype=np.uint64)
        slot = np.uint64(2 * n_heap) + index
        low = np.uint64((1 << (n - 1).bit_length()) - 1)
        keys = _splitmix(tree_key[:, None], slot) & ~low | index
        ids = np.argpartition(keys, psi - 1, axis=1)[:, :psi].ravel()
    else:
        ids = np.tile(np.arange(n), batch)
    flat = np.ascontiguousarray(points).ravel()
    offset = ids * d  # per row: its flat offset in points
    feature, threshold, path = (r.reshape(-1) for r in rows)
    node = np.repeat(np.arange(batch), psi)  # per row: its live node
    head = np.arange(batch) * n_heap  # per live node: tree * n_heap + heap index
    r = repeated.size
    # Live node g's bound of repeated column c sits at flat index g * r + c.
    repeated_at = np.arange(r)
    for depth in range(height_limit + 1):
        size = np.bincount(node, minlength=head.size)
        if r:
            col = flat.take((offset[:, None] + repeated).ravel())
            at = (node[:, None] * r + repeated_at).ravel()
            lo = np.full(head.size * r, np.inf)
            hi = np.full(head.size * r, -np.inf)
            np.minimum.at(lo, at, col)
            np.maximum.at(hi, at, col)
            constant = (lo == hi).reshape(head.size, r)
        else:
            constant = np.zeros((head.size, 0), dtype=bool)
        count = d - constant.sum(axis=1)
        split = (size > 1) & (count > 0) & (depth < height_limit)
        path[head] = depth + leaf_path[np.where(split, 0, size)]
        if not split.any():
            break
        # The rows in nodes that split, renumbered among those nodes.
        kept = np.flatnonzero(split[node])
        offset, node = offset[kept], (np.cumsum(split) - 1)[node[kept]]
        head, count = head[split], count[split]
        local = head % n_heap
        slot = (2 * local).astype(np.uint64)[:, None] + np.array([0, 1], dtype=np.uint64)
        bits = _splitmix(tree_key[head // n_heap, None], slot) >> np.uint64(11)
        u = bits.astype(np.float64) * 2.0**-53
        # The pick-th non-constant column: each constant column at or before
        # the candidate, in column order, moves it on by one.
        dim = np.minimum((u[:, 0] * count).astype(np.intp), count - 1)
        for column, fixed in zip(repeated, constant[split].T):
            dim += fixed & (column <= dim)
        coord = flat.take(offset + dim[node])
        lo = np.full(head.size, np.inf)
        hi = np.full(head.size, -np.inf)
        np.minimum.at(lo, node, coord)
        np.maximum.at(hi, node, coord)
        value = np.minimum(lo + u[:, 1] * (hi - lo), hi)
        feature[head] = dim
        threshold[head] = value
        # Node g's children are the next level's nodes 2g (below its
        # threshold) and 2g + 1, in heap order.
        node = 2 * node + 1 - (coord < value[node])
        head = ((head + local + 1)[:, None] + np.array([0, 1])).ravel()


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
    grow level by level, ``max(1, _BLOCK_ELEMENTS // max(psi * d, n))`` trees
    at a time, so a batch's point ids and its per-point keys both stay
    within ``_BLOCK_ELEMENTS`` elements when n does.  Trees of a batch grow
    independently, so the batch size changes no tree.  The columns with a
    repeated value among the training points are found once, from one
    sort of the training matrix: no other column can be constant in a node
    of two or more points, so growth reads only those columns' bounds and
    the split column's, and sorts no ids (:func:`_grow_batch`).  Every
    draw of tree t is a splitmix64 hash of ``(seed, t, slot)``
    (:func:`_grow_batch`), with no generator state: its subsample is the
    psi points with the smallest per-point keys, hashed only when psi is
    less than n (every point is taken when psi equals n), and each node
    that splits takes one pair of uniforms (u1, u2) from its heap index,
    where u1 picks among the node's non-constant dimensions and u2 places
    the split.  A tree depends on the set of its points, not on their row
    order.  Tree t therefore depends only on the points, psi, ``seed`` and
    t, so the first n trees of a forest are the forest of n trees, and
    :func:`forest_scores` scores both the same, bit for bit.  Trees are
    i.i.d. (Liu, Ting & Zhou,
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
    ordered = np.sort(pts, axis=0)
    repeated = np.flatnonzero((ordered[1:] == ordered[:-1]).any(axis=0))
    per_batch = max(1, _BLOCK_ELEMENTS // max(psi * pts.shape[1], pts.shape[0]))
    for first in range(0, n_trees, per_batch):
        batch = slice(first, first + per_batch)
        _grow_batch(pts, repeated, seed, first, psi, leaf_path,
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
    ``_DESCENT_TILE`` (trees x queries) elements: all trees at once for up
    to ``_DESCENT_TILE // n_trees`` queries, chunks of ``_DESCENT_TILE``
    queries one tree at a time for more than ``_DESCENT_TILE``.  Every
    query descends each tree of a tile from the root by
    ``idx = 2*idx + 1 + go_right`` to depth ``height_limit`` (past its
    leaf, see :class:`IsolationForestModel`).  The root level is one row
    gather and one broadcast compare: each tree's root split column is a
    row of the transposed queries, compared with that tree's root
    threshold.  A leaf root (feature -1, threshold -inf) reads the last
    row, and no coordinate lies below -inf, so its queries go right, as
    they do at every leaf below; a NaN coordinate goes right at every
    split.  Each level below makes no tile-sized
    temporary beyond its three gathers (split column, coordinate,
    threshold): the column indices are offset in place, the comparison
    writes the root level's mask and the node array is updated in place.
    Every gather below the root level is an ``ndarray.take``, which keeps
    its bounds check.  The forest's path table is divided by c(psi) once
    per call, and the step found at depth ``height_limit`` is added to the
    query's running total one tree at a time, in tree order, one row of the
    tile per tree; a model's row, ``2 ** (-total / n_trees)``, is read off
    when the count reaches its ``n_trees``.  A tiling therefore gives the
    same scores, bit for bit, as a walk over single trees, and a forest
    scores the same alone or as a prefix of a larger one
    (:meth:`IsolationForestModel.prefix`).  Averaging h/c(psi) rather
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
    coords_t = np.ascontiguousarray(queries.T)
    n_heap = forest.feature.shape[1]
    feature, threshold = forest.feature.ravel(), forest.threshold.ravel()
    # Each node's path length over c(psi): the step a tree adds to a total.
    steps = forest.path.ravel() / _avg_path_length(forest.subsample)
    readout: dict[int, list[int]] = {}
    for row, m in enumerate(models):
        readout.setdefault(m.n_trees, []).append(row)
    out = np.empty((len(models), n))
    width = max(1, min(n, _DESCENT_TILE))  # queries per tile
    height = max(1, _DESCENT_TILE // width)  # trees per tile
    for first in range(0, n, width):
        cols = slice(first, first + width)
        row_start = np.arange(n)[cols] * d
        total = np.zeros(row_start.size)
        for top in range(0, forest.n_trees, height):
            stop = min(top + height, forest.n_trees)
            # Tree t's heap starts at t * n_heap, so in flat indices the
            # children of node i are 2i + 1 - root and 2i + 2 - root.
            root = np.arange(top * n_heap, stop * n_heap, n_heap)[:, None]
            shift = 2 - root
            # The root level: at a leaf root, feature -1 reads the last row
            # and nothing lies below its threshold -inf.
            below = np.less(coords_t[forest.feature[top:stop, 0], cols],
                            forest.threshold[top:stop, 0, None])
            node = root + 2 - below
            for _ in range(forest.height_limit - 1):
                # At a leaf, feature -1 reads some coordinate, and none lies below -inf.
                idx = feature.take(node)
                idx += row_start
                np.less(coords.take(idx), threshold.take(node), out=below)
                node *= 2
                node += shift
                node -= below
            # One tree at a time, in tree order, as a walk over single trees
            # adds; a model's row is read off when the count reaches its trees.
            for n_trees, step in enumerate(steps.take(node), start=top + 1):
                total += step
                if n_trees in readout:
                    out[readout[n_trees], cols] = np.power(2.0, -total / n_trees)
    return out
