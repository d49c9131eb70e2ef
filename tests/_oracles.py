"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the library's own code paths: measures are
recomputed from first principles (pair enumeration, exhaustive counting)
so that agreement is evidence, not tautology.  The one exception is the
store-row section at the end: :func:`cells_of` builds a store's columns
through the library's own constructor, so tests can write stores by hand.
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from adeval.experiments import _sorted_cells


def raw_table_reference(path):
    """A raw table read row by row with ``csv``: ``(features, classes)``.

    Blank rows and rows whose first field starts with ``#`` are skipped.
    Raises ``ValueError`` with the message of the first fault in line
    order, naming the file and the physical line its row ends on: the
    header, a row's width, then each feature field in turn (one that does
    not parse, or is not finite), then its class field.
    """
    path = Path(path)
    header, rows, classes = None, [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = row
                if len(header) < 2 or header[-1].strip() != "class":
                    raise ValueError(f"{path}: expected a header ending in a class column")
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
            values = []
            for field in row[:-1]:
                try:
                    values.append(float(field))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if not math.isfinite(values[-1]):
                    raise ValueError(f"{where}: non-finite value {field!r}")
            if not row[-1].strip():
                raise ValueError(f"{where}: empty class field")
            rows.append(values)
            classes.append(row[-1].strip())
    if header is None:
        raise ValueError(f"{path}: expected a header ending in a class column")
    if not rows:
        raise ValueError(f"{path}: table has no data rows")
    return np.array(rows, dtype=np.float64), tuple(classes)


def raw_table_text_reference(features, classes):
    """A table's text as ``csv.writer`` writes it row by row: ``f0, ..., class``,
    then each point's features as their ``repr`` and its class."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([f"f{i}" for i in range(np.shape(features)[1])] + ["class"])
    for row, cls in zip(np.asarray(features).tolist(), classes):
        writer.writerow([repr(v) for v in row] + [cls])
    return out.getvalue()


def pairwise_auc(labels, scores) -> float:
    """AUC as the mean pairwise ranking outcome over all pos/neg pairs.

    A positive scoring above a negative counts 1, a tie counts 0.5.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def roc_reference(labels, scores) -> list[tuple[float, float, float]]:
    """ROC vertices (fpr, tpr, threshold): the origin, then the >= rule counted at every distinct score."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    out = [(0.0, 0.0, math.inf)]
    for t in sorted(set(scores.tolist()), reverse=True):
        flagged = scores >= t
        fp = int((flagged & (labels == 0)).sum())
        tp = int((flagged & (labels == 1)).sum())
        out.append((fp / n_neg, tp / n_pos, t))
    return out


def tied_pairs(v) -> int:
    """Number of index pairs tied within one sequence."""
    _, counts = np.unique(np.asarray(v), return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau_pairs(x, y) -> float:
    """Tau-b by explicit enumeration of every index pair."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[i] - x[j])
            dy = np.sign(y[i] - y[j])
            if dx == 0 or dy == 0:
                continue
            if dx == dy:
                concordant += 1
            else:
                discordant += 1
    n_pairs = n * (n - 1) // 2
    denom = np.sqrt((n_pairs - tied_pairs(x)) * float(n_pairs - tied_pairs(y)))
    if denom == 0:
        return float("nan")
    return (concordant - discordant) / denom


# ---------------------------------------------------------------------------
# kNN scores by a full-row stable sort
# ---------------------------------------------------------------------------


def knn_reference(points, queries, k, variant, chunk=4096):
    """kNN score of each query from a full-row stable sort of its distances.

    Neighbour order is distance first, training index second.  The delta
    mean divides the neighbours' sum, added in neighbour order, by k.
    Queries are scored in chunks of ``chunk`` rows, as the library scores
    them.
    """
    points = np.asarray(points, dtype=float)
    queries = np.asarray(queries, dtype=float)
    out = np.empty(len(queries))
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        dist = cdist(q, points)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        rows = np.arange(len(q))[:, None]
        if variant == "kappa":
            out[start : start + chunk] = dist[rows[:, 0], order[:, -1]]
        elif variant == "gamma":
            out[start : start + chunk] = dist[rows, order].mean(axis=1)
        else:  # delta
            # The neighbours' sum, added one neighbour at a time in order.
            total = points[order[:, 0]]
            for j in range(1, k):
                total = total + points[order[:, j]]
            out[start : start + chunk] = np.linalg.norm(total / k - q, axis=1)
    return out


# ---------------------------------------------------------------------------
# Counter-based draws of isolation trees, in Python integers
# ---------------------------------------------------------------------------

_MASK64 = 2**64 - 1


def splitmix64(state, k):
    """Output ``k`` (from 0) of Vigna's splitmix64 seeded with ``state``.

    The generator adds 0x9E3779B97F4A7C15 to its state before each output,
    so output k finalises ``state + (k + 1) * 0x9E3779B97F4A7C15``; Python
    integers are reduced mod 2**64 by hand.
    """
    z = (state + (k + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def forest_draw(seed, t, slot):
    """Draw ``slot`` of tree ``t``: splitmix64 seeded with output ``t`` of splitmix64 seeded with ``seed``."""
    return splitmix64(splitmix64(seed, t), slot)


def forest_subsample(seed, t, n, psi, n_heap):
    """Rows of tree t's subsample: the points of the psi smallest point keys.

    Point j's key is draw ``2 * n_heap + j`` with its low ceil(log2 n) bits
    replaced by j.
    """
    bits = (n - 1).bit_length()
    keys = sorted(
        (forest_draw(seed, t, 2 * n_heap + j) >> bits << bits) | j for j in range(n)
    )
    return [key & ((1 << bits) - 1) for key in keys[:psi]]


def _splitmix_array(state, k):
    """:func:`splitmix64` on uint64 arrays (broadcast together), wrapping mod 2**64."""
    z = state + (k + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def forest_growth_reference(points, n_trees, subsample, seed):
    """(feature, threshold, path) of an isolation forest, grown by sorting rows by node.

    All trees grow together, level by level.  Each level sorts the
    subsample rows (coordinates, not ids) still in inner nodes by (tree,
    node), takes every column's min and max in every node, and reads the
    node's non-constant columns off them; no column is assumed to vary.
    Draws, subsample keys and the heap layout are those documented by
    ``iforest_fit`` (see :func:`forest_draw`, :func:`forest_subsample`), and a
    leaf's right-hand descendants repeat its path.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    psi = min(subsample, n)
    height_limit = math.ceil(math.log2(psi))
    n_heap = 2 ** (height_limit + 1) - 1
    # c(s), the mean path length of an unsuccessful search among s keys.
    leaf_path = np.array([
        0.0 if s < 2 else 1.0 if s == 2
        else 2.0 * (math.log(s - 1.0) + np.euler_gamma) - 2.0 * (s - 1.0) / s
        for s in range(psi + 1)
    ])
    feature = np.full((n_trees, n_heap), -1, dtype=np.int64)
    threshold = np.full((n_trees, n_heap), -np.inf)
    path = np.zeros((n_trees, n_heap))
    tree_key = _splitmix_array(np.array([seed], dtype=np.uint64),
                               np.arange(n_trees, dtype=np.uint64))
    index = np.arange(n, dtype=np.uint64)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = _splitmix_array(tree_key[:, None], np.uint64(2 * n_heap) + index) & ~low | index
    x = pts[np.argpartition(keys, psi - 1, axis=1)[:, :psi].ravel()]
    flat_feature, flat_threshold, flat_path = feature.ravel(), threshold.ravel(), path.ravel()
    node = np.repeat(np.arange(n_trees) * n_heap, psi)  # tree * n_heap + heap index
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
        flat_path[head[~split]] = depth + leaf_path[size[~split]]
        if not split.any():
            break
        keep = np.repeat(split, size)
        head, count = head[split], count[split]
        local = head % n_heap
        slot = (2 * local).astype(np.uint64)[:, None] + np.array([0, 1], dtype=np.uint64)
        bits = _splitmix_array(tree_key[head // n_heap, None], slot) >> np.uint64(11)
        u = bits.astype(float) * 2.0**-53
        pick = np.minimum((u[:, 0] * count).astype(np.intp), count - 1)
        dim = np.argmax(np.cumsum(splittable[split], axis=1) > pick[:, None], axis=1)
        lo, hi = lo[split, dim], hi[split, dim]
        value = np.minimum(lo + u[:, 1] * (hi - lo), hi)
        flat_feature[head] = dim
        flat_threshold[head] = value
        flat_path[head + local + 1] = flat_path[head + local + 2] = depth + 1
        x, node = x[keep], node[keep]
        group = np.repeat(np.arange(head.size), size[split])
        below = x[np.arange(node.size), dim[group]] < value[group]
        node = node + local[group] + 2 - below
    for depth in range(1, height_limit + 1):
        right = np.arange(2**depth, 2 ** (depth + 1) - 1, 2)
        parent = right // 2 - 1
        path[:, right] = np.where(feature[:, parent] < 0, path[:, parent], path[:, right])
    return feature, threshold, path


def forest_reference(model, queries):
    """Isolation-forest scores by a walk over one tree at a time.

    Every query descends each tree from the root, tree after tree, for
    ``height_limit`` steps (past its leaf, whose threshold is -inf), and
    adds the path length found there over c(psi) to its running total.
    """
    queries = np.asarray(queries, dtype=float)
    n, d = queries.shape
    coords = queries.ravel()
    row_start = np.arange(n) * d
    psi = model.subsample
    # c(psi): the mean path length of an unsuccessful search among psi keys.
    norm = 1.0 if psi == 2 else 2.0 * (math.log(psi - 1.0) + np.euler_gamma) - 2.0 * (psi - 1.0) / psi
    total = np.zeros(n)
    for t in range(model.n_trees):
        feature, threshold = model.feature[t], model.threshold[t]
        idx = np.zeros(n, dtype=np.intp)
        for _ in range(model.height_limit):
            below = coords[row_start + feature[idx]] < threshold[idx]
            idx = 2 * idx + 2 - below
        total += model.path[t, idx] / norm
    return np.power(2.0, -total / model.n_trees)


def lof_fit_reference(points, k):
    """(kdist, lrd, lrd_cap) of a LOF fit at one k, from its own distance matrix and sort.

    Neighbourhoods hold every training point (itself excluded) up to the
    k-th distance plus 1e-12 times the largest coordinate magnitude; the
    numpy operations run in the library's order, so results compare with
    ``==``.
    """
    pts = np.asarray(points, dtype=float)
    dist = cdist(pts, pts)
    np.fill_diagonal(dist, np.inf)
    kdist = np.sort(dist, axis=1)[:, k - 1]
    lrd_cap = 1.0 / (1e-12 * dist[np.isfinite(dist)].max())
    member = dist <= kdist[:, None] + 1e-12 * np.abs(pts).max()
    counts = member.sum(axis=1)
    reach_sum = np.where(member, np.maximum(kdist[None, :], dist), 0.0).sum(axis=1)
    lrd = np.where(reach_sum > 0, counts / np.where(reach_sum > 0, reach_sum, 1.0), lrd_cap)
    return kdist, np.minimum(lrd, lrd_cap), lrd_cap


def lof_score_reference(model, queries, chunk=4096):
    """LOF scores of ``model`` from each query's whole distance row.

    A query's neighbourhood holds every training point up to its k-th
    distance plus 1e-12 times the largest coordinate magnitude of the query
    and the training points.  The reachability and lrd sums run over whole
    rows, in the library's order, so results compare with ``==``.
    """
    points = np.asarray(model.points, dtype=float)
    queries = np.asarray(queries, dtype=float)
    out = np.empty(len(queries))
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        dist = cdist(q, points)
        tol = 1e-12 * np.maximum(np.abs(q).max(axis=1), np.abs(points).max())
        member = dist <= np.sort(dist, axis=1)[:, [model.k - 1]] + tol[:, None]
        counts = member.sum(axis=1)
        reach_sum = np.where(member, np.maximum(model.kdist[None, :], dist), 0.0).sum(axis=1)
        cap = model.lrd_cap
        lrd = np.minimum(
            np.where(reach_sum > 0, counts / np.where(reach_sum > 0, reach_sum, 1.0), cap), cap
        )
        lrd_sum = np.where(member, model.lrd[None, :], 0.0).sum(axis=1)
        out[start : start + chunk] = lrd_sum / (lrd * counts)
    return out


def precision_reference(labels, scores, p, rounds, seed):
    """precision@p of one score vector at one level, one round at a time.

    ``default_rng(seed)`` draws one permutation of the anomaly indices per
    round, then one of the normal indices per round.  Round r keeps a
    prefix of one class's permutation and the other class whole, toward
    proportion p, sorts the retained samples by (descending score,
    ascending index) alone and takes the anomaly share of the top
    ceil(p * size).  Rounds are averaged.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    keep_pos = max(1, int(round(p * len(neg_idx) / (1.0 - p))))
    keep_neg = len(neg_idx)
    if keep_pos > len(pos_idx):
        keep_pos = len(pos_idx)
        keep_neg = min(len(neg_idx), max(1, int(round(len(pos_idx) * (1.0 - p) / p))))
    rng = np.random.default_rng(seed)
    pos_perms = [rng.permutation(pos_idx) for _ in range(rounds)]
    neg_perms = [rng.permutation(neg_idx) for _ in range(rounds)]
    values = np.empty(rounds)
    for r in range(rounds):
        retained = np.concatenate([pos_perms[r][:keep_pos], neg_perms[r][:keep_neg]])
        top = np.lexsort((retained, -scores[retained]))[: math.ceil(p * len(retained))]
        values[r] = labels[retained][top].mean()
    return float(values.mean())


# ---------------------------------------------------------------------------
# Aggregate tables by explicit loops over records
# ---------------------------------------------------------------------------


def repetition_means(records) -> dict:
    """Repetition means keyed by (table, anomaly class, grid index).

    Each value is ``(detector, {measure: mean})``; a measure missing
    (``None``) in some repetitions averages over the present ones and one
    missing everywhere stays ``None``.
    """
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r.table, r.anomaly_class, r.grid_index), []).append(r)
    means = {}
    for key, group in groups.items():
        values = {}
        for name in {n for r in group for n in r.values}:
            present = [r.values[name] for r in group if r.values.get(name) is not None]
            values[name] = float(np.mean(present)) if present else None
        means[key] = (group[0].detector, values)
    return means


def _by_benchmark(means) -> dict:
    """{benchmark name: [(detector, values), ...] in grid order}, names sorted."""
    out: dict[str, list] = {}
    for (table, cls, _), row in sorted(means.items()):
        out.setdefault(f"{table}-{cls}", []).append(row)
    return dict(sorted(out.items()))


def _relative_loss(sel_values, tgt_values) -> float:
    """Loss of the first combo maximizing the selection values, judged by the targets."""
    chosen = sel_values.index(max(sel_values))
    best = max(tgt_values)
    return 0.0 if best == 0.0 else (best - tgt_values[chosen]) / best


def rank_reference(means, name):
    """(detectors, mean ranks, std ranks) from each detector's best combo per benchmark.

    ``None`` when some detector has no value on some benchmark.
    """
    benchmarks = _by_benchmark(means)
    detectors = sorted({det for det, _ in means.values()})
    best: dict[tuple, float] = {}
    for bench, rows in benchmarks.items():
        for det, values in rows:
            v = values.get(name)
            if v is not None and ((bench, det) not in best or v > best[bench, det]):
                best[bench, det] = v
    if any((b, d) not in best for b in benchmarks for d in detectors):
        return None
    ranks = np.array([rankdata([-best[b, d] for d in detectors]) for b in benchmarks])
    return tuple(detectors), ranks.mean(axis=0), ranks.std(axis=0)


def kendall_reference(means, names):
    """(tau matrix, benchmark count per pair) by pair enumeration per benchmark.

    ``None`` when some benchmark has fewer than two combos.
    """
    k = len(names)
    sums, counts = np.zeros((k, k)), np.zeros((k, k), dtype=np.int64)
    for rows in _by_benchmark(means).values():
        if len(rows) < 2:
            return None
        for i, x_name in enumerate(names):
            for j, y_name in enumerate(names):
                pairs = [
                    (v[x_name], v[y_name]) for _, v in rows
                    if v.get(x_name) is not None and v.get(y_name) is not None
                ]
                if len(pairs) < 2:
                    continue
                tau = kendall_tau_pairs(*zip(*pairs))
                if not np.isnan(tau):
                    sums[i, j] += tau
                    counts[i, j] += 1
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan), counts


def selection_loss_reference(means, sel, tgt):
    """(mean relative loss over benchmarks, excluded combos) of selecting by ``sel``.

    ``None`` when some benchmark has no combo with both values.
    """
    losses, excluded = [], 0
    for rows in _by_benchmark(means).values():
        usable = [
            v for _, v in rows if v.get(sel) is not None and v.get(tgt) is not None
        ]
        excluded += len(rows) - len(usable)
        if not usable:
            return None
        losses.append(_relative_loss([v[sel] for v in usable], [v[tgt] for v in usable]))
    return float(np.mean(losses)), excluded


def class_transfer_reference(means, names):
    """(loss matrix, tables used, tables skipped) of selecting on the wrong class."""
    by_table: dict[str, dict] = {}
    for (table, cls, g), (_, values) in means.items():
        by_table.setdefault(table, {}).setdefault(cls, {})[g] = values
    k = len(names)
    sums, counts = np.zeros((k, k)), np.zeros((k, k), dtype=np.int64)
    used = skipped = 0
    for table in sorted(by_table):
        classes = sorted(by_table[table])
        if len(classes) < 2:
            skipped += 1
            continue
        used += 1
        for a in classes:
            for b in classes:
                if a == b:
                    continue
                rows_a, rows_b = by_table[table][a], by_table[table][b]
                common = sorted(set(rows_a) & set(rows_b))
                for i, sel in enumerate(names):
                    for j, tgt in enumerate(names):
                        usable = [
                            g for g in common
                            if rows_a[g].get(sel) is not None
                            and rows_b[g].get(tgt) is not None
                        ]
                        if usable:
                            sums[i, j] += _relative_loss(
                                [rows_a[g][sel] for g in usable],
                                [rows_b[g][tgt] for g in usable],
                            )
                            counts[i, j] += 1
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan), used, skipped


# ---------------------------------------------------------------------------
# Store rows as plain tuples
# ---------------------------------------------------------------------------


class Row(NamedTuple):
    """One cell of a store as a plain tuple: its id columns, flags and values.

    ``values`` maps a measure to its float, or to ``None`` for ``NA``; a
    measure it lacks is ``NA`` in :func:`cells_of`.  The default ``values`` is one
    shared dict, so no test mutates a row's values.
    """

    grid_index: int = 0
    table: str = "t"
    anomaly_class: str = "c1"
    detector: str = "knn"
    params: str = "g0"
    contamination: float = 0.0
    repetition: int = 0
    flags: tuple[str, ...] = ()
    values: dict = {}

    @property
    def benchmark(self) -> str:
        return f"{self.table}-{self.anomaly_class}"

    @property
    def key(self) -> tuple[str, float, int, int]:
        """(benchmark, contamination, grid index, repetition): the row's cell."""
        return (self.benchmark, self.contamination, self.grid_index, self.repetition)

    @property
    def flagged_missing(self) -> bool:
        return any(v is None for v in self.values.values())


def cells_of(rows, measures=None):
    """The ``StoredCells`` of ``rows``, built by ``_sorted_cells``, as a load builds them.

    The measures are ``measures`` if given, else those of the rows' values
    in order of first appearance.  A measure that a row's values lack is
    ``NA`` in that row, as every missing value of a store is.
    """
    rows = list(rows)
    if measures is None:
        measures = dict.fromkeys(name for r in rows for name in r.values)
    measures = tuple(measures)
    shape = (len(rows), len(measures))
    na = np.array([[r.values.get(m) is None for m in measures] for r in rows],
                  dtype=bool).reshape(shape)
    values = np.array([[0.0 if r.values.get(m) is None else r.values[m] for m in measures]
                       for r in rows], dtype=np.float64).reshape(shape)
    ids = [[getattr(r, field) for r in rows] for field in Row._fields[:8]]
    cells, _ = _sorted_cells(ids, measures, values, na)
    return cells


def rows_of(cells):
    """The rows of ``StoredCells`` ``cells``, in their order, as :class:`Row` tuples.

    A row's values hold every measure, as a Python float or ``None`` for ``NA``.
    """
    ids = [getattr(cells, field).tolist() for field in Row._fields[:8]]
    return [
        Row(*row_ids, values={m: None if n else v for m, v, n in zip(cells.measures, vs, ns)})
        for *row_ids, vs, ns in zip(*ids, cells.values.tolist(), cells.na.tolist())
    ]


def store_text_reference(blocks, measure_names, manifest_hash):
    """{file name: text} of a store that ``blocks`` of :class:`Row` were appended to, in order.

    Each block's rows go in cell order, one file per (benchmark, detector),
    each row written by ``csv.writer``: its ids, ``repr`` of its
    contamination, its flags joined by ``;``, then ``repr`` of each value of
    ``measure_names``, or ``NA`` where it is ``None`` or absent.
    """
    out: dict[str, io.StringIO] = {}
    for block in blocks:
        for r in sorted(block, key=lambda r: r.key):
            name = re.sub(r"[^A-Za-z0-9._-]", "_", f"{r.benchmark}__{r.detector}") + ".csv"
            if name not in out:
                out[name] = io.StringIO()
                out[name].write(f"# manifest: {manifest_hash}\n")
                csv.writer(out[name]).writerow(list(Row._fields[:8]) + list(measure_names))
            values = [r.values.get(m) for m in measure_names]
            csv.writer(out[name]).writerow(
                [r.grid_index, r.table, r.anomaly_class, r.detector, r.params,
                 repr(r.contamination), r.repetition, ";".join(r.flags)]
                + ["NA" if v is None else repr(v) for v in values])
    return {name: text.getvalue() for name, text in out.items()}
