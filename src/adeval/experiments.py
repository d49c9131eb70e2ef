"""Benchmark grid runner, persistent record store and result analytics.

The grid's input is prepared tables (:class:`PreparedTable`), whose
benchmarks all hold the table's one normal array.  A *cell* is one
(benchmark, contamination, detector combo, repetition) tuple.  Running
the grid fits the combo on the training fold, scores the test fold and
evaluates every configured measure.  The cells of one (table,
contamination, repetition) block share one volume sample and their test
normals, and every benchmark whose training fold has no injected anomaly
shares one fit: at contamination 0 the table trains once.  Each model
scores the shared test normals once, and each benchmark's cells of a block
are evaluated together, from one score matrix per benchmark and block.
Cells are columns from the block to the store file: each block returns
its cells as :class:`StoredCells`, one row per cell, which land, as soon
as the block and every block before it are done, in a resumable
delimited-text store, one file per (benchmark, detector), which loads as
:class:`StoredCells` again.  A store is one run's grid: every file has
the run's measure columns, and ``NA`` is the only missing value.
Analytics first reshape one contamination level of the complete grid to
a (benchmark x combo x repetition x measure) array and collapse it into
a single (benchmark x combo x measure) array of repetition means; every
table is a reduction over that array, comparing detectors (mean ranks),
measures (Kendall correlation), and selection strategies (relative loss
matrices, within and across anomaly classes).  The last three are one
:class:`MeasurePairs` each: a (measure x measure) mean over units
(benchmarks, or ordered class pairs of one table) and the units behind
each entry.

All measures are oriented so that larger is better; CVOL is already the
complement of the decision-region volume.
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, islice, starmap
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from adeval._text import data_rows
from adeval.curves import (
    RocRows, auc_at_rows, auc_rows, auc_weighted_rows, check_labels, descending_order,
    roc_rows, threshold_at_fpr_rows, tpr_at_rows,
)
from adeval.datasets import (
    BenchmarkDataset, PreparedTable, SplitSpec, TrainTestSplit, _safe_name, split, train_counts,
)
from adeval.detectors import (
    KNN_VARIANTS, forest_scores, iforest_fit, knn_fit, lof_fitter, neighbour_scores,
)
from adeval.seeding import derive_seed
from adeval.thresholded import (
    confusion_rows, f1_rows, precision_at_p_rows, precision_composition,
)
from adeval.volume import accepted_fraction, bounding_box, uniform_sample


# ---------------------------------------------------------------------------
# Measure identifiers
# ---------------------------------------------------------------------------

# Every measure kind, in column order: its label; its level family, the
# GridConfig field whose levels it takes (None: the kind takes no level); and
# its row function, which gives the kind's values of one LabelledSample as a
# (levels, rows) array, its levels those of its family in config order, or one
# level row for a kind that takes no level.
_KINDS = {
    "auc": ("AUC", None, lambda s: auc_rows(s.roc)[None]),
    "auc_w": ("AUC_w", None, lambda s: auc_weighted_rows(s.roc)[None]),
    "auc_at": ("AUC", "alphas", lambda s: auc_at_rows(s.roc, s.cfg.alphas)),
    "precision_at": ("precision", "ps", lambda s: precision_at_p_rows(
        s.labels, s.order, s.cfg.ps, s.cfg.precision_rounds, s.prec_seed)),
    "tpr_at": ("TPR", "alphas", lambda s: tpr_at_rows(s.roc, s.cfg.alphas)),
    "f1_at": ("F1", "alphas", lambda s: f1_rows(*s.confusion[:2], s.confusion[3])),
    "cvol_at": ("CVOL", "alphas", lambda s: 1.0 - accepted_fraction(s.volume, s.thresholds)),
}
# The range of each family's levels.  An FPR budget may be 1; precision@p
# keeps a p-fraction of anomalies, so p = 1 leaves no normals.
_RANGES = {"alphas": "(0, 1]", "ps": "(0, 1)"}

# Every part a test fold can be cut into, in column order: its name, its
# column-name prefix and its rule, which takes the config, a permutation of the
# fold and the validation part's size n, and gives the part's indices into the
# fold, or None where the config has no such part.  Only GridConfig.parts
# applies the rules.  The first part is the evaluation part: its columns carry
# the measures' own names, and it alone gives a cell its flags.
_PARTS = {
    "evaluation": ("", lambda cfg, perm, n: perm[n:]),
    "validation": ("val:", lambda cfg, perm, n: perm[:n] if cfg.validation_fraction > 0 else None),
}


def _in_range(family: str, level: float) -> bool:
    return 0.0 < level < 1.0 or (level == 1.0 and family == "alphas")


@dataclass(frozen=True)
class MeasureId:
    """One evaluation measure, e.g. AUC, or TPR at a false-positive level.

    ``level`` is the FPR budget alpha for the curve-based measures and
    the contamination p for ``precision_at`` (:attr:`family`); plain AUC
    and the weighted AUC take no level.
    """

    kind: str
    level: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.family is None:
            if self.level is not None:
                raise ValueError(f"measure {self.kind!r} takes no level")
        elif self.level is None or not _in_range(self.family, self.level):
            raise ValueError(f"measure {self.kind!r} needs a level in {_RANGES[self.family]}")

    @property
    def family(self) -> str | None:
        """The ``GridConfig`` field whose levels this kind takes: ``alphas``, ``ps`` or None."""
        return _KINDS[self.kind][1]

    @property
    def name(self) -> str:
        label = _KINDS[self.kind][0]
        return label if self.level is None else f"{label}@{self.level:g}"


# ---------------------------------------------------------------------------
# Grid configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Combo:
    """One detector plus hyperparameter setting, with its grid position."""

    index: int
    detector: str
    params: tuple[tuple[str, object], ...]

    @property
    def params_text(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params)

    def param(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class GridConfig:
    """Everything a grid run needs besides the tables themselves."""

    knn_variants: tuple[str, ...] = ("kappa", "gamma", "delta")
    knn_ks: tuple[int, ...] = (1, 3, 5, 7, 9, 13, 21, 31, 51)
    lof_ks: tuple[int, ...] = (10, 20, 50)
    iforest_trees: tuple[int, ...] = (50, 100, 200)
    iforest_subsample: int = 256
    alphas: tuple[float, ...] = (0.01, 0.05)
    ps: tuple[float, ...] = (0.01, 0.05)
    contaminations: tuple[float, ...] = (0.0,)
    repetitions: int = 10
    train_fraction: float = 0.8
    precision_rounds: int = 10
    volume_samples: int = 100_000
    validation_fraction: float = 0.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.alphas or not self.ps or not self.contaminations:
            raise ValueError("need at least one alpha, p and contamination level")
        for family, shown in _RANGES.items():
            named: dict[str, float] = {}
            for level in getattr(self, family):
                if not _in_range(family, level):
                    raise ValueError(f"{family} must lie in {shown}, got {level!r}")
                # Two levels of one name would repeat the family's store columns.
                other = named.setdefault(f"{level:g}", level)
                if other != level:
                    raise ValueError(f"{family} levels {other!r} and {level!r} "
                                     f"both name measures @{level:g}")
        if self.precision_rounds < 1:
            raise ValueError("precision_rounds must be at least 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie in [0, 1)")
        if self.volume_samples < 1:
            raise ValueError("volume_samples must be positive")
        # The settings below would otherwise fail every cell they reach.
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        for c in self.contaminations:
            if not 0.0 <= c < 1.0:
                raise ValueError(f"contaminations must lie in [0, 1), got {c!r}")
        for variant in self.knn_variants:
            if variant not in KNN_VARIANTS:
                raise ValueError(f"knn_variants must be among {KNN_VARIANTS}, got {variant!r}")
        for key in ("knn_ks", "lof_ks", "iforest_trees"):
            if any(v < 1 for v in getattr(self, key)):
                raise ValueError(f"{key} must be at least 1")
        # A value given twice would plan and append a level's blocks twice, or
        # fit and rank one detector as two combos.  Values compare by value,
        # so 0.0 and -0.0 are one contamination level.
        for key in ("contaminations", "knn_variants", "knn_ks", "lof_ks", "iforest_trees"):
            values = getattr(self, key)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"{key} value {v!r} is given twice")
        if self.iforest_subsample < 2:
            raise ValueError("iforest_subsample must be at least 2")

    def detector_combos(self) -> tuple[Combo, ...]:
        combos: list[Combo] = []
        for variant in self.knn_variants:
            for k in self.knn_ks:
                combos.append(
                    Combo(len(combos), "knn", (("variant", variant), ("k", k)))
                )
        for k in self.lof_ks:
            combos.append(Combo(len(combos), "lof", (("k", k),)))
        for n_trees in self.iforest_trees:
            combos.append(
                Combo(
                    len(combos),
                    "iforest",
                    (("n_trees", n_trees), ("subsample", self.iforest_subsample)),
                )
            )
        if not combos:
            raise ValueError("the detector grid is empty")
        return tuple(combos)

    def measures(self) -> tuple[MeasureId, ...]:
        """The kinds without a level, then each level, highest first, with its kinds.

        Kinds keep their ``_KINDS`` order, and a kind takes the levels of its family.
        """
        out = [MeasureId(kind) for kind, (_, family, _) in _KINDS.items() if family is None]
        for level in sorted(set(self.alphas) | set(self.ps), reverse=True):
            out += [MeasureId(kind, level) for kind, (_, family, _) in _KINDS.items()
                    if family is not None and level in getattr(self, family)]
        return tuple(out)

    def parts(self, name: str = "", repetition: int = 0,
              n_test: int = 0) -> dict[str, tuple[str, NDArray[np.intp]]]:
        """The part planner: benchmark ``name``'s test fold cut into parts (:data:`_PARTS`)."""
        # Each part the config has, by name in column order, as (column-name
        # prefix, indices into the fold of n_test points at this repetition).
        # With validation_fraction > 0 a seeded permutation of the fold gives the
        # validation part round(validation_fraction * n_test) points and the
        # evaluation part the rest; without, the evaluation part is the fold in order.
        # With the defaults, an empty fold, it tells which parts the config has.
        perm = (np.random.default_rng(derive_seed(self.master_seed, "valsplit", name, repetition))
                .permutation(n_test) if self.validation_fraction > 0 else np.arange(n_test))
        n_val = int(round(self.validation_fraction * n_test))
        cut = [(part, prefix, rule(self, perm, n_val)) for part, (prefix, rule) in _PARTS.items()]
        return {part: (prefix, idx) for part, prefix, idx in cut if idx is not None}

    def split_spec(self, contamination: float, repetition: int = 0) -> SplitSpec:
        """The split planner: the split of every cell at ``contamination`` and ``repetition``."""
        return SplitSpec(train_fraction=self.train_fraction, contamination=contamination,
                         seed=self.master_seed, repetition=repetition)

    def volume_sample(self, table: str, normal: np.ndarray, repetition: int) -> NDArray[np.float64]:
        """Table ``table``'s volume sample at ``repetition``, which all its cells there score.

        ``volume_samples`` points drawn uniformly from the bounding box of the
        table's normal array ``normal``, seeded by the table and repetition.
        """
        return uniform_sample(bounding_box(normal), self.volume_samples,
                              derive_seed(self.master_seed, "volume", table, repetition))

    def measure_names(self) -> tuple[str, ...]:
        return tuple(p + m.name for p, _ in self.parts().values() for m in self.measures())


def _fit_seed(table: str, combo: Combo, spec: SplitSpec) -> int:
    """Seed of a combo's fit on a training fold of table ``table``.

    A forest's seed leaves out ``n_trees``, so the forests of one subsample
    in a block are prefixes of one forest (:func:`iforest_fit`).
    """
    params = tuple(p for p in combo.params if combo.detector != "iforest" or p[0] != "n_trees")
    return derive_seed(spec.seed, "fit", table, combo.detector, params, spec.repetition)


_CELL_ERRORS = (ValueError, FloatingPointError)


def fit_models(
    table: str, spec: SplitSpec, train: np.ndarray, combos: Sequence[Combo]
) -> list[object]:
    """The model of each combo fitted on ``train``, table ``table``'s training fold of ``spec``.

    This is the one rule that maps a combo to its fit, used by grid cells,
    the ``volume`` / ``scores`` one-offs and :func:`roc_band`, each of which
    takes ``spec`` from :meth:`GridConfig.split_spec`.  kNN combos
    fit with :func:`knn_fit` and LOF combos from one :func:`lof_fitter` of
    ``train``, given every LOF k of ``combos`` so one neighbour prefix per
    training row serves them all.  The forest combos of a subsample take
    their prefix of one :func:`iforest_fit` at their largest ``n_trees``,
    which equals a forest fitted with their own ``n_trees`` bit for bit.
    Seeds come from :func:`_fit_seed`.  An entry is the ``ValueError`` or
    ``FloatingPointError`` its fit raised instead of a model; a failed
    forest fit is the entry of every combo of its subsample.
    """
    lof = lof_fitter(train, [int(c.param("k")) for c in combos if c.detector == "lof"])
    forests: dict[object, object] = {}

    def forest(subsample) -> object:
        if subsample not in forests:
            group = [c for c in combos
                     if c.detector == "iforest" and c.param("subsample") == subsample]
            largest = max(group, key=lambda c: c.param("n_trees"))
            try:
                forests[subsample] = iforest_fit(
                    train, n_trees=int(largest.param("n_trees")), subsample=int(subsample),
                    seed=_fit_seed(table, largest, spec),
                )
            except _CELL_ERRORS as exc:
                forests[subsample] = exc
        return forests[subsample]

    def fit(combo: Combo) -> object:
        if combo.detector == "knn":
            return knn_fit(train, k=int(combo.param("k")), variant=str(combo.param("variant")))
        if combo.detector == "lof":
            return lof(int(combo.param("k")))
        if combo.detector == "iforest":
            fitted = forest(combo.param("subsample"))
            if isinstance(fitted, Exception):
                return fitted
            return fitted.prefix(int(combo.param("n_trees")))
        raise ValueError(f"unknown detector {combo.detector!r}")

    models: list[object] = []
    for combo in combos:
        try:
            models.append(fit(combo))
        except _CELL_ERRORS as exc:
            models.append(exc)
    return models


def score_row(model, points: np.ndarray, non_finite: str) -> NDArray[np.float64]:
    """``model``'s scores of ``points`` as one (1, n) score row.

    Raises ``ValueError`` unless the model gives one score per point, and
    ``ValueError(non_finite)`` unless every score is finite.
    """
    scores = np.asarray(model.score(points), dtype=np.float64)
    if scores.shape != (len(points),):
        raise ValueError("score function must return one score per point")
    if not np.isfinite(scores).all():
        raise ValueError(non_finite)
    return scores[None, :]


# ---------------------------------------------------------------------------
# Records and their store
# ---------------------------------------------------------------------------

_ID_COLUMNS = (
    "grid_index",
    "table",
    "anomaly_class",
    "detector",
    "params",
    "contamination",
    "repetition",
    "flags",
)

_MISSING = "NA"


@dataclass(frozen=True, eq=False)
class StoredCells:
    """Rows of cells as columns, sorted by cell, one row per cell.

    Row i is the cell ``(benchmark[i], contamination[i], grid_index[i],
    repetition[i])`` (:meth:`keys`), and rows are sorted by it.  The string
    columns are object arrays, and ``flags`` holds each row's flags as a
    tuple.  ``measures`` are the run's measure columns, which every row
    holds: the store files' one header for a load,
    :meth:`GridConfig.measure_names` for a grid block.  ``na[i, m]`` marks
    a missing value (``NA``), the only missing value there is;
    ``values[i, m]`` is row i's value of measure m where ``na[i, m]`` is
    False, else 0.
    """

    grid_index: NDArray[np.int64]
    table: NDArray[np.object_]
    anomaly_class: NDArray[np.object_]
    detector: NDArray[np.object_]
    params: NDArray[np.object_]
    contamination: NDArray[np.float64]
    repetition: NDArray[np.int64]
    flags: NDArray[np.object_]
    benchmark: NDArray[np.object_]
    measures: tuple[str, ...]
    values: NDArray[np.float64]  # (row, measure)
    na: NDArray[np.bool_]  # (row, measure)

    def __len__(self) -> int:
        return len(self.grid_index)

    @property
    def flagged_missing(self) -> NDArray[np.bool_]:
        """Rows with an ``NA`` value: the cells that a failure left missing."""
        return self.na.any(axis=1)

    def keys(self) -> list[tuple[str, float, int, int]]:
        """Each row's cell as (benchmark, contamination, grid index, repetition)."""
        return list(zip(self.benchmark.tolist(), self.contamination.tolist(),
                        self.grid_index.tolist(), self.repetition.tolist()))

    def select(self, rows: NDArray[np.bool_]) -> StoredCells:
        """The rows where ``rows`` holds, with every measure."""
        columns = [getattr(self, name)[rows] for name in _ID_COLUMNS + ("benchmark",)]
        return StoredCells(*columns, self.measures, self.values[rows], self.na[rows])

    def _first_repeat(self) -> int | None:
        """The first row i whose cell row i + 1 holds too, or None if every cell has one row."""
        same = ((self.benchmark[1:] == self.benchmark[:-1])
                & (self.contamination[1:] == self.contamination[:-1])
                & (self.grid_index[1:] == self.grid_index[:-1])
                & (self.repetition[1:] == self.repetition[:-1]))
        hits = np.flatnonzero(same)
        return int(hits[0]) if hits.size else None

    def _cell_text(self, i: int) -> str:
        return (f"{self.benchmark[i]} c={self.contamination[i]:g} combo={self.grid_index[i]} "
                f"rep={self.repetition[i]}")


def _sorted_cells(
    ids: Sequence[Sequence],
    measures: tuple[str, ...],
    values: NDArray[np.float64],
    na: NDArray[np.bool_],
) -> tuple[StoredCells, NDArray[np.intp]]:
    """The rows as :class:`StoredCells`, sorted by cell, and the order that sorted them.

    ``ids`` are the parsed id columns, in :data:`_ID_COLUMNS` order, and the
    arrays are (row, measure).  One stable ``lexsort`` sorts the rows by
    (benchmark, contamination, grid index, repetition), the benchmarks as
    integer codes in name order.
    """
    n = len(ids[0])
    benchmark = [f"{t}-{c}" for t, c in zip(ids[1], ids[2])]
    code = {name: i for i, name in enumerate(sorted(set(benchmark)))}
    grid_index = np.fromiter(ids[0], np.int64, n)
    contamination = np.fromiter(ids[5], np.float64, n)
    repetition = np.fromiter(ids[6], np.int64, n)
    order = np.lexsort((repetition, grid_index, contamination,
                        np.fromiter(map(code.__getitem__, benchmark), np.intp, n)))

    def text(column: Sequence) -> NDArray[np.object_]:
        return np.fromiter(column, object, n)[order]

    cells = StoredCells(
        grid_index[order], text(ids[1]), text(ids[2]), text(ids[3]), text(ids[4]),
        contamination[order], repetition[order], text(ids[7]), text(benchmark),
        measures, values[order], na[order],
    )
    return cells, order


class RecordStore:
    """Resumable record store: one delimited file per (benchmark, detector).

    Files carry the run-manifest hash in a leading comment line, then a
    header row, then one row per cell.  Appending never rewrites existing
    rows, so a finished store is byte-stable under reruns.  A last line
    without its line terminator is a torn tail, left by a write that was
    cut short: :meth:`load` reads past it, so its cell counts as missing,
    and :meth:`append` cuts it off before writing.  The root directory is
    made by the first append that starts a file, so loading a store never
    writes: a missing root loads as an empty store.  A file whose manifest
    line names another run is refused, never loaded as finished cells.
    """

    def __init__(self, root: str | Path, manifest_hash: str = "unmanaged"):
        self.root = Path(root)
        self.manifest_hash = manifest_hash
        self._manifest_line = f"# manifest: {manifest_hash}"

    def append(self, cells: StoredCells) -> None:
        """Append the rows of ``cells``, in their order, under a header of ``cells.measures``.

        A row goes to the file of its (benchmark, detector).  A float is
        written as its ``repr``, and a value is ``NA`` where ``cells.na``
        marks it.  Each file the rows reach gets one torn-tail check and one
        open, so a block's rows cost one open per (benchmark, detector) file.
        """
        # tolist() gives floats whose repr is the number, where an
        # np.float64's names its type on numpy 2.
        texts = [[_MISSING if n else repr(v) for v, n in zip(vs, ns)]
                 for vs, ns in zip(cells.values.tolist(), cells.na.tolist())]
        ids = zip(cells.grid_index.tolist(), cells.table, cells.anomaly_class, cells.detector,
                  cells.params, map(repr, cells.contamination.tolist()),
                  cells.repetition.tolist(), map(";".join, cells.flags))
        by_file: dict[Path, list[list]] = {}
        for benchmark, detector, row, text in zip(cells.benchmark, cells.detector, ids, texts):
            stem = _safe_name(f"{benchmark}__{detector}")
            by_file.setdefault(self.root / f"{stem}.csv", []).append([*row, *text])
        for path, rows in by_file.items():
            fresh = _drop_torn_tail(path)
            if fresh:
                self.root.mkdir(parents=True, exist_ok=True)
            with open(path, "a", newline="") as handle:
                writer = csv.writer(handle)
                if fresh:
                    handle.write(f"{self._manifest_line}\n")
                    writer.writerow(list(_ID_COLUMNS) + list(cells.measures))
                writer.writerows(rows)

    def load(self) -> StoredCells:
        """Every row in the store, as the columns of its cells.

        A store is one run's grid: every file has the first file's measure
        columns, and a file whose header differs raises ``ValueError``
        naming both files.  A row whose width differs from its header, or
        with a value that is neither ``NA`` nor a float, raises
        ``ValueError`` naming its file and line rather than loading as a
        finished cell.  So does a file whose first complete line is not this
        store's manifest line: its rows belong to another run.  Of two such
        faults the first in file and line order is named.  A second row of
        one cell raises ``ValueError`` naming its file and both lines, so a
        duplicated row is never averaged in as a repetition.  A torn tail is
        skipped, and a file torn before its first line end loads as no rows.
        """
        files = []  # (path, line numbers, rows) of each file with rows
        head = None  # (path, measure columns) of the first file with a header
        fault = None
        for path in sorted(self.root.glob("*.csv")):
            with open(path, newline="") as handle:
                text = handle.read()
            complete = text[: text.rfind("\n") + 1]
            first = complete[: complete.find("\n")]
            if complete and first != self._manifest_line:
                fault = (
                    f"{path}: first line {first!r} is not this run's manifest header "
                    f"{self._manifest_line!r}; the file belongs to another run"
                )
                break
            header, lines, rows = None, [], []
            for lineno, row in data_rows(io.StringIO(complete, newline="")):
                if header is None:
                    header = row
                    if tuple(header[: len(_ID_COLUMNS)]) != _ID_COLUMNS:
                        fault = f"{path}: unrecognized record header"
                        break
                    head = head or (path, header[len(_ID_COLUMNS) :])
                    if header[len(_ID_COLUMNS) :] != head[1]:
                        fault = (f"{path}: measure columns {header[len(_ID_COLUMNS) :]} differ "
                                 f"from {head[0]}'s {head[1]}; a store holds one run's measures")
                        break
                elif len(row) != len(header):
                    fault = (f"{path}: line {lineno}: {len(row)} fields where the header "
                             f"has {len(header)}")
                    break
                else:
                    lines.append(lineno)
                    rows.append(row)
            if rows:
                files.append((path, lines, rows))
            if fault:
                break
        cells, order = _parse_rows(files, tuple(head[1]) if head else ())
        if fault:
            raise ValueError(fault)
        twice = cells._first_repeat()
        if twice is not None:
            source = [(path, line) for path, lines, _ in files for line in lines]
            (path_a, line_a), (path_b, line_b) = source[order[twice]], source[order[twice + 1]]
            where = f"line {line_a}" if path_a == path_b else f"{path_a}: line {line_a}"
            raise ValueError(f"{path_b}: line {line_b} repeats the cell of {where} "
                             f"({cells._cell_text(twice)}); a cell has one row")
        return cells


def _parse_rows(files: Sequence[tuple[Path, list[int], list[list[str]]]],
                measures: tuple[str, ...]) -> tuple[StoredCells, NDArray[np.intp]]:
    """The :class:`StoredCells` of the rows read from ``files``, and the order that sorted them.

    Every row holds the id columns and then ``measures``.  Every row's
    measure fields are parsed in one row-major ``float`` pass and reshaped
    to (rows x measures).  If any field does not parse, the rows are parsed
    one by one to raise ``ValueError`` naming the first bad row's file and
    line.
    """
    rows = [row for _, _, file_rows in files for row in file_rows]
    width = len(_ID_COLUMNS)
    ids = [list(column) for column in islice(zip(*rows), width)] or [[] for _ in _ID_COLUMNS]
    raw = list(chain.from_iterable(map(itemgetter(slice(width, None)), rows)))
    try:
        try:
            flat = np.fromiter(map(float, raw), np.float64, len(raw))
            missing = np.zeros(len(raw), dtype=bool)
        except ValueError:
            na_list = [text == _MISSING for text in raw]
            flat = np.fromiter((0.0 if na else float(text) for text, na in zip(raw, na_list)),
                               np.float64, len(raw))
            missing = np.array(na_list, dtype=bool)
        ids[0] = list(map(int, ids[0]))
        ids[5] = list(map(float, ids[5]))
        ids[6] = list(map(int, ids[6]))
    except ValueError:
        for path, lines, file_rows in files:
            for lineno, row in zip(lines, file_rows):
                try:
                    _check_row(row)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
        raise
    ids[7] = [tuple(t for t in text.split(";") if t) if text else () for text in ids[7]]
    shape = (len(rows), len(measures))
    return _sorted_cells(ids, measures, flat.reshape(shape), missing.reshape(shape))


def _check_row(row: list[str]) -> None:
    """Raise the ``ValueError`` of a row's first bad field: its measures, then its ids."""
    for text in row[len(_ID_COLUMNS) :]:
        if text != _MISSING:
            float(text)
    int(row[0]), float(row[5]), int(row[6])


def _drop_torn_tail(path: Path) -> bool:
    """Cut a torn tail off ``path``; True if the file is missing or left empty.

    The file is cut after its last line end, or emptied if no complete
    header row would remain, so that it is written afresh.
    """
    if not path.exists():
        return True
    with open(path, "rb+") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) == b"\n":
                return False
        handle.seek(0)
        data = handle.read()
        kept = data.rfind(b"\n") + 1
        if data.count(b"\n", 0, kept) < 2:  # the manifest line and the header
            kept = 0
        handle.truncate(kept)
    return kept == 0


# ---------------------------------------------------------------------------
# Running the grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    """Cell counts of a grid run; the flagged ones cover the whole store, stored and new."""

    n_cells: int
    n_new: int
    n_flagged: int
    errors: dict[str, int]  # flagged cells per ``error:`` flag, sorted by flag


def missing_cells(
    cfg: GridConfig, benchmarks: Iterable[str], stored: StoredCells
) -> list[tuple[str, float, int, int]]:
    """The grid's cells of ``benchmarks`` that ``stored`` lacks, sorted.

    A cell is (benchmark, contamination, grid index, repetition), as in
    :meth:`StoredCells.keys`.
    """
    have = set(stored.keys())
    cells = [(name, c, combo.index, rep) for name in sorted(benchmarks) for c in cfg.contaminations
             for combo in cfg.detector_combos() for rep in range(cfg.repetitions)]
    return [cell for cell in cells if cell not in have]


@dataclass(frozen=True, eq=False)
class LabelledSample:
    """One labelled sample's score rows, from which every measure kind reads its values.

    Row r of ``scores`` holds one model's scores of the points labelled
    ``labels``, and row r of ``volume`` its scores of the volume sample;
    ``cfg`` gives the levels and ``prec_seed`` seeds precision@p's draw.  What
    several kinds share is computed once, on first use: each row's sort, its
    ROC curve, its thresholds at every alpha and the (tp, fp, tn, fn) there.
    """

    labels: NDArray[np.int64]
    scores: NDArray[np.float64]
    volume: NDArray[np.float64]
    cfg: GridConfig
    prec_seed: int = 0

    @cached_property
    def order(self) -> NDArray[np.intp]:
        return descending_order(self.scores)

    @cached_property
    def roc(self) -> RocRows:
        return roc_rows(self.labels, self.scores, self.order)

    @cached_property
    def thresholds(self) -> NDArray[np.float64]:
        return threshold_at_fpr_rows(self.roc, self.cfg.alphas)

    @cached_property
    def confusion(self) -> tuple[NDArray[np.intp], ...]:
        return confusion_rows(self.labels, self.scores, self.thresholds)


def _error_flag(exc: Exception) -> str:
    return f"error:{type(exc).__name__}"


def _evaluate_cells(
    labels: NDArray[np.int64],
    parts: Sequence[tuple[str, NDArray[np.intp]]],
    test_scores: NDArray[np.float64],
    volume_scores: NDArray[np.float64],
    cfg: GridConfig,
    prec_seed: int,
) -> tuple[NDArray[np.float64], NDArray[np.bool_], list[list[str]]]:
    """Values, ``NA`` mask and flags of one benchmark's cells of a block, one cell per score row.

    Row i of ``test_scores`` and of ``volume_scores`` holds one cell's
    scores of the test fold (labelled ``labels``) and of the volume sample.
    Row i of the (cell x measure) value array and of its ``NA`` mask holds
    that cell's measures part by part: part k's columns are ``k * M`` to
    ``(k + 1) * M``, its M measures in :meth:`GridConfig.measures` order, so
    with the planner's parts the columns are :meth:`GridConfig.measure_names`.
    A value is 0 where the mask marks it ``NA``.
    Each cell's volume scores are checked to be finite.  Then each part of the
    test fold (:meth:`GridConfig.parts`: column-name prefix, fold indices) has its
    labels checked once (:func:`check_labels`) and each cell's test scores
    checked to be finite; the cells still standing make one
    :class:`LabelledSample`, which each kind's row function reads.  A failure flags
    ``error:<exception type>`` and leaves ``NA`` the values not yet
    evaluated: bad labels fail every cell still standing, a bad score row
    only its own cell.  Each cell keeps the flags of the first part
    (``thinned-normals@p`` per level whose normals it thins, in column order).
    """
    measures = cfg.measures()
    width = len(measures)
    values = np.zeros((len(test_scores), len(parts) * width))
    na = np.ones(values.shape, dtype=bool)
    flags: list[list[str]] = [[] for _ in test_scores]

    def fail(rows: Iterable[int], exc: Exception) -> None:
        for i in rows:
            flags[i].append(_error_flag(exc))

    finite = np.isfinite(volume_scores).all(axis=1)
    fail(np.flatnonzero(~finite), ValueError("score function returned a non-finite value"))
    live = np.flatnonzero(finite).tolist()
    # Each measure's (kind, level index) in its kind's rows.
    picks = [(m.kind, 0 if m.family is None else getattr(cfg, m.family).index(m.level))
             for m in measures]
    precisions = [m.level for m in measures if m.family == "ps"]
    for k, (_, idx) in enumerate(parts):
        try:
            sample_labels = check_labels(labels[idx])
        except _CELL_ERRORS as exc:
            fail(live, exc)
            break
        scores = test_scores[np.ix_(live, idx)]
        finite = np.isfinite(scores).all(axis=1)
        fail([i for i, ok in zip(live, finite) if not ok], ValueError("scores must be finite"))
        live = [i for i, ok in zip(live, finite) if ok]
        if not live:
            break
        try:
            sample = LabelledSample(
                sample_labels, scores[finite], volume_scores[live], cfg, prec_seed
            )
            by_kind = {kind: rows(sample) for kind, (_, _, rows) in _KINDS.items()}
        except _CELL_ERRORS as exc:
            fail(live, exc)
            break
        n_pos = int(sample_labels.sum())
        n_neg = len(idx) - n_pos
        # Only the first part flags its cells.
        thinned = [f"thinned-normals@{p:g}" for p in precisions
                   if k == 0 and precision_composition(n_pos, n_neg, p)[1] < n_neg]
        columns = slice(k * width, (k + 1) * width)
        values[live, columns] = np.stack([by_kind[kind][level] for kind, level in picks], axis=1)
        na[live, columns] = False
        for i in live:
            flags[i] += thinned
    return values, na, flags


def _run_repetition(
    cfg: GridConfig,
    table: PreparedTable,
    contamination: float,
    repetition: int,
) -> StoredCells:
    """Evaluate every combo's cell of ``table`` in one (contamination, repetition) block.

    The benchmarks' training folds share one fit: either the table has one
    class, or its folds take no injected anomaly (:func:`train_counts`),
    which at contamination 0 and at any level too low to inject one makes
    them all the table's normal fold.  More than one class whose folds take
    injected anomalies raises ``ValueError``.  The block's cells come back
    as :class:`StoredCells` over :meth:`GridConfig.measure_names`, built from
    one (cell x measure) array whose row ``i * len(combos) + r`` is
    benchmark i and combo r.  The benchmarks hold the table's normal array,
    so by :func:`split` they share the test normals, which lead each test
    fold.  The block splits each benchmark (:meth:`GridConfig.split_spec`),
    draws the table's volume sample (:meth:`GridConfig.volume_sample`) and
    makes one :func:`fit_models` call over every combo on the shared
    training fold.

    The models are scored in groups, one per scorer: every kNN and LOF
    model in one group that shares one distance matrix per query chunk
    (:func:`neighbour_scores`), and the forest prefixes of each subsample
    in one group that one pass over the trees scores
    (:func:`forest_scores`).  Each scorer scores the block's test points,
    the shared test normals and then each benchmark's test anomalies,
    followed by the volume sample, in one call.  The rows of every scorer
    that succeeded are stacked into one (combo x point) matrix, cut into
    its test scores and its volume scores.  Each benchmark takes its
    columns (the shared normals and its own anomalies, which is its test
    fold in split order) and evaluates its cells once, into their rows of
    the block array (:func:`_evaluate_cells`), part by part of its test
    fold as the planner :meth:`GridConfig.parts` cuts it.  Every measure is row-wise
    and the precision@p draws depend only on the labels and the
    benchmark's seed, and a point's score does not depend on the other
    points scored with it, so a cell's values depend neither on which
    benchmarks share the block nor on which scorers share its evaluation.

    A failure leaves ``NA`` every value of the cells it reaches that is
    not yet evaluated and flags them ``error:<exception type>``: a failed
    split reaches every cell of its benchmark, a failed volume draw every
    cell of the block not already failed, a failed scoring pass every cell
    it served, a failed forest fit every cell of its subsample, a sample
    with one class only every cell of its benchmark still standing, and
    any other failed fit or a non-finite score only its own cell.
    """
    names = cfg.measure_names()
    combos = cfg.detector_combos()
    spec = cfg.split_spec(contamination, repetition)
    benches = table.benchmarks()
    if len(benches) > 1 and train_counts(spec, len(table.normal))[1] > 0:
        raise ValueError("benchmarks whose training folds take injected anomalies "
                         "cannot share one fit")
    # Row i * len(combos) + r: benchmark i, combo r.
    values = np.zeros((len(benches) * len(combos), len(names)))
    na = np.ones(values.shape, dtype=bool)
    flags: list[list[str]] = [[] for _ in values]

    def fail(members: Iterable[int], rows: Iterable[int], exc: Exception) -> None:
        for i in members:
            for r in rows:
                flags[i * len(combos) + r] = [_error_flag(exc)]

    every = range(len(combos))
    folds: dict[int, TrainTestSplit] = {}
    for i, bench in enumerate(benches):
        try:
            folds[i] = split(bench, spec)
        except _CELL_ERRORS as exc:
            fail([i], every, exc)
    try:
        volume = cfg.volume_sample(table.name, table.normal, repetition)
    except _CELL_ERRORS as exc:
        fail(folds, every, exc)
        folds.clear()

    if folds:
        first = next(iter(folds.values()))
        models = fit_models(table.name, spec, first.train, combos)
        # split() puts a fold's test normals, the table's, ahead of its test anomalies.
        n_normal = int(np.count_nonzero(first.test_labels == 0))
        anomalies = [fold.test[n_normal:] for fold in folds.values()]
        tests = np.concatenate([first.test[:n_normal], *anomalies])
        ends = np.cumsum([n_normal] + [len(a) for a in anomalies])
        groups: dict[tuple, list[int]] = {}
        for r, (combo, model) in enumerate(zip(combos, models)):
            if isinstance(model, Exception):
                fail(folds, [r], model)
            else:
                key = ((forest_scores, combo.param("subsample")) if combo.detector == "iforest"
                       else (neighbour_scores, None))
                groups.setdefault(key, []).append(r)
        points = np.concatenate([tests, volume])
        fitted: list[int] = []
        parts = []
        for (score, _), rows in groups.items():
            try:
                parts.append(score([models[r] for r in rows], points))
            except _CELL_ERRORS as exc:
                fail(folds, rows, exc)
                continue
            fitted += rows
        if fitted:
            scores = np.vstack(parts)
            test_scores, volume_scores = scores[:, : len(tests)], scores[:, len(tests) :]
            for (i, fold), start, stop in zip(folds.items(), ends, ends[1:]):
                prec_seed = derive_seed(cfg.master_seed, "precision", benches[i].name, repetition)
                own_rows = [i * len(combos) + r for r in fitted]
                values[own_rows], na[own_rows], own_flags = _evaluate_cells(
                    fold.test_labels,
                    list(cfg.parts(benches[i].name, repetition, len(fold.test_labels)).values()),
                    test_scores[:, np.r_[:n_normal, start:stop]], volume_scores, cfg, prec_seed,
                )
                for row, row_flags in zip(own_rows, own_flags):
                    flags[row] = row_flags
    ids = [(combo.index, bench.table, bench.anomaly_class, combo.detector, combo.params_text,
            contamination, repetition) for bench in benches for combo in combos]
    cells, _ = _sorted_cells([*zip(*ids), list(map(tuple, flags))], names, values, na)
    return cells


def benchmarks_of(tables: Sequence[PreparedTable]) -> list[BenchmarkDataset]:
    """Every benchmark of ``tables``, in order.

    Raises ``ValueError`` if two tables share a name (and so their seeds)
    or two benchmarks do (and so their store rows and manifest entry).
    """
    benches = [bench for table in tables for bench in table.benchmarks()]
    for kind, items in (("tables", tables), ("benchmarks", benches)):
        shared = sorted(name for name, n in Counter(x.name for x in items).items() if n > 1)
        if shared:
            raise ValueError(f"{kind} share a name ({', '.join(shared)}); rename a table")
    return benches


def check_parts(cfg: GridConfig, benches: Iterable[BenchmarkDataset]) -> None:
    """Raise ``ValueError`` if ``cfg`` cuts some benchmark's test fold into a part of one class.

    Every measure of a part that holds one class fails.  A part is refused
    when it holds < 2 points, or when its fold holds both classes and the
    part holds one of them at every repetition; a part that mixes them at
    some repetition runs, and only its one-class repetitions fail.  A
    fold's labels depend only on its benchmark and contamination level
    (:func:`train_counts`; :func:`split` puts its test normals first), and
    the planner's parts (:meth:`GridConfig.parts`) only on the fold's size,
    the benchmark and the repetition.  A level whose split fails anyway,
    and so fails its cells, is skipped.
    """
    for bench in benches:
        n_normal, n_anomaly = len(bench.normal), len(bench.anomaly)
        for c in cfg.contaminations:
            n_train, n_inject = train_counts(cfg.split_spec(c), n_normal)
            if not 1 <= n_train < n_normal or n_inject > n_anomaly:
                continue
            labels = np.repeat([0, 1], [n_normal - n_train, n_anomaly - n_inject])
            # The parts not yet seen to mix both classes; none in a one-class fold.
            one_class = set(cfg.parts()) if 0 < labels.sum() < len(labels) else set()
            for rep in range(cfg.repetitions):  # part sizes do not depend on rep
                parts = cfg.parts(bench.name, rep, len(labels))
                one_class -= {part for part, (_, idx) in parts.items()
                              if 0 < labels[idx].sum() < len(idx)}
                if not one_class:
                    break
            for part, (_, idx) in parts.items():
                if len(idx) < 2 or part in one_class:
                    held = {0: "empty", 1: "with 1 point"}.get(
                        len(idx), f"with {len(idx)} points of one class in every repetition")
                    raise ValueError(
                        f"validation_fraction {cfg.validation_fraction:g} leaves the {part} "
                        f"part of {bench.name}'s {len(labels)}-point test fold {held} at "
                        f"contamination {c:g}")


def run_grid(
    cfg: GridConfig,
    tables: Sequence[PreparedTable],
    store: RecordStore,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> RunSummary:
    """Run every missing cell of the grid over the benchmarks of ``tables`` into the store.

    Raises ``ValueError`` for two tables or two benchmarks of one name
    (:func:`benchmarks_of`) or a test fold part of one class (:func:`check_parts`),
    before the store is loaded.
    The store is loaded once.  Cells already present in it are skipped
    (:func:`missing_cells`), so an interrupted run resumes where it
    stopped and a completed run is a no-op.  A failing cell is recorded
    as flagged-missing; the grid itself never aborts.  The summary counts
    the flagged cells of the whole store, those stored before and the new.

    A block is one shared training fold, planned from the input alone.
    For each table, in the given order, and each (contamination,
    repetition), when the table's folds take no injected anomaly
    (:func:`train_counts`: contamination 0, or a level too low to inject
    one), the block is the table narrowed to its classes with a missing
    cell there, which share one fit; otherwise each such class is a block
    of its own.  A block runs whole (:func:`_run_repetition`) and only its
    missing cells are appended (:meth:`StoredCells.select`), so a resume
    that meets a block torn by an interrupted append recomputes its stored
    cells and keeps them as they are.  Blocks are evaluated by
    up to ``workers`` processes, never more than there are blocks.  Each
    block's cells are appended as soon as it and every block before it
    are done, so an interrupted run keeps every block it appended, and
    each store file lists its cells by contamination, then repetition,
    then combo.  Seeds derive from cell identity and the table, never from
    scheduling or grouping, so the store content depends neither on the
    worker count nor on which cells a resume still has to run.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    benchmarks = benchmarks_of(tables)
    if not benchmarks:
        raise ValueError("no benchmarks to run on")
    check_parts(cfg, benchmarks)
    stored = store.load()
    missing = set(missing_cells(cfg, [b.name for b in benchmarks], stored))
    todo = {(name, c, rep) for name, c, _, rep in missing}

    blocks = []  # (table narrowed to the block's classes, contamination, repetition)
    for table in tables:
        benches = table.benchmarks()
        for contamination in cfg.contaminations:
            shared = train_counts(cfg.split_spec(contamination), len(table.normal))[1] == 0
            for repetition in range(cfg.repetitions):
                pending = [b.anomaly_class for b in benches
                           if (b.name, contamination, repetition) in todo]
                parts = [pending] if shared else [[c] for c in pending]
                blocks += [(table.narrowed(part), contamination, repetition)
                           for part in parts if part]

    run = partial(_run_repetition, cfg)
    flagged = stored.flags[stored.flagged_missing].tolist()  # flags of each flagged cell
    with ExitStack() as stack:
        results = starmap(run, blocks)
        if workers > 1 and len(blocks) > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(workers, len(blocks))))
            results = pool.map(run, *zip(*blocks))
        for (_, contamination, repetition), cells in zip(blocks, results):
            cells = cells.select(np.array([key in missing for key in cells.keys()], dtype=bool))
            if progress:
                progress(f"{cells.table[0]} c={contamination:g} rep={repetition}: "
                         f"{len(cells)} cells")
            store.append(cells)
            flagged += cells.flags[cells.flagged_missing].tolist()
    n_cells = (len(benchmarks) * len(cfg.contaminations) * cfg.repetitions
               * len(cfg.detector_combos()))
    errors = Counter(f for flags in flagged for f in flags if f.startswith("error:"))
    return RunSummary(n_cells=n_cells, n_new=len(missing), n_flagged=len(flagged),
                      errors=dict(sorted(errors.items())))


# ---------------------------------------------------------------------------
# Collapsing repetitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Collapsed:
    """Repetition means of one contamination level as one dense array.

    ``values[b, c, m]`` is the mean over repetitions of measure ``m`` for
    combo ``c`` on benchmark ``b``: NaN where the value is ``NA`` in every
    repetition.  Benchmarks are ordered by name and combos by grid index;
    ``measures`` holds every part's columns (:meth:`GridConfig.parts`), the
    first part's first.
    """

    benchmarks: tuple[str, ...]
    tables: tuple[str, ...]  # table of each benchmark
    detectors: tuple[str, ...]  # detector of each combo
    measures: tuple[str, ...]
    values: NDArray[np.float64]  # (benchmark, combo, measure)

    def column(self, name: str) -> NDArray[np.float64]:
        """The (benchmark, combo) means of measure ``name``."""
        return self.values[:, :, self.measures.index(name)]

    def block(self, measures: Sequence[str]) -> NDArray[np.float64]:
        """The (benchmark, measure, combo) means of ``measures``, each as :meth:`column`."""
        return np.stack([self.column(m) for m in measures], axis=1)

    def table_measures(self, measures: Sequence[str] | None) -> tuple[str, ...]:
        """``measures`` if given, else every measure of the first part (:data:`_PARTS`)."""
        if measures:
            return tuple(measures)
        later = tuple(prefix for prefix, _ in list(_PARTS.values())[1:])
        return tuple(n for n in self.measures if not n.startswith(later))


def collapse(stored: StoredCells) -> Collapsed:
    """Average measure values over repetitions into one :class:`Collapsed`.

    The rows must be one contamination level of a complete grid: one row
    for every (benchmark, combo, repetition) of the benchmarks, combos and
    repetitions they hold, else ``ValueError``.  A value that is ``NA`` in
    some repetitions averages over the others; a value ``NA`` everywhere
    gives NaN.  A stored NaN is a value, so its mean is NaN.

    Rows are sorted by cell, so the values reshape to one (benchmark, combo,
    repetition, measure) array, whose (benchmark, combo, measure) rows of
    repetitions are reduced.  A stable argsort on the ``NA`` mask moves
    each row's values to the front, keeping their repetition order.
    Then, for each distinct count c of values, one ``np.add.reduce`` along
    the last axis of a C-contiguous (rows × c) array sums every row with
    that count, and the sums are divided by c.  That is the reduction
    ``np.mean`` runs on a 1-D list of the same c values, with the same
    pairwise grouping of the sum, so each mean is bit for bit the
    ``np.mean`` of its values.
    """
    if not len(stored):
        raise ValueError("no records to collapse")
    levels = np.unique(stored.contamination).tolist()
    if len(levels) != 1:
        raise ValueError(
            f"records mix contamination levels {levels}; filter to one first"
        )
    bench = stored.benchmark
    shape = (1 + int(np.count_nonzero(bench[1:] != bench[:-1])),
             len(np.unique(stored.grid_index)), len(np.unique(stored.repetition)))
    if len(stored) != np.prod(shape):
        raise ValueError(
            f"{len(stored)} rows do not fill a grid of {shape[0]} benchmarks x {shape[1]} "
            f"combos x {shape[2]} repetitions; collapse needs every cell")
    n_reps, n_measures = shape[2], len(stored.measures)

    def by_repetition(cells: NDArray) -> NDArray:
        return cells.reshape(*shape, n_measures).transpose(0, 1, 3, 2).reshape(-1, n_reps)

    na = by_repetition(stored.na)
    # Each (benchmark, combo, measure)'s values first, in repetition order.
    order = np.argsort(na, axis=1, kind="stable")
    packed = np.take_along_axis(by_repetition(stored.values), order, axis=1)
    counts = n_reps - na.sum(axis=1)
    means = np.full(counts.shape, np.nan)
    for c in np.unique(counts[counts > 0]):
        rows = counts == c
        means[rows] = np.add.reduce(np.ascontiguousarray(packed[rows, :c]), axis=1) / c
    per_bench = shape[1] * n_reps
    return Collapsed(
        benchmarks=tuple(bench[::per_bench].tolist()),
        tables=tuple(stored.table[::per_bench].tolist()),
        detectors=tuple(stored.detector[:per_bench:n_reps].tolist()),
        measures=stored.measures,
        values=means.reshape(shape[0], shape[1], n_measures),
    )


# ---------------------------------------------------------------------------
# Mean ranks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    """Mean +- std of detector ranks across benchmarks, one row per measure."""

    measures: tuple[str, ...]
    detectors: tuple[str, ...]
    mean: NDArray[np.float64]  # (measure, detector)
    std: NDArray[np.float64]  # (measure, detector)
    n_datasets: int


def average_ranks(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """1-based ascending ranks within each row of a 2-D array; ties share their mean rank.

    Each row is sorted once (stable) and its tie blocks found from one
    ``!=`` mask over the sorted values; every member of a block gets the
    mean of the block's first and last position.
    """
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    n = values.shape[1]
    new_block = np.ones(values.shape, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=new_block[:, 1:])
    # Blocks never span rows, since every row opens one.
    first = np.flatnonzero(new_block)
    last = np.r_[first[1:], new_block.size] - 1
    block_rank = (first % n + last % n) / 2.0 + 1.0
    ranks = np.empty(values.shape)
    block = (np.cumsum(new_block) - 1).reshape(values.shape)
    np.put_along_axis(ranks, order, block_rank[block], axis=1)
    return ranks


def mean_rank_table(data: Collapsed, measures: Sequence[str] | None = None) -> RankTable:
    """Rank detectors per benchmark and measure (best hyperparameters, rank 1 = best).

    Each detector is represented by its best hyperparameter setting under
    the measure; ties get fractional ranks.  Requires every detector to
    have a value on every benchmark: the first measure, in order, where one
    lacks it is reported with its benchmark/detector pairs.

    Every measure is ranked in one pass over a (benchmark, measure,
    detector) array.  Mean and std reduce its outer benchmark axis, which
    numpy sums one benchmark at a time, as it sums one measure's
    (benchmark, detector) ranks; a contiguous benchmark axis would take its
    pairwise sum instead.  So each row is bit for bit its measure's alone.
    """
    names = data.table_measures(measures)
    block = data.block(names)  # (benchmark, measure, combo)
    detectors = tuple(sorted(set(data.detectors)))
    owner = np.array(data.detectors)
    best = np.stack(
        [np.fmax.reduce(block[:, :, owner == d], axis=2) for d in detectors], axis=2
    )
    missing = np.isnan(best)
    if missing.any():
        first = missing.any(axis=(0, 2)).argmax()
        pairs = np.argwhere(missing[:, first])[:10]
        shown = ", ".join(f"{data.benchmarks[b]}/{detectors[d]}" for b, d in pairs)
        raise ValueError(f"missing detector results for: {shown}")
    ranks = average_ranks(-best.reshape(-1, len(detectors))).reshape(best.shape)
    return RankTable(
        measures=names,
        detectors=detectors,
        mean=ranks.mean(axis=0),
        std=ranks.std(axis=0),
        n_datasets=len(data.benchmarks),
    )


# ---------------------------------------------------------------------------
# Measure-pair tables: Kendall correlation and selection losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurePairs:
    """One (measure x measure) comparison table and the units behind each entry.

    A unit is a benchmark (Kendall, selection loss) or an ordered class
    pair of one table (class transfer).  ``counts[i, j]`` is the number of
    units that define entry (i, j), which is NaN where the count is 0.
    ``n_tables`` tables contributed units; ``n_skipped_tables`` had none.
    """

    measures: tuple[str, ...]
    matrix: NDArray[np.float64]
    counts: NDArray[np.int64]
    n_tables: int
    n_skipped_tables: int = 0


def _masked_mean(
    units: Sequence[NDArray[np.float64]],
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """Mean over units of (measure x measure) arrays, skipping NaN; and the counts.

    The units are stacked on a leading axis and summed one at a time, in
    unit order, from 0.0: ``np.add.accumulate`` never takes numpy's
    pairwise sum, which ``np.add.reduce`` uses for a 1x1 table.  Entries
    no unit defines are NaN.
    """
    stacked = np.stack(units)
    defined = ~np.isnan(stacked)
    counts = defined.sum(axis=0)
    zero = np.zeros((1,) + stacked.shape[1:])
    sums = np.add.accumulate(np.concatenate([zero, np.where(defined, stacked, 0.0)]))[-1]
    mean = np.full(sums.shape, np.nan)
    return np.divide(sums, counts, out=mean, where=counts > 0), counts


def _kendall_block(rows: NDArray[np.float64]) -> NDArray[np.float64]:
    """Tau-b between every two columns of one (combo x measure) array; NaN where undefined.

    A column pair uses only the combos finite in both.  Over every combo
    pair, the sign of each column's difference (zero where either value is
    not finite) and its validity give the concordant-minus-discordant,
    tie and pair counts of every column pair as integer sums of products.
    Tau is undefined where a pair of columns has no untied combo pair in
    one of them: fewer than two common combos, or one column fully tied.
    """
    a, b = np.triu_indices(len(rows), k=1)
    finite = np.isfinite(rows)
    rows = np.where(finite, rows, 0.0)  # NaN comparisons warn on some numpy builds
    valid = (finite[a] & finite[b]).astype(np.int64)
    sign = ((rows[a] > rows[b]).astype(np.int64) - (rows[a] < rows[b])) * valid
    tied = valid - sign * sign
    pairs = valid.T @ valid
    ties = tied.T @ valid  # [i, j]: pairs tied in column i, of those valid in both
    denom = np.sqrt((pairs - ties).astype(np.float64) * (pairs - ties.T))
    tau = np.full(denom.shape, np.nan)
    return np.divide(sign.T @ sign, denom, out=tau, where=denom > 0)


def kendall_matrix(data: Collapsed, measures: Sequence[str] | None = None) -> MeasurePairs:
    """Average per-benchmark Kendall tau between every measure pair.

    Per benchmark, each measure induces a vector over the detector combos;
    tau is computed per measure pair on the combos where both values are
    finite (:func:`_kendall_block`) and averaged across benchmarks,
    skipping benchmarks where it is undefined.
    """
    names = data.table_measures(measures)
    block = data.block(names)
    taus = []
    for b, bench in enumerate(data.benchmarks):
        rows = block[b].T
        if len(rows) < 2:
            raise ValueError(
                f"benchmark {bench} has {len(rows)} combo(s); need at least 2"
            )
        taus.append(_kendall_block(rows))
    matrix, counts = _masked_mean(taus)
    return MeasurePairs(names, matrix, counts, n_tables=len(set(data.tables)))


def _selection_loss(sel: NDArray[np.float64], tgt: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row-wise relative loss of selecting combos by ``sel``, judging by ``tgt``.

    In each row the combo maximizing ``sel`` is chosen (ties: first in grid
    order) and the loss is (best_target - target_at_choice) / best_target,
    zero when the best target value is zero.  Combos missing either value
    (NaN) are excluded from both the argmax and the best.  Returns the loss
    per row, NaN where no combo is usable.
    """
    usable = ~(np.isnan(sel) | np.isnan(tgt))
    chosen = np.argmax(np.where(usable, sel, -np.inf), axis=1)
    best = np.where(usable, tgt, -np.inf).max(axis=1)
    used = np.take_along_axis(tgt, chosen[:, None], axis=1)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = np.where(best == 0.0, 0.0, (best - used) / best)
    return np.where(usable.any(axis=1), loss, np.nan)


def _pair_losses(sel: NDArray[np.float64], tgt: NDArray[np.float64]) -> NDArray[np.float64]:
    """:func:`_selection_loss` of every (selection i, target j) pair of two benchmarks.

    ``sel`` and ``tgt`` are the (measure x combo) means of the selection
    and the target benchmark; entry (i, j) selects by row i of ``sel`` and
    judges by row j of ``tgt``, NaN where no combo is usable.
    """
    k_sel, k_tgt = len(sel), len(tgt)
    loss = _selection_loss(np.repeat(sel, k_tgt, axis=0), np.tile(tgt, (k_sel, 1)))
    return loss.reshape(k_sel, k_tgt)


def loss_matrix_table(
    data: Collapsed,
    measures: Sequence[str] | None = None,
    select_on_validation: bool = False,
) -> MeasurePairs:
    """Full selection-vs-target loss matrix over all measure pairs.

    Entry (i, j) is the mean over benchmarks of the relative loss of
    selecting by measure i (its validation part's column with
    ``select_on_validation``, :data:`_PARTS`) and judging by measure j.  Raises for the
    first pair, in row-major order, that some benchmark cannot use, so
    every benchmark counts in every entry.
    """
    names = data.table_measures(measures)
    selections = [_PARTS["validation"][0] + n for n in names] if select_on_validation else names
    # Benchmarks last: np.mean sums each entry's losses as numpy sums a list of them.
    losses = np.dstack(list(map(_pair_losses, data.block(selections), data.block(names))))
    unusable = np.isnan(losses)
    empty = np.argwhere(unusable.any(axis=-1))
    if len(empty):
        i, j = empty[0]
        bench = data.benchmarks[int(np.argmax(unusable[i, j]))]
        raise ValueError(f"benchmark {bench} has no usable combo for {selections[i]}")
    counts = np.full(losses.shape[:2], len(data.benchmarks), dtype=np.int64)
    return MeasurePairs(
        names, np.mean(losses, axis=-1), counts, n_tables=len(set(data.tables))
    )


def multiclass_sensitivity(
    data: Collapsed, measures: Sequence[str] | None = None
) -> MeasurePairs:
    """Loss of selecting hyperparameters on the wrong anomaly class.

    For every table with at least two anomaly classes and every ordered
    class pair (a, b), a != b: pick the combo maximizing the selection
    measure on class a, then compute its relative loss in the target
    measure on class b against class b's own best.  Entries average over
    ordered pairs and tables; single-class tables are skipped and counted.
    """
    names = data.table_measures(measures)
    block = data.block(names)
    tables = np.array(data.tables)
    losses = []
    n_skipped = 0
    for table in sorted(set(data.tables)):
        classes = np.flatnonzero(tables == table)  # name order is class order
        n_skipped += len(classes) < 2
        losses += [_pair_losses(block[a], block[b]) for a in classes for b in classes if a != b]
    if not losses:
        raise ValueError("no table has two or more anomaly classes")
    matrix, counts = _masked_mean(losses)
    return MeasurePairs(
        names, matrix, counts,
        n_tables=len(set(data.tables)) - n_skipped, n_skipped_tables=n_skipped,
    )


# ---------------------------------------------------------------------------
# ROC variability across resplits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RocBand:
    """Pointwise mean +- std of TPR and TPR/FPR over seeded resplits."""

    fpr: NDArray[np.float64]
    tpr_mean: NDArray[np.float64]
    tpr_std: NDArray[np.float64]
    ratio_mean: NDArray[np.float64]
    ratio_std: NDArray[np.float64]
    n_splits_used: int
    n_skipped: int


def roc_band(
    cfg: GridConfig,
    bench: BenchmarkDataset,
    combo: Combo,
    n_splits: int,
    contamination: float = 0.0,
) -> RocBand:
    """Evaluate the ROC curve on repeated resplits and band its spread.

    Repetitions 0 to ``n_splits`` - 1 each give one test ROC: repetition r
    is the grid cell of ``combo`` at repetition r of a run with config
    ``cfg``, with the same split (:meth:`GridConfig.split_spec`) and the
    same fit (:func:`fit_models`).  All curves are interpolated onto
    the union of their vertex FPRs; the band reports mean and sample std
    of TPR and of the ratio TPR/FPR (0 at FPR = 0) per grid point.  Splits
    whose fit raises ``ValueError`` or whose test scores are not finite
    are skipped and counted.  Every split's test fold has the same labels,
    its test normals and then its test anomalies in counts that depend
    only on the split settings (:func:`split`), so the usable score rows
    form one matrix with one set of labels; if those labels hold one class
    only, every split is skipped.
    """
    if n_splits < 2:
        raise ValueError("need at least 2 splits for a band")
    rows = []
    for rep in range(n_splits):
        spec = cfg.split_spec(contamination, rep)
        fold = split(bench, spec)
        (model,) = fit_models(bench.table, spec, fold.train, [combo])
        try:
            if isinstance(model, Exception):
                raise model
            rows.append(score_row(model, fold.test, "scores must be finite"))
        except ValueError:
            pass  # a skipped split
    try:
        labels = check_labels(fold.test_labels)
    except ValueError:
        rows = []
    if len(rows) < 2:
        raise ValueError("fewer than 2 usable splits; cannot band")
    scores = np.vstack(rows)
    curves = roc_rows(labels, scores, descending_order(scores))
    grid = np.unique(curves.fpr)
    # One level at a time: the grid holds every vertex FPR, so one pass over
    # all of them would hold a (levels x vertices) mask.
    tprs = np.stack([tpr_at_rows(curves, [a])[0] for a in grid], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(grid[None, :] > 0, tprs / grid[None, :], 0.0)
    return RocBand(
        fpr=grid,
        tpr_mean=tprs.mean(axis=0),
        tpr_std=tprs.std(axis=0, ddof=1),
        ratio_mean=ratios.mean(axis=0),
        ratio_std=ratios.std(axis=0, ddof=1),
        n_splits_used=len(rows),
        n_skipped=n_splits - len(rows),
    )
