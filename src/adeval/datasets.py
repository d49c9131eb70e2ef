"""Prepared tables from multiclass tables, the benchmark cache and splits.

A raw table holds numeric features plus a categorical ``class`` column.
Its largest class plays the normal data; each remaining class yields one
benchmark whose anomalies are that class alone.  A :class:`PreparedTable`
holds the normal array and the anomaly classes, and its K - 1 benchmarks
are views of it that hold the one normal array.

The benchmark cache is a directory of prepared tables, one ``<table>.csv``
each in the raw-table format (:func:`write_raw_table`), read back by
:func:`load_tables`, so the cache stores a table's normal class once.

Splits are derived from (master seed, table name, repetition index) only:
every detector and hyperparameter setting sees exactly the same folds,
and all benchmarks of one table share the same normal fold.  Training
data is the normal training fold plus anomalies injected to a requested
contamination rate; everything else goes to the test fold.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Collection, Sequence

import numpy as np
from numpy.typing import NDArray

from adeval._text import data_rows
from adeval.seeding import derive_seed


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawTable:
    """Numeric feature matrix with one categorical class label per row."""

    name: str
    features: NDArray[np.float64]
    classes: tuple[str, ...]

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        classes = tuple(str(c) for c in self.classes)
        if not self.name:
            raise ValueError("table name must be nonempty")
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must form a nonempty (n, d) array")
        if not np.isfinite(features).all():
            raise ValueError(f"table {self.name!r} contains non-finite values")
        if len(classes) != features.shape[0]:
            raise ValueError("one class label per feature row required")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "classes", classes)


@dataclass(frozen=True)
class BenchmarkDataset:
    """Normal samples plus one anomaly class drawn from the same table."""

    table: str
    anomaly_class: str
    normal: NDArray[np.float64]
    anomaly: NDArray[np.float64]

    def __post_init__(self) -> None:
        normal = np.asarray(self.normal, dtype=np.float64)
        anomaly = np.asarray(self.anomaly, dtype=np.float64)
        if normal.ndim != 2 or normal.shape[0] < 1:
            raise ValueError("normal samples must form a nonempty (n, d) array")
        if anomaly.ndim != 2 or (
            anomaly.shape[0] > 0 and anomaly.shape[1] != normal.shape[1]
        ):
            raise ValueError("anomaly samples must match the normal dimension")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "anomaly", anomaly)

    @property
    def name(self) -> str:
        return f"{self.table}-{self.anomaly_class}"

    @property
    def dim(self) -> int:
        return int(self.normal.shape[1])


@dataclass(frozen=True)
class PreparedTable:
    """A table's normal class and its ``(class, points)`` anomaly classes, kept in class order.

    Each class makes one benchmark, and every benchmark holds the one
    ``normal`` array (:meth:`benchmarks`).  Two classes of one name raise
    ``ValueError``.
    """

    name: str
    normal: NDArray[np.float64]
    anomalies: tuple[tuple[str, NDArray[np.float64]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=np.float64))
        object.__setattr__(self, "anomalies", tuple(sorted(self.anomalies, key=lambda a: a[0])))
        names = [b.name for b in self.benchmarks()]  # each view checks its arrays
        for a, b in zip(names, names[1:]):
            if a == b:
                raise ValueError(f"two classes of table {self.name!r} make benchmark {a!r}; "
                                 "rename one")

    def benchmarks(self) -> list[BenchmarkDataset]:
        """One benchmark per anomaly class, in class order, each holding ``normal`` itself."""
        return [BenchmarkDataset(table=self.name, anomaly_class=c, normal=self.normal,
                                 anomaly=points) for c, points in self.anomalies]

    def narrowed(self, classes: Collection[str]) -> PreparedTable:
        """This table with only the anomaly classes listed in ``classes``."""
        return replace(self, anomalies=tuple(pair for pair in self.anomalies if pair[0] in classes))


def prepare_table(table: RawTable) -> PreparedTable:
    """Turn a K-class table into a prepared table of K - 1 one-vs-rest-style benchmarks.

    The largest class becomes the normal data (ties broken by class-name
    order); each remaining class becomes the anomaly set of one benchmark
    named ``<table>-<anomaly class>``, both parts with every character
    outside ``A-Za-z0-9._-`` replaced by ``_``.

    Raises ``ValueError`` for a table of one class, and for two anomaly
    classes that make one name.
    """
    names, counts = np.unique(np.array(table.classes), return_counts=True)
    if len(names) < 2:
        raise ValueError(f"table {table.name!r} needs at least two classes")
    order = sorted(range(len(names)), key=lambda i: (-counts[i], names[i]))
    labels = np.array(table.classes)
    return PreparedTable(
        name=_safe_name(table.name),
        normal=table.features[labels == names[order[0]]],
        anomalies=tuple((_safe_name(str(names[i])), table.features[labels == names[i]])
                        for i in order[1:]),
    )


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", text)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """How to carve one benchmark into train and test folds.

    ``contamination`` is the anomaly rate of the *training* fold; the
    anomaly count is round(c * n / (1 - c)) for n training normals, which
    lands within half a sample of the requested rate.
    """

    train_fraction: float = 0.8
    contamination: float = 0.0
    seed: int = 0
    repetition: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 0.0 <= self.contamination < 1.0:
            raise ValueError("contamination must lie in [0, 1)")
        if self.repetition < 0:
            raise ValueError("repetition must be nonnegative")


@dataclass(frozen=True)
class TrainTestSplit:
    """One realized fold pair.

    ``test_ids`` entries are ``n<i>`` / ``a<j>`` with the sample's row
    index inside the benchmark's normal / anomaly block; ``adeval scores``
    writes them so its scores can be joined back onto the fold.
    """

    train: NDArray[np.float64]
    test: NDArray[np.float64]
    test_labels: NDArray[np.int64]
    test_ids: tuple[str, ...]


def train_counts(spec: SplitSpec, n_normal: int) -> tuple[int, int]:
    """Training normals and injected anomalies of :func:`split`'s fold of ``n_normal`` normals.

    Both depend on the normal count alone, so the benchmarks of one table,
    which share their normals, take the same counts.
    """
    n_train = int(round(spec.train_fraction * n_normal))
    c = spec.contamination
    return n_train, int(round(c * n_train / (1.0 - c)))


def split(bench: BenchmarkDataset, spec: SplitSpec) -> TrainTestSplit:
    """Carve a benchmark into a contaminated train fold and a test fold.

    The normal permutation depends on (seed, table, repetition) only, so
    folds are identical across detectors, hyperparameters, contamination
    levels and the table's other benchmarks.  Injected anomalies are a
    prefix of a per-(table, anomaly class, repetition) permutation, so
    raising the contamination only adds samples.

    Raises
    ------
    ValueError
        If the benchmark has too few anomalies for the requested rate.
    """
    n_normal = bench.normal.shape[0]
    n_anomaly = bench.anomaly.shape[0]

    rng_normal = np.random.default_rng(
        derive_seed(spec.seed, "split-normals", bench.table, spec.repetition)
    )
    perm_normal = rng_normal.permutation(n_normal)
    n_train, n_inject = train_counts(spec, n_normal)
    if n_train < 1 or n_train >= n_normal:
        raise ValueError("train fraction leaves an empty fold")
    train_normal_idx = perm_normal[:n_train]
    test_normal_idx = perm_normal[n_train:]

    rng_anomaly = np.random.default_rng(
        derive_seed(
            spec.seed, "split-anomalies", bench.table, bench.anomaly_class, spec.repetition
        )
    )
    perm_anomaly = rng_anomaly.permutation(n_anomaly)
    if n_inject > n_anomaly:
        raise ValueError(
            f"benchmark {bench.name!r} has {n_anomaly} anomalies, "
            f"but contamination {spec.contamination} needs {n_inject}"
        )
    inject_idx = perm_anomaly[:n_inject]
    test_anomaly_idx = perm_anomaly[n_inject:]

    train = bench.normal[train_normal_idx]
    if n_inject:
        train = np.vstack([train, bench.anomaly[inject_idx]])
    test = (
        np.vstack([bench.normal[test_normal_idx], bench.anomaly[test_anomaly_idx]])
        if len(test_anomaly_idx)
        else bench.normal[test_normal_idx]
    )
    labels = np.r_[
        np.zeros(len(test_normal_idx), dtype=np.int64),
        np.ones(len(test_anomaly_idx), dtype=np.int64),
    ]
    ids = tuple(
        [f"n{i}" for i in test_normal_idx.tolist()]
        + [f"a{i}" for i in test_anomaly_idx.tolist()]
    )
    return TrainTestSplit(train=train, test=test, test_labels=labels, test_ids=ids)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def synth_gaussian(
    n_normal: int,
    n_anomaly: int,
    dim: int = 2,
    shift: float = 3.0,
    seed: int = 0,
    table: str = "synth",
    anomaly_class: str = "shifted",
) -> PreparedTable:
    """Unit-variance Gaussian table of one anomaly class, shifted along axis 0.

    ``n_anomaly`` = 0 is allowed; the result then only supports flows that
    never need labeled anomalies.
    """
    if n_normal < 1 or n_anomaly < 0 or dim < 1:
        raise ValueError("need n_normal >= 1, n_anomaly >= 0, dim >= 1")
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=(n_normal, dim))
    anomaly = rng.normal(size=(n_anomaly, dim))
    anomaly[:, 0] += shift
    return PreparedTable(name=table, normal=normal, anomalies=((anomaly_class, anomaly),))


def synth_multiclass_table(
    name: str,
    sizes: list[int] | tuple[int, ...],
    dim: int = 2,
    shift: float = 3.0,
    seed: int = 0,
) -> RawTable:
    """Gaussian multiclass table; class j sits shifted along axis (j-1) % dim.

    Class 0 (at the origin) should be given the largest size so it plays
    the normal data.  Classes are named ``c0``, ``c1``, ...
    """
    if len(sizes) < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    blocks = []
    labels: list[str] = []
    for j, size in enumerate(sizes):
        if size < 1:
            raise ValueError("class sizes must be positive")
        block = rng.normal(size=(size, dim))
        if j > 0:
            axis = (j - 1) % dim
            block[:, axis] += shift * (1 + (j - 1) // dim)
        blocks.append(block)
        labels.extend([f"c{j}"] * size)
    return RawTable(name=name, features=np.vstack(blocks), classes=tuple(labels))


def minmax_scaled_table(table: RawTable) -> RawTable:
    """Scale each feature to [0, 1] over the whole table.

    Useful before volume comparisons when features live on wildly
    different scales; constant features map to 0.
    """
    lo = table.features.min(axis=0)
    hi = table.features.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return RawTable(
        name=table.name,
        features=(table.features - lo) / span,
        classes=table.classes,
    )


# ---------------------------------------------------------------------------
# Plain-text tables and the benchmark cache
# ---------------------------------------------------------------------------


def write_raw_table(table: RawTable, path: str | Path) -> None:
    """Write a table as delimited text: feature columns, then ``class``."""
    dim = table.features.shape[1]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(dim)] + ["class"])
        for row, cls in zip(table.features, table.classes):
            writer.writerow([repr(v) for v in row.tolist()] + [cls])


def read_raw_table(path: str | Path) -> RawTable:
    """Read a delimited table whose final column is ``class``, named after its file stem.

    Raises
    ------
    ValueError
        On a missing/misplaced class column or any malformed row; messages
        carry the offending line number.
    """
    path = Path(path)
    rows: list[list[float]] = []
    classes: list[str] = []
    with open(path, newline="") as handle:
        data = data_rows(handle)
        first = next(data, None)
        header = None if first is None else first[1]
        if header is None or len(header) < 2 or header[-1].strip() != "class":
            raise ValueError(f"{path}: expected a header ending in a class column")
        width = len(header) - 1
        for lineno, row in data:
            if len(row) != width + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width + 1} fields, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[:-1]])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            label = row[-1].strip()
            if not label:
                raise ValueError(f"{path}: line {lineno}: empty class field")
            classes.append(label)
    if not rows:
        raise ValueError(f"{path}: table has no data rows")
    return RawTable(name=path.stem, features=np.array(rows), classes=tuple(classes))


def load_tables(root: str | Path, only: Sequence[str] | None = None) -> list[PreparedTable]:
    """The prepared tables ``<table>.csv`` under ``root``, sorted by name.

    Each file is a table as :func:`write_raw_table` writes it, prepared by
    :func:`prepare_table`.  With ``only``, keep the benchmarks whose table
    or full name it lists: a table keeps only those classes, a table left
    with none is dropped, and only the files that can hold one are read.
    A file whose stem is not its table's file-safe name is refused.
    """
    tables = []
    for path in table_files(root):
        if only and not any(n == path.stem or n.startswith(f"{path.stem}-") for n in only):
            continue
        table = prepare_table(read_raw_table(path))
        if table.name != path.stem:  # two such files could make one table
            raise ValueError(f"{path}: not a prepared table (its name is not file-safe)")
        if only and table.name not in only:
            table = table.narrowed([b.anomaly_class for b in table.benchmarks() if b.name in only])
        if table.anomalies:
            tables.append(table)
    return tables


def table_files(root: str | Path) -> list[Path]:
    """The table files ``*.csv`` under ``root``, sorted by stem; none if ``root`` is missing."""
    return sorted((p for p in Path(root).glob("*.csv") if p.is_file()), key=lambda p: p.stem)
