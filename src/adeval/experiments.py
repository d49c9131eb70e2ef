"""Benchmark grid runner, persistent record store and result analytics.

A *cell* is one (benchmark, contamination, detector combo, repetition)
tuple.  Running the grid fits the combo on the training fold, scores the
test fold and evaluates every configured measure; the cells of one
(benchmark, contamination, repetition) block share their split, their
volume sample, their kNN neighbour tables, their LOF training distances
and their isolation forest, and the cells scored together are evaluated
together.
Records land in a resumable delimited-text store, one file per
(benchmark, detector).
Analytics first collapse one contamination level of the store into a
single (benchmark x combo x measure) array of repetition means; every
table is a reduction over that array, comparing detectors (mean ranks),
measures (Kendall correlation), and selection strategies (relative loss
matrices, within and across anomaly classes).

All measures are oriented so that larger is better; CVOL is already the
complement of the decision-region volume.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.stats import rankdata

from adeval.curves import (
    LabeledScores, auc, auc_at, auc_weighted, build_roc, threshold_at_fpr, tpr_at,
)
from adeval.datasets import BenchmarkDataset, SplitSpec, _safe_name, split
from adeval.detectors import (
    KNN_VARIANTS, forest_scores, iforest_fit, knn_fit, lof_fitter, neighbour_scores,
)
from adeval.seeding import derive_seed
from adeval.thresholded import PrecisionAtPConfig, confusion_at, f1_score, precision_at_p_rows
from adeval.volume import (
    SamplingBox, bounding_box, checked_scores, uniform_sample, volume_below,
)


# ---------------------------------------------------------------------------
# Measure identifiers
# ---------------------------------------------------------------------------

_LEVELED_KINDS = {
    "auc_at": "AUC",
    "precision_at": "precision",
    "tpr_at": "TPR",
    "f1_at": "F1",
    "cvol_at": "CVOL",
}
_PLAIN_KINDS = {"auc": "AUC", "auc_w": "AUC_w"}
_PREFIX_TO_KIND = {v: k for k, v in _LEVELED_KINDS.items()}


@dataclass(frozen=True)
class MeasureId:
    """One evaluation measure, e.g. AUC, or TPR at a false-positive level.

    ``level`` is the FPR budget alpha for the curve-based measures and
    the contamination p for ``precision_at``; plain AUC and the weighted
    AUC take no level.
    """

    kind: str
    level: float | None = None

    def __post_init__(self) -> None:
        if self.kind in _PLAIN_KINDS:
            if self.level is not None:
                raise ValueError(f"measure {self.kind!r} takes no level")
        elif self.kind in _LEVELED_KINDS:
            if self.level is None or not 0.0 < self.level <= 1.0:
                raise ValueError(f"measure {self.kind!r} needs a level in (0, 1]")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind in _PLAIN_KINDS:
            return _PLAIN_KINDS[self.kind]
        return f"{_LEVELED_KINDS[self.kind]}@{self.level:g}"

    @classmethod
    def parse(cls, text: str) -> "MeasureId":
        text = text.strip()
        for kind, label in _PLAIN_KINDS.items():
            if text == label:
                return cls(kind=kind)
        if "@" in text:
            prefix, _, level = text.partition("@")
            if prefix in _PREFIX_TO_KIND:
                return cls(kind=_PREFIX_TO_KIND[prefix], level=float(level))
        raise ValueError(f"cannot parse measure name {text!r}")


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
    """Everything a grid run needs besides the benchmarks themselves."""

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
        if not self.alphas or not self.ps:
            raise ValueError("need at least one alpha and one p level")
        for alpha in self.alphas:
            if not 0.0 < alpha <= 1.0:
                raise ValueError(f"alphas must lie in (0, 1], got {alpha!r}")
        # precision@p keeps a p-fraction of anomalies, so p = 1 leaves no normals.
        for p in self.ps:
            if not 0.0 < p < 1.0:
                raise ValueError(f"ps must lie in (0, 1), got {p!r}")
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
        out: list[MeasureId] = [MeasureId("auc"), MeasureId("auc_w")]
        for level in sorted(set(self.alphas) | set(self.ps), reverse=True):
            if level in self.alphas:
                out.append(MeasureId("auc_at", level))
            if level in self.ps:
                out.append(MeasureId("precision_at", level))
            if level in self.alphas:
                out.append(MeasureId("tpr_at", level))
                out.append(MeasureId("f1_at", level))
                out.append(MeasureId("cvol_at", level))
        return tuple(out)

    def measure_names(self) -> tuple[str, ...]:
        names = [m.name for m in self.measures()]
        if self.validation_fraction > 0:
            names += [f"val:{n}" for n in names]
        return tuple(names)


def _fit_seed(bench: BenchmarkDataset, combo: Combo, spec: SplitSpec) -> int:
    """Seed of a combo's fit on its cell's training fold.

    A forest's seed leaves out ``n_trees``, so the forests of one subsample
    in a block are prefixes of one forest (:func:`iforest_fit`).
    """
    params = tuple(p for p in combo.params if combo.detector != "iforest" or p[0] != "n_trees")
    return derive_seed(spec.seed, "fit", bench.name, combo.detector, params, spec.repetition)


_CELL_ERRORS = (ValueError, FloatingPointError)


def fit_models(
    bench: BenchmarkDataset, spec: SplitSpec, train: np.ndarray, combos: Sequence[Combo]
) -> list[object]:
    """The model of each combo fitted on ``train``, the training fold of ``spec``.

    This is the one rule that maps a combo to its fit, used by grid cells,
    the ``volume`` / ``scores`` one-offs and :func:`roc_band`.  kNN combos
    fit with :func:`knn_fit` and LOF combos from one :func:`lof_fitter` of
    ``train``.  The forest combos of a subsample take their prefix of one
    :func:`iforest_fit` at their largest ``n_trees``, which equals a forest
    fitted with their own ``n_trees`` bit for bit.  Seeds come from
    :func:`_fit_seed`.  An entry is the ``ValueError`` or
    ``FloatingPointError`` its fit raised instead of a model; a failed
    forest fit is the entry of every combo of its subsample.
    """
    lof = lof_fitter(train)
    forests: dict[object, object] = {}

    def forest(subsample) -> object:
        if subsample not in forests:
            group = [c for c in combos
                     if c.detector == "iforest" and c.param("subsample") == subsample]
            largest = max(group, key=lambda c: c.param("n_trees"))
            try:
                forests[subsample] = iforest_fit(
                    train, n_trees=int(largest.param("n_trees")), subsample=int(subsample),
                    seed=_fit_seed(bench, largest, spec),
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


def volume_box_and_seed(
    bench: BenchmarkDataset, master_seed: int, repetition: int
) -> tuple[SamplingBox, int]:
    """Sampling box and seed of a cell's uniform volume sample.

    The box bounds all of ``bench``'s points and the seed derives from the
    master seed, the benchmark and the repetition, so grid cells and the
    ``volume`` one-off draw the same sample.
    """
    return (
        bounding_box(bench.all_points()),
        derive_seed(master_seed, "volume", bench.name, repetition),
    )


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


@dataclass(frozen=True)
class ExperimentRecord:
    """Measure values of one grid cell; ``None`` marks a missing value."""

    grid_index: int
    table: str
    anomaly_class: str
    detector: str
    params: str
    contamination: float
    repetition: int
    values: dict[str, float | None]
    flags: tuple[str, ...] = ()

    @property
    def benchmark(self) -> str:
        return f"{self.table}-{self.anomaly_class}"

    @property
    def combo_key(self) -> tuple:
        return (self.table, self.anomaly_class, self.contamination, self.grid_index)

    @property
    def cell_key(self) -> tuple:
        return self.combo_key + (self.repetition,)

    @property
    def is_flagged_missing(self) -> bool:
        return any(v is None for v in self.values.values())


class RecordStore:
    """Resumable record store: one delimited file per (benchmark, detector).

    Files carry the run-manifest hash in a leading comment line, then a
    header row, then one row per cell.  Appending never rewrites existing
    rows, so a finished store is byte-stable under reruns.  A last line
    without its line terminator is a torn tail, left by a write that was
    cut short: :meth:`load` reads past it, so its cell counts as missing,
    and :meth:`append` cuts it off before writing.
    """

    def __init__(self, root: str | Path, manifest_hash: str = "unmanaged"):
        self.root = Path(root)
        self.manifest_hash = manifest_hash
        self.root.mkdir(parents=True, exist_ok=True)

    def _file_for(self, record: ExperimentRecord) -> Path:
        stem = _safe_name(f"{record.table}-{record.anomaly_class}__{record.detector}")
        return self.root / f"{stem}.csv"

    def existing_keys(self) -> set[tuple]:
        return {r.cell_key for r in self.load()}

    def append(self, record: ExperimentRecord, measure_names: Sequence[str]) -> None:
        path = self._file_for(record)
        fresh = _drop_torn_tail(path)
        with open(path, "a", newline="") as handle:
            writer = csv.writer(handle)
            if fresh:
                handle.write(f"# manifest: {self.manifest_hash}\n")
                writer.writerow(list(_ID_COLUMNS) + list(measure_names))
            row = [
                record.grid_index,
                record.table,
                record.anomaly_class,
                record.detector,
                record.params,
                repr(record.contamination),
                record.repetition,
                ";".join(record.flags),
            ]
            for name in measure_names:
                value = record.values.get(name)
                row.append(_MISSING if value is None else repr(value))
            writer.writerow(row)

    def load(self) -> list[ExperimentRecord]:
        """Every record in the store, sorted by cell.

        A row whose width differs from its header, or with a value that is
        neither ``NA`` nor a float, raises ``ValueError`` naming its file
        and line rather than loading as a finished cell.  A torn tail is
        skipped.
        """
        records: list[ExperimentRecord] = []
        for path in sorted(self.root.glob("*.csv")):
            with open(path, newline="") as handle:
                text = handle.read()
                reader = csv.reader(io.StringIO(text[: text.rfind("\n") + 1], newline=""))
                header = None
                for row in reader:
                    if not row or row[0].startswith("#"):
                        continue
                    if header is None:
                        header = row
                        if tuple(header[: len(_ID_COLUMNS)]) != _ID_COLUMNS:
                            raise ValueError(f"{path}: unrecognized record header")
                        continue
                    try:
                        records.append(_parse_row(header, row))
                    except ValueError as exc:
                        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        records.sort(key=lambda r: r.cell_key)
        return records


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


def _parse_row(header: list[str], row: list[str]) -> ExperimentRecord:
    if len(row) != len(header):
        raise ValueError(f"{len(row)} fields where the header has {len(header)}")
    base = dict(zip(_ID_COLUMNS, row))
    values = {
        name: (None if raw == _MISSING else float(raw))
        for name, raw in zip(header[len(_ID_COLUMNS) :], row[len(_ID_COLUMNS) :])
    }
    return ExperimentRecord(
        grid_index=int(base["grid_index"]),
        table=base["table"],
        anomaly_class=base["anomaly_class"],
        detector=base["detector"],
        params=base["params"],
        contamination=float(base["contamination"]),
        repetition=int(base["repetition"]),
        values=values,
        flags=tuple(t for t in base["flags"].split(";") if t),
    )


# ---------------------------------------------------------------------------
# Running the grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSummary:
    n_cells: int
    n_new: int
    n_flagged: int


def _curve_measures(
    data: LabeledScores,
    volume_scores: NDArray[np.float64],
    measures: Sequence[MeasureId],
    alphas: Sequence[float],
) -> dict[str, float]:
    """Every measure in ``measures`` but precision@p of one cell's labelled sample.

    They all come from one ROC curve: F1@alpha and CVOL@alpha share the
    threshold read off it at FPR = alpha; CVOL thresholds the cell's scored
    volume sample.
    """
    values: dict[str, float] = {}
    curve = build_roc(data)
    tau = {alpha: threshold_at_fpr(curve, alpha) for alpha in alphas}
    for measure in measures:
        if measure.kind == "auc":
            values[measure.name] = auc(curve)
        elif measure.kind == "auc_w":
            values[measure.name] = auc_weighted(curve)
        elif measure.kind == "auc_at":
            values[measure.name] = auc_at(curve, measure.level, normalized=True)
        elif measure.kind == "tpr_at":
            values[measure.name] = tpr_at(curve, measure.level)
        elif measure.kind == "f1_at":
            values[measure.name] = f1_score(confusion_at(data, tau[measure.level]))
        elif measure.kind == "cvol_at":
            values[measure.name] = volume_below(volume_scores, tau[measure.level]).cvol
    return values


def _error_flag(exc: Exception) -> str:
    return f"error:{type(exc).__name__}"


def _evaluate_cells(
    labels: NDArray[np.int64],
    samples: Sequence[tuple[str, NDArray[np.intp]]],
    test_scores: NDArray[np.float64],
    volume_scores: NDArray[np.float64],
    measures: Sequence[MeasureId],
    cfg: GridConfig,
    prec_seed: int,
) -> list[tuple[dict[str, float], list[str]]]:
    """Values and flags of the cells of one scored group, one cell per score row.

    Row i of ``test_scores`` and of ``volume_scores`` holds one cell's
    scores of the test fold (labelled ``labels``) and of the volume sample.
    Each cell's volume scores are checked (:func:`checked_scores`).  Then
    each labelled sample, given as (column name prefix, test fold indices),
    has its labels checked once; each cell still standing gets its curve
    measures (:func:`_curve_measures`), and precision@p takes all of them
    at once (:func:`precision_at_p_rows`).  A failure flags
    ``error:<exception type>`` and leaves missing the values not yet
    evaluated: bad labels fail every cell still standing, a bad score row
    only its own cell.  Each cell keeps the flags of the first sample.
    """
    values: list[dict[str, float]] = [{} for _ in test_scores]
    flags: list[list[str]] = [[] for _ in test_scores]

    def fail(rows: Iterable[int], exc: Exception) -> None:
        for i in rows:
            flags[i].append(_error_flag(exc))

    live = []
    for i, row in enumerate(volume_scores):
        try:
            checked_scores(row, volume_scores.shape[1])
            live.append(i)
        except _CELL_ERRORS as exc:
            fail([i], exc)
    precisions = [m for m in measures if m.kind == "precision_at"]
    for prefix, idx in samples:
        try:
            # Placeholder scores: the sample's labels are checked here, once.
            sample = LabeledScores(labels=labels[idx], scores=np.zeros(len(idx)))
        except _CELL_ERRORS as exc:
            fail(live, exc)
            break
        evaluated: dict[int, dict[str, float]] = {}
        for i in live:
            try:
                evaluated[i] = _curve_measures(
                    sample.rescored(test_scores[i, idx]), volume_scores[i], measures, cfg.alphas
                )
            except _CELL_ERRORS as exc:
                fail([i], exc)
        live = list(evaluated)
        try:
            for measure in precisions:
                prec_cfg = PrecisionAtPConfig(
                    p=measure.level, rounds=cfg.precision_rounds, seed=prec_seed
                )
                precision = precision_at_p_rows(
                    sample.labels, test_scores[np.ix_(live, idx)], prec_cfg
                )
                for i, value in zip(live, precision):
                    evaluated[i][measure.name] = float(value)
        except _CELL_ERRORS as exc:
            fail(live, exc)
            break
        contamination = sample.n_pos / len(sample)
        sample_flags = [
            f"thinned-normals@{m.level:g}" for m in precisions if contamination < m.level
        ]
        for i, sample_values in evaluated.items():
            values[i].update((prefix + name, v) for name, v in sample_values.items())
            if not prefix:
                flags[i] = list(sample_flags)
    return list(zip(values, flags))


def run_cell(
    cfg: GridConfig,
    bench: BenchmarkDataset,
    combo: Combo,
    contamination: float,
    repetition: int,
) -> ExperimentRecord:
    """Evaluate one grid cell; failures come back as flagged-missing.

    The cell is evaluated as a block of one combo by :func:`_run_repetition`,
    the grid's own path, so it equals the grid's record of that cell.
    """
    return _run_repetition(cfg, bench, contamination, repetition, [combo])[0]


def _run_repetition(
    cfg: GridConfig,
    bench: BenchmarkDataset,
    contamination: float,
    repetition: int,
    combos: Sequence[Combo],
) -> list[ExperimentRecord]:
    """Evaluate the cells of ``combos`` in one (benchmark, contamination, repetition) block.

    The block is split once, its uniform volume sample
    (:func:`volume_box_and_seed`) drawn once, and its combos fitted by
    :func:`fit_models`.  The fitted models are scored in groups, one per
    scorer: every kNN and LOF model in one group that shares one distance
    matrix per query chunk (:func:`neighbour_scores`), and the forest
    prefixes of each subsample in one group that one walk over the trees
    scores (:func:`forest_scores`).  Each group scores the test fold and
    the volume sample, and evaluates its cells together from the (combo x
    point) score matrices (:func:`_evaluate_cells`): with validation, the
    evaluation part of the test fold, then its ``val:`` part.  A failure
    leaves missing every value of the cells it reaches that is not yet
    evaluated and flags them ``error:<exception type>``: a failed split or
    volume draw reaches every cell of the block, a failed scoring pass
    every cell of its group, a failed forest fit every cell of its
    subsample, a sample with one class only every cell of its group still
    standing, and any other failed fit or a non-finite score only its own
    cell.
    """
    names = cfg.measure_names()
    measures = cfg.measures()

    def record(combo: Combo, values: dict[str, float], flags: list[str]):
        return ExperimentRecord(
            grid_index=combo.index,
            table=bench.table,
            anomaly_class=bench.anomaly_class,
            detector=combo.detector,
            params=combo.params_text,
            contamination=contamination,
            repetition=repetition,
            values={n: values.get(n) for n in names},
            flags=tuple(flags),
        )

    spec = SplitSpec(train_fraction=cfg.train_fraction, contamination=contamination,
                     seed=cfg.master_seed, repetition=repetition)
    try:
        fold = split(bench, spec)
        box, volume_seed = volume_box_and_seed(bench, cfg.master_seed, repetition)
        volume_points = uniform_sample(box, cfg.volume_samples, volume_seed)
    except _CELL_ERRORS as exc:
        return [record(combo, {}, [_error_flag(exc)]) for combo in combos]
    prec_seed = derive_seed(cfg.master_seed, "precision", bench.name, repetition)
    samples = [("", np.arange(len(fold.test_labels)))]
    if cfg.validation_fraction > 0:
        rng = np.random.default_rng(
            derive_seed(cfg.master_seed, "valsplit", bench.name, repetition)
        )
        perm = rng.permutation(len(fold.test_labels))
        n_val = int(round(cfg.validation_fraction * len(fold.test_labels)))
        samples = [("", perm[n_val:]), ("val:", perm[:n_val])]

    records: dict[int, ExperimentRecord] = {}
    groups: dict[tuple, list[tuple[Combo, object]]] = {}
    for combo, model in zip(combos, fit_models(bench, spec, fold.train, combos)):
        if isinstance(model, Exception):
            records[combo.index] = record(combo, {}, [_error_flag(model)])
        else:
            key = ((forest_scores, combo.param("subsample")) if combo.detector == "iforest"
                   else (neighbour_scores, None))
            groups.setdefault(key, []).append((combo, model))
    for (score, _), group in groups.items():
        fitted, models = zip(*group)
        try:
            test_scores, volume_scores = score(models, fold.test), score(models, volume_points)
        except _CELL_ERRORS as exc:
            records.update((c.index, record(c, {}, [_error_flag(exc)])) for c in fitted)
            continue
        cells = _evaluate_cells(
            fold.test_labels, samples, test_scores, volume_scores, measures, cfg, prec_seed
        )
        for combo, (values, flags) in zip(fitted, cells):
            records[combo.index] = record(combo, values, flags)
    return [records[combo.index] for combo in combos]


def _run_block(args) -> list[ExperimentRecord]:
    """Worker entry: evaluate the pending cells of one (benchmark, contamination) block.

    The pending cells are grouped by repetition, each group evaluated by
    one :func:`_run_repetition`; records come back in pending order.
    """
    cfg, bench, contamination, pending = args
    combos = cfg.detector_combos()
    records = {}
    for repetition in sorted({rep for _, rep in pending}):
        group = [combos[i] for i, rep in pending if rep == repetition]
        for record in _run_repetition(cfg, bench, contamination, repetition, group):
            records[record.grid_index, repetition] = record
    return [records[cell] for cell in pending]


def run_grid(
    cfg: GridConfig,
    benchmarks: Sequence[BenchmarkDataset],
    store: RecordStore,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> RunSummary:
    """Run every missing cell of the grid and append it to the store.

    Cells already present in the store are skipped, so an interrupted run
    resumes where it stopped and a completed run is a no-op.  A failing
    cell is recorded as flagged-missing; the grid itself never aborts.

    Cells are blocked by (benchmark, contamination) and blocks may be
    evaluated by ``workers`` processes.  Within a block, the pending cells
    of each repetition share one split, one volume sample, one kNN
    neighbour table per query chunk and one forest per subsample
    (:func:`_run_repetition`).  Seeds derive from cell identity, never
    from scheduling or grouping, and records are appended in grid order,
    so the store content depends neither on the worker count nor on which
    cells a resume still has to run.
    """
    if not benchmarks:
        raise ValueError("no benchmarks to run on")
    combos = cfg.detector_combos()
    names = cfg.measure_names()
    done = store.existing_keys()
    ordered = sorted(benchmarks, key=lambda b: (b.table, b.anomaly_class))

    blocks = []
    n_cells = 0
    for bench in ordered:
        for contamination in cfg.contaminations:
            pending = []
            for combo in combos:
                for repetition in range(cfg.repetitions):
                    n_cells += 1
                    key = (
                        bench.table,
                        bench.anomaly_class,
                        contamination,
                        combo.index,
                        repetition,
                    )
                    if key not in done:
                        pending.append((combo.index, repetition))
            if pending:
                blocks.append((cfg, bench, contamination, pending))

    n_new = n_flagged = 0

    def consume(block, records):
        nonlocal n_new, n_flagged
        _, bench, contamination, _ = block
        if progress:
            progress(f"{bench.name} c={contamination:g}: {len(records)} cells")
        for record in records:
            store.append(record, names)
            n_new += 1
            if record.is_flagged_missing:
                n_flagged += 1

    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block, records in zip(blocks, pool.map(_run_block, blocks)):
                consume(block, records)
    else:
        for block in blocks:
            consume(block, _run_block(block))
    return RunSummary(n_cells=n_cells, n_new=n_new, n_flagged=n_flagged)


# ---------------------------------------------------------------------------
# Collapsing repetitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Collapsed:
    """Repetition means of one contamination level as one dense array.

    ``values[b, c, m]`` is the mean over repetitions of measure ``m`` for
    combo ``c`` on benchmark ``b``: NaN where the value is missing in every
    repetition or the combo has no record there (``present[b, c]`` False).
    Benchmarks are ordered by name and combos by grid index; ``measures``
    includes the ``val:`` columns.
    """

    benchmarks: tuple[str, ...]
    tables: tuple[str, ...]  # table of each benchmark
    detectors: tuple[str, ...]  # detector of each combo
    measures: tuple[str, ...]
    values: NDArray[np.float64]  # (benchmark, combo, measure)
    present: NDArray[np.bool_]  # (benchmark, combo)

    def column(self, measure: MeasureId | str) -> NDArray[np.float64]:
        """The (benchmark, combo) means of one measure, all NaN if never recorded."""
        name = _measure_name(measure)
        if name not in self.measures:
            return np.full(self.present.shape, np.nan)
        return self.values[:, :, self.measures.index(name)]

    def table_measures(self, measures: Sequence[str] | None) -> tuple[str, ...]:
        """``measures`` if given, else every recorded measure but the ``val:`` ones."""
        if measures:
            return tuple(measures)
        return tuple(n for n in self.measures if not n.startswith("val:"))


def collapse(records: Iterable[ExperimentRecord]) -> Collapsed:
    """Average measure values over repetitions into one :class:`Collapsed`.

    A value missing in some repetitions averages over the present ones; a
    value missing everywhere stays missing.  The records must share one
    contamination level.
    """
    records = sorted(records, key=lambda r: r.combo_key)
    levels = sorted({r.contamination for r in records})
    if len(levels) != 1:
        raise ValueError(
            f"records mix contamination levels {levels}; filter to one first"
        )
    table_of = {r.benchmark: r.table for r in records}
    detector_of = {r.grid_index: r.detector for r in records}
    benchmarks, grid = sorted(table_of), sorted(detector_of)
    measures = tuple(dict.fromkeys(name for r in records for name in r.values))
    row = {bench: i for i, bench in enumerate(benchmarks)}
    col = {g: j for j, g in enumerate(grid)}
    values = np.full((len(benchmarks), len(grid), len(measures)), np.nan)
    present = np.zeros(values.shape[:2], dtype=bool)
    for _, group in groupby(records, key=lambda r: r.combo_key):
        group = list(group)
        i, j = row[group[0].benchmark], col[group[0].grid_index]
        present[i, j] = True
        for m, name in enumerate(measures):
            reps = [r.values[name] for r in group if r.values.get(name) is not None]
            if reps:
                values[i, j, m] = np.mean(reps)
    return Collapsed(
        benchmarks=tuple(benchmarks),
        tables=tuple(table_of[b] for b in benchmarks),
        detectors=tuple(detector_of[g] for g in grid),
        measures=measures,
        values=values,
        present=present,
    )


def _measure_name(measure: MeasureId | str) -> str:
    return measure.name if isinstance(measure, MeasureId) else str(measure)


# ---------------------------------------------------------------------------
# Mean ranks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankTable:
    """Mean +- std of detector ranks across benchmarks for one measure."""

    measure: str
    detectors: tuple[str, ...]
    mean: NDArray[np.float64]
    std: NDArray[np.float64]
    n_datasets: int


def mean_rank_table(data: Collapsed, measure: MeasureId | str) -> RankTable:
    """Rank detectors per benchmark (best hyperparameters, rank 1 = best).

    Each detector is represented by its best hyperparameter setting under
    the measure; ties get fractional ranks.  Requires every detector to
    have a value on every benchmark.
    """
    column = data.column(measure)
    detectors = tuple(sorted(set(data.detectors)))
    owner = np.array(data.detectors)
    best = np.stack(
        [np.fmax.reduce(column[:, owner == d], axis=1) for d in detectors], axis=1
    )
    missing = np.argwhere(np.isnan(best))
    if len(missing):
        shown = ", ".join(f"{data.benchmarks[b]}/{detectors[d]}" for b, d in missing[:10])
        raise ValueError(f"missing detector results for: {shown}")
    ranks = rankdata(-best, method="average", axis=1)
    return RankTable(
        measure=_measure_name(measure),
        detectors=detectors,
        mean=ranks.mean(axis=0),
        std=ranks.std(axis=0),
        n_datasets=len(data.benchmarks),
    )


# ---------------------------------------------------------------------------
# Kendall correlation between measures
# ---------------------------------------------------------------------------


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall tau-b by exhaustive pair comparison.

    Returns NaN when either sequence is fully tied (the coefficient is
    undefined there).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    n = x.shape[0]
    if n < 2:
        return float("nan")
    iu = np.triu_indices(n, k=1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    concordant = int(((sx == sy) & (sx != 0)).sum())
    discordant = int(((sx == -sy) & (sx != 0)).sum())
    n_pairs = n * (n - 1) // 2
    ties_x = int((sx == 0).sum())
    ties_y = int((sy == 0).sum())
    denom = math.sqrt(float(n_pairs - ties_x) * float(n_pairs - ties_y))
    if denom == 0.0:
        return float("nan")
    return (concordant - discordant) / denom


@dataclass(frozen=True)
class KendallMatrix:
    measures: tuple[str, ...]
    matrix: NDArray[np.float64]
    pair_counts: NDArray[np.int64]  # benchmarks contributing per pair


def kendall_matrix(data: Collapsed, measures: Sequence[str] | None = None) -> KendallMatrix:
    """Average per-benchmark Kendall tau between every measure pair.

    Per benchmark, each measure induces a vector over the detector combos
    present there; tau is computed per measure pair on the combos where
    both values exist and averaged across benchmarks, skipping benchmarks
    where it is undefined (fully tied vectors).
    """
    names = data.table_measures(measures)
    k = len(names)
    block = np.stack([data.column(name) for name in names], axis=-1)
    sums = np.zeros((k, k))
    counts = np.zeros((k, k), dtype=np.int64)
    for b, bench in enumerate(data.benchmarks):
        rows = block[b, data.present[b]]
        if len(rows) < 2:
            raise ValueError(
                f"benchmark {bench} has {len(rows)} combo(s); need at least 2"
            )
        finite = np.isfinite(rows)
        for i in range(k):
            for j in range(k):
                ok = finite[:, i] & finite[:, j]
                if ok.sum() < 2:
                    continue
                tau = kendall_tau(rows[ok, i], rows[ok, j])
                if math.isnan(tau):
                    continue
                sums[i, j] += tau
                counts[i, j] += 1
    matrix = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return KendallMatrix(measures=names, matrix=matrix, pair_counts=counts)


# ---------------------------------------------------------------------------
# Relative loss of hyperparameter selection
# ---------------------------------------------------------------------------


def _selection_loss(
    sel: NDArray[np.float64], tgt: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """Row-wise relative loss of selecting combos by ``sel``, judging by ``tgt``.

    In each row the combo maximizing ``sel`` is chosen (ties: first in grid
    order) and the loss is (best_target - target_at_choice) / best_target,
    zero when the best target value is zero.  Combos missing either value
    (NaN) are excluded from both the argmax and the best.  Returns the loss
    per row, NaN where no combo is usable, and the usable combos per row.
    """
    usable = ~(np.isnan(sel) | np.isnan(tgt))
    chosen = np.argmax(np.where(usable, sel, -np.inf), axis=1)
    best = np.where(usable, tgt, -np.inf).max(axis=1)
    used = np.take_along_axis(tgt, chosen[:, None], axis=1)[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = np.where(best == 0.0, 0.0, (best - used) / best)
    n_usable = usable.sum(axis=1)
    return np.where(n_usable > 0, loss, np.nan), n_usable


@dataclass(frozen=True)
class LossResult:
    mean_loss: float
    n_datasets: int
    n_excluded_combos: int


def loss_matrix(
    data: Collapsed,
    selection: MeasureId | str,
    target: MeasureId | str,
    select_on_validation: bool = False,
) -> LossResult:
    """Mean relative loss of selecting combos by one measure, judging by another.

    The per-benchmark loss is that of :func:`_selection_loss`; combos
    missing either value are counted as excluded.

    With ``select_on_validation`` the argmax reads the ``val:``-prefixed
    columns written by a run with a validation fraction, keeping selection
    and judgment on disjoint samples.
    """
    sel_name = _measure_name(selection)
    if select_on_validation:
        sel_name = f"val:{sel_name}"
    losses, n_usable = _selection_loss(data.column(sel_name), data.column(target))
    if not n_usable.all():
        bench = data.benchmarks[int(np.argmin(n_usable))]
        raise ValueError(f"benchmark {bench} has no usable combo for {sel_name}")
    return LossResult(
        mean_loss=float(np.mean(losses)),
        n_datasets=len(data.benchmarks),
        n_excluded_combos=int(data.present.sum() - n_usable.sum()),
    )


def loss_matrix_table(
    data: Collapsed,
    measures: Sequence[str] | None = None,
    select_on_validation: bool = False,
) -> tuple[tuple[str, ...], NDArray[np.float64]]:
    """Full selection-vs-target loss matrix over all measure pairs."""
    names = data.table_measures(measures)
    matrix = np.zeros((len(names), len(names)))
    for i, sel in enumerate(names):
        for j, tgt in enumerate(names):
            matrix[i, j] = loss_matrix(data, sel, tgt, select_on_validation).mean_loss
    return names, matrix


# ---------------------------------------------------------------------------
# Sensitivity to the anomaly class used for selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MulticlassResult:
    measures: tuple[str, ...]
    matrix: NDArray[np.float64]
    n_tables: int
    n_skipped_tables: int


def multiclass_sensitivity(
    data: Collapsed, measures: Sequence[str] | None = None
) -> MulticlassResult:
    """Loss of selecting hyperparameters on the wrong anomaly class.

    For every table with at least two anomaly classes and every ordered
    class pair (a, b), a != b: pick the combo maximizing the selection
    measure on class a, then compute its relative loss in the target
    measure on class b against class b's own best.  Entries average over
    ordered pairs and tables; single-class tables are skipped and counted.
    """
    names = data.table_measures(measures)
    k = len(names)
    block = np.stack([data.column(name) for name in names], axis=1)
    sums = np.zeros(k * k)
    counts = np.zeros(k * k, dtype=np.int64)
    tables = np.array(data.tables)
    n_used = n_skipped = 0
    for table in sorted(set(data.tables)):
        classes = np.flatnonzero(tables == table)  # name order is class order
        if len(classes) < 2:
            n_skipped += 1
            continue
        n_used += 1
        for a in classes:
            for b in classes:
                if a == b:
                    continue
                # Row i * k + j selects by measure i on a and judges by j on b.
                loss, _ = _selection_loss(
                    np.repeat(block[a], k, axis=0), np.tile(block[b], (k, 1))
                )
                ok = ~np.isnan(loss)
                sums[ok] += loss[ok]
                counts += ok
    if n_used == 0:
        raise ValueError("no table has two or more anomaly classes")
    sums, counts = sums.reshape(k, k), counts.reshape(k, k)
    matrix = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return MulticlassResult(
        measures=names, matrix=matrix, n_tables=n_used, n_skipped_tables=n_skipped
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
    bench: BenchmarkDataset,
    combo: Combo,
    n_splits: int,
    train_fraction: float = 0.8,
    contamination: float = 0.0,
    master_seed: int = 0,
    repetitions: Sequence[int] | None = None,
) -> RocBand:
    """Evaluate the ROC curve on repeated resplits and band its spread.

    Repetition r is the grid cell of ``combo`` at repetition r, with the
    same split and the same fit (:func:`fit_models`), and gives one test
    ROC.  All curves are interpolated onto the union of their vertex FPRs;
    the band reports mean and sample std of TPR and of the ratio TPR/FPR
    (0 at FPR = 0) per grid point.  Splits whose fit raises ``ValueError``
    or whose test fold degenerates to one class are skipped and counted.
    """
    if n_splits < 2:
        raise ValueError("need at least 2 splits for a band")
    reps = list(repetitions) if repetitions is not None else list(range(n_splits))
    if len(reps) != n_splits:
        raise ValueError("repetitions must provide one entry per split")
    curves = []
    skipped = 0
    for rep in reps:
        spec = SplitSpec(train_fraction=train_fraction, contamination=contamination,
                         seed=master_seed, repetition=rep)
        fold = split(bench, spec)
        (model,) = fit_models(bench, spec, fold.train, [combo])
        try:
            if isinstance(model, Exception):
                raise model
            labeled = LabeledScores(labels=fold.test_labels, scores=model.score(fold.test))
        except ValueError:
            skipped += 1
            continue
        curves.append(build_roc(labeled))
    if len(curves) < 2:
        raise ValueError("fewer than 2 usable splits; cannot band")
    grid = np.unique(np.concatenate([c.fpr for c in curves]))
    tprs = np.array([[tpr_at(c, a) for a in grid] for c in curves])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(grid[None, :] > 0, tprs / grid[None, :], 0.0)
    return RocBand(
        fpr=grid,
        tpr_mean=tprs.mean(axis=0),
        tpr_std=tprs.std(axis=0, ddof=1),
        ratio_mean=ratios.mean(axis=0),
        ratio_std=ratios.std(axis=0, ddof=1),
        n_splits_used=len(curves),
        n_skipped=skipped,
    )
