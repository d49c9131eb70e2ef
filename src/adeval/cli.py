"""Command-line front end for reproducible benchmark studies.

``prepare`` turns raw class-labeled tables into a benchmark cache,
``run`` executes the detector/measure grid into a resumable record
store, ``aggregate`` reduces a finished store to summary tables, and
``volume`` / ``scores`` are one-off helpers for a single split.

Runs are manifest-driven: the resolved configuration is hashed, every
output file carries the hash in a ``# manifest:`` comment line, and a
rerun against the same output directory verifies the manifest before
touching anything.  ``aggregate`` takes a run's configuration and
benchmark set from its manifest alone.  Exit codes: 0 success, 1
completed with flagged-missing cells, 2 usage, configuration or file
error (an ``OSError``, such as an output path that is an existing file).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from adeval import __version__
from adeval.curves import check_labels
from adeval.datasets import (
    BenchmarkDataset,
    TrainTestSplit,
    _parse_raw_table,
    _safe_name,
    load_tables,
    minmax_scaled_table,
    prepare_table,
    split,
    table_files,
    write_raw_table,
)
from adeval.detectors import KNN_VARIANTS
from adeval.experiments import (
    Combo,
    GridConfig,
    LabelledSample,
    RecordStore,
    benchmarks_of,
    check_parts,
    collapse,
    fit_models,
    kendall_matrix,
    loss_matrix_table,
    mean_rank_table,
    missing_cells,
    multiclass_sensitivity,
    roc_band,
    run_grid,
    score_row,
)
from adeval.volume import accepted_fraction

_DETECTOR_LABELS = {"knn": "kNN", "lof": "LOF", "iforest": "IF"}
_DETECTOR_ORDER = {"knn": 0, "lof": 1, "iforest": 2}
_RUN_KEYS = ("dataset_dir", "output_dir", "only")


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Configuration files and the run manifest
# ---------------------------------------------------------------------------


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a ``key = value`` text file.

    ``#`` lines are comments, and so is a ``#`` that follows whitespace
    together with the rest of its line.
    """
    pairs: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = re.split(r"\s#", line, maxsplit=1)[0].strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise CliError(f"{path}: line {lineno}: expected key = value")
        key, _, value = text.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_config_value(field_type, key: str, raw: str):
    """Parse ``raw`` as a scalar type or as comma-separated ``tuple[T, ...]``."""
    try:
        if get_origin(field_type) is tuple:
            item_type, _ = get_args(field_type)
            return tuple(item_type(p) for p in (s.strip() for s in raw.split(",")) if p)
        return field_type(raw)
    except ValueError:
        raise CliError(f"config key {key!r}: cannot parse {raw!r}") from None


def resolve_config(pairs: dict[str, str]) -> tuple[GridConfig, dict[str, str]]:
    """Split raw key/value pairs into a GridConfig and run-level keys."""
    hints = get_type_hints(GridConfig)
    field_types = {f.name: hints[f.name] for f in fields(GridConfig)}
    kwargs: dict[str, object] = {}
    run_keys: dict[str, str] = {}
    for key, raw in pairs.items():
        if key in _RUN_KEYS:
            run_keys[key] = raw
        elif key in field_types:
            kwargs[key] = _parse_config_value(field_types[key], key, raw)
        else:
            known = ", ".join(sorted((*field_types, *_RUN_KEYS)))
            raise CliError(f"unknown config key {key!r} (known: {known})")
    try:
        return GridConfig(**kwargs), run_keys
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}") from None


def manifest_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Everything that identifies a grid run, written before it starts.

    The hash covers the resolved configuration, the tool version and the
    data digest of every loaded benchmark, keyed by benchmark name
    (:func:`_data_digest`), but not the directories: the same study re-run
    from a different location produces byte-identical stores and tables,
    while a resume against changed benchmark data, or another set of
    benchmarks, is refused.
    """

    config_path: str
    config: dict
    dataset_dir: str
    output_dir: str
    master_seed: int
    version: str
    data: dict[str, str]
    only: tuple[str, ...] | None = None

    @property
    def hash(self) -> str:
        return manifest_hash(
            {"config": self.config, "version": self.version, "data": self.data}
        )

    def to_json(self) -> str:
        payload = asdict(self)
        payload["hash"] = self.hash
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _data_digest(bench: BenchmarkDataset) -> str:
    """sha256 of a benchmark's normal and anomaly arrays: shapes, then little-endian bytes."""
    digest = hashlib.sha256()
    for points in (bench.normal, bench.anomaly):
        digest.update(repr(points.shape).encode())
        digest.update(points.astype("<f8").tobytes())
    return digest.hexdigest()


def _config_payload(cfg: GridConfig) -> dict:
    return {key: list(v) if isinstance(v, tuple) else v for key, v in asdict(cfg).items()}


def _load_manifest(run_dir: Path) -> tuple[RunManifest, GridConfig]:
    """A run's manifest and configuration: the one source of the run's benchmark set.

    A manifest that lacks a field, holds a configuration ``GridConfig``
    does not take, or whose hash does not match its content is refused.
    """
    path = run_dir / "manifest.json"
    if not path.is_file():
        raise CliError(f"no manifest.json under {run_dir}; run the grid first")
    payload = json.loads(path.read_text())  # malformed JSON is a ValueError: exit 2
    try:
        manifest = RunManifest(**{f.name: payload[f.name] for f in fields(RunManifest)})
        cfg = GridConfig(**{k: tuple(v) if isinstance(v, list) else v  # JSON lists were tuples
                            for k, v in manifest.config.items()})
    except (AttributeError, KeyError, TypeError) as exc:
        raise CliError(f"{path} is not a run manifest ({type(exc).__name__}: {exc})") from None
    if payload.get("hash") != manifest.hash:
        raise CliError(f"{path} does not match its recorded hash")
    return manifest, cfg


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_delimited(path: Path, header: Sequence[str], rows, hash_: str, *notes: str) -> None:
    """A CSV file under ``# manifest: <hash>`` and one ``# `` line per note."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write("".join(f"# {line}\n" for line in (f"manifest: {hash_}", *notes)))
        writer = csv.writer(handle)
        writer.writerow(list(header))
        writer.writerows(rows)


def _write_text(path: Path, lines: Sequence[str], hash_: str) -> str:
    """Write ``lines`` under ``# manifest: <hash>``; returns the text written."""
    text = f"# manifest: {hash_}\n" + "\n".join(lines) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return text


def _aligned(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Right-aligned columns (first column left-aligned)."""
    columns = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(header))]
    out = []
    for row in columns:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        out.append("  ".join(cells).rstrip())
    return out


def _fmt(value: float, digits: int = 3) -> str:
    if math.isnan(value):
        return "nan"
    return f"{value:.{digits}f}"


# ---------------------------------------------------------------------------
# Detector flags shared by volume / scores / rocband
# ---------------------------------------------------------------------------


def _add_detector_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument(
        "--detector", choices=tuple(_DETECTOR_LABELS), required=required,
        help="detector to fit on the training fold",
    )
    # Unset defaults (None) let `aggregate` refuse these flags on kinds that
    # never read them; _combo_from_flags applies the defaults named here.
    parser.add_argument(
        "--variant", choices=KNN_VARIANTS, default=None,
        help="k-nearest-neighbor score variant (knn only; default kappa)",
    )
    parser.add_argument("--k", type=int, default=None,
                        help="neighborhood size (default 5 for knn, 20 for lof)")
    parser.add_argument("--trees", type=int, default=None,
                        help="forest size (iforest; default 100)")
    parser.add_argument("--subsample", type=int, default=None,
                        help="per-tree subsample (iforest; default 256)")


def _combo_from_flags(args: argparse.Namespace) -> Combo:
    def flag(value, default):
        return default if value is None else value

    if args.detector is None:
        raise CliError("this command needs --detector")
    if args.detector == "knn":
        return Combo(0, "knn", (("variant", flag(args.variant, "kappa")), ("k", flag(args.k, 5))))
    if args.detector == "lof":
        return Combo(0, "lof", (("k", flag(args.k, 20)),))
    return Combo(0, "iforest", (("n_trees", flag(args.trees, 100)),
                                ("subsample", flag(args.subsample, 256))))


def _find_benchmark(
    dataset_dir: str | Path, name: str, run: RunManifest | None = None
) -> BenchmarkDataset:
    """The cached benchmark named ``name``, or the one benchmark of table ``name``.

    Only the table files that can hold ``name`` are read (:func:`load_tables`).
    When ``name`` matches none, the error lists the cached tables by file
    name, which reads no file.  With ``run``, only the run's benchmarks
    (the names of its manifest's ``data``) count, for the table alias and
    for the names listed when ``name`` matches none.
    """
    for table in load_tables(dataset_dir, [name]):
        benches = [b for b in table.benchmarks() if run is None or b.name in run.data]
        for bench in benches:
            if bench.name == name or (table.name == name and len(benches) == 1):
                return bench
    if run is None:
        tables = ", ".join(p.stem for p in table_files(dataset_dir)) or "none"
        raise CliError(f"no benchmark named {name!r} under {dataset_dir} (tables: {tables})")
    if name in run.data:
        raise CliError(f"benchmark {name} of run {run.hash} is not under {dataset_dir}")
    raise CliError(f"{name!r} is not a benchmark of run {run.hash} "
                   f"(available: {', '.join(sorted(run.data))})")


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def cmd_prepare(args: argparse.Namespace) -> int:
    """Prepare each raw table ``<input>/*.csv`` into ``<output>/<table>.csv``.

    Each input file is read once, as text, and parsed as
    :func:`read_raw_table` parses it; every table is parsed before any
    file is written, so a malformed one writes nothing.  A cache file
    holds its input's own text, so feature names, comments and number
    forms are kept; with ``--minmax`` it holds the scaled table as
    :func:`write_raw_table` writes it.  A cache file already present is
    left as it is.
    """
    input_dir = Path(args.input)
    output_dir = Path(args.output)
    paths = sorted(input_dir.glob("*.csv"))
    if not paths:
        raise CliError(f"no raw tables (*.csv) under {input_dir}; nothing written")
    if output_dir.resolve() == input_dir.resolve():
        raise CliError(f"the benchmark cache {output_dir} is the input directory; "
                       "prepare into another one")
    texts, tables = [], []
    for path in paths:  # every table is parsed before any write
        with open(path, newline="") as handle:
            texts.append(handle.read())
        tables.append(_parse_raw_table(path, texts[-1]))
    if args.minmax:
        tables = [minmax_scaled_table(t) for t in tables]
    prepared = {}  # cache file -> (input file name, table, its text, its benchmarks)
    for path, table, text in zip(paths, tables, texts):
        benches = prepare_table(table).benchmarks()
        target = output_dir / f"{benches[0].table}.csv"
        other = prepared.setdefault(target, (path.name, table, text, benches))[0]
        if other != path.name:
            raise CliError(f"tables {other} and {path.name} both prepare into {target}; "
                           "rename one")
    written = present = 0
    for target, (_, table, text, benches) in prepared.items():
        if target.is_file():
            present += len(benches)
            continue
        output_dir.mkdir(parents=True, exist_ok=True)
        if args.minmax:
            write_raw_table(table, target)
        else:
            target.write_text(text, newline="")
        written += len(benches)
        for bench in benches:
            print(
                f"  {bench.name}: {bench.normal.shape[0]} normal, "
                f"{bench.anomaly.shape[0]} anomalous, dim {bench.dim}"
            )
    if written == 0:
        print(f"benchmark cache up to date ({present} benchmarks)")
    else:
        print(f"prepared {written} benchmarks ({present} already present) -> {output_dir}")
    return 0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _resolved_run_config(args: argparse.Namespace):
    pairs = read_config_file(args.config) if args.config else {}
    for override in args.set or []:
        if "=" not in override:
            raise CliError(f"--set expects key=value, got {override!r}")
        key, _, value = override.partition("=")
        pairs[key.strip()] = value.strip()
    if args.dataset:
        pairs["dataset_dir"] = args.dataset
    if args.out:
        pairs["output_dir"] = args.out
    cfg, run_keys = resolve_config(pairs)
    for key in ("dataset_dir", "output_dir"):
        if key not in run_keys:
            raise CliError(f"missing config key {key!r} (set it in the file or via flags)")
    only = tuple(s for s in (p.strip() for p in run_keys.get("only", "").split(",")) if s)
    return cfg, run_keys["dataset_dir"], run_keys["output_dir"], only or None


def _available_parallelism() -> int:
    """CPUs this process may run on, where the platform says; else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_run(args: argparse.Namespace) -> int:
    if args.workers is not None and args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    cfg, dataset_dir, output_dir, only = _resolved_run_config(args)
    tables = load_tables(dataset_dir, only)
    benches = benchmarks_of(tables)
    # An ``only`` entry names a table or a benchmark; one that selects
    # nothing is a typo, refused before the manifest is written.
    selected = {t.name for t in tables} | {b.name for b in benches}
    unmatched = [name for name in only or () if name not in selected]
    if unmatched:
        raise CliError(f"only: no table or benchmark named {', '.join(unmatched)} "
                       f"under {dataset_dir}")
    if not tables:
        raise CliError(f"no benchmarks under {dataset_dir}; run prepare first")
    check_parts(cfg, benches)
    data = {bench.name: _data_digest(bench) for bench in benches}
    manifest = RunManifest(
        config_path=str(args.config) if args.config else "<flags>",
        config=_config_payload(cfg),
        dataset_dir=str(dataset_dir),
        output_dir=str(output_dir),
        master_seed=cfg.master_seed,
        version=__version__,
        data=data,
        only=only,
    )
    out_root = Path(output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    manifest_path = out_root / "manifest.json"
    store = RecordStore(out_root / "records", manifest_hash=manifest.hash)
    if manifest_path.exists():
        recorded = _load_manifest(out_root)[0].hash
        if recorded != manifest.hash:
            raise CliError(
                f"{manifest_path} records a different run ({recorded} != "
                f"{manifest.hash}); use a fresh output directory"
            )
        print(f"resuming run {manifest.hash}")
    else:
        # Refuse before the manifest names this directory, so a refused run leaves none.
        store.load()
        manifest_path.write_text(manifest.to_json())
        print(f"run {manifest.hash}: {len(benches)} benchmarks, "
              f"{len(cfg.detector_combos())} combos, {cfg.repetitions} repetitions")
    summary = run_grid(
        cfg, tables, store,
        progress=lambda msg: print(f"  {msg}"),
        workers=args.workers or _available_parallelism(),
    )
    print(
        f"cells: {summary.n_cells} total, {summary.n_new} new, "
        f"{summary.n_flagged} flagged-missing"
    )
    for flag, n in summary.errors.items():
        print(f"  {flag}: {n} cells")
    return 1 if summary.n_flagged else 0


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def _pick_contamination(args: argparse.Namespace, cfg: GridConfig) -> float:
    """The run's own contamination level that ``--contamination`` names, so -0 gives 0."""
    levels = cfg.contaminations
    if args.contamination is None and len(levels) == 1:
        return levels[0]
    if args.contamination in levels:
        return levels[levels.index(args.contamination)]
    shown = ", ".join(f"{c:g}" for c in levels)
    if args.contamination is not None:
        raise CliError(f"contamination {args.contamination:g} not in this run (has: {shown})")
    raise CliError(f"store holds several contamination levels ({shown}); pass --contamination")


def _select_measures(
    cfg: GridConfig,
    measure_flags: list[str] | None,
    alpha: float | None,
    p: float | None,
) -> tuple[str, ...]:
    """The run's measures that ``--measure`` names, at the ``--alpha`` and ``--p`` levels.

    A named measure or a level that the run does not have is refused, and
    so is a measure named twice.
    """
    wanted = {"alphas": alpha, "ps": p}  # the level each family keeps, None for all
    for flag, family in (("--alpha", "alphas"), ("--p", "ps")):
        have = getattr(cfg, family)
        if wanted[family] is not None and wanted[family] not in have:
            shown = ", ".join(f"{v:g}" for v in have)
            raise CliError(f"{flag} {wanted[family]:g} not in this run (has: {shown})")
    by_name = {m.name: m for m in cfg.measures()}
    names = list(by_name)
    if measure_flags:
        chosen = []
        for flag in measure_flags:
            for part in (s.strip() for s in flag.split(",")):
                if not part:
                    continue
                if part not in by_name:
                    raise CliError(
                        f"measure {part!r} not in this run (has: {', '.join(by_name)})"
                    )
                if part in chosen:
                    raise CliError(f"measure {part!r} is named twice")
                chosen.append(part)
        names = chosen

    def keep(name: str) -> bool:
        measure = by_name[name]
        level = wanted.get(measure.family)
        return level is None or measure.level == level

    names = [n for n in names if keep(n)]
    if not names:
        raise CliError("the measure filters removed every measure")
    return tuple(names)


def _rank_table(data, names, args, tag) -> tuple:
    table = mean_rank_table(data, names)
    order = sorted(
        range(len(table.detectors)), key=lambda i: _DETECTOR_ORDER.get(table.detectors[i], 99)
    )
    detectors = [table.detectors[i] for i in order]
    rows, text_rows = [], []
    for measure, mean, std in zip(table.measures, table.mean.tolist(), table.std.tolist()):
        rows += [[measure, table.detectors[i], repr(mean[i]), repr(std[i]), table.n_datasets]
                 for i in order]
        text_rows.append([measure] + [f"{mean[i]:.2f}+-{std[i]:.2f}" for i in order])
    header = ["measure"] + [_DETECTOR_LABELS.get(d, d) for d in detectors]
    return (f"rank_{tag}", ["measure", "detector", "mean_rank", "std_rank", "n_datasets"],
            rows, _aligned(header, text_rows))


def _pair_rows(names, matrix, counts=None) -> list[list]:
    """One (measure_a, measure_b, value[, count]) CSV row per entry of a measure table."""
    rows = [[a, b, repr(v)] for a, row in zip(names, matrix.tolist()) for b, v in zip(names, row)]
    if counts is not None:
        for row, n in zip(rows, counts.ravel().tolist()):
            row.append(n)
    return rows


def _matrix_lines(names, matrix, fmt) -> list[str]:
    rows = [[name] + [fmt(v) for v in row] for name, row in zip(names, matrix.tolist())]
    return _aligned([""] + list(names), rows)


def _percent_lines(title: str, names, matrix) -> list[str]:
    return [title] + _matrix_lines(names, matrix * 100.0, lambda v: _fmt(v, 1))


def _kendall_table(data, names, args, tag) -> tuple:
    result = kendall_matrix(data, measures=names)
    lines = _matrix_lines(result.measures, result.matrix, _fmt)
    means = np.nanmean(
        np.where(~np.eye(len(names), dtype=bool), result.matrix, np.nan), axis=1
    )
    lines += ["", "off-diagonal row means:"]
    lines += _aligned(
        ["measure", "mean tau"],
        [[name, _fmt(means[i])] for i, name in enumerate(result.measures)],
    )
    rows = _pair_rows(result.measures, result.matrix, result.counts)
    return f"kendall_{tag}", ["measure_a", "measure_b", "tau", "n_benchmarks"], rows, lines


def _loss_table(data, names, args, tag) -> tuple:
    result = loss_matrix_table(
        data, measures=names, select_on_validation=args.select_on_validation
    )
    suffix = "_val" if args.select_on_validation else ""
    title = "mean relative loss, percent (rows select, columns judge):"
    return (f"loss_{tag}{suffix}", ["selection", "target", "mean_loss"],
            _pair_rows(result.measures, result.matrix),
            _percent_lines(title, result.measures, result.matrix))


def _multiclass_table(data, names, args, tag) -> tuple:
    result = multiclass_sensitivity(data, measures=names)
    title = (f"anomaly-class transfer loss, percent "
             f"({result.n_tables} tables, {result.n_skipped_tables} skipped):")
    return (f"multiclass_{tag}", ["selection", "target", "mean_loss"],
            _pair_rows(result.measures, result.matrix),
            _percent_lines(title, result.measures, result.matrix))


# Each builder returns (file stem, CSV header, CSV rows, text lines).  The
# table functions it calls are read as module globals at call time.
_TABLE_BUILDERS = {
    "rank": _rank_table, "kendall": _kendall_table,
    "loss": _loss_table, "multiclass": _multiclass_table,
}


# The aggregate kinds that read each flag whose default is unset; the others refuse it.
_FLAG_KINDS = {
    "measure": tuple(_TABLE_BUILDERS), "alpha": tuple(_TABLE_BUILDERS),
    "p": tuple(_TABLE_BUILDERS), "select_on_validation": ("loss",),
    "benchmark": ("rocband",), "splits": ("rocband",), "detector": ("rocband",),
    "variant": ("rocband",), "k": ("rocband",), "trees": ("rocband",),
    "subsample": ("rocband",),
}


def _aggregate_rocband(args, manifest: RunManifest, cfg, out_dir: Path) -> int:
    if not args.benchmark:
        raise CliError("aggregate rocband needs --benchmark")
    bench = _find_benchmark(manifest.dataset_dir, args.benchmark, manifest)
    if _data_digest(bench) != manifest.data[bench.name]:
        raise CliError(f"{bench.name} under {manifest.dataset_dir} holds other data "
                       f"than in run {manifest.hash}")
    combo = _combo_from_flags(args)
    band = roc_band(cfg, bench, combo, n_splits=100 if args.splits is None else args.splits,
                    contamination=_pick_contamination(args, cfg))
    stem = _safe_name(f"rocband_{bench.name}_{combo.detector}_{combo.params_text}")
    path = out_dir / f"{stem}.csv"
    columns = (band.fpr, band.tpr_mean, band.tpr_std, band.ratio_mean, band.ratio_std)
    _write_delimited(path, ["fpr", "tpr_mean", "tpr_std", "ratio_mean", "ratio_std"],
                     [[repr(float(v)) for v in row] for row in zip(*columns)], manifest.hash,
                     f"splits: {band.n_splits_used} used, {band.n_skipped} skipped")
    print(f"wrote {path} ({band.fpr.shape[0]} knots, {band.n_splits_used} splits)")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    for dest, kinds in _FLAG_KINDS.items():
        value = getattr(args, dest)
        if value is not None and value is not False and args.kind not in kinds:
            raise CliError(f"--{dest.replace('_', '-')} does not apply to aggregate {args.kind}")
    run_dir = Path(args.records)
    manifest, cfg = _load_manifest(run_dir)
    if args.select_on_validation and "validation" not in cfg.parts():
        raise CliError("--select-on-validation reads the validation part, and this run "
                       "has none (validation_fraction = 0)")
    hash_ = manifest.hash
    out_dir = Path(args.out) if args.out else run_dir / "tables"

    if args.kind == "rocband":
        return _aggregate_rocband(args, manifest, cfg, out_dir)

    contamination = _pick_contamination(args, cfg)
    stored = RecordStore(run_dir / "records", manifest_hash=hash_).load()
    missing = [cell for cell in missing_cells(cfg, manifest.data, stored)
               if cell[1] == contamination]
    if missing:
        shown = "\n".join(f"  {b} c={c:g} combo={g} rep={r}" for b, c, g, r in missing[:20])
        extra = "" if len(missing) <= 20 else f"\n  ... and {len(missing) - 20} more"
        raise CliError(
            f"record store incomplete, {len(missing)} missing cells:\n{shown}{extra}"
        )
    data = collapse(stored.select(stored.contamination == contamination))
    names = _select_measures(cfg, args.measure, args.alpha, args.p)
    tag = f"c{contamination:g}"

    stem, header, rows, lines = _TABLE_BUILDERS[args.kind](data, names, args, tag)
    _write_delimited(out_dir / f"{stem}.csv", header, rows, hash_)
    print(_write_text(out_dir / f"{stem}.txt", lines, hash_).rstrip())
    print(f"wrote tables under {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# volume and scores one-offs
# ---------------------------------------------------------------------------


def _one_off(
    args: argparse.Namespace, cfg: GridConfig, command: str, **inputs
) -> tuple[BenchmarkDataset, Combo, TrainTestSplit, object, str]:
    """The grid cell that the flags name in a run of ``cfg``: benchmark, combo, test fold and model.

    The cell is split (:meth:`GridConfig.split_spec`) and fitted as the grid
    does (:func:`fit_models`).  The last entry is the manifest hash of the
    command's output, which covers the benchmark's data, the combo, the
    split and ``inputs``.
    """
    bench = _find_benchmark(args.dataset, args.benchmark)
    combo = _combo_from_flags(args)
    spec = cfg.split_spec(args.contamination, args.rep)
    fold = split(bench, spec)
    (model,) = fit_models(bench.table, spec, fold.train, [combo])
    if isinstance(model, Exception):
        raise model
    hash_ = manifest_hash(
        {"command": command, "version": __version__, "benchmark": bench.name,
         "data": _data_digest(bench), "detector": combo.detector,
         "params": combo.params_text, "train_fraction": spec.train_fraction,
         "contamination": spec.contamination, "seed": spec.seed, "rep": spec.repetition,
         **inputs}
    )
    return bench, combo, fold, model, hash_


def cmd_volume(args: argparse.Namespace) -> int:
    cfg = GridConfig(train_fraction=args.train_fraction, master_seed=args.seed,
                     alphas=(args.alpha,), volume_samples=args.n)
    bench, combo, fold, model, hash_ = _one_off(args, cfg, "volume", alpha=args.alpha, n=args.n)
    test = score_row(model, fold.test, "scores must be finite")
    labels = check_labels(fold.test_labels)
    volume = score_row(model, cfg.volume_sample(bench.table, bench.normal, args.rep),
                       "score function returned a non-finite value")
    # The grid cell's threshold, read off the test fold's curve at FPR = alpha.
    sample = LabelledSample(labels, test, volume, cfg)
    ((tau,),) = sample.thresholds
    ((vol,),) = accepted_fraction(volume, sample.thresholds)
    rows = [
        ("benchmark", bench.name),
        ("detector", combo.detector),
        ("params", combo.params_text),
        ("alpha", f"{args.alpha:g}"),
        ("threshold", repr(float(tau))),
        ("vol", repr(float(vol))),
        ("cvol", repr(float(1.0 - vol))),
        ("n_samples", str(args.n)),
    ]
    if args.out:
        _write_delimited(Path(args.out), ["key", "value"], rows, hash_)
    for key, value in rows:
        print(f"{key},{value}")
    return 0


def cmd_scores(args: argparse.Namespace) -> int:
    cfg = GridConfig(train_fraction=args.train_fraction, master_seed=args.seed)
    _, _, fold, model, hash_ = _one_off(args, cfg, "scores")
    scores = model.score(fold.test)
    rows = [(sid, repr(float(s))) for sid, s in zip(fold.test_ids, scores)]
    if args.out:
        _write_delimited(Path(args.out), ["id", "score"], rows, hash_)
        print(f"wrote {len(rows)} scores to {args.out}")
    else:
        print("id,score")
        for sid, value in rows:
            print(f"{sid},{value}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adeval",
        description="Anomaly-detector evaluation: benchmark preparation, "
        "grid runs, and measure-comparison tables.",
    )
    parser.add_argument("--version", action="version", version=f"adeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a benchmark cache from raw tables")
    p.add_argument("input", help="directory of raw *.csv tables (last column: class)")
    p.add_argument("output", help="benchmark cache directory")
    p.add_argument("--minmax", action="store_true",
                   help="scale each feature of each table to [0, 1] first")

    p = sub.add_parser("run", help="execute the detector grid into a record store")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable; flags win)")
    p.add_argument("--dataset", help="benchmark cache directory (overrides dataset_dir)")
    p.add_argument("--out", help="run output directory (overrides output_dir)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes, at least 1 (default: available parallelism); "
                   "never more than there are blocks to run")

    p = sub.add_parser("aggregate", help="reduce a record store to summary tables")
    p.add_argument("kind", choices=(*_TABLE_BUILDERS, "rocband"))
    p.add_argument("records", help="run output directory (holds manifest.json)")
    p.add_argument("--out", help="table directory (default: <records>/tables)")
    p.add_argument("--measure", action="append",
                   help="restrict to these measures (repeatable, comma-separable)")
    p.add_argument("--alpha", type=float, default=None,
                   help="keep only curve measures at this FPR level")
    p.add_argument("--p", type=float, default=None,
                   help="keep only precision@p at this contamination level")
    p.add_argument("--contamination", type=float, default=None,
                   help="which training contamination level to aggregate")
    p.add_argument("--select-on-validation", action="store_true",
                   help="loss only: select combos on the validation columns")
    p.add_argument("--benchmark", help="rocband only: benchmark name (table-class)")
    p.add_argument("--splits", type=int, default=None,
                   help="rocband only: resplit count (default 100)")
    _add_detector_flags(p, required=False)

    for name, extra in (("volume", True), ("scores", False)):
        p = sub.add_parser(
            name,
            help="one-off decision-volume estimate for one split"
            if extra else "emit per-sample test-fold scores for one split",
            description="Splits and fits one grid cell as `adeval run` does. Its values are "
            "the cell's only for runs with validation_fraction = 0: with a validation part, "
            "the grid thresholds and scores on the rest of the test fold.",
        )
        p.add_argument("--dataset", required=True, help="benchmark cache directory")
        p.add_argument("--benchmark", required=True, help="benchmark name (table-class)")
        _add_detector_flags(p, required=True)
        p.add_argument("--train-fraction", type=float, default=0.8)
        p.add_argument("--contamination", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rep", type=int, default=0)
        if extra:
            p.add_argument("--alpha", type=float, default=0.05)
            p.add_argument("--n", type=int, default=100_000)
        p.add_argument("--out", help="write delimited output here instead of stdout"
                       if not extra else "also write the estimate to this file")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call in a process and kept.

    A parse leaves no state in the tree, so in-process callers that run
    many commands build it once; an ``adeval`` process builds it once
    either way.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # The command is looked up by name at call time, so a wrapper or patch
    # set on this module after the tree was built is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
