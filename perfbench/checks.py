"""Output checks and digests for one finished study directory.

The checks read the record store and the tables with the csv module, not
with ``adeval``'s own loader, and recompute AUC from scratch, so a defect
in the program's reader or measures cannot vouch for itself.  Nothing here
runs inside a timed span.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

ID_COLUMNS = (
    "grid_index", "table", "anomaly_class", "detector", "params",
    "contamination", "repetition", "flags",
)
TABLE_KINDS = ("rank", "kendall", "loss", "multiclass")
DETECTORS = ("knn", "lof", "iforest")
AUC_TOLERANCE = 1e-12


@dataclass
class StoreRow:
    key: tuple  # (table, anomaly class, grid index, repetition)
    detector: str
    params: dict[str, str]
    contamination: str
    values: dict[str, str]
    flags: str


@dataclass
class Store:
    measures: list[str]
    rows: dict[tuple, StoreRow]
    malformed: list[str] = field(default_factory=list)


def tree_digest(root: Path, pattern: str) -> str:
    """sha256 over the sorted names and bytes of the files matching ``pattern``."""
    digest = hashlib.sha256()
    for path in sorted(root.glob(pattern)):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _data_lines(path: Path):
    with open(path, newline="") as handle:
        return list(csv.reader(line for line in handle if not line.startswith("#")))


def read_store(records_dir: Path) -> Store:
    """Parse every store file; rows of the wrong width are reported, not kept."""
    measures: list[str] = []
    rows: dict[tuple, StoreRow] = {}
    malformed: list[str] = []
    for path in sorted(records_dir.glob("*.csv")):
        lines = _data_lines(path)
        if not lines or tuple(lines[0][: len(ID_COLUMNS)]) != ID_COLUMNS:
            malformed.append(f"{path.name}: missing or unknown header")
            continue
        header = lines[0]
        names = header[len(ID_COLUMNS):]
        if measures and names != measures:
            malformed.append(f"{path.name}: measure columns differ between files")
        measures = measures or names
        for lineno, row in enumerate(lines[1:], start=2):
            if len(row) != len(header):
                malformed.append(f"{path.name}: row {lineno} has {len(row)} fields")
                continue
            base = dict(zip(ID_COLUMNS, row))
            try:
                params = dict(p.split("=", 1) for p in base["params"].split())
                key = (base["table"], base["anomaly_class"], int(base["grid_index"]),
                       int(base["repetition"]))
            except ValueError:
                malformed.append(f"{path.name}: row {lineno} has unreadable ids")
                continue
            rows[key] = StoreRow(
                key=key, detector=base["detector"], params=params,
                contamination=base["contamination"],
                values=dict(zip(names, row[len(ID_COLUMNS):])), flags=base["flags"],
            )
    return Store(measures=measures, rows=rows, malformed=malformed)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def bad_cells(store: Store, expected: list[tuple], n_measures: int) -> set[tuple]:
    """Expected cells that are absent, flagged, or hold a non-numeric value."""
    if store.malformed or len(store.measures) != n_measures:
        return set(expected)
    bad = set()
    for key in expected:
        row = store.rows.get(key)
        if row is None or row.flags or not all(_is_number(v) for v in row.values.values()):
            bad.add(key)
    return bad


def table_problems(tables_dir: Path, measures: list[str]) -> list[str]:
    """Shape check: measures x detectors rows for rank, measures^2 for the rest."""
    problems = []
    pairs = [[a, b] for a in measures for b in measures]
    for kind in TABLE_KINDS:
        path = tables_dir / f"{kind}_c0.csv"
        if not path.is_file() or not (tables_dir / f"{kind}_c0.txt").is_file():
            problems.append(f"{kind}: table file missing")
            continue
        body = _data_lines(path)[1:]
        if kind == "rank":
            want = [[m, d] for m in measures for d in DETECTORS]
            got = [r[:2] for r in body]
            numeric = [r[2:4] for r in body]
        else:
            want, got, numeric = pairs, [r[:2] for r in body], [r[2:3] for r in body]
        if got != want:
            problems.append(f"{kind}: {len(got)} rows, expected {len(want)} in grid order")
        elif not all(_is_number(v) for r in numeric for v in r):
            problems.append(f"{kind}: non-numeric value")
    return problems


def pairwise_auc(labels: list[int], scores: list[float]) -> float:
    """AUC by counting every (anomaly, normal) pair; ties count one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = sorted(s for s, y in zip(scores, labels) if y == 0)
    total = 0.0
    for p in pos:
        below = sum(1 for n in neg if n < p)
        tied = sum(1 for n in neg if n == p)
        total += below + 0.5 * tied
    return total / (len(pos) * len(neg))


def _detector_flags(row: StoreRow) -> list[str]:
    if row.detector == "knn":
        return ["--detector", "knn", "--variant", row.params["variant"], "--k", row.params["k"]]
    if row.detector == "lof":
        return ["--detector", "lof", "--k", row.params["k"]]
    return ["--detector", "iforest", "--trees", row.params["n_trees"],
            "--subsample", row.params["subsample"]]


def sample_cells(store: Store, seed: int, per_detector: int = 2) -> list[StoreRow]:
    """Seeded sample of stored cells, ``per_detector`` of each family."""
    rng = random.Random(seed)
    chosen = []
    for detector in DETECTORS:
        keys = sorted(k for k, r in store.rows.items() if r.detector == detector)
        chosen += [store.rows[k] for k in rng.sample(keys, min(per_detector, len(keys)))]
    return chosen


def _cli(cli_main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli_main(argv)
    return code, out.getvalue()


def recompute_problems(
    cli_main, store: Store, cache: Path, scratch: Path, seed: int,
    master_seed: int, alphas: list[str], volume_samples: int,
) -> tuple[list[str], list[tuple]]:
    """Reproduce sampled cells through ``adeval scores`` and ``adeval volume``.

    Returns problem messages and the keys of the cells they concern.
    """
    problems, keys = [], []
    sample = sample_cells(store, seed)
    rng = random.Random(seed + 1)
    volume_row, alpha = rng.choice(sample), rng.choice(alphas)
    scratch.mkdir(parents=True, exist_ok=True)
    for i, row in enumerate(sample):
        table, anomaly_class, _, rep = row.key
        split_flags = [
            "--dataset", str(cache), "--benchmark", f"{table}-{anomaly_class}",
            *_detector_flags(row), "--contamination", row.contamination,
            "--seed", str(master_seed), "--rep", str(rep),
        ]
        out = scratch / f"scores{i}.csv"
        code, text = _cli(cli_main, ["scores", *split_flags, "--out", str(out)])
        if code != 0:
            problems.append(f"scores {row.key}: exit {code}: {text.strip()[-200:]}")
            keys.append(row.key)
            continue
        body = _data_lines(out)[1:]
        labels = [1 if sid.startswith("a") else 0 for sid, _ in body]
        oracle = pairwise_auc(labels, [float(s) for _, s in body])
        stored = float(row.values["AUC"])
        if abs(oracle - stored) > AUC_TOLERANCE:
            problems.append(f"AUC {row.key}: stored {stored!r}, pairwise {oracle!r}")
            keys.append(row.key)
        if row is volume_row:
            code, text = _cli(cli_main, [
                "volume", *split_flags, "--alpha", alpha, "--n", str(volume_samples),
            ])
            lines = dict(line.split(",", 1) for line in text.splitlines() if "," in line)
            stored_cvol = row.values[f"CVOL@{alpha}"]
            if code != 0 or lines.get("cvol") != stored_cvol:
                problems.append(
                    f"CVOL@{alpha} {row.key}: stored {stored_cvol}, "
                    f"volume gives {lines.get('cvol')} (exit {code})"
                )
                keys.append(row.key)
    return problems, keys
