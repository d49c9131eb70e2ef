#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of an ``adeval`` study.

One run generates seeded synthetic multiclass tables for a workload and
drives the public ``adeval`` command line on them in one process, one stage
after another (a closed loop with a single client):

    prepare -> run --workers 1 -> aggregate rank|kendall|loss|multiclass

Usage (from the repository root; the package is imported from ``src/``):

    python3 perfbench/run.py --workload smoke --seed 1 --seconds 20 --trace 0

Set-up (synthesis + ``prepare``) is repeated and its median reported.  The
study (``run`` into an empty directory, then the four aggregates) is then
repeated until ``--seconds`` have passed, at least ``MIN_ITERATIONS`` times,
and every timing is reported as a median.  A fixed calibration kernel runs
around each timed study stage, and those timings are scaled by the machine
speed it measures (see ``calibrate``).  With ``--trace 1`` untraced and
traced iterations alternate: the traced ones wrap the public functions of
each ``adeval`` module (see ``spans.py``) and give the per-layer metrics, and
the gap between the two kinds is reported as tracing overhead.

After the timed loop the outputs are checked (``checks.py``): every expected
cell present and unflagged, table shapes, a resumed ``run`` that adds
nothing, AUC of sampled cells against a pairwise count, and one CVOL value
against ``adeval volume``.  Store and table digests must repeat across
iterations and across runs of the same code and seed.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count grid cells, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from checks import (
    bad_cells, read_store, recompute_problems, table_problems, tree_digest,
)
from spans import AGGREGATE_KINDS, Tracer, layer_metrics, layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 15
MIN_ITERATIONS = 2
# A fixed scale: the calibration kernel's time in one measurement on a 2-vCPU
# x86_64 machine (numpy 2.4, scipy 1.17).  run_s and aggregate_s are wall
# seconds times REFERENCE_S / (kernel seconds measured around them), so drift
# in the machine's speed cancels out: see METRICS.md.
REFERENCE_S = 0.044


@dataclass(frozen=True)
class Workload:
    """A study shape: raw tables to synthesize and the grid settings for ``run``.

    Expected cells and measures are counted here, from the settings and the
    documented ``GridConfig`` defaults, not by asking adeval.
    """

    name: str
    tables: int
    sizes: tuple[int, ...]  # class sizes per table; the first class is normal
    dim: int
    grid: dict[str, str]  # ``run --set`` keys besides paths and master_seed

    def value(self, key: str, default: str) -> str:
        return self.grid.get(key, default)

    @property
    def alphas(self) -> list[str]:
        return self.value("alphas", "0.01,0.05").split(",")

    @property
    def n_measures(self) -> int:
        """AUC, AUC_w, four curve measures per alpha and precision per p."""
        return 2 + 4 * len(self.alphas) + len(self.value("ps", "0.01,0.05").split(","))

    @property
    def n_combos(self) -> int:
        def count(key: str, default: str) -> int:
            return len(self.value(key, default).split(","))

        knn = count("knn_variants", "kappa,gamma,delta") * count("knn_ks", "1,3,5,7,9,13,21,31,51")
        return knn + count("lof_ks", "10,20,50") + count("iforest_trees", "50,100,200")

    def digest(self) -> str:
        """Identifies the inputs and settings, so digests are compared like for like."""
        spec = [self.name, self.tables, self.sizes, self.dim, sorted(self.grid.items())]
        return hashlib.sha256(json.dumps(spec).encode()).hexdigest()[:16]

    def toy(self) -> "Workload":
        """The same tables with ``TOY_GRID``: a few-second study for the self-test."""
        return replace(self, grid={**self.grid, **TOY_GRID})

    def expected_cells(self) -> list[tuple]:
        reps = int(self.value("repetitions", "10"))
        return [
            (f"tab{t}", f"c{c}", g, r)
            for t in range(self.tables) for c in range(1, len(self.sizes))
            for g in range(self.n_combos) for r in range(reps)
        ]


# Why each workload exists, and how its size was chosen: METRICS.md.
WORKLOADS = {
    w.name: w for w in (
        # Many tiny cells: per-cell overhead and isolation forest.
        Workload("smoke", 1, (90, 40, 30), 2, {"repetitions": "2", "volume_samples": "2000"}),
        # Few large 8-D cells: kNN volume scoring and memory.
        Workload("wide", 1, (600, 75, 75), 8, {"repetitions": "1", "volume_samples": "900"}),
        # Four FPR budgets, 22 measures: aggregate and store reads.
        Workload(
            "levels", 1, (300, 40, 40, 40), 4,
            {"knn_ks": "1,5,21", "lof_ks": "10", "iforest_trees": "50",
             "alphas": "0.01,0.05,0.1,0.2", "ps": "0.01,0.05,0.1,0.2",
             "repetitions": "2", "volume_samples": "256"},
        ),
    )
}

# Grid used by the self-test: every workload shape, a few-second study.
TOY_GRID = {"knn_ks": "1,3", "lof_ks": "5", "iforest_trees": "10",
            "volume_samples": "200", "repetitions": "1"}


_CAL_RNG = np.random.default_rng(0)
_CAL_X, _CAL_Y = _CAL_RNG.normal(size=(400, 8)), _CAL_RNG.normal(size=(480, 8))


def _kernel() -> float:
    """Fixed work shaped like adeval's: dict and list churn, small numpy calls, cdist."""
    rows = [{"a": float(i), "b": float(2 * i), "c": i % 7} for i in range(10000)]
    groups: dict[int, list[float]] = {}
    for row in rows:
        groups.setdefault(row["c"], []).append(row["a"] + row["b"])
    total = sum(float(np.mean(v[:50])) for v in groups.values() for _ in range(150))
    order = np.argsort(cdist(_CAL_X, _CAL_Y), axis=1, kind="stable")
    return total + float(order[0, 0])


def calibrate() -> float:
    """Current machine speed as REFERENCE_S / kernel seconds (median of three)."""
    times = []
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class StageFailed(Exception):
    """An ``adeval`` command exited non-zero."""


def import_adeval():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "adeval"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no adeval sources at {package}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import adeval

    if Path(adeval.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported adeval from {adeval.__file__}, not {package}")
    return adeval


def tail_text(values: list[float], unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit} (n={n}"
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return f"{text}, p{pct} {cut:.6g} {unit})"
    return f"{text}; too few samples for a tail percentile)"


class Study:
    """One workload at one seed: set-up, timed iterations and output checks."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        from adeval.cli import main as cli_main

        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.work = work
        self.expected = workload.expected_cells()

    def cli(self, argv: list[str]) -> tuple[float, str]:
        """Run one command in-process; returns its wall time and output."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = time.perf_counter()
            code = self.cli_main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            raise StageFailed(f"adeval {argv[0]} exited {code}: {out.getvalue()[-400:]}")
        return elapsed, out.getvalue()

    def table_seeds(self) -> list[int]:
        return [self.seed * 1000 + t for t in range(self.workload.tables)]

    def setup(self, target: Path) -> float:
        """Synthesize the raw tables, then ``adeval prepare``; returns seconds."""
        from adeval.datasets import synth_multiclass_table, write_raw_table

        wl = self.workload
        raw = target / "raw"
        gc.collect()
        start = time.perf_counter()
        raw.mkdir(parents=True)
        for t, table_seed in enumerate(self.table_seeds()):
            table = synth_multiclass_table(f"tab{t}", wl.sizes, dim=wl.dim, seed=table_seed)
            write_raw_table(table, raw / f"tab{t}.csv")
        self.cli(["prepare", str(raw), str(target / "cache")])
        return time.perf_counter() - start

    def run_argv(self, cache: Path, out: Path) -> list[str]:
        argv = ["run", "--workers", "1",
                "--set", f"dataset_dir={cache}", "--set", f"output_dir={out}",
                "--set", f"master_seed={self.seed}"]
        for key, value in self.workload.grid.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def study(self, cache: Path, out: Path) -> dict:
        """``run`` into an empty directory, then the four aggregates.

        Returns each stage's wall seconds and the same scaled by the machine
        speed measured just before and just after it.
        """
        speed = [calibrate()]
        gc.collect()  # every timed command starts from a collected heap
        run_wall, _ = self.cli(self.run_argv(cache, out))
        speed.append(calibrate())
        aggregate_wall = 0.0
        for kind in AGGREGATE_KINDS:
            gc.collect()
            aggregate_wall += self.cli(["aggregate", kind, str(out)])[0]
        speed.append(calibrate())
        return {
            "run_s": run_wall * (speed[0] + speed[1]) / 2,
            "aggregate_s": aggregate_wall * (speed[1] + speed[2]) / 2,
            "run_wall_s": run_wall, "aggregate_wall_s": aggregate_wall, "speed": speed,
        }

    def traced_study(self, raw: Path, target: Path) -> tuple[dict, Tracer]:
        """``prepare`` into a fresh cache, then :meth:`study`, all under a tracer."""
        with Tracer() as tracer:
            self.cli(["prepare", str(raw), str(target / "cache")])
            times = self.study(target / "cache", target / "out")
        return times, tracer


def source_digest() -> str:
    return tree_digest(SRC / "adeval", "**/*.py")


def environment(adeval, study: Study) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        import subprocess

        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "adeval": adeval.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "commit": commit, "source_sha256": source_digest(),
        "seeds": {"workload": study.seed, "master_seed": study.seed,
                  "tables": study.table_seeds()},
    }


def check_iteration(study: Study, out: Path) -> dict:
    store = read_store(out / "records")
    return {
        "bad": bad_cells(store, study.expected, study.workload.n_measures),
        "store_sha256": tree_digest(out / "records", "*.csv"),
        "tables_sha256": tree_digest(out / "tables", "*"),
    }


def final_checks(study: Study, last: dict) -> tuple[list[str], set, bool]:
    """Tables, resumed run and recomputed values of the last iteration.

    Returns problems, the keys of cells they concern and whether the whole
    study is suspect (a table or resume problem).
    """
    out, cache = last["out"], last["cache"]
    store = read_store(out / "records")
    problems = table_problems(out / "tables", store.measures)
    whole = bool(problems)
    before = tree_digest(out / "records", "*.csv")
    try:
        _, text = study.cli(study.run_argv(cache, out))
        if " 0 new," not in text or tree_digest(out / "records", "*.csv") != before:
            problems.append("a resumed run changed the finished store")
            whole = True
    except StageFailed as exc:
        problems.append(f"resumed run failed: {exc}")
        whole = True
    found, keys = recompute_problems(
        study.cli_main, store, cache, study.work / "recompute", study.seed,
        master_seed=study.seed, alphas=study.workload.alphas,
        volume_samples=int(study.workload.value("volume_samples", "100000")),
    )
    return problems + found, set(keys), whole


def ledger_problem(key: str, digests: dict) -> str | None:
    """Compare with earlier runs of the same source, workload, scale and seed."""
    path = WORK / "digests.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    seen = ledger.setdefault(key, digests)
    if seen != digests:
        return f"digests differ from an earlier run of the same code and seed: {seen} != {digests}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return None


def measure(study: Study, seconds: int, trace: bool, spans_path: Path) -> dict:
    work, wl = study.work, study.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_s = []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
        setup_s.append(study.setup(work / f"setup{i}"))
    base = work / f"setup{SETUP_REPEATS - 1}"
    spans_path.unlink(missing_ok=True)

    iterations: list[dict] = []
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        i = len(iterations)
        target = work / f"iter{i}"
        traced = trace and i % 2 == 1
        record: dict = {"traced": traced, "out": target / "out",
                        "cache": (target if traced else base) / "cache"}
        try:
            if traced:
                times, tracer = study.traced_study(base / "raw", target)
                record["layers"], record["bases"] = layer_metrics(
                    tracer, len(study.expected), int(wl.value("volume_samples", "100000"))
                )
                record["absent"] = tracer.absent
                tracer.write_spans(spans_path, f"{wl.name}-s{study.seed}-iter{i}")
            else:
                times = study.study(record["cache"], record["out"])
        except StageFailed as exc:
            record["error"] = str(exc)
            iterations.append(record)
            break
        record.update(**times, **check_iteration(study, record["out"]))
        if iterations and "error" not in iterations[-1]:
            shutil.rmtree(work / f"iter{i - 1}")
        iterations.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "iterations": iterations, "peak_rss_mb": peak_rss_mb}


def evaluate(study: Study, measured: dict) -> dict:
    """Apply every output check; failed cells are counted per iteration."""
    iterations = measured["iterations"]
    all_cells = set(study.expected)
    problems: list[str] = []
    bad = []
    for i, it in enumerate(iterations):
        if "error" in it:
            problems.append(f"iteration {i}: {it['error']}")
            bad.append(all_cells)
            continue
        cells = set(it["bad"])
        if cells:
            problems.append(f"iteration {i}: {len(cells)} cells missing, flagged or malformed")
        first = iterations[0]
        if "error" not in first and (it["store_sha256"], it["tables_sha256"]) != (
                first["store_sha256"], first["tables_sha256"]):
            problems.append(f"iteration {i}: store or table digest differs from iteration 0")
            cells = all_cells
        bad.append(cells)
    traced = [it for it in iterations if it.get("layers")]
    counts = [{k: v for k, v in it["layers"].items() if not k.endswith("self_s")} for it in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced iterations of one seed")
        bad[-1] = all_cells
    good = [i for i, it in enumerate(iterations) if "error" not in it]
    if good:
        last = good[-1]
        found, keys, whole = final_checks(study, iterations[last])
        problems += found
        bad[last] = all_cells if whole else bad[last] | keys
        it = iterations[last]
        digests = {"store_sha256": it["store_sha256"], "tables_sha256": it["tables_sha256"]}
        key = f"{source_digest()}/{study.workload.digest()}/{study.seed}"
        mismatch = ledger_problem(key, digests)
        if mismatch:
            problems.append(mismatch)
            bad = [all_cells for _ in bad]
    attempted = len(all_cells) * len(iterations)
    return {"problems": problems, "attempted": attempted, "failed": sum(len(b) for b in bad)}


END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "cells_per_s": "cells/s", "aggregate_s": "s",
    "peak_rss_mb": "MiB",
}


def report(study: Study, measured: dict, verdict: dict, trace: bool, env: dict) -> dict:
    """Print the human-readable report; return the result object."""
    wl, iterations = study.workload, measured["iterations"]
    plain = [it for it in iterations if not it["traced"] and "run_s" in it]
    traced = [it for it in iterations if it.get("layers")]
    cells = len(study.expected)
    samples = {
        "setup_s": measured["setup_s"],
        "run_s": [it["run_s"] for it in plain],
        "cells_per_s": [cells / it["run_s"] for it in plain],
        "aggregate_s": [it["aggregate_s"] for it in plain],
    }
    wall = {
        "run_s": [it["run_wall_s"] for it in plain],
        "aggregate_s": [it["aggregate_wall_s"] for it in plain],
    }
    speeds = [v for it in iterations for v in it.get("speed", [])]
    print(f"workload {wl.name}, seed {study.seed}: {wl.tables} tables {wl.sizes} in {wl.dim}-D, "
          f"{cells} cells per study, {len(iterations)} studies ({len(traced)} traced)")
    end_to_end = {}
    for name, unit in END_TO_END_UNITS.items():
        if name == "peak_rss_mb":
            value = measured["peak_rss_mb"]
            print(f"  {name:<14} {value:.6g} {unit} (one process)")
        elif samples[name]:
            value = statistics.median(samples[name])
            extra = f", wall median {statistics.median(wall[name]):.6g} s" if name in wall else ""
            print(f"  {name:<14} {tail_text(samples[name], unit)}{extra}")
        else:
            continue
        end_to_end[name] = {"value": value, "unit": unit}
    print(f"  machine speed  median {statistics.median(speeds):.4g} of reference "
          f"(min {min(speeds):.4g}, max {max(speeds):.4g}, n={len(speeds)}); "
          "run_s and aggregate_s are wall seconds times speed")
    failed_cells = verdict["failed"] / verdict["attempted"]
    print(f"  {'failed_cells':<14} {failed_cells:.6g} fraction "
          f"({verdict['failed']} of {verdict['attempted']} cells)")
    for problem in verdict["problems"]:
        print(f"  check failed: {problem}")
    if not verdict["problems"]:
        print("  output check: passed (cells, tables, resume, AUC oracle, CVOL, digests)")
    last = next((it for it in reversed(iterations) if "store_sha256" in it), {})
    print(f"  store sha256 {last.get('store_sha256')}  tables sha256 {last.get('tables_sha256')}")
    print("  env: " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "seeds")
          + f", seeds {env['seeds']}")

    per_layer = {}
    if traced:
        per_layer = {
            name: {"value": statistics.median([it["layers"][name] for it in traced]), "unit": unit}
            for name, unit in layer_names()
        }
        print("  per-layer (median over traced studies):")
        for name, metric in per_layer.items():
            print(f"    {name:<40} {metric['value']:.6g} {metric['unit']}")
        for name, base in traced[-1]["bases"].items():
            print(f"    base of {name}: {base}")
        if traced[-1]["absent"]:
            print(f"    not traced, absent from this adeval: {', '.join(traced[-1]['absent'])}")
        if plain:
            untraced = statistics.median([it["run_s"] + it["aggregate_s"] for it in plain])
            with_spans = statistics.median([it["run_s"] + it["aggregate_s"] for it in traced])
            overhead = with_spans / untraced - 1.0
            print(f"  tracing overhead: {with_spans:.4f} s traced vs {untraced:.4f} s untraced "
                  f"run+aggregate ({overhead:+.2%})")
            per_layer["trace.overhead"] = {"value": overhead, "unit": "fraction"}
    return {
        "correct": not verdict["problems"], "attempted": verdict["attempted"],
        "failed": verdict["failed"], "metrics": per_layer if trace else end_to_end,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true",
                        help="few-second grid for the self-test (not a measurement)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    adeval = import_adeval()
    workload = WORKLOADS[args.workload]
    scale = "toy" if args.toy else "full"
    if args.toy:
        workload = workload.toy()
    tag = f"{workload.name}-{scale}-s{args.seed}"
    study = Study(workload, args.seed, WORK / f"{tag}-t{args.trace}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        measured = measure(study, args.seconds, bool(args.trace), results / f"spans-{tag}.jsonl")
    except StageFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    verdict = evaluate(study, measured)
    env = environment(adeval, study)
    result = report(study, measured, verdict, bool(args.trace), env)
    last = measured["iterations"][-1]
    detail = {
        "workload": workload.name, "scale": scale, "seed": args.seed, "trace": args.trace,
        "env": env, "result": result, "problems": verdict["problems"],
        "setup_s": measured["setup_s"], "peak_rss_mb": measured["peak_rss_mb"],
        "input_sha256": tree_digest(study.work / f"setup{SETUP_REPEATS - 1}" / "raw", "*.csv"),
        "last_study": {"out": str(last["out"]), "cache": str(last["cache"])},
        "iterations": [
            {k: v for k, v in it.items() if k not in ("bad", "out", "cache")}
            for it in measured["iterations"]
        ],
    }
    (results / f"{tag}-t{args.trace}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
