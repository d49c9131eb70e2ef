import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from itertools import starmap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import adeval
from adeval import cli, experiments
from adeval.cli import main, read_config_file, resolve_config
from adeval.curves import auc_rows, tpr_at_rows
from adeval.datasets import (
    RawTable, SplitSpec, load_tables, minmax_scaled_table, prepare_table, read_raw_table,
    split, synth_gaussian, synth_multiclass_table, write_raw_table,
)
from adeval.experiments import RecordStore
from _oracles import rank_reference, repetition_means, selection_loss_reference
from test_curves import one_row
from test_experiments import stored_rows

CONFIG_TEXT = """\
# small study used across the CLI tests
dataset_dir = {cache}
output_dir = {run}
knn_variants = kappa
knn_ks = 1,3
lof_ks =
iforest_trees =
alphas = 0.05
ps = 0.05
contaminations = 0.0
repetitions = 2
volume_samples = 400
master_seed = 7
"""


def write_tables(raw_dir, n_tables=2, sizes=(60, 25, 20)):
    raw_dir.mkdir(parents=True, exist_ok=True)
    for i in range(n_tables):
        table = synth_multiclass_table(
            f"tab{i}", sizes, dim=3, shift=3.0, seed=100 + i
        )
        write_raw_table(table, raw_dir / f"tab{i}.csv")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """One prepared cache plus one finished run, shared by read-only tests."""
    root = tmp_path_factory.mktemp("study")
    write_tables(root / "raw")
    assert main(["prepare", str(root / "raw"), str(root / "cache")]) == 0
    config = root / "study.cfg"
    config.write_text(CONFIG_TEXT.format(cache=root / "cache", run=root / "run"))
    assert main(["run", "--config", str(config)]) == 0
    return SimpleNamespace(root=root, cache=root / "cache", run=root / "run", config=config)


@pytest.fixture(scope="module")
def lof_iforest_study(tmp_path_factory):
    """The study above on one table, with one LOF and two forest combos instead of kNN."""
    root = tmp_path_factory.mktemp("lof_iforest_study")
    write_tables(root / "raw", n_tables=1)
    assert main(["prepare", str(root / "raw"), str(root / "cache")]) == 0
    config = root / "study.cfg"
    text = CONFIG_TEXT.format(cache=root / "cache", run=root / "run")
    text = text.replace("knn_ks = 1,3", "knn_ks =").replace("lof_ks =", "lof_ks = 5")
    config.write_text(text.replace("iforest_trees =", "iforest_trees = 10,20"))
    assert main(["run", "--config", str(config)]) == 0
    return SimpleNamespace(root=root, cache=root / "cache", run=root / "run", config=config)


def read_band(directory):
    """(fpr, tpr_mean) of the one band file in ``directory``."""
    (path,) = directory.glob("rocband_*.csv")
    with open(path, newline="") as handle:
        rows = [r for r in csv.reader(handle) if not r[0].startswith("#")][1:]
    return np.array([float(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def scored_curve(scored):
    """The ROC staircase of the ``id,score`` rows `adeval scores` prints."""
    return one_row([int(sid.startswith("a")) for sid, _ in scored],
                   [float(value) for _, value in scored]).curve


def cell_tpr_mean(cache, flags, fpr, capsys):
    """Mean TPR at ``fpr`` of the curves `adeval scores` gives for tab0-c1 at reps 0 and 1."""
    curves = []
    for rep in ("0", "1"):
        assert main(["scores", "--dataset", str(cache), "--benchmark", "tab0-c1",
                     *flags, "--seed", "7", "--rep", rep]) == 0
        scored = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        curves.append(scored_curve(scored))
    return np.array([tpr_at_rows(curve, fpr)[:, 0] for curve in curves]).mean(axis=0)


def cached(cache, name):
    """The benchmark of the cache whose full name is ``name``."""
    (table,) = load_tables(cache, [name])
    (bench,) = table.benchmarks()
    return bench


def shift_first_anomaly(source, target, anomaly_class):
    """Write the cached table ``source`` to ``target``, its first ``anomaly_class`` row moved."""
    table = read_raw_table(source)
    features = table.features.copy()
    features[table.classes.index(anomaly_class), 0] += 0.25
    write_raw_table(dataclasses.replace(table, features=features), target)


def read_store_bytes(run_dir):
    return {p.name: p.read_bytes() for p in sorted((run_dir / "records").glob("*.csv"))}


def stored_records(run_dir):
    """The run's records, loaded under the hash in its manifest."""
    hash_ = json.loads((run_dir / "manifest.json").read_text())["hash"]
    return stored_rows(RecordStore(run_dir / "records", manifest_hash=hash_).load())


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


class TestPrepare:
    def test_writes_one_file_per_table(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=2)
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "tab0-c1" in out and "tab0-c2" in out and "prepared 4 benchmarks" in out
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == ["tab0.csv", "tab1.csv"]

    @pytest.mark.parametrize("flags", [[], ["--minmax"]], ids=["raw", "minmax"])
    def test_cache_round_trip_is_exact(self, tmp_path, flags):
        write_tables(tmp_path / "raw")
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache"), *flags]) == 0
        tables = [read_raw_table(p) for p in sorted((tmp_path / "raw").glob("*.csv"))]
        if flags:
            tables = [minmax_scaled_table(t) for t in tables]
        made = [b for t in tables for b in prepare_table(t).benchmarks()]
        back = [b for t in load_tables(tmp_path / "cache") for b in t.benchmarks()]
        assert [b.name for b in back] == [b.name for b in made]
        for b, m in zip(back, made):
            assert b.normal.tobytes() == m.normal.tobytes()
            assert b.anomaly.tobytes() == m.anomaly.tobytes()
        assert back[0].normal is back[1].normal and back[2].normal is back[3].normal

    def test_rerun_reports_up_to_date(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1)
        main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")])
        before = {p: p.read_bytes() for p in (tmp_path / "cache").rglob("*")}
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 0
        assert "up to date (2 benchmarks)" in capsys.readouterr().out
        assert {p: p.read_bytes() for p in (tmp_path / "cache").rglob("*")} == before

    def test_empty_input_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "raw").mkdir()
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 2
        assert not (tmp_path / "cache").exists()
        assert "no raw tables" in capsys.readouterr().err

    def test_malformed_table_aborts_with_line_number(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1)
        (tmp_path / "raw" / "bad.csv").write_text("f0,class\n1.0,a\nbroken\n")
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 2
        assert "line 3" in capsys.readouterr().err
        # The well-formed table must not have been cached either.
        assert not (tmp_path / "cache").exists()

    def test_empty_class_field_aborts_with_line_number(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1)
        (tmp_path / "raw" / "t.csv").write_text("f0,class\n1.0,n\n2.0,n\n3.0,a\n4.0,\n5.0, \n")
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 2
        assert "t.csv: line 5: empty class field" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_classes_that_make_one_name_are_refused(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1)
        classes = ("n",) * 20 + ("c/1",) * 4 + ("c_1",) * 6
        table = RawTable("tab", np.arange(60.0).reshape(30, 2), classes)
        write_raw_table(table, tmp_path / "raw" / "tab.csv")
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 2
        assert "two classes of table 'tab' make benchmark 'tab-c_1'" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_tables_that_make_one_file_are_refused(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1)
        for name in ("tab 0.csv", "tab_0.csv"):
            shutil.copy(tmp_path / "raw" / "tab0.csv", tmp_path / "raw" / name)
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 2
        assert "tables tab 0.csv and tab_0.csv both prepare into" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_the_input_directory_is_refused_as_the_cache(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1)
        before = {p.name: p.read_bytes() for p in (tmp_path / "raw").iterdir()}
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "raw" / ".." / "raw"),
                     "--minmax"]) == 2
        assert "is the input directory" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in (tmp_path / "raw").iterdir()} == before

    def test_cache_path_that_is_a_file_exits_two(self, tmp_path, capsys):
        # An OSError is a usage error (2), not the flagged-cells code (1).
        write_tables(tmp_path / "raw", n_tables=1)
        (tmp_path / "cachefile").write_text("not a directory\n")
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cachefile")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "cachefile").read_text() == "not a directory\n"

    def test_minmax_scales_each_table(self, tmp_path):
        write_tables(tmp_path / "raw", n_tables=1)
        assert main(
            ["prepare", str(tmp_path / "raw"), str(tmp_path / "cache"), "--minmax"]
        ) == 0
        bench = cached(tmp_path / "cache", "tab0-c1")
        points = np.vstack([bench.normal, bench.anomaly])
        assert points.min() >= 0.0 and points.max() <= 1.0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


class TestConfigFile:
    def test_readme_study_cfg_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "study.cfg"
        path.write_text(block)
        cfg, run_keys = resolve_config(read_config_file(path))
        assert run_keys == {"dataset_dir": "cache", "output_dir": "out"}
        assert cfg.alphas == (0.01, 0.05)
        assert cfg.ps == (0.01, 0.05)
        assert cfg.contaminations == (0.0,)
        assert cfg.knn_ks == (1, 3, 5, 7, 9, 13, 21, 31, 51)
        assert cfg.repetitions == 10 and cfg.volume_samples == 100_000
        assert cfg.validation_fraction == 0.0

    def test_inline_comment_needs_leading_whitespace(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text("output_dir = out#1   # where records go\n\t# indented comment\n")
        assert read_config_file(path) == {"output_dir": "out#1"}


class TestRun:
    def test_manifest_written_and_store_complete(self, study):
        manifest = json.loads((study.run / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["hash"]
        files = read_store_bytes(study.run)
        assert len(files) == 4  # one file per (benchmark, detector)
        for blob in files.values():
            assert blob.decode().startswith(f"# manifest: {manifest['hash']}\n")
        # minus the manifest comment and the header row per file
        data_rows = sum(len(b.decode().strip().splitlines()) - 2 for b in files.values())
        assert data_rows == 16  # 4 benchmarks x 2 combos x 2 repetitions

    def test_rerun_is_noop_and_byte_identical(self, study, capsys):
        before = read_store_bytes(study.run)
        assert main(["run", "--config", str(study.config)]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out and "0 new" in out
        assert read_store_bytes(study.run) == before

    def test_output_path_that_is_a_file_exits_two(self, study, tmp_path, capsys):
        # An OSError is a usage error (2), not the flagged-cells code (1).
        (tmp_path / "outfile").write_text("not a directory\n")
        assert main(["run", "--config", str(study.config),
                     "--out", str(tmp_path / "outfile")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert (tmp_path / "outfile").read_text() == "not a directory\n"

    def test_only_names_that_select_nothing_are_refused(self, study, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={run_dir}",
                     "--set", "only=tab0-c1,tab0-c9,ghost"]) == 2
        err = capsys.readouterr().err
        assert "tab0-c9, ghost" in err and "tab0-c1" not in err
        assert not (run_dir / "manifest.json").exists()

    def test_store_files_of_another_run_are_refused(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1)
        cache, run_dir = tmp_path / "cache", tmp_path / "run"
        assert main(["prepare", str(tmp_path / "raw"), str(cache)]) == 0
        config = tmp_path / "study.cfg"
        config.write_text(CONFIG_TEXT.format(cache=cache, run=run_dir))
        assert main(["run", "--config", str(config), "--set", "master_seed=0"]) == 0
        (run_dir / "manifest.json").unlink()
        before = read_store_bytes(run_dir)
        capsys.readouterr()
        # Without the manifest, the store files still carry the seed-0 run's hash.
        assert main(["run", "--config", str(config), "--set", "master_seed=1"]) == 2
        err = capsys.readouterr().err
        assert "another run" in err and any(name in err for name in before)
        assert read_store_bytes(run_dir) == before
        # The refused run wrote no manifest, so the files' own run still resumes.
        assert not (run_dir / "manifest.json").exists()
        assert main(["run", "--config", str(config), "--set", "master_seed=0"]) == 0
        assert "0 new" in capsys.readouterr().out
        # Beside the manifest of a seed-1 run, aggregate refuses the seed-0 files too.
        other = tmp_path / "other"
        assert main(["run", "--config", str(config), "--set", "master_seed=1",
                     "--set", f"output_dir={other}"]) == 0
        shutil.copy(other / "manifest.json", run_dir / "manifest.json")
        capsys.readouterr()
        assert main(["aggregate", "rank", str(run_dir)]) == 2
        assert "another run" in capsys.readouterr().err
        assert not (run_dir / "tables").exists()

    def test_fresh_directory_reproduces_store_bytes(self, study):
        run2 = study.root / "run2"
        assert main(
            ["run", "--config", str(study.config), "--set", f"output_dir={run2}"]
        ) == 0
        assert read_store_bytes(run2) == read_store_bytes(study.run)

    def test_worker_flag_reproduces_store_bytes(self, study):
        run3 = study.root / "run3"
        assert main(
            [
                "run",
                "--config",
                str(study.config),
                "--set",
                f"output_dir={run3}",
                "--workers",
                "3",
            ]
        ) == 0
        assert read_store_bytes(run3) == read_store_bytes(study.run)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_worker_count_below_one_is_rejected(self, study, tmp_path, capsys, workers):
        out = tmp_path / "run"
        code = main(["run", "--config", str(study.config), "--set", f"output_dir={out}",
                     "--workers", workers])
        assert code == 2
        assert "--workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def pool_sizes(monkeypatch):
        """Record (size, task count) of every worker pool; the pool runs its tasks in-process."""
        import concurrent.futures

        sizes = []

        class Pool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                tasks = list(zip(*iterables))
                sizes.append((self.max_workers, len(tasks)))
                return starmap(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        return sizes

    def test_default_worker_count_is_the_cpu_affinity(self, study, tmp_path, monkeypatch):
        sizes = self.pool_sizes(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        out = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={out}"]) == 0
        assert sizes == []  # one usable CPU runs the grid in this process
        assert read_store_bytes(out) == read_store_bytes(study.run)

    @pytest.mark.parametrize("workers, pool", [
        ("3", (3, 4)),  # one block per (table, repetition): 2 tables x 2 repetitions
        # The blocks come from the input alone: at contamination 0 each is a
        # whole table's shared fit, whatever the worker count.
        ("16", (4, 4)),
    ])
    def test_pool_is_no_larger_than_the_block_count(self, study, tmp_path, monkeypatch,
                                                    workers, pool):
        sizes = self.pool_sizes(monkeypatch)
        out = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={out}",
                     "--workers", workers]) == 0
        assert sizes == [pool]
        assert read_store_bytes(out) == read_store_bytes(study.run)

    def test_changed_config_against_same_store_is_refused(self, study, capsys):
        code = main(
            ["run", "--config", str(study.config), "--set", "master_seed=99"]
        )
        assert code == 2
        assert "different run" in capsys.readouterr().err

    def test_resume_against_changed_benchmark_data_is_refused(self, study, tmp_path, capsys):
        raw = tmp_path / "raw"
        shutil.copytree(study.root / "raw", raw)
        shutil.copytree(study.run, tmp_path / "run")
        resume = ["run", "--config", str(study.config),
                  "--set", f"output_dir={tmp_path / 'run'}"]
        assert main(["prepare", str(raw), str(tmp_path / "same")]) == 0
        assert main([*resume, "--set", f"dataset_dir={tmp_path / 'same'}"]) == 0
        assert "0 new" in capsys.readouterr().out
        table = raw / "tab0.csv"
        lines = table.read_text().splitlines()
        value, rest = lines[1].split(",", 1)
        lines[1] = f"{float(value) + 0.25!r},{rest}"
        table.write_text("\n".join(lines) + "\n")
        assert main(["prepare", str(raw), str(tmp_path / "changed")]) == 0
        assert main([*resume, "--set", f"dataset_dir={tmp_path / 'changed'}"]) == 2
        assert "different run" in capsys.readouterr().err
        assert read_store_bytes(tmp_path / "run") == read_store_bytes(study.run)

    def test_package_and_pyproject_versions_agree(self):
        # Read without tomllib, which Python 3.10 lacks: the [project] table's version line.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        (version,) = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.M)
        assert version == adeval.__version__

    def test_flag_overrides_win_over_file(self, study, tmp_path):
        run_dir = tmp_path / "quick"
        assert main(
            [
                "run",
                "--config",
                str(study.config),
                "--set",
                "repetitions=1",
                "--set",
                f"output_dir={run_dir}",
            ]
        ) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["repetitions"] == 1

    def test_missing_required_keys_rejected(self, tmp_path, capsys):
        assert main(["run", "--set", "repetitions=1"]) == 2
        assert "dataset_dir" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery = 3\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_malformed_config_value_rejected(self, tmp_path, capsys):
        assert main(["run", "--set", "knn_ks=1,x"]) == 2
        assert "knn_ks" in capsys.readouterr().err

    def test_empty_contamination_list_is_rejected(self, study, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={out}",
                     "--set", "contaminations="]) == 2
        assert "contamination" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("levels", ["0.0,0.0", "0.0,-0.0"])
    def test_repeated_contamination_level_is_rejected(self, study, tmp_path, capsys, levels):
        out = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={out}",
                     "--set", f"contaminations={levels}"]) == 2
        assert "given twice" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_repeated_detector_setting_is_rejected(self, study, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={out}",
                     "--set", "knn_ks=1,1"]) == 2
        assert "knn_ks value 1 is given twice" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @staticmethod
    def failing_run(tmp_path) -> list[str]:
        """``adeval run`` arguments of a one-benchmark grid whose k = 51 cell fails."""
        write_tables(tmp_path / "raw", n_tables=1, sizes=(10, 8))
        main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")])
        return [
            "run",
            "--set", f"dataset_dir={tmp_path / 'cache'}",
            "--set", f"output_dir={tmp_path / 'run'}",
            "--set", "knn_variants=kappa",
            "--set", "knn_ks=1,51",  # 51 exceeds the 8-sample train fold
            "--set", "lof_ks=",
            "--set", "iforest_trees=",
            "--set", "repetitions=1",
            "--set", "volume_samples=100",
        ]

    def test_failing_cells_give_exit_one(self, tmp_path, capsys):
        code = main(self.failing_run(tmp_path))
        assert code == 1
        assert "error:ValueError" in capsys.readouterr().out

    def test_resume_of_a_run_with_a_flagged_cell_still_exits_one(
        self, tmp_path, capsys, monkeypatch
    ):
        args = self.failing_run(tmp_path)
        loads = []
        load = RecordStore.load
        monkeypatch.setattr(RecordStore, "load", lambda self: loads.append(1) or load(self))
        assert main(args) == 1
        # A fresh run loads the store twice: to refuse another run's files
        # before writing its manifest, then once in the grid.
        assert len(loads) == 2
        before = read_store_bytes(tmp_path / "run")
        capsys.readouterr()
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "resuming" in out and "cells: 2 total, 0 new, 1 flagged-missing" in out
        assert "  error:ValueError: 1 cells" in out
        assert len(loads) == 3  # a resume loads it once
        assert read_store_bytes(tmp_path / "run") == before

    @pytest.mark.parametrize("fraction, sizes, part, settings", [
        ("0.01", (80, 20, 20), "validation", ()),  # 36-point test folds: round(0.36) = 0
        ("0.9", (10, 2), "evaluation", ()),  # 4-point test folds: round(3.6) = 4
        ("0.3", (10, 2), "validation", ()),  # round(1.2) = 1 point
        ("0.75", (10, 2), "evaluation", ()),  # round(3.0) = 3 of 4 points
        # 5-point test folds: the one repetition's 2-point validation part
        # draws 2 of the 3 anomalies.
        ("0.4", (10, 3), "validation", ("master_seed=1", "repetitions=1")),
    ], ids=["empty-validation", "empty-evaluation", "one-point-validation",
            "one-point-evaluation", "one-class-validation"])
    def test_validation_fraction_leaving_a_part_empty_is_refused(
        self, tmp_path, capsys, fraction, sizes, part, settings
    ):
        (tmp_path / "raw").mkdir()
        write_raw_table(synth_multiclass_table("toy", sizes), tmp_path / "raw" / "toy.csv")
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 0
        run = tmp_path / "run"
        assert main(["run", "--set", f"dataset_dir={tmp_path / 'cache'}",
                     "--set", f"output_dir={run}", "--set", f"validation_fraction={fraction}",
                     "--set", "repetitions=2", "--set", "volume_samples=100",
                     *(arg for setting in settings for arg in ("--set", setting))]) == 2
        err = capsys.readouterr().err
        assert f"validation_fraction {fraction} leaves the {part} part of toy-c1's" in err
        assert not (run / "manifest.json").exists()

    def test_benchmarks_sharing_a_name_are_refused(self, tmp_path, capsys):
        # Table a-b with anomaly class c and table a with class b-c are both a-b-c.
        rng = np.random.default_rng(0)
        (tmp_path / "raw").mkdir()
        for table, anomaly_class in (("a-b", "c"), ("a", "b-c")):
            rows = [f"{x!r},{y!r},{cls}" for cls, n in (("n", 30), (anomaly_class, 10))
                    for x, y in rng.normal(size=(n, 2)).tolist()]
            (tmp_path / "raw" / f"{table}.csv").write_text("\n".join(["f0,f1,class", *rows]))
        assert main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")]) == 0
        run = tmp_path / "run"
        assert main(["run", "--set", f"dataset_dir={tmp_path / 'cache'}",
                     "--set", f"output_dir={run}", "--set", "repetitions=1"]) == 2
        assert "share a name" in capsys.readouterr().err
        assert not (run / "manifest.json").exists()

    @pytest.mark.parametrize("setting", [
        "ps=0.05,1", "precision_rounds=0", "train_fraction=1.5", "contaminations=1.0",
        "knn_variants=foo", "knn_ks=0", "lof_ks=0", "iforest_trees=0", "iforest_subsample=1",
    ])
    def test_precision_setting_that_fails_every_cell_is_rejected(
        self, study, tmp_path, capsys, setting
    ):
        # Each value would otherwise fail every cell it reaches: precision@p
        # needs p < 1 and at least one round, a split needs a train fraction
        # in (0, 1) and a contamination below 1, and a fit needs a known kNN
        # variant, k and n_trees of at least 1 and a forest subsample of at least 2.
        run = tmp_path / "run"
        code = main(["run", "--config", str(study.config),
                     "--set", f"output_dir={run}", "--set", setting])
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (run / "manifest.json").exists()
        assert not list(run.glob("records/*.csv"))


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


class TestAggregate:
    def test_all_store_kinds_write_hashed_tables(self, study, capsys):
        hash_ = json.loads((study.run / "manifest.json").read_text())["hash"]
        for kind in ("rank", "kendall", "loss", "multiclass"):
            assert main(["aggregate", kind, str(study.run)]) == 0
            csv_path = study.run / "tables" / f"{kind}_c0.csv"
            txt_path = study.run / "tables" / f"{kind}_c0.txt"
            assert csv_path.read_text().startswith(f"# manifest: {hash_}\n")
            assert txt_path.read_text().startswith(f"# manifest: {hash_}\n")
            # stdout is the text table as written, then where it went.
            written = f"wrote tables under {study.run / 'tables'}\n"
            assert capsys.readouterr().out == txt_path.read_text() + written

    def test_rank_table_is_well_formed(self, study):
        main(["aggregate", "rank", str(study.run)])
        with open(study.run / "tables" / "rank_c0.csv", newline="") as handle:
            rows = [r for r in csv.reader(handle) if not r[0].startswith("#")]
        assert rows[0] == ["measure", "detector", "mean_rank", "std_rank", "n_datasets"]
        # 7 measures x 1 detector, ranks over 4 benchmarks.
        assert len(rows) == 1 + 7
        assert all(r[4] == "4" for r in rows[1:])

    def test_run_of_one_table_aggregates_its_benchmarks(self, study, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={run_dir}",
                     "--set", "only=tab0"]) == 0
        assert main(["aggregate", "rank", str(run_dir)]) == 0
        with open(run_dir / "tables" / "rank_c0.csv", newline="") as handle:
            rows = [r for r in csv.reader(handle) if not r[0].startswith("#")]
        assert len(rows) == 1 + 7 and all(r[4] == "2" for r in rows[1:])  # tab0-c1, tab0-c2

    def test_measure_filter(self, study):
        out_dir = study.root / "tables_filtered"
        assert main(
            ["aggregate", "rank", str(study.run), "--measure", "AUC", "--out", str(out_dir)]
        ) == 0
        text = (out_dir / "rank_c0.csv").read_text()
        assert "AUC," in text and "CVOL" not in text

    def test_level_filters(self, study, tmp_path):
        out_dir = tmp_path / "tables"
        for flags, kept in (
            (["--alpha", "0.05"], ["AUC", "AUC_w", "AUC@0.05", "precision@0.05", "TPR@0.05",
                                   "F1@0.05", "CVOL@0.05"]),
            (["--p", "0.05", "--measure", "AUC,precision@0.05,TPR@0.05"],
             ["AUC", "precision@0.05", "TPR@0.05"]),
        ):
            assert main(["aggregate", "rank", str(study.run), "--out", str(out_dir), *flags]) == 0
            with open(out_dir / "rank_c0.csv", newline="") as handle:
                rows = [r for r in csv.reader(handle) if not r[0].startswith("#")]
            assert [r[0] for r in rows[1:]] == kept

    @pytest.mark.parametrize("flags", [["--alpha", "0.3"], ["--p", "0.3"],
                                       ["--alpha", "0.05", "--p", "0.01"]],
                             ids=["alpha", "p", "p-beside-alpha"])
    def test_level_the_run_lacks_is_refused(self, study, tmp_path, capsys, flags):
        # Every measure of that family would otherwise be dropped without a word.
        out_dir = tmp_path / "tables"
        assert main(["aggregate", "rank", str(study.run), "--out", str(out_dir), *flags]) == 2
        flag, level = flags[-2:]
        assert f"{flag} {level} not in this run (has: 0.05)" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_prints_only_the_table_it_wrote(self, study, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        out_dir.mkdir()
        (out_dir / "loss_c0_val.txt").write_text("stale table\n")
        assert main(["aggregate", "loss", str(study.run), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "stale table" not in out and out.count("# manifest:") == 1

    def test_rerun_tables_byte_identical(self, study):
        main(["aggregate", "loss", str(study.run)])
        path = study.run / "tables" / "loss_c0.csv"
        before = path.read_bytes()
        main(["aggregate", "loss", str(study.run)])
        assert path.read_bytes() == before

    def test_incomplete_store_lists_missing_cells(self, study, tmp_path, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(study.run, clone)
        victim = next((clone / "records").glob("*.csv"))
        victim.unlink()
        assert main(["aggregate", "rank", str(clone)]) == 2
        err = capsys.readouterr().err
        assert "incomplete" in err and "combo=" in err

    def test_a_repeated_row_is_refused_by_aggregate_and_by_resume(self, study, tmp_path, capsys):
        # A cell's row appended twice, as two runs started into one directory
        # leave it: it is neither averaged in as a repetition nor resumed past.
        clone = tmp_path / "clone"
        shutil.copytree(study.run, clone)
        path = clone / "records" / "tab0-c1__knn.csv"
        lines = path.read_text().splitlines(keepends=True)
        text = "".join(lines + lines[2:3])
        path.write_text(text)
        message = (f"error: {path}: line {len(lines) + 1} repeats the cell of line 3 "
                   "(tab0-c1 c=0 combo=0 rep=0); a cell has one row\n")
        assert main(["aggregate", "rank", str(clone), "--out", str(tmp_path / "tables")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "tables").exists()
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={clone}"]) == 2
        assert capsys.readouterr().err == message
        assert path.read_text() == text

    def test_aggregate_builds_no_record_object(self, study, tmp_path, monkeypatch):
        built = []
        init = experiments.ExperimentRecord.__init__
        monkeypatch.setattr(experiments.ExperimentRecord, "__init__",
                            lambda self, *a, **kw: built.append(kw) or init(self, *a, **kw))
        assert main(["aggregate", "rank", str(study.run), "--out", str(tmp_path)]) == 0
        assert built == []
        stored_records(study.run)  # the counter sees a record built from the columns
        assert built

    def test_unknown_contamination_rejected(self, study, capsys):
        assert main(
            ["aggregate", "rank", str(study.run), "--contamination", "0.4"]
        ) == 2
        assert "not in this run" in capsys.readouterr().err

    def test_contamination_slice_required_when_ambiguous(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1, sizes=(40, 15))
        main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")])
        run_dir = tmp_path / "run"
        args = [
            "run",
            "--set", f"dataset_dir={tmp_path / 'cache'}",
            "--set", f"output_dir={run_dir}",
            "--set", "knn_variants=kappa",
            "--set", "knn_ks=1,3",
            "--set", "lof_ks=",
            "--set", "iforest_trees=",
            "--set", "contaminations=0.0,0.05",
            "--set", "repetitions=1",
            "--set", "volume_samples=100",
        ]
        assert main(args) == 0
        assert main(["aggregate", "rank", str(run_dir)]) == 2
        assert "--contamination" in capsys.readouterr().err
        assert main(["aggregate", "rank", str(run_dir), "--contamination", "0.05"]) == 0
        assert (run_dir / "tables" / "rank_c0.05.csv").is_file()

    def test_short_store_row_exits_two(self, study, tmp_path, capsys):
        clone = tmp_path / "clone"
        shutil.copytree(study.run, clone)
        victim = sorted((clone / "records").glob("*.csv"))[-1]
        text = victim.read_text()
        # Drop the last field of the last row but keep its newline.
        victim.write_text(text[: text.rstrip("\n").rindex(",")] + "\n")
        assert main(["aggregate", "rank", str(clone)]) == 2
        assert f"{victim.name}: line " in capsys.readouterr().err
        resume = ["run", "--config", str(study.config), "--set", f"output_dir={clone}"]
        assert main(resume) == 2
        assert f"{victim.name}: line " in capsys.readouterr().err

    def test_resume_after_torn_store_tail_restores_bytes(self, study, tmp_path):
        clone = tmp_path / "clone"
        shutil.copytree(study.run, clone)
        victim = sorted((clone / "records").glob("*.csv"))[-1]
        # A write cut short: the last row loses its last bytes and line end.
        victim.write_bytes(victim.read_bytes()[:-6])
        resume = ["run", "--config", str(study.config), "--set", f"output_dir={clone}"]
        assert main(resume) == 0
        assert read_store_bytes(clone) == read_store_bytes(study.run)

    def test_validation_selection_and_contamination_slice_match_reference(self, tmp_path):
        write_tables(tmp_path / "raw", n_tables=1)
        main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")])
        run_dir = tmp_path / "run"
        assert main(
            [
                "run",
                "--set", f"dataset_dir={tmp_path / 'cache'}",
                "--set", f"output_dir={run_dir}",
                "--set", "knn_variants=kappa,gamma",
                "--set", "knn_ks=1,3",
                "--set", "lof_ks=5",
                "--set", "iforest_trees=",
                "--set", "contaminations=0.0,0.05",
                "--set", "validation_fraction=0.3",
                "--set", "repetitions=2",
                "--set", "volume_samples=100",
            ]
        ) == 0
        for kind, extra in (("loss", ["--select-on-validation"]), ("rank", [])):
            assert main(
                ["aggregate", kind, str(run_dir), "--contamination", "0.05", *extra]
            ) == 0
        records = stored_records(run_dir)
        means = repetition_means([r for r in records if r.contamination == 0.05])

        def table_rows(name):
            with open(run_dir / "tables" / name, newline="") as handle:
                return [r for r in csv.reader(handle) if not r[0].startswith("#")][1:]

        loss_rows = table_rows("loss_c0.05_val.csv")
        assert len(loss_rows) == 12 * 12
        for sel, tgt, value in loss_rows:
            expected, _ = selection_loss_reference(means, f"val:{sel}", tgt)
            assert value == repr(expected)
        rank_rows = table_rows("rank_c0.05.csv")
        assert len(rank_rows) == 12 * 2
        for measure, detector, mean, std, n in rank_rows:
            detectors, means_, stds = rank_reference(means, measure)
            i = detectors.index(detector)
            assert (mean, std, n) == (repr(float(means_[i])), repr(float(stds[i])), "2")

    def test_kendall_needs_two_combos(self, tmp_path, capsys):
        write_tables(tmp_path / "raw", n_tables=1, sizes=(40, 15))
        main(["prepare", str(tmp_path / "raw"), str(tmp_path / "cache")])
        run_dir = tmp_path / "run"
        assert main(
            [
                "run",
                "--set", f"dataset_dir={tmp_path / 'cache'}",
                "--set", f"output_dir={run_dir}",
                "--set", "knn_variants=kappa",
                "--set", "knn_ks=3",
                "--set", "lof_ks=",
                "--set", "iforest_trees=",
                "--set", "repetitions=1",
                "--set", "volume_samples=100",
            ]
        ) == 0
        assert main(["aggregate", "kendall", str(run_dir)]) == 2
        assert "at least 2" in capsys.readouterr().err

    def test_rocband_writes_band_file(self, study):
        assert main(
            [
                "aggregate", "rocband", str(study.run),
                "--benchmark", "tab0-c1",
                "--detector", "knn", "--k", "3",
                "--splits", "3",
            ]
        ) == 0
        path = study.run / "tables" / "rocband_tab0-c1_knn_variant_kappa_k_3.csv"
        with open(path, newline="") as handle:
            rows = [r for r in csv.reader(handle) if not r[0].startswith("#")]
        assert rows[0] == ["fpr", "tpr_mean", "tpr_std", "ratio_mean", "ratio_std"]
        fpr = np.array([float(r[0]) for r in rows[1:]])
        assert fpr[0] == 0.0 and fpr[-1] == 1.0 and np.all(np.diff(fpr) > 0)

    @pytest.mark.parametrize(
        "flags", [["--detector", "knn", "--k", "3"], ["--detector", "lof", "--k", "5"],
                  ["--detector", "iforest"]],
        ids=["knn", "lof", "iforest"],
    )
    def test_rocband_is_the_grid_cells(self, study, tmp_path, capsys, flags):
        # Repetition r of the band is the cell that `adeval scores --rep r` gives.
        assert main(["aggregate", "rocband", str(study.run), "--benchmark", "tab0-c1",
                     *flags, "--splits", "2", "--out", str(tmp_path)]) == 0
        fpr, tpr_mean = read_band(tmp_path)
        capsys.readouterr()
        assert np.array_equal(tpr_mean, cell_tpr_mean(study.cache, flags, fpr, capsys))

    def test_rocband_needs_benchmark(self, study, capsys):
        assert main(["aggregate", "rocband", str(study.run)]) == 2
        assert "--benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--contamination", "0.3"], "not in this run"),
         ([], "several contamination levels")],
        ids=["level-not-in-run", "no-level-chosen"],
    )
    def test_rocband_contamination_must_be_a_level_of_the_run(
        self, study, tmp_path, capsys, flags, message
    ):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={run_dir}",
                     "--set", "contaminations=0.0,0.05"]) == 0
        capsys.readouterr()
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab0-c1",
                     "--detector", "knn", "--k", "3", "--splits", "2", *flags]) == 2
        assert message in capsys.readouterr().err
        assert not (run_dir / "tables").exists()

    def test_rocband_of_a_one_level_run_bands_that_level(self, study, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={run_dir}",
                     "--set", "contaminations=0.05"]) == 0
        flags = ["--detector", "knn", "--k", "3"]
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab0-c1",
                     *flags, "--splits", "2", "--out", str(tmp_path)]) == 0
        fpr, tpr_mean = read_band(tmp_path)
        capsys.readouterr()
        cells = cell_tpr_mean(study.cache, [*flags, "--contamination", "0.05"], fpr, capsys)
        assert np.array_equal(tpr_mean, cells)
        # The band of the uncontaminated cells, which this run does not have, differs.
        assert not np.array_equal(tpr_mean, cell_tpr_mean(study.cache, flags, fpr, capsys))

    @pytest.mark.parametrize("kind, flags", [
        ("rank", ["--select-on-validation"]),
        ("multiclass", ["--select-on-validation"]),
        ("kendall", ["--benchmark", "tab0-c1"]),
        ("loss", ["--detector", "knn"]),
        ("rank", ["--k", "3"]),
        ("rocband", ["--measure", "AUC"]),
        ("rocband", ["--alpha", "0.05"]),
        ("rocband", ["--p", "0.05"]),
        ("rank", ["--splits", "7"]),
        ("kendall", ["--variant", "gamma"]),
        ("loss", ["--trees", "3"]),
        ("multiclass", ["--subsample", "16"]),
    ], ids=["rank-val", "multiclass-val", "kendall-benchmark", "loss-detector", "rank-k",
            "rocband-measure", "rocband-alpha", "rocband-p", "rank-splits", "kendall-variant",
            "loss-trees", "multiclass-subsample"])
    def test_flag_its_kind_never_reads_is_refused(self, study, tmp_path, capsys, kind, flags):
        rocband = ["--benchmark", "tab0-c1", "--detector", "knn", "--splits", "2"]
        extra = rocband if kind == "rocband" else []
        assert main(["aggregate", kind, str(study.run), "--out", str(tmp_path / "tables"),
                     *extra, *flags]) == 2
        assert f"{flags[0]} does not apply to aggregate {kind}" in capsys.readouterr().err
        assert not (tmp_path / "tables").exists()

    def test_select_on_validation_is_refused_without_a_validation_part(
        self, study, tmp_path, capsys, monkeypatch
    ):
        # The run has validation_fraction = 0: refused before the store is read.
        monkeypatch.setattr(RecordStore, "load", lambda self: pytest.fail("store read"))
        assert main(["aggregate", "loss", str(study.run), "--out", str(tmp_path / "tables"),
                     "--select-on-validation"]) == 2
        err = capsys.readouterr().err
        assert "validation_fraction = 0" in err and "usable combo" not in err
        assert not (tmp_path / "tables").exists()

    def test_store_without_manifest_rejected(self, tmp_path, capsys):
        assert main(["aggregate", "rank", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [
        ["rank"], ["rocband", "--benchmark", "tab0-c1", "--detector", "knn", "--splits", "2"],
    ], ids=["rank", "rocband"])
    @pytest.mark.parametrize("spoil", [
        lambda m: {"config": {}},
        lambda m: list(m),
        lambda m: {k: v for k, v in m.items() if k != "hash"},
        lambda m: {**m, "config": list(m["config"])},
        lambda m: {**m, "config": {**m["config"], "mystery": 1}},
        lambda m: {**m, "data": {}},
    ], ids=["config-only", "not-an-object", "no-hash", "config-not-an-object",
            "unknown-config-key", "hash-mismatch"])
    def test_malformed_manifest_exits_two(self, study, tmp_path, capsys, kind, spoil):
        manifest = json.loads((study.run / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps(spoil(manifest)))
        assert main(["aggregate", kind[0], str(tmp_path), *kind[1:]]) == 2
        assert f"{tmp_path / 'manifest.json'}" in capsys.readouterr().err
        assert not (tmp_path / "tables").exists()

    @staticmethod
    def own_run(study, tmp_path):
        """The study's run over a copy of its cache: (cache, run directory)."""
        cache, run_dir = tmp_path / "cache", tmp_path / "run"
        shutil.copytree(study.cache, cache)
        assert main(["run", "--config", str(study.config), "--set", f"dataset_dir={cache}",
                     "--set", f"output_dir={run_dir}"]) == 0
        return cache, run_dir

    def test_tables_ignore_a_table_prepared_after_the_run(self, study, tmp_path):
        cache, run_dir = self.own_run(study, tmp_path)
        kinds = ("rank", "kendall", "loss", "multiclass")
        for kind in kinds:
            assert main(["aggregate", kind, str(run_dir)]) == 0
        before = {p.name: p.read_bytes() for p in (run_dir / "tables").iterdir()}
        write_tables(tmp_path / "raw", n_tables=3)
        assert main(["prepare", str(tmp_path / "raw"), str(cache)]) == 0
        assert (cache / "tab2.csv").is_file()
        for kind in kinds:
            assert main(["aggregate", kind, str(run_dir)]) == 0
        assert len(before) == 8
        assert {p.name: p.read_bytes() for p in (run_dir / "tables").iterdir()} == before

    def test_rocband_of_a_benchmark_outside_the_run_is_refused(self, study, tmp_path, capsys):
        cache, run_dir = self.own_run(study, tmp_path)
        write_tables(tmp_path / "raw", n_tables=3)
        assert main(["prepare", str(tmp_path / "raw"), str(cache)]) == 0
        capsys.readouterr()
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab2-c1",
                     "--detector", "knn", "--k", "3", "--splits", "2"]) == 2
        assert "is not a benchmark of run" in capsys.readouterr().err
        assert not (run_dir / "tables").exists()

    def test_rocband_refuses_cached_data_changed_after_the_run(self, study, tmp_path, capsys):
        cache, run_dir = self.own_run(study, tmp_path)
        shift_first_anomaly(cache / "tab0.csv", cache / "tab0.csv", "c1")
        capsys.readouterr()
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab0-c1",
                     "--detector", "knn", "--k", "3", "--splits", "2"]) == 2
        assert "holds other data than in run" in capsys.readouterr().err
        assert not (run_dir / "tables").exists()

    def test_aggregate_of_a_manifest_alone_writes_nothing(self, study, tmp_path, capsys):
        shutil.copy(study.run / "manifest.json", tmp_path / "manifest.json")
        assert main(["aggregate", "rank", str(tmp_path)]) == 2
        assert "missing cells" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_rocband_table_alias_counts_the_run_s_benchmarks(self, study, tmp_path, capsys):
        # The cache holds tab0-c1 and tab0-c2; the run loads tab0-c1 only.
        run_dir, out = tmp_path / "run", tmp_path / "tables"
        assert main(["run", "--config", str(study.config), "--set", f"output_dir={run_dir}",
                     "--set", "only=tab0-c1"]) == 0
        flags = ["--detector", "knn", "--k", "3", "--splits", "2", "--out", str(out)]
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab0", *flags]) == 0
        assert [p.name for p in out.glob("*.csv")] == ["rocband_tab0-c1_knn_variant_kappa_k_3.csv"]
        capsys.readouterr()
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab1", *flags]) == 2
        assert "(available: tab0-c1)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# volume and scores one-offs
# ---------------------------------------------------------------------------


class TestOneOffs:
    def test_volume_reports_complementary_estimates(self, study, capsys):
        args = [
            "volume",
            "--dataset", str(study.cache),
            "--benchmark", "tab0-c1",
            "--detector", "knn", "--k", "3",
            "--alpha", "0.05", "--n", "500", "--seed", "7",
        ]
        assert main(args) == 0
        lines = dict(
            line.split(",", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(lines["vol"]) + float(lines["cvol"]) == 1.0
        assert int(lines["n_samples"]) == 500

    def test_volume_is_deterministic(self, study, capsys):
        args = [
            "volume",
            "--dataset", str(study.cache),
            "--benchmark", "tab0-c1",
            "--detector", "iforest", "--trees", "20",
            "--alpha", "0.1", "--n", "300", "--seed", "3",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first

    @staticmethod
    def cell_flags(cell):
        """The one-off flags that name ``cell``'s detector and parameters."""
        params = dict(p.split("=") for p in cell.params.split())
        return ["--detector", cell.detector, *{
            "knn": ["--variant", params.get("variant"), "--k", params.get("k")],
            "lof": ["--k", params.get("k")],
            "iforest": ["--trees", params.get("n_trees"), "--subsample", params.get("subsample")],
        }[cell.detector]]

    def stored_cell(self, study, benchmark, params, repetition):
        (cell,) = [
            r for r in stored_records(study.run)
            if (r.benchmark, r.params, r.repetition) == (benchmark, params, repetition)
        ]
        assert not any(name.startswith("val:") for name in cell.values)
        return cell

    def test_volume_reproduces_grid_cvol(self, study, capsys):
        cell = self.stored_cell(study, "tab0-c1", "variant=kappa k=3", 1)
        assert main(
            [
                "volume",
                "--dataset", str(study.cache),
                "--benchmark", "tab0-c1",
                "--detector", "knn", "--variant", "kappa", "--k", "3",
                "--alpha", "0.05", "--n", "400", "--seed", "7", "--rep", "1",
            ]
        ) == 0
        lines = dict(
            line.split(",", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(lines["cvol"]) == cell.values["CVOL@0.05"]

    def test_scores_reproduce_grid_auc(self, study, capsys):
        cell = self.stored_cell(study, "tab1-c2", "variant=kappa k=1", 0)
        assert main(
            [
                "scores",
                "--dataset", str(study.cache),
                "--benchmark", "tab1-c2",
                "--detector", "knn", "--variant", "kappa", "--k", "1",
                "--seed", "7", "--rep", "0",
            ]
        ) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert auc_rows(scored_curve(rows))[0] == cell.values["AUC"]

    @pytest.mark.parametrize(
        "flags, params",
        [(["--detector", "lof", "--k", "5"], "k=5"),
         (["--detector", "iforest", "--trees", "10"], "n_trees=10 subsample=256"),
         (["--detector", "iforest", "--trees", "20"], "n_trees=20 subsample=256")],
        ids=["lof", "iforest", "iforest-20"],
    )
    def test_one_offs_reproduce_lof_and_iforest_grid_cells(
        self, lof_iforest_study, capsys, flags, params
    ):
        study = lof_iforest_study
        cell = self.stored_cell(study, "tab0-c2", params, 1)
        where = ["--dataset", str(study.cache), "--benchmark", "tab0-c2", *flags,
                 "--seed", "7", "--rep", "1"]
        assert main(["volume", *where, "--alpha", "0.05", "--n", "400"]) == 0
        lines = dict(
            line.split(",", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert float(lines["cvol"]) == cell.values["CVOL@0.05"]
        assert main(["scores", *where]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert auc_rows(scored_curve(rows))[0] == cell.values["AUC"]

    @pytest.mark.parametrize(
        "flags", [["--detector", "lof", "--k", "5"], ["--detector", "iforest", "--trees", "20"]],
        ids=["lof", "iforest"],
    )
    def test_anomaly_classes_of_a_table_share_the_model(self, lof_iforest_study, capsys, flags):
        # At contamination 0 both benchmarks train on the table's normal fold,
        # so a test normal gets one score whichever class it is tested with.
        scores = {}
        for bench in ("tab0-c1", "tab0-c2"):
            assert main(["scores", "--dataset", str(lof_iforest_study.cache),
                         "--benchmark", bench, *flags, "--seed", "7", "--rep", "1"]) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            scores[bench] = {sid: value for sid, value in rows if sid.startswith("n")}
        assert scores["tab0-c1"] and scores["tab0-c1"].keys() == scores["tab0-c2"].keys()
        assert scores["tab0-c1"] == scores["tab0-c2"]

    def test_scores_file_format(self, study, tmp_path):
        out = tmp_path / "scores.csv"
        assert main(
            [
                "scores",
                "--dataset", str(study.cache),
                "--benchmark", "tab1-c2",
                "--detector", "lof", "--k", "5",
                "--out", str(out),
            ]
        ) == 0
        with open(out, newline="") as handle:
            assert handle.readline().startswith("# manifest: ")
            header, *rows = csv.reader(handle)
        assert header == ["id", "score"]
        bench = cached(study.cache, "tab1-c2")
        fold = split(
            bench, SplitSpec(train_fraction=0.8, contamination=0.0, seed=0, repetition=0)
        )
        assert [sid for sid, _ in rows] == list(fold.test_ids)
        blocks = {"n": bench.normal, "a": bench.anomaly}
        for sid, value in rows:
            assert 0 <= int(sid[1:]) < len(blocks[sid[0]])
            assert np.isfinite(float(value))

    def test_output_manifest_covers_the_split_and_the_data(self, study, tmp_path):
        def manifest(command, *flags, cache=study.cache):
            out = tmp_path / "out.csv"
            assert main([command, "--dataset", str(cache), "--benchmark", "tab0-c1",
                         "--detector", "knn", "--k", "3", *flags, "--out", str(out)]) == 0
            return out.read_text().splitlines()[0]

        for command in ("scores", "volume"):
            splits = [
                manifest(command, "--train-fraction", fraction, "--contamination", c)
                for fraction in ("0.8", "0.5") for c in ("0", "0.05")
            ]
            assert len(set(splits)) == 4
        # The same benchmark over other data.
        (tmp_path / "changed").mkdir()
        shift_first_anomaly(study.cache / "tab0.csv", tmp_path / "changed" / "tab0.csv", "c1")
        assert manifest("scores") != manifest("scores", cache=tmp_path / "changed")

    def test_volume_reproduces_grid_cvol_for_every_class(self, tmp_path, capsys):
        # One table of three anomaly classes: every class shares the table's sample.
        write_tables(tmp_path / "raw", n_tables=1, sizes=(60, 25, 20, 15))
        cache, run_dir = tmp_path / "cache", tmp_path / "run"
        assert main(["prepare", str(tmp_path / "raw"), str(cache)]) == 0
        text = CONFIG_TEXT.format(cache=cache, run=run_dir)
        text = text.replace("lof_ks =", "lof_ks = 5")
        (tmp_path / "study.cfg").write_text(text.replace("iforest_trees =", "iforest_trees = 10"))
        assert main(["run", "--config", str(tmp_path / "study.cfg")]) == 0
        cells = [r for r in stored_records(run_dir) if r.repetition == 1]
        assert {r.anomaly_class for r in cells} == {"c1", "c2", "c3"}
        assert {r.detector for r in cells} == {"knn", "lof", "iforest"}
        for cell in cells:
            capsys.readouterr()
            assert main(["volume", "--dataset", str(cache), "--benchmark", cell.benchmark,
                         *self.cell_flags(cell), "--alpha", "0.05", "--n", "400",
                         "--seed", "7", "--rep", "1"]) == 0
            lines = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
            assert float(lines["cvol"]) == cell.values["CVOL@0.05"], cell.cell_key

    def test_one_offs_reproduce_contaminated_cells(self, tmp_path, capsys):
        # At contamination 0.05 the 48 training normals take 3 injected
        # anomalies, so each class trains on a fold of its own.
        write_tables(tmp_path / "raw", n_tables=1, sizes=(60, 12, 12))
        cache, run_dir = tmp_path / "cache", tmp_path / "run"
        assert main(["prepare", str(tmp_path / "raw"), str(cache)]) == 0
        (tmp_path / "study.cfg").write_text(CONFIG_TEXT.format(cache=cache, run=run_dir))
        assert main(["run", "--config", str(tmp_path / "study.cfg"),
                     "--set", "contaminations=0.0,0.05", "--set", "knn_variants=delta",
                     "--set", "knn_ks=3", "--set", "lof_ks=5", "--set", "iforest_trees=10"]) == 0
        cells = [r for r in stored_records(run_dir) if r.contamination == 0.05]
        assert len(cells) == 12 and not any(r.flags for r in cells)
        assert {r.anomaly_class for r in cells} == {"c1", "c2"}
        assert {r.detector for r in cells} == {"knn", "lof", "iforest"}
        for cell in cells:
            where = ["--dataset", str(cache), "--benchmark", cell.benchmark,
                     *self.cell_flags(cell), "--contamination", "0.05", "--seed", "7",
                     "--rep", str(cell.repetition)]
            capsys.readouterr()
            assert main(["scores", *where]) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            assert auc_rows(scored_curve(rows))[0] == cell.values["AUC"], cell.cell_key
            assert main(["volume", *where, "--alpha", "0.05", "--n", "400"]) == 0
            lines = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
            assert float(lines["cvol"]) == cell.values["CVOL@0.05"], cell.cell_key

    def test_volume_prints_plain_float_values(self, study, capsys):
        for flags in (["--detector", "knn", "--k", "3"], ["--detector", "lof", "--k", "5"],
                      ["--detector", "iforest", "--trees", "10"]):
            assert main(["volume", "--dataset", str(study.cache), "--benchmark", "tab0-c1",
                         *flags, "--alpha", "0.05", "--n", "300", "--seed", "7"]) == 0
            lines = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines())
            for key in ("threshold", "vol", "cvol"):
                assert lines[key] == repr(float(lines[key])), (flags, key)

    def test_volume_refuses_a_test_fold_without_anomalies(self, tmp_path, capsys):
        # At contamination 0.05 both anomalies go to the training fold.
        (bench,) = synth_gaussian(50, 2, dim=2, seed=0).benchmarks()
        (tmp_path / "cache").mkdir()
        write_raw_table(RawTable("synth", np.vstack([bench.normal, bench.anomaly]),
                                 ("normal",) * 50 + ("shifted",) * 2),
                        tmp_path / "cache" / "synth.csv")
        assert main(["volume", "--dataset", str(tmp_path / "cache"), "--benchmark", "synth",
                     "--detector", "knn", "--k", "3", "--contamination", "0.05"]) == 2
        assert "need at least one positive (anomalous) sample" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "nan_on_volume, message",
        [(False, "scores must be finite"),
         (True, "score function returned a non-finite value")],
        ids=["test-fold", "volume-sample"],
    )
    def test_volume_refuses_non_finite_scores(
        self, study, monkeypatch, capsys, nan_on_volume, message
    ):
        n = 123  # the volume sample's size; the test fold has another

        class PartlyNan:
            def score(self, points):
                scores = points[:, 0].astype(np.float64)
                if (len(points) == n) == nan_on_volume:
                    scores[0] = np.nan
                return scores

        monkeypatch.setattr(cli, "fit_models", lambda *args: [PartlyNan()])
        assert main(["volume", "--dataset", str(study.cache), "--benchmark", "tab0-c1",
                     "--detector", "knn", "--k", "3", "--n", str(n)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_benchmark_is_reported(self, study, capsys):
        assert main(
            [
                "volume",
                "--dataset", str(study.cache),
                "--benchmark", "ghost",
                "--detector", "knn",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "ghost" in err and "(tables: tab0, tab1)" in err

    def test_one_offs_read_only_the_table_they_name(self, study, tmp_path, capsys):
        # A run over a copy of the cache, which then gains a malformed table file.
        cache, run_dir = tmp_path / "cache", tmp_path / "run"
        shutil.copytree(study.cache, cache)
        assert main(["run", "--config", str(study.config), "--set", f"dataset_dir={cache}",
                     "--set", f"output_dir={run_dir}"]) == 0
        (cache / "zz.csv").write_text("f0,class\noops,n\n")
        flags = ["--benchmark", "tab0-c1", "--detector", "knn", "--k", "3"]
        capsys.readouterr()
        for command in ("scores", "volume"):
            assert main([command, "--dataset", str(study.cache), *flags]) == 0
            clean = capsys.readouterr().out
            assert main([command, "--dataset", str(cache), *flags]) == 0
            assert capsys.readouterr().out == clean
        band = ["--detector", "knn", "--splits", "2", "--out", str(tmp_path / "band")]
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab0-c1", *band]) == 0
        # Two benchmarks of the run share table tab0, so the alias names neither.
        assert main(["aggregate", "rocband", str(run_dir), "--benchmark", "tab0", *band]) == 2
        assert "(available: tab0-c1, tab0-c2, tab1-c1, tab1-c2)" in capsys.readouterr().err
        # An unknown name lists the cached tables by file name, reading none of them.
        assert main(["scores", "--dataset", str(cache), "--benchmark", "ghost",
                     "--detector", "knn"]) == 2
        assert "(tables: tab0, tab1, zz)" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds the argparse tree once per process and runs ``cmd_<command>`` by name."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts ``build_parser`` calls from a cleared parser cache on."""
        cli._parser.cache_clear()
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        yield calls
        cli._parser.cache_clear()

    def test_many_calls_build_the_tree_once(self, builds, study, tmp_path, capsys):
        outputs = []
        for _ in range(3):
            assert main(["aggregate", "rank", str(study.run), "--out", str(tmp_path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert main(["aggregate", "rank", str(tmp_path / "absent")]) == 2
        assert main(["prepare", str(tmp_path / "absent"), str(tmp_path / "cache")]) == 2
        assert len(builds) == 1
        assert outputs[0] == outputs[1] == outputs[2] != ""

    def test_a_command_patched_after_the_first_call_is_the_one_that_runs(
        self, builds, study, tmp_path, monkeypatch, capsys
    ):
        assert main(["aggregate", "rank", str(study.run), "--out", str(tmp_path)]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_aggregate", lambda args: seen.append(args) or 7)
        assert main(["aggregate", "kendall", str(study.run)]) == 7
        assert [(args.command, args.kind) for args in seen] == [("aggregate", "kendall")]
        assert len(builds) == 1

    def test_repeatable_flags_do_not_leak_between_calls(self, builds, monkeypatch):
        seen = []
        for command in ("cmd_run", "cmd_aggregate"):
            monkeypatch.setattr(cli, command, lambda args: seen.append(args) or 0)
        calls = [
            ["run", "--set", "repetitions=1", "--set", "master_seed=2"],
            ["run", "--set", "knn_ks=3"],
            ["run"],
            ["aggregate", "rank", "r", "--measure", "AUC", "--measure", "TPR@0.05"],
            ["aggregate", "rank", "r", "--measure", "AUC,F1@0.05"],
            ["aggregate", "loss", "r"],
        ]
        for argv in calls:
            assert main(argv) == 0
        assert [args.set for args in seen[:3]] == [
            ["repetitions=1", "master_seed=2"], ["knn_ks=3"], None]
        assert [args.measure for args in seen[3:]] == [
            ["AUC", "TPR@0.05"], ["AUC,F1@0.05"], None]
        # Each call's namespace holds its own subcommand's flags only.
        assert "measure" not in vars(seen[2]) and "set" not in vars(seen[5])
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", [
        ["--version"], ["aggregate", "bogus", "r"], ["run", "--workers", "two"], [],
    ], ids=["version", "unknown-kind", "bad-int", "no-command"])
    def test_a_call_that_exits_in_argparse_leaves_the_tree_working(
        self, argv, builds, study, tmp_path, capsys
    ):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert main(["aggregate", "rank", str(study.run), "--out", str(tmp_path)]) == 0
        assert "wrote tables under" in capsys.readouterr().out
        assert len(builds) == 1


def fresh_import(code):
    """Standard output of ``code`` run by a new Python with ``src`` on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_cli_builds_no_parser():
    assert fresh_import("import adeval.cli as cli; print(cli._parser.cache_info().currsize)") == "0"


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported where cdist is first called, so commands that fit
    # no neighbour model never pay for it.
    code = (
        "import adeval.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_import(code) == "[]"
