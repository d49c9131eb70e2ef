import csv
import dataclasses
import itertools
import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau as scipy_kendalltau
from scipy.stats import rankdata

from adeval.curves import tpr_at_rows
from adeval.datasets import SplitSpec, prepare_table, split, synth_gaussian, synth_multiclass_table
from adeval import detectors, experiments
from adeval.cli import _select_measures
from adeval.detectors import _CHUNK, iforest_fit, knn_fit, lof_fitter
from adeval.experiments import (
    _kendall_block,
    _run_repetition,
    Collapsed,
    Combo,
    GridConfig,
    MeasureId,
    RecordStore,
    collapse,
    fit_models,
    kendall_matrix,
    loss_matrix_table,
    mean_rank_table,
    missing_cells,
    multiclass_sensitivity,
    roc_band,
    run_grid,
)
from adeval.seeding import derive_seed
from adeval.thresholded import precision_composition
from adeval.volume import bounding_box, uniform_sample
from _oracles import (
    Row,
    cells_of,
    class_transfer_reference,
    kendall_reference,
    kendall_tau_pairs,
    rank_reference,
    repetition_means,
    rows_of,
    selection_loss_reference,
    store_text_reference,
)
from test_curves import alpha_probes, one_row, score_rows


def knn_only_config(**overrides):
    base = dict(
        knn_variants=("kappa",),
        knn_ks=(1, 3),
        lof_ks=(),
        iforest_trees=(),
        alphas=(0.05,),
        ps=(0.05,),
        repetitions=2,
        volume_samples=200,
        master_seed=11,
    )
    base.update(overrides)
    return GridConfig(**base)


# ---------------------------------------------------------------------------
# Measure identifiers and grid configuration
# ---------------------------------------------------------------------------


class TestMeasureId:
    def test_names(self):
        assert MeasureId("auc").name == "AUC"
        assert MeasureId("auc_w").name == "AUC_w"
        assert MeasureId("auc_at", 0.05).name == "AUC@0.05"
        assert MeasureId("precision_at", 0.01).name == "precision@0.01"
        assert MeasureId("tpr_at", 0.5).name == "TPR@0.5"
        assert MeasureId("f1_at", 0.05).name == "F1@0.05"
        assert MeasureId("cvol_at", 0.05).name == "CVOL@0.05"

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasureId("auc", 0.05)  # plain measures take no level
        with pytest.raises(ValueError):
            MeasureId("tpr_at")  # leveled measures need one
        with pytest.raises(ValueError):
            MeasureId("tpr_at", 1.5)
        with pytest.raises(ValueError):
            MeasureId("mystery")
        # An FPR budget may be 1; a contamination p may not, as in GridConfig.ps.
        assert MeasureId("tpr_at", 1.0).name == "TPR@1"
        with pytest.raises(ValueError):
            MeasureId("precision_at", 1.0)


class TestGridConfig:
    def test_default_combo_count(self):
        combos = GridConfig().detector_combos()
        # 3 variants x 9 ks + 3 LOF ks + 3 forest sizes.
        assert len(combos) == 33
        assert [c.index for c in combos] == list(range(33))
        assert combos[0].detector == "knn" and combos[-1].detector == "iforest"
        assert combos[-1].param("subsample") == 256

    def test_measure_order_by_descending_level(self):
        names = [m.name for m in GridConfig().measures()]
        assert names == [
            "AUC",
            "AUC_w",
            "AUC@0.05",
            "precision@0.05",
            "TPR@0.05",
            "F1@0.05",
            "CVOL@0.05",
            "AUC@0.01",
            "precision@0.01",
            "TPR@0.01",
            "F1@0.01",
            "CVOL@0.01",
        ]

    def test_measure_order_when_alpha_and_p_levels_differ(self):
        names = [m.name for m in GridConfig(alphas=(0.2, 0.01), ps=(0.05,)).measures()]
        assert names == [
            "AUC", "AUC_w",
            "AUC@0.2", "TPR@0.2", "F1@0.2", "CVOL@0.2",
            "precision@0.05",
            "AUC@0.01", "TPR@0.01", "F1@0.01", "CVOL@0.01",
        ]

    def test_measure_order_of_four_shared_levels(self):
        levels = (0.01, 0.05, 0.1, 0.2)
        names = GridConfig(alphas=levels, ps=levels).measure_names()
        assert names == (
            "AUC", "AUC_w",
            "AUC@0.2", "precision@0.2", "TPR@0.2", "F1@0.2", "CVOL@0.2",
            "AUC@0.1", "precision@0.1", "TPR@0.1", "F1@0.1", "CVOL@0.1",
            "AUC@0.05", "precision@0.05", "TPR@0.05", "F1@0.05", "CVOL@0.05",
            "AUC@0.01", "precision@0.01", "TPR@0.01", "F1@0.01", "CVOL@0.01",
        )

    def test_validation_columns_appended(self):
        names = GridConfig(validation_fraction=0.25).measure_names()
        assert "val:AUC" in names and names.index("val:AUC") > names.index("AUC")

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            GridConfig(repetitions=0)
        with pytest.raises(ValueError, match=r"^alphas must lie in \(0, 1\], got 0\.0$"):
            GridConfig(alphas=(0.0,))
        with pytest.raises(ValueError, match=r"^ps must lie in \(0, 1\), got 1\.0$"):
            GridConfig(ps=(0.05, 1.0))  # precision@p needs p < 1
        with pytest.raises(ValueError, match="precision_rounds"):
            GridConfig(precision_rounds=0)
        with pytest.raises(ValueError):
            GridConfig(validation_fraction=1.0)
        with pytest.raises(ValueError):
            GridConfig(knn_ks=(), lof_ks=(), iforest_trees=()).detector_combos()

    def test_rejects_two_levels_of_one_family_with_one_name(self):
        with pytest.raises(
            ValueError, match=r"^alphas levels 0\.01 and 0\.0100000001 both name measures @0\.01$"
        ):
            GridConfig(alphas=(0.01, 0.0100000001))
        with pytest.raises(
            ValueError, match=r"^ps levels 0\.2 and 0\.2000000001 both name measures @0\.2$"
        ):
            GridConfig(ps=(0.05, 0.2, 0.2000000001))
        # A level repeated exactly, or one name in two families, repeats no column.
        names = GridConfig(alphas=(0.01, 0.01), ps=(0.0100000001,)).measure_names()
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("levels", [(0.0, 0.0), (0.0, -0.0), (0.1, 0.0, 0.1)])
    def test_rejects_a_contamination_level_given_twice(self, levels):
        # A repeated level would plan and append every block of it twice.
        with pytest.raises(ValueError, match=r"^contaminations value .* is given twice$"):
            GridConfig(contaminations=levels)

    @pytest.mark.parametrize("key, values", [
        ("knn_variants", ("kappa", "gamma", "kappa")),
        ("knn_ks", (1, 1)),
        ("lof_ks", (10, 20, 10)),
        ("iforest_trees", (50, 50)),
    ])
    def test_rejects_a_detector_setting_given_twice(self, key, values):
        # A repeated setting would fit and store one detector as two combos.
        with pytest.raises(ValueError, match=rf"^{key} value .* is given twice$"):
            GridConfig(**{key: values})

    def test_rejects_an_empty_contamination_list(self):
        with pytest.raises(ValueError, match="contamination"):
            GridConfig(contaminations=())


# ---------------------------------------------------------------------------
# Running cells and grids
# ---------------------------------------------------------------------------


class TestRunGrid:
    def table(self, seed=0):
        return synth_gaussian(
            120, 60, dim=2, shift=3.0, seed=seed, table=f"s{seed}", anomaly_class="c1"
        )

    def test_grid_arithmetic_270_records(self, tmp_path):
        cfg = GridConfig(
            knn_variants=("kappa", "gamma", "delta"),
            knn_ks=(1, 3, 5, 7, 9, 13, 21, 31, 51),
            lof_ks=(),
            iforest_trees=(),
            alphas=(0.05,),
            ps=(0.05,),
            repetitions=10,
            volume_samples=128,
            master_seed=5,
        )
        store = RecordStore(tmp_path, manifest_hash="h")
        summary = run_grid(cfg, [self.table()], store)
        assert summary.n_cells == 270 and summary.n_new == 270
        records = rows_of(store.load())
        assert len(records) == 270
        assert all(not r.flagged_missing for r in records)
        assert {r.repetition for r in records} == set(range(10))
        assert {r.grid_index for r in records} == set(range(27))

    def test_rerun_is_a_noop_and_byte_stable(self, tmp_path):
        cfg = knn_only_config()
        store = RecordStore(tmp_path, manifest_hash="h")
        run_grid(cfg, [self.table()], store)
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        summary = run_grid(cfg, [self.table()], store)
        assert summary.n_new == 0
        after = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        assert before == after

    def test_resume_reruns_the_cell_of_a_torn_tail(self, tmp_path):
        cfg = knn_only_config()
        store = RecordStore(tmp_path, manifest_hash="h")
        run_grid(cfg, [self.table()], store)
        whole = rows_of(store.load())
        path = sorted(tmp_path.glob("*.csv"))[0]
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        path.write_bytes(before[path.name][:-6])
        torn = rows_of(store.load())
        assert len(torn) == len(whole) - 1 and all(r in whole for r in torn)
        summary = run_grid(cfg, [self.table()], store)
        assert summary.n_new == 1
        assert {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")} == before

    def test_interrupted_run_keeps_its_finished_blocks(self, tmp_path, monkeypatch):
        # One table of two anomaly classes, two repetitions: two blocks of four cells.
        cfg = knn_only_config()
        tables = [prepare_table(synth_multiclass_table("m", (60, 20, 12), seed=0))]
        whole = RecordStore(tmp_path / "whole", manifest_hash="h")
        run_grid(cfg, tables, whole)
        run_repetition = experiments._run_repetition
        calls = []

        def interrupted(*block):
            calls.append(block)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return run_repetition(*block)

        store = RecordStore(tmp_path / "store", manifest_hash="h")
        monkeypatch.setattr(experiments, "_run_repetition", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_grid(cfg, tables, store, workers=1)
        monkeypatch.undo()
        first_block = [r for r in rows_of(whole.load()) if r.repetition == 0]
        assert len(first_block) == 4 and rows_of(store.load()) == first_block
        assert run_grid(cfg, tables, store, workers=1).n_new == 4
        assert ({p.name: p.read_bytes() for p in (tmp_path / "store").glob("*.csv")}
                == {p.name: p.read_bytes() for p in (tmp_path / "whole").glob("*.csv")})

    def test_worker_count_does_not_change_records(self, tmp_path):
        cfg = knn_only_config()
        tables = [self.table(0), self.table(1)]
        serial = RecordStore(tmp_path / "serial", manifest_hash="h")
        run_grid(cfg, tables, serial, workers=1)
        parallel = RecordStore(tmp_path / "parallel", manifest_hash="h")
        run_grid(cfg, tables, parallel, workers=3)
        a = {p.name: p.read_bytes() for p in (tmp_path / "serial").glob("*.csv")}
        b = {p.name: p.read_bytes() for p in (tmp_path / "parallel").glob("*.csv")}
        assert a == b

    def test_worker_count_does_not_change_multiclass_records(self, tmp_path):
        # Two tables of two anomaly classes, every family, two contamination
        # levels, two repetitions: four blocks at contamination 0, each
        # sharing one fit, and eight single-benchmark blocks at 0.05.
        cfg = GridConfig(
            knn_variants=("kappa", "delta"), knn_ks=(1, 4), lof_ks=(5,),
            iforest_trees=(10, 20), iforest_subsample=32, alphas=(0.05,), ps=(0.1,),
            contaminations=(0.0, 0.05), repetitions=2, volume_samples=200, master_seed=3,
        )
        tables = [prepare_table(synth_multiclass_table(f"m{t}", (60, 20, 12), seed=t))
                  for t in range(2)]
        stores = {}
        for workers in (1, 3, 9):
            run_grid(cfg, tables, RecordStore(tmp_path / str(workers), manifest_hash="h"),
                     workers=workers)
            stores[workers] = {
                p.name: p.read_bytes() for p in (tmp_path / str(workers)).glob("*.csv")
            }
        assert len(stores[1]) == 4 * 3 and stores[1] == stores[3] == stores[9]
        # Each file lists its cells in block order: contamination, repetition,
        # then combo, the order in which an append writes one block's cells.
        ordered = RecordStore(tmp_path / "ordered", manifest_hash="h")
        records = rows_of(RecordStore(tmp_path / "1", manifest_hash="h").load())
        for block in sorted({(r.contamination, r.repetition) for r in records}):
            ordered.append(cells_of(
                [r for r in records if (r.contamination, r.repetition) == block],
                cfg.measure_names()))
        assert {p.name: p.read_bytes() for p in (tmp_path / "ordered").glob("*.csv")} == stores[1]

    @pytest.mark.parametrize("contamination, lines", [
        (0.0, ["m c=0 rep=0: 4 cells"]),
        # 48 training normals take round(0.01 * 48 / 0.99) = 0 anomalies:
        # contamination 0.01 shares one fit, as contamination 0 does.
        (0.01, ["m c=0.01 rep=0: 4 cells"]),
        # They take 3 anomalies at 0.05: one block, and one fit, per class.
        (0.05, ["m c=0.05 rep=0: 2 cells"] * 2),
    ])
    def test_block_plan_does_not_depend_on_the_worker_count(self, tmp_path, contamination,
                                                            lines):
        # One table of two anomaly classes, one repetition.
        cfg = knn_only_config(contaminations=(contamination,), repetitions=1)
        tables = [prepare_table(synth_multiclass_table("m", (60, 20, 12), seed=0))]
        progress, stores = {}, {}
        for workers in (1, 3):
            root = tmp_path / str(workers)
            progress[workers] = []
            run_grid(cfg, tables, RecordStore(root, manifest_hash="h"),
                     progress=progress[workers].append, workers=workers)
            stores[workers] = {p.name: p.read_bytes() for p in root.glob("*.csv")}
        assert progress[1] == progress[3] == lines
        assert len(stores[1]) == 2 and stores[1] == stores[3]

    def test_benchmarks_with_injected_anomalies_cannot_share_a_block(self):
        cfg = knn_only_config(repetitions=1)
        table = prepare_table(synth_multiclass_table("m", (60, 20, 12), seed=0))
        assert len(_run_repetition(cfg, table, 0.0, 0)) == 2 * len(cfg.detector_combos())
        with pytest.raises(ValueError, match="injected anomalies"):
            _run_repetition(cfg, table, 0.05, 0)

    def test_two_tables_or_benchmarks_of_one_name_are_refused(self, tmp_path, monkeypatch):
        table = synth_gaussian(40, 10, seed=1, table="tab-a", anomaly_class="b")
        # Class a-b of table tab makes benchmark tab-a-b too.
        other = synth_gaussian(40, 10, seed=2, table="tab", anomaly_class="a-b")
        store = RecordStore(tmp_path / "records", manifest_hash="h")
        monkeypatch.setattr(store, "load", lambda: pytest.fail("store loaded before the check"))
        for tables, kind in (([table, table], "tables"), ([table, other], "benchmarks")):
            with pytest.raises(ValueError, match=f"{kind} share a name"):
                run_grid(knn_only_config(repetitions=1), tables, store)
        assert not list(tmp_path.iterdir())

    def test_cells_deterministic(self):
        cfg = knn_only_config()
        table = self.table()
        combo = cfg.detector_combos()[1]
        a = rows_of(_run_repetition(cfg, table, 0.0, 1))[combo.index]
        b = rows_of(_run_repetition(cfg, table, 0.0, 1))[combo.index]
        assert a == b

    def test_failing_cell_is_flagged_not_fatal(self, tmp_path):
        # k = 51 exceeds the training-fold size of a tiny benchmark.
        cfg = knn_only_config(knn_ks=(1, 51), repetitions=1)
        table = synth_gaussian(20, 10, seed=3, table="tiny", anomaly_class="c1")
        store = RecordStore(tmp_path, manifest_hash="h")
        summary = run_grid(cfg, [table], store)
        assert summary.n_flagged == 1
        flagged = [r for r in rows_of(store.load()) if r.flagged_missing]
        assert len(flagged) == 1
        assert flagged[0].flags == ("error:ValueError",)
        assert all(v is None for v in flagged[0].values.values())

    def test_rerun_summary_counts_the_stored_flagged_cells(self, tmp_path, monkeypatch):
        cfg = knn_only_config(knn_ks=(1, 51), repetitions=1)
        table = synth_gaussian(20, 10, seed=3, table="tiny", anomaly_class="c1")
        store = RecordStore(tmp_path, manifest_hash="h")
        first = run_grid(cfg, [table], store)
        loads = []
        load = RecordStore.load
        monkeypatch.setattr(RecordStore, "load", lambda self: loads.append(1) or load(self))
        again = run_grid(cfg, [table], store)
        assert (first.n_new, first.n_flagged, first.errors) == (2, 1, {"error:ValueError": 1})
        assert (again.n_new, again.n_flagged, again.errors) == (0, 1, {"error:ValueError": 1})
        assert loads == [1]

    def test_validation_columns_written(self, tmp_path):
        cfg = knn_only_config(validation_fraction=0.3, repetitions=1)
        store = RecordStore(tmp_path, manifest_hash="h")
        run_grid(cfg, [self.table()], store)
        rec = rows_of(store.load())[0]
        assert rec.values.get("val:AUC") is not None
        assert rec.values.get("AUC") is not None


def assert_same_model(model, own):
    assert type(model) is type(own)
    for field in dataclasses.fields(own):
        a, b = getattr(model, field.name), getattr(own, field.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and (a == b).all(), field.name
        else:
            assert a == b, field.name


class TestFitModels:
    (bench,) = synth_gaussian(40, 10, dim=2, shift=2.0, seed=8).benchmarks()
    spec = SplitSpec(seed=3, repetition=1)

    def train(self):
        train = split(self.bench, self.spec).train
        return np.vstack([train, train[:6]])  # six duplicate rows

    def own_fit(self, combo, train):
        if combo.detector == "knn":
            return knn_fit(train, k=combo.param("k"), variant=combo.param("variant"))
        if combo.detector == "lof":
            return lof_fitter(train)(combo.param("k"))
        seed = experiments._fit_seed(self.bench.table, combo, self.spec)
        return iforest_fit(
            train, n_trees=combo.param("n_trees"), subsample=combo.param("subsample"), seed=seed
        )

    def test_each_model_equals_its_own_fit(self):
        train = self.train()
        n = len(train)
        combos = [
            Combo(0, "knn", (("variant", "kappa"), ("k", 1))),
            Combo(1, "knn", (("variant", "gamma"), ("k", n - 1))),
            Combo(2, "knn", (("variant", "delta"), ("k", n))),
            Combo(3, "lof", (("k", 1),)),
            Combo(4, "lof", (("k", n - 1),)),
            Combo(5, "lof", (("k", 7),)),
            # Two subsamples; each forest is fitted once at its largest size.
            Combo(6, "iforest", (("n_trees", 5), ("subsample", 16))),
            Combo(7, "iforest", (("n_trees", 30), ("subsample", 16))),
            Combo(8, "iforest", (("n_trees", 20), ("subsample", 256))),
        ]
        models = fit_models(self.bench.table, self.spec, train, combos)
        assert len(models) == len(combos)
        for combo, model in zip(combos, models):
            assert_same_model(model, self.own_fit(combo, train))

    def test_failures_stay_in_their_own_entry(self):
        train = self.train()
        n = len(train)
        combos = [
            Combo(0, "lof", (("k", 5),)),
            Combo(1, "lof", (("k", n),)),  # k out of range
            Combo(2, "knn", (("variant", "kappa"), ("k", n + 1))),
            Combo(3, "iforest", (("n_trees", 10), ("subsample", 1))),  # the forest fit fails
            Combo(4, "iforest", (("n_trees", 20), ("subsample", 1))),
            Combo(5, "iforest", (("n_trees", 10), ("subsample", 16))),
            Combo(6, "iforest", (("n_trees", 0), ("subsample", 16))),  # its prefix fails
            Combo(7, "knn", (("variant", "gamma"), ("k", 2))),
        ]
        models = fit_models(self.bench.table, self.spec, train, combos)
        failed = [i for i, m in enumerate(models) if isinstance(m, ValueError)]
        assert failed == [1, 2, 3, 4, 6]
        assert models[3] is models[4]
        for i in (0, 5, 7):
            assert_same_model(models[i], self.own_fit(combos[i], train))


class TestRunCell:
    def test_validation_failure_keeps_evaluation_columns(self):
        # Three of these validation parts hold a single class.
        cfg = knn_only_config(
            knn_variants=("gamma",), knn_ks=(3,), validation_fraction=0.3, repetitions=4
        )
        table = synth_gaussian(40, 2, seed=3)
        (combo,) = cfg.detector_combos()
        for rep in (0, 1, 3):
            (rec,) = rows_of(_run_repetition(cfg, table, 0.0, rep))
            kept = {n: v for n, v in rec.values.items() if not n.startswith("val:")}
            val = {n: v for n, v in rec.values.items() if n.startswith("val:")}
            assert len(kept) == len(val) == 7
            assert all(v is not None for v in kept.values())
            assert all(v is None for v in val.values())
            assert rec.flags == ("error:ValueError",)

    def test_one_curve_per_sample_and_one_scored_volume_sample(self, monkeypatch):
        cfg = knn_only_config(
            knn_ks=(3,), alphas=(0.01, 0.05), validation_fraction=0.3, volume_samples=300
        )
        table = synth_gaussian(120, 60, dim=2, shift=3.0, seed=0)
        fold = split(table.benchmarks()[0], SplitSpec(seed=cfg.master_seed, repetition=1))
        curves, points = [], []
        roc_rows, score = experiments.roc_rows, experiments.neighbour_scores

        def counting_roc(labels, scores, order):
            curves.append(scores.shape)
            return roc_rows(labels, scores, order)

        monkeypatch.setattr(experiments, "roc_rows", counting_roc)
        monkeypatch.setattr(
            experiments, "neighbour_scores", lambda ms, x: points.append(len(x)) or score(ms, x)
        )
        (rec,) = rows_of(_run_repetition(cfg, table, 0.0, 1))
        assert rec.flags == () and not rec.flagged_missing
        # One batched call per labelled sample (evaluation part, then
        # validation part), with one row for the one cell.
        assert [rows for rows, _ in curves] == [1, 1]
        assert sum(n for _, n in curves) == len(fold.test_labels)
        # The block of this one cell scores its test fold and its volume
        # sample once each through the neighbour table.
        assert sum(points) == len(fold.test_labels) + cfg.volume_samples

    def test_knn_block_shares_split_volume_draw_and_distances(self, tmp_path, monkeypatch):
        table = synth_gaussian(120, 60, dim=2, shift=3.0, seed=0)
        cfg = knn_only_config(
            knn_variants=("kappa", "gamma", "delta"),
            knn_ks=(1, 3, 5, 7, 9, 13, 21, 31, 51),
            repetitions=1,
        )
        fold = split(table.benchmarks()[0], SplitSpec(seed=cfg.master_seed))
        # Queries per chunk at this training fold's size: the test fold and
        # the volume sample, scored in one call, fill one chunk and 100
        # points of a second.
        step = min(_CHUNK, detectors._BLOCK_ELEMENTS // len(fold.train))
        n_test = len(fold.test_labels)
        assert n_test <= step
        cfg = dataclasses.replace(cfg, volume_samples=step + 100 - n_test)
        calls = {"split": 0, "uniform_sample": 0}
        distances = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(experiments, "split")
        counting(experiments, "uniform_sample")
        cdist = detectors.cdist
        monkeypatch.setattr(
            detectors, "cdist", lambda a, b: distances.append(len(a)) or cdist(a, b)
        )
        store = RecordStore(tmp_path, manifest_hash="h")
        summary = run_grid(cfg, [table], store)
        assert summary.n_new == 27 and summary.n_flagged == 0
        assert calls == {"split": 1, "uniform_sample": 1}
        # One query-train distance matrix per query chunk of the one call.
        assert distances == [step, 100]


    @pytest.mark.parametrize("validation_fraction", [0.0, 0.3])
    def test_non_finite_score_fails_only_its_own_cell(
        self, tmp_path, monkeypatch, validation_fraction
    ):
        cfg = knn_only_config(
            knn_variants=("kappa", "gamma"),
            knn_ks=(1, 3, 5),
            lof_ks=(4, 8),
            ps=(0.05, 0.8),  # the test fold holds fewer than 80% anomalies
            repetitions=1,
            volume_samples=300,
            validation_fraction=validation_fraction,
        )
        table = synth_gaussian(120, 60, dim=2, shift=3.0, seed=0)
        (bench,) = table.benchmarks()
        clean = RecordStore(tmp_path / "clean", manifest_hash="h")
        run_grid(cfg, [table], clean)
        expected = {r.grid_index: r for r in rows_of(clean.load())}
        n_test = len(split(bench, SplitSpec(seed=cfg.master_seed)).test_labels)
        # The column made NaN: a point of the validation part, if there is one.
        perm = np.random.default_rng(
            experiments.derive_seed(cfg.master_seed, "valsplit", bench.name, 0)
        ).permutation(n_test)
        column = perm[0] if validation_fraction else 0
        bad = 3  # row and grid index of the kNN gamma k=1 combo
        score = experiments.neighbour_scores

        def nan_in_one_row(models, x):
            out = score(models, x)
            if len(x) == n_test + cfg.volume_samples:  # the test fold, then the volume sample
                out[bad, column] = np.nan
            return out

        monkeypatch.setattr(experiments, "neighbour_scores", nan_in_one_row)
        patched = RecordStore(tmp_path / "patched", manifest_hash="h")
        summary = run_grid(cfg, [table], patched)
        assert summary.n_flagged == 1
        records = {r.grid_index: r for r in rows_of(patched.load())}
        assert records.keys() == expected.keys()
        for index, rec in records.items():
            if index != bad:
                assert rec == expected[index]
        rec, clean_rec = records[bad], expected[bad]
        assert "thinned-normals@0.8" in clean_rec.flags
        kept_flags = clean_rec.flags if validation_fraction else ()
        assert rec.flags == kept_flags + ("error:ValueError",)
        for name, value in rec.values.items():
            kept = validation_fraction and not name.startswith("val:")
            assert value == (clean_rec.values[name] if kept else None)

    def test_grid_blocks_equal_cells_run_one_by_one(self, tmp_path):
        # k=60 exceeds the 48-point training fold, for kNN and beside a LOF
        # combo that fits; contamination 0.5 needs 48 anomalies where the
        # benchmark has 8.
        cfg = GridConfig(
            knn_variants=("kappa", "gamma", "delta"),
            knn_ks=(1, 4, 60),
            lof_ks=(5, 60),
            iforest_trees=(10, 20),
            iforest_subsample=32,
            alphas=(0.05, 0.2),
            ps=(0.1,),
            contaminations=(0.0, 0.05, 0.5),
            repetitions=2,
            volume_samples=300,
            validation_fraction=0.3,
            master_seed=5,
        )
        table = synth_gaussian(60, 8, dim=3, shift=2.0, seed=4)
        combos = cfg.detector_combos()
        cells = [
            (combo, c, rep)
            for c in cfg.contaminations
            for combo in combos
            for rep in range(cfg.repetitions)
        ]
        expected = {
            (r.contamination, r.grid_index, r.repetition): r
            for c in cfg.contaminations for rep in range(cfg.repetitions)
            for r in rows_of(_run_repetition(cfg, table, c, rep))
        }
        store = RecordStore(tmp_path, manifest_hash="h")
        # Resume from a store holding half of the c=0.05 block's combos.
        stored = [cell for cell in cells if cell[1] == 0.05 and cell[0].index % 2 == 0]
        store.append(cells_of([expected[c, combo.index, rep] for combo, c, rep in stored],
                              cfg.measure_names()))
        summary = run_grid(cfg, [table], store)
        assert summary.n_cells == len(cells)
        assert summary.n_new == len(cells) - len(stored)
        rows = {(r.contamination, r.grid_index, r.repetition): r for r in rows_of(store.load())}
        assert rows == expected
        flags = {key: r.flags for key, r in rows.items() if r.flagged_missing}
        oversized = {i for i, combo in enumerate(combos) if combo.params[-1] == ("k", 60)}
        assert {(c, i) for c, i, _ in flags} == (
            {(c, i) for c in (0.0, 0.05) for i in oversized}
            | {(0.5, combo.index) for combo in combos}
        )
        assert set(flags.values()) == {("error:ValueError",)}

    def test_block_columns_equal_the_store_of_its_cells_run_one_by_one(self, tmp_path):
        # 8-point test folds with 2-point validation parts: c1's is of one class
        # at repetition 0.  k=60 exceeds the 16-point training fold, and
        # precision@0.8 thins the normals of a fold that is half anomalies.
        cfg = GridConfig(
            knn_variants=("kappa",), knn_ks=(1, 60), lof_ks=(5,), iforest_trees=(10,),
            iforest_subsample=8, alphas=(0.05,), ps=(0.1, 0.8), repetitions=2,
            volume_samples=100, validation_fraction=0.3, master_seed=11,
        )
        table = prepare_table(synth_multiclass_table("toy", (20, 4, 4), seed=0))
        names = cfg.measure_names()
        # Each cell alone: its benchmark alone, under a config of its combo alone.
        alone = {}
        for bench in table.benchmarks():
            for combo in cfg.detector_combos():
                own = dict(knn_ks=(), lof_ks=(), iforest_trees=())
                if combo.detector == "knn":
                    own.update(knn_variants=(combo.param("variant"),), knn_ks=(combo.param("k"),))
                elif combo.detector == "lof":
                    own.update(lof_ks=(combo.param("k"),))
                else:
                    own.update(iforest_trees=(combo.param("n_trees"),))
                store = RecordStore(tmp_path / f"{bench.name}-{combo.index}", manifest_hash="h")
                run_grid(dataclasses.replace(cfg, **own), [table.narrowed([bench.anomaly_class])],
                         store)
                alone[bench.name, combo.index] = store.load()
        seen = Counter()
        for rep in range(cfg.repetitions):
            block = _run_repetition(cfg, table, 0.0, rep)
            assert block.measures == names and len(block) == 2 * len(cfg.detector_combos())
            assert block.keys() == sorted(block.keys())
            for i, key in enumerate(block.keys()):
                stored = alone[key[0], key[2]]
                (j,) = np.flatnonzero(stored.repetition == rep)
                assert stored.measures == names
                for column in ("table", "anomaly_class", "detector", "params", "contamination",
                               "repetition", "flags", "benchmark"):
                    assert getattr(block, column)[i] == getattr(stored, column)[j], (key, column)
                assert block.values[i].tobytes() == stored.values[j].tobytes(), key
                assert (block.na[i] == stored.na[j]).all(), key
                val = np.array([n.startswith("val:") for n in names])
                seen["failed"] += block.na[i].all()
                seen["one-class part"] += block.na[i, val].all() and not block.na[i, ~val].any()
                seen["whole"] += not block.na[i].any()
                seen["thinned"] += "thinned-normals@0.8" in block.flags[i]
        assert len(seen) == 4 and all(seen.values()), seen


class TestSharedFits:
    """The benchmarks of one table share fits only where their training folds are equal."""

    cfg = GridConfig(
        knn_variants=("kappa", "delta"),
        knn_ks=(1, 4),
        lof_ks=(5,),
        iforest_trees=(10, 20),
        iforest_subsample=32,
        alphas=(0.05, 0.2),
        ps=(0.1,),
        # The 48-point training fold takes no anomaly at 0.005, 3 at 0.05 and
        # 8 at 0.15, which the 5-point class c3 does not have.
        contaminations=(0.0, 0.005, 0.05, 0.15),
        repetitions=2,
        volume_samples=300,
        validation_fraction=0.3,
        master_seed=5,
    )
    table = prepare_table(synth_multiclass_table("m", (60, 20, 12, 5), dim=3, seed=4))
    benches = table.benchmarks()

    def cells(self):
        return [
            (bench, c, combo, rep)
            for bench in self.benches
            for c in self.cfg.contaminations
            for combo in self.cfg.detector_combos()
            for rep in range(self.cfg.repetitions)
        ]

    def test_records_equal_cells_run_one_benchmark_at_a_time(self, tmp_path):
        cfg = self.cfg
        expected = {
            (r.anomaly_class, c, r.grid_index, rep): r
            for bench in self.benches for c in cfg.contaminations
            for rep in range(cfg.repetitions)
            for r in rows_of(_run_repetition(cfg, self.table.narrowed([bench.anomaly_class]), c,
                                             rep))
        }
        # Resume from a store holding some cells of two benchmarks, so the
        # benchmarks of a block have different combos pending.
        stored = [
            (bench, c, combo, rep) for bench, c, combo, rep in self.cells()
            if (bench.anomaly_class, combo.index % 2, rep) in {("c1", 0, 1), ("c2", 1, 0)}
        ]
        store = RecordStore(tmp_path, manifest_hash="h")
        store.append(cells_of([expected[bench.anomaly_class, c, combo.index, rep]
                               for bench, c, combo, rep in stored], cfg.measure_names()))
        summary = run_grid(cfg, [self.table], store)
        assert summary.n_new == len(expected) - len(stored)
        rows = {
            (r.anomaly_class, r.contamination, r.grid_index, r.repetition): r
            for r in rows_of(store.load())
        }
        assert rows == expected
        failed = {key[:2] for key, r in rows.items() if r.flags == ("error:ValueError",)}
        assert ("c3", 0.15) in failed and ("c1", 0.15) not in failed

    def test_resume_of_a_partly_stored_block_appends_each_missing_cell_once(self, tmp_path):
        # An append cut short after class c1's files and c2's kNN file: c2's
        # blocks run whole again, and its stored kNN cells are not appended.
        fresh = tmp_path / "fresh"
        run_grid(self.cfg, [self.table], RecordStore(fresh, manifest_hash="h"))
        files = {p.name: p.read_bytes() for p in fresh.glob("*.csv")}
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        for name, data in files.items():
            if name.startswith("m-c1__") or name == "m-c2__knn.csv":
                (resumed / name).write_bytes(data)
        store = RecordStore(resumed, manifest_hash="h")
        n_missing = len(missing_cells(self.cfg, [b.name for b in self.benches], store.load()))
        assert 0 < n_missing < len(self.cells())
        summary = run_grid(self.cfg, [self.table], store)
        assert summary.n_new == n_missing
        keys = [r.key for r in rows_of(store.load())]
        assert len(keys) == len(set(keys)) == len(self.cells())
        assert {p.name: p.read_bytes() for p in resumed.glob("*.csv")} == files

    def test_one_fit_per_training_fold(self, tmp_path, monkeypatch):
        fits = {"iforest": [], "lof": [], "knn": []}
        iforest, knn, cdist = experiments.iforest_fit, experiments.knn_fit, detectors.cdist

        def count(family, fit):
            return lambda train, **kw: fits[family].append(len(train)) or fit(train, **kw)

        monkeypatch.setattr(experiments, "iforest_fit", count("iforest", iforest))
        monkeypatch.setattr(experiments, "knn_fit", count("knn", knn))

        def counting_cdist(a, b):
            if a is b:  # LOF's training distance matrix: a fold against itself
                fits["lof"].append(len(a))
            return cdist(a, b)

        monkeypatch.setattr(detectors, "cdist", counting_cdist)
        run_grid(self.cfg, [self.table], RecordStore(tmp_path, manifest_hash="h"))
        # Training fold sizes: 48 normals, plus 3 anomalies at c = 0.05 and 8
        # at c = 0.15.  Per repetition, c = 0 and c = 0.005 each fit once for
        # the whole table; c = 0.05 once per benchmark, c = 0.15 once per
        # benchmark it can split.
        per_repetition = {48: 2, 51: 3, 56: 2}
        reps = self.cfg.repetitions
        n_knn = len(self.cfg.knn_variants) * len(self.cfg.knn_ks)
        for family, per_fold in (("iforest", 1), ("lof", 1), ("knn", n_knn)):
            counts = {n: fits[family].count(n) for n in set(fits[family])}
            assert counts == {n: k * reps * per_fold for n, k in per_repetition.items()}, family


class TestSharedVolumeAndScoring:
    """One volume sample per (table, repetition); each distinct point scored once per model."""

    table = prepare_table(synth_multiclass_table("m", (60, 20, 15, 12), dim=3, seed=8))
    benches = table.benchmarks()

    @staticmethod
    def config(**overrides):
        base = dict(
            knn_variants=("kappa", "delta"),
            knn_ks=(1, 4),
            lof_ks=(5,),
            iforest_trees=(10, 20),
            iforest_subsample=32,
            alphas=(0.05, 0.2),
            ps=(0.1,),
            repetitions=2,
            volume_samples=300,
            master_seed=3,
        )
        return GridConfig(**{**base, **overrides})

    @staticmethod
    def run_table(cfg, contamination, table=table):
        """Every row of ``table``: one block at contamination 0, else one per class."""
        blocks = [table] if contamination == 0 else [table.narrowed([c]) for c, _ in table.anomalies]
        return [r for block in blocks
                for r in rows_of(_run_repetition(cfg, block, contamination, 0))]

    @pytest.mark.parametrize("validation_fraction", [0.0, 0.3])
    def test_benchmark_rows_do_not_depend_on_the_table_s_other_benchmarks(
        self, tmp_path, validation_fraction
    ):
        # 48 training normals take 3 anomalies at c = 0.05: every class has them.
        cfg = self.config(contaminations=(0.0, 0.05), validation_fraction=validation_fraction)
        together = RecordStore(tmp_path / "together", manifest_hash="h")
        assert run_grid(cfg, [self.table], together).n_flagged == 0
        together_files = {p.name: p.read_bytes() for p in together.root.glob("*.csv")}
        assert len(together_files) == 3 * len(self.benches)
        for bench in self.benches:
            alone = RecordStore(tmp_path / bench.name, manifest_hash="h")
            run_grid(cfg, [self.table.narrowed([bench.anomaly_class])], alone)
            files = {p.name: p.read_bytes() for p in alone.root.glob("*.csv")}
            assert len(files) == 3
            assert files == {name: together_files[name] for name in files}

    @pytest.mark.parametrize("validation_fraction", [0.0, 0.3])
    def test_failing_scorer_fails_only_the_cells_it_served(self, monkeypatch, validation_fraction):
        cfg = self.config(repetitions=1, validation_fraction=validation_fraction)

        def broken(models, x):
            raise ValueError("forest scoring failed")

        for contamination in (0.0, 0.05):
            expected = self.run_table(cfg, contamination)
            with monkeypatch.context() as patch:
                patch.setattr(experiments, "forest_scores", broken)
                records = self.run_table(cfg, contamination)
            assert len(records) == len(expected) == 3 * len(cfg.detector_combos())
            for record, unpatched in zip(records, expected):
                if record.detector == "iforest":
                    assert record.flags == ("error:ValueError",)
                    assert all(v is None for v in record.values.values())
                else:
                    assert not unpatched.flags and record == unpatched

    @pytest.mark.parametrize("contamination", [0.0, 0.05])
    def test_one_evaluation_per_benchmark_and_labelled_sample(self, monkeypatch, contamination):
        # The default grid: 27 kNN, 3 LOF and 3 forest combos, two scorers.
        table = prepare_table(synth_multiclass_table("w", (90, 20, 15, 12), dim=3, seed=2))
        cfg = GridConfig(contaminations=(contamination,), repetitions=1, volume_samples=200,
                         validation_fraction=0.3, master_seed=4)
        combos = cfg.detector_combos()
        rows, roc_rows = [], experiments.roc_rows
        monkeypatch.setattr(experiments, "roc_rows",
                            lambda labels, scores, order: rows.append(len(scores))
                            or roc_rows(labels, scores, order))
        records = self.run_table(cfg, contamination, table)
        assert not any(r.flags for r in records)
        # An evaluation part and a val: part per benchmark.
        assert rows == [len(combos)] * 2 * len(table.anomalies)

    def test_block_draws_one_sample_and_scores_each_point_once(self, monkeypatch):
        cfg = self.config(repetitions=1)
        draws, scored = [], {"neighbour": [], "forest": []}
        sample = experiments.uniform_sample
        monkeypatch.setattr(experiments, "uniform_sample",
                            lambda *args: draws.append(args) or sample(*args))
        for family in scored:
            scorer = getattr(experiments, f"{family}_scores")

            def recording(models, x, scorer=scorer, calls=scored[family]):
                calls.append(np.array(x))
                return scorer(models, x)

            monkeypatch.setattr(experiments, f"{family}_scores", recording)
        cells = _run_repetition(cfg, self.table, 0.0, 0)
        assert len(cells) == 3 * len(cfg.detector_combos())
        assert not any(cells.flags)
        assert len(draws) == 1
        spec = SplitSpec(train_fraction=cfg.train_fraction, seed=cfg.master_seed)
        folds = [split(bench, spec) for bench in self.benches]
        n_neg = int(np.count_nonzero(folds[0].test_labels == 0))
        n_test = n_neg + sum(int(fold.test_labels.sum()) for fold in folds)
        distinct = np.unique(np.concatenate([fold.test for fold in folds]), axis=0)
        volume = sample(*draws[0])
        for family, calls in scored.items():
            # One scoring pass of the test points followed by the volume sample.
            (scored_points,) = calls
            tests, points = scored_points[:n_test], scored_points[n_test:]
            assert len(tests) == n_test == len(distinct), family
            assert np.array_equal(np.unique(tests, axis=0), distinct), family
            assert np.array_equal(points, volume), family

    def test_every_class_of_a_table_draws_in_its_normal_box(self):
        cfg = self.config()
        normal = self.table.normal
        box = bounding_box(normal)
        assert np.array_equal(box.b_min, normal.min(axis=0))
        assert np.array_equal(box.b_max, normal.max(axis=0))
        # The table's box, the master seed's stream of (table, repetition), n points.
        drawn = uniform_sample(box, 300, derive_seed(3, "volume", "m", 1))
        for bench in self.benches:
            sample = cfg.volume_sample(bench.table, bench.normal, 1)
            assert sample.shape == drawn.shape and (sample == drawn).all(), bench.name
        # Another table name or another repetition draws another sample.
        for table, rep in (("n", 1), ("m", 2)):
            other = cfg.volume_sample(table, normal, rep)
            assert other.shape == drawn.shape and not (other == drawn).any(), (table, rep)


def evaluated_cells(labels, parts, test_scores, volume_scores, cfg):
    """:func:`_evaluate_cells` as one (values, flags) pair per cell.

    A cell's values map each column it evaluated, ``prefix + measure``
    part by part, to its float; a column left ``NA`` is left out.
    """
    values, na, flags = experiments._evaluate_cells(
        labels, parts, test_scores, volume_scores, cfg, 9
    )
    names = [prefix + m.name for prefix, _ in parts for m in cfg.measures()]
    assert values.shape == na.shape == (len(test_scores), len(names))
    assert not values[na].any()  # an NA value is held as 0
    return [({n: v for n, v, missing in zip(names, row, row_na) if not missing}, cell_flags)
            for row, row_na, cell_flags in zip(values.tolist(), na.tolist(), flags)]


class TestEvaluateCells:
    """One benchmark's cells of a block, evaluated from its (combo x point) score matrices."""

    cfg = knn_only_config(alphas=(0.05, 0.2), ps=(0.05, 0.5))
    labels = np.array([1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0])

    def scores(self):
        rng = np.random.default_rng(3)
        return np.round(rng.random((5, len(self.labels))), 1), np.round(rng.random((5, 40)), 1)

    def evaluate(self, samples, test_scores, volume_scores):
        return evaluated_cells(self.labels, samples, test_scores, volume_scores, self.cfg)

    def test_non_finite_row_fails_only_its_own_cell(self):
        test_scores, volume_scores = self.scores()
        test_scores[1, 3] = np.nan
        volume_scores[3, 0] = np.inf
        samples = [("", np.arange(len(self.labels)))]
        cells = self.evaluate(samples, test_scores, volume_scores)
        assert cells[1] == cells[3] == ({}, ["error:ValueError"])
        good = [0, 2, 4]
        alone = self.evaluate(samples, test_scores[good], volume_scores[good])
        assert [cells[i] for i in good] == alone
        assert all(set(values) == set(self.cfg.measure_names()) for values, _ in alone)

    def test_one_class_sample_fails_every_cell_still_standing(self):
        test_scores, volume_scores = self.scores()
        volume_scores[2, 5] = np.nan
        first = np.arange(12)
        normals_only = np.array([12, 13, 15])
        cells = self.evaluate([("", first), ("val:", normals_only)], test_scores, volume_scores)
        assert cells[2] == ({}, ["error:ValueError"])
        alone = self.evaluate([("", first)], test_scores, volume_scores)
        for i in (0, 1, 3, 4):
            values, flags = alone[i]
            # 3 anomalies in 12 is less contaminated than p = 0.5.
            assert flags == ["thinned-normals@0.5"]
            assert cells[i] == (values, flags + ["error:ValueError"])


    def test_thinned_normals_flags_only_the_levels_whose_normals_are_thinned(self):
        # 1 anomaly in 21 is less contaminated than p = 0.05, yet precision@0.05
        # keeps round(0.05 * 20 / 0.95) = 1 anomaly and so every normal.  At
        # p = 0.1 it would keep 2 anomalies, so it thins the normals to 9.
        labels = np.r_[1, np.zeros(20, dtype=int)]
        cfg = knn_only_config(ps=(0.05, 0.1))
        assert precision_composition(1, 20, 0.05) == (1, 20, 2)
        assert precision_composition(1, 20, 0.1) == (1, 9, 1)
        rng = np.random.default_rng(4)
        cells = evaluated_cells(
            labels, [("", np.arange(21))], rng.random((2, 21)), rng.random((2, 10)), cfg,
        )
        assert [flags for _, flags in cells] == [["thinned-normals@0.1"]] * 2

    def test_thinned_normals_flags_follow_the_store_column_order(self):
        # 1 anomaly in 201 is less contaminated than either level, so both
        # thin the normals; the flags follow the columns, highest level first.
        labels = np.r_[1, np.zeros(200, dtype=int)]
        cfg = knn_only_config(ps=(0.01, 0.05))
        assert all(precision_composition(1, 200, p)[1] < 200 for p in cfg.ps)
        rng = np.random.default_rng(5)
        cells = evaluated_cells(
            labels, [("", np.arange(201))], rng.random((2, 201)), rng.random((2, 10)), cfg,
        )
        assert [name for name in cfg.measure_names() if name.startswith("precision@")] == [
            "precision@0.05", "precision@0.01"]
        assert [flags for _, flags in cells] == [
            ["thinned-normals@0.05", "thinned-normals@0.01"]] * 2

    def test_a_kind_is_one_row_of_the_kinds_table(self, monkeypatch):
        # A kind added as one _KINDS row, with no other edit, is a column of
        # the grid at each level of its family and survives aggregate's filter.
        monkeypatch.setitem(experiments._KINDS, "const_at", (
            "CONST", "alphas", lambda s: np.full((len(s.cfg.alphas), len(s.scores)), 0.25)))
        cfg = knn_only_config(alphas=(0.01, 0.05, 0.2), ps=(0.05, 0.5))
        names = cfg.measure_names()
        assert len(set(names)) == len(names)
        added = ["CONST@0.2", "CONST@0.05", "CONST@0.01"]
        assert [n for n in names if n.startswith("CONST")] == added
        test_scores, volume_scores = self.scores()
        cells = evaluated_cells(
            self.labels, [("", np.arange(len(self.labels)))], test_scores, volume_scores, cfg
        )
        for values, flags in cells:
            assert set(values) == set(names)
            assert [values[n] for n in added] == [0.25] * 3
            assert not any(f.startswith("error:") for f in flags)
        kept = _select_measures(cfg, None, alpha=0.05, p=None)
        assert "CONST@0.05" in kept
        assert not {"CONST@0.2", "CONST@0.01"} & set(kept)


class TestParts:
    """The planner GridConfig.parts is the one place that cuts a test fold into parts."""

    cfg = knn_only_config(ps=(0.05, 0.2, 0.5), validation_fraction=0.25)
    table = synth_gaussian(60, 10, seed=3)  # 22-point test folds: 12 normals, then 10 anomalies

    def run(self, tmp_path, name):
        store = RecordStore(tmp_path / name, manifest_hash="h")
        run_grid(self.cfg, [self.table], store)
        return store

    def test_a_part_is_one_row_of_the_parts_table(self, tmp_path, monkeypatch):
        # The first 13 points of each fold, whichever permutation the planner
        # draws: 12 normals and 1 anomaly, which precision@0.2 and @0.5 thin.
        def head(cfg, perm, n_val):
            return np.sort(perm)[:13]

        plain = rows_of(self.run(tmp_path, "plain").load())
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_PARTS", {"evaluation": ("", head)})
            alone = rows_of(self.run(tmp_path, "alone").load())
        # A part added as one _PARTS row, with no other edit.
        monkeypatch.setitem(experiments._PARTS, "head", ("head:", head))
        store = self.run(tmp_path, "three")
        records = rows_of(store.load())
        names = [m.name for m in self.cfg.measures()]
        header = next(store.root.glob("*.csv")).read_text().splitlines()[1].split(",")
        assert header[len(experiments._ID_COLUMNS):] == (
            names + [f"val:{n}" for n in names] + [f"head:{n}" for n in names])
        assert len(records) == len(plain) == len(alone) == 4
        for rec, own, two in zip(records, alone, plain):
            # Its columns are the part's own sample, evaluated alone.
            assert {n: rec.values[f"head:{n}"] for n in names} == own.values
            # The other parts' columns and the flags do not move.
            assert {n: v for n, v in rec.values.items() if not n.startswith("head:")} == two.values
            assert rec.flags == two.flags == ("thinned-normals@0.5",)
            assert own.flags == ("thinned-normals@0.5", "thinned-normals@0.2")
        data = collapse(store.load())
        assert mean_rank_table(data).measures == kendall_matrix(data).measures == tuple(names)
        assert loss_matrix_table(data, select_on_validation=True).measures == tuple(names)

    @pytest.mark.parametrize("fraction, sizes, part", [
        (0.01, (80, 20, 20), "validation"),  # 36-point folds: round(0.36) = 0
        (0.9, (10, 2), "evaluation"),  # 4-point folds: round(3.6) = 4
    ], ids=["empty-validation", "empty-evaluation"])
    def test_an_empty_part_is_refused(self, tmp_path, fraction, sizes, part):
        cfg = knn_only_config(validation_fraction=fraction)
        table = prepare_table(synth_multiclass_table("toy", sizes))
        store = RecordStore(tmp_path / "store", manifest_hash="h")
        bench = table.benchmarks()[0].name
        with pytest.raises(ValueError, match=rf"^validation_fraction {fraction} leaves the "
                           rf"{part} part of {bench}'s \d+-point test fold empty at "
                           r"contamination 0$"):
            run_grid(cfg, [table], store)
        assert not store.root.exists()

    @pytest.mark.parametrize("fraction, part", [
        (0.3, "validation"),  # 4-point folds: round(1.2) = 1
        (0.75, "evaluation"),  # 4-point folds: round(3.0) = 3
    ], ids=["one-point-validation", "one-point-evaluation"])
    def test_a_one_point_part_is_refused(self, tmp_path, fraction, part):
        """A part of one point holds one class, so every measure of it would fail."""
        cfg = knn_only_config(validation_fraction=fraction)
        table = prepare_table(synth_multiclass_table("toy", (10, 2)))
        store = RecordStore(tmp_path / "store", manifest_hash="h")
        bench = table.benchmarks()[0].name
        with pytest.raises(ValueError, match=rf"^validation_fraction {fraction} leaves the "
                           rf"{part} part of {bench}'s 4-point test fold with 1 point at "
                           r"contamination 0$"):
            run_grid(cfg, [table], store)
        assert not store.root.exists()

    def test_a_part_of_one_class_in_every_repetition_is_refused(self, tmp_path):
        # 5-point test folds at contamination 0, 2 normals and then 3 anomalies;
        # at master seed 1 the one repetition's 2-point validation part draws
        # 2 anomalies.
        cfg = knn_only_config(validation_fraction=0.4, master_seed=1, repetitions=1)
        table = prepare_table(synth_multiclass_table("toy", (10, 3)))
        store = RecordStore(tmp_path / "store", manifest_hash="h")
        with pytest.raises(ValueError, match=r"^validation_fraction 0.4 leaves the validation "
                           r"part of toy-c1's 5-point test fold with 2 points of one class in "
                           r"every repetition at contamination 0$"):
            run_grid(cfg, [table], store)
        assert not store.root.exists()

    def test_a_part_of_one_class_in_some_repetitions_runs(self, tmp_path):
        # 8-point test folds at contamination 0 with 2-point validation parts:
        # two anomalies at repetition 0, one point of each class at repetition 1.
        cfg = knn_only_config(validation_fraction=0.3)
        table = prepare_table(synth_multiclass_table("toy", (20, 4)))
        store = RecordStore(tmp_path, manifest_hash="h")
        summary = run_grid(cfg, [table], store)
        assert (summary.n_new, summary.errors) == (4, {"error:ValueError": 2})
        for rec in rows_of(store.load()):
            one_class = rec.repetition == 0
            assert rec.flags == (("error:ValueError",) if one_class else ()), rec
            assert (rec.values["val:AUC"] is None) == one_class, rec
            assert rec.values["AUC"] is not None, rec

    def test_a_level_whose_split_fails_is_not_refused(self, tmp_path):
        # 10-point test folds at contamination 0: 3 validation and 7 evaluation
        # points, each part of both classes.  At contamination 0.5 the 16
        # training normals need 16 anomalies, which the class lacks: that
        # level's cells fail as before, the others run.
        cfg = knn_only_config(validation_fraction=0.3, contaminations=(0.0, 0.5), repetitions=1)
        table = prepare_table(synth_multiclass_table("toy", (20, 6)))
        store = RecordStore(tmp_path, manifest_hash="h")
        assert run_grid(cfg, [table], store).n_new == 4
        for rec in rows_of(store.load()):
            failed = rec.contamination == 0.5
            assert (rec.values["AUC"] is None) == failed, rec
            assert bool(rec.flags) == failed, rec


class TestMeasureRows:
    @given(score_rows())
    @settings(max_examples=60, deadline=None)
    def test_each_level_equals_its_one_level_config_bit_for_bit(self, case):
        # The alpha probes sit on every vertex FPR, between them and below
        # the first FPR step; the volume sample repeats the test scores, so
        # thresholds land on volume scores.  Every kind that takes a level is
        # read from the kinds table, so a kind added there is checked too.
        labels, scores = case
        levels = {"alphas": tuple(alpha_probes(labels)), "ps": (0.9, 0.5, 0.2, 0.05, 0.01)}
        volume = np.hstack([scores, scores + 0.25])

        def rows(**overrides):
            sample = experiments.LabelledSample(
                labels, scores, volume, knn_only_config(**overrides), 9
            )
            return {kind: row(sample) for kind, (_, family, row) in experiments._KINDS.items()
                    if family is not None}

        every = rows(**levels)
        for family, family_levels in levels.items():
            kinds = [kind for kind, (_, f, _) in experiments._KINDS.items() if f == family]
            assert kinds, family
            for level, value in enumerate(family_levels):
                one = rows(**{family: (value,)})
                for kind in kinds:
                    assert every[kind].shape == (len(family_levels), len(scores))
                    assert every[kind][level].tobytes() == one[kind][0].tobytes(), (kind, value)


class TestRecordStore:
    def test_roundtrip_preserves_values_exactly(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        rec = Row(values={"AUC": 1 / 3, "TPR@0.05": None}, flags=("note", "x"))
        store.append(cells_of([rec], ("AUC", "TPR@0.05")))
        assert rows_of(store.load()) == [rec]

    def test_manifest_comment_heads_each_file(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        store.append(cells_of([Row(values={"AUC": 0.5})], ("AUC",)))
        path = next(tmp_path.glob("*.csv"))
        assert path.read_text().startswith("# manifest: cafe01\n")

    def test_unrecognized_header_rejected(self, tmp_path):
        (tmp_path / "junk.csv").write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            RecordStore(tmp_path).load()

    def two_row_store(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        for rep in range(2):
            rec = Row(repetition=rep, values={"AUC": 0.5, "TPR@0.05": 0.25})
            store.append(cells_of([rec], ("AUC", "TPR@0.05")))
        return store, next(tmp_path.glob("*.csv"))

    def test_short_row_rejected_with_file_and_line(self, tmp_path):
        store, path = self.two_row_store(tmp_path)
        text = path.read_text()
        # Drop the last field of the last row but keep its newline.
        path.write_text(text[: text.rstrip("\n").rindex(",")] + "\n")
        with pytest.raises(ValueError, match=rf"{path.name}: line 4: 9 fields"):
            store.load()

    def test_a_repeated_cell_is_refused_naming_its_file_and_both_lines(self, tmp_path):
        store, path = self.two_row_store(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[2:3]))  # line 5 repeats line 3's cell
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 5 repeats the "
                           r"cell of line 3 \(t-c1 c=0 combo=0 rep=0\); a cell has one row$"):
            store.load()
        # A copy in another file names both files.
        path.write_text("".join(lines))
        other = tmp_path / "t-c1__lof.csv"
        other.write_text("".join(lines[:2] + lines[3:4]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(other))}: line 3 repeats the "
                           rf"cell of {re.escape(str(path))}: line 4 \(t-c1 c=0 combo=0 rep=1\)"):
            store.load()

    def test_torn_tail_loads_as_missing_cell(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        recs = [
            Row(repetition=rep, values={"AUC": 0.5, "TPR@0.05": 0.123456789})
            for rep in range(2)
        ]
        for rec in recs:
            store.append(cells_of([rec], ("AUC", "TPR@0.05")))
        path = next(tmp_path.glob("*.csv"))
        whole = path.read_bytes()
        # A write cut 6 bytes short leaves "...,0.12345" without a line end.
        path.write_bytes(whole[:-6])
        assert rows_of(store.load()) == recs[:1]
        store.append(cells_of([recs[1]], ("AUC", "TPR@0.05")))
        assert path.read_bytes() == whole
        # A torn header row leaves nothing to keep: the file starts afresh.
        path.write_bytes(whole[: whole.index(b"\n") + 5])
        assert rows_of(store.load()) == []
        store.append(cells_of([recs[0]], ("AUC", "TPR@0.05")))
        assert rows_of(store.load()) == recs[:1]

    def test_unparseable_value_rejected_with_file_and_line(self, tmp_path):
        store, path = self.two_row_store(tmp_path)
        path.write_text(path.read_text().replace("0.25\n", "0.2x\n", 1))
        with pytest.raises(ValueError, match=rf"{path.name}: line 3: .*0\.2x"):
            store.load()

    def test_na_nan_and_inf_load(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        names = ("A", "B", "C")
        store.append(cells_of([
            Row(repetition=0, values={"A": None, "B": math.nan, "C": -math.inf}),
            Row(repetition=1, values={"A": math.inf, "B": math.nan, "C": 0.25}),
        ], names))
        text = next(tmp_path.glob("*.csv")).read_text()
        assert text.endswith(",NA,nan,-inf\n0,t,c1,knn,g0,0.0,1,,inf,nan,0.25\n")
        with_na, without = rows_of(store.load())
        assert with_na.values["A"] is None and with_na.flagged_missing
        assert math.isnan(with_na.values["B"]) and with_na.values["C"] == -math.inf
        assert without.values["A"] == math.inf and not without.flagged_missing
        assert math.isnan(without.values["B"]) and without.values["C"] == 0.25
        for rec in (with_na, without):
            assert list(rec.values) == list(names)
            assert all(type(v) is float for v in rec.values.values() if v is not None)

    @pytest.mark.parametrize("change", [
        lambda fields, header: fields[:-1],  # the last measure dropped
        lambda fields, header: fields + ["F1@0.05" if header else "0.5"],  # a measure added
        lambda fields, header: fields[:8] + fields[:7:-1],  # the measures reordered
    ], ids=["dropped", "extra", "reordered"])
    def test_a_file_of_other_measure_columns_is_refused_naming_both_files(self, tmp_path,
                                                                          change):
        names = ("AUC", "TPR@0.05", "CVOL@0.05")
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        store.append(cells_of([Row(grid_index=g, detector=d, values=dict(zip(names, (0.5, 0.25, 1.0))))
                               for g, d in enumerate(("knn", "lof"))], names))
        knn, lof = sorted(tmp_path.glob("*.csv"))
        for victim in (knn, lof):  # the first file's header, or a later file's
            text = victim.read_text()
            manifest, *lines = text.splitlines()
            edited = [",".join(change(line.split(","), i == 0)) for i, line in enumerate(lines)]
            victim.write_text("\n".join([manifest, *edited, ""]))
            headers = [next(csv.reader([path.read_text().splitlines()[1]]))[8:]
                       for path in (knn, lof)]
            with pytest.raises(ValueError) as refused:
                store.load()
            assert str(refused.value) == (
                f"{lof}: measure columns {headers[1]} differ from {knn}'s {headers[0]}; "
                "a store holds one run's measures")
            victim.write_text(text)
            assert len(store.load()) == 2

    def test_file_of_another_run_rejected_naming_it(self, tmp_path):
        _, path = self.two_row_store(tmp_path)
        with pytest.raises(ValueError, match=rf"{path.name}: .*'# manifest: beef02'.*another run"):
            RecordStore(tmp_path, manifest_hash="beef02").load()

    def test_record_header_checked_under_the_manifest_line(self, tmp_path):
        (tmp_path / "junk.csv").write_text("# manifest: cafe01\nfoo,bar\n1,2\n")
        with pytest.raises(ValueError, match="unrecognized record header"):
            RecordStore(tmp_path, manifest_hash="cafe01").load()

    def test_empty_or_torn_to_nothing_file_loads_as_no_rows(self, tmp_path):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "torn.csv").write_text("# manifest: ca")  # no complete line
        assert rows_of(RecordStore(tmp_path, manifest_hash="cafe01").load()) == []

    def two_blocks(self):
        """Two blocks of rows over two files, each block holding both files' rows.

        The blocks are two contamination levels, as a run's blocks at one
        repetition are, so each file's rows in block order are in cell order.
        """
        return [
            [Row(anomaly_class=c, grid_index=g, contamination=level,
                 values={"AUC": 1 / (3 + g + b), "TPR@0.05": None if g else 0.5})
             for c in ("c1", "c2") for g in (0, 1)]
            for b, level in enumerate((0.0, 0.05))
        ]

    def test_block_append_writes_the_bytes_of_per_record_appends(self, tmp_path, monkeypatch):
        names = ("AUC", "TPR@0.05")
        single = RecordStore(tmp_path / "single", manifest_hash="cafe01")
        for block in self.two_blocks():
            for rec in block:
                single.append(cells_of([rec], names))
        cuts = []
        drop = experiments._drop_torn_tail
        monkeypatch.setattr(experiments, "_drop_torn_tail", lambda p: cuts.append(p.name) or drop(p))
        batched = RecordStore(tmp_path / "batched", manifest_hash="cafe01")
        for block in self.two_blocks():
            batched.append(cells_of(block, names))
        files = sorted(p.name for p in (tmp_path / "single").glob("*.csv"))
        assert len(files) == 2 and sorted(cuts) == sorted(files * 2)  # one check per file and block
        assert ({p.name: p.read_bytes() for p in (tmp_path / "batched").glob("*.csv")}
                == {p.name: p.read_bytes() for p in (tmp_path / "single").glob("*.csv")})
        assert rows_of(batched.load()) == sorted((r for b in self.two_blocks() for r in b),
                                                 key=lambda r: r.key)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_append_writes_the_reference_text(self, data):
        # A block's columns reach the file as the row-by-row writer wrote
        # records: ids, repr of each float, NA where a value is NA.
        names = data.draw(st.permutations(["AUC", "val:AUC", "TPR@0.05", "CVOL@0.05"]))
        value = st.one_of(
            st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2]),
            st.floats(allow_nan=False),
        )
        cells = data.draw(st.lists(
            st.tuples(st.sampled_from([("t", "c1"), ("t", "c 2"), ("u-v", "w")]),
                      st.integers(0, 3), st.sampled_from([0.0, 0.05, 0.1 + 0.2]),
                      st.integers(0, 2)),
            min_size=1, max_size=12, unique=True,
        ))
        rows = [
            Row(grid_index=g, table=table, anomaly_class=anomaly_class,
                detector=("knn", "lof")[g % 2], params=f"variant=kappa k={g + 1}",
                contamination=c, repetition=rep,
                flags=tuple(data.draw(st.lists(st.sampled_from(STORE_FLAGS), unique=True,
                                               max_size=3))),
                values={n: data.draw(value) for n in names})
            for (table, anomaly_class), g, c, rep in cells
        ]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=2)))
        blocks = [rows[a:b] for a, b in zip([0] + cuts, cuts + [len(rows)])]
        with tempfile.TemporaryDirectory() as root:
            store = RecordStore(root, manifest_hash="cafe01")
            for block in blocks:
                store.append(cells_of(block, names))
            files = {p.name: p.read_bytes().decode() for p in Path(root).glob("*.csv")}
        assert files == store_text_reference(blocks, names, "cafe01")

    def test_torn_tail_before_a_block_is_cut_once(self, tmp_path, monkeypatch):
        names = ("AUC", "TPR@0.05")
        first, second = self.two_blocks()
        whole = RecordStore(tmp_path / "whole", manifest_hash="cafe01")
        whole.append(cells_of(first + second, names))
        store = RecordStore(tmp_path / "store", manifest_hash="cafe01")
        store.append(cells_of(first, names))
        path = sorted((tmp_path / "store").glob("*.csv"))[0]
        path.write_bytes(path.read_bytes()[:-6])  # the last row of the first block is torn
        assert path.name == f"{first[1].benchmark}__{first[1].detector}.csv"
        assert rows_of(store.load()) == sorted(first[:1] + first[2:], key=lambda r: r.key)
        checks = []
        drop = experiments._drop_torn_tail
        monkeypatch.setattr(experiments, "_drop_torn_tail", lambda p: checks.append(p.name) or drop(p))
        store.append(cells_of([first[1]] + second, names))  # the torn row's cell, the next block
        assert sorted(checks) == sorted(p.name for p in (tmp_path / "store").glob("*.csv"))
        assert ({p.name: p.read_bytes() for p in (tmp_path / "store").glob("*.csv")}
                == {p.name: p.read_bytes() for p in (tmp_path / "whole").glob("*.csv")})


# ---------------------------------------------------------------------------
# Collapsing repetitions
# ---------------------------------------------------------------------------


class TestMeanRecords:
    def test_averages_over_repetitions(self):
        records = [
            Row(repetition=0, values={"AUC": 0.4}),
            Row(repetition=1, values={"AUC": 0.6}),
        ]
        data = collapse(cells_of(records))
        assert data.values.shape == (1, 1, 1)
        assert data.values[0, 0, 0] == 0.5

    def test_missing_values_average_over_present_ones(self):
        records = [
            Row(repetition=0, values={"AUC": 0.4}, flags=("error:ValueError",)),
            Row(repetition=1, values={"AUC": None}),
        ]
        assert collapse(cells_of(records)).column("AUC")[0, 0] == 0.4

    def test_value_missing_everywhere_stays_missing(self):
        records = [Row(values={"AUC": None}), Row(repetition=1, values={"AUC": None})]
        data = collapse(cells_of(records))
        assert math.isnan(data.column("AUC")[0, 0])

    def test_groups_by_combo(self):
        records = [
            Row(grid_index=0, values={"AUC": 0.2}),
            Row(grid_index=1, values={"AUC": 0.8}),
        ]
        data = collapse(cells_of(records))
        assert data.values.shape == (1, 2, 1)
        assert data.values[0, :, 0].tolist() == [0.2, 0.8]

    def test_axes_keep_names_tables_detectors_and_val_columns(self):
        # Each benchmark's other combo is NA in every measure, and t-c1's val:AUC is NA.
        records = [
            Row(table="u", anomaly_class="c2", grid_index=3, detector="lof",
                   values={"AUC": 0.5, "val:AUC": 0.25}),
            Row(table="u", anomaly_class="c2", grid_index=0),
            Row(table="t", anomaly_class="c1", grid_index=0, values={"AUC": 0.7}),
            Row(table="t", anomaly_class="c1", grid_index=3, detector="lof"),
        ]
        data = collapse(cells_of(records))
        assert data.benchmarks == ("t-c1", "u-c2")
        assert data.tables == ("t", "u")
        assert data.detectors == ("knn", "lof")
        assert data.measures == ("AUC", "val:AUC")
        assert data.column("val:AUC")[1, 1] == 0.25 and data.column("AUC")[0, 0] == 0.7
        assert np.isnan(data.values[[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1]]).tolist() == [
            True, True, True, False]

    def test_incomplete_grid_rejected(self):
        records = [Row(anomaly_class=c, grid_index=g, repetition=rep, values={"AUC": 0.5})
                   for c in ("c1", "c2") for g in (0, 1) for rep in (0, 1)]
        assert collapse(cells_of(records)).values.shape == (2, 2, 1)
        for i in range(len(records)):
            with pytest.raises(ValueError, match=r"^7 rows do not fill a grid of 2 benchmarks "
                                                 r"x 2 combos x 2 repetitions"):
                collapse(cells_of(records[:i] + records[i + 1:]))

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            collapse(cells_of([]))


def exactness_records(rng):
    """Cells of 1-40 values each, values over many magnitudes, -0.0 and NaN, shuffled.

    A complete grid of 2 benchmarks x 40 combos x 43 repetitions: combo g
    holds g + 1 repetitions with a value of A, from repetition 0 on, with
    gaps; every other repetition of it is ``NA`` in every measure.
    """
    out = []
    for anomaly_class in ("c1", "c2"):
        for g, n_reps in enumerate(range(1, 41)):
            reps = [rep for rep in range(n_reps + 3) if rep == 0 or rng.random() > 0.1]
            for rep in range(43):
                values = {}
                for name in ("A", "B", "C"):
                    u = rng.random()
                    if rep not in reps[:n_reps] or (u < 0.2 and name != "A"):
                        values[name] = None
                    elif u < 0.22 and name == "C":
                        values[name] = math.nan  # a stored NaN makes its cell's mean NaN
                    elif u < 0.3:
                        values[name] = -0.0
                    else:
                        values[name] = float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 13))
                out.append(Row(grid_index=g, anomaly_class=anomaly_class,
                               repetition=rep, values=values))
    rng.shuffle(out)
    return out


class TestCollapseExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_each_mean_is_np_mean_of_its_present_values_bit_for_bit(self, seed):
        records = exactness_records(np.random.default_rng(seed))
        data = collapse(cells_of(records))
        # The columns hold each cell's repetitions in repetition order.
        records.sort(key=lambda r: r.key)
        means = repetition_means(records)
        assert len(means) == 80 and data.values.shape == (2, 40, 3)
        regrouped = 0  # cells where a left-to-right sum would give other bytes
        for (table, anomaly_class, g), (_, values) in means.items():
            i = data.benchmarks.index(f"{table}-{anomaly_class}")
            for name, mean in values.items():
                expected = np.float64(math.nan if mean is None else mean)
                got = data.column(name)[i, g]
                assert got.tobytes() == expected.tobytes(), (g, name)
                present = [r.values[name] for r in records if (r.benchmark, r.grid_index)
                           == (f"{table}-{anomaly_class}", g) and r.values[name] is not None]
                regrouped += mean is not None and sum(present) / len(present) != mean
        assert regrouped  # the data tells numpy's pairwise grouping from a plain sum

    def test_stored_nan_is_present_not_missing(self):
        records = [Row(repetition=0, values={"A": math.nan, "B": None, "C": -0.0}),
                   Row(repetition=1, values={"A": 0.5, "B": 0.25, "C": None})]
        data = collapse(cells_of(records))
        assert math.isnan(data.column("A")[0, 0]) and data.column("B")[0, 0] == 0.25
        assert data.column("C")[0, 0].tobytes() == np.mean([-0.0]).tobytes()


# ---------------------------------------------------------------------------
# Mean ranks
# ---------------------------------------------------------------------------


class TestMeanRankTable:
    def two_bench_records(self):
        out = []
        # knn is best on both benchmarks via its second hyperparameter.
        for bench, (knn_a, knn_b, lof) in (
            ("c1", (0.5, 0.9, 0.7)),
            ("c2", (0.4, 0.8, 0.6)),
        ):
            out += [
                Row(grid_index=0, anomaly_class=bench, values={"AUC": knn_a}),
                Row(grid_index=1, anomaly_class=bench, values={"AUC": knn_b}),
                Row(
                    grid_index=2,
                    anomaly_class=bench,
                    detector="lof",
                    values={"AUC": lof},
                ),
            ]
        return out

    def test_best_hyperparameter_represents_each_detector(self):
        table = mean_rank_table(collapse(cells_of(self.two_bench_records())), ["AUC"])
        assert table.measures == ("AUC",) and table.detectors == ("knn", "lof")
        np.testing.assert_array_equal(table.mean, [[1.0, 2.0]])
        np.testing.assert_array_equal(table.std, [[0.0, 0.0]])
        assert table.n_datasets == 2

    def test_rank_conservation(self):
        rng = np.random.default_rng(0)
        records = []
        for bench in ("c1", "c2", "c3"):
            for i, det in enumerate(("knn", "lof", "iforest")):
                records.append(
                    Row(
                        grid_index=i,
                        anomaly_class=bench,
                        detector=det,
                        values={"AUC": float(rng.uniform())},
                    )
                )
        table = mean_rank_table(collapse(cells_of(records)), ["AUC"])
        # Ranks are conserved: detector means average to (D + 1) / 2.
        assert table.mean.mean() == pytest.approx(2.0, abs=1e-12)

    def test_ties_get_fractional_ranks(self):
        records = [
            Row(grid_index=0, values={"AUC": 0.7}),
            Row(grid_index=1, detector="lof", values={"AUC": 0.7}),
        ]
        table = mean_rank_table(collapse(cells_of(records)), ["AUC"])
        np.testing.assert_array_equal(table.mean, [[1.5, 1.5]])

    def test_average_ranks_by_hand(self):
        values = np.array([
            [3.0, 1.0, 3.0, 2.0, 3.0],
            [0.5, 0.5, 0.5, 0.5, 0.5],
            [-1.0, 2.0, 2.0, -1.0, 0.0],
            [0.0, -0.0, 1.0, 0.0, -1.0],
        ])
        assert experiments.average_ranks(values).tolist() == [
            [4.0, 1.0, 4.0, 2.0, 4.0],
            [3.0, 3.0, 3.0, 3.0, 3.0],
            [1.5, 4.5, 4.5, 1.5, 3.0],
            [3.0, 3.0, 5.0, 3.0, 1.0],
        ]

    def test_missing_detector_is_reported(self):
        records = self.two_bench_records()
        records[-1] = records[-1]._replace(values={"AUC": None})  # lof on c2 is NA
        with pytest.raises(ValueError, match="t-c2/lof"):
            mean_rank_table(collapse(cells_of(records)), ["AUC"])

    @staticmethod
    def collapsed(values):
        """A :class:`Collapsed` of (benchmark, combo, measure) ``values``."""
        return Collapsed(
            benchmarks=tuple(f"t-c{b:02d}" for b in range(values.shape[0])),
            tables=("t",) * values.shape[0],
            detectors=("iforest", "knn", "knn", "lof", "lof"),
            measures=tuple("ABCDEF"[: values.shape[2]]),
            values=values,
        )

    def test_one_pass_equals_each_measure_alone(self):
        # 11 benchmarks: numpy sums a contiguous axis of 8 or more values
        # pairwise, which moves some std below in its last bits.
        values = np.random.default_rng(3).integers(0, 4, size=(11, 5, 6)) / 4.0  # ties
        values[2, 1] = np.nan  # a NaN combo: knn keeps its other setting there
        data = self.collapsed(values)
        table = mean_rank_table(data, data.measures)
        assert table.measures == data.measures and table.detectors == ("iforest", "knn", "lof")
        assert table.mean.shape == table.std.shape == (6, 3) and table.n_datasets == 11
        pairwise_differs = False
        for m, name in enumerate(data.measures):
            alone = mean_rank_table(data, [name])
            assert alone.measures == (name,) and alone.detectors == table.detectors
            assert (table.mean[m] == alone.mean[0]).all() and (table.std[m] == alone.std[0]).all()
            best = np.stack([np.nanmax(values[:, cols, m], axis=1)
                             for cols in ([0], [1, 2], [3, 4])], axis=1)
            ranks = np.array([rankdata(-row) for row in best])
            assert (alone.mean[0] == ranks.mean(axis=0)).all()
            assert (alone.std[0] == ranks.std(axis=0)).all()
            pairwise_differs |= not np.array_equal(
                np.ascontiguousarray(ranks.T).std(axis=1), ranks.std(axis=0)
            )
        assert pairwise_differs  # so the data tells the two reductions apart

    def test_first_measure_missing_a_detector_is_reported(self):
        values = np.random.default_rng(4).uniform(size=(9, 5, 4))
        values[3, 3:, 1] = np.nan  # B: lof on t-c03
        values[1, 0, 2] = values[5, 0, 2] = np.nan  # C: iforest on t-c01 and t-c05
        data = self.collapsed(values)
        with pytest.raises(ValueError, match=r"^missing detector results for: "
                                             r"t-c01/iforest, t-c05/iforest$"):
            mean_rank_table(data, ["A", "C", "D", "B"])
        with pytest.raises(ValueError, match=r"^missing detector results for: t-c03/lof$"):
            mean_rank_table(data, ["D", "B", "C"])

    def test_mixed_contamination_rejected(self):
        records = [
            Row(values={"AUC": 0.5}),
            Row(contamination=0.05, values={"AUC": 0.5}),
        ]
        with pytest.raises(ValueError, match="contamination"):
            mean_rank_table(collapse(cells_of(records)), ["AUC"])


# ---------------------------------------------------------------------------
# Kendall correlation
# ---------------------------------------------------------------------------


def kendall_tau(x, y) -> float:
    """Tau-b of two equal-length vectors: the two-column case of ``_kendall_block``."""
    return float(_kendall_block(np.column_stack([x, y]).astype(np.float64))[0, 1])


class TestKendallTau:
    def test_one_swap(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_perfect_agreement_and_reversal(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_fully_tied_is_undefined(self):
        assert math.isnan(kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]))
        assert math.isnan(kendall_tau([1.0], [2.0]))

    def test_non_finite_positions_are_dropped(self):
        # The NaN position joins no pair, as in a benchmark's table row.
        assert kendall_tau([1, np.nan, 3], [1, 2, 3]) == 1.0
        assert kendall_tau([1, 2, np.inf, 4], [4, 3, 2, 1]) == -1.0
        assert math.isnan(kendall_tau([1, np.nan], [1, 2]))

    def test_matches_pairwise_oracle_and_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 30)
            x = rng.integers(0, 6, size=n).astype(float)  # tie-prone
            y = rng.integers(0, 6, size=n).astype(float)
            ours = kendall_tau(x, y)
            oracle = kendall_tau_pairs(x, y)
            if math.isnan(ours):
                assert math.isnan(oracle)
                continue
            assert ours == pytest.approx(oracle, abs=1e-12)
            assert ours == pytest.approx(
                float(scipy_kendalltau(x, y).statistic), abs=1e-12
            )


class TestKendallMatrix:
    def correlated_records(self):
        out = []
        for bench in ("c1", "c2"):
            for g, (a, b) in enumerate([(0.1, 0.2), (0.5, 0.4), (0.9, 0.6)]):
                out.append(
                    Row(grid_index=g, anomaly_class=bench, values={"A": a, "B": b})
                )
        return out

    def test_symmetric_with_unit_diagonal(self):
        result = kendall_matrix(collapse(cells_of(self.correlated_records())), measures=("A", "B"))
        np.testing.assert_array_equal(result.matrix, result.matrix.T)
        np.testing.assert_array_equal(np.diag(result.matrix), 1.0)
        assert result.matrix[0, 1] == 1.0  # the two measures agree in order
        assert result.counts[0, 1] == 2

    def test_single_combo_benchmark_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            kendall_matrix(collapse(cells_of([Row(values={"A": 0.5, "B": 0.5})])),
                           measures=("A", "B"))

    def test_undefined_benchmarks_are_skipped(self):
        records = self.correlated_records()
        # Benchmark c3 is fully tied in A: contributes nothing to (A, B).
        records += [
            Row(grid_index=g, anomaly_class="c3", values={"A": 0.5, "B": float(g)})
            for g in range(3)
        ]
        result = kendall_matrix(collapse(cells_of(records)), measures=("A", "B"))
        assert result.counts[0, 1] == 2
        assert result.matrix[0, 1] == 1.0


# ---------------------------------------------------------------------------
# Selection loss
# ---------------------------------------------------------------------------


def pair_loss(records, select_on_validation=False) -> float:
    """Entry (S, T) of the loss table: the mean loss of selecting by S, judging by T."""
    table = loss_matrix_table(
        collapse(cells_of(records)), measures=("S", "T"), select_on_validation=select_on_validation
    )
    return table.matrix[0, 1]


class TestLossMatrix:
    def records_with_disagreement(self):
        # Selection measure prefers combo 0, target prefers combo 1.
        return [
            Row(grid_index=0, values={"S": 0.9, "T": 0.2}),
            Row(grid_index=1, values={"S": 0.5, "T": 0.8}),
        ]

    def test_hand_value(self):
        result = loss_matrix_table(collapse(cells_of(self.records_with_disagreement())), ("S", "T"))
        assert result.matrix[0, 1] == pytest.approx((0.8 - 0.2) / 0.8)
        assert result.counts[0, 1] == 1

    def test_diagonal_is_zero(self):
        records = self.records_with_disagreement()
        result = loss_matrix_table(collapse(cells_of(records)), measures=("S", "T"))
        assert result.measures == ("S", "T")
        np.testing.assert_array_equal(np.diag(result.matrix), 0.0)

    def test_argmax_optimality(self):
        rng = np.random.default_rng(3)
        records = [
            Row(grid_index=g, values={"S": float(rng.uniform()), "T": float(rng.uniform())})
            for g in range(8)
        ]
        matrix = loss_matrix_table(collapse(cells_of(records)), measures=("S", "T")).matrix
        # Selecting by the target itself is never worse than any other
        # selector, so every column is minimized on the diagonal.
        for j in range(2):
            assert matrix[j, j] <= matrix[1 - j, j] + 1e-12

    def test_zero_best_target_gives_zero_loss(self):
        records = [
            Row(grid_index=0, values={"S": 0.9, "T": 0.0}),
            Row(grid_index=1, values={"S": 0.5, "T": 0.0}),
        ]
        assert pair_loss(records) == 0.0

    def test_selection_ties_resolved_by_grid_order(self):
        records = [
            Row(grid_index=0, values={"S": 0.9, "T": 0.3}),
            Row(grid_index=1, values={"S": 0.9, "T": 0.9}),
        ]
        # Both combos tie on S; the lower grid index wins the selection.
        assert pair_loss(records) == pytest.approx((0.9 - 0.3) / 0.9)

    def test_combos_missing_values_are_excluded(self):
        records = self.records_with_disagreement() + [
            Row(grid_index=2, values={"S": None, "T": 1.0})
        ]
        assert pair_loss(records) == pytest.approx((0.8 - 0.2) / 0.8)

    def test_validation_columns_select(self):
        records = [
            Row(grid_index=0, values={"S": 0.9, "val:S": 0.1, "T": 0.9, "val:T": 0.5}),
            Row(grid_index=1, values={"S": 0.6, "val:S": 0.9, "T": 0.6, "val:T": 0.5}),
        ]
        assert pair_loss(records) == 0.0
        assert pair_loss(records, select_on_validation=True) == pytest.approx((0.9 - 0.6) / 0.9)


class TestMulticlassSensitivity:
    def test_two_class_hand_example(self):
        records = [
            Row(anomaly_class="c1", grid_index=0, values={"M": 0.9}),
            Row(anomaly_class="c1", grid_index=1, values={"M": 0.1}),
            Row(anomaly_class="c2", grid_index=0, values={"M": 0.1}),
            Row(anomaly_class="c2", grid_index=1, values={"M": 0.9}),
        ]
        result = multiclass_sensitivity(collapse(cells_of(records)), measures=("M",))
        assert result.matrix[0, 0] == pytest.approx(8 / 9)
        assert result.n_tables == 1 and result.n_skipped_tables == 0

    def test_globally_optimal_combo_gives_zero_loss(self):
        records = [
            Row(anomaly_class="c1", grid_index=0, values={"M": 0.9}),
            Row(anomaly_class="c1", grid_index=1, values={"M": 0.5}),
            Row(anomaly_class="c2", grid_index=0, values={"M": 0.8}),
            Row(anomaly_class="c2", grid_index=1, values={"M": 0.2}),
        ]
        result = multiclass_sensitivity(collapse(cells_of(records)), measures=("M",))
        assert result.matrix[0, 0] == 0.0

    def test_single_class_tables_skipped_and_counted(self):
        records = [
            Row(anomaly_class="c1", grid_index=0, values={"M": 0.9}),
            Row(anomaly_class="c1", grid_index=1, values={"M": 0.1}),
            Row(anomaly_class="c2", grid_index=0, values={"M": 0.1}),
            Row(anomaly_class="c2", grid_index=1, values={"M": 0.9}),
            Row(table="solo", anomaly_class="only", values={"M": 0.5}),
            Row(table="solo", anomaly_class="only", grid_index=1, values={"M": 0.4}),
        ]
        result = multiclass_sensitivity(collapse(cells_of(records)), measures=("M",))
        assert result.n_tables == 1 and result.n_skipped_tables == 1

    def test_all_single_class_rejected(self):
        with pytest.raises(ValueError, match="two or more"):
            multiclass_sensitivity(collapse(cells_of([Row(values={"M": 0.5})])), measures=("M",))


# ---------------------------------------------------------------------------
# Array reductions against the loop reference
# ---------------------------------------------------------------------------

RANDOM_DETECTORS = ("knn", "knn", "knn", "lof", "lof", "iforest")
RANDOM_MEASURES = ("A", "B", "Z", "val:A", "val:B")


def random_records(rng):
    """2-3 tables of 1-3 anomaly classes, 3 repetitions; NA combos, NA repetitions, ties and zeros.

    A combo is ``NA`` in every measure and repetition on about 15% of the
    benchmarks, and in every measure from a random repetition on elsewhere.
    """
    out = []
    for t in range(int(rng.integers(2, 4))):
        for c in range(1, int(rng.integers(2, 5))):
            for g, detector in enumerate(RANDOM_DETECTORS):
                n_reps = 0 if rng.random() < 0.15 else int(rng.integers(1, 4))
                for rep in range(3):
                    values = {}
                    for name in RANDOM_MEASURES:
                        if rep >= n_reps:
                            values[name] = None
                        elif rng.random() < (0.7 if name == "val:B" else 0.15):
                            values[name] = None  # val:B is sparse: empty benchmarks
                        elif name == "Z":  # mostly zero: zero best targets
                            values[name] = 0.0 if rng.random() < 0.9 else 0.5
                        elif rng.random() < 0.5:  # coarse values: selection ties
                            values[name] = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
                        else:
                            values[name] = float(rng.uniform())
                    out.append(
                        Row(grid_index=g, table=f"t{t}", anomaly_class=f"c{c}",
                               detector=detector, repetition=rep, values=values)
                    )
    rng.shuffle(out)
    return out


STORE_MEASURES = ("AUC", "TPR@0.05", "CVOL@0.05", "val:AUC", "val:TPR@0.05")
STORE_FLAGS = ("error:ValueError", "thinned-normals@0.05", "thinned-normals@0.2")


def store_value(rng):
    """A measure value: NA, NaN, +-inf, -0.0, or a float of any magnitude."""
    u = rng.random()
    if u < 0.3:
        return [None, math.nan, math.inf, -math.inf, -0.0, 0.5][int(u * 20)]
    return float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-9, 10))


def write_random_store(rng, root):
    """A store of 3 benchmarks x 4 combos x 2 levels x 3 repetitions, some cells missing.

    The rows are shuffled and appended in four batches, each call writing
    its rows in cell order.  Returns the store and its rows.
    """
    store = RecordStore(root, manifest_hash="feed01")
    records = []
    for table, anomaly_class in (("t", "c1"), ("t", "c2"), ("u-v", "w")):
        for g, detector in enumerate(("knn", "knn", "lof", "iforest")):
            for c in (0.0, 0.05):
                for rep in range(3):
                    if rng.random() < 0.15:
                        continue  # a missing cell
                    flags = rng.choice(STORE_FLAGS, size=int(rng.integers(0, 3)), replace=False)
                    records.append(Row(
                        grid_index=g, table=table, anomaly_class=anomaly_class,
                        detector=detector, params=f"k={g}", contamination=c, repetition=rep,
                        values={n: store_value(rng) for n in STORE_MEASURES}, flags=tuple(flags),
                    ))
    rng.shuffle(records)
    for batch in np.array_split(np.arange(len(records)), 4):
        store.append(cells_of([records[i] for i in batch], STORE_MEASURES))
    return store, records


def exact(rows):
    """Records as comparable tuples: values by ``repr``, so NaN equals NaN and -0.0 differs."""
    return [(r._replace(values={}), {n: repr(v) for n, v in r.values.items()}) for r in rows]


class TestStoreRoundTrip:
    """Loaded columns against the rows appended, through the loop references."""

    @pytest.mark.parametrize("seed", range(8))
    def test_load_collapse_and_missing_cells_equal_the_loop_references(self, tmp_path, seed):
        store, records = write_random_store(np.random.default_rng(seed), tmp_path)
        records.sort(key=lambda r: r.key)
        seen = {repr(v) for r in records for v in r.values.values()}
        assert {"None", "nan", "inf", "-inf", "-0.0"} <= seen
        assert any(len(r.flags) == 2 for r in records)
        stored = store.load()
        assert exact(rows_of(stored)) == exact(records)
        assert stored.flagged_missing.tolist() == [r.flagged_missing for r in records]
        assert not stored.values[stored.na].any()
        assert stored.measures == STORE_MEASURES

        cfg = knn_only_config(knn_ks=(1, 3), lof_ks=(5,), iforest_trees=(10,),
                              contaminations=(0.0, 0.05), repetitions=3)
        names = ["t-c1", "t-c2", "u-v-w", "x-y"]  # x-y has no rows
        have = {r.key for r in records}
        every = set(itertools.product(names, (0.0, 0.05), range(4), range(3)))
        missing = missing_cells(cfg, names, stored)
        assert missing == sorted(every - have)

        # The stored benchmarks' missing cells, appended as NA in every
        # measure, complete the grid that collapse takes.
        by_name = {r.benchmark: r for r in records}
        filled = [by_name[b]._replace(contamination=c, grid_index=g, repetition=rep,
                                      detector=("knn", "knn", "lof", "iforest")[g],
                                      params=f"k={g}", flags=(), values={})
                  for b, c, g, rep in missing if b in by_name]
        store.append(cells_of(filled, STORE_MEASURES))
        stored = store.load()
        records = sorted(records + filled, key=lambda r: r.key)
        assert len(stored) == 3 * 4 * 2 * 3
        for c in (0.0, 0.05):
            level = [r for r in records if r.contamination == c]
            # A mean over +inf and -inf is NaN, which numpy signals as invalid.
            with np.errstate(invalid="ignore"):
                data = collapse(stored.select(stored.contamination == c))
                means = repetition_means(level)
            assert data.benchmarks == tuple(sorted(by_name))
            assert data.measures == STORE_MEASURES and data.values.shape == (3, 4, 5)
            expected = np.full(data.values.shape, np.nan)
            for (table, anomaly_class, g), (detector, values) in means.items():
                i = data.benchmarks.index(f"{table}-{anomaly_class}")
                assert data.detectors[g] == detector and data.tables[i] == table
                for name, mean in values.items():
                    if mean is not None:
                        expected[i, g, data.measures.index(name)] = mean
            assert np.array_equal(data.values, expected, equal_nan=True)


class TestMissingCells:
    def test_cells_a_store_lacks_by_benchmark_name(self):
        cfg = knn_only_config(contaminations=(0.05, 0.0))  # 2 combos, 2 repetitions
        names = ["b-x", "a-b-c"]  # table "a-b", class "c"
        records = [
            Row(table="a-b", anomaly_class="c", contamination=c, grid_index=g, repetition=r)
            for c in (0.05, 0.0) for g in (0, 1) for r in (0, 1) if (c, g, r) != (0.0, 1, 0)
        ]
        records.append(Row(table="z", anomaly_class="y"))  # not a listed benchmark
        # Sorted by name, then contamination in config order, combo and repetition.
        assert missing_cells(cfg, names, cells_of(records)) == [("a-b-c", 0.0, 1, 0)] + [
            ("b-x", c, g, r) for c in (0.05, 0.0) for g in (0, 1) for r in (0, 1)
        ]
        assert missing_cells(cfg, [], cells_of(records)) == []


def check_loss_table(data, means, names, select_on_validation):
    """``loss_matrix_table`` against the loop reference; True if it was defined."""
    selections = [f"val:{n}" for n in names] if select_on_validation else names
    expected = [
        [selection_loss_reference(means, sel, tgt) for tgt in names] for sel in selections
    ]
    unusable = [sel for sel, row in zip(selections, expected) for e in row if e is None]
    if unusable:  # refused at the first unusable pair in row-major order
        with pytest.raises(ValueError, match=f"no usable combo for {unusable[0]}$"):
            loss_matrix_table(data, names, select_on_validation)
        return False
    result = loss_matrix_table(data, names, select_on_validation)
    assert result.measures == tuple(names)
    assert np.array_equal(result.matrix, [[e[0] for e in row] for row in expected])
    assert np.all(result.counts == len(data.benchmarks))
    return True


class TestReductionsMatchLoopReference:
    def test_exact_agreement_on_random_stores(self):
        seen = dict(rank=0, rank_missing=0, loss=0, loss_empty=0, multiclass=0, kendall=0,
                    loss_val=0, kendall_8_benchmarks=0, multiclass_8_pairs=0)
        # From 8 units up numpy's pairwise sum differs from a sequential one, so
        # a reducer that changes bytes shows only on the stores counted here.
        plain = [m for m in RANDOM_MEASURES if not m.startswith("val:")]
        subsets = [
            [m for k, m in enumerate(RANDOM_MEASURES) if mask >> k & 1]
            for mask in range(1, 2 ** len(RANDOM_MEASURES))
        ]
        for seed in range(25):
            records = random_records(np.random.default_rng(seed))
            data = collapse(cells_of(records))
            records.sort(key=lambda r: r.key)  # repetition order, as in the columns
            means = repetition_means(records)
            n_pairs = sum(n * (n - 1) for n in Counter(data.tables).values())
            seen["multiclass_8_pairs"] += n_pairs >= 8

            for name in RANDOM_MEASURES:
                expected = rank_reference(means, name)
                if expected is None:
                    seen["rank_missing"] += 1
                    with pytest.raises(ValueError, match="missing detector"):
                        mean_rank_table(data, [name])
                    continue
                seen["rank"] += 1
                table = mean_rank_table(data, [name])
                assert table.detectors == expected[0]
                assert np.array_equal(table.mean, [expected[1]])
                assert np.array_equal(table.std, [expected[2]])

            for names in subsets:
                seen["loss" if check_loss_table(data, means, names, False) else "loss_empty"] += 1
            seen["loss_val"] += check_loss_table(data, means, plain[:2], True)

            # One measure included: a 1x1 table sums its units like any other.
            for names in (RANDOM_MEASURES, RANDOM_MEASURES[:1]):
                matrix, used, skipped = class_transfer_reference(means, names)
                if used == 0:
                    with pytest.raises(ValueError, match="two or more"):
                        multiclass_sensitivity(data, names)
                    continue
                seen["multiclass"] += 1
                result = multiclass_sensitivity(data, names)
                assert np.array_equal(result.matrix, matrix, equal_nan=True)
                assert (result.n_tables, result.n_skipped_tables) == (used, skipped)
                assert result.counts.max() == n_pairs

            expected = kendall_reference(means, RANDOM_MEASURES)
            if expected is None:
                with pytest.raises(ValueError, match="at least 2"):
                    kendall_matrix(data, RANDOM_MEASURES)
            else:
                seen["kendall"] += 1
                result = kendall_matrix(data, RANDOM_MEASURES)
                assert np.array_equal(result.counts, expected[1])
                assert np.array_equal(result.matrix, expected[0], equal_nan=True)
                seen["kendall_8_benchmarks"] += len(data.benchmarks) >= 8
        assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# ROC bands over resplits
# ---------------------------------------------------------------------------


KNN_3 = Combo(0, "knn", (("variant", "kappa"), ("k", 3)))


class TestRocBand:
    def bench(self):
        return synth_gaussian(80, 40, dim=2, shift=2.0, seed=6).benchmarks()[0]

    def test_identical_splits_have_zero_spread(self):
        # Shifted by 50 standard deviations, every split separates perfectly.
        (bench,) = synth_gaussian(80, 40, dim=2, shift=50.0, seed=6).benchmarks()
        band = roc_band(GridConfig(master_seed=1), bench, KNN_3, n_splits=2)
        np.testing.assert_array_equal(band.tpr_std, 0.0)
        np.testing.assert_array_equal(band.ratio_std, 0.0)
        assert band.n_splits_used == 2

    def test_two_split_spread_matches_two_sample_formula(self):
        bench = self.bench()
        band = roc_band(GridConfig(master_seed=1), bench, KNN_3, n_splits=2)
        curves = []
        for rep in (0, 1):
            fold = split(bench, SplitSpec(seed=1, repetition=rep))
            scores = knn_fit(fold.train, k=3, variant="kappa").score(fold.test)
            curves.append(one_row(fold.test_labels, scores).curve)
        tprs = np.array([tpr_at_rows(c, band.fpr)[:, 0] for c in curves])
        np.testing.assert_allclose(band.tpr_mean, tprs.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            band.tpr_std, np.abs(tprs[0] - tprs[1]) / np.sqrt(2.0), atol=1e-12
        )

    def test_ratio_is_zero_at_fpr_zero(self):
        band = roc_band(GridConfig(master_seed=2), self.bench(), KNN_3, n_splits=3)
        assert band.fpr[0] == 0.0
        assert band.ratio_mean[0] == 0.0 and band.ratio_std[0] == 0.0

    def test_band_grid_is_sorted_union(self):
        band = roc_band(GridConfig(master_seed=3), self.bench(), KNN_3, n_splits=4)
        assert np.all(np.diff(band.fpr) > 0)
        assert band.fpr[0] == 0.0 and band.fpr[-1] == 1.0

    def test_split_with_non_finite_test_scores_is_skipped(self, monkeypatch):
        fit = experiments.fit_models

        class Nan:
            def score(self, points):
                return np.full(len(points), np.nan)

        def nan_at_rep_0(table, spec, train, combos):
            return [Nan()] if spec.repetition == 0 else fit(table, spec, train, combos)

        monkeypatch.setattr(experiments, "fit_models", nan_at_rep_0)
        band = roc_band(GridConfig(master_seed=2), self.bench(), KNN_3, n_splits=3)
        assert (band.n_splits_used, band.n_skipped) == (2, 1)

    def test_requires_two_usable_splits(self):
        with pytest.raises(ValueError):
            roc_band(GridConfig(), self.bench(), KNN_3, n_splits=1)
        # All anomalies get injected into training: every split degenerates.
        (bench,) = synth_gaussian(50, 2, dim=2, seed=0).benchmarks()
        with pytest.raises(ValueError, match="usable"):
            roc_band(GridConfig(), bench, KNN_3, n_splits=2, contamination=0.05)
