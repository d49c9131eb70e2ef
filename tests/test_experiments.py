import math

import numpy as np
import pytest
from scipy.stats import kendalltau as scipy_kendalltau

from adeval.curves import build_roc, tpr_at
from adeval.datasets import SplitSpec, split, synth_gaussian, synth_multiclass_table, make_benchmarks
from adeval import experiments, volume
from adeval.detectors import KnnModel, knn_fit
from adeval.experiments import (
    ExperimentRecord,
    GridConfig,
    MeasureId,
    RecordStore,
    collapse,
    kendall_matrix,
    kendall_tau,
    loss_matrix,
    loss_matrix_table,
    mean_rank_table,
    multiclass_sensitivity,
    roc_band,
    run_cell,
    run_grid,
)
from _oracles import (
    class_transfer_reference,
    kendall_reference,
    kendall_tau_pairs,
    rank_reference,
    repetition_means,
    selection_loss_reference,
)


def record(
    grid_index=0,
    table="t",
    anomaly_class="c1",
    detector="knn",
    contamination=0.0,
    repetition=0,
    values=None,
    flags=(),
):
    return ExperimentRecord(
        grid_index=grid_index,
        table=table,
        anomaly_class=anomaly_class,
        detector=detector,
        params=f"g{grid_index}",
        contamination=contamination,
        repetition=repetition,
        values=dict(values or {}),
        flags=tuple(flags),
    )


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

    def test_parse_inverts_name(self):
        for measure in (
            MeasureId("auc"),
            MeasureId("auc_w"),
            MeasureId("auc_at", 0.05),
            MeasureId("precision_at", 0.01),
            MeasureId("cvol_at", 0.25),
        ):
            assert MeasureId.parse(measure.name) == measure
        with pytest.raises(ValueError):
            MeasureId.parse("nonsense")

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasureId("auc", 0.05)  # plain measures take no level
        with pytest.raises(ValueError):
            MeasureId("tpr_at")  # leveled measures need one
        with pytest.raises(ValueError):
            MeasureId("tpr_at", 1.5)
        with pytest.raises(ValueError):
            MeasureId("mystery")


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

    def test_validation_columns_appended(self):
        names = GridConfig(validation_fraction=0.25).measure_names()
        assert "val:AUC" in names and names.index("val:AUC") > names.index("AUC")

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            GridConfig(repetitions=0)
        with pytest.raises(ValueError):
            GridConfig(alphas=(0.0,))
        with pytest.raises(ValueError):
            GridConfig(validation_fraction=1.0)
        with pytest.raises(ValueError):
            GridConfig(knn_ks=(), lof_ks=(), iforest_trees=()).detector_combos()


# ---------------------------------------------------------------------------
# Running cells and grids
# ---------------------------------------------------------------------------


class TestRunGrid:
    def bench(self, seed=0):
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
        summary = run_grid(cfg, [self.bench()], store)
        assert summary.n_cells == 270 and summary.n_new == 270
        records = store.load()
        assert len(records) == 270
        assert all(not r.is_flagged_missing for r in records)
        assert {r.repetition for r in records} == set(range(10))
        assert {r.grid_index for r in records} == set(range(27))

    def test_rerun_is_a_noop_and_byte_stable(self, tmp_path):
        cfg = knn_only_config()
        store = RecordStore(tmp_path, manifest_hash="h")
        run_grid(cfg, [self.bench()], store)
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        summary = run_grid(cfg, [self.bench()], store)
        assert summary.n_new == 0
        after = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv")}
        assert before == after

    def test_worker_count_does_not_change_records(self, tmp_path):
        cfg = knn_only_config()
        benches = [self.bench(0), self.bench(1)]
        serial = RecordStore(tmp_path / "serial", manifest_hash="h")
        run_grid(cfg, benches, serial, workers=1)
        parallel = RecordStore(tmp_path / "parallel", manifest_hash="h")
        run_grid(cfg, benches, parallel, workers=3)
        a = {p.name: p.read_bytes() for p in (tmp_path / "serial").glob("*.csv")}
        b = {p.name: p.read_bytes() for p in (tmp_path / "parallel").glob("*.csv")}
        assert a == b

    def test_cells_deterministic(self):
        cfg = knn_only_config()
        bench = self.bench()
        combo = cfg.detector_combos()[1]
        a = run_cell(cfg, bench, combo, 0.0, repetition=1)
        b = run_cell(cfg, bench, combo, 0.0, repetition=1)
        assert a == b

    def test_failing_cell_is_flagged_not_fatal(self, tmp_path):
        # k = 51 exceeds the training-fold size of a tiny benchmark.
        cfg = knn_only_config(knn_ks=(1, 51), repetitions=1)
        bench = synth_gaussian(20, 10, seed=3, table="tiny", anomaly_class="c1")
        store = RecordStore(tmp_path, manifest_hash="h")
        summary = run_grid(cfg, [bench], store)
        assert summary.n_flagged == 1
        flagged = [r for r in store.load() if r.is_flagged_missing]
        assert len(flagged) == 1
        assert flagged[0].flags == ("error:ValueError",)
        assert all(v is None for v in flagged[0].values.values())

    def test_validation_columns_written(self, tmp_path):
        cfg = knn_only_config(validation_fraction=0.3, repetitions=1)
        store = RecordStore(tmp_path, manifest_hash="h")
        run_grid(cfg, [self.bench()], store)
        rec = store.load()[0]
        assert rec.values.get("val:AUC") is not None
        assert rec.values.get("AUC") is not None


class TestRunCell:
    def test_validation_failure_keeps_evaluation_columns(self):
        # Three of these validation parts hold a single class.
        cfg = knn_only_config(
            knn_variants=("gamma",), knn_ks=(3,), validation_fraction=0.3, repetitions=4
        )
        bench = synth_gaussian(40, 2, seed=3)
        (combo,) = cfg.detector_combos()
        for rep in (0, 1, 3):
            rec = run_cell(cfg, bench, combo, 0.0, rep)
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
        bench = synth_gaussian(120, 60, dim=2, shift=3.0, seed=0)
        fold = split(bench, SplitSpec(seed=cfg.master_seed, repetition=1))
        curves, points = [], []

        def counting_roc(build_roc):
            return lambda data: curves.append(len(data)) or build_roc(data)

        score = KnnModel.score
        for module in (experiments, volume):
            monkeypatch.setattr(module, "build_roc", counting_roc(module.build_roc))
        monkeypatch.setattr(
            KnnModel, "score", lambda self, x: points.append(len(x)) or score(self, x)
        )
        rec = run_cell(cfg, bench, cfg.detector_combos()[0], 0.0, repetition=1)
        assert rec.flags == () and not rec.is_flagged_missing
        assert len(curves) == 2
        assert sum(curves) == len(fold.test_labels)
        assert sum(points) == len(fold.test_labels) + cfg.volume_samples


class TestRecordStore:
    def test_roundtrip_preserves_values_exactly(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        rec = record(values={"AUC": 1 / 3, "TPR@0.05": None}, flags=("note", "x"))
        store.append(rec, ("AUC", "TPR@0.05"))
        (loaded,) = store.load()
        assert loaded == rec

    def test_manifest_comment_heads_each_file(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        store.append(record(values={"AUC": 0.5}), ("AUC",))
        path = next(tmp_path.glob("*.csv"))
        assert path.read_text().startswith("# manifest: cafe01\n")

    def test_unrecognized_header_rejected(self, tmp_path):
        (tmp_path / "junk.csv").write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            RecordStore(tmp_path).load()

    def two_row_store(self, tmp_path):
        store = RecordStore(tmp_path, manifest_hash="cafe01")
        for rep in range(2):
            rec = record(repetition=rep, values={"AUC": 0.5, "TPR@0.05": 0.25})
            store.append(rec, ("AUC", "TPR@0.05"))
        return store, next(tmp_path.glob("*.csv"))

    def test_torn_last_row_rejected_with_file_and_line(self, tmp_path):
        store, path = self.two_row_store(tmp_path)
        text = path.read_text()
        # Drop the last field of the last row together with its newline.
        path.write_text(text[: text.rstrip("\n").rindex(",")])
        with pytest.raises(ValueError, match=rf"{path.name}: line 4: 9 fields"):
            store.load()

    def test_unparseable_value_rejected_with_file_and_line(self, tmp_path):
        store, path = self.two_row_store(tmp_path)
        path.write_text(path.read_text().replace("0.25\n", "0.2x\n", 1))
        with pytest.raises(ValueError, match=rf"{path.name}: line 3: .*0\.2x"):
            store.load()


# ---------------------------------------------------------------------------
# Collapsing repetitions
# ---------------------------------------------------------------------------


class TestMeanRecords:
    def test_averages_over_repetitions(self):
        records = [
            record(repetition=0, values={"AUC": 0.4}),
            record(repetition=1, values={"AUC": 0.6}),
        ]
        data = collapse(records)
        assert data.values.shape == (1, 1, 1)
        assert data.values[0, 0, 0] == 0.5

    def test_missing_values_average_over_present_ones(self):
        records = [
            record(repetition=0, values={"AUC": 0.4}, flags=("error:ValueError",)),
            record(repetition=1, values={"AUC": None}),
        ]
        assert collapse(records).column("AUC")[0, 0] == 0.4

    def test_value_missing_everywhere_stays_missing(self):
        records = [record(values={"AUC": None}), record(repetition=1, values={"AUC": None})]
        data = collapse(records)
        assert math.isnan(data.column("AUC")[0, 0])
        assert data.present[0, 0]

    def test_groups_by_combo(self):
        records = [
            record(grid_index=0, values={"AUC": 0.2}),
            record(grid_index=1, values={"AUC": 0.8}),
        ]
        data = collapse(records)
        assert data.values.shape == (1, 2, 1)
        assert data.values[0, :, 0].tolist() == [0.2, 0.8]

    def test_axes_keep_names_tables_detectors_and_val_columns(self):
        records = [
            record(table="u", anomaly_class="c2", grid_index=3, detector="lof",
                   values={"AUC": 0.5, "val:AUC": 0.25}),
            record(table="t", anomaly_class="c1", grid_index=0, values={"AUC": 0.7}),
        ]
        data = collapse(records)
        assert data.benchmarks == ("t-c1", "u-c2")
        assert data.tables == ("t", "u")
        assert data.detectors == ("knn", "lof")
        assert data.measures == ("AUC", "val:AUC")
        assert data.present.tolist() == [[True, False], [False, True]]
        assert data.column("val:AUC")[1, 1] == 0.25
        assert math.isnan(data.column("val:AUC")[0, 0])
        assert np.isnan(data.column("never-recorded")).all()


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
                record(grid_index=0, anomaly_class=bench, values={"AUC": knn_a}),
                record(grid_index=1, anomaly_class=bench, values={"AUC": knn_b}),
                record(
                    grid_index=2,
                    anomaly_class=bench,
                    detector="lof",
                    values={"AUC": lof},
                ),
            ]
        return out

    def test_best_hyperparameter_represents_each_detector(self):
        table = mean_rank_table(collapse(self.two_bench_records()), "AUC")
        assert table.detectors == ("knn", "lof")
        np.testing.assert_array_equal(table.mean, [1.0, 2.0])
        np.testing.assert_array_equal(table.std, [0.0, 0.0])
        assert table.n_datasets == 2

    def test_rank_conservation(self):
        rng = np.random.default_rng(0)
        records = []
        for bench in ("c1", "c2", "c3"):
            for i, det in enumerate(("knn", "lof", "iforest")):
                records.append(
                    record(
                        grid_index=i,
                        anomaly_class=bench,
                        detector=det,
                        values={"AUC": float(rng.uniform())},
                    )
                )
        table = mean_rank_table(collapse(records), "AUC")
        # Ranks are conserved: detector means average to (D + 1) / 2.
        assert table.mean.mean() == pytest.approx(2.0, abs=1e-12)

    def test_ties_get_fractional_ranks(self):
        records = [
            record(grid_index=0, values={"AUC": 0.7}),
            record(grid_index=1, detector="lof", values={"AUC": 0.7}),
        ]
        table = mean_rank_table(collapse(records), "AUC")
        np.testing.assert_array_equal(table.mean, [1.5, 1.5])

    def test_missing_detector_is_reported(self):
        records = self.two_bench_records()[:-1]  # drop lof on c2
        with pytest.raises(ValueError, match="t-c2/lof"):
            mean_rank_table(collapse(records), "AUC")

    def test_mixed_contamination_rejected(self):
        records = [
            record(values={"AUC": 0.5}),
            record(contamination=0.05, values={"AUC": 0.5}),
        ]
        with pytest.raises(ValueError, match="contamination"):
            mean_rank_table(collapse(records), "AUC")


# ---------------------------------------------------------------------------
# Kendall correlation
# ---------------------------------------------------------------------------


class TestKendallTau:
    def test_one_swap(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_perfect_agreement_and_reversal(self):
        assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_fully_tied_is_undefined(self):
        assert math.isnan(kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]))
        assert math.isnan(kendall_tau([1.0], [2.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])

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
                    record(grid_index=g, anomaly_class=bench, values={"A": a, "B": b})
                )
        return out

    def test_symmetric_with_unit_diagonal(self):
        result = kendall_matrix(collapse(self.correlated_records()), measures=("A", "B"))
        np.testing.assert_array_equal(result.matrix, result.matrix.T)
        np.testing.assert_array_equal(np.diag(result.matrix), 1.0)
        assert result.matrix[0, 1] == 1.0  # the two measures agree in order
        assert result.pair_counts[0, 1] == 2

    def test_single_combo_benchmark_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            kendall_matrix(collapse([record(values={"A": 0.5, "B": 0.5})]), measures=("A", "B"))

    def test_undefined_benchmarks_are_skipped(self):
        records = self.correlated_records()
        # Benchmark c3 is fully tied in A: contributes nothing to (A, B).
        records += [
            record(grid_index=g, anomaly_class="c3", values={"A": 0.5, "B": float(g)})
            for g in range(2)
        ]
        result = kendall_matrix(collapse(records), measures=("A", "B"))
        assert result.pair_counts[0, 1] == 2
        assert result.matrix[0, 1] == 1.0


# ---------------------------------------------------------------------------
# Selection loss
# ---------------------------------------------------------------------------


class TestLossMatrix:
    def records_with_disagreement(self):
        # Selection measure prefers combo 0, target prefers combo 1.
        return [
            record(grid_index=0, values={"S": 0.9, "T": 0.2}),
            record(grid_index=1, values={"S": 0.5, "T": 0.8}),
        ]

    def test_hand_value(self):
        result = loss_matrix(collapse(self.records_with_disagreement()), "S", "T")
        assert result.mean_loss == pytest.approx((0.8 - 0.2) / 0.8)
        assert result.n_datasets == 1

    def test_diagonal_is_zero(self):
        records = self.records_with_disagreement()
        names, matrix = loss_matrix_table(collapse(records), measures=("S", "T"))
        assert names == ("S", "T")
        np.testing.assert_array_equal(np.diag(matrix), 0.0)

    def test_argmax_optimality(self):
        rng = np.random.default_rng(3)
        records = [
            record(grid_index=g, values={"S": float(rng.uniform()), "T": float(rng.uniform())})
            for g in range(8)
        ]
        _, matrix = loss_matrix_table(collapse(records), measures=("S", "T"))
        # Selecting by the target itself is never worse than any other
        # selector, so every column is minimized on the diagonal.
        for j in range(2):
            assert matrix[j, j] <= matrix[1 - j, j] + 1e-12

    def test_zero_best_target_gives_zero_loss(self):
        records = [
            record(grid_index=0, values={"S": 0.9, "T": 0.0}),
            record(grid_index=1, values={"S": 0.5, "T": 0.0}),
        ]
        assert loss_matrix(collapse(records), "S", "T").mean_loss == 0.0

    def test_selection_ties_resolved_by_grid_order(self):
        records = [
            record(grid_index=0, values={"S": 0.9, "T": 0.3}),
            record(grid_index=1, values={"S": 0.9, "T": 0.9}),
        ]
        # Both combos tie on S; the lower grid index wins the selection.
        result = loss_matrix(collapse(records), "S", "T")
        assert result.mean_loss == pytest.approx((0.9 - 0.3) / 0.9)

    def test_combos_missing_values_are_excluded_and_counted(self):
        records = self.records_with_disagreement() + [
            record(grid_index=2, values={"S": None, "T": 1.0})
        ]
        result = loss_matrix(collapse(records), "S", "T")
        assert result.n_excluded_combos == 1
        assert result.mean_loss == pytest.approx((0.8 - 0.2) / 0.8)

    def test_validation_columns_select(self):
        records = [
            record(grid_index=0, values={"AUC": 0.9, "val:AUC": 0.1}),
            record(grid_index=1, values={"AUC": 0.6, "val:AUC": 0.9}),
        ]
        result = loss_matrix(collapse(records), "AUC", "AUC", select_on_validation=True)
        assert result.mean_loss == pytest.approx((0.9 - 0.6) / 0.9)


class TestMulticlassSensitivity:
    def test_two_class_hand_example(self):
        records = [
            record(anomaly_class="c1", grid_index=0, values={"M": 0.9}),
            record(anomaly_class="c1", grid_index=1, values={"M": 0.1}),
            record(anomaly_class="c2", grid_index=0, values={"M": 0.1}),
            record(anomaly_class="c2", grid_index=1, values={"M": 0.9}),
        ]
        result = multiclass_sensitivity(collapse(records), measures=("M",))
        assert result.matrix[0, 0] == pytest.approx(8 / 9)
        assert result.n_tables == 1 and result.n_skipped_tables == 0

    def test_globally_optimal_combo_gives_zero_loss(self):
        records = [
            record(anomaly_class="c1", grid_index=0, values={"M": 0.9}),
            record(anomaly_class="c1", grid_index=1, values={"M": 0.5}),
            record(anomaly_class="c2", grid_index=0, values={"M": 0.8}),
            record(anomaly_class="c2", grid_index=1, values={"M": 0.2}),
        ]
        result = multiclass_sensitivity(collapse(records), measures=("M",))
        assert result.matrix[0, 0] == 0.0

    def test_single_class_tables_skipped_and_counted(self):
        records = [
            record(anomaly_class="c1", grid_index=0, values={"M": 0.9}),
            record(anomaly_class="c1", grid_index=1, values={"M": 0.1}),
            record(anomaly_class="c2", grid_index=0, values={"M": 0.1}),
            record(anomaly_class="c2", grid_index=1, values={"M": 0.9}),
            record(table="solo", anomaly_class="only", values={"M": 0.5}),
        ]
        result = multiclass_sensitivity(collapse(records), measures=("M",))
        assert result.n_tables == 1 and result.n_skipped_tables == 1

    def test_all_single_class_rejected(self):
        with pytest.raises(ValueError, match="two or more"):
            multiclass_sensitivity(collapse([record(values={"M": 0.5})]), measures=("M",))


# ---------------------------------------------------------------------------
# Array reductions against the loop reference
# ---------------------------------------------------------------------------

RANDOM_DETECTORS = ("knn", "knn", "knn", "lof", "lof", "iforest")
RANDOM_MEASURES = ("A", "B", "Z", "val:A", "val:B")


def random_records(rng):
    """2-3 tables of 1-3 anomaly classes; absent combos, gaps, ties and zeros."""
    out = []
    for t in range(int(rng.integers(2, 4))):
        for c in range(1, int(rng.integers(2, 5))):
            for g, detector in enumerate(RANDOM_DETECTORS):
                if rng.random() < 0.15:
                    continue  # combo absent on this benchmark
                for rep in range(int(rng.integers(1, 4))):
                    values = {}
                    for name in RANDOM_MEASURES:
                        if rng.random() < (0.7 if name == "val:B" else 0.15):
                            values[name] = None  # val:B is sparse: empty benchmarks
                        elif name == "Z":  # mostly zero: zero best targets
                            values[name] = 0.0 if rng.random() < 0.9 else 0.5
                        elif rng.random() < 0.5:  # coarse values: selection ties
                            values[name] = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
                        else:
                            values[name] = float(rng.uniform())
                    out.append(
                        record(grid_index=g, table=f"t{t}", anomaly_class=f"c{c}",
                               detector=detector, repetition=rep, values=values)
                    )
    rng.shuffle(out)
    return out


class TestReductionsMatchLoopReference:
    def test_exact_agreement_on_random_stores(self):
        seen = dict(rank=0, rank_missing=0, loss=0, loss_empty=0, multiclass=0, kendall=0)
        for seed in range(25):
            records = random_records(np.random.default_rng(seed))
            data = collapse(records)
            means = repetition_means(records)

            for name in RANDOM_MEASURES:
                expected = rank_reference(means, name)
                if expected is None:
                    seen["rank_missing"] += 1
                    with pytest.raises(ValueError, match="missing detector"):
                        mean_rank_table(data, name)
                    continue
                seen["rank"] += 1
                table = mean_rank_table(data, name)
                assert table.detectors == expected[0]
                assert np.array_equal(table.mean, expected[1])
                assert np.array_equal(table.std, expected[2])

            for sel in RANDOM_MEASURES:
                for tgt in RANDOM_MEASURES:
                    expected = selection_loss_reference(means, sel, tgt)
                    if expected is None:
                        seen["loss_empty"] += 1
                        with pytest.raises(ValueError, match="no usable combo"):
                            loss_matrix(data, sel, tgt)
                        continue
                    seen["loss"] += 1
                    result = loss_matrix(data, sel, tgt)
                    assert (result.mean_loss, result.n_excluded_combos) == expected
                    if sel.startswith("val:"):
                        on_val = loss_matrix(data, sel[4:], tgt, select_on_validation=True)
                        assert on_val == result

            matrix, used, skipped = class_transfer_reference(means, RANDOM_MEASURES)
            if used == 0:
                with pytest.raises(ValueError, match="two or more"):
                    multiclass_sensitivity(data, RANDOM_MEASURES)
            else:
                seen["multiclass"] += 1
                result = multiclass_sensitivity(data, RANDOM_MEASURES)
                assert np.array_equal(result.matrix, matrix, equal_nan=True)
                assert (result.n_tables, result.n_skipped_tables) == (used, skipped)

            expected = kendall_reference(means, RANDOM_MEASURES)
            if expected is None:
                with pytest.raises(ValueError, match="at least 2"):
                    kendall_matrix(data, RANDOM_MEASURES)
            else:
                seen["kendall"] += 1
                result = kendall_matrix(data, RANDOM_MEASURES)
                assert np.array_equal(result.pair_counts, expected[1])
                np.testing.assert_allclose(result.matrix, expected[0], atol=1e-12)
        assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# ROC bands over resplits
# ---------------------------------------------------------------------------


def knn_fitter(train, seed):
    return knn_fit(train, k=3, variant="kappa")


class TestRocBand:
    def bench(self):
        return synth_gaussian(80, 40, dim=2, shift=2.0, seed=6)

    def test_identical_splits_have_zero_spread(self):
        band = roc_band(
            self.bench(), knn_fitter, n_splits=2, master_seed=1, repetitions=[7, 7]
        )
        np.testing.assert_array_equal(band.tpr_std, 0.0)
        np.testing.assert_array_equal(band.ratio_std, 0.0)
        assert band.n_splits_used == 2

    def test_two_split_spread_matches_two_sample_formula(self):
        bench = self.bench()
        band = roc_band(bench, knn_fitter, n_splits=2, master_seed=1, repetitions=[0, 1])
        curves = []
        for rep in (0, 1):
            fold = split(bench, SplitSpec(seed=1, repetition=rep))
            from adeval.curves import LabeledScores

            curves.append(
                build_roc(
                    LabeledScores(
                        labels=fold.test_labels,
                        scores=knn_fitter(fold.train, 0).score(fold.test),
                    )
                )
            )
        tprs = np.array([[tpr_at(c, a) for a in band.fpr] for c in curves])
        np.testing.assert_allclose(band.tpr_mean, tprs.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(
            band.tpr_std, np.abs(tprs[0] - tprs[1]) / np.sqrt(2.0), atol=1e-12
        )

    def test_ratio_is_zero_at_fpr_zero(self):
        band = roc_band(self.bench(), knn_fitter, n_splits=3, master_seed=2)
        assert band.fpr[0] == 0.0
        assert band.ratio_mean[0] == 0.0 and band.ratio_std[0] == 0.0

    def test_band_grid_is_sorted_union(self):
        band = roc_band(self.bench(), knn_fitter, n_splits=4, master_seed=3)
        assert np.all(np.diff(band.fpr) > 0)
        assert band.fpr[0] == 0.0 and band.fpr[-1] == 1.0

    def test_requires_two_usable_splits(self):
        with pytest.raises(ValueError):
            roc_band(self.bench(), knn_fitter, n_splits=1)
        # All anomalies get injected into training: every split degenerates.
        bench = synth_gaussian(50, 2, dim=2, seed=0)
        with pytest.raises(ValueError, match="usable"):
            roc_band(bench, knn_fitter, n_splits=2, contamination=0.05)

    def test_repetition_list_must_match_split_count(self):
        with pytest.raises(ValueError, match="one entry per split"):
            roc_band(self.bench(), knn_fitter, n_splits=3, repetitions=[0, 1])
