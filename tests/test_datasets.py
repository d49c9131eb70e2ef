import numpy as np
import pytest

from adeval.datasets import (
    BenchmarkDataset,
    RawTable,
    SplitSpec,
    list_benchmarks,
    load_benchmarks,
    make_benchmarks,
    minmax_scaled_table,
    read_benchmark,
    read_raw_table,
    split,
    synth_gaussian,
    synth_multiclass_table,
    write_benchmark,
    write_raw_table,
)


def three_class_table(sizes=(50, 20, 10), seed=0):
    return synth_multiclass_table("tab", sizes, dim=3, shift=4.0, seed=seed)


# ---------------------------------------------------------------------------
# Containers and benchmark construction
# ---------------------------------------------------------------------------


class TestRawTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            RawTable(name="", features=np.zeros((2, 2)), classes=("a", "b"))
        with pytest.raises(ValueError):
            RawTable(name="t", features=np.zeros((2,)), classes=("a", "b"))
        with pytest.raises(ValueError):
            RawTable(
                name="t", features=np.array([[np.nan, 0.0]]), classes=("a",)
            )
        with pytest.raises(ValueError):
            RawTable(name="t", features=np.zeros((2, 2)), classes=("a",))

    def test_class_names_sorted_unique(self):
        table = RawTable(
            name="t", features=np.zeros((3, 1)), classes=("b", "a", "b")
        )
        assert table.class_names == ("a", "b")


class TestMakeBenchmarks:
    def test_three_classes_give_two_benchmarks(self):
        benches = make_benchmarks(three_class_table())
        assert [b.name for b in benches] == ["tab-c1", "tab-c2"]
        assert benches[0].normal.shape == (50, 3)
        assert benches[0].anomaly.shape == (20, 3)
        assert benches[1].anomaly.shape == (10, 3)

    def test_benchmarks_share_the_normal_block(self):
        benches = make_benchmarks(three_class_table())
        np.testing.assert_array_equal(benches[0].normal, benches[1].normal)

    def test_largest_class_becomes_normal(self):
        table = RawTable(
            name="t",
            features=np.arange(10.0).reshape(5, 2),
            classes=("big", "big", "big", "small", "small"),
        )
        (bench,) = make_benchmarks(table)
        assert bench.anomaly_class == "small"
        assert bench.normal.shape[0] == 3

    def test_size_tie_broken_by_class_name(self):
        table = RawTable(
            name="t",
            features=np.arange(8.0).reshape(4, 2),
            classes=("zeta", "zeta", "alpha", "alpha"),
        )
        (bench,) = make_benchmarks(table)
        # Equal sizes: the alphabetically first class plays normal.
        assert bench.anomaly_class == "zeta"

    def test_single_class_rejected(self):
        table = RawTable(name="t", features=np.zeros((3, 1)), classes=("a",) * 3)
        with pytest.raises(ValueError):
            make_benchmarks(table)


# ---------------------------------------------------------------------------
# Train/test splitting
# ---------------------------------------------------------------------------


class TestSplit:
    def bench(self, n_normal=1250, n_anomaly=400, seed=0):
        return synth_gaussian(n_normal, n_anomaly, dim=2, seed=seed)

    def test_deterministic(self):
        bench = self.bench()
        spec = SplitSpec(contamination=0.05, seed=3, repetition=2)
        a, b = split(bench, spec), split(bench, spec)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)
        assert a.test_ids == b.test_ids

    def test_repetitions_differ(self):
        bench = self.bench()
        a = split(bench, SplitSpec(seed=3, repetition=0))
        b = split(bench, SplitSpec(seed=3, repetition=1))
        assert not np.array_equal(a.train, b.train)

    def test_contamination_counts(self):
        fold = split(self.bench(), SplitSpec(contamination=0.05, seed=1))
        # 1250 normals: 1000 train; round(0.05 * 1000 / 0.95) = 53 injected.
        assert fold.train_normal_count == 1000
        assert fold.train_anomaly_count == 53
        assert fold.train.shape[0] == 1053
        # Within one sample of the requested rate.
        assert abs(fold.realized_contamination - 0.05) <= 1.0 / 1053

    def test_zero_contamination_keeps_train_clean(self):
        bench = self.bench()
        fold = split(bench, SplitSpec(contamination=0.0, seed=1))
        assert fold.train_anomaly_count == 0
        assert fold.test_labels.sum() == bench.anomaly.shape[0]
        assert fold.realized_contamination == 0.0

    def test_injection_is_nested_across_levels(self):
        bench = self.bench()
        low = split(bench, SplitSpec(contamination=0.01, seed=4))
        high = split(bench, SplitSpec(contamination=0.05, seed=4))
        n = low.train_normal_count
        a_low = low.train_anomaly_count
        # Same normal fold, and the low-level injection is a prefix of the
        # high-level one: raising c only adds anomalies.
        np.testing.assert_array_equal(low.train[:n], high.train[:n])
        np.testing.assert_array_equal(
            low.train[n:], high.train[n : n + a_low]
        )

    def test_normal_fold_shared_across_table_benchmarks(self):
        benches = make_benchmarks(three_class_table(sizes=(60, 20, 20)))
        spec = SplitSpec(seed=9, repetition=1)
        folds = [split(b, spec) for b in benches]
        np.testing.assert_array_equal(folds[0].train, folds[1].train)

    def test_ids_map_back_to_source_rows(self):
        bench = self.bench(n_normal=40, n_anomaly=10)
        fold = split(bench, SplitSpec(contamination=0.0, seed=2))
        for row, label, sid in zip(fold.test, fold.test_labels, fold.test_ids):
            block = bench.anomaly if sid[0] == "a" else bench.normal
            assert label == (1 if sid[0] == "a" else 0)
            np.testing.assert_array_equal(row, block[int(sid[1:])])

    def test_labels_partition_test_fold(self):
        bench = self.bench(n_normal=100, n_anomaly=30)
        fold = split(bench, SplitSpec(contamination=0.05, seed=5))
        assert fold.test_labels.shape[0] == fold.test.shape[0]
        n_test_normal = 100 - fold.train_normal_count
        assert int((fold.test_labels == 0).sum()) == n_test_normal
        assert int(fold.test_labels.sum()) == 30 - fold.train_anomaly_count

    def test_insufficient_anomalies_rejected(self):
        bench = self.bench(n_normal=1000, n_anomaly=3)
        with pytest.raises(ValueError, match="anomalies"):
            split(bench, SplitSpec(contamination=0.05, seed=0))

    def test_degenerate_fold_rejected(self):
        bench = synth_gaussian(1, 5, dim=2, seed=0)
        with pytest.raises(ValueError, match="fold"):
            split(bench, SplitSpec(seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(contamination=1.0)
        with pytest.raises(ValueError):
            SplitSpec(repetition=-1)


# ---------------------------------------------------------------------------
# Synthetic generators and scaling
# ---------------------------------------------------------------------------


class TestSynthetic:
    def test_gaussian_shapes_and_shift(self):
        bench = synth_gaussian(500, 200, dim=3, shift=6.0, seed=1)
        assert bench.normal.shape == (500, 3)
        assert bench.anomaly.shape == (200, 3)
        assert bench.anomaly[:, 0].mean() == pytest.approx(6.0, abs=0.5)
        assert bench.contamination() == pytest.approx(200 / 700)

    def test_gaussian_deterministic(self):
        a = synth_gaussian(50, 10, seed=4)
        b = synth_gaussian(50, 10, seed=4)
        np.testing.assert_array_equal(a.normal, b.normal)
        np.testing.assert_array_equal(a.anomaly, b.anomaly)

    def test_gaussian_without_anomalies(self):
        bench = synth_gaussian(30, 0, seed=0)
        assert bench.anomaly.shape[0] == 0
        assert bench.all_points().shape == (30, 2)

    def test_multiclass_layout(self):
        table = synth_multiclass_table("t", (30, 10, 5), dim=2, seed=2)
        assert table.features.shape == (45, 2)
        assert table.class_names == ("c0", "c1", "c2")
        assert table.classes[:30] == ("c0",) * 30

    def test_minmax_scaling(self):
        table = RawTable(
            name="t",
            features=np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]]),
            classes=("a", "a", "b"),
        )
        scaled = minmax_scaled_table(table)
        np.testing.assert_array_equal(scaled.features[:, 0], [0.0, 1.0, 0.5])
        # Constant features collapse to zero instead of dividing by zero.
        np.testing.assert_array_equal(scaled.features[:, 1], 0.0)
        assert scaled.name == "t" and scaled.classes == table.classes


# ---------------------------------------------------------------------------
# Plain-text interchange and the benchmark cache
# ---------------------------------------------------------------------------


class TestTableIo:
    def test_roundtrip_is_exact(self, tmp_path):
        table = three_class_table(sizes=(9, 5, 3))
        path = tmp_path / "tab.csv"
        write_raw_table(table, path)
        back = read_raw_table(path)
        assert back.name == "tab"
        np.testing.assert_array_equal(back.features, table.features)
        assert back.classes == table.classes

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# manifest: ff\nf0,class\n1.5,a\n2.5,b\n")
        table = read_raw_table(path)
        assert table.features.shape == (2, 1)

    def test_malformed_row_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1,class\n1.0,2.0,a\n3.0,b\n")
        with pytest.raises(ValueError, match="line 3"):
            read_raw_table(path)

    def test_non_numeric_feature_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,class\n1.0,a\noops,b\n")
        with pytest.raises(ValueError, match="line 3"):
            read_raw_table(path)

    def test_line_numbers_are_physical_after_a_two_line_label(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('f0,class\n1.0,a\n2.0,"two\nlines"\noops,b\n')
        with pytest.raises(ValueError, match="line 5:"):
            read_raw_table(path)

    def test_missing_class_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="class"):
            read_raw_table(path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("f0,class\n")
        with pytest.raises(ValueError, match="no data"):
            read_raw_table(path)


class TestBenchmarkCache:
    def test_roundtrip_is_exact(self, tmp_path):
        bench = synth_gaussian(20, 7, dim=3, seed=5, table="tab", anomaly_class="c1")
        write_benchmark(bench, tmp_path)
        back = read_benchmark(tmp_path, "tab", "c1")
        np.testing.assert_array_equal(back.normal, bench.normal)
        np.testing.assert_array_equal(back.anomaly, bench.anomaly)
        assert back.name == "tab-c1"

    def test_listing_is_sorted(self, tmp_path):
        for table, cls in (("b", "y"), ("a", "z"), ("a", "x")):
            write_benchmark(
                synth_gaussian(5, 2, seed=0, table=table, anomaly_class=cls),
                tmp_path,
            )
        assert list_benchmarks(tmp_path) == [("a", "x"), ("a", "z"), ("b", "y")]

    def test_load_filters_by_table_or_full_name(self, tmp_path):
        for table, cls in (("a", "x"), ("a", "y"), ("b", "x")):
            write_benchmark(
                synth_gaussian(5, 2, seed=0, table=table, anomaly_class=cls),
                tmp_path,
            )
        assert [b.name for b in load_benchmarks(tmp_path, only=["a"])] == [
            "a-x",
            "a-y",
        ]
        assert [b.name for b in load_benchmarks(tmp_path, only=["b-x"])] == ["b-x"]
        assert len(load_benchmarks(tmp_path)) == 3
        assert list_benchmarks(tmp_path, only=("a-y", "b")) == [("a", "y"), ("b", "x")]

    def test_weird_names_sanitized_in_paths(self, tmp_path):
        bench = synth_gaussian(5, 2, seed=0, table="we ird", anomaly_class="c/1")
        write_benchmark(bench, tmp_path)
        assert (tmp_path / "we_ird" / "c_1" / "normal.csv").is_file()
        back = read_benchmark(tmp_path, "we ird", "c/1")
        np.testing.assert_array_equal(back.normal, bench.normal)

    def test_missing_benchmark_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no stored benchmark"):
            read_benchmark(tmp_path, "ghost", "c1")
