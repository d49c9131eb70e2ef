import csv
import io
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adeval import datasets
from adeval.datasets import (
    BenchmarkDataset,
    PreparedTable,
    RawTable,
    SplitSpec,
    load_tables,
    minmax_scaled_table,
    prepare_table,
    read_raw_table,
    split,
    synth_gaussian,
    synth_multiclass_table,
    write_raw_table,
)
from _oracles import raw_table_reference, raw_table_text_reference


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
        with pytest.raises(ValueError, match=r"nonempty \(n, d\)"):
            RawTable(name="t", features=np.zeros((2, 0)), classes=("a", "b"))
        with pytest.raises(ValueError):
            RawTable(
                name="t", features=np.array([[np.nan, 0.0]]), classes=("a",)
            )
        with pytest.raises(ValueError):
            RawTable(name="t", features=np.zeros((2, 2)), classes=("a",))


class TestPrepareTable:
    def test_three_classes_give_two_benchmarks(self):
        benches = prepare_table(three_class_table()).benchmarks()
        assert [b.name for b in benches] == ["tab-c1", "tab-c2"]
        assert benches[0].normal.shape == (50, 3)
        assert benches[0].anomaly.shape == (20, 3)
        assert benches[1].anomaly.shape == (10, 3)

    def test_benchmarks_share_the_normal_block(self):
        # Every benchmark holds the table's one normal array, itself.
        table = prepare_table(three_class_table(sizes=(50, 20, 10, 5)))
        narrowed = table.narrowed(["c3", "c1"])
        assert [c for c, _ in narrowed.anomalies] == ["c1", "c3"]
        for prepared in (table, narrowed, synth_gaussian(20, 5)):
            benches = prepared.benchmarks()
            assert benches and all(b.normal is prepared.normal for b in benches)
        assert narrowed.normal is table.normal
        assert narrowed.anomalies[1][1] is table.anomalies[2][1]

    def test_classes_come_in_order_and_once(self):
        normal, points = np.zeros((4, 2)), np.ones((2, 2))
        table = PreparedTable("t", normal, (("b", points), ("a", points[:1])))
        assert [b.name for b in table.benchmarks()] == ["t-a", "t-b"]
        with pytest.raises(ValueError, match="two classes of table 't' make benchmark 't-a'"):
            PreparedTable("t", normal, (("a", points), ("a", points)))
        assert table.narrowed(["c"]).benchmarks() == []
        with pytest.raises(ValueError, match="dimension"):
            PreparedTable("t", normal, (("a", np.ones((2, 3))),))

    def test_largest_class_becomes_normal(self):
        table = RawTable(
            name="t",
            features=np.arange(10.0).reshape(5, 2),
            classes=("big", "big", "big", "small", "small"),
        )
        (bench,) = prepare_table(table).benchmarks()
        assert bench.anomaly_class == "small"
        assert bench.normal.shape[0] == 3

    def test_size_tie_broken_by_class_name(self):
        table = RawTable(
            name="t",
            features=np.arange(8.0).reshape(4, 2),
            classes=("zeta", "zeta", "alpha", "alpha"),
        )
        (bench,) = prepare_table(table).benchmarks()
        # Equal sizes: the alphabetically first class plays normal.
        assert bench.anomaly_class == "zeta"

    def test_single_class_rejected(self):
        table = RawTable(name="t", features=np.zeros((3, 1)), classes=("a",) * 3)
        with pytest.raises(ValueError):
            prepare_table(table)


# ---------------------------------------------------------------------------
# Train/test splitting
# ---------------------------------------------------------------------------


def injected(fold, bench):
    """The count of ``fold``'s training rows that are rows of ``bench``'s anomaly array."""
    rows = fold.train[:, None, :] == bench.anomaly[None, :, :]
    return int(rows.all(axis=2).any(axis=1).sum())


class TestSplit:
    def bench(self, n_normal=1250, n_anomaly=400, seed=0):
        (bench,) = synth_gaussian(n_normal, n_anomaly, dim=2, seed=seed).benchmarks()
        return bench

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
        bench = self.bench()
        fold = split(bench, SplitSpec(contamination=0.05, seed=1))
        # 1250 normals: 1000 train; round(0.05 * 1000 / 0.95) = 53 injected.
        assert injected(fold, bench) == 53
        assert fold.train.shape[0] == 1053
        # Within one sample of the requested rate.
        rate = injected(fold, bench) / fold.train.shape[0]
        assert abs(rate - 0.05) <= 1.0 / 1053

    def test_zero_contamination_keeps_train_clean(self):
        bench = self.bench()
        fold = split(bench, SplitSpec(contamination=0.0, seed=1))
        assert injected(fold, bench) == 0
        assert fold.train.shape[0] == 1000
        assert fold.test_labels.sum() == bench.anomaly.shape[0]

    def test_injection_is_nested_across_levels(self):
        bench = self.bench()
        low = split(bench, SplitSpec(contamination=0.01, seed=4))
        high = split(bench, SplitSpec(contamination=0.05, seed=4))
        a_low = injected(low, bench)
        n = len(low.train) - a_low
        # Same normal fold, and the low-level injection is a prefix of the
        # high-level one: raising c only adds anomalies.
        np.testing.assert_array_equal(low.train[:n], high.train[:n])
        np.testing.assert_array_equal(
            low.train[n:], high.train[n : n + a_low]
        )

    def test_normal_fold_shared_across_table_benchmarks(self):
        benches = prepare_table(three_class_table(sizes=(60, 20, 20))).benchmarks()
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
        n_injected = injected(fold, bench)
        n_test_normal = 100 - (len(fold.train) - n_injected)
        assert n_injected > 0
        assert int((fold.test_labels == 0).sum()) == n_test_normal
        assert int(fold.test_labels.sum()) == 30 - n_injected

    def test_insufficient_anomalies_rejected(self):
        bench = self.bench(n_normal=1000, n_anomaly=3)
        with pytest.raises(ValueError, match="anomalies"):
            split(bench, SplitSpec(contamination=0.05, seed=0))

    def test_degenerate_fold_rejected(self):
        (bench,) = synth_gaussian(1, 5, dim=2, seed=0).benchmarks()
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
        (bench,) = synth_gaussian(500, 200, dim=3, shift=6.0, seed=1).benchmarks()
        assert bench.normal.shape == (500, 3)
        assert bench.anomaly.shape == (200, 3)
        assert bench.anomaly[:, 0].mean() == pytest.approx(6.0, abs=0.5)

    def test_gaussian_deterministic(self):
        (a,) = synth_gaussian(50, 10, seed=4).benchmarks()
        (b,) = synth_gaussian(50, 10, seed=4).benchmarks()
        np.testing.assert_array_equal(a.normal, b.normal)
        np.testing.assert_array_equal(a.anomaly, b.anomaly)

    def test_gaussian_without_anomalies(self):
        (bench,) = synth_gaussian(30, 0, seed=0).benchmarks()
        assert bench.anomaly.shape[0] == 0
        assert bench.normal.shape == (30, 2)

    def test_multiclass_layout(self):
        table = synth_multiclass_table("t", (30, 10, 5), dim=2, seed=2)
        assert table.features.shape == (45, 2)
        assert sorted(set(table.classes)) == ["c0", "c1", "c2"]
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

    @pytest.mark.parametrize("label", ["", " ", '""'])
    def test_empty_class_field_names_its_line(self, tmp_path, label):
        # An empty label would otherwise make an anomaly class of its own.
        path = tmp_path / "t.csv"
        path.write_text(f"f0,class\n1.0,a\n2.0,{label}\n3.0,b\n")
        with pytest.raises(ValueError, match=r"t\.csv: line 3: empty class field$"):
            read_raw_table(path)

    def test_line_numbers_are_physical_after_a_two_line_label(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('f0,class\n1.0,a\n2.0,"two\nlines"\noops,b\n')
        with pytest.raises(ValueError, match="line 5:"):
            read_raw_table(path)

    @pytest.mark.parametrize("field", ["nan", "inf", " -Infinity", "1e400"])
    def test_non_finite_feature_names_its_line(self, tmp_path, field):
        path = tmp_path / "t.csv"
        path.write_text(f"f0,f1,class\n1.0,2.0,a\n3.0,{field},b\n4.0,oops,b\n")
        with pytest.raises(ValueError, match=rf"t\.csv: line 3: non-finite value {field!r}$"):
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


NUMBER_FORMS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300).map(repr),
    st.floats(min_value=-1e300, max_value=1e300).map("{:.3e}".format),
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.sampled_from([" 1e-3", "1_0", "+.5", "-0", "0.0 ", "\t2.5", "-1E+2", "7.", "-.0"]),
)
LABELS = st.sampled_from(["n", "a", " b ", "x,y", 'say "hi"', "two\nlines", "#c"])
FAULTS = ("short", "bad float", "empty label", "non-finite")


@st.composite
def raw_table_files(draw):
    """(header, rows, comment/blank lines as (position, text), line end) of a well-formed table."""
    width = draw(st.integers(min_value=1, max_value=4))
    names = st.sampled_from(["f0", "x y", "a,b", " g ", 'h"q'])
    header = draw(st.lists(names, min_size=width, max_size=width))
    header.append(draw(st.sampled_from(["class", " class", "class "])))
    features = st.lists(NUMBER_FORMS, min_size=width, max_size=width)
    rows = draw(st.lists(st.builds(lambda f, c: f + [c], features, LABELS),
                         min_size=1, max_size=10))
    extras = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=len(rows) + 1),
                                     st.sampled_from(["", "# note", "#a,b,c", "  # x"])),
                           max_size=4))
    return header, rows, extras, draw(st.sampled_from(["\n", "\r\n"]))


def render_table(header, rows, extras, ending):
    """The text of a table: csv-quoted rows and, at their positions, raw comment/blank lines."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=ending).writerow(row)
        lines.append(buf.getvalue())
    for position, text in sorted(extras, reverse=True):
        lines.insert(position, text + ending)
    return "".join(lines)


def read_outcome(read, path):
    """``read(path)``'s (features bytes, shape, classes), or its ``ValueError`` message."""
    try:
        features, classes = read(path)
    except ValueError as exc:
        return str(exc)
    return features.tobytes(), features.shape, classes


def read_table(path):
    table = read_raw_table(path)
    assert table.name == path.stem
    return table.features, table.classes


@given(table=raw_table_files(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_reader_equals_the_row_by_row_reference(tmp_path_factory, table, data):
    """Well-formed tables read as the reference reads them, and each injected fault,
    alone or beside a second one, raises the reference's message: the same file and
    first line."""
    path = tmp_path_factory.mktemp("tables") / "t.csv"
    header, rows, extras, ending = table
    path.write_text(render_table(header, rows, extras, ending), newline="")
    want = read_outcome(raw_table_reference, path)
    assert not isinstance(want, str), want
    assert read_outcome(read_table, path) == want
    width = len(header) - 1
    for faults in [(f,) for f in FAULTS] + list(combinations_with_replacement(FAULTS, 2)):
        broken = [list(row) for row in rows]
        for fault in faults:
            i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1), label=fault)
            j = data.draw(st.integers(min_value=0, max_value=width - 1), label="field")
            if fault == "short":
                del broken[i][-2:-1]  # a row of one field is short already
            elif fault == "empty label":
                broken[i][-1] = data.draw(st.sampled_from(["", "  ", "\t"]))
            elif j < len(broken[i]) - 1:
                forms = (["oops", "1.0.0", "", "0x10", "1,5"] if fault == "bad float"
                         else ["nan", "inf", "-Infinity", "1e400", " NaN"])
                broken[i][j] = data.draw(st.sampled_from(forms))
        path.write_text(render_table(header, broken, extras, ending), newline="")
        want = read_outcome(raw_table_reference, path)
        # Only a short row can vanish: one field starting with "#" is a comment.
        assert isinstance(want, str) or "short" in faults, faults
        assert read_outcome(read_table, path) == want, faults


@given(
    st.integers(min_value=1, max_value=4).flatmap(lambda dim: st.lists(
        st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=dim, max_size=dim),
                  st.sampled_from(["n", "", " b ", "x,y", 'say "hi"', "two\nlines", "cr\r",
                                   "#c", "é"])),
        min_size=1, max_size=8)),
)
@settings(max_examples=60, deadline=None)
def test_written_text_is_the_csv_writer_text(tmp_path_factory, rows):
    table = RawTable("t", np.array([f for f, _ in rows]), tuple(c for _, c in rows))
    path = tmp_path_factory.mktemp("written") / "t.csv"
    write_raw_table(table, path)
    with open(path, newline="") as handle:
        assert handle.read() == raw_table_text_reference(table.features, table.classes)


def labelled_table(name, counts):
    """A 1-D table holding ``n`` rows of each ``class: n`` in ``counts``, valued by row."""
    classes = tuple(c for c, n in counts.items() for _ in range(n))
    return RawTable(name=name, features=np.arange(float(len(classes)))[:, None], classes=classes)


def cache_tables(root, tables):
    """Write each table as a cache file, named after its prepared table."""
    for table in tables:
        write_raw_table(table, root / f"{prepare_table(table).name}.csv")


def loaded(root, only=None):
    """The names of the benchmarks of ``load_tables(root, only)``."""
    return [b.name for table in load_tables(root, only) for b in table.benchmarks()]


class TestBenchmarkCache:
    def test_roundtrip_is_exact(self, tmp_path):
        table = synth_multiclass_table("tab", (20, 7, 5), dim=3, seed=5)
        cache_tables(tmp_path, [table])
        (prepared,) = load_tables(tmp_path)
        made, back = prepare_table(table).benchmarks(), prepared.benchmarks()
        assert [b.name for b in back] == [b.name for b in made] == ["tab-c1", "tab-c2"]
        for b, m in zip(back, made):
            assert b.normal.tobytes() == m.normal.tobytes()
            assert b.anomaly.tobytes() == m.anomaly.tobytes()
        assert back[0].normal is back[1].normal

    def test_listing_is_sorted_by_table_then_class(self, tmp_path):
        # "a-b.csv" sorts before "a.csv", but table "a" comes before table "a-b".
        cache_tables(tmp_path, [labelled_table("b", {"n": 3, "y": 1}),
                                labelled_table("a-b", {"n": 3, "x": 1}),
                                labelled_table("a", {"n": 3, "z": 1, "x": 2})])
        assert loaded(tmp_path) == ["a-x", "a-z", "a-b-x", "b-y"]

    def test_load_filters_by_table_or_full_name(self, tmp_path):
        cache_tables(tmp_path, [labelled_table("a", {"n": 3, "x": 1, "y": 1}),
                                labelled_table("b", {"n": 3, "x": 1})])
        assert loaded(tmp_path, only=["a"]) == ["a-x", "a-y"]
        assert loaded(tmp_path, only=["b-x"]) == ["b-x"]
        assert len(loaded(tmp_path)) == 3
        assert loaded(tmp_path, only=("a-y", "b")) == ["a-y", "b-x"]

    def test_only_narrows_tables_and_drops_those_left_without_a_class(self, tmp_path,
                                                                        monkeypatch):
        cache_tables(tmp_path, [labelled_table("a", {"n": 4, "x": 1, "y": 2, "z": 1}),
                                labelled_table("ab", {"n": 3, "x": 1}),
                                labelled_table("b", {"n": 3, "x": 1})])
        (full,) = load_tables(tmp_path, only=["a"])
        opened, read = [], datasets.read_raw_table
        monkeypatch.setattr(datasets, "read_raw_table",
                            lambda path: opened.append(path.name) or read(path))
        # b.csv may hold b-y, so it is read, and dropped: it has no class y.
        (a,) = load_tables(tmp_path, only=["a-z", "a-x", "b-y"])
        assert opened == ["a.csv", "b.csv"]
        assert [c for c, _ in a.anomalies] == ["x", "z"]
        assert a.normal.tobytes() == full.normal.tobytes()
        for (c, points), (_, want) in zip(a.anomalies, full.narrowed(["x", "z"]).anomalies):
            assert points.tobytes() == want.tobytes(), c

    def test_load_reads_only_the_tables_it_may_select(self, tmp_path):
        cache_tables(tmp_path, [labelled_table("a", {"n": 3, "x": 1})])
        (tmp_path / "broken.csv").write_text("f0,class\noops,n\n")
        assert loaded(tmp_path, only=["a-x", "ab"]) == ["a-x"]
        with pytest.raises(ValueError, match="line 2"):
            load_tables(tmp_path)

    def test_weird_names_sanitized(self, tmp_path):
        table = labelled_table("we ird", {"n": 3, "c/1": 2})
        (bench,) = prepare_table(table).benchmarks()
        assert (bench.table, bench.anomaly_class, bench.name) == ("we_ird", "c_1", "we_ird-c_1")
        cache_tables(tmp_path, [table])
        assert [p.name for p in tmp_path.iterdir()] == ["we_ird.csv"]
        (back,) = load_tables(tmp_path)[0].benchmarks()
        assert back.name == "we_ird-c_1"
        np.testing.assert_array_equal(back.normal, bench.normal)

    def test_a_file_not_named_by_its_table_is_refused(self, tmp_path):
        # Beside we_ird.csv it would make a second table 'we_ird' with another normal class.
        write_raw_table(labelled_table("we ird", {"n": 3, "x": 1}), tmp_path / "we ird.csv")
        cache_tables(tmp_path, [labelled_table("we_ird", {"n": 4, "y": 1})])
        with pytest.raises(ValueError, match="we ird.csv: not a prepared table"):
            load_tables(tmp_path)
        assert loaded(tmp_path, only=["we_ird"]) == ["we_ird-y"]

    def test_classes_that_make_one_name_are_refused(self):
        with pytest.raises(ValueError, match="two classes of table 'tab' make benchmark 'tab-c_1'"):
            prepare_table(labelled_table("tab", {"n": 20, "c/1": 4, "c_1": 6}))

    def test_an_empty_or_old_layout_cache_holds_no_benchmarks(self, tmp_path):
        assert load_tables(tmp_path / "ghost") == []
        old = tmp_path / "tab" / "c1"
        old.mkdir(parents=True)
        (old / "normal.csv").write_text("f0\n1.0\n")
        (old / "anomaly.csv").write_text("f0\n2.0\n")
        assert load_tables(tmp_path) == []
