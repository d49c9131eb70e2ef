"""Acceptance suite: one test per numbered release criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and pins its tolerances and
runtime budget inline.
"""

import csv
import math
import time
from contextlib import contextmanager

import numpy as np

from adeval.cli import main as cli_main
from adeval.curves import auc_at_rows, auc_rows, auc_weighted_rows, tpr_at_rows
from adeval.datasets import (
    SplitSpec,
    split,
    synth_gaussian,
    synth_multiclass_table,
    write_raw_table,
)
from adeval.detectors import iforest_fit, knn_fit, lof_fitter
from adeval.experiments import (
    Combo,
    ExperimentRecord,
    collapse,
    kendall_matrix,
    loss_matrix_table,
    roc_band,
)
from adeval.thresholded import precision_at_p_rows
from adeval.volume import SamplingBox
from _oracles import pairwise_auc
from test_curves import one_row
from test_volume import volume_at_fpr


@contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    """Print one pass/fail line for an acceptance criterion."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget_s:.0f}s budget"
            )
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    timing = f" ({elapsed:.2f}s)" if budget_s is not None else ""
    print(f"[PASS] criterion {number}: {title}{timing}")


def random_tied_instance(rng: np.random.Generator):
    """A labeled score set of size <= 200 with deliberate score ties."""
    n = int(rng.integers(2, 201))
    labels = rng.integers(0, 2, size=n)
    labels[rng.integers(0, n)] = 1
    idx = int(rng.integers(0, n))
    if labels.sum() == n:
        labels[idx] = 0
    distinct = max(2, n // 3)
    scores = rng.integers(0, distinct, size=n).astype(np.float64) / 7.0
    return one_row(labels, scores)


def maxnorm_score(points: np.ndarray) -> np.ndarray:
    return np.max(np.abs(points), axis=1)


FOUR_POINT = one_row([1, 0, 1, 0], [0.7, 0.6, 0.5, 0.4])
UNIT_BOX_2D = SamplingBox(
    b_min=np.array([-1.0, -1.0]), b_max=np.array([1.0, 1.0])
)


def four_point_volume(n: int, seed: int):
    """Max-norm accept volume at FPR 0.5 of ``FOUR_POINT``, as ``adeval volume`` estimates it."""
    return volume_at_fpr(maxnorm_score, UNIT_BOX_2D, FOUR_POINT, 0.5, n=n, seed=seed)


# ---------------------------------------------------------------------------
# 1. Area under the curve agrees with the pairwise ranking oracle
# ---------------------------------------------------------------------------


def test_criterion_1_auc_matches_pairwise_oracle():
    with criterion(1, "AUC equals the pairwise ranking oracle to 1e-12", budget_s=5.0):
        rng = np.random.default_rng(20260825)
        worst = 0.0
        for _ in range(500):
            data = random_tied_instance(rng)
            got = auc_rows(data.curve)[0]
            want = pairwise_auc(data.labels, data.scores[0])
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12, f"worst deviation {worst:.3e}"


# ---------------------------------------------------------------------------
# 2. Internal consistency identities
# ---------------------------------------------------------------------------


def _hand_records() -> list[ExperimentRecord]:
    grid = []
    values = {
        ("t", "c1", 0): {"AUC": 0.9, "AUC_w": 0.95},
        ("t", "c1", 1): {"AUC": 0.8, "AUC_w": 0.85},
        ("t", "c2", 0): {"AUC": 0.7, "AUC_w": 0.80},
        ("t", "c2", 1): {"AUC": 0.75, "AUC_w": 0.90},
    }
    for (table, anomaly_class, gi), vals in values.items():
        grid.append(
            ExperimentRecord(
                grid_index=gi,
                table=table,
                anomaly_class=anomaly_class,
                detector="knn",
                params=f"g{gi}",
                contamination=0.0,
                repetition=0,
                values=dict(vals),
                flags=(),
            )
        )
    return grid


def test_criterion_2_consistency_identities():
    with criterion(2, "consistency identities hold", budget_s=10.0):
        rng = np.random.default_rng(17)
        alphas = np.linspace(0.0, 1.0, 21)
        for _ in range(500):
            curve = random_tied_instance(rng).curve
            assert auc_at_rows(curve, [1.0])[0, 0] == auc_rows(curve)[0]
            assert auc_weighted_rows(curve)[0] >= auc_rows(curve)[0]
            tprs = tpr_at_rows(curve, alphas)[:, 0].tolist()
            assert all(a <= b for a, b in zip(tprs, tprs[1:]))
        for seed in range(5):
            est = four_point_volume(n=2048, seed=seed)
            assert est.vol + est.cvol == 1.0
        records = _hand_records()
        loss = loss_matrix_table(collapse(records))
        assert np.all(np.diag(loss.matrix) == 0.0)
        kendall = kendall_matrix(collapse(records))
        assert np.array_equal(kendall.matrix, kendall.matrix.T)
        assert np.all(np.diag(kendall.matrix) == 1.0)


# ---------------------------------------------------------------------------
# 3. Monte Carlo volume accuracy on an analytic detector
# ---------------------------------------------------------------------------


def test_criterion_3_volume_accuracy_maxnorm():
    with criterion(
        3, "max-norm accept volume within 0.005 of 0.25 for 20 seeds", budget_s=10.0
    ):
        for seed in range(20):
            est = four_point_volume(n=100_000, seed=seed)
            assert est.threshold == 0.5
            assert abs(est.vol - 0.25) <= 0.005, f"seed {seed}: vol={est.vol}"


# ---------------------------------------------------------------------------
# 4. A high-AUC detector that never fires at low FPR
# ---------------------------------------------------------------------------


def test_criterion_4_degenerate_detector_disagreement():
    with criterion(4, "low-FPR measures expose a degenerate high-AUC ranking"):
        # 100 normals above every anomaly, 900 below: good global ranking,
        # useless in the low-false-positive regime.
        n_high, n_low, n_anom = 100, 900, 50
        scores = np.concatenate(
            [
                np.linspace(10.0, 11.0, n_high),
                np.full(n_anom, 5.0),
                np.linspace(0.0, 4.0, n_low),
            ]
        )
        labels = np.concatenate(
            [np.zeros(n_high), np.ones(n_anom), np.zeros(n_low)]
        ).astype(int)
        curve = one_row(labels, scores).curve
        value = auc_rows(curve)[0]
        assert value >= 0.85, f"AUC={value}"
        assert tpr_at_rows(curve, [0.01])[0, 0] == 0.0
        assert auc_at_rows(curve, [0.05], normalized=True)[0, 0] <= 0.15


# ---------------------------------------------------------------------------
# 5. precision@p is insensitive to the test-set anomaly count
# ---------------------------------------------------------------------------


def test_criterion_5_precision_at_p_normalization():
    with criterion(
        5, "doubling test anomalies moves precision@0.05 by <= 0.02"
    ):
        normal = np.random.default_rng(7).normal(0.0, 1.0, size=2000)
        anomaly = np.random.default_rng(8).normal(1.5, 1.0, size=400)
        def precision(n_anom: int) -> float:
            scores = np.concatenate([normal, anomaly[:n_anom]])
            labels = np.concatenate([np.zeros(2000), np.ones(n_anom)]).astype(int)
            data = one_row(labels, scores)
            return precision_at_p_rows(data.labels, data.order, [0.05], rounds=1000, seed=3)[0, 0]

        single = precision(200)
        double = precision(400)
        assert abs(single - double) <= 0.02, f"{single} vs {double}"


# ---------------------------------------------------------------------------
# 6. Detector hand values
# ---------------------------------------------------------------------------


def test_criterion_6_detector_hand_values():
    with criterion(6, "detector scores match hand-computed values"):
        train_1d = np.array([[0.0], [1.0], [2.0]])
        query = np.array([[3.0]])
        assert knn_fit(train_1d, k=2, variant="kappa").score(query)[0] == 2.0
        assert knn_fit(train_1d, k=2, variant="gamma").score(query)[0] == 1.5
        assert knn_fit(train_1d, k=2, variant="delta").score(query)[0] == 1.5

        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        centroid = triangle.mean(axis=0, keepdims=True)
        lof_value = lof_fitter(triangle)(2).score(centroid)[0]
        assert abs(lof_value - 1.0) <= 1e-9

        rng = np.random.default_rng(42)
        clusters = np.concatenate(
            [
                rng.normal(0.0, 0.5, size=(64, 2)),
                rng.normal(4.0, 0.5, size=(64, 2)),
            ]
        )
        forest = iforest_fit(clusters, n_trees=100, subsample=64, seed=1)
        inlier, outlier = forest.score(np.array([[0.0, 0.0], [10.0, 10.0]]))
        assert 0.0 < inlier < 1.0 and 0.0 < outlier < 1.0
        assert outlier > inlier


# ---------------------------------------------------------------------------
# 7. Split protocol invariants
# ---------------------------------------------------------------------------


def test_criterion_7_split_protocol_invariants():
    with criterion(
        7, "folds shared across detectors; realized contamination within one sample"
    ):
        (bench,) = synth_gaussian(120, 60, dim=3, seed=4).benchmarks()
        spec = SplitSpec(train_fraction=0.8, contamination=0.0, seed=9, repetition=2)
        # The split depends only on the benchmark and the SplitSpec, so
        # every detector fitted on this cell sees the same folds.
        first = split(bench, spec)
        knn_fit(first.train, k=3, variant="kappa")
        second = split(bench, spec)
        lof_fitter(second.train)(5)
        assert np.array_equal(first.train, second.train)
        assert np.array_equal(first.test, second.test)
        assert first.test_ids == second.test_ids
        assert np.array_equal(first.test_labels, second.test_labels)

        for c in (0.0, 0.01, 0.05):
            fold = split(
                bench,
                SplitSpec(train_fraction=0.8, contamination=c, seed=9, repetition=0),
            )
            n_train = fold.train.shape[0]
            # The training rows that are rows of the anomaly class.
            injected = (fold.train[:, None, :] == bench.anomaly[None, :, :]).all(axis=2).any(axis=1)
            realized = int(injected.sum()) / n_train
            assert abs(realized - c) <= 1.0 / n_train, f"c={c}: realized={realized}"


# ---------------------------------------------------------------------------
# 8. End-to-end pipeline smoke with byte-identical rerun
# ---------------------------------------------------------------------------


def _read_table(path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return [row for row in csv.reader(handle) if not row[0].startswith("#")]


def _store_bytes(run_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((run_dir / "records").glob("*.csv"))}


def _table_bytes(out_dir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}


def test_criterion_8_end_to_end_smoke(tmp_path):
    with criterion(
        8, "full pipeline on 3 multiclass tables; rerun byte-identical", budget_s=300.0
    ):
        raw = tmp_path / "raw"
        raw.mkdir()
        for i in range(3):
            table = synth_multiclass_table(
                f"tab{i}", (90, 40, 30), dim=2, shift=3.0, seed=300 + i
            )
            write_raw_table(table, raw / f"tab{i}.csv")
        cache = tmp_path / "cache"
        assert cli_main(["prepare", str(raw), str(cache)]) == 0

        def run_and_aggregate(out_dir) -> None:
            assert cli_main(
                [
                    "run",
                    "--set", f"dataset_dir={cache}",
                    "--set", f"output_dir={out_dir}",
                    "--set", "repetitions=3",
                    "--set", "volume_samples=2000",
                    "--set", "master_seed=11",
                ]
            ) == 0
            for kind in ("rank", "kendall", "loss", "multiclass"):
                assert cli_main(["aggregate", kind, str(out_dir)]) == 0

        run_and_aggregate(tmp_path / "out1")
        tables = tmp_path / "out1" / "tables"

        rank_rows = _read_table(tables / "rank_c0.csv")
        assert rank_rows[0] == ["measure", "detector", "mean_rank", "std_rank", "n_datasets"]
        assert len(rank_rows) == 1 + 12 * 3  # 12 measures x 3 detectors
        assert all(1.0 <= float(r[2]) <= 3.0 for r in rank_rows[1:])
        assert all(r[4] == "6" for r in rank_rows[1:])

        kendall_rows = _read_table(tables / "kendall_c0.csv")
        assert len(kendall_rows) == 1 + 12 * 12
        taus = {(r[0], r[1]): float(r[2]) for r in kendall_rows[1:]}
        for (a, b), tau in taus.items():
            assert math.isnan(tau) or -1.0 <= tau <= 1.0
            assert tau == taus[(b, a)] or (math.isnan(tau) and math.isnan(taus[(b, a)]))

        loss_rows = _read_table(tables / "loss_c0.csv")
        assert len(loss_rows) == 1 + 12 * 12
        for row in loss_rows[1:]:
            value = float(row[2])
            assert value >= 0.0
            if row[0] == row[1]:
                assert value == 0.0

        multi_rows = _read_table(tables / "multiclass_c0.csv")
        assert len(multi_rows) == 1 + 12 * 12
        assert all(float(r[2]) >= 0.0 for r in multi_rows[1:])

        run_and_aggregate(tmp_path / "out2")
        assert _store_bytes(tmp_path / "out2") == _store_bytes(tmp_path / "out1")
        assert _table_bytes(tmp_path / "out2" / "tables") == _table_bytes(tables)


# ---------------------------------------------------------------------------
# 9. Resplit variance concentrates at small FPR
# ---------------------------------------------------------------------------


def test_criterion_9_resplit_band_variance_at_small_fpr(tmp_path):
    with criterion(
        9, "TPR/FPR spread over 100 resplits peaks at the smallest positive FPR"
    ):
        (bench,) = synth_gaussian(150, 60, dim=2, shift=1.0, seed=5).benchmarks()
        band = roc_band(
            bench,
            Combo(0, "knn", (("variant", "kappa"), ("k", 5))),
            n_splits=100,
            train_fraction=0.8,
            contamination=0.0,
            master_seed=3,
        )
        assert band.n_splits_used == 100
        positive = np.flatnonzero(band.fpr > 0.0)[0]
        near_half = int(np.argmin(np.abs(band.fpr - 0.5)))
        assert band.ratio_std[positive] > band.ratio_std[near_half], (
            f"std at fpr={band.fpr[positive]}: {band.ratio_std[positive]} vs "
            f"std at fpr={band.fpr[near_half]}: {band.ratio_std[near_half]}"
        )
