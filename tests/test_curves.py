import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adeval.curves import (
    LabeledScores,
    RocCurve,
    auc,
    auc_at,
    auc_at_rows,
    auc_rows,
    auc_weighted,
    auc_weighted_rows,
    build_roc,
    descending_order,
    roc_rows,
    threshold_at_fpr,
    threshold_at_fpr_rows,
    tpr_at,
    tpr_at_rows,
)
from _oracles import pairwise_auc, roc_reference


@st.composite
def labeled_scores(draw, max_size=60, tie_prone=True):
    """Random scored sample with both classes present, ties likely."""
    n = draw(st.integers(min_value=2, max_value=max_size))
    n_pos = draw(st.integers(min_value=1, max_value=n - 1))
    labels = np.zeros(n, dtype=int)
    labels[:n_pos] = 1
    if tie_prone:
        # Coarse integer grid so distinct samples often share a score.
        vals = draw(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=n, max_size=n)
        )
        scores = np.array(vals, dtype=float) / 2.0
    else:
        scores = np.array(
            draw(
                st.lists(
                    st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    return LabeledScores(labels=labels, scores=scores)


def simple_curve():
    return build_roc(LabeledScores(labels=[0, 0, 1, 1], scores=[0.1, 0.4, 0.35, 0.8]))


class TestLabeledScores:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            LabeledScores(labels=[1, 1], scores=[0.1, 0.2])
        with pytest.raises(ValueError):
            LabeledScores(labels=[0, 0], scores=[0.1, 0.2])

    def test_rejects_nonfinite_scores(self):
        with pytest.raises(ValueError):
            LabeledScores(labels=[0, 1], scores=[np.nan, 0.2])
        with pytest.raises(ValueError):
            LabeledScores(labels=[0, 1], scores=[np.inf, 0.2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledScores(labels=[0, 1, 1], scores=[0.1, 0.2])

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            LabeledScores(labels=[0, 2], scores=[0.1, 0.2])

    def test_counts(self):
        d = LabeledScores(labels=[0, 0, 1], scores=[1.0, 2.0, 3.0])
        assert d.n_pos == 1 and d.n_neg == 2 and len(d) == 3


class TestBuildRoc:
    def test_staircase_with_corners(self):
        curve = simple_curve()
        expected = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
        got = [(f, t) for f, t, _ in curve.vertices]
        assert got == expected

    def test_thresholds_descend_through_scores(self):
        curve = simple_curve()
        assert curve.thresholds[0] == np.inf
        assert curve.thresholds[1:].tolist() == [0.8, 0.4, 0.35, 0.1]

    def test_perfect_separation(self):
        curve = build_roc(LabeledScores(labels=[0, 1], scores=[1.0, 2.0]))
        assert [(f, t) for f, t, _ in curve.vertices] == [
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
        ]

    def test_all_scores_tied_is_single_diagonal(self):
        curve = build_roc(LabeledScores(labels=[0, 1, 0, 1], scores=[3.0] * 4))
        assert [(f, t) for f, t, _ in curve.vertices] == [(0.0, 0.0), (1.0, 1.0)]

    def test_mixed_tie_block_is_diagonal_segment(self):
        # One pos and one neg share 0.5: single diagonal step in the middle.
        curve = build_roc(
            LabeledScores(labels=[1, 1, 0, 0], scores=[0.9, 0.5, 0.5, 0.1])
        )
        assert [(f, t) for f, t, _ in curve.vertices] == [
            (0.0, 0.0),
            (0.0, 0.5),
            (0.5, 1.0),
            (1.0, 1.0),
        ]

    @given(labeled_scores())
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, data):
        curve = build_roc(data)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()
        assert (np.diff(curve.thresholds) <= 0).all()
        moved = (np.diff(curve.fpr) > 0) | (np.diff(curve.tpr) > 0)
        assert moved.all()


class TestRocCurveValidation:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            RocCurve(
                fpr=np.array([0.1, 1.0]),
                tpr=np.array([0.0, 1.0]),
                thresholds=np.array([2.0, 1.0]),
            )

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            RocCurve(
                fpr=np.array([0.0, 0.6, 0.4, 1.0]),
                tpr=np.array([0.0, 0.5, 0.7, 1.0]),
                thresholds=np.array([np.inf, 3.0, 2.0, 1.0]),
            )


class TestAuc:
    def test_hand_example(self):
        assert auc(simple_curve()) == 0.75

    def test_perfect_and_tied(self):
        assert auc(build_roc(LabeledScores(labels=[0, 1], scores=[1.0, 2.0]))) == 1.0
        assert auc(build_roc(LabeledScores(labels=[0, 1], scores=[2.0, 2.0]))) == 0.5

    @given(labeled_scores())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle(self, data):
        got = auc(build_roc(data))
        want = pairwise_auc(data.labels, data.scores)
        assert abs(got - want) <= 1e-12

    @given(labeled_scores())
    @settings(max_examples=100, deadline=None)
    def test_label_swap_complements(self, data):
        # Negating scores reverses the ranking: auc maps to 1 - auc,
        # with ties contributing 0.5 on both sides.
        flipped = LabeledScores(labels=data.labels, scores=-data.scores)
        assert abs(auc(build_roc(data)) + auc(build_roc(flipped)) - 1.0) <= 1e-12


class TestAucAt:
    def test_hand_values(self):
        curve = simple_curve()
        assert auc_at(curve, 0.5) == 0.25
        assert auc_at(curve, 0.5, normalized=True) == 0.5
        assert auc_at(curve, 0.25) == 0.125

    def test_alpha_one_equals_auc_exactly(self):
        curve = simple_curve()
        assert auc_at(curve, 1.0) == auc(curve)

    def test_normalized_perfect_detector_is_one(self):
        curve = build_roc(LabeledScores(labels=[0, 1], scores=[1.0, 2.0]))
        for alpha in (0.01, 0.05, 0.5, 1.0):
            assert auc_at(curve, alpha, normalized=True) == 1.0

    def test_rejects_alpha_zero_and_out_of_range(self):
        curve = simple_curve()
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                auc_at(curve, alpha)

    @given(labeled_scores(), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_alpha_one_identity_random(self, data, alpha):
        curve = build_roc(data)
        assert auc_at(curve, 1.0) == auc(curve)
        assert 0.0 <= auc_at(curve, alpha) <= alpha + 1e-15


class TestTprAt:
    def test_hand_values(self):
        curve = simple_curve()
        assert tpr_at(curve, 0.5) == 1.0  # uppermost TPR on the vertical edge
        assert tpr_at(curve, 0.25) == 0.5  # interior of a flat step
        assert tpr_at(curve, 0.0) == 0.5  # TPR attainable at zero FPR
        assert tpr_at(curve, 1.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tpr_at(simple_curve(), -0.01)
        with pytest.raises(ValueError):
            tpr_at(simple_curve(), 1.01)

    @given(labeled_scores(), st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_alpha(self, data, alphas):
        curve = build_roc(data)
        values = [tpr_at(curve, a) for a in sorted(alphas)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestAucWeighted:
    def test_hand_values(self):
        assert auc_weighted(simple_curve()) == 1.0
        perfect = build_roc(LabeledScores(labels=[0, 1], scores=[1.0, 2.0]))
        assert auc_weighted(perfect) == 1.0
        diagonal = build_roc(LabeledScores(labels=[0, 1], scores=[2.0, 2.0]))
        assert auc_weighted(diagonal) == 1.0

    def test_emphasizes_early_ranking(self):
        # Anomalies ranked above all normals except one early false positive
        # still scores well; anomalies ranked late are punished heavily.
        early = build_roc(
            LabeledScores(labels=[1, 1, 0, 0, 0], scores=[5.0, 4.0, 3.0, 2.0, 1.0])
        )
        late = build_roc(
            LabeledScores(labels=[0, 0, 0, 1, 1], scores=[5.0, 4.0, 3.0, 2.0, 1.0])
        )
        assert auc_weighted(early) > auc_weighted(late)

    @given(labeled_scores())
    @settings(max_examples=200, deadline=None)
    def test_dominates_plain_auc(self, data):
        curve = build_roc(data)
        assert auc_weighted(curve) >= auc(curve) - 1e-12


class TestThresholdAtFpr:
    def test_vertex_hit_returns_uppermost_vertex_threshold(self):
        assert threshold_at_fpr(simple_curve(), 0.5) == 0.35

    def test_interpolates_between_thresholds(self):
        curve = build_roc(LabeledScores(labels=[0, 1], scores=[1.0, 2.0]))
        assert threshold_at_fpr(curve, 0.5) == 1.5

    def test_alpha_one_flags_everything(self):
        data = LabeledScores(labels=[0, 0, 1, 1], scores=[0.1, 0.4, 0.35, 0.8])
        tau = threshold_at_fpr(build_roc(data), 1.0)
        assert tau == 0.1
        assert (data.scores >= tau).all()

    def test_rejects_alpha_zero(self):
        with pytest.raises(ValueError):
            threshold_at_fpr(simple_curve(), 0.0)

    def test_below_first_achievable_fpr_clamps_to_first_threshold(self):
        # Highest score belongs to a normal sample: FPR jumps straight to
        # 0.5 and no deterministic threshold realizes alpha = 0.25.
        curve = build_roc(LabeledScores(labels=[0, 1], scores=[2.0, 1.0]))
        assert threshold_at_fpr(curve, 0.25) == 2.0

    @given(labeled_scores(), st.lists(st.floats(min_value=0.01, max_value=1), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_in_alpha(self, data, alphas):
        curve = build_roc(data)
        taus = [threshold_at_fpr(curve, a) for a in sorted(alphas)]
        assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))


class TestMonotoneTransformInvariance:
    @given(labeled_scores())
    @settings(max_examples=100, deadline=None)
    def test_measures_unchanged(self, data):
        transformed = LabeledScores(
            labels=data.labels, scores=np.exp(data.scores / 4.0) + 1.0
        )
        a, b = build_roc(data), build_roc(transformed)
        assert np.array_equal(a.fpr, b.fpr)
        assert np.array_equal(a.tpr, b.tpr)
        assert abs(auc(a) - auc(b)) <= 1e-12
        assert abs(auc_at(a, 0.3) - auc_at(b, 0.3)) <= 1e-12
        assert abs(tpr_at(a, 0.3) - tpr_at(b, 0.3)) <= 1e-12
        assert abs(auc_weighted(a) - auc_weighted(b)) <= 1e-9


# ---------------------------------------------------------------------------
# Every row of a score matrix at once
# ---------------------------------------------------------------------------


@st.composite
def score_rows(draw):
    """0/1 labels and a tie-heavy (rows, n) score matrix holding one all-tied row."""
    n = draw(st.integers(min_value=2, max_value=30))
    n_pos = draw(st.integers(min_value=1, max_value=n - 1))
    labels = np.array(draw(st.permutations([1] * n_pos + [0] * (n - n_pos))))
    rows = draw(st.integers(min_value=1, max_value=6))
    scores = np.array(
        draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=rows, max_size=rows)),
        dtype=float,
    ) / 2.0
    scores[draw(st.integers(0, rows - 1))] = 0.5
    return labels, scores


def alpha_probes(labels):
    """Every vertex FPR k / n_neg, the midpoints between them, and a level below the first."""
    n_neg = int((np.asarray(labels) == 0).sum())
    return sorted({k / n_neg for k in range(1, n_neg + 1)}
                  | {(k + 0.5) / n_neg for k in range(n_neg)} | {1e-3})


def assert_rows_match_their_curves(labels, scores):
    rows = roc_rows(labels, scores, descending_order(scores))
    curves = [build_roc(LabeledScores(labels=labels, scores=row)) for row in scores]
    assert len(rows.starts) == len(curves) + 1
    for r, (row, curve) in enumerate(zip(scores, curves)):
        lo, hi = rows.starts[r], rows.starts[r + 1]
        vertices = list(zip(rows.fpr[lo:hi].tolist(), rows.tpr[lo:hi].tolist(),
                            rows.thresholds[lo:hi].tolist()))
        assert vertices == curve.vertices == roc_reference(labels, row)
    assert auc_rows(rows).tolist() == [auc(c) for c in curves]
    assert auc_rows(rows).tolist() == pytest.approx(
        [pairwise_auc(labels, row) for row in scores], abs=1e-12
    )
    assert auc_weighted_rows(rows).tolist() == [auc_weighted(c) for c in curves]
    for alpha in alpha_probes(labels):
        for normalized in (False, True):
            assert auc_at_rows(rows, alpha, normalized).tolist() == [
                auc_at(c, alpha, normalized) for c in curves
            ]
        assert tpr_at_rows(rows, alpha).tolist() == [tpr_at(c, alpha) for c in curves]
        assert threshold_at_fpr_rows(rows, alpha).tolist() == [
            threshold_at_fpr(c, alpha) for c in curves
        ]
    assert tpr_at_rows(rows, 0.0).tolist() == [tpr_at(c, 0.0) for c in curves]


class TestRocRows:
    def test_hand_rows(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([
            [2.0, 2.0, 2.0, 2.0],  # all tied: one diagonal
            [4.0, 1.0, 3.0, 2.0],  # perfect ranking
            [2.0, 3.0, 1.0, 0.0],  # a normal on top
        ])
        rows = roc_rows(labels, scores, descending_order(scores))
        assert rows.starts.tolist() == [0, 2, 7, 12]
        assert rows.fpr.tolist() == [0, 1, 0, 0, 0, 0.5, 1, 0, 0.5, 0.5, 0.5, 1]
        assert rows.tpr.tolist() == [0, 1, 0, 0.5, 1, 1, 1, 0, 0, 0.5, 1, 1]
        assert auc_rows(rows).tolist() == [0.5, 1.0, 0.5]
        # alpha = 0.5 sits on a vertex of the last two rows: the uppermost one.
        assert tpr_at_rows(rows, 0.5).tolist() == [0.5, 1.0, 1.0]
        assert threshold_at_fpr_rows(rows, 0.5).tolist() == [2.0, 2.0, 1.0]
        # alpha = 0.25 lies below the first positive FPR of the first and
        # last rows: their first finite threshold.
        assert threshold_at_fpr_rows(rows, 0.25).tolist() == [2.0, 2.5, 3.0]
        assert tpr_at_rows(rows, 0.25).tolist() == [0.25, 1.0, 0.0]
        assert_rows_match_their_curves(labels, scores)

    @given(score_rows())
    @settings(max_examples=150, deadline=None)
    def test_every_row_equals_its_own_curve_and_measures(self, case):
        assert_rows_match_their_curves(*case)
