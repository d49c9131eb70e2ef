from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adeval.curves import (
    _row_sums,
    auc_at_rows,
    auc_rows,
    auc_weighted_rows,
    check_labels,
    descending_order,
    roc_rows,
    threshold_at_fpr_rows,
    tpr_at_rows,
)
from adeval.experiments import score_row
from _oracles import pairwise_auc, roc_reference


def one_row(labels, scores):
    """One labelled score row as the row functions take it.

    Holds the checked ``labels``, the (1, n) ``scores``, their descending
    ``order`` and their one-row ROC staircase ``curve``.
    """
    labels = check_labels(labels)
    scores = np.asarray(scores, dtype=np.float64)[None, :]
    order = descending_order(scores)
    return SimpleNamespace(labels=labels, scores=scores, order=order,
                           curve=roc_rows(labels, scores, order))


def vertices(curve):
    """(fpr, tpr, threshold) of every vertex of a one-row staircase."""
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist()))


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
    return one_row(labels, scores)


def simple_curve():
    return one_row([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]).curve


class TestLabelsAndScores:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            check_labels([1, 1])
        with pytest.raises(ValueError):
            check_labels([0, 0])

    def test_rejects_nonfinite_scores(self):
        def row(scores):
            model = SimpleNamespace(score=lambda points: np.array(scores))
            return score_row(model, np.zeros((2, 1)), "scores must be finite")

        with pytest.raises(ValueError, match="scores must be finite"):
            row([np.nan, 0.2])
        with pytest.raises(ValueError, match="scores must be finite"):
            row([np.inf, 0.2])
        with pytest.raises(ValueError, match="one score per point"):
            row([0.1, 0.2, 0.3])
        assert row([0.1, 0.2]).tolist() == [[0.1, 0.2]]

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            check_labels([0, 2])

    def test_counts(self):
        labels = check_labels([0, 0, 1])
        n_pos = int(labels.sum())
        assert n_pos == 1 and len(labels) - n_pos == 2 and len(labels) == 3


class TestBuildRoc:
    def test_staircase_with_corners(self):
        curve = simple_curve()
        expected = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
        got = [(f, t) for f, t, _ in vertices(curve)]
        assert got == expected

    def test_thresholds_descend_through_scores(self):
        curve = simple_curve()
        assert curve.thresholds[0] == np.inf
        assert curve.thresholds[1:].tolist() == [0.8, 0.4, 0.35, 0.1]

    def test_perfect_separation(self):
        curve = one_row([0, 1], [1.0, 2.0]).curve
        assert [(f, t) for f, t, _ in vertices(curve)] == [
            (0.0, 0.0),
            (0.0, 1.0),
            (1.0, 1.0),
        ]

    def test_all_scores_tied_is_single_diagonal(self):
        curve = one_row([0, 1, 0, 1], [3.0] * 4).curve
        assert [(f, t) for f, t, _ in vertices(curve)] == [(0.0, 0.0), (1.0, 1.0)]

    def test_mixed_tie_block_is_diagonal_segment(self):
        # One pos and one neg share 0.5: single diagonal step in the middle.
        curve = one_row([1, 1, 0, 0], [0.9, 0.5, 0.5, 0.1]).curve
        assert [(f, t) for f, t, _ in vertices(curve)] == [
            (0.0, 0.0),
            (0.0, 0.5),
            (0.5, 1.0),
            (1.0, 1.0),
        ]

    @given(labeled_scores())
    @settings(max_examples=120, deadline=None)
    def test_invariants(self, data):
        curve = data.curve
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()
        assert (np.diff(curve.thresholds) <= 0).all()
        moved = (np.diff(curve.fpr) > 0) | (np.diff(curve.tpr) > 0)
        assert moved.all()


class TestAuc:
    def test_hand_example(self):
        assert auc_rows(simple_curve())[0] == 0.75

    def test_perfect_and_tied(self):
        assert auc_rows(one_row([0, 1], [1.0, 2.0]).curve)[0] == 1.0
        assert auc_rows(one_row([0, 1], [2.0, 2.0]).curve)[0] == 0.5

    @given(labeled_scores())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle(self, data):
        got = auc_rows(data.curve)[0]
        want = pairwise_auc(data.labels, data.scores[0])
        assert abs(got - want) <= 1e-12

    @given(labeled_scores())
    @settings(max_examples=100, deadline=None)
    def test_label_swap_complements(self, data):
        # Negating scores reverses the ranking: auc maps to 1 - auc,
        # with ties contributing 0.5 on both sides.
        flipped = one_row(data.labels, -data.scores[0])
        assert abs(auc_rows(data.curve)[0] + auc_rows(flipped.curve)[0] - 1.0) <= 1e-12


class TestAucAt:
    def test_hand_values(self):
        curve = simple_curve()
        # Areas 0.25 under FPR 0.5 and 0.125 under FPR 0.25, each over its alpha.
        assert auc_at_rows(curve, [0.5])[0, 0] == 0.5
        assert auc_at_rows(curve, [0.25])[0, 0] == 0.5

    def test_alpha_one_equals_auc_exactly(self):
        curve = simple_curve()
        assert auc_at_rows(curve, [1.0])[0, 0] == auc_rows(curve)[0]

    def test_normalized_perfect_detector_is_one(self):
        curve = one_row([0, 1], [1.0, 2.0]).curve
        for alpha in (0.01, 0.05, 0.5, 1.0):
            assert auc_at_rows(curve, [alpha])[0, 0] == 1.0

    def test_rejects_alpha_zero_and_out_of_range(self):
        curve = simple_curve()
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                auc_at_rows(curve, [alpha])

    @given(labeled_scores(), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_alpha_one_identity_random(self, data, alpha):
        curve = data.curve
        assert auc_at_rows(curve, [1.0])[0, 0] == auc_rows(curve)[0]
        # The area is at most alpha: divided by alpha, at most 1.
        assert 0.0 <= auc_at_rows(curve, [alpha])[0, 0] <= (alpha + 1e-15) / alpha


class TestTprAt:
    def test_hand_values(self):
        curve = simple_curve()
        assert tpr_at_rows(curve, [0.5])[0, 0] == 1.0  # uppermost TPR on the vertical edge
        assert tpr_at_rows(curve, [0.25])[0, 0] == 0.5  # interior of a flat step
        assert tpr_at_rows(curve, [0.0])[0, 0] == 0.5  # TPR attainable at zero FPR
        assert tpr_at_rows(curve, [1.0])[0, 0] == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tpr_at_rows(simple_curve(), [-0.01])
        with pytest.raises(ValueError):
            tpr_at_rows(simple_curve(), [0.5, 1.01])

    @given(labeled_scores(), st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_alpha(self, data, alphas):
        values = tpr_at_rows(data.curve, sorted(alphas))[:, 0].tolist()
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestAucWeighted:
    def test_hand_values(self):
        assert auc_weighted_rows(simple_curve())[0] == 1.0
        perfect = one_row([0, 1], [1.0, 2.0]).curve
        assert auc_weighted_rows(perfect)[0] == 1.0
        diagonal = one_row([0, 1], [2.0, 2.0]).curve
        assert auc_weighted_rows(diagonal)[0] == 1.0

    def test_emphasizes_early_ranking(self):
        # Anomalies ranked above all normals except one early false positive
        # still scores well; anomalies ranked late are punished heavily.
        early = one_row([1, 1, 0, 0, 0], [5.0, 4.0, 3.0, 2.0, 1.0]).curve
        late = one_row([0, 0, 0, 1, 1], [5.0, 4.0, 3.0, 2.0, 1.0]).curve
        assert auc_weighted_rows(early)[0] > auc_weighted_rows(late)[0]

    @given(labeled_scores())
    @settings(max_examples=200, deadline=None)
    def test_dominates_plain_auc(self, data):
        assert auc_weighted_rows(data.curve)[0] >= auc_rows(data.curve)[0] - 1e-12


class TestThresholdAtFpr:
    def test_vertex_hit_returns_uppermost_vertex_threshold(self):
        assert threshold_at_fpr_rows(simple_curve(), [0.5])[0, 0] == 0.35

    def test_interpolates_between_thresholds(self):
        curve = one_row([0, 1], [1.0, 2.0]).curve
        assert threshold_at_fpr_rows(curve, [0.5])[0, 0] == 1.5

    def test_alpha_one_flags_everything(self):
        data = one_row([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        tau = threshold_at_fpr_rows(data.curve, [1.0])[0, 0]
        assert tau == 0.1
        assert (data.scores >= tau).all()

    def test_rejects_alpha_zero(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\], got 0.0"):
            threshold_at_fpr_rows(simple_curve(), [0.5, 0.0])

    def test_rejects_a_level_set_that_is_not_one_nonempty_sequence(self):
        for alphas in ([], [[0.5]], 0.5):
            with pytest.raises(ValueError, match="nonempty one-dimensional"):
                threshold_at_fpr_rows(simple_curve(), alphas)

    def test_below_first_achievable_fpr_clamps_to_first_threshold(self):
        # Highest score belongs to a normal sample: FPR jumps straight to
        # 0.5 and no deterministic threshold realizes alpha = 0.25.
        curve = one_row([0, 1], [2.0, 1.0]).curve
        assert threshold_at_fpr_rows(curve, [0.25])[0, 0] == 2.0

    @given(labeled_scores(), st.lists(st.floats(min_value=0.01, max_value=1), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_in_alpha(self, data, alphas):
        taus = threshold_at_fpr_rows(data.curve, sorted(alphas))[:, 0].tolist()
        assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))


class TestMonotoneTransformInvariance:
    @given(labeled_scores())
    @settings(max_examples=100, deadline=None)
    def test_measures_unchanged(self, data):
        transformed = one_row(data.labels, np.exp(data.scores[0] / 4.0) + 1.0)
        a, b = data.curve, transformed.curve
        assert np.array_equal(a.fpr, b.fpr)
        assert np.array_equal(a.tpr, b.tpr)
        assert abs(auc_rows(a)[0] - auc_rows(b)[0]) <= 1e-12
        assert abs(auc_at_rows(a, [0.3])[0, 0] - auc_at_rows(b, [0.3])[0, 0]) <= 1e-12
        assert abs(tpr_at_rows(a, [0.3])[0, 0] - tpr_at_rows(b, [0.3])[0, 0]) <= 1e-12
        assert abs(auc_weighted_rows(a)[0] - auc_weighted_rows(b)[0]) <= 1e-9


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
    """Each row of a multi-row staircase equals the one-row staircase of that
    row alone, vertex for vertex and in every measure, bit for bit; and each
    level's row of an all-levels call equals the one-level call at it."""
    rows = roc_rows(labels, scores, descending_order(scores))
    curves = [one_row(labels, row).curve for row in scores]
    assert len(rows.starts) == len(curves) + 1
    for r, (row, curve) in enumerate(zip(scores, curves)):
        lo, hi = rows.starts[r], rows.starts[r + 1]
        got = list(zip(rows.fpr[lo:hi].tolist(), rows.tpr[lo:hi].tolist(),
                       rows.thresholds[lo:hi].tolist()))
        assert got == vertices(curve) == roc_reference(labels, row)
    assert auc_rows(rows).tolist() == [auc_rows(c)[0] for c in curves]
    assert auc_rows(rows).tolist() == pytest.approx(
        [pairwise_auc(labels, row) for row in scores], abs=1e-12
    )
    assert auc_weighted_rows(rows).tolist() == [auc_weighted_rows(c)[0] for c in curves]
    alphas = alpha_probes(labels)
    measures = [auc_at_rows, tpr_at_rows, threshold_at_fpr_rows]
    for measure in measures:
        every = measure(rows, alphas)
        assert every.shape == (len(alphas), len(scores))
        for level, alpha in zip(every, alphas):
            assert level.tolist() == measure(rows, [alpha])[0].tolist()
            assert level.tolist() == [measure(c, [alpha])[0, 0] for c in curves]
    assert tpr_at_rows(rows, [0.0]).tolist() == [[tpr_at_rows(c, [0.0])[0, 0] for c in curves]]


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
        assert tpr_at_rows(rows, [0.5]).tolist() == [[0.5, 1.0, 1.0]]
        assert threshold_at_fpr_rows(rows, [0.5]).tolist() == [[2.0, 2.0, 1.0]]
        # alpha = 0.25 lies below the first positive FPR of the first and
        # last rows: their first finite threshold.
        assert threshold_at_fpr_rows(rows, [0.25]).tolist() == [[2.0, 2.5, 3.0]]
        assert tpr_at_rows(rows, [0.25]).tolist() == [[0.25, 1.0, 0.0]]
        assert_rows_match_their_curves(labels, scores)

    @given(score_rows())
    @settings(max_examples=150, deadline=None)
    def test_every_row_equals_its_own_curve_and_measures(self, case):
        assert_rows_match_their_curves(*case)


class TestRowSums:
    def test_grouped_sums_equal_each_slice_sum_bit_for_bit(self):
        """Rows summed by slice length equal each slice's own 1-D ``sum``.

        The lengths cross numpy's 8-element unrolled and 128-element
        pairwise blocks; several rows share each length, in shuffled order,
        and every level of a 2-D value array is summed at once.
        """
        rng = np.random.default_rng(12)
        lengths = np.r_[0, np.arange(1, 301), 511, 512, 513, 1000, 1025]
        lengths = rng.permutation(np.repeat(lengths, 2))
        stop = np.cumsum(lengths)
        bounds = np.stack([stop - lengths, stop], axis=1)
        # Magnitudes over 16 decades, so the order of additions shows in the bits.
        values = rng.normal(size=(3, stop[-1])) * 10.0 ** rng.integers(-8, 8, size=(3, stop[-1]))
        want = np.array([[level[a:b].sum() for a, b in bounds] for level in values])
        assert (_row_sums(values, bounds) == want).all()
        assert (_row_sums(values[1], bounds) == want[1]).all()
        sequential = np.array([np.cumsum(values[0, a:b])[-1] for a, b in bounds if b > a])
        assert (sequential != want[0][lengths > 0]).any()
