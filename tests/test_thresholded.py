import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adeval.curves import descending_order, threshold_at_fpr_rows
from adeval.thresholded import (
    confusion_rows,
    f1_rows,
    precision_at_p_rows,
    precision_composition,
)
from _oracles import precision_reference
from test_curves import labeled_scores, one_row


def simple_data():
    return one_row([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])


def counts_at(data, threshold):
    """(tp, fp, tn, fn) of ``data``'s one row at ``threshold``."""
    return tuple(int(c[0]) for c in confusion_rows(data.labels, data.scores, [threshold]))


class TestConfusionAt:
    def test_ge_rule(self):
        assert counts_at(simple_data(), 0.35) == (2, 1, 1, 0)

    def test_threshold_above_everything(self):
        assert counts_at(simple_data(), 10.0) == (0, 0, 2, 2)

    def test_threshold_below_everything_flags_all(self):
        assert counts_at(simple_data(), -10.0) == (2, 2, 0, 0)

    def test_exact_tie_counts_as_flagged(self):
        tp, fp, _, _ = counts_at(one_row([0, 1], [1.0, 2.0]), 2.0)
        assert tp == 1 and fp == 0

    @given(labeled_scores(), st.floats(min_value=-10, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_counts_partition_sample(self, data, tau):
        tp, fp, tn, fn = counts_at(data, tau)
        n_pos = int(data.labels.sum())
        assert tp + fp + tn + fn == len(data.labels)
        assert tp + fn == n_pos
        assert fp + tn == len(data.labels) - n_pos
        assert min(tp, fp, tn, fn) >= 0


def f1_at_fpr(data, alpha):
    """F1 at the threshold the ROC curve of ``data`` gives for FPR = alpha."""
    tp, fp, _, fn = confusion_rows(
        data.labels, data.scores, threshold_at_fpr_rows(data.curve, [alpha])
    )
    return f1_rows(tp, fp, fn)[0, 0]


class TestF1:
    def test_hand_example(self):
        assert f1_at_fpr(simple_data(), 0.5) == 0.8

    def test_perfect_detector(self):
        data = one_row([0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0])
        # alpha = 0.25 falls between vertices; the interpolated threshold
        # (2.5) flags exactly the positives.
        assert f1_at_fpr(data, 0.25) == 1.0
        # alpha = 0.5 is the vertex whose threshold is the negative's own
        # score 2.0; flagging score >= 2 admits it: F1 = 4 / (4 + 1).
        assert f1_at_fpr(data, 0.5) == 0.8
        # alpha = 1 flags everything: F1 = 2P / (2P + N)
        assert f1_at_fpr(data, 1.0) == 4.0 / 6.0

    def test_all_tied_scores(self):
        data = one_row([0, 0, 0, 1], [5.0] * 4)
        assert f1_at_fpr(data, 1.0) == 2.0 / 5.0

    def test_zero_denominator_gives_zero(self):
        assert f1_rows([0], [0], [0])[0] == 0.0

    @given(labeled_scores())
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_increasing_transform(self, data):
        transformed = one_row(data.labels, 3.0 * data.scores[0] + 7.0)
        for alpha in (0.2, 0.7, 1.0):
            assert f1_at_fpr(data, alpha) == pytest.approx(
                f1_at_fpr(transformed, alpha), abs=1e-12
            )


def precision(data, p, rounds, seed):
    """precision@p of ``data``'s one row at the one level ``p``."""
    return precision_at_p_rows(data.labels, data.order, [p], rounds, seed)[0, 0]


class TestPrecisionAtP:
    def test_config_validation(self):
        data = simple_data()
        for ps in ([0.0], [0.05, 1.0], [float("nan")]):
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
                precision_at_p_rows(data.labels, data.order, ps)
        for ps in ([], [[0.05]]):
            with pytest.raises(ValueError, match="nonempty one-dimensional"):
                precision_at_p_rows(data.labels, data.order, ps)
        with pytest.raises(ValueError, match="rounds"):
            precision_at_p_rows(data.labels, data.order, [0.1], rounds=0)

    def test_composition_keeps_one_class_whole(self):
        # 50 anomalies among 100 normals at p = 0.2: keep 25 of the anomalies.
        assert precision_composition(50, 100, 0.2) == (25, 100, 25)
        # 2 anomalies among 198 normals at p = 0.1: thin the normals to 18.
        assert precision_composition(2, 198, 0.1) == (2, 18, 2)
        # 1 anomaly among 20 normals at p = 0.05 keeps both classes whole,
        # though 1 / 21 is below 0.05.
        assert precision_composition(1, 20, 0.05) == (1, 20, 2)

    def test_perfect_ranking_gives_one(self):
        # 5 anomalies on top of 95 normals; evaluating at the true
        # contamination keeps the sample intact and the top 5 are all true.
        labels = np.r_[np.ones(5, dtype=int), np.zeros(95, dtype=int)]
        scores = np.r_[np.linspace(10, 11, 5), np.linspace(0, 1, 95)]
        assert precision(one_row(labels, scores), 0.05, rounds=3, seed=1) == 1.0

    def test_inverted_ranking_gives_zero(self):
        labels = np.r_[np.ones(5, dtype=int), np.zeros(95, dtype=int)]
        scores = np.r_[np.linspace(0, 1, 5), np.linspace(10, 11, 95)]
        assert precision(one_row(labels, scores), 0.05, rounds=3, seed=1) == 0.0

    def test_anomalies_subsampled_to_target_proportion(self):
        # 50 anomalies among 100 normals, p = 0.2: rounds keep
        # round(0.2 * 100 / 0.8) = 25 anomalies out of 50.
        rng = np.random.default_rng(7)
        labels = np.r_[np.ones(50, dtype=int), np.zeros(100, dtype=int)]
        data = one_row(labels, rng.normal(size=150))
        v1 = precision(data, 0.2, rounds=20, seed=3)
        v2 = precision(data, 0.2, rounds=20, seed=3)
        assert v1 == v2  # deterministic under a fixed seed
        assert 0.0 <= v1 <= 1.0

    def test_random_scores_hit_base_rate(self):
        # With exchangeable scores the expected precision is the retained
        # contamination, here exactly 0.05.
        rng = np.random.default_rng(42)
        labels = np.r_[np.ones(400, dtype=int), np.zeros(1900, dtype=int)]
        data = one_row(labels, rng.normal(size=2300))
        assert precision(data, 0.05, rounds=1000, seed=5) == pytest.approx(0.05, abs=0.01)

    def test_less_contaminated_than_p_thins_normals(self):
        # 2 anomalies in 198 normals is 1% contamination; at p = 0.1 the
        # normals are thinned to round(2 * 0.9 / 0.1) = 18.
        labels = np.r_[np.ones(2, dtype=int), np.zeros(198, dtype=int)]
        scores = np.r_[np.array([5.0, 6.0]), np.linspace(0, 1, 198)]
        # Both anomalies always fall in the top 2 of 20.
        assert precision(one_row(labels, scores), 0.1, rounds=10, seed=2) == 1.0

    def test_tie_break_is_deterministic(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([1.0, 1.0, 1.0, 1.0])
        # Top ceil(0.5 * 4) = 2 under index tie-break: indices 0 and 1.
        assert precision(one_row(labels, scores), 0.5, rounds=4, seed=0) == 0.5


LEVELS = (0.01, 0.05, 0.1, 0.3, 0.5, 0.8)


@st.composite
def precision_cases(draw):
    """(labels, integer-valued score matrix, levels, rounds, seed), with one
    level of the set in either branch of precision@p.

    p = 0.01 keeps a top set of one sample (m = 1) on every sample drawn here.
    """
    p = draw(st.sampled_from(LEVELS))
    n_neg = draw(st.integers(1, 40))
    keep = max(1, round(p * n_neg / (1.0 - p)))
    if draw(st.booleans()):
        # More anomalies than proportion p keeps: they are subsampled.
        n_pos = keep + draw(st.integers(0, 8))
    else:
        # Fewer: the normals are thinned instead.
        assume(keep > 1)
        n_pos = draw(st.integers(1, keep - 1))
    labels = np.array(draw(st.permutations([1] * n_pos + [0] * n_neg)))
    rows = draw(st.integers(1, 5))
    scores = np.array(
        draw(st.lists(st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels)),
                      min_size=rows, max_size=rows)),
        dtype=float,
    )
    others = draw(st.lists(st.sampled_from(LEVELS), max_size=3))
    ps = tuple(draw(st.permutations(sorted({p, *others}))))
    return labels, scores, ps, draw(st.integers(1, 10)), draw(st.integers(0, 2**32 - 1))


class TestPrecisionAtPRows:
    @given(precision_cases())
    @settings(max_examples=300, deadline=None)
    def test_each_row_equals_its_own_precision_bit_for_bit(self, case):
        labels, scores, ps, rounds, seed = case
        batch = precision_at_p_rows(labels, descending_order(scores), ps, rounds, seed)
        assert batch.shape == (len(ps), len(scores))
        for row, values in zip(scores, batch.T):
            single = precision_at_p_rows(labels, descending_order(row[None, :]), ps, rounds, seed)
            assert values.tolist() == single[:, 0].tolist() == [
                precision_reference(labels, row, p, rounds, seed) for p in ps
            ]

    @given(precision_cases())
    @settings(max_examples=100, deadline=None)
    def test_a_level_does_not_depend_on_the_other_levels(self, case):
        labels, scores, ps, rounds, seed = case
        order = descending_order(scores)
        for p in ps:
            alone = precision_at_p_rows(labels, order, (p,), rounds, seed)[0]
            among = precision_at_p_rows(labels, order, (0.01, p, 0.3), rounds, seed)[1]
            assert alone.tobytes() == among.tobytes()

    @pytest.mark.parametrize("n_pos", [2, 12])
    def test_tie_heavy_rows_match_the_lexsort_reference(self, n_pos):
        # Against 20 normals, 2 anomalies are fewer than p = 0.3 and 0.5
        # keep (the normals are thinned) and 12 are more than p <= 0.3
        # keeps (the anomalies are subsampled).
        rng = np.random.default_rng(n_pos)
        labels = rng.permutation([1] * n_pos + [0] * 20)
        scores = np.round(rng.random((6, len(labels))), 1)
        scores[0] = 0.5
        order = descending_order(scores)
        ps = (0.01, 0.05, 0.1, 0.3, 0.5)
        for rounds in (1, 3, 10):
            assert precision_at_p_rows(labels, order, ps, rounds, 7).tolist() == [
                [precision_reference(labels, row, p, rounds, 7) for row in scores] for p in ps
            ]
