import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adeval.curves import LabeledScores, build_roc, descending_order, threshold_at_fpr
from adeval.thresholded import (
    ConfusionCounts,
    PrecisionAtPConfig,
    confusion_at,
    f1_score,
    precision_at_p,
    precision_at_p_rows,
)
from _oracles import precision_reference
from test_curves import labeled_scores


def simple_data():
    return LabeledScores(labels=[0, 0, 1, 1], scores=[0.1, 0.4, 0.35, 0.8])


class TestConfusionAt:
    def test_ge_rule(self):
        counts = confusion_at(simple_data(), 0.35)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 1, 0)

    def test_threshold_above_everything(self):
        counts = confusion_at(simple_data(), 10.0)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 0, 2, 2)

    def test_threshold_below_everything_flags_all(self):
        counts = confusion_at(simple_data(), -10.0)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 2, 0, 0)

    def test_exact_tie_counts_as_flagged(self):
        counts = confusion_at(
            LabeledScores(labels=[0, 1], scores=[1.0, 2.0]), 2.0
        )
        assert counts.tp == 1 and counts.fp == 0

    @given(labeled_scores(), st.floats(min_value=-10, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_counts_partition_sample(self, data, tau):
        counts = confusion_at(data, tau)
        assert counts.total == len(data)
        assert counts.tp + counts.fn == data.n_pos
        assert counts.fp + counts.tn == data.n_neg

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


def f1_at_fpr(data, alpha):
    """F1 at the threshold the ROC curve of ``data`` gives for FPR = alpha."""
    return f1_score(confusion_at(data, threshold_at_fpr(build_roc(data), alpha)))


class TestF1:
    def test_hand_example(self):
        assert f1_at_fpr(simple_data(), 0.5) == 0.8

    def test_perfect_detector(self):
        data = LabeledScores(labels=[0, 0, 1, 1], scores=[1.0, 2.0, 3.0, 4.0])
        # alpha = 0.25 falls between vertices; the interpolated threshold
        # (2.5) flags exactly the positives.
        assert f1_at_fpr(data, 0.25) == 1.0
        # alpha = 0.5 is the vertex whose threshold is the negative's own
        # score 2.0; flagging score >= 2 admits it: F1 = 4 / (4 + 1).
        assert f1_at_fpr(data, 0.5) == 0.8
        # alpha = 1 flags everything: F1 = 2P / (2P + N)
        assert f1_at_fpr(data, 1.0) == 4.0 / 6.0

    def test_all_tied_scores(self):
        data = LabeledScores(labels=[0, 0, 0, 1], scores=[5.0] * 4)
        assert f1_at_fpr(data, 1.0) == 2.0 / 5.0

    def test_zero_denominator_gives_zero(self):
        assert f1_score(ConfusionCounts(tp=0, fp=0, tn=3, fn=0)) == 0.0

    @given(labeled_scores())
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_increasing_transform(self, data):
        transformed = LabeledScores(
            labels=data.labels, scores=3.0 * data.scores + 7.0
        )
        for alpha in (0.2, 0.7, 1.0):
            assert f1_at_fpr(data, alpha) == pytest.approx(
                f1_at_fpr(transformed, alpha), abs=1e-12
            )


class TestPrecisionAtP:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrecisionAtPConfig(p=0.0)
        with pytest.raises(ValueError):
            PrecisionAtPConfig(p=1.0)
        with pytest.raises(ValueError):
            PrecisionAtPConfig(p=0.1, rounds=0)

    def test_perfect_ranking_gives_one(self):
        # 5 anomalies on top of 95 normals; evaluating at the true
        # contamination keeps the sample intact and the top 5 are all true.
        labels = np.r_[np.ones(5, dtype=int), np.zeros(95, dtype=int)]
        scores = np.r_[np.linspace(10, 11, 5), np.linspace(0, 1, 95)]
        data = LabeledScores(labels=labels, scores=scores)
        assert precision_at_p(data, PrecisionAtPConfig(p=0.05, rounds=3, seed=1)) == 1.0

    def test_inverted_ranking_gives_zero(self):
        labels = np.r_[np.ones(5, dtype=int), np.zeros(95, dtype=int)]
        scores = np.r_[np.linspace(0, 1, 5), np.linspace(10, 11, 95)]
        data = LabeledScores(labels=labels, scores=scores)
        assert precision_at_p(data, PrecisionAtPConfig(p=0.05, rounds=3, seed=1)) == 0.0

    def test_anomalies_subsampled_to_target_proportion(self):
        # 50 anomalies among 100 normals, p = 0.2: rounds keep
        # round(0.2 * 100 / 0.8) = 25 anomalies out of 50.
        rng = np.random.default_rng(7)
        labels = np.r_[np.ones(50, dtype=int), np.zeros(100, dtype=int)]
        scores = rng.normal(size=150)
        data = LabeledScores(labels=labels, scores=scores)
        v1 = precision_at_p(data, PrecisionAtPConfig(p=0.2, rounds=20, seed=3))
        v2 = precision_at_p(data, PrecisionAtPConfig(p=0.2, rounds=20, seed=3))
        assert v1 == v2  # deterministic under a fixed seed
        assert 0.0 <= v1 <= 1.0

    def test_random_scores_hit_base_rate(self):
        # With exchangeable scores the expected precision is the retained
        # contamination, here exactly 0.05.
        rng = np.random.default_rng(42)
        labels = np.r_[np.ones(400, dtype=int), np.zeros(1900, dtype=int)]
        scores = rng.normal(size=2300)
        data = LabeledScores(labels=labels, scores=scores)
        value = precision_at_p(data, PrecisionAtPConfig(p=0.05, rounds=1000, seed=5))
        assert value == pytest.approx(0.05, abs=0.01)

    def test_less_contaminated_than_p_thins_normals(self):
        # 2 anomalies in 198 normals is 1% contamination; at p = 0.1 the
        # normals are thinned to round(2 * 0.9 / 0.1) = 18.
        labels = np.r_[np.ones(2, dtype=int), np.zeros(198, dtype=int)]
        scores = np.r_[np.array([5.0, 6.0]), np.linspace(0, 1, 198)]
        data = LabeledScores(labels=labels, scores=scores)
        value = precision_at_p(data, PrecisionAtPConfig(p=0.1, rounds=10, seed=2))
        assert value == 1.0  # both anomalies always fall in the top 2 of 20

    def test_tie_break_is_deterministic(self):
        labels = np.array([1, 0, 1, 0])
        scores = np.array([1.0, 1.0, 1.0, 1.0])
        data = LabeledScores(labels=labels, scores=scores)
        # Top ceil(0.5 * 4) = 2 under index tie-break: indices 0 and 1.
        cfg = PrecisionAtPConfig(p=0.5, rounds=4, seed=0)
        assert precision_at_p(data, cfg) == 0.5


@st.composite
def precision_cases(draw):
    """(labels, integer-valued score matrix, config) in either branch of precision@p.

    p = 0.01 keeps a top set of one sample (m = 1) on every sample drawn here.
    """
    p = draw(st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.5, 0.8]))
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
    cfg = PrecisionAtPConfig(p=p, rounds=draw(st.integers(1, 10)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    return labels, scores, cfg


class TestPrecisionAtPRows:
    @given(precision_cases())
    @settings(max_examples=300, deadline=None)
    def test_each_row_equals_its_own_precision_bit_for_bit(self, case):
        labels, scores, cfg = case
        batch = precision_at_p_rows(labels, descending_order(scores), cfg)
        assert batch.shape == (len(scores),)
        for row, value in zip(scores, batch):
            single = precision_at_p(LabeledScores(labels=labels, scores=row), cfg)
            reference = precision_reference(labels, row, cfg.p, cfg.rounds, cfg.seed)
            assert value == single == reference

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
        for p in (0.01, 0.05, 0.1, 0.3, 0.5):
            for rounds in (1, 3, 10):
                cfg = PrecisionAtPConfig(p=p, rounds=rounds, seed=7)
                assert precision_at_p_rows(labels, order, cfg).tolist() == [
                    precision_reference(labels, row, p, rounds, 7) for row in scores
                ]
