from types import SimpleNamespace

import numpy as np
import pytest

from adeval.curves import threshold_at_fpr_rows
from adeval.detectors import iforest_fit, knn_fit, lof_fitter
from adeval.experiments import score_row
from adeval.volume import (
    SamplingBox,
    accepted_fraction,
    bounding_box,
    uniform_sample,
)
from test_curves import one_row


def max_norm(points):
    return np.abs(points).max(axis=1)


def volume_at_fpr(f, box, data, alpha, n=100_000, seed=0):
    """The estimate of ``adeval volume``: the threshold at FPR ``alpha`` of
    ``data``'s ROC, applied to the checked scores of one uniform sample."""
    ((tau,),) = threshold_at_fpr_rows(data.curve, [alpha])
    model = SimpleNamespace(score=f)
    sample = score_row(model, uniform_sample(box, n, seed), "non-finite volume score")
    (vol,) = accepted_fraction(sample, [tau])
    return SimpleNamespace(threshold=tau, vol=vol, cvol=1.0 - vol)


def tau_half_data():
    """Four scored samples whose ROC yields threshold 0.5 at FPR = 0.5."""
    return one_row([1, 0, 1, 0], [0.7, 0.6, 0.5, 0.4])


UNIT_BOX_2D = SamplingBox(b_min=np.array([-1.0, -1.0]), b_max=np.array([1.0, 1.0]))


class TestSamplingBox:
    def test_bounding_box_is_exact(self):
        points = np.array([[0.0, -2.0], [3.0, 5.0], [1.0, 1.0]])
        box = bounding_box(points)
        assert box.b_min.tolist() == [0.0, -2.0]
        assert box.b_max.tolist() == [3.0, 5.0]

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            SamplingBox(b_min=np.array([1.0]), b_max=np.array([0.0]))

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            bounding_box(np.empty((0, 2)))

    def test_degenerate_dimension_allowed(self):
        box = bounding_box(np.array([[1.0, 5.0], [2.0, 5.0]]))
        assert box.b_min[1] == box.b_max[1] == 5.0


class TestMcVolume:
    def test_known_region_quarter_volume(self):
        # Accept region {max-norm < 0.5} fills exactly 1/4 of [-1, 1]^2.
        est = volume_at_fpr(
            max_norm, UNIT_BOX_2D, tau_half_data(), alpha=0.5, n=100_000, seed=0
        )
        assert est.threshold == 0.5
        assert est.vol == pytest.approx(0.25, abs=0.005)
        assert est.cvol == 1.0 - est.vol

    def test_threshold_below_all_scores_gives_zero_volume(self):
        # alpha = 1 flags everything: nothing scores strictly below tau
        # for a nonnegative score function with tau at the minimum score.
        data = one_row([1, 0], [0.5, 0.0])
        est = volume_at_fpr(max_norm, UNIT_BOX_2D, data, alpha=1.0, n=2000, seed=1)
        assert est.threshold == 0.0
        assert est.vol == 0.0 and est.cvol == 1.0

    def test_huge_threshold_gives_full_volume(self):
        # Scores far above anything the box can produce: everything accepted.
        data = one_row([1, 0], [9.0, 8.0])
        est = volume_at_fpr(max_norm, UNIT_BOX_2D, data, alpha=0.5, n=2000, seed=1)
        assert est.vol == 1.0 and est.cvol == 0.0

    def test_same_seed_reproduces_exactly(self):
        a = volume_at_fpr(max_norm, UNIT_BOX_2D, tau_half_data(), 0.5, n=5000, seed=9)
        b = volume_at_fpr(max_norm, UNIT_BOX_2D, tau_half_data(), 0.5, n=5000, seed=9)
        assert a == b

    def test_strict_inequality_at_threshold(self):
        # Degenerate box sampling only points that score exactly tau:
        # every point counts as anomalous, so vol = 0.
        box = SamplingBox(b_min=np.array([0.5]), b_max=np.array([0.5]))
        data = one_row([1, 0, 1, 0], [0.7, 0.6, 0.5, 0.4])
        est = volume_at_fpr(max_norm, box, data, alpha=0.5, n=500, seed=0)
        assert est.threshold == 0.5
        assert est.vol == 0.0

    def test_monotone_in_alpha_under_shared_seed(self):
        rng = np.random.default_rng(3)
        labels = np.r_[np.ones(40, dtype=int), np.zeros(160, dtype=int)]
        scores = np.r_[rng.uniform(0.3, 1.1, 40), rng.uniform(0.0, 0.8, 160)]
        data = one_row(labels, scores)
        vols = [
            volume_at_fpr(max_norm, UNIT_BOX_2D, data, a, n=4000, seed=11).vol
            for a in (0.05, 0.1, 0.25, 0.5, 0.9)
        ]
        assert all(b <= a for a, b in zip(vols, vols[1:]))

    def test_binomial_error_envelope(self):
        # The estimator is a binomial proportion: across seeds the error
        # stays within 4 standard deviations at each sample count, and the
        # envelope itself shrinks as n^(-1/2).
        for n in (400, 10_000):
            sigma = np.sqrt(0.25 * 0.75 / n)
            errors = [
                abs(
                    volume_at_fpr(
                        max_norm, UNIT_BOX_2D, tau_half_data(), 0.5, n=n, seed=s
                    ).vol
                    - 0.25
                )
                for s in range(100)
            ]
            assert max(errors) <= 4.0 * sigma

    def test_rejects_bad_alpha_and_nonfinite_scores(self):
        with pytest.raises(ValueError):
            volume_at_fpr(max_norm, UNIT_BOX_2D, tau_half_data(), 0.0, n=10)
        def bad_score(points):
            out = max_norm(points)
            out[0] = np.nan
            return out
        with pytest.raises(ValueError, match="non-finite volume score"):
            volume_at_fpr(bad_score, UNIT_BOX_2D, tau_half_data(), 0.5, n=10)


class TestVolumePrimitives:
    def test_sample_is_one_seeded_stream(self):
        n = 20_000
        sample = uniform_sample(UNIT_BOX_2D, n, seed=5)
        points = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, 2))
        assert np.array_equal(sample, points)

    def test_model_scores_of_a_sample_do_not_depend_on_its_chunks(self):
        # A model scores a sample point by point, so scoring it whole equals
        # scoring it in chunks of 16384 points, bit for bit.
        train = np.random.default_rng(2).normal(size=(40, 2))
        sample = uniform_sample(UNIT_BOX_2D, 16384 + 9, seed=4)
        for model in (knn_fit(train, k=3, variant="delta"), lof_fitter(train)(5),
                      iforest_fit(train, n_trees=10, subsample=16, seed=1)):
            chunks = [model.score(sample[i : i + 16384]) for i in (0, 16384)]
            assert np.array_equal(model.score(sample), np.concatenate(chunks))

    def test_one_scored_sample_serves_every_level(self):
        rng = np.random.default_rng(3)
        labels = np.r_[np.ones(40, dtype=int), np.zeros(160, dtype=int)]
        scores = np.r_[rng.uniform(0.3, 1.1, 40), rng.uniform(0.0, 0.8, 160)]
        data = one_row(labels, scores)
        sample = max_norm(uniform_sample(UNIT_BOX_2D, 4000, seed=11))[None, :]
        alphas = (0.05, 0.1, 0.25, 0.5, 0.9)
        # One (levels, rows) pass: every level's thresholds, then every fraction.
        tau = threshold_at_fpr_rows(data.curve, alphas)
        vol = accepted_fraction(sample, tau)
        assert tau.shape == vol.shape == (len(alphas), 1)
        for a, t, v in zip(alphas, tau[:, 0], vol[:, 0]):
            assert SimpleNamespace(threshold=t, vol=v, cvol=1.0 - v) == volume_at_fpr(
                max_norm, UNIT_BOX_2D, data, a, n=4000, seed=11
            )

    def test_rejects_empty_sample_and_misshapen_scores(self):
        with pytest.raises(ValueError):
            uniform_sample(UNIT_BOX_2D, 0, seed=0)
        points = uniform_sample(UNIT_BOX_2D, 10, seed=0)
        model = SimpleNamespace(score=lambda x: max_norm(x)[:-1])
        with pytest.raises(ValueError, match="one score per point"):
            score_row(model, points, "non-finite volume score")
