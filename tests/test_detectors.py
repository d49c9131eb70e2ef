import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adeval.detectors import (
    _CHUNK, _avg_path_length, forest_scores, iforest_fit, knn_fit, lof_fit, neighbour_scores,
)
from _oracles import knn_reference


@st.composite
def point_cloud(draw, max_points=25, dim=2):
    """Small random training set with at least two distinct points."""
    n = draw(st.integers(min_value=3, max_value=max_points))
    values = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=n * dim,
            max_size=n * dim,
        )
    )
    points = np.array(values).reshape(n, dim)
    # Nudge the last point if everything collapsed to one location.
    if np.allclose(points, points[0]):
        points[-1] += 1.0
    return points


@st.composite
def grid_cloud(draw, max_points=25, dim=2):
    """Small random training set on the half-integer grid of [-10, 10]^dim.

    Distances on the grid tie exactly often, and two that do not tie differ
    by far more than any rounding.
    """
    n = draw(st.integers(min_value=3, max_value=max_points))
    values = draw(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=n * dim, max_size=n * dim)
    )
    points = np.array(values, dtype=float).reshape(n, dim) / 2
    if np.allclose(points, points[0]):
        points[-1] += 1.0
    return points


def two_clusters(seed=0, n=40, gap=8.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2))
    b = rng.normal(size=(n, 2)) + gap
    return np.vstack([a, b])


# ---------------------------------------------------------------------------
# k-nearest-neighbor scores
# ---------------------------------------------------------------------------


class TestKnn:
    def test_hand_values_on_a_line(self):
        train = np.array([[0.0], [1.0], [2.0]])
        x = np.array([3.0])
        # Neighbors of 3 for k=2 are the points 2 (d=1) and 1 (d=2).
        assert knn_fit(train, k=2, variant="kappa").score(x)[0] == 2.0
        assert knn_fit(train, k=2, variant="gamma").score(x)[0] == 1.5
        # Mean neighbor is 1.5, so the displacement length is also 1.5.
        assert knn_fit(train, k=2, variant="delta").score(x)[0] == 1.5

    def test_hand_values_in_the_plane(self):
        train = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        x = np.array([0.0, 0.0])
        # Both unit-distance neighbors cancel in the mean: delta sees an
        # interior point where gamma still reports distance 1.
        assert knn_fit(train, k=2, variant="kappa").score(x)[0] == 1.0
        assert knn_fit(train, k=2, variant="gamma").score(x)[0] == 1.0
        assert knn_fit(train, k=2, variant="delta").score(x)[0] == 0.0

    def test_distance_ties_resolved_by_training_index(self):
        # Two candidates tie at distance 2; the stable sort must take the
        # lower training index (0, 2) rather than (0, 1)... indices here:
        # p0 at d=1 is always in; p1=(0,2) and p2=(2,0) tie at d=2.
        train = np.array([[1.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        model = knn_fit(train, k=2, variant="delta")
        # Mean of p0 and p1 is (0.5, 1.0): length sqrt(1.25).
        assert model.score([0.0, 0.0])[0] == pytest.approx(
            np.sqrt(1.25), abs=1e-12
        )

    def test_neighbour_table_equals_full_row_stable_sort(self):
        rng = np.random.default_rng(8)
        # The tie layout above, integer grid points (many distances tie at
        # the k-th neighbour) and exact duplicates of earlier rows.
        grid = rng.integers(-3, 4, size=(16, 2)).astype(float)
        train = np.vstack([[[1.0, 0.0], [0.0, 2.0], [2.0, 0.0]], grid, grid[:5]])
        queries = np.vstack([
            [[0.0, 0.0], [np.nan, 1.0]],
            train,
            rng.integers(-8, 9, size=(_CHUNK + 300, 2)) / 2.0,
        ])
        assert len(queries) > _CHUNK
        models = [
            knn_fit(train, k=k, variant=variant)
            for variant in ("kappa", "gamma", "delta")
            for k in range(1, len(train) + 1)
        ]
        block = neighbour_scores(models, queries)
        for model, row in zip(models, block):
            expected = knn_reference(train, queries, model.k, model.variant)
            assert np.array_equal(row, expected, equal_nan=True), (model.k, model.variant)
            assert np.array_equal(model.score(queries), expected, equal_nan=True), (
                model.k, model.variant
            )

    def test_k_equal_n_uses_all_points(self):
        train = np.array([[0.0], [4.0]])
        model = knn_fit(train, k=2, variant="gamma")
        assert model.score([2.0])[0] == 2.0

    def test_batch_matches_single_queries(self):
        train = two_clusters(seed=3, n=15)
        queries = two_clusters(seed=4, n=5)
        for variant in ("kappa", "gamma", "delta"):
            model = knn_fit(train, k=4, variant=variant)
            batch = model.score(queries)
            singles = np.array([model.score(q)[0] for q in queries])
            np.testing.assert_allclose(batch, singles, rtol=0, atol=0)

    def test_rejects_bad_arguments(self):
        train = np.zeros((3, 2))
        train[1] = 1.0
        with pytest.raises(ValueError):
            knn_fit(train, k=0, variant="kappa")
        with pytest.raises(ValueError):
            knn_fit(train, k=4, variant="kappa")
        with pytest.raises(ValueError):
            knn_fit(train, k=1, variant="epsilon")
        with pytest.raises(ValueError):
            knn_fit(np.array([[np.nan, 0.0], [1.0, 1.0]]), k=1, variant="kappa")

    @given(point_cloud(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_variant_ordering(self, train, k):
        """kappa >= gamma >= delta: max >= mean >= norm of mean vector."""
        k = min(k, train.shape[0])
        query = np.array([[0.3, -0.7]])
        kappa = knn_fit(train, k=k, variant="kappa").score(query)[0]
        gamma = knn_fit(train, k=k, variant="gamma").score(query)[0]
        delta = knn_fit(train, k=k, variant="delta").score(query)[0]
        assert kappa >= gamma - 1e-9
        assert gamma >= delta - 1e-9

    @given(point_cloud(), st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_rigid_motion_invariance(self, train, angle):
        """Rotating and translating everything leaves all variants unchanged."""
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        shift = np.array([2.5, -1.0])
        queries = np.array([[0.0, 0.0], [1.0, 2.0]])
        for variant in ("kappa", "gamma", "delta"):
            before = knn_fit(train, k=2, variant=variant).score(queries)
            after = knn_fit(train @ rot.T + shift, k=2, variant=variant).score(
                queries @ rot.T + shift
            )
            np.testing.assert_allclose(after, before, atol=1e-8)

    @pytest.mark.parametrize(
        "train, angle, query, expected",
        [
            # (.75, 0) and (0, .75) tie at 0.75; index 1 joins (0, .5).
            ([[0.0, 0.5], [0.75, 0.0], [0.0, 0.75], [0.0, 1.0]], 0.5, [0.0, 0.0],
             np.hypot(0.375, 0.25)),
            # (0, 3) and both copies of (0, 1) tie at sqrt(2); index 0 joins.
            ([[0.0, 3.0]] + [[0.0, 0.0]] * 18 + [[0.0, 1.0]] * 2, 2.75, [1.0, 2.0],
             1.0),
        ],
        ids=["four-points", "duplicate-rows"],
    )
    def test_rotated_exact_tie_keeps_lowest_index(self, train, angle, query, expected):
        """Rounding after a rigid motion must not break an exact tie the other way."""
        train = np.array(train)
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        shift = np.array([2.5, -1.0])
        before = knn_fit(train, k=2, variant="delta").score(query)[0]
        after = knn_fit(train @ rot.T + shift, k=2, variant="delta").score(
            np.array(query) @ rot.T + shift
        )[0]
        assert before == pytest.approx(expected, abs=1e-12)
        assert after == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Local outlier factor
# ---------------------------------------------------------------------------


class TestLof:
    def test_equilateral_triangle_centroid(self):
        side = 2.0
        train = np.array(
            [[0.0, 0.0], [side, 0.0], [side / 2, side * np.sqrt(3) / 2]]
        )
        centroid = train.mean(axis=0)
        model = lof_fit(train, k=2)
        assert model.score(centroid)[0] == pytest.approx(1.0, abs=1e-9)

    def test_uniform_grid_hand_values(self):
        train = np.arange(10.0).reshape(-1, 1)
        model = lof_fit(train, k=2)
        # Midway between grid points the density matches the neighbors.
        assert model.score([4.5])[0] == pytest.approx(1.0, abs=1e-12)
        # Far outside, reachability is dominated by the query distance:
        # lrd_q = 2/183, neighbor densities are 2/3 each, ratio = 61.
        assert model.score([100.0])[0] == pytest.approx(61.0, abs=1e-9)

    def test_grid_interior_near_one(self):
        xx, yy = np.meshgrid(np.arange(5.0), np.arange(5.0))
        train = np.column_stack([xx.ravel(), yy.ravel()])
        model = lof_fit(train, k=4)
        assert model.score([2.0, 2.0])[0] == pytest.approx(1.0, abs=0.15)

    def test_outlier_grows_with_distance(self):
        train = two_clusters(seed=1)
        model = lof_fit(train, k=5)
        near = model.score([20.0, 20.0])[0]
        far = model.score([60.0, 60.0])[0]
        assert 1.5 < near < far

    def test_duplicate_training_rows_stay_finite(self):
        train = np.array([[0.0], [0.0], [1.0]])
        model = lof_fit(train, k=1)
        # A query on the duplicate pair is exactly as dense as it: LOF 1.
        assert model.score([0.0])[0] == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(model.score([5.0])[0])

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            lof_fit(np.zeros((4, 2)), k=2)  # all points identical
        train = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            lof_fit(train, k=0)
        with pytest.raises(ValueError):
            lof_fit(train, k=3)  # k must stay below n

    def test_batch_matches_single_queries(self):
        train = two_clusters(seed=5, n=20)
        queries = two_clusters(seed=6, n=4)
        model = lof_fit(train, k=3)
        batch = model.score(queries)
        singles = np.array([model.score(q)[0] for q in queries])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=0)

    def test_scored_with_knn_models_equals_own_score(self):
        rng = np.random.default_rng(12)
        grid = rng.integers(-3, 4, size=(30, 2)).astype(float)
        train = np.vstack([grid, grid[:4], rng.normal(size=(20, 2))])
        queries = np.vstack([
            [[np.nan, 1.0]],
            train,
            rng.integers(-8, 9, size=(_CHUNK + 300, 2)) / 2.0,
        ])
        models = [
            lof_fit(train, k=5),
            knn_fit(train, k=3, variant="delta"),
            lof_fit(train, k=1),
            knn_fit(train, k=40, variant="gamma"),
            lof_fit(train, k=20),
            knn_fit(train, k=20, variant="kappa"),
        ]
        with np.errstate(invalid="ignore"):
            block = neighbour_scores(models, queries)
            for model, row in zip(models, block):
                assert np.array_equal(row, model.score(queries), equal_nan=True)
        for row in block[::2]:
            assert np.isnan(row[0]) and np.isfinite(row[1:]).all()

    @given(grid_cloud(), st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_rigid_motion_invariance(self, train, angle):
        """Rotating and translating everything leaves LOF unchanged.

        LOF is a ratio of densities, so rounding moves it by a relative
        amount rather than an absolute one.  The points lie on a grid: the
        exact ties a rigid motion turns into near-ties are common there,
        while a gap between the tie tolerance of one frame and that of the
        other, which scales with the coordinate magnitude, cannot occur.
        """
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        shift = np.array([2.5, -1.0])
        queries = np.array([[0.0, 0.0], [1.0, 2.0]])
        before = lof_fit(train, k=2).score(queries)
        after = lof_fit(train @ rot.T + shift, k=2).score(queries @ rot.T + shift)
        np.testing.assert_allclose(after, before, rtol=1e-6)

    @pytest.mark.parametrize(
        "train, k, query, expected",
        [
            # (.75, 0) and (0, .75) tie at 0.75 as the query's 2nd neighbour.
            ([[0.0, 0.5], [0.75, 0.0], [0.0, 0.75], [0.0, 1.0]], 2, [0.0, 0.0],
             1.4598262454042683),
            # (0, 3) and both copies of (0, 1) tie at sqrt(2) from the query.
            ([[0.0, 3.0]] + [[0.0, 0.0]] * 18 + [[0.0, 1.0]] * 2, 1, [1.0, 2.0],
             357661268499.98596),
            ([[0.0, 3.0]] + [[0.0, 0.0]] * 18 + [[0.0, 1.0]] * 2, 2, [1.0, 2.0],
             1.3412297568739415),
        ],
        ids=["four-points", "duplicate-rows-k1", "duplicate-rows-k2"],
    )
    def test_rotated_exact_tie_keeps_every_tied_member(self, train, k, query, expected):
        """Rounding after a rigid motion must not drop a tied point from a neighbourhood."""
        train = np.array(train)
        angle = -2.75
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        shift = np.array([2.5, -1.0])
        before = lof_fit(train, k=k).score(query)[0]
        after = lof_fit(train @ rot.T + shift, k=k).score(np.array(query) @ rot.T + shift)[0]
        assert before == pytest.approx(expected, rel=1e-12)
        assert after == pytest.approx(expected, rel=1e-6)

    @given(point_cloud(max_points=15))
    @settings(max_examples=40, deadline=None)
    def test_scores_positive_and_finite(self, train):
        model = lof_fit(train, k=2)
        queries = np.array([[0.0, 0.0], [15.0, -3.0]])
        values = model.score(queries)
        assert np.all(np.isfinite(values)) and np.all(values > 0)


# ---------------------------------------------------------------------------
# Isolation forest
# ---------------------------------------------------------------------------


class TestIsolationForest:
    def test_average_path_length_values(self):
        assert _avg_path_length(0) == 0.0
        assert _avg_path_length(1) == 0.0
        assert _avg_path_length(2) == 1.0
        expected = 2.0 * (np.log(2.0) + np.euler_gamma) - 4.0 / 3.0
        assert _avg_path_length(3) == pytest.approx(expected, abs=1e-12)

    def test_identical_points_score_half(self):
        train = np.ones((8, 2))
        model = iforest_fit(train, n_trees=20, subsample=8, seed=0)
        np.testing.assert_array_equal(model.score(train), 0.5)

    def test_two_point_training_set(self):
        # With two samples every tree is one root split: both points sit
        # in depth-1 singleton leaves and score exactly 2^(-1/c(2)) = 0.5.
        train = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = iforest_fit(train, n_trees=10, subsample=2, seed=1)
        np.testing.assert_array_equal(model.score(train), 0.5)

    def test_outlier_scores_above_inlier(self):
        train = two_clusters(seed=2)
        model = iforest_fit(train, n_trees=100, subsample=64, seed=7)
        inlier = model.score(train.mean(axis=0) * 0 + 0.1)[0]
        outlier = model.score([40.0, -40.0])[0]
        assert 0.0 < inlier < outlier < 1.0

    def test_bit_reproducible_across_fits(self):
        train = two_clusters(seed=9)
        queries = two_clusters(seed=10, n=10)
        a = iforest_fit(train, n_trees=30, subsample=32, seed=5).score(queries)
        b = iforest_fit(train, n_trees=30, subsample=32, seed=5).score(queries)
        np.testing.assert_array_equal(a, b)
        c = iforest_fit(train, n_trees=30, subsample=32, seed=6).score(queries)
        assert not np.array_equal(a, c)

    def test_subsample_capped_at_sample_count(self):
        train = two_clusters(seed=11, n=5)  # 10 points < default subsample
        model = iforest_fit(train, n_trees=10, subsample=256, seed=0)
        assert model.subsample == 10

    def test_rejects_tiny_training_sets(self):
        with pytest.raises(ValueError):
            iforest_fit(np.zeros((1, 2)), n_trees=10, subsample=256, seed=0)
        with pytest.raises(ValueError):
            iforest_fit(np.zeros((5, 2)), n_trees=0, subsample=4, seed=0)

    @given(point_cloud(max_points=20), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_scores_strictly_inside_unit_interval(self, train, seed):
        model = iforest_fit(train, n_trees=15, subsample=16, seed=seed)
        queries = np.vstack([train, [[50.0, 50.0]]])
        values = model.score(queries)
        assert np.all(values > 0.0) and np.all(values < 1.0)

    def test_smaller_forest_is_prefix_of_larger(self):
        train = two_clusters(seed=3)
        queries = np.vstack([two_clusters(seed=4, n=30), [[40.0, -40.0]]])
        small = iforest_fit(train, n_trees=50, subsample=32, seed=11)
        large = iforest_fit(train, n_trees=200, subsample=32, seed=11)
        for t in range(50):
            np.testing.assert_array_equal(small.feature[t], large.feature[t])
            np.testing.assert_array_equal(small.threshold[t], large.threshold[t])
            np.testing.assert_array_equal(small.path[t], large.path[t])
        expected = small.score(queries)
        np.testing.assert_array_equal(large.prefix(50).score(queries), expected)
        walk = forest_scores([large, large.prefix(50), large.prefix(100)], queries)
        np.testing.assert_array_equal(walk[1], expected)
        np.testing.assert_array_equal(walk[0], large.score(queries))
        np.testing.assert_array_equal(
            walk[2], iforest_fit(train, n_trees=100, subsample=32, seed=11).score(queries)
        )

    def test_only_prefixes_of_one_forest_score_together(self):
        train = two_clusters(seed=5)
        a = iforest_fit(train, n_trees=10, subsample=16, seed=1)
        b = iforest_fit(train, n_trees=20, subsample=16, seed=2)
        with pytest.raises(ValueError, match="prefixes of one forest"):
            forest_scores([a, b], train)
        for n_trees in (0, 11):
            with pytest.raises(ValueError):
                a.prefix(n_trees)

    def test_rejects_points_without_dimensions(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            iforest_fit(np.zeros((5, 0)), n_trees=3, subsample=4, seed=0)

    @pytest.mark.parametrize(
        "points, subsample",
        [
            (np.repeat(np.random.default_rng(1).normal(size=(6, 3)), 4, axis=0), 13),
            (np.random.default_rng(2).normal(size=(9, 2)), 2),
            (np.random.default_rng(3).integers(0, 3, size=(40, 2)).astype(float), 23),
            (np.random.default_rng(4).normal(size=(11, 1)), 256),
            (np.vstack([np.ones((7, 2)), [[2.0, 1.0]]]), 8),
        ],
        ids=["duplicate-rows", "psi-2", "grid-psi-23", "psi-11-of-11", "one-odd-point"],
    )
    def test_level_wise_growth_keeps_the_tree_rules(self, points, subsample):
        check_growth(points, subsample, seed=3)

    @given(grid_cloud(max_points=30, dim=3), st.integers(min_value=2, max_value=40),
           st.integers(min_value=0, max_value=3))
    @example(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 2, 0)
    @settings(max_examples=40, deadline=None)
    def test_level_wise_growth_property(self, points, subsample, seed):
        check_growth(points, subsample, seed)


def check_growth(points, subsample, seed, n_trees=6):
    """Walk each tree over the subsample it grew on and check the growth rules.

    Tree t's subsample is the first draw of its own stream, seeded by
    (seed, t).  Every reached node must be split exactly when it holds more
    than one point, has a non-constant dimension and lies above the height
    limit; a split threshold must lie within its dimension's bounds in the
    node; a leaf's path must be its depth plus c(size); the leaf sizes must
    sum to psi.  Scores must equal a point-by-point descent of the trees.
    """
    model = iforest_fit(points, n_trees=n_trees, subsample=subsample, seed=seed)
    psi, height_limit = min(subsample, len(points)), model.height_limit
    assert (model.subsample, height_limit) == (psi, math.ceil(math.log2(psi)))
    for t in range(n_trees):
        rows = np.random.default_rng((seed, t)).choice(len(points), size=psi, replace=False)
        feature, threshold, path = model.feature[t], model.threshold[t], model.path[t]
        leaf_sizes = []
        stack = [(0, 0, points[rows])]
        while stack:
            node, depth, members = stack.pop()
            lo = members.min(axis=0, initial=np.inf)
            hi = members.max(axis=0, initial=-np.inf)
            splits = len(members) > 1 and depth < height_limit and bool((hi > lo).any())
            assert (feature[node] >= 0) == splits, (t, node)
            if not splits:
                assert path[node] == depth + _avg_path_length(len(members))
                leaf_sizes.append(len(members))
                continue
            dim, value = feature[node], threshold[node]
            assert lo[dim] < hi[dim] and lo[dim] <= value <= hi[dim]
            below = members[:, dim] < value
            stack += [(2 * node + 1, depth + 1, members[below]),
                      (2 * node + 2, depth + 1, members[~below])]
        assert sum(leaf_sizes) == psi
    queries = np.vstack([points, points.max(axis=0) + 1.0, np.full(points.shape[1], np.nan)])
    total = np.zeros(len(queries))
    for t in range(n_trees):
        for j, query in enumerate(queries):
            node = 0
            while model.feature[t, node] >= 0:
                below = query[model.feature[t, node]] < model.threshold[t, node]
                node = 2 * node + (1 if below else 2)
            total[j] += model.path[t, node] / _avg_path_length(psi)
    np.testing.assert_array_equal(model.score(queries), 2.0 ** (-total / n_trees))
