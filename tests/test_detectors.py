import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from adeval import detectors
from adeval.detectors import (
    _CHUNK, _DESCENT_TILE, _avg_path_length, _splitmix, forest_scores, iforest_fit, knn_fit,
    lof_fitter, neighbour_scores,
)
from _oracles import (
    forest_draw, forest_growth_reference, forest_reference, forest_subsample, knn_reference,
    lof_fit_reference, lof_score_reference, splitmix64,
)


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


def assert_rows_equal_reference(train, queries):
    """Every kNN model's row of one block, and its own score, equal the reference."""
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
        assert_rows_equal_reference(train, queries)

    def test_one_dimensional_rows_equal_reference(self):
        """In 1-D too, delta divides the neighbours' sum in neighbour order by k.

        numpy's mean would add a contiguous axis pairwise; on real-valued
        points that moves last bits once k reaches 8, so this pins the sum.
        """
        rng = np.random.default_rng(9)
        line = rng.normal(size=(30, 1))
        train = np.vstack([line, line[:5], np.arange(-3.0, 4.0)[:, None]])
        queries = np.vstack([[[np.nan]], train, 2.0 * rng.normal(size=(_CHUNK + 300, 1))])
        assert_rows_equal_reference(train, queries)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_delta_equals_prefix_mean_of_one_gather(self, dim):
        """Delta rows equal ``|points[idx[:, :k]].mean(axis=1) - q|`` bit for bit.

        For d >= 2 numpy's mean adds the neighbours one at a time, in order,
        along the non-contiguous neighbour axis, which is the running sum
        that delta reads, so no value with d >= 2 differs from that mean.
        Grid points tie at the k-th neighbour often, real-valued ones make
        the sums round, and the queries cross a chunk edge.
        """
        rng = np.random.default_rng(dim)
        grid = rng.integers(-3, 4, size=(40, dim)).astype(float)
        train = np.vstack([grid, grid[:5], rng.normal(size=(15, dim))])
        queries = np.vstack([
            train,
            rng.integers(-8, 9, size=(_CHUNK, dim)) / 2.0,
            rng.normal(size=(300, dim)),
        ])
        ks = range(1, len(train) + 1)
        block = neighbour_scores([knn_fit(train, k, "delta") for k in ks], queries)
        order = np.argsort(cdist(queries, train), axis=1, kind="stable")
        near = train[order]
        for k, row in zip(ks, block):
            expected = np.linalg.norm(near[:, :k].mean(axis=1) - queries, axis=1)
            assert np.array_equal(row, expected), k

    def test_nan_query_scores_nan_for_every_model(self):
        rng = np.random.default_rng(5)
        train = rng.normal(size=(30, 3))
        queries = rng.normal(size=(_CHUNK + 10, 3))
        bad = [0, _CHUNK - 1, _CHUNK, _CHUNK + 9]
        for i, column in zip(bad, (0, 2, slice(None), 1)):
            queries[i, column] = np.nan
        models = [
            *(knn_fit(train, k, variant) for variant in ("kappa", "gamma", "delta")
              for k in (1, 5, 30)),
            *(lof_fitter(train)(k) for k in (1, 5, 29)),
        ]
        # A NaN query has an empty LOF neighbourhood: 0 / 0.
        with np.errstate(invalid="ignore"):
            block = neighbour_scores(models, queries)
        assert np.isnan(block[:, bad]).all()
        assert np.isfinite(np.delete(block, bad, axis=1)).all()

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
        model = lof_fitter(train)(2)
        assert model.score(centroid)[0] == pytest.approx(1.0, abs=1e-9)

    def test_uniform_grid_hand_values(self):
        train = np.arange(10.0).reshape(-1, 1)
        model = lof_fitter(train)(2)
        # Midway between grid points the density matches the neighbors.
        assert model.score([4.5])[0] == pytest.approx(1.0, abs=1e-12)
        # Far outside, reachability is dominated by the query distance:
        # lrd_q = 2/183, neighbor densities are 2/3 each, ratio = 61.
        assert model.score([100.0])[0] == pytest.approx(61.0, abs=1e-9)

    def test_grid_interior_near_one(self):
        xx, yy = np.meshgrid(np.arange(5.0), np.arange(5.0))
        train = np.column_stack([xx.ravel(), yy.ravel()])
        model = lof_fitter(train)(4)
        assert model.score([2.0, 2.0])[0] == pytest.approx(1.0, abs=0.15)

    def test_outlier_grows_with_distance(self):
        train = two_clusters(seed=1)
        model = lof_fitter(train)(5)
        near = model.score([20.0, 20.0])[0]
        far = model.score([60.0, 60.0])[0]
        assert 1.5 < near < far

    def test_duplicate_training_rows_stay_finite(self):
        train = np.array([[0.0], [0.0], [1.0]])
        model = lof_fitter(train)(1)
        # A query on the duplicate pair is exactly as dense as it: LOF 1.
        assert model.score([0.0])[0] == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(model.score([5.0])[0])

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            lof_fitter(np.zeros((4, 2)))(2)  # all points identical
        train = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError):
            lof_fitter(train)(0)
        with pytest.raises(ValueError):
            lof_fitter(train)(3)  # k must stay below n

    @pytest.mark.parametrize("kind", ["duplicate-rows", "distinct"])
    def test_shared_fit_equals_own_k_fits(self, kind):
        rng = np.random.default_rng(3)
        grid = rng.integers(-2, 3, size=(14, 2)).astype(float)
        train = np.vstack([grid, grid[:5], grid[:2]]) if kind == "duplicate-rows" else (
            rng.normal(size=(21, 3))
        )
        n = len(train)
        fit = lof_fitter(train)
        ks = [n - 1, 1, 7, 2, n - 2, 5]
        shared = [fit(k) for k in ks]
        with pytest.raises(ValueError):
            fit(n)  # a k out of range fails alone
        for k, model in zip(ks, shared):
            own = lof_fitter(train)(k)
            kdist, lrd, lrd_cap = lof_fit_reference(train, k)
            assert np.array_equal(model.kdist, own.kdist) and np.array_equal(model.kdist, kdist)
            assert np.array_equal(model.lrd, own.lrd) and np.array_equal(model.lrd, lrd)
            assert model.lrd_cap == own.lrd_cap == lrd_cap
            assert model.k == k and np.array_equal(model.points, train)

    def test_batch_matches_single_queries(self):
        train = two_clusters(seed=5, n=20)
        queries = two_clusters(seed=6, n=4)
        model = lof_fitter(train)(3)
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
            lof_fitter(train)(5),
            knn_fit(train, k=3, variant="delta"),
            lof_fitter(train)(1),
            knn_fit(train, k=40, variant="gamma"),
            lof_fitter(train)(20),
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
        before = lof_fitter(train)(2).score(queries)
        after = lof_fitter(train @ rot.T + shift)(2).score(queries @ rot.T + shift)
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
        before = lof_fitter(train)(k).score(query)[0]
        after = lof_fitter(train @ rot.T + shift)(k).score(np.array(query) @ rot.T + shift)[0]
        assert before == pytest.approx(expected, rel=1e-12)
        assert after == pytest.approx(expected, rel=1e-6)

    @given(
        grid_cloud(),
        st.lists(st.tuples(st.sampled_from(("kappa", "gamma", "delta", "lof")),
                           st.integers(min_value=1, max_value=25)), min_size=1, max_size=8),
        st.lists(st.integers(min_value=-22, max_value=22), min_size=2, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_rows_equal_reference_and_own_scores(self, train, specs, coords):
        """Every row of a mixed kNN and LOF block is its model's own score.

        On the half-integer grid distances tie often, so neighbour order and
        the delta prefixes of one shared gather are checked where ties decide.
        """
        n = len(train)
        queries = np.array(coords[: len(coords) // 2 * 2], dtype=float).reshape(-1, 2) / 2
        models = [
            lof_fitter(train)(min(k, n - 1)) if kind == "lof" else knn_fit(train, min(k, n), kind)
            for kind, k in specs
        ]
        block = neighbour_scores(models, queries)
        for row, m in zip(block, models):
            assert np.array_equal(row, m.score(queries))
            if isinstance(m, detectors.KnnModel):
                assert np.array_equal(row, knn_reference(train, queries, m.k, m.variant))

    @given(point_cloud(max_points=15))
    @settings(max_examples=40, deadline=None)
    def test_scores_positive_and_finite(self, train):
        model = lof_fitter(train)(2)
        queries = np.array([[0.0, 0.0], [15.0, -3.0]])
        values = model.score(queries)
        assert np.all(np.isfinite(values)) and np.all(values > 0)


# ---------------------------------------------------------------------------
# Neighbour prefixes: every kNN and LOF neighbourhood from the K + 1 nearest
# ---------------------------------------------------------------------------


def served_rows(dist, top, tol):
    """Positions of the rows :func:`detectors._nearest` serves from their prefix."""
    rows = np.arange(len(dist))
    parts = detectors._nearest(dist, top, tol)[2]
    return {int(i) for part in parts if part.cols is not None for i in rows[part.index]}


def axis_star(dim=3, n_far=30, seed=0):
    """The origin, the 2 * dim unit points on the axes, and a far random cluster.

    The origin's six nearest tie at distance 1, and each axis point's
    second to fifth at sqrt(2), so with k = 2 their tie groups reach past a
    3-column prefix; the far points tie with nothing.
    """
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    far = np.random.default_rng(seed).normal(size=(n_far, dim)) + 10.0
    return np.vstack([np.zeros((1, dim)), axes, far])


def assert_block_equals_references(train, queries, lof_ks, knn_ks):
    """LOF fits equal their oracle, and every row of one kNN and LOF block its reference."""
    fit = lof_fitter(train, lof_ks)
    lofs = [fit(k) for k in lof_ks]
    for model in lofs:
        kdist, lrd, lrd_cap = lof_fit_reference(train, model.k)
        assert np.array_equal(model.kdist, kdist) and np.array_equal(model.lrd, lrd), model.k
        assert model.lrd_cap == lrd_cap
    models = [*lofs, *(knn_fit(train, k, v) for k in knn_ks for v in ("kappa", "gamma", "delta"))]
    # A NaN query has an empty LOF neighbourhood: 0 / 0.
    with np.errstate(invalid="ignore"):
        block = neighbour_scores(models, queries)
        for model, row in zip(models, block):
            if isinstance(model, detectors.LofModel):
                expected = lof_score_reference(model, queries)
            else:
                expected = knn_reference(train, queries, model.k, model.variant)
            assert np.array_equal(row, expected, equal_nan=True), (model, model.k)


class TestNeighbourPrefix:
    @pytest.mark.parametrize("angle, ks, knn_ks, tied", [
        (0.0, [1, 2], [1, 2], 0),
        # kNN order breaks a near-tie by index where knn_reference takes the
        # smaller distance, so the rotated star checks LOF alone.
        (0.3, [1], [], 1),
    ], ids=["exact-ties", "near-ties"])
    def test_tie_group_past_the_prefix_reads_the_whole_row(self, angle, ks, knn_ks, tied):
        """The origin's six nearest tie at distance 1, and a point midway to
        an axis point has two nearest that tie.  After a rotation the ties
        are near-ties: an ulp or two apart, each within the tolerance."""
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.array(
            [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
        )
        train = axis_star() @ rot.T + np.array([2.5, -1.0, 0.7])
        top = max(ks)
        dist = cdist(train, train)
        np.fill_diagonal(dist, np.inf)
        served = served_rows(dist, top, detectors._tie_tolerance(train, train))
        assert 0 not in served and set(range(7, len(train))) <= served
        queries = np.vstack([train[:1], (train[0] + train[1:7]) / 2, train, train[7:] + 0.1])
        served = served_rows(cdist(queries, train), top, detectors._tie_tolerance(queries, train))
        assert tied not in served and set(range(7, len(queries))) & served
        assert_block_equals_references(train, queries, lof_ks=ks, knn_ks=knn_ks)

    def test_nan_query(self):
        train = axis_star(dim=2, seed=1)
        queries = np.vstack([[[np.nan, 0.0]], train, [[np.nan, np.nan]], train + 0.25])
        assert_block_equals_references(train, queries, lof_ks=[2, 3], knn_ks=[1, 3])

    def test_queries_over_two_chunks(self):
        train = axis_star(seed=2)
        rng = np.random.default_rng(2)
        queries = np.vstack([rng.integers(-2, 3, size=(_CHUNK, 3)) / 2.0, [[0.0, 0.0, 0.0]]])
        assert len(queries) == _CHUNK + 1
        assert_block_equals_references(train, queries, lof_ks=[2, 4], knn_ks=[1, 2, 5])

    def test_fit_over_two_row_blocks(self):
        rng = np.random.default_rng(3)
        grid = rng.integers(-3, 4, size=(300, 3)).astype(float)
        train = np.vstack([grid, rng.normal(size=(300, 3))])
        assert 1 < detectors._BLOCK_ELEMENTS // len(train) < len(train)
        queries = np.vstack([grid[:50] + 0.5, rng.normal(size=(50, 3))])
        assert_block_equals_references(train, queries, lof_ks=[1, 10, 40], knn_ks=[3, 40])

    @pytest.mark.parametrize("n", [11, 12])
    def test_both_sides_of_the_wide_prefix_switch(self, n):
        """K = 5: a 6-column prefix is more than half of 11 columns, not of 12."""
        rng = np.random.default_rng(n)
        train = rng.normal(size=(n, 2))
        queries = rng.normal(size=(40, 2))
        tol = detectors._tie_tolerance(queries, train)
        assert served_rows(cdist(queries, train), 5, tol) == (set() if n == 11 else set(range(40)))
        assert_block_equals_references(train, queries, lof_ks=[1, 5], knn_ks=[2, 5])

    def test_knn_and_lof_scored_together(self):
        """Served and whole rows in one chunk, with kNN k above and below the LOF ks."""
        rng = np.random.default_rng(4)
        grid = rng.integers(-3, 4, size=(60, 2)).astype(float)
        train = np.vstack([grid, grid[:6], rng.normal(size=(40, 2))])
        queries = np.vstack([rng.integers(-8, 9, size=(200, 2)) / 2.0, rng.normal(size=(100, 2))])
        served = served_rows(cdist(queries, train), 30, detectors._tie_tolerance(queries, train))
        assert 0 < len(served) < len(queries)
        assert_block_equals_references(train, queries, lof_ks=[3, 20], knn_ks=[1, 7, 30])

    def test_chunks_of_a_large_training_set(self, monkeypatch):
        """Above 32 training points a chunk holds _BLOCK_ELEMENTS // n_train queries."""
        rng = np.random.default_rng(6)
        grid = rng.integers(-3, 4, size=(600, 2)).astype(float)
        train = np.vstack([grid, rng.normal(size=(600, 2))])
        step = detectors._BLOCK_ELEMENTS // len(train)
        assert step < _CHUNK
        queries = np.vstack([rng.integers(-8, 9, size=(step, 2)) / 2.0, rng.normal(size=(10, 2))])
        assert_block_equals_references(train, queries, lof_ks=[3, 20], knn_ks=[1, 20])
        sizes = []
        monkeypatch.setattr(detectors, "cdist", lambda a, b: sizes.append(len(a)) or cdist(a, b))
        knn_fit(train, 1, "kappa").score(queries)
        assert sizes == [step, 10]

    def test_fit_holds_no_square_distance_matrix(self):
        """One fit at n = 3000 allocates far less than one n x n float64 array."""
        train = np.random.default_rng(5).normal(size=(3000, 4))
        fit = lof_fitter(train)
        tracemalloc.start()
        try:
            fit(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 * 3000 * 8 / 4

    def test_scoring_holds_no_large_chunk(self):
        """Scoring 500 queries at n_train = 4000 allocates less than 16 MiB.

        One 500-row chunk would hold a 16 MiB distance matrix, and arrays as
        large beside it.
        """
        rng = np.random.default_rng(7)
        train = rng.normal(size=(4000, 4))
        fit = lof_fitter(train, (10, 20))
        models = [knn_fit(train, k, v) for k in (1, 5, 21) for v in detectors.KNN_VARIANTS]
        models += [fit(k) for k in (10, 20)]
        queries = rng.normal(size=(500, 4))
        tracemalloc.start()
        try:
            neighbour_scores(models, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# kNN tables from the sorted prefix
# ---------------------------------------------------------------------------

# Training points on a line.  Seen from the origin, rows 0 and 1 near-tie
# (1 + 2 ulp and 1, the farther one first, so the tie rule and a plain
# distance sort disagree), rows 2 and 3 tie exactly at 2, and rows 4 and 5
# near-tie at 3 (the nearer one first); the other distances lie far apart.
LINE = np.array([-(1.0 + 2**-51), 1.0, 2.0, -2.0, 3.0, -(3.0 + 2**-51),
                 5.0, -7.0, 11.0, -13.0, 17.0, -19.0, 23.0, -29.0])[:, None]
# The origin, a point whose second and third nearest near-tie (the farther
# one first), a point with an exact tie, two far points whose distances all
# lie apart, and a NaN row.
LINE_QUERIES = np.array([0.0, 0.5, 10.0, 100.0, np.nan, -100.0])[:, None]


def tabled_rows(monkeypatch):
    """The sizes of the row sets that reach :func:`detectors._neighbour_table`, as calls go."""
    sizes = []
    table = detectors._neighbour_table
    monkeypatch.setattr(detectors, "_neighbour_table",
                        lambda rows, *args: sizes.append(len(rows.dist)) or table(rows, *args))
    return sizes


class TestPrefixTable:
    @pytest.mark.parametrize("k", range(1, len(LINE) + 1))
    @pytest.mark.parametrize("extra", [0, 3])
    def test_prefix_table_equals_row_table(self, monkeypatch, k, extra):
        """Every row's table is :func:`_neighbour_table`'s over its whole row, bit for bit.

        The prefix is taken at K = k and at K = k + 3 (as a larger LOF or kNN
        k sets it), so both sides of the whole-row switch (2 (K + 1) > n)
        are met.  The far rows come from the prefix and the others from the
        row table, in one chunk; at k = n every row has the row table.
        """
        dist = cdist(LINE_QUERIES, LINE)
        tol = detectors._tie_tolerance(LINE_QUERIES, LINE)
        gaps = np.diff(np.sort(dist[0]))
        assert 0 < gaps[0] <= tol[0, 0] and gaps[1] > tol[0, 0] and gaps[2] == 0
        top = min(k + extra, len(LINE))
        near, cols, parts = detectors._nearest(dist, top, tol)
        bound = near[:, [k - 1]] + tol
        sizes = tabled_rows(monkeypatch)
        table, idx = detectors._knn_table(near, cols, parts, k, bound, tol)
        tabled = sum(sizes)
        rows = detectors._Rows(np.arange(len(dist)), dist, None, len(LINE))
        expected = detectors._neighbour_table(rows, k, bound, tol)
        assert np.array_equal(table, expected[0], equal_nan=True)
        assert np.array_equal(idx, expected[1])
        if k == len(LINE):
            assert tabled == len(LINE_QUERIES)
        else:
            assert 1 <= tabled <= len(LINE_QUERIES) - 2

    @pytest.mark.parametrize("lof_ks, knn_ks", [
        ([1, 3], [1, 2, 3, 4, 5, 6]),
        ([2, 6], [1, 5, 9, 13]),
        ([1, 13], [2, 14]),
        ([2, 5, 13], []),
    ], ids=["prefix", "whole-rows", "k-equals-n", "lof-only"])
    def test_scores_equal_references(self, lof_ks, knn_ks):
        """Ties below k, at k and k + 1 and past k + 1, a NaN row and far rows.

        The tie rule and ``knn_reference``'s stable distance sort agree
        where every near-tie lists the nearer point first: so rows 0 and 1
        swap places, the query at 0.5 is left out, and the other queries
        are real-valued.
        """
        train = LINE[[1, 0, *range(2, len(LINE))]]
        rng = np.random.default_rng(12)
        queries = np.vstack([LINE_QUERIES[[0, 2, 3, 4, 5]], rng.normal(scale=10.0, size=(30, 1))])
        assert_block_equals_references(train, queries, lof_ks=lof_ks, knn_ks=knn_ks)

    def test_gaussian_queries_never_reach_the_row_table(self, monkeypatch):
        """Real-valued distances are apart, so the sorted prefix serves every row.

        n = 72 in 2-D reads whole rows at K = 51, n = 480 in 8-D prefixes.
        Grid distances tie, so grid queries reach the row table.
        """
        sizes = tabled_rows(monkeypatch)
        rng = np.random.default_rng(11)
        for n, dim in ((72, 2), (480, 8)):
            train = rng.normal(size=(n, dim))
            models = [lof_fitter(train)(10),
                      *(knn_fit(train, k, v) for k in (1, 5, 51) for v in detectors.KNN_VARIANTS)]
            neighbour_scores(models, rng.uniform(-3.0, 3.0, size=(2000, dim)))
        assert sizes == []
        grid = rng.integers(-3, 4, size=(72, 2)).astype(float)
        queries = rng.integers(-8, 9, size=(300, 2)) / 2.0
        assert_block_equals_references(grid, queries, lof_ks=[10], knn_ks=[1, 5, 51])
        assert sizes


@st.composite
def grid_queries(draw, max_rows=20, dim=2):
    """Query rows on the half-integer grid of [-11, 11]^dim, some with a NaN coordinate."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    values = draw(st.lists(st.integers(min_value=-22, max_value=22),
                           min_size=rows * dim, max_size=rows * dim))
    queries = np.array(values, dtype=float).reshape(rows, dim) / 2
    nan = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    queries[np.array(nan), 0] = np.nan
    return queries


@given(grid_cloud(), grid_queries(), grid_queries(), st.integers(min_value=1, max_value=25),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_stacked_queries_score_as_apart(train, a, b, k, seed):
    """Scoring ``vstack([a, b])`` gives the bits of scoring ``a`` and ``b`` apart.

    A grid block scores its stacked test points (the shared normals, then
    each benchmark's anomalies) in one call per scorer, and its shared
    volume sample in a second call, so no row's score may depend on the rows
    beside it: not on which rows the sorted prefix serves, nor on the
    forest's tiles.
    """
    n = len(train)
    fit = lof_fitter(train)
    forest = iforest_fit(train, n_trees=7, subsample=16, seed=seed)
    scorers = [
        (neighbour_scores, [fit(min(k, n - 1)), fit(1), knn_fit(train, 1, "kappa"),
                            *(knn_fit(train, min(k, n), v) for v in detectors.KNN_VARIANTS)]),
        (forest_scores, [forest, forest.prefix(3)]),
    ]
    # A NaN query has an empty LOF neighbourhood: 0 / 0.
    with np.errstate(invalid="ignore"):
        for score, models in scorers:
            apart = np.hstack([score(models, a), score(models, b)])
            assert np.array_equal(score(models, np.vstack([a, b])), apart, equal_nan=True)


# ---------------------------------------------------------------------------
# Masked sums: a product where every value is finite, np.where elsewhere
# ---------------------------------------------------------------------------


def assert_sums_equal_where(values, member, width):
    """``_Rows.sums`` over whole rows and over ``width``-column prefixes, by bytes.

    Both must give ``np.where(member, values, 0.0).sum(axis=1)`` over the
    whole rows, and neither may write ``values`` unless handed it.  Each
    row's prefix holds its members, then its other columns in index order.
    """
    m, n = values.shape
    expected = np.where(member, values, 0.0).sum(axis=1).tobytes()
    cols = np.argsort(~member, axis=1, kind="stable")[:, :width]
    given_values = values.copy()
    whole = detectors._Rows(np.arange(m), values, None, n)
    assert whole.sums(member, given_values).tobytes() == expected
    assert given_values.tobytes() == values.tobytes()
    assert whole.sums(member, given_values, overwrite=True).tobytes() == expected
    prefix_values = np.take_along_axis(values, cols, axis=1)
    prefix_member = np.take_along_axis(member, cols, axis=1)
    prefix = detectors._Rows(np.arange(m), prefix_values, cols, n)
    given_values = prefix_values.copy()
    assert prefix.sums(prefix_member, given_values).tobytes() == expected
    assert given_values.tobytes() == prefix_values.tobytes()
    assert prefix.sums(prefix_member, given_values, overwrite=True).tobytes() == expected


# Rows of six columns a reachability or lrd sum meets: finite values with no
# member; a NaN row (a NaN query) with none; inf and NaN outside the members;
# members of value +0.0 (repeated training rows) beside positive ones; and
# finite values whose members sum to an inexact total.
SUM_ROWS = np.array([
    [1.5, 2.0, 0.25, 3.0, 7.0, 0.5],
    [np.nan] * 6,
    [0.1, np.inf, 0.2, np.nan, 0.3, np.inf],
    [0.0, 0.0, 2.5, 0.0, 1.0, 4.0],
    [0.1, 0.2, 0.3, 1e-300, 1e300, 3.0],
])
SUM_MEMBERS = np.array([
    [False] * 6,
    [False] * 6,
    [True, False, True, False, True, False],
    [True, True, False, True, True, False],
    [True, True, True, True, False, True],
])


class TestMaskedSums:
    def test_hand_rows_sum_as_where(self):
        """Every set of the hand rows: finite sets multiply, the others fall back to ``np.where``."""
        for size in range(1, len(SUM_ROWS) + 1):
            for rows in map(list, itertools.combinations(range(len(SUM_ROWS)), size)):
                for width in (max(1, SUM_MEMBERS[rows].sum(axis=1).max()), 6):
                    assert_sums_equal_where(SUM_ROWS[rows], SUM_MEMBERS[rows], width)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_rows_sum_as_where(self, data):
        m = data.draw(st.integers(min_value=1, max_value=6))
        n = data.draw(st.integers(min_value=2, max_value=9))
        value = st.floats(min_value=0.0, max_value=1e300).map(abs)
        if data.draw(st.booleans()):
            value = st.one_of(value, st.sampled_from([0.0, np.inf, np.nan]))
        values = np.array(data.draw(st.lists(value, min_size=m * n, max_size=m * n)))
        member = np.array(data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)))
        member = member.reshape(m, n)
        width = data.draw(st.integers(min_value=max(1, member.sum(axis=1).max()), max_value=n))
        assert_sums_equal_where(values.reshape(m, n), member, width)

    def test_scoring_writes_no_fitted_array(self):
        """Scoring leaves every model's ``kdist`` and ``lrd`` as fitted, byte for byte.

        K = 60 of 100 training points reads whole rows; each model alone
        (K = 3 or 20) reads prefixes, and the NaN query a whole row.  A later
        fit from the shared neighbourhoods gives the first fit's bytes.
        """
        rng = np.random.default_rng(8)
        grid = rng.integers(-3, 4, size=(60, 2)).astype(float)
        train = np.vstack([grid, rng.normal(size=(40, 2))])
        fit = lof_fitter(train, (3, 20, 60))
        lofs = [fit(k) for k in (3, 20, 60)]
        fitted = [(m.kdist.tobytes(), m.lrd.tobytes()) for m in lofs]
        queries = np.vstack([rng.normal(size=(200, 2)), grid[:20] + 0.5, [[np.nan, 0.0]]])
        with np.errstate(invalid="ignore"):
            neighbour_scores([*lofs, knn_fit(train, 7, "delta")], queries)
            for m in lofs:
                m.score(queries)
        assert [(m.kdist.tobytes(), m.lrd.tobytes()) for m in lofs] == fitted
        assert [(m.kdist.tobytes(), m.lrd.tobytes()) for m in map(fit, (3, 20, 60))] == fitted


@st.composite
def overflowing_case(draw):
    """A grid cloud and grid queries scaled by 2**506 to 2**512 (about 1e152 to 1e154).

    Grid points 1 apart lie 2**506 to 2**512 apart, so distances from some
    2**4 units up to about 1 unit overflow to inf, and others stay finite; a
    power of two scales every finite distance exactly, so grid ties stay
    exact.  Training sets of 3 to 25 points and ks up to 4 give whole-row
    fits at small n and prefix rows at larger n.  Queries also take NaN,
    inf and -inf coordinates.
    """
    scale = 2.0 ** draw(st.integers(min_value=506, max_value=512))
    train = draw(grid_cloud()) * scale
    n = len(train)
    dist = cdist(train, train)
    assume(((dist > 0) & np.isfinite(dist)).any())  # LOF needs one finite distance
    lof_ks = draw(st.lists(st.integers(min_value=1, max_value=min(4, n - 1)),
                           min_size=1, max_size=3, unique=True))
    knn_ks = draw(st.lists(st.integers(min_value=1, max_value=min(5, n)), max_size=3, unique=True))
    coord = st.one_of(st.integers(min_value=-22, max_value=22).map(lambda i: i / 2 * scale),
                      st.sampled_from([np.nan, np.inf, -np.inf]))
    coords = draw(st.lists(coord, min_size=2, max_size=40))
    queries = np.array(coords[: len(coords) // 2 * 2]).reshape(-1, 2)
    return train, queries, sorted(lof_ks), sorted(knn_ks)


@given(overflowing_case())
@settings(max_examples=80, deadline=None)
def test_overflowing_distances_equal_references(case):
    """Fits and a mixed block equal their references where distances overflow to inf.

    An inf outside a row's members (a whole-row fit's self-distance, an
    overflowing distance, an infinite query) makes a product of the masked
    row NaN where ``np.where`` gives 0, so the sums must fall back there.
    """
    train, queries, lof_ks, knn_ks = case
    with np.errstate(all="ignore"):
        assert_block_equals_references(train, queries, lof_ks, knn_ks)


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

    @pytest.mark.parametrize("n_trees", [1, 7, 200])
    def test_tiled_descent_equals_per_tree_walk(self, n_trees):
        """Tiles of one tree, of some trees and of all trees, with readouts inside them."""
        rng = np.random.default_rng(21)
        train = rng.normal(size=(40, 3))
        model = iforest_fit(train, n_trees=n_trees, subsample=16, seed=4)
        models = [model] + [model.prefix(t) for t in (1, 50, 100) if t < n_trees]
        per_tile = _DESCENT_TILE // n_trees
        for n in (1, per_tile - 1, per_tile + 1, _DESCENT_TILE + 5):
            queries = rng.normal(scale=2.0, size=(n, 3))
            if n > 1:
                queries[n // 2] = np.nan
            rows = forest_scores(models, queries)
            for row, m in zip(rows, models):
                assert np.array_equal(row, forest_reference(m, queries)), (n, m.n_trees)

    @pytest.mark.parametrize("trees_per_tile", [1, 5, 37], ids=["one-tree", "five-trees", "all-trees"])
    def test_every_prefix_is_read_off_at_its_tree_count(self, trees_per_tile, monkeypatch):
        """All 37 prefixes of a 37-tree forest, shuffled, two given twice, equal the walk.

        With tiles of 6 queries times ``trees_per_tile`` trees, 6 queries fill
        a tile exactly, 5 and 7 tile the trees one step more or less finely,
        and one query past the tile spills into a second chunk of one-tree
        tiles.  Five does not divide 37, so the last tile is short.
        """
        rng = np.random.default_rng(37)
        model = iforest_fit(rng.normal(size=(40, 3)), n_trees=37, subsample=16, seed=3)
        counts = [*range(1, 38), 5, 37]
        rng.shuffle(counts)
        models = [model.prefix(t) for t in counts]
        width = 6
        monkeypatch.setattr(detectors, "_DESCENT_TILE", trees_per_tile * width)
        for n in (width - 1, width, width + 1, trees_per_tile * width + 1):
            queries = rng.normal(scale=2.0, size=(n, 3))
            queries[0] = np.nan
            queries[1] = [np.inf, -np.inf, 0.0]
            queries[2] = -np.inf if n % 2 else np.inf
            rows = forest_scores(models, queries)
            for row, m in zip(rows, models):
                assert row.tobytes() == forest_reference(m, queries).tobytes(), (n, m.n_trees)

    @pytest.mark.parametrize("subsample", [2, 8], ids=["height-1", "height-3"])
    def test_root_level_equals_per_tree_walk(self, subsample):
        """The root level's row gather descends leaf roots and split roots as the walk does.

        Duplicate rows make some trees' subsamples all one row, and so a
        leaf root (feature -1, threshold -inf); the others split at the
        root.  A query on a root threshold goes right, as does a NaN query.
        """
        rng = np.random.default_rng(12)
        train = np.vstack([np.repeat(rng.normal(size=(1, 3)), 30, axis=0),
                           rng.normal(size=(2, 3))])
        model = iforest_fit(train, n_trees=40, subsample=subsample, seed=7)
        assert model.height_limit == math.ceil(math.log2(subsample))
        roots = model.feature[:, 0]
        assert (roots < 0).any() and (roots >= 0).any()
        queries = rng.normal(size=(60, 3))
        queries[:3] = train[[0, 30, 31]]
        queries[3] = np.nan
        # Queries exactly on the root threshold of each tree that splits there.
        on_threshold = queries[4:4 + int((roots >= 0).sum())]
        on_threshold[np.arange(len(on_threshold)), roots[roots >= 0]] = model.threshold[roots >= 0, 0]
        models = [model, model.prefix(1), model.prefix(13)]
        for row, m in zip(forest_scores(models, queries), models):
            assert np.array_equal(row, forest_reference(m, queries)), m.n_trees

    def test_growth_does_not_depend_on_batching(self, monkeypatch):
        train = np.random.default_rng(8).normal(size=(50, 3))
        n_trees = 10
        # psi < n, psi == n and psi clipped to n.
        for subsample in (32, 50, 256):
            psi = min(subsample, len(train))
            fits = []
            for per_batch in (1, 3, n_trees):
                monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", per_batch * psi * train.shape[1])
                fits.append(iforest_fit(train, n_trees=n_trees, subsample=subsample, seed=2))
            for fit in fits[1:]:
                for attr in ("feature", "threshold", "path"):
                    assert np.array_equal(getattr(fit, attr), getattr(fits[0], attr)), (
                        subsample, attr)

    @pytest.mark.parametrize("subsample", [32, 60, 256], ids=["psi<n", "psi=n", "psi-clipped"])
    @pytest.mark.parametrize(
        "columns", ["unique", "grid", "mixed", "duplicate-rows", "signed-zeros"]
    )
    def test_growth_equals_the_sorting_reference(self, monkeypatch, columns, subsample):
        """Trees grown from ids and the split column alone equal trees grown from every column.

        Grid columns repeat values, so they can be constant in a node of
        several points, and so can a column that holds 0.0 and -0.0: they
        are equal, though their bits differ.
        """
        rng = np.random.default_rng(10)
        train = rng.normal(size=(60, 3))
        if columns == "grid":
            train = rng.integers(0, 3, size=(60, 3)).astype(float)
        elif columns == "mixed":
            train[:, 1] = rng.integers(0, 2, size=60)
        elif columns == "duplicate-rows":
            train = np.repeat(train[:20], 3, axis=0)
        elif columns == "signed-zeros":
            # Rows 0 and 1 differ only in the bits of a zero, the only zeros
            # of column 0; far from the others, they soon share a node alone.
            train[:, 2] = rng.choice([0.0, -0.0, 1.0], size=60)
            train[:2] = [[0.0, 8.0, 1.0], [-0.0, 8.0, 1.0]]
        n_trees = 10
        expected = forest_growth_reference(train, n_trees, subsample, seed=5)
        psi = min(subsample, len(train))
        for per_batch in (1, 3, n_trees):
            monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", per_batch * psi * train.shape[1])
            model = iforest_fit(train, n_trees=n_trees, subsample=subsample, seed=5)
            for attr, want in zip(("feature", "threshold", "path"), expected):
                assert np.array_equal(getattr(model, attr), want), (per_batch, attr)

    @pytest.mark.parametrize("full", [False, True], ids=["psi<n", "psi=n"])
    @given(grid_cloud(max_points=30, dim=3), st.integers(min_value=2, max_value=29),
           st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=90, max_size=90),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_growth_equals_the_sorting_reference_property(self, full, points, subsample, zeros,
                                                         seed):
        """Growth equals the reference bit for bit, one tree per batch or all in one.

        Grid columns repeat values, and the drawn 0.0 and -0.0 entries are
        equal values with different bits.
        """
        for at, zero in zip(np.ndindex(points.shape), zeros):
            if zero is not None:
                points[at] = zero
        n, d = points.shape
        psi = n if full else min(subsample, n - 1)
        n_trees = 6
        expected = forest_growth_reference(points, n_trees, psi, seed)
        for per_batch in (1, n_trees):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(detectors, "_BLOCK_ELEMENTS", per_batch * max(psi * d, n))
                model = iforest_fit(points, n_trees=n_trees, subsample=psi, seed=seed)
            for attr, want in zip(("feature", "threshold", "path"), expected):
                assert getattr(model, attr).tobytes() == want.tobytes(), (per_batch, attr)

    def test_growth_batch_keys_stay_within_tile(self, monkeypatch):
        """A batch hashes one key per tree and training point, so n bounds it too."""
        tile, sizes = 4096, []
        splitmix = detectors._splitmix

        def recording(state, k):
            out = splitmix(state, k)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", tile)
        monkeypatch.setattr(detectors, "_splitmix", recording)
        # Bounded by psi * d = 32 alone, all 20 trees would share one batch of 20000 keys.
        train = np.random.default_rng(9).normal(size=(1000, 2))
        iforest_fit(train, n_trees=20, subsample=16, seed=3)
        assert 1000 <= max(sizes) <= tile

    @given(grid_cloud(max_points=30, dim=3), st.randoms(use_true_random=False),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_full_subsample_does_not_depend_on_row_order(self, points, rnd, seed):
        """With psi == n a tree grows on every point, and only their set matters."""
        order = list(range(len(points)))
        rnd.shuffle(order)
        a = iforest_fit(points, n_trees=8, subsample=len(points), seed=seed)
        b = iforest_fit(points[order], n_trees=8, subsample=len(points), seed=seed)
        for attr in ("feature", "threshold", "path"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr

    def test_counter_equals_python_integer_splitmix64(self):
        # The first outputs of splitmix64 seeded with 0, as published with
        # the generator (Vigna's splitmix64.c).
        assert [splitmix64(0, k) for k in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]
        top = 2**64 - 1
        triples = [(0, 0, 0), (top, 0, 0), (top, 5, 2**63 + 7), (1, top, top),
                   (2**63, 2**40, 123456789), (17, 199, 2 * 511 + 479)]
        seed, t, slot = (np.array(v, dtype=np.uint64) for v in zip(*triples))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = _splitmix(_splitmix(seed, t), slot)
        assert draws.dtype == np.uint64
        assert [int(v) for v in draws] == [forest_draw(*triple) for triple in triples]

    def test_rejects_seeds_outside_uint64(self):
        train = two_clusters(seed=6)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                iforest_fit(train, n_trees=3, subsample=8, seed=seed)
        with pytest.raises(TypeError):
            iforest_fit(train, n_trees=3, subsample=8, seed=1.5)
        iforest_fit(train, n_trees=3, subsample=8, seed=2**64 - 1)

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
            # Consecutive floats: a split value rounds onto a coordinate,
            # which must go right, as in the descent.
            (np.c_[1.0 + 2.0**-52 * np.arange(16), np.arange(16) % 3], 16),
        ],
        ids=["duplicate-rows", "psi-2", "grid-psi-23", "psi-11-of-11", "one-odd-point",
             "consecutive-floats"],
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

    Tree t's subsample follows the documented key rule
    (``_oracles.forest_subsample``).  Every reached node must be split exactly when it holds more
    than one point, has a non-constant dimension and lies above the height
    limit; a split threshold must lie within its dimension's bounds in the
    node; a leaf's path must be its depth plus c(size); the leaf sizes must
    sum to psi.  Scores must equal a point-by-point descent of the trees.
    """
    model = iforest_fit(points, n_trees=n_trees, subsample=subsample, seed=seed)
    psi, height_limit = min(subsample, len(points)), model.height_limit
    assert (model.subsample, height_limit) == (psi, math.ceil(math.log2(psi)))
    for t in range(n_trees):
        rows = forest_subsample(seed, t, len(points), psi, model.feature.shape[1])
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


# ---------------------------------------------------------------------------
# One element budget for query chunks, LOF fit blocks and growth batches
# ---------------------------------------------------------------------------


def test_element_budget_changes_no_value(monkeypatch):
    """Scores, LOF fits and trees are the same bits at any ``_BLOCK_ELEMENTS``.

    A budget of 3 elements scores one query per chunk, fits one training
    row per block and grows one tree per batch; an odd budget leaves a
    short last chunk, block and batch.  The training points tie exactly on
    a grid, repeat, and near-tie there (rows moved by 2**-50); the queries
    hold a NaN row, the training points and grid points.
    """
    rng = np.random.default_rng(12)
    grid = rng.integers(-3, 4, size=(30, 2)).astype(float)
    train = np.vstack([grid, grid[:4], grid[4:10] + [2**-50, 0.0]])
    queries = np.vstack([[[np.nan, 0.0]], train, rng.integers(-8, 9, size=(15, 2)) / 2.0,
                         rng.normal(size=(10, 2))])
    rows = []  # rows of each distance block and trees of each growth batch
    distances, grow = detectors.cdist, detectors._grow_batch
    monkeypatch.setattr(detectors, "cdist", lambda a, b: rows.append(len(a)) or distances(a, b))
    monkeypatch.setattr(detectors, "_grow_batch",
                        lambda *args: rows.append(len(args[-1][0])) or grow(*args))

    def fitted_and_scored():
        fit = lof_fitter(train, (2, 5))
        lofs = [fit(k) for k in (2, 5)]
        models = [knn_fit(train, k, v) for k in (1, 4) for v in detectors.KNN_VARIANTS]
        # k = 30: every row reads its whole row, as the prefix would hold
        # more than half the training points.
        whole = [knn_fit(train, 30, v) for v in detectors.KNN_VARIANTS]
        with np.errstate(invalid="ignore"):  # the NaN query's LOF sums are 0 / 0
            arrays = [neighbour_scores(models + lofs, queries), neighbour_scores(whole, queries)]
        arrays += [a for m in lofs for a in (m.kdist, m.lrd)]
        for subsample in (16, 256):  # psi < n and psi = n
            forest = iforest_fit(train, n_trees=10, subsample=subsample, seed=4)
            arrays += [forest.feature, forest.threshold, forest.path]
        return arrays

    default = detectors._BLOCK_ELEMENTS
    results = []
    for budget in (3, 7 * len(train) + 3, default):
        monkeypatch.setattr(detectors, "_BLOCK_ELEMENTS", budget)
        rows.clear()
        results.append(fitted_and_scored())
        if budget == 3:
            assert set(rows) == {1}
        else:
            assert max(rows) > 1
    assert np.isnan(results[-1][0][:, 0]).all()
    for arrays in results[:-1]:
        for got, want in zip(arrays, results[-1], strict=True):
            assert got.tobytes() == want.tobytes()
