import math

import numpy as np
import pytest

from dbcscore import (CrossingConfig, CrossingError, FailureRateExceeded,
                      LabeledDataset, dbc_global, dbc_local_batch,
                      find_crossing, global_adversarial_set, k_nearest,
                      local_adversarial_set, make_blobs, sample_pair,
                      sample_pairs, save_adversarial_set)
from dbcscore.boundary import CrossingFailure
from tests.conftest import make_zigzag_model


def sigmoid_along_segment(a, b, lam_true, slope=-12.0):
    """Classifier crossing 0.5 exactly at lam_true on the segment a-b.

    Along x(lam) = lam*a + (1-lam)*b the value is
    sigmoid(slope * (lam - lam_true)); slope < 0 gives f(a) < 0.5 <= f(b).
    Off-segment points project onto the segment direction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a - b
    denom = float(d @ d)

    def f(points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        lam = (points - b) @ d / denom
        return 1.0 / (1.0 + np.exp(-slope * (lam - lam_true)))

    return f


class CountingClassifier:
    """Wraps a decision function, counting evaluated rows."""

    def __init__(self, f):
        self.f = f
        self.rows = 0

    def __call__(self, points):
        points = np.atleast_2d(points)
        self.rows += points.shape[0]
        return self.f(points)


class TestFindCrossing:
    def test_analytic_crossing_within_epsilon(self):
        rng = np.random.default_rng(0)
        config = CrossingConfig(epsilon=1 / 256, method="bisection")
        for _ in range(200):
            dim = int(rng.integers(1, 8))
            a = rng.normal(size=dim)
            b = a + rng.normal(size=dim) * rng.uniform(0.5, 3.0)
            lam_true = float(rng.uniform(0.05, 0.95))
            f = sigmoid_along_segment(a, b, lam_true, slope=-rng.uniform(4, 40))
            crossing = find_crossing(f, a, b, config)
            assert abs(crossing.lam - lam_true) <= 1 / 256

    def test_symmetric_crossing_at_half(self):
        a = np.array([1.0, 1.0])
        b = np.array([-1.0, -1.0])
        f = sigmoid_along_segment(a, b, 0.5)
        crossing = find_crossing(f, a, b, CrossingConfig(epsilon=1 / 256))
        assert abs(crossing.lam - 0.5) <= 1 / 256

    def test_bisection_agrees_with_linear_scan_oracle(self):
        """The exhaustive linear scan is the oracle: on monotone-along-segment
        classifiers the two methods land within 2*epsilon."""
        rng = np.random.default_rng(1)
        eps = 1 / 256
        for _ in range(200):
            dim = int(rng.integers(1, 6))
            a = rng.normal(size=dim)
            b = a + rng.normal(size=dim)
            while np.allclose(a, b):
                b = a + rng.normal(size=dim)
            lam_true = float(rng.uniform(0.02, 0.98))
            f = sigmoid_along_segment(a, b, lam_true, slope=-rng.uniform(2, 60))
            bis = find_crossing(f, a, b, CrossingConfig(epsilon=eps, method="bisection"))
            lin = find_crossing(f, a, b, CrossingConfig(epsilon=eps, method="linear_scan"))
            assert abs(bis.lam - lin.lam) <= 2 * eps

    def test_same_side_raises(self):
        f = lambda pts: np.full(np.atleast_2d(pts).shape[0], 0.9)
        with pytest.raises(CrossingError, match="straddle"):
            find_crossing(f, np.zeros(2), np.ones(2))

    def test_identical_endpoints_raise(self):
        f = sigmoid_along_segment(np.zeros(2), np.ones(2), 0.5)
        with pytest.raises(CrossingError, match="identical"):
            find_crossing(f, np.ones(2), np.ones(2))

    def test_point_on_segment_exactly(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        f = sigmoid_along_segment(a, b, 0.637)
        crossing = find_crossing(f, a, b)
        np.testing.assert_array_equal(
            crossing.point, crossing.lam * a + (1.0 - crossing.lam) * b)
        assert 0.0 <= crossing.lam <= 1.0

    def test_bracket_certificate(self):
        """Re-evaluating f at the bracket ends verifies the certificate."""
        rng = np.random.default_rng(3)
        eps = 1 / 256
        for _ in range(50):
            a = rng.normal(size=4)
            b = a + rng.normal(size=4)
            f = sigmoid_along_segment(a, b, float(rng.uniform(0.1, 0.9)))
            c = find_crossing(f, a, b, CrossingConfig(epsilon=eps))
            assert c.lam_lo <= c.lam <= c.lam_hi
            assert c.lam_hi - c.lam_lo <= eps
            g_lo = float(f((c.lam_lo * a + (1 - c.lam_lo) * b)[None, :])[0]) - 0.5
            g_hi = float(f((c.lam_hi * a + (1 - c.lam_hi) * b)[None, :])[0]) - 0.5
            assert g_lo * g_hi <= 0.0

    def test_bisection_evaluation_budget(self):
        a, b = np.array([1.0]), np.array([0.0])
        for eps in (1 / 256, 1 / 100, 1 / 1024):
            counter = CountingClassifier(sigmoid_along_segment(a, b, 0.41))
            find_crossing(counter, a, b, CrossingConfig(epsilon=eps))
            assert counter.rows <= math.ceil(math.log2(1 / eps)) + 2

    def test_linear_scan_evaluation_count(self):
        a, b = np.array([1.0]), np.array([0.0])
        counter = CountingClassifier(sigmoid_along_segment(a, b, 0.41))
        find_crossing(counter, a, b, CrossingConfig(epsilon=1 / 256, method="linear_scan"))
        assert counter.rows == 257

    def test_exact_hit_accepted_immediately(self):
        # crossing at lam = 0.5 exactly, hit on the first midpoint
        a, b = np.array([1.0]), np.array([0.0])

        def f(points):
            lam = np.atleast_2d(points)[:, 0]
            return np.clip(0.5 + (0.5 - lam), 0.0, 1.0)

        counter = CountingClassifier(f)
        c = find_crossing(counter, a, b, CrossingConfig(epsilon=1 / 1024))
        assert c.lam == 0.5
        assert c.f_value == 0.5
        assert c.lam_lo == c.lam_hi == 0.5
        assert counter.rows == 3  # two endpoints plus the single midpoint

    def test_tolerance_on_f_early_exit(self):
        a, b = np.array([1.0]), np.array([0.0])
        f = sigmoid_along_segment(a, b, 0.3752917, slope=-4.0)
        loose = CountingClassifier(f)
        find_crossing(loose, a, b, CrossingConfig(epsilon=1 / 2 ** 20, tolerance_on_f=0.05))
        tight = CountingClassifier(f)
        find_crossing(tight, a, b, CrossingConfig(epsilon=1 / 2 ** 20))
        assert loose.rows < tight.rows

    def test_swapped_endpoints_land_nearby(self):
        """With a single crossing, swapping roles (and re-orienting) moves
        the crossing by at most 2*eps along the segment."""
        rng = np.random.default_rng(4)
        eps = 1 / 256
        for _ in range(30):
            a = rng.normal(size=3)
            b = a + rng.normal(size=3)
            lam_true = float(rng.uniform(0.1, 0.9))
            f = sigmoid_along_segment(a, b, lam_true)
            c1 = find_crossing(f, a, b, CrossingConfig(epsilon=eps))

            def f_swapped(points, f=f):
                return 1.0 - np.asarray(f(points))

            c2 = find_crossing(f_swapped, b, a, CrossingConfig(epsilon=eps))
            # c2 parameterizes from the other end: lam' ~ 1 - lam
            dist = np.linalg.norm(c1.point - c2.point)
            assert dist <= 2 * eps * np.linalg.norm(b - a) + 1e-12


class TestGlobalSet:
    def test_reps_columns_in_order(self, blobs_2d, linear_model_2d):
        aset = global_adversarial_set(linear_model_2d, blobs_2d, reps=50, seed=5)
        assert aset.points.shape == (2, 50)
        assert aset.kind == "global"
        assert [p.pair_index for p in aset.provenance] == list(range(50))

    def test_linear_model_collinear_columns(self, blobs_2d, linear_model_2d):
        config = CrossingConfig(epsilon=1e-9)
        aset = global_adversarial_set(linear_model_2d, blobs_2d, reps=100,
                                      config=config, seed=6)
        # boundary is x0 = 0: all crossings sit on that line
        assert np.abs(aset.points[0]).max() <= 1e-7

    def test_deterministic_for_seed(self, blobs_2d, linear_model_2d):
        a1 = global_adversarial_set(linear_model_2d, blobs_2d, reps=40, seed=9)
        a2 = global_adversarial_set(linear_model_2d, blobs_2d, reps=40, seed=9)
        np.testing.assert_array_equal(a1.points, a2.points)

    def test_failure_rate_aborts(self, blobs_2d):
        f = lambda pts: np.full(np.atleast_2d(pts).shape[0], 0.9)
        with pytest.raises(FailureRateExceeded):
            global_adversarial_set(f, blobs_2d, reps=20, seed=0)

    def test_every_point_on_its_segment(self, blobs_2d, linear_model_2d):
        aset = global_adversarial_set(linear_model_2d, blobs_2d, reps=30, seed=2)
        for col, rec in zip(aset.points.T, aset.provenance):
            a = blobs_2d.features[rec.index_a]
            b = blobs_2d.features[rec.index_b]
            assert 0.0 <= rec.lam <= 1.0
            np.testing.assert_array_equal(col, rec.lam * a + (1 - rec.lam) * b)


class TestLocalSet:
    def test_k30_gives_31_columns(self):
        ds = make_blobs(per_class=60, dimension=30, center_distance=8.0,
                        spread=1.0, seed=12)
        w = np.zeros((1, 30))
        w[0, 0] = 3.0
        from dbcscore import MlpModel
        model = MlpModel([30, 1], [w], [np.array([0.0])])
        pair = sample_pair(ds, 0, seed=3)
        aset = local_adversarial_set(model, ds, pair, k=30)
        assert aset.points.shape == (30, 31)
        assert aset.kind == "local"

    def test_k3_gives_4_crossings(self, blobs_2d, linear_model_2d):
        pair = sample_pair(blobs_2d, 0, seed=1)
        aset = local_adversarial_set(linear_model_2d, blobs_2d, pair, k=3)
        assert aset.points.shape == (2, 4)

    def test_hub_is_first_neighbor(self, blobs_2d, linear_model_2d):
        pair = sample_pair(blobs_2d, 4, seed=8)
        aset = local_adversarial_set(linear_model_2d, blobs_2d, pair, k=3)
        assert aset.provenance[0].index_b == pair.index_b

    def test_linear_model_collinear(self, blobs_2d, linear_model_2d):
        pair = sample_pair(blobs_2d, 2, seed=2)
        aset = local_adversarial_set(linear_model_2d, blobs_2d, pair, k=5,
                                     config=CrossingConfig(epsilon=1e-9))
        assert np.abs(aset.points[0]).max() <= 1e-7

    def test_expand_around_a(self, blobs_2d, linear_model_2d):
        pair = sample_pair(blobs_2d, 2, seed=2)
        aset = local_adversarial_set(linear_model_2d, blobs_2d, pair, k=3,
                                     expand_around="a")
        assert aset.points.shape == (2, 4)
        # provenance orients by f-value: the class-0 hub lands on the a side
        assert aset.provenance[0].index_a == pair.index_a

    def test_insufficient_population(self):
        features = np.vstack([np.zeros((5, 2)), np.ones((3, 2)) + np.arange(3)[:, None]])
        ds = LabeledDataset(features, np.array([0] * 5 + [1] * 3))
        f = make_zigzag_model()
        pair = sample_pair(ds, 0, seed=0)
        with pytest.raises(Exception, match="exceeds|population"):
            local_adversarial_set(f, ds, pair, k=3)


def flip_row(features, row):
    """sigmoid(4 x0), except that the given dataset row sits on the other
    side of 0.5."""
    target = features[row]

    def f(points):
        points = np.atleast_2d(points)
        p = 1.0 / (1.0 + np.exp(-4.0 * points[:, 0]))
        return np.where((points == target).all(axis=1), 1.0 - p, p)

    return f


@pytest.mark.parametrize("kind", ["global", "local"])
def test_same_side_failure_shape(blobs_2d, kind):
    """A same-side segment becomes the same CrossingFailure in either set:
    its position among the segments, its ends as listed, one reason text."""
    if kind == "global":
        pairs = sample_pairs(blobs_2d, 60, seed=3)
        ends = [(p.index_a, p.index_b) for p in pairs]
        f = flip_row(blobs_2d.features, pairs[7].index_b)
        aset = global_adversarial_set(f, blobs_2d, reps=60, seed=3)
    else:
        pair = sample_pair(blobs_2d, 0, seed=3)
        neighbors = k_nearest(blobs_2d, pair.b, class_filter=1, k=31)
        assert neighbors[0] == pair.index_b
        ends = [(pair.index_a, row) for row in neighbors]
        f = flip_row(blobs_2d.features, neighbors[7])
        aset = local_adversarial_set(f, blobs_2d, pair, k=30)
    expected = []
    for i, (ia, ib) in enumerate(ends):
        fa, fb = f(blobs_2d.features[[ia, ib]])
        if (fa < 0.5) == (fb < 0.5):
            expected.append(CrossingFailure(
                pair_index=i, index_a=ia, index_b=ib,
                reason=f"both endpoints on the same side of 0.5 (f={fa:.6g} and f={fb:.6g})"))
    assert 7 in [x.pair_index for x in expected]
    assert aset.failures == tuple(expected)
    failed = {x.pair_index for x in expected}
    assert [p.pair_index for p in aset.provenance] == \
           [i for i in range(len(ends)) if i not in failed]


def nan_band(points):
    """sigmoid(4 x0), but NaN where |x0| < 1."""
    x0 = np.atleast_2d(points)[:, 0]
    return np.where(np.abs(x0) < 1.0, np.nan, 1.0 / (1.0 + np.exp(-4.0 * x0)))


def infinite_left_end(points):
    """sigmoid(4 x0), but -inf where x0 < -4."""
    x0 = np.atleast_2d(points)[:, 0]
    return np.where(x0 < -4.0, -np.inf, 1.0 / (1.0 + np.exp(-4.0 * x0)))


class TestNonFiniteDecisionValues:
    @pytest.mark.parametrize("f", [nan_band, infinite_left_end])
    @pytest.mark.parametrize("method", ["bisection", "linear_scan"])
    def test_find_crossing_raises(self, f, method):
        with pytest.raises(CrossingError, match="non-finite"):
            find_crossing(f, np.array([-5.0, 0.0]), np.array([5.0, 1.0]),
                          CrossingConfig(method=method))

    def test_global_score_fails(self, blobs_2d):
        with pytest.raises(FailureRateExceeded, match="non-finite"):
            dbc_global(nan_band, blobs_2d, reps=400, seed=42)

    def test_local_batch_fails(self, blobs_2d):
        with pytest.raises(FailureRateExceeded, match="non-finite"):
            dbc_local_batch(nan_band, blobs_2d, reps=50, k=8)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_endpoint_is_a_failure(self, blobs_2d, linear_model_2d, value):
        pairs = sample_pairs(blobs_2d, 40, seed=1)
        bad = blobs_2d.features[pairs[5].index_a]

        def f(points):
            points = np.atleast_2d(points)
            values = linear_model_2d(points)
            return np.where((points == bad).all(axis=1), value, values)

        aset = global_adversarial_set(f, blobs_2d, reps=40, seed=1)
        assert 5 in [x.pair_index for x in aset.failures]
        assert all(x.reason.startswith("non-finite decision value at an endpoint")
                   for x in aset.failures)
        assert np.isfinite([p.f_value for p in aset.provenance]).all()


class TestExport:
    def test_csv_and_sidecar(self, tmp_path, blobs_2d, linear_model_2d):
        aset = global_adversarial_set(linear_model_2d, blobs_2d, reps=10, seed=3)
        out = tmp_path / "adv.csv"
        sidecar = save_adversarial_set(aset, out)
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 11  # header + one row per example
        side_rows = sidecar.read_text().strip().splitlines()
        assert side_rows[0] == "pair_index,index_a,index_b,lam,f_value"
        assert len(side_rows) == 11
