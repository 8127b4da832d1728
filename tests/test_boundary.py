import math

import numpy as np
import pytest

from dbcscore import (CrossingConfig, CrossingError, FailureRateExceeded,
                      LabeledDataset, MlpModel, TrainConfig, dbc_global,
                      dbc_local_batch, eigen_spectrum, find_crossing,
                      global_adversarial_set, k_nearest, local_adversarial_set,
                      make_blobs, normalized_entropy, sample_pair, sample_pairs,
                      save_adversarial_set, train)
from dbcscore import boundary
from dbcscore import model as model_module
from dbcscore.boundary import CrossingFailure, _crossing_kernel
from dbcscore.dataset import ClassPair
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


def linear_scan_oracle(f, A, B, eps):
    """The linear scan one segment at a time: every grid point of a
    segment in one f call, the grid point closest to 0.5, and the
    sign-change bracket nearest to it (the lower on a tie)."""
    grid = np.minimum(eps * np.arange(math.floor(1.0 / eps) + 1), 1.0)
    out = np.empty((4, len(A)))
    for i in range(len(A)):
        points = grid[:, None] * A[i] + (1.0 - grid)[:, None] * B[i]
        fv = np.asarray(f(points), dtype=np.float64)
        g = fv - 0.5
        best = int(np.argmin(np.abs(g)))
        straddle = np.flatnonzero(g[:-1] * g[1:] <= 0.0)
        if straddle.size:
            j = straddle[np.argmin(np.abs(straddle - best))]
            lo, hi = grid[j], grid[j + 1]
        else:
            lo, hi = grid[-1], 1.0
        out[:, i] = grid[best], fv[best], lo, hi
    return tuple(out)


def zigzag_segments(count, seed):
    """Segments across the zigzag boundary, many crossing it several
    times, oriented so that f(A) < 0.5 <= f(B)."""
    f = make_zigzag_model()
    rng = np.random.default_rng(seed)
    P = rng.uniform([-4.0, -10.0], [4.0, 10.0], size=(count, 2))
    Q = rng.uniform([-4.0, -10.0], [4.0, 10.0], size=(count, 2))
    swap = (f(P) >= 0.5)[:, None]
    A, B = np.where(swap, Q, P), np.where(swap, P, Q)
    keep = (f(A) < 0.5) & (f(B) >= 0.5)
    return f, A[keep], B[keep]


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
        """Re-evaluating f at the bracket ends verifies the certificate,
        under both methods."""
        rng = np.random.default_rng(3)
        eps = 1 / 256
        for _ in range(50):
            a = rng.normal(size=4)
            b = a + rng.normal(size=4)
            f = sigmoid_along_segment(a, b, float(rng.uniform(0.1, 0.9)))
            for method in ("bisection", "linear_scan"):
                c = find_crossing(f, a, b, CrossingConfig(epsilon=eps, method=method))
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
        assert counter.rows == 2 + 257  # the two ends, then the grid

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

    def test_exact_hit_mid_run_keeps_the_other_segments_exact(self):
        """A segment that hits f == 0.5 at the third midpoint leaves the
        batch, so later steps run on the remaining segments alone; every
        segment still equals its lone find_crossing."""
        t = np.array([0.3, 0.375, 0.71, 0.123])
        A = np.column_stack([np.ones(4), t])
        B = np.column_stack([np.zeros(4), t])

        def f(points):
            points = np.atleast_2d(points)
            return np.clip(0.5 + points[:, 1] - points[:, 0], 0.0, 1.0)

        calls = []

        def counted(points):
            calls.append(len(points))
            return f(points)

        config = CrossingConfig(epsilon=1 / 1024)
        lam, fval, lo, hi = _crossing_kernel(counted, A, B, config)
        assert calls == [4, 4, 4] + [3] * 7
        assert lam[1] == lo[1] == hi[1] == 0.375 and fval[1] == 0.5
        for i in range(4):
            c = find_crossing(f, A[i], B[i], config)
            assert (lam[i], fval[i], lo[i], hi[i]) == (c.lam, c.f_value, c.lam_lo, c.lam_hi)

    @pytest.mark.parametrize("eps", [1 / 256, 0.15, 1 / 3])
    @pytest.mark.parametrize("budget", [7, 600, 5000, boundary.ROW_BUDGET])
    def test_linear_scan_matches_per_segment_oracle(self, monkeypatch, eps, budget):
        """The chunked scan equals the per-segment loop bit for bit in all
        four outputs, with pieces of one segment's grid (3 rows at budget
        7, the last piece shorter), chunks of one segment, of several, and
        of the whole batch; the zigzag crosses 0.5 several times on most
        segments, and 1/0.15 is not integral."""
        monkeypatch.setattr(boundary, "ROW_BUDGET", budget)
        f, A, B = zigzag_segments(400, seed=5)
        got = _crossing_kernel(f, A, B, CrossingConfig(epsilon=eps, method="linear_scan"))
        want = linear_scan_oracle(f, A, B, eps)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_linear_scan_batch_equals_lone_find_crossing(self, monkeypatch):
        monkeypatch.setattr(boundary, "ROW_BUDGET", 5000)
        f, A, B = zigzag_segments(60, seed=6)
        config = CrossingConfig(epsilon=0.15, method="linear_scan")
        lam, fval, lo, hi = _crossing_kernel(f, A, B, config)
        for i in range(len(A)):
            c = find_crossing(f, A[i], B[i], config)
            assert (lam[i], fval[i], lo[i], hi[i]) == (c.lam, c.f_value, c.lam_lo, c.lam_hi)

    @pytest.mark.parametrize("budget", [256, boundary.ROW_BUDGET])
    def test_linear_scan_rows_per_call_are_bounded(self, blobs_2d, linear_model_2d,
                                                   monkeypatch, budget):
        """No f call of a many-segment linear-scan global set gets more
        than max(1, ROW_BUDGET // d) rows, however many segments the set
        has, even where one segment's grid is larger (257 rows against
        128 at budget 256). A pair drawn twice is one segment, searched
        once."""
        monkeypatch.setattr(boundary, "ROW_BUDGET", budget)
        calls = []

        def f(points):
            calls.append(len(points))
            return linear_model_2d(points)

        reps = 1200
        aset = global_adversarial_set(f, blobs_2d, reps=reps, seed=4,
                                      config=CrossingConfig(method="linear_scan"))
        assert aset.sample_count == reps
        scan = calls[1:]  # the first call evaluates the dataset rows
        distinct = {(p.index_a, p.index_b) for p in sample_pairs(blobs_2d, reps, 4)}
        assert len(distinct) < reps and sum(scan) == len(distinct) * 257
        assert max(scan) <= max(1, budget // blobs_2d.dimension)

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
        # the message names the k asked for, not the k+1 rows it needs
        message = ("k=3 needs k+1=4 class-1 rows per local set, which exceeds "
                   "the class-1 population of 3")
        with pytest.raises(Exception, match="exceeds|population") as info:
            local_adversarial_set(f, ds, pair, k=3)
        assert message in str(info.value)
        with pytest.raises(Exception, match="exceeds|population") as info:
            dbc_local_batch(f, ds, reps=4, k=3)
        assert message in str(info.value)


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
        for method in ("bisection", "linear_scan"):
            with pytest.raises(FailureRateExceeded, match="non-finite"):
                dbc_global(nan_band, blobs_2d, reps=400, seed=42,
                           config=CrossingConfig(method=method))

    def test_local_batch_fails(self, blobs_2d):
        for method in ("bisection", "linear_scan"):
            with pytest.raises(FailureRateExceeded, match="non-finite"):
                dbc_local_batch(nan_band, blobs_2d, reps=50, k=8,
                                config=CrossingConfig(method=method))

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

    @pytest.mark.parametrize("method", ["bisection", "linear_scan"])
    def test_abort_counts_both_kinds_first_by_position(self, method):
        """The anchor (-5, 0) is crossed toward the ten class-1 rows
        (5, y), y = 0, 0.1, ..., 0.9, in that order. f is sigmoid(4 x0),
        but NaN at the three ends with y >= 0.7 and at (0, 0.1), the
        crossing of the segment at position 2. One failure pass counts all
        four and names the crossing at position 2 first; counting the ends
        alone would abort on 3 and name position 7."""
        ys = np.arange(10) / 10.0
        X = np.vstack([[-5.0, 0.0], np.column_stack([np.full(10, 5.0), ys])])
        ds = LabeledDataset(X, np.array([0] + [1] * 10))

        def f(points):
            x0, x1 = np.atleast_2d(points).T
            hole = (x1 >= 0.65) | ((x0 == 0.0) & (np.abs(x1 - 0.1) < 1e-9))
            return np.where(hole, np.nan, 1.0 / (1.0 + np.exp(-4.0 * x0)))

        pair = ClassPair(a=X[0], b=X[1], index_a=0, index_b=1)
        with pytest.raises(FailureRateExceeded) as info:
            local_adversarial_set(f, ds, pair, k=9, config=CrossingConfig(method=method))
        message = str(info.value)
        assert message.startswith("4 of 10 crossings failed"), message
        assert "First failure: non-finite decision value at lam=0.5 (" in message


def sigmoid_x0(points):
    return 1.0 / (1.0 + np.exp(-4.0 * np.atleast_2d(points)[:, 0]))


# callables that break f's output contract, with the ValueError each raises
BROKEN_OUTPUTS = {
    "column": (lambda X: sigmoid_x0(X)[:, None],
               r"returned shape \(\d+, 1\) for \d+ rows; expected \(\d+,\)"),
    "doubled": (lambda X: 2.0 * sigmoid_x0(X), r"outside \[0, 1\]"),
    # in range at every dataset row, 1.3 where x0 = 0: only the search sees it
    "bump": (lambda X: sigmoid_x0(X) + 0.8 * np.exp(-(np.atleast_2d(X)[:, 0] / 0.2) ** 2),
             r"outside \[0, 1\]"),
}


class TestDecisionFunctionContract:
    @pytest.mark.parametrize("name", BROKEN_OUTPUTS)
    @pytest.mark.parametrize("method", ["bisection", "linear_scan"])
    def test_broken_output_raises(self, blobs_2d, name, method):
        """A result not of shape (n,) or a finite value outside [0, 1]
        raises ValueError on a global set, a local batch and a lone
        crossing; NaN and +-inf stay recorded failures (the tests of
        TestNonFiniteDecisionValues)."""
        f, message = BROKEN_OUTPUTS[name]
        config = CrossingConfig(method=method)
        for build in (lambda: global_adversarial_set(f, blobs_2d, reps=20, config=config),
                      lambda: dbc_local_batch(f, blobs_2d, reps=10, k=4, config=config),
                      lambda: find_crossing(f, np.array([-5.0, 0.0]), np.array([5.0, 0.0]),
                                            config)):
            with pytest.raises(ValueError, match=message) as info:
                build()
            assert info.type is ValueError


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


def trained_nets():
    """8-D blobs and trained nets whose first hidden layer is narrower
    than the input, with one and two hidden layers, relu and tanh."""
    ds = make_blobs(per_class=60, dimension=8, center_distance=6.0, spread=1.0, seed=3)
    nets = {}
    for sizes in ([8, 4, 1], [8, 5, 3, 1]):
        for activation in ("relu", "tanh"):
            nets[f"{sizes}-{activation}"], _ = train(
                ds, sizes, TrainConfig(epochs=30, learning_rate=0.01, seed=1), activation)
    return ds, nets


def hand_net_2d():
    """[2, 1, 1] tanh net with h1 = 1 < d = 2, crossing 0.5 at x0 = 0."""
    return MlpModel([2, 1, 1], [np.array([[4.0, 0.0]]), np.array([[3.0]])],
                    [np.array([0.0]), np.array([0.0])], "tanh")


def within_ulps(x, y, ulps=32):
    """The two searches round W1(lam*a + (1-lam)*b) differently; on these
    nets f moved by 14 ulps at most."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return bool((np.abs(x - y) <= ulps * np.spacing(np.maximum(np.abs(x), np.abs(y)))).all())


class TestFirstLayerSpace:
    """An MLP with h1 < d is searched on its first layer's products; the
    input-space search of the same model is the oracle, reached through a
    plain callable."""

    def test_same_lam_as_input_space(self):
        ds, nets = trained_nets()
        config = CrossingConfig(epsilon=1 / 1024)
        for name, net in nets.items():
            plain = lambda X, net=net: net(X)  # noqa: E731
            assert dbc_local_batch(net, ds, reps=40, k=6, config=config, seed=2) == \
                dbc_local_batch(plain, ds, reps=40, k=6, config=config, seed=2), name
            got = global_adversarial_set(net, ds, reps=80, config=config, seed=2)
            want = global_adversarial_set(plain, ds, reps=80, config=config, seed=2)
            np.testing.assert_array_equal(got.points, want.points)
            assert [(p.pair_index, p.index_a, p.index_b, p.lam) for p in got.provenance] == \
                   [(p.pair_index, p.index_a, p.index_b, p.lam) for p in want.provenance]
            assert got.failures == want.failures
            assert within_ulps([p.f_value for p in got.provenance],
                               [p.f_value for p in want.provenance]), name
            for rec in got.provenance[:10]:
                a, b = ds.features[rec.index_a], ds.features[rec.index_b]
                c, d = find_crossing(net, a, b, config), find_crossing(plain, a, b, config)
                assert (c.lam, c.lam_lo, c.lam_hi) == (d.lam, d.lam_lo, d.lam_hi)
                np.testing.assert_array_equal(c.point, d.point)
                assert within_ulps(c.f_value, d.f_value), name

    def test_batch_equals_lone_searches(self):
        ds, nets = trained_nets()
        config = CrossingConfig(epsilon=1 / 1024)
        for name, net in nets.items():
            scores = dbc_local_batch(net, ds, reps=40, k=6, config=config, seed=5)
            for s in scores[::4]:
                aset = local_adversarial_set(net, ds, sample_pair(ds, s.pair_index, 5), 6,
                                             config)
                expected = normalized_entropy(eigen_spectrum(aset))
                assert (s.sample_count, s.value) == (aset.sample_count, expected.value), name
            aset = global_adversarial_set(net, ds, reps=40, config=config, seed=5)
            for column, rec in zip(aset.points.T, aset.provenance):
                c = find_crossing(net, ds.features[rec.index_a], ds.features[rec.index_b],
                                  config)
                assert c.lam == rec.lam, name
                np.testing.assert_array_equal(c.point, column)
                assert within_ulps(c.f_value, rec.f_value), name

    def test_kernel_rows_are_h1_wide_only_for_narrow_mlps(self, monkeypatch, blobs_2d,
                                                          linear_model_2d):
        """A spy on the kernel's f records the width of every row it gets,
        and whether the kernel got the callable itself or the net's tail."""
        seen = []
        kernel = boundary._crossing_kernel

        def spying_kernel(f, A, B, config):
            def spy(X):
                seen.append((np.shape(X)[1], f is searched))
                return f(X)
            return kernel(spy, A, B, config)

        monkeypatch.setattr(boundary, "_crossing_kernel", spying_kernel)
        ds, nets = trained_nets()
        square, wide = (train(ds, sizes, TrainConfig(epochs=30, learning_rate=0.01,
                                                      seed=1))[0]
                        for sizes in ([8, 8, 1], [8, 12, 1]))
        narrow = nets["[8, 5, 3, 1]-relu"]
        # (callable, data, width of the kernel's rows, searched as given)
        cases = [(narrow, ds, 5, False), (square, ds, 8, True), (wide, ds, 8, True),
                 (lambda X: narrow(X), ds, 8, True), (make_zigzag_model(), blobs_2d, 2, True),
                 (linear_model_2d, blobs_2d, 2, True), (hand_net_2d(), blobs_2d, 1, False)]
        for searched, data, width, as_given in cases:
            for method in ("bisection", "linear_scan"):
                config = CrossingConfig(method=method)
                seen.clear()
                dbc_local_batch(searched, data, reps=6, k=3, config=config, seed=1)
                aset = global_adversarial_set(searched, data, reps=6, config=config, seed=1)
                local_adversarial_set(searched, data, sample_pair(data, 0, 1), 3, config)
                rec = aset.provenance[0]
                find_crossing(searched, data.features[rec.index_a],
                              data.features[rec.index_b], config)
                assert seen and set(seen) == {(width, as_given)}, (width, method)

    def test_tail_maps_non_finite_rows_to_nan(self):
        """The tail never raises or warns (warnings are errors here): a row
        of first-layer products holding NaN or inf gives NaN."""
        net = hand_net_2d()
        Z = np.array([[0.1], [np.nan], [np.inf], [-np.inf], [-0.3]])
        p = model_module._first_layer_tail(net, Z)
        np.testing.assert_array_equal(np.isnan(p), [False, True, True, True, False])
        np.testing.assert_array_equal(p[[0, 4]], net(np.array([[0.1 / 4.0, 0.0],
                                                               [-0.3 / 4.0, 0.0]])))

    def test_overflowing_first_layer_fails_without_crossings(self, monkeypatch):
        """First-layer products that overflow to +-inf at the ends leave
        NaN at every interpolated point, for both methods: each segment is
        a CrossingFailure, never a crossing, nothing raises ModelError, and
        nothing but the model's own forward pass at the ends meets an
        overflow or an invalid operation."""
        ds = make_blobs(per_class=30, dimension=4, center_distance=10.0, spread=0.5,
                        seed=8)
        w1 = np.zeros((2, 4))
        w1[0, 0], w1[1, 0] = 1e308, 1.0
        net = MlpModel([4, 2, 1], [w1, np.array([[1.0, 1.0]])],
                       [np.zeros(2), np.array([-1.0])])
        forward = MlpModel.forward

        def forward_past_overflow(self, x):
            with np.errstate(over="ignore"):
                return forward(self, x)

        monkeypatch.setattr(MlpModel, "forward", forward_past_overflow)
        monkeypatch.setattr(MlpModel, "__call__", forward_past_overflow)
        pair = sample_pair(ds, 0, seed=1)
        fa, fb = net(ds.features[[pair.index_a, pair.index_b]])
        assert fa < 0.5 <= fb and np.isfinite([fa, fb]).all()
        for method in ("bisection", "linear_scan"):
            config = CrossingConfig(epsilon=1 / 256, method=method)
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises(CrossingError, match="non-finite decision value"):
                    find_crossing(net, pair.a, pair.b, config)
                for build in (lambda: global_adversarial_set(net, ds, reps=20, config=config),
                              lambda: local_adversarial_set(net, ds, pair, 3, config),
                              lambda: dbc_local_batch(net, ds, reps=10, k=3, config=config)):
                    with pytest.raises(FailureRateExceeded, match="non-finite decision value"):
                        build()
