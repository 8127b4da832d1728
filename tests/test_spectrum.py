import math
import os

import numpy as np
import pytest

from dbcscore import (CrossingConfig, CrossingError, EigenSpectrum, FailureRateExceeded,
                      LabeledDataset, MlpModel, SpectrumError, TrainConfig, dbc_global,
                      dbc_local_batch, eigen_spectrum, find_crossing, k_nearest,
                      load_score_batch, local_adversarial_set, make_blobs,
                      normalized_entropy, sample_pair, sample_pairs, save_score_batch,
                      train)
from dbcscore import spectrum
from dbcscore.spectrum import LocalScore
from tests.conftest import make_zigzag_model


def charpoly_eigenvalues(S):
    """Brute-force symmetric eigenvalues for 2x2 and 3x3 matrices via the
    characteristic polynomial, independent of any LAPACK routine."""
    n = S.shape[0]
    if n == 2:
        tr = S[0, 0] + S[1, 1]
        det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
        disc = math.sqrt(max(tr * tr / 4.0 - det, 0.0))
        return sorted([tr / 2.0 - disc, tr / 2.0 + disc], reverse=True)
    if n == 3:
        # coefficients of det(S - x I) = -x^3 + c2 x^2 + c1 x + c0
        c2 = np.trace(S)
        c1 = 0.5 * (np.trace(S @ S) - np.trace(S) ** 2)
        c0 = np.linalg.det(S)
        roots = np.roots([-1.0, c2, c1, c0])
        return sorted([float(r.real) for r in roots], reverse=True)
    raise ValueError("oracle supports 2x2 and 3x3 only")


class TestEigenSpectrum:
    def test_duplicate_points_centered_all_zero(self):
        X = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 4))
        spec = eigen_spectrum(X, center=True)
        np.testing.assert_allclose(spec.eigenvalues, 0.0, atol=1e-24)

    def test_points_on_line_rank_one(self):
        direction = np.array([1.0, 2.0, -1.0])
        lams = np.linspace(0, 1, 7)
        X = (np.array([3.0, 0.0, 1.0])[:, None] + direction[:, None] * lams)
        spec = eigen_spectrum(X, center=True)
        assert spec.eigenvalues[0] > 0
        np.testing.assert_allclose(spec.eigenvalues[1:], 0.0,
                                   atol=1e-12 * spec.eigenvalues[0])

    def test_gram_trick_matches_direct(self):
        """Both decompositions computed independently on the same matrix."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            n, m = int(rng.integers(2, 41)), int(rng.integers(2, 41))
            X = rng.normal(size=(n, m))
            Xc = X - X.mean(axis=1, keepdims=True)
            direct = np.sort(np.linalg.eigvalsh(Xc @ Xc.T))[::-1]
            gram = np.sort(np.linalg.eigvalsh(Xc.T @ Xc))[::-1]
            r = min(n, m)
            spec = eigen_spectrum(X, center=True)
            assert spec.eigenvalues.size == r
            scale = max(direct[0], 1e-12)
            np.testing.assert_allclose(spec.eigenvalues, direct[:r],
                                       atol=1e-8 * scale)
            np.testing.assert_allclose(direct[:r], gram[:r], atol=1e-8 * scale)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            for _ in range(50):
                A = rng.normal(size=(n, n))
                S = A + A.T
                got = np.sort(np.linalg.eigvalsh(S))[::-1]
                expected = charpoly_eigenvalues(S)
                np.testing.assert_allclose(got, expected, atol=1e-9 * max(1.0, np.abs(S).max()))

    def test_m_below_two_rejected(self):
        with pytest.raises(SpectrumError):
            eigen_spectrum(np.ones((3, 1)))

    def test_non_finite_rejected(self):
        X = np.ones((2, 3))
        X[0, 0] = np.inf
        with pytest.raises(SpectrumError):
            eigen_spectrum(X)

    def test_uncentered_keeps_mean_direction(self):
        X = np.ones((3, 5)) * 10.0  # identical off-origin points
        centered = eigen_spectrum(X, center=True)
        raw = eigen_spectrum(X, center=False)
        assert centered.eigenvalues[0] == 0.0
        assert raw.eigenvalues[0] > 0.0


class TestNormalizedEntropy:
    def make_spec(self, eigenvalues, n=None, m=8):
        eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
        return EigenSpectrum(eigenvalues=eigenvalues,
                             dimension=n or eigenvalues.size,
                             sample_count=m, centered=True)

    def test_single_component_is_zero(self):
        score = normalized_entropy(self.make_spec([1.0, 0.0, 0.0]))
        assert score.value == 0.0

    def test_rank_one_scores_positive_zero(self):
        """A single nonzero eigenvalue has entropy -(1 * log 1) = -0.0;
        the score is +0.0, which a score file writes as 0.0."""
        for eigenvalues in ([1.0, 0.0], [2.5, 0.0, 0.0], [3.0]):
            score = normalized_entropy(self.make_spec(eigenvalues, n=3))
            assert repr(score.value) == "0.0"

    def test_uniform_two_components_is_one(self):
        score = normalized_entropy(self.make_spec([0.7, 0.7]))
        assert abs(score.value - 1.0) <= 1e-12

    def test_hand_computed_example(self):
        """-(0.7 ln 0.7 + 0.2 ln 0.2 + 0.1 ln 0.1) = 0.801819 nats;
        divided by log 3 gives 0.729846 (computed by direct summation
        before the build)."""
        score = normalized_entropy(self.make_spec([0.7, 0.2, 0.1]))
        assert score.normalization_divisor == 3
        assert abs(score.value - 0.729846) <= 1e-5

    def test_all_zero_spectrum_scores_zero(self):
        score = normalized_entropy(self.make_spec([0.0, 0.0]))
        assert score.value == 0.0

    def test_uniform_r_components_entropy_log_r(self):
        for r in (2, 3, 5, 8):
            eig = np.ones(r)
            spec = EigenSpectrum(eigenvalues=eig, dimension=r, sample_count=r + 1,
                                 centered=True)
            p = eig / eig.sum()
            entropy = float(-(p * np.log(p)).sum())
            assert abs(entropy - math.log(r)) <= 1e-12
            assert abs(normalized_entropy(spec).value - 1.0) <= 1e-12

    def test_divisor_modes(self):
        spec = self.make_spec([0.5, 0.5], n=2, m=40)
        assert normalized_entropy(spec, "effective").normalization_divisor == 2
        spec_wide = EigenSpectrum(eigenvalues=np.array([0.5, 0.5]), dimension=100,
                                  sample_count=2, centered=True)
        assert normalized_entropy(spec_wide, "effective").normalization_divisor == 2
        assert normalized_entropy(spec_wide, "paper_n").normalization_divisor == 100
        # paper_n divisor caps the score well below 1 when m << n
        assert normalized_entropy(spec_wide, "paper_n").value == pytest.approx(
            math.log(2) / math.log(100))

    def test_dimension_one_scores_zero(self):
        spec = EigenSpectrum(eigenvalues=np.array([2.0]), dimension=1,
                             sample_count=5, centered=True)
        assert normalized_entropy(spec).value == 0.0


class TestInvariances:
    def random_set(self, rng, n=None, m=None):
        n = n or int(rng.integers(2, 12))
        m = m or int(rng.integers(2, 30))
        return rng.normal(size=(n, m)) * rng.uniform(0.1, 10)

    def dbc_of(self, X, center=True):
        return normalized_entropy(eigen_spectrum(X, center=center)).value

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            X = self.random_set(rng)
            Q, _ = np.linalg.qr(rng.normal(size=(X.shape[0], X.shape[0])))
            assert abs(self.dbc_of(Q @ X) - self.dbc_of(X)) <= 1e-8

    def test_scale_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            X = self.random_set(rng)
            c = float(rng.uniform(0.01, 100.0)) * float(rng.choice([-1, 1]))
            assert abs(self.dbc_of(c * X) - self.dbc_of(X)) <= 1e-10

    def test_translation_invariance_when_centered(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            X = self.random_set(rng)
            t = rng.normal(size=(X.shape[0], 1)) * 50.0
            assert abs(self.dbc_of(X + t) - self.dbc_of(X)) <= 1e-8

    def test_translation_sensitivity_when_uncentered(self):
        """Regression pin: without centering a large offset drags the
        spectrum toward the mean direction and the score moves."""
        rng = np.random.default_rng(24)
        X = rng.normal(size=(4, 20))
        base = self.dbc_of(X, center=False)
        shifted = self.dbc_of(X + 1000.0, center=False)
        assert abs(base - shifted) > 0.1

    def test_dbc_always_in_unit_interval(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            X = self.random_set(rng)
            if rng.random() < 0.2:
                X[:, 1] = X[:, 0]  # inject degeneracies
            v = self.dbc_of(X, center=bool(rng.integers(2)))
            assert 0.0 <= v <= 1.0

    def test_collinear_set_scores_zero(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(2, 20))
            base = rng.normal(size=n)
            direction = rng.normal(size=n)
            X = base[:, None] + direction[:, None] * rng.uniform(-5, 5, size=m)
            assert self.dbc_of(X) <= 1e-6


class TestComposedScores:
    def test_linear_global_below_cutoff(self, blobs_2d, linear_model_2d):
        score = dbc_global(linear_model_2d, blobs_2d, reps=100,
                           config=CrossingConfig(epsilon=1e-9), seed=1)
        assert score.value < 0.05

    def test_same_seed_identical(self, blobs_2d, linear_model_2d):
        s1 = dbc_global(linear_model_2d, blobs_2d, reps=60, seed=5)
        s2 = dbc_global(linear_model_2d, blobs_2d, reps=60, seed=5)
        assert s1.value == s2.value

    def test_zigzag_scores_above_linear(self, blobs_2d, linear_model_2d):
        zigzag = make_zigzag_model(amplitude=1.5, period=2.0)
        config = CrossingConfig(epsilon=1 / 4096)
        lin = dbc_global(linear_model_2d, blobs_2d, reps=200, config=config, seed=3)
        zig = dbc_global(zigzag, blobs_2d, reps=200, config=config, seed=3)
        assert zig.value > lin.value

    def test_local_batch_pair_counts(self, blobs_2d, linear_model_2d):
        scores = dbc_local_batch(linear_model_2d, blobs_2d, reps=25, k=5,
                                 config=CrossingConfig(epsilon=1e-9), seed=9)
        assert len(scores) == 25
        assert all(s.sample_count == 6 for s in scores)
        assert all(s.value < 0.05 for s in scores)

    def test_same_pairs_for_different_models(self, blobs_2d, linear_model_2d):
        zigzag = make_zigzag_model()
        s_lin = dbc_local_batch(linear_model_2d, blobs_2d, reps=10, k=3, seed=4)
        s_zig = dbc_local_batch(zigzag, blobs_2d, reps=10, k=3, seed=4)
        assert [s.pair_index for s in s_lin] == [s.pair_index for s in s_zig]

    def test_workers_match_serial(self, blobs_2d, linear_model_2d):
        # 40 pairs make two blocks, so the pool really runs; the [2, 1, 1]
        # net is searched in its first-layer space, which the workers get
        # with the model
        projected = MlpModel([2, 1, 1], [np.array([[4.0, 0.0]]), np.array([[3.0]])],
                             [np.array([0.0]), np.array([0.0])], "tanh")
        for f in (linear_model_2d, projected):
            serial = dbc_local_batch(f, blobs_2d, reps=40, k=4, seed=2, workers=1)
            parallel = dbc_local_batch(f, blobs_2d, reps=40, k=4, seed=2, workers=4)
            assert [(s.pair_index, s.value) for s in serial] == \
                   [(s.pair_index, s.value) for s in parallel]

    def test_workers_accept_a_closure(self, blobs_2d):
        """A locally defined callable, which pickle refuses, still scores
        on a pool and matches the serial batch."""
        zigzag = make_zigzag_model()
        serial = dbc_local_batch(zigzag, blobs_2d, reps=40, k=4, seed=2)
        parallel = dbc_local_batch(zigzag, blobs_2d, reps=40, k=4, seed=2,
                                   workers=2)
        assert serial == parallel

    def test_pool_size_is_bounded_by_the_blocks(self, blobs_2d, linear_model_2d,
                                                monkeypatch):
        """The pool asks for at most one process per block, and a single
        block runs serially; checked with a stand-in executor that starts
        no process."""
        import concurrent.futures

        requested = []

        class NoPool:
            def __init__(self, max_workers=None, **kwargs):
                requested.append(max_workers)
                raise RuntimeError("no process may start here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        serial = dbc_local_batch(linear_model_2d, blobs_2d, reps=5, k=3, seed=2)
        assert dbc_local_batch(linear_model_2d, blobs_2d, reps=5, k=3, seed=2,
                               workers=64) == serial
        assert requested == []
        # 100 pairs at k=3 on 2-D rows make 4 blocks of at most 32 pairs
        with pytest.raises(RuntimeError, match="no process"):
            dbc_local_batch(linear_model_2d, blobs_2d, reps=100, k=3, seed=2,
                            workers=4096)
        assert requested == [4]
        for workers in (0, -7):
            with pytest.raises(ValueError, match="workers"):
                dbc_local_batch(linear_model_2d, blobs_2d, reps=5, k=3, seed=2,
                                workers=workers)
        assert requested == [4]

    def test_blocks_fix_the_scores_of_a_blas_backed_model(self):
        """Pairs are scored in blocks whose rows depend on neither reps nor
        workers, so a trained net, whose BLAS-backed rows need not keep
        their bits across batch sizes, scores each pair the same way in
        any batch, and drops the same pairs at any worker count."""
        ds = make_blobs(per_class=60, dimension=2, center_distance=4.0,
                        spread=1.0, seed=11)
        net, _ = train(ds, [2, 16, 16, 1], TrainConfig(epochs=60, learning_rate=0.01,
                                                       seed=0))
        config = CrossingConfig(epsilon=1 / 1024)
        rows = {}
        for reps in (32, 64):
            rows[reps] = []

            def counted(x, seen=rows[reps]):
                seen.append(len(x))
                return net(x)

            dbc_local_batch(counted, ds, reps=reps, k=4, config=config, seed=4)
        # the first block, and so every f call it makes, is the same
        assert rows[64][:len(rows[32])] == rows[32] and len(rows[64]) > len(rows[32])
        short = dbc_local_batch(net, ds, reps=32, k=4, config=config, seed=4)
        long = dbc_local_batch(net, ds, reps=64, k=4, config=config, seed=4, workers=2)
        assert [s for s in long if s.pair_index < 32] == short
        serial = dbc_local_batch(net, ds, reps=45, k=4, config=config, seed=4)
        assert 0 < 45 - len(serial) <= 4
        assert dbc_local_batch(net, ds, reps=45, k=4, config=config, seed=4,
                               workers=3) == serial

    @pytest.mark.parametrize("center,divisor_mode,expand_around",
                             [(True, "effective", "b"), (False, "paper_n", "a")])
    def test_local_batch_scores_each_local_set(self, blobs_2d, center,
                                               divisor_mode, expand_around):
        """Every batch score is the entropy of its pair's local set, bit
        for bit."""
        zigzag = make_zigzag_model()
        config = CrossingConfig(epsilon=1 / 1024)
        scores = dbc_local_batch(zigzag, blobs_2d, reps=30, k=6, config=config,
                                 seed=7, center=center, divisor_mode=divisor_mode,
                                 expand_around=expand_around)
        assert [s.pair_index for s in scores] == list(range(30))
        for s in scores:
            aset = local_adversarial_set(zigzag, blobs_2d,
                                         sample_pair(blobs_2d, s.pair_index, 7),
                                         6, config, expand_around)
            expected = normalized_entropy(eigen_spectrum(aset, center), divisor_mode)
            assert (s.k, s.sample_count, s.value) == (6, aset.sample_count, expected.value)

    @pytest.mark.parametrize("center,divisor_mode", [(True, "effective"),
                                                     (False, "paper_n")])
    @pytest.mark.parametrize("dimension", [2, 30])
    def test_stacked_spectra_equal_lone_spectra(self, dimension, center, divisor_mode):
        """A block stacks its sets of equal size into one eigensolver call;
        each score still equals the lone spectrum and entropy of its set,
        bit for bit. Two class-1 rows give f = NaN, so the sets that reach
        them lose a column or two, and the first block of 32 pairs holds sets
        of 20 columns beside smaller ones; at d = 2 the spectrum comes from
        X X', at d = 30 from X'X."""
        ds = make_blobs(per_class=60, dimension=dimension, center_distance=4.0,
                        spread=1.0, seed=5)
        bad = ds.features[ds.class_indices(1)[[3, 40]], 1]

        def f(x):
            x = np.atleast_2d(x)
            z = 4.0 * (x[:, 0] + np.sin(2.0 * x[:, 1]))
            return np.where(np.isin(x[:, 1], bad), np.nan, 1.0 / (1.0 + np.exp(-z)))

        config = CrossingConfig(epsilon=1 / 1024)
        scores = dbc_local_batch(f, ds, reps=40, k=19, config=config, seed=3,
                                 center=center, divisor_mode=divisor_mode)
        first_block = {s.sample_count for s in scores if s.pair_index < 32}
        assert 20 in first_block and len(first_block) > 1
        for s in scores:
            aset = local_adversarial_set(f, ds, sample_pair(ds, s.pair_index, 3), 19,
                                         config)
            expected = normalized_entropy(eigen_spectrum(aset.points, center),
                                          divisor_mode)
            assert (s.sample_count, s.value) == (aset.sample_count, expected.value)

    @pytest.mark.parametrize("dimension", [2, 8])
    def test_stacked_set_of_identical_points_scores_zero(self, dimension):
        """Class 1 holds four copies of one row, so at k = 3 a pair whose
        class-1 end is a copy crosses four identical segments: its set is
        one repeated point, which scores 0 in a stack beside sets that do
        not. Integer features keep every crossing point and its mean exact."""
        rng = np.random.default_rng(8)
        features = np.vstack([rng.integers(-40, -3, (30, dimension)),
                              np.full((4, dimension), 3),
                              rng.integers(4, 40, (16, dimension))]).astype(np.float64)
        ds = LabeledDataset(features, np.repeat([0, 1], [30, 20]))
        zigzag = make_zigzag_model()
        scores = dbc_local_batch(zigzag, ds, reps=32, k=3, seed=1)
        for s in scores:
            pair = sample_pair(ds, s.pair_index, 1)
            aset = local_adversarial_set(zigzag, ds, pair, 3)
            assert s.value == normalized_entropy(eigen_spectrum(aset)).value
            assert (s.value == 0.0) == (30 <= pair.index_b < 34)
        assert any(s.value == 0.0 for s in scores)

    def test_one_sets_negative_eigenvalue_still_raises(self, blobs_2d, monkeypatch):
        """The tolerance check runs for every set of a stack: an eigenvalue
        far below -tolerance in the second set alone aborts the batch."""
        eigvalsh = np.linalg.eigvalsh

        def corrupted(a):
            eig = eigvalsh(a)
            if eig.ndim == 2 and len(eig) > 1:
                eig[1, 0] = -1e-6 * eig[1, -1]
            return eig

        monkeypatch.setattr(np.linalg, "eigvalsh", corrupted)
        with pytest.raises(SpectrumError, match="too negative"):
            dbc_local_batch(make_zigzag_model(), blobs_2d, reps=10, k=4, seed=2)

    def test_pool_workers_inherit_one_blas_thread(self, blobs_2d, linear_model_2d,
                                                  tmp_path):
        """Forked workers run their BLAS on the one thread the parent holds
        while the pool runs, so none starts a thread of its own, and the
        parent gets its own count back, also from a batch that aborts."""
        if not os.path.isdir("/proc/self/task") or spectrum._openblas() is None:
            pytest.skip("needs /proc and numpy's bundled scipy-openblas")
        get_threads = spectrum._openblas()[0]
        parent, before = os.getpid(), get_threads()

        def f(x):
            if os.getpid() != parent:
                threads = len(os.listdir("/proc/self/task"))
                (tmp_path / str(os.getpid())).write_text(f"{threads} {get_threads()}")
            return linear_model_2d(x)

        dbc_local_batch(f, blobs_2d, reps=100, k=3, seed=2, workers=2)
        seen = [p.read_text() for p in tmp_path.iterdir()]
        assert seen and set(seen) == {"1 1"}
        assert get_threads() == before
        with pytest.raises(FailureRateExceeded):
            dbc_local_batch(lambda x: np.full(len(x), 0.7), blobs_2d, reps=100, k=3,
                            seed=2, workers=2)
        assert get_threads() == before

    def test_k_sweep_batches(self, blobs_2d, linear_model_2d):
        for k in (3, 5, 10):
            scores = dbc_local_batch(linear_model_2d, blobs_2d, reps=5, k=k, seed=1)
            assert all(s.sample_count == k + 1 for s in scores)


def smooth_boundary(x):
    """A curved boundary computed row by row, so a row's value never
    depends on the rows beside it."""
    x = np.atleast_2d(x)
    return 1.0 / (1.0 + np.exp(-(1.3 * x[:, 0] + 0.7 * np.sin(1.9 * x[:, 1]) + 0.1)))


def segment_blocks(ds, reps, k, seed, f_rows, block=32):
    """Straddling segment (anchor, neighbour) -> the blocks of ``block``
    pairs whose local sets hold it, from sample_pairs and k_nearest alone."""
    blocks = {}
    for i, pair in enumerate(sample_pairs(ds, reps, seed)):
        for j in k_nearest(ds, ds.features[pair.index_b], class_filter=1, k=k + 1):
            if (f_rows[pair.index_a] < 0.5) != (f_rows[j] < 0.5):
                blocks.setdefault((pair.index_a, j), set()).add(i // block)
    return blocks


class TestSharedSearch:
    """A local batch searches each distinct segment once, in the block
    where it first appears; every set that holds it reads that result.
    Twelve rows per class at k = 4 make 128 pairs repeat their segments
    across all four blocks of 32 pairs."""

    @pytest.fixture(scope="class")
    def small(self):
        return make_blobs(per_class=12, dimension=2, center_distance=3.0, spread=1.0,
                          seed=6)

    def test_each_distinct_segment_is_searched_once(self, small):
        rows = []

        def f(x):
            rows.append(len(x))
            return smooth_boundary(x)

        eps = 1 / 1024
        dbc_local_batch(f, small, reps=128, k=4, config=CrossingConfig(epsilon=eps), seed=5)
        blocks = segment_blocks(small, 128, 4, 5, smooth_boundary(small.features))
        assert any(len(b) > 1 for b in blocks.values())
        assert sum(rows) == small.count + len(blocks) * math.ceil(math.log2(1 / eps))

    def test_workers_match_serial_across_blocks(self, small):
        """Blocks read segments that earlier blocks searched, whichever
        process searched them."""
        blocks = segment_blocks(small, 128, 4, 5, smooth_boundary(small.features))
        assert sum(min(b) < max(b) for b in blocks.values()) > 10
        config = CrossingConfig(epsilon=1 / 1024)
        serial = dbc_local_batch(smooth_boundary, small, reps=128, k=4, config=config,
                                 seed=5)
        assert len(serial) == 128
        for workers in (1, 2, 3):
            assert dbc_local_batch(smooth_boundary, small, reps=128, k=4, config=config,
                                   seed=5, workers=workers) == serial, workers

    def test_a_failing_segment_fails_every_set_that_holds_it(self):
        """f is NaN within 0.05 of two class-1 rows near the boundary, so
        the segments that end there fail at an end, and some that pass by
        fail at their crossing; such segments recur in sets of several
        blocks. Each set lists its failures in position order and aborts
        on more than 10% of them, as a lone find_crossing per segment
        says, and every score equals the lone set's, bit for bit."""
        ds = make_blobs(per_class=60, dimension=2, center_distance=4.0, spread=1.0, seed=3)
        class1 = ds.class_indices(1)
        near = class1[np.argsort(np.abs(smooth_boundary(ds.features[class1]) - 0.5))]
        centers = ds.features[near[[0, -1]]]

        def f(x):
            x = np.atleast_2d(x)
            holed = (((x[:, None, :] - centers[None]) ** 2).sum(axis=2) < 0.05 ** 2).any(axis=1)
            return np.where(holed, np.nan, smooth_boundary(x))

        k, reps, seed = 19, 96, 2
        config = CrossingConfig(epsilon=1 / 1024)
        scores = {s.pair_index: s for s in dbc_local_batch(f, ds, reps=reps, k=k,
                                                           config=config, seed=seed)}
        failed = {}
        for i in range(reps):
            try:
                aset = local_adversarial_set(f, ds, sample_pair(ds, i, seed), k, config)
            except FailureRateExceeded:
                assert i not in scores
                continue
            assert scores[i].value == normalized_entropy(eigen_spectrum(aset)).value
            positions = [fl.pair_index for fl in aset.failures]
            assert positions == sorted(positions) and len(positions) <= 2
            assert sorted(positions + [c.pair_index for c in aset.provenance]) == \
                list(range(k + 1))
            for rec in aset.provenance:
                c = find_crossing(f, ds.features[rec.index_a], ds.features[rec.index_b],
                                  config)
                assert (c.lam, c.f_value) == (rec.lam, rec.f_value)
            for fl in aset.failures:
                ia, ib = ((fl.index_a, fl.index_b) if f(ds.features[fl.index_a])[0] < 0.5
                          else (fl.index_b, fl.index_a))
                with pytest.raises(CrossingError):
                    find_crossing(f, ds.features[ia], ds.features[ib], config)
                at_crossing = "lam=" in fl.reason
                failed.setdefault((fl.index_a, fl.index_b, at_crossing), set()).add(i // 32)
        assert 0 < reps - len(scores) <= reps // 10
        for at_crossing in (False, True):
            assert any(len(b) > 1 for (_, _, kind), b in failed.items() if kind == at_crossing)


class TestScoreFiles:
    def test_round_trip_with_metadata(self, tmp_path):
        scores = [LocalScore(pair_index=i, k=5, sample_count=6, value=0.1 * i)
                  for i in range(4)]
        meta = {"seed": 7, "mode": "local", "divisor_mode": "effective",
                "center": "true", "dataset_sha256": "abc"}
        path = tmp_path / "scores.csv"
        save_score_batch(path, scores, meta)
        loaded, got_meta = load_score_batch(path)
        assert [s.value for s in loaded] == [s.value for s in scores]
        assert got_meta["seed"] == "7"
        assert got_meta["dataset_sha256"] == "abc"

    def test_byte_identical_rewrites(self, tmp_path):
        scores = [LocalScore(0, 3, 4, 1 / 3)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_score_batch(p1, scores, {"seed": 1})
        save_score_batch(p2, scores, {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_rank_one_local_sets_write_positive_zero(self, tmp_path):
        """At k=1 each local set is two crossings, so its centered spectrum
        has rank at most 1: no score is -0.0, in the batch or in its file."""
        ds = make_blobs(per_class=50, dimension=2, center_distance=6.0, spread=1.0, seed=1)
        net = MlpModel([2, 1], [np.array([[4.0, 0.0]])], [np.array([0.0])])
        scores = dbc_local_batch(net, ds, reps=5, k=1, seed=1)
        assert "0.0" in [repr(s.value) for s in scores]
        assert all(math.copysign(1.0, s.value) == 1.0 for s in scores)
        path = tmp_path / "scores.csv"
        save_score_batch(path, scores, {"seed": 1})
        assert "-0.0" not in path.read_text()
        assert ",0.0," in path.read_text()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.7"])
    def test_non_finite_or_out_of_range_score_rejected(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text("pair_index,k,m,dbc,divisor_mode,centered\n"
                        f"0,2,3,0.5,e,true\n1,2,3,{value},e,true\n")
        with pytest.raises(SpectrumError, match=r"row 1 in .*bad\.csv"):
            load_score_batch(path)

    def test_repeated_pair_index_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        path.write_text("pair_index,k,m,dbc,divisor_mode,centered\n"
                        "0,2,3,0.5,e,true\n1,2,3,0.4,e,true\n0,2,3,0.6,e,true\n")
        with pytest.raises(SpectrumError, match=r"row 2 in .*twice\.csv repeats pair_index 0"):
            load_score_batch(path)

    @pytest.mark.parametrize("text, message", [
        ("# format: dbc-scores/1\n# seed: 1\npair_index,k,m,dbc,divisor_mode,centered\n",
         "has no score rows"),
        ("# format: dbc-scores/1\n", "has no score rows"),
        ("# format: dbc-scores/9\npair_index,k,m,dbc,divisor_mode,centered\n"
         "0,2,3,0.5,e,true\n", "has format 'dbc-scores/9'"),
    ], ids=["header only", "no header", "version 9"])
    def test_refused_files(self, tmp_path, text, message):
        path = tmp_path / "refused.csv"
        path.write_text(text)
        with pytest.raises(SpectrumError, match=rf"score file .*refused\.csv {message}"):
            load_score_batch(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pair_index,k,m,dbc,divisor_mode,centered\n1,2,oops,0.5,e,true\n")
        with pytest.raises(SpectrumError, match="malformed"):
            load_score_batch(path)
