import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbcscore import (ClassPair, DatasetError, LabeledDataset, k_nearest, load_csv,
                      make_blobs, minmax_scale, sample_pair, sample_pairs,
                      save_csv)
from dbcscore.boundary import _local_ends


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_small_file_direct_parse(self, tmp_path):
        path = write_csv(tmp_path, "f0,f1,label\n1,2,0\n3,4,0\n5,6,1\n7,8,1\n")
        ds = load_csv(path)
        assert ds.count == 4
        assert ds.dimension == 2
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])
        np.testing.assert_array_equal(ds.features[0], [1.0, 2.0])

    def test_headerless_with_index_column(self, tmp_path):
        path = write_csv(tmp_path, "1,2,0\n3,4,1\n")
        ds = load_csv(path, label_column=-1)
        assert ds.count == 2 and ds.dimension == 2

    def test_wisconsin_sized_table(self, tmp_path):
        """A 30-feature table with a 212/375 class split round-trips."""
        rng = np.random.default_rng(0)
        labels = np.concatenate([np.ones(212, dtype=int), np.zeros(375, dtype=int)])
        ds = LabeledDataset(rng.normal(size=(587, 30)), labels)
        path = tmp_path / "w.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.count == 587
        assert loaded.dimension == 30
        assert int((loaded.labels == 1).sum()) == 212
        assert int((loaded.labels == 0).sum()) == 375
        np.testing.assert_array_equal(loaded.features, ds.features)

    def test_label_outside_01_names_row(self, tmp_path):
        path = write_csv(tmp_path, "f0,label\n1,0\n2,2\n3,1\n")
        with pytest.raises(DatasetError, match="row 1"):
            load_csv(path)

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, "f0,f1,label\n1,2,0\n1,oops,1\n")
        with pytest.raises(DatasetError, match="row 1, column 1"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_single_class_rejected(self, tmp_path):
        path = write_csv(tmp_path, "f0,label\n1,0\n2,0\n")
        with pytest.raises(DatasetError, match="label 1"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path, "f0,f1\n1,2\n")
        with pytest.raises(DatasetError, match="not found"):
            load_csv(path, label_column="label")


class TestMakeBlobs:
    def test_counts_and_balance(self):
        ds = make_blobs(per_class=200, dimension=2, center_distance=10.0,
                        spread=1.0, seed=7)
        assert ds.count == 400
        assert int((ds.labels == 0).sum()) == 200
        assert int((ds.labels == 1).sum()) == 200

    def test_same_seed_byte_identical(self, tmp_path):
        a = make_blobs(50, 3, 5.0, 1.0, seed=11)
        b = make_blobs(50, 3, 5.0, 1.0, seed=11)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(a, pa)
        save_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_wide_separation_threshold_sweep(self):
        """center_distance = 10*spread: a single threshold on feature 0
        separates the sample perfectly, found by exhaustive sweep."""
        ds = make_blobs(per_class=200, dimension=2, center_distance=10.0,
                        spread=1.0, seed=3)
        x0 = ds.features[:, 0]
        cuts = np.sort(x0)
        best = 0.0
        for cut in (cuts[:-1] + cuts[1:]) / 2.0:
            acc = np.mean((x0 > cut).astype(int) == ds.labels)
            best = max(best, float(acc))
        assert best == 1.0

    def test_bad_arguments(self):
        with pytest.raises(DatasetError):
            make_blobs(0, 2, 1.0, 1.0, seed=0)
        with pytest.raises(DatasetError):
            make_blobs(5, 2, -1.0, 1.0, seed=0)
        with pytest.raises(DatasetError):
            make_blobs(5, 2, 1.0, 0.0, seed=0)


class TestKNearest:
    def test_stored_point_ranks_first(self, blobs_2d):
        query = blobs_2d.features[250]
        assert k_nearest(blobs_2d, query, class_filter=1, k=1) == [250]

    def test_three_neighbors_include_self(self, blobs_2d):
        """Querying at a stored class-1 point with k=3 returns the point
        itself plus its 2 nearest same-class rows."""
        query = blobs_2d.features[300]
        got = k_nearest(blobs_2d, query, class_filter=1, k=3)
        assert got[0] == 300
        assert len(got) == 3
        assert all(blobs_2d.labels[i] == 1 for i in got)

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(5)
        ds = LabeledDataset(rng.normal(size=(50, 4)),
                            rng.integers(0, 2, size=50))
        query = rng.normal(size=4)
        got = k_nearest(ds, query, class_filter=1, k=5)
        idx = ds.class_indices(1)
        dist = np.linalg.norm(ds.features[idx] - query, axis=1)
        expected = [int(i) for i in idx[np.lexsort((idx, dist))][:5]]
        assert got == expected

    def test_k_exceeds_population(self, blobs_2d):
        with pytest.raises(DatasetError, match="exceeds"):
            k_nearest(blobs_2d, blobs_2d.features[0], class_filter=0, k=201)

    def test_dimension_mismatch(self, blobs_2d):
        with pytest.raises(DatasetError, match="dimension"):
            k_nearest(blobs_2d, np.zeros(3), class_filter=0, k=1)

    def test_tie_breaks_to_lower_index(self):
        features = np.array([[0.0], [1.0], [-1.0], [1.0]])
        ds = LabeledDataset(features, np.array([1, 0, 0, 0]))
        # rows 1, 2, 3 are all at distance 1 from the origin
        assert k_nearest(ds, np.array([0.0]), class_filter=0, k=3) == [1, 2, 3]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 200), st.integers(1, 5))
    def test_agrees_with_full_sort_on_random_instances(self, seed, count, dim):
        rng = np.random.default_rng(seed)
        labels = np.zeros(count, dtype=int)
        labels[rng.integers(1, count)] = 1  # keep both classes present
        labels[: count // 2] = 1
        labels[count // 2] = 0
        ds = LabeledDataset(rng.normal(size=(count, dim)), labels)
        query = rng.normal(size=dim)
        cls = int(rng.integers(0, 2))
        pop = int(ds.class_indices(cls).size)
        k = int(rng.integers(1, pop + 1))
        got = k_nearest(ds, query, class_filter=cls, k=k)
        idx = ds.class_indices(cls)
        dist = np.linalg.norm(ds.features[idx] - query, axis=1)
        expected = [int(i) for i in idx[np.lexsort((idx, dist))][:k]]
        assert got == expected
        dists = [float(np.linalg.norm(ds.features[i] - query)) for i in got]
        assert dists == sorted(dists)


def exact_neighbors(ds, query, cls, k):
    """The oracle: every row of the class ranked by the exact formula,
    sqrt(einsum(delta, delta)), ties toward the lower row index."""
    idx = ds.class_indices(cls)
    deltas = ds.features[idx] - query
    distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    return [int(i) for i in idx[np.lexsort((idx, distances))][:k]]


def assert_matches_oracle(ds, queries, cls, k):
    expected = [exact_neighbors(ds, q, cls, k) for q in queries]
    assert k_nearest(ds, queries, class_filter=cls, k=k) == expected
    for q, rows in zip(queries, expected):
        assert k_nearest(ds, q, class_filter=cls, k=k) == rows


def two_class(features, rng):
    labels = rng.integers(0, 2, size=len(features))
    labels[:2] = (0, 1)
    return LabeledDataset(features, labels)


class TestBatchedKNearest:
    """k_nearest on a (q, d) matrix: one Gram product per chunk of queries
    and an exact ranking of each query's margin set must give the lists
    of the exact formula over every row of the class."""

    def test_shapes(self, blobs_2d):
        query = blobs_2d.features[250]
        one = k_nearest(blobs_2d, query, class_filter=1, k=3)
        assert isinstance(one, list) and all(type(i) is int for i in one)
        assert k_nearest(blobs_2d, query[None, :], class_filter=1, k=3) == [one]
        assert k_nearest(blobs_2d, np.empty((0, 2)), class_filter=1, k=3) == []
        with pytest.raises(DatasetError, match="dimension"):
            k_nearest(blobs_2d, np.zeros((4, 3)), class_filter=1, k=3)
        with pytest.raises(DatasetError, match="dimension"):
            k_nearest(blobs_2d, np.zeros((1, 1, 2)), class_filter=1, k=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_refused(self, bad):
        ds = LabeledDataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 1]))
        with pytest.raises(DatasetError, match="row 0, column 0"):
            k_nearest(ds, [bad, 0.0], class_filter=1, k=2)
        queries = np.zeros((3, 2))
        queries[1, 1] = bad
        with pytest.raises(DatasetError, match="row 1, column 1"):
            k_nearest(ds, queries, class_filter=1, k=2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 60),
           st.integers(1, 3072), st.integers(1, 9))
    def test_random_instances(self, seed, count, dim, q):
        rng = np.random.default_rng(seed)
        ds = two_class(rng.normal(size=(count, dim)) * rng.uniform(0.1, 10.0), rng)
        cls = int(rng.integers(0, 2))
        k = int(rng.integers(1, ds.class_indices(cls).size + 1))
        # stored rows (exact zeros) and fresh points
        queries = np.vstack([ds.features[rng.integers(0, count, q)],
                             rng.normal(size=(q, dim))])
        assert_matches_oracle(ds, queries, cls, k)

    def test_duplicated_rows_and_hub_first(self):
        """Rows 0-4 are copies of one point. A hub among its own k+1
        neighbours is moved to the front, the rest keep their order; a hub
        pushed out by lower-index copies of itself is not added."""
        rng = np.random.default_rng(3)
        features = np.vstack([np.tile(rng.normal(size=4), (5, 1)),
                              rng.normal(size=(15, 4)), [[9.0, 9.0, 9.0, 9.0]]])
        features[15:18] = features[8]  # more copies, with a higher index
        labels = np.ones(len(features), dtype=int)
        labels[-1] = 0
        ds = LabeledDataset(features, labels)
        assert_matches_oracle(ds, features, 1, 6)
        hubs = [3, 0, 4, 15, 8, 17, 11, 3]
        pairs = [ClassPair(a=features[20], b=features[h], index_a=20, index_b=h)
                 for h in hubs]
        for k in (2, 4, 6):
            ends = _local_ends(ds, pairs, k, "b")
            for pair, row in zip(pairs, ends):
                rows = exact_neighbors(ds, features[pair.index_b], 1, k + 1)
                if pair.index_b in rows:
                    rows.remove(pair.index_b)
                    rows.insert(0, pair.index_b)
                assert row[:, 0].tolist() == [20] * (k + 1)
                assert row[:, 1].tolist() == rows
        assert _local_ends(ds, pairs, 2, "b")[0, :, 1].tolist() == [0, 1, 2]
        assert _local_ends(ds, pairs, 4, "b")[0, :, 1].tolist() == [3, 0, 1, 2, 4]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_lattice_ties_break_to_lower_index(self, dim):
        """Integer lattice points: many exactly equal distances, which the
        Gram form also computes exactly, so only the index decides."""
        rng = np.random.default_rng(dim)
        features = rng.integers(-3, 4, size=(80, dim)).astype(float)
        ds = two_class(features, rng)
        queries = np.vstack([features[:10], rng.integers(-3, 4, size=(10, dim))])
        for cls in (0, 1):
            for k in (1, 5, ds.class_indices(cls).size):
                assert_matches_oracle(ds, queries, cls, k)

    @pytest.mark.parametrize("dim", [2, 30, 3072])
    def test_ill_conditioned_offset(self, dim):
        """Rows 1e4 from the origin with 1e-3 noise: the Gram form's
        cancellation errs by more than the gaps between the distances, so
        only a margin that bounds its rounding keeps the right rows."""
        rng = np.random.default_rng(dim)
        features = 1e4 + 1e-3 * rng.normal(size=(40, dim))
        ds = two_class(features, rng)
        queries = np.vstack([features[:6], 1e4 + 1e-3 * rng.normal(size=(6, dim))])
        for cls in (0, 1):
            assert_matches_oracle(ds, queries, cls, 3)

    @pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e150, 1e200, 1e300])
    def test_extreme_magnitudes(self, scale):
        """Squares that underflow, and squares that overflow, where every
        row is ranked by the exact formula."""
        rng = np.random.default_rng(7)
        features = scale * rng.normal(size=(30, 3))
        ds = two_class(features, rng)
        assert_matches_oracle(ds, features[:8], 1, 4)

    def test_gram_memory_does_not_grow_with_queries(self):
        """One Gram block holds at most GRAM_BUDGET doubles: 5,000 queries
        peak no higher than 50 that already fill a block, beyond the
        answer's own (queries x k) integers."""
        rng = np.random.default_rng(11)
        features = rng.normal(size=(2 ** 14 + 2, 2))
        labels = np.ones(len(features), dtype=int)
        labels[:2] = 0
        ds = LabeledDataset(features, labels)
        k = 2
        peaks = []
        for count in (50, 5000):
            queries = rng.normal(size=(count, 2))
            tracemalloc.start()
            try:
                answer = k_nearest(ds, queries, class_filter=1, k=k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(answer) == count
        # the lists, their ints and the (queries, k) int64 array
        answer_bytes = 5000 * (64 + 8 * k + 32 * k + 8 * k)
        assert peaks[1] <= peaks[0] + answer_bytes, peaks


class TestSamplePairs:
    def test_reps_and_classes(self, blobs_2d):
        pairs = sample_pairs(blobs_2d, reps=2500, seed=1)
        assert len(pairs) == 2500
        for p in pairs[:20]:
            assert blobs_2d.labels[p.index_a] == 0
            assert blobs_2d.labels[p.index_b] == 1

    def test_singleton_classes_force_the_pair(self):
        ds = LabeledDataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
        (pair,) = sample_pairs(ds, reps=1, seed=9)
        assert (pair.index_a, pair.index_b) == (0, 1)

    def test_order_independent_subseeding(self, blobs_2d):
        """Pair i is reproducible in isolation, so any evaluation order or
        worker split yields the same sequence."""
        serial = sample_pairs(blobs_2d, reps=40, seed=13)
        shuffled = [sample_pair(blobs_2d, i, seed=13) for i in reversed(range(40))]
        for p, q in zip(serial, reversed(shuffled)):
            assert (p.index_a, p.index_b) == (q.index_a, q.index_b)

    def test_batch_draws_equal_lone_draws(self):
        """sample_pairs looks each class's rows up once per call; every pair
        it returns is still the pair sample_pair draws alone, also when the
        classes interleave."""
        rng = np.random.default_rng(3)
        ds = LabeledDataset(rng.normal(size=(50, 3)), rng.permutation(np.arange(50) % 2))
        for i, pair in enumerate(sample_pairs(ds, reps=60, seed=21)):
            lone = sample_pair(ds, i, seed=21)
            assert (pair.index_a, pair.index_b) == (lone.index_a, lone.index_b)
            np.testing.assert_array_equal(pair.a, lone.a)
            np.testing.assert_array_equal(pair.b, lone.b)

    def test_same_seed_reproducible(self, blobs_2d):
        a = sample_pairs(blobs_2d, reps=100, seed=4)
        b = sample_pairs(blobs_2d, reps=100, seed=4)
        assert [(p.index_a, p.index_b) for p in a] == [(p.index_a, p.index_b) for p in b]


class TestScalingAndInvariants:
    def test_minmax_scale_range(self, blobs_2d):
        scaled = minmax_scale(blobs_2d)
        assert scaled.features.min() == 0.0
        assert scaled.features.max() == 1.0
        np.testing.assert_array_equal(scaled.labels, blobs_2d.labels)

    def test_minmax_scale_constant_feature(self):
        ds = LabeledDataset(np.array([[1.0, 5.0], [2.0, 5.0]]), np.array([0, 1]))
        scaled = minmax_scale(ds)
        np.testing.assert_array_equal(scaled.features[:, 1], [0.0, 0.0])

    def test_non_finite_features_rejected(self):
        with pytest.raises(DatasetError, match="non-finite"):
            LabeledDataset(np.array([[np.nan], [1.0]]), np.array([0, 1]))

    def test_features_are_immutable(self, blobs_2d):
        with pytest.raises(ValueError):
            blobs_2d.features[0, 0] = 99.0
