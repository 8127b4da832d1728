import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbcscore import (DatasetError, LabeledDataset, k_nearest, load_csv,
                      make_blobs, minmax_scale, sample_pair, sample_pairs,
                      save_csv)


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
