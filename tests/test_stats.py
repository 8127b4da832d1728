import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import dbcscore
from dbcscore import (StatsError, compare_scores, mann_whitney_test,
                      signed_rank_test, summarize)
from dbcscore.stats import SIGNED_RANK_EXACT_LIMIT, _midranks


def exact_signed_rank_by_enumeration(d, alternative):
    """Literal oracle: walk every sign assignment of the observed |d| ranks."""
    d = np.asarray(d, dtype=np.float64)
    d = d[d != 0]
    n = d.size
    ranks = sps.rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    le = ge = 0
    for signs in itertools.product((1, -1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s > 0)
        le += w <= w_obs + 1e-9
        ge += w >= w_obs - 1e-9
    total = 2 ** n
    if alternative == "a_less":
        return le / total
    if alternative == "b_less":
        return ge / total
    return min(1.0, 2.0 * min(le, ge) / total)


def exact_mann_whitney_by_enumeration(a, b, alternative):
    """Literal oracle: walk every assignment of labels to the pooled data."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pooled = np.concatenate([a, b])
    na = a.size

    def u_of(sample_a, sample_b):
        u = 0.0
        for x in sample_a:
            for y in sample_b:
                u += 1.0 if x > y else (0.5 if x == y else 0.0)
        return u

    u_obs = u_of(a, b)
    le = ge = total = 0
    idx = range(pooled.size)
    for combo in itertools.combinations(idx, na):
        mask = np.zeros(pooled.size, dtype=bool)
        mask[list(combo)] = True
        u = u_of(pooled[mask], pooled[~mask])
        le += u <= u_obs + 1e-9
        ge += u >= u_obs - 1e-9
        total += 1
    if alternative == "a_less":
        return le / total
    if alternative == "b_less":
        return ge / total
    return min(1.0, 2.0 * min(le, ge) / total)


class TestSummarize:
    def test_singleton(self):
        s = summarize([0.5])
        assert s.mean == s.median == 0.5
        assert s.count == 1

    def test_symmetric_even_list(self):
        s = summarize([0.1, 0.2, 0.3, 0.4])
        assert s.median == pytest.approx(0.25)
        assert s.mean == pytest.approx(0.25)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=10_000)
        s = summarize(values)
        ordered = np.sort(values)
        assert s.minimum == ordered[0]
        assert s.maximum == ordered[-1]
        assert s.median == pytest.approx((ordered[4999] + ordered[5000]) / 2)
        assert s.mean == pytest.approx(values.mean())
        assert s.minimum <= s.q1 <= s.median <= s.q3 <= s.maximum

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            summarize([])

    def test_nan_rejected(self):
        with pytest.raises(StatsError, match="non-finite value nan at index 0"):
            summarize([np.nan, 0.5])

    def test_infinity_rejected(self):
        """An infinite score would make numpy's percentile warn and return
        NaN quartiles; it is refused before any statistic is taken."""
        with pytest.raises(StatsError, match="non-finite value inf at index 0"):
            summarize([np.inf, 0.5])
        with pytest.raises(StatsError, match="non-finite value -inf at index 1"):
            summarize([0.5, -np.inf])


def test_cli_import_leaves_scipy_unloaded():
    """The package runs on numpy alone: a fresh interpreter's import of the
    CLI must not pull scipy in."""
    src = str(Path(dbcscore.__file__).resolve().parents[1])
    code = "import sys, dbcscore.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "False"


class TestMidranks:
    @staticmethod
    def check(values):
        """Midranks equal scipy's, and the tie term the np.unique counts'."""
        values = np.array(values)
        ranks, tie_term = _midranks(values)
        np.testing.assert_array_equal(ranks, sps.rankdata(values))
        _, counts = np.unique(values, return_counts=True)
        assert tie_term == sum(int(t) ** 3 - int(t) for t in counts)

    @pytest.mark.parametrize("values", [
        [0.5],
        [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
        [0.0, -0.0, 1.0, -0.0, -1.0, 0.0],
        [np.inf, -np.inf, 2.0, np.inf, -np.inf, -np.inf],
        [7.0] * 9,
    ])
    def test_matches_rankdata_and_unique_counts(self, values):
        self.check(values)

    def test_matches_rankdata_on_random_ties(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            self.check(np.round(rng.normal(size=int(rng.integers(1, 80))),
                                int(rng.integers(0, 3))))


class TestNonFiniteScores:
    @pytest.mark.parametrize("test", [signed_rank_test, mann_whitney_test])
    @pytest.mark.parametrize("a, b, batch, index", [
        ([1.0] * 30, [math.nan] * 30, "b", 0),
        ([math.nan, 1.0, 2.0], [0.0, 0.5, 0.2], "a", 0),
        ([0.1, 0.2, 0.3], [0.4, math.inf, 0.6], "b", 1),
        ([0.1, 0.2, -math.inf], [0.4, 0.5, 0.6], "a", 2),
    ])
    def test_refused_naming_batch_and_index(self, test, a, b, batch, index):
        with pytest.raises(StatsError, match=f"batch {batch} .* at index {index}"):
            test(a, b, "a_less")

    def test_compare_scores_inherits_the_refusal(self):
        for method in ("signed_rank", "mann_whitney"):
            with pytest.raises(StatsError, match="non-finite"):
                compare_scores([0.1, math.nan], [0.2, 0.3], method=method)


class TestSignedRank:
    def test_all_positive_length3_exact_eighth(self):
        b = np.zeros(3)
        a = np.array([1.0, 2.0, 3.0])
        result = signed_rank_test(a, b, alternative="b_less")
        assert result.p_value == pytest.approx(1 / 8)
        assert result.statistic == 6.0
        assert result.n_effective == 3

    def test_identical_batches(self):
        a = np.array([0.3, 0.4, 0.5])
        result = signed_rank_test(a, a, alternative="two_sided")
        assert result.p_value == 1.0
        assert result.n_effective == 0
        assert result.statistic == 0.0

    def test_large_consistent_difference_rejects(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(0.2, 0.8, size=2500)
        a = b - rng.uniform(0.01, 0.05, size=2500)  # every a_i < b_i
        result = signed_rank_test(a, b, alternative="a_less")
        assert result.p_value < 1e-6

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 11))
            d = np.round(rng.normal(size=n), 2)
            a = rng.normal(size=n)
            b = a - d
            alt = ("a_less", "b_less", "two_sided")[int(rng.integers(3))]
            got = signed_rank_test(a, b, alt)
            if got.n_effective == 0:
                continue
            expected = exact_signed_rank_by_enumeration(a - b, alt)
            assert got.p_value == pytest.approx(expected, abs=1e-12)

    def test_exact_matches_scipy_without_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(6, 20))
            a = rng.normal(size=n)
            b = a - rng.normal(size=n)
            ours = signed_rank_test(a, b, "b_less")
            ref = sps.wilcoxon(a, b, alternative="greater", mode="exact")
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-10)

    def test_exact_and_normal_branches_agree(self):
        """Cross-validate the two code paths for n in [15, 25].

        One-sided alternatives, matching how the comparison methodology
        uses the test; the two-sided p doubles the one-sided error.
        """
        from dbcscore import stats as stats_mod
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(15, 26))
            a = rng.normal(size=n)
            b = a - rng.normal(size=n) - rng.uniform(-0.5, 0.5)
            alt = ("a_less", "b_less")[int(rng.integers(2))]
            exact = signed_rank_test(a, b, alt)
            old = stats_mod.SIGNED_RANK_EXACT_LIMIT
            stats_mod.SIGNED_RANK_EXACT_LIMIT = 0
            try:
                approx = signed_rank_test(a, b, alt)
            finally:
                stats_mod.SIGNED_RANK_EXACT_LIMIT = old
            worst = max(worst, abs(exact.p_value - approx.p_value))
        assert worst <= 0.01

    def test_scaling_invariance_of_statistic(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(size=40)
        b = rng.uniform(size=40)
        base = signed_rank_test(a, b, "a_less")
        scaled = signed_rank_test(3.7 * a, 3.7 * b, "a_less")
        assert base.statistic == scaled.statistic
        assert base.p_value == scaled.p_value

    def test_swap_symmetry(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        p_ab = signed_rank_test(a, b, "a_less").p_value
        p_ba = signed_rank_test(b, a, "b_less").p_value
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_p_in_unit_interval_under_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            a = rng.integers(0, 3, size=n).astype(float)
            b = rng.integers(0, 3, size=n).astype(float)
            for alt in ("a_less", "b_less", "two_sided"):
                p = signed_rank_test(a, b, alt).p_value
                assert 0.0 <= p <= 1.0

    def test_normal_branch_matches_scipy_under_heavy_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(40, 120))
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
            for alt, scipy_alt in (("a_less", "less"), ("b_less", "greater"),
                                   ("two_sided", "two-sided")):
                ours = signed_rank_test(a, b, alt)
                assert ours.n_effective > SIGNED_RANK_EXACT_LIMIT
                ref = sps.wilcoxon(a, b, alternative=scipy_alt, method="approx",
                                   correction=True)
                assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(StatsError):
            signed_rank_test([1.0, 2.0], [1.0], "a_less")


class TestMannWhitney:
    def test_disjoint_triples_exact_twentieth(self):
        result = mann_whitney_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], "a_less")
        assert result.p_value == pytest.approx(1 / 20)
        assert result.statistic == 0.0

    def test_identical_multisets_two_sided_one(self):
        a = [0.2, 0.4, 0.4, 0.9]
        result = mann_whitney_test(a, list(a), "two_sided")
        assert result.p_value == 1.0

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            na = int(rng.integers(2, 6))
            nb = int(rng.integers(2, 6))
            a = np.round(rng.normal(size=na), 1)
            b = np.round(rng.normal(size=nb), 1)
            alt = ("a_less", "b_less", "two_sided")[int(rng.integers(3))]
            got = mann_whitney_test(a, b, alt)
            expected = exact_mann_whitney_by_enumeration(a, b, alt)
            assert got.p_value == pytest.approx(expected, abs=1e-12)

    def test_exact_matches_enumeration_oracle_under_heavy_ties(self):
        rng = np.random.default_rng(18)
        for _ in range(40):
            na = int(rng.integers(1, 12))
            nb = int(rng.integers(1, 13 - na))
            a = rng.integers(0, 3, size=na).astype(float)
            b = rng.integers(0, 3, size=nb).astype(float)
            alt = ("a_less", "b_less", "two_sided")[int(rng.integers(3))]
            got = mann_whitney_test(a, b, alt)
            expected = exact_mann_whitney_by_enumeration(a, b, alt)
            assert got.p_value == pytest.approx(expected, abs=1e-12)

    def test_normal_branch_matches_scipy_under_heavy_ties(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            a = rng.integers(0, 5, size=int(rng.integers(15, 90))).astype(float)
            b = rng.integers(1, 6, size=int(rng.integers(15, 90))).astype(float)
            for alt, scipy_alt in (("a_less", "less"), ("b_less", "greater"),
                                   ("two_sided", "two-sided")):
                ours = mann_whitney_test(a, b, alt)
                ref = sps.mannwhitneyu(a, b, alternative=scipy_alt, method="asymptotic")
                assert ours.statistic == ref.statistic
                assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_shifted_gaussians_reject_with_permutation_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(loc=0.0, scale=1.0, size=200)
        b = rng.normal(loc=2.0, scale=1.0, size=200)
        result = mann_whitney_test(a, b, "a_less")
        assert result.p_value < 1e-6

        pooled = np.concatenate([a, b])
        ranks = sps.rankdata(pooled)
        u_obs = ranks[:200].sum() - 200 * 201 / 2
        perm_rng = np.random.default_rng(12)
        resamples = 100_000
        tiled = np.tile(ranks, (resamples, 1))
        permuted = perm_rng.permuted(tiled, axis=1)
        u_null = permuted[:, :200].sum(axis=1) - 200 * 201 / 2
        perm_p = (np.sum(u_null <= u_obs) + 1) / (resamples + 1)
        assert perm_p < 1e-4

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.01, 0.99, size=25)
        b = rng.uniform(0.01, 0.99, size=30)
        base = mann_whitney_test(a, b, "a_less")
        warped = mann_whitney_test(np.exp(a) ** 3, np.exp(b) ** 3, "a_less")
        assert base.statistic == warped.statistic
        assert base.p_value == warped.p_value

    def test_matches_scipy_large_samples(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=80)
        b = rng.normal(loc=0.3, size=90)
        ours = mann_whitney_test(a, b, "a_less")
        ref = sps.mannwhitneyu(a, b, alternative="less", method="asymptotic")
        assert ours.statistic == pytest.approx(ref.statistic)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_constant_inputs(self):
        result = mann_whitney_test([1.0] * 30, [1.0] * 40, "two_sided")
        assert result.p_value == 1.0

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            mann_whitney_test([], [1.0], "a_less")


class TestCompareScores:
    def test_report_fields_and_decision(self):
        rng = np.random.default_rng(15)
        b = rng.uniform(0.4, 0.6, size=200)
        a = b - 0.05
        report = compare_scores(a, b, method="signed_rank", alternative="a_less")
        assert report["rejected"] is True
        assert report["null_hypothesis"] == "a >= b"
        assert report["summary_a"]["median"] < report["summary_b"]["median"]
        assert 0.0 <= report["p_value"] <= 1.0

    def test_self_comparison_not_rejected(self):
        a = list(np.linspace(0.1, 0.9, 50))
        report = compare_scores(a, a, method="signed_rank", alternative="a_less")
        assert report["p_value"] == 1.0
        assert report["rejected"] is False
        assert "no significant difference" in report["decision"]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -0.1, math.nan])
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(StatsError, match="alpha"):
            compare_scores([0.1, 0.2, 0.3], [0.4, 0.5, 0.7], alpha=alpha)

    def test_unknown_method(self):
        with pytest.raises(StatsError):
            compare_scores([1.0], [2.0], method="bogus")
