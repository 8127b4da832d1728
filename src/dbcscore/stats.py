"""Score-batch summaries and nonparametric rank comparisons, on numpy alone.

Two tests decide whether one model's scores are stochastically smaller
than another's: the paired signed-rank test (valid when both batches were
scored on the identical pair sequence, i.e. the same seed) and the
unpaired Mann-Whitney test as a fallback for batches from different
seeds. Both rank by one sort, with midranks for ties, and share one exact
routine, the null distribution of the rank sum of a random subset of the
observed ranks, and one tie- and continuity-corrected normal tail for
larger samples. Non-finite scores are refused with ``StatsError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALTERNATIVES = ("a_less", "b_less", "two_sided")

SIGNED_RANK_EXACT_LIMIT = 25   # exact enumeration of sign assignments up to here
MANN_WHITNEY_EXACT_LIMIT = 20  # exact over label assignments up to this combined size


class StatsError(ValueError):
    """Raised for invalid test inputs."""


@dataclass(frozen=True)
class ScoreSummary:
    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    q1: float
    q3: float


@dataclass(frozen=True)
class RankTestResult:
    statistic: float
    p_value: float
    alternative: str
    method: str
    n_effective: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise StatsError(f"p-value {self.p_value} outside [0, 1]")


def summarize(scores) -> ScoreSummary:
    """Exact order statistics; even-length medians average the middle two.
    A non-finite score raises StatsError."""
    values = _finite(scores, "score list")
    if values.size == 0:
        raise StatsError("cannot summarize an empty score list")
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return ScoreSummary(count=values.size, mean=float(values.mean()),
                        median=float(median), minimum=float(values.min()),
                        maximum=float(values.max()), q1=float(q1), q3=float(q3))


def _check_alternative(alternative: str) -> None:
    if alternative not in ALTERNATIVES:
        raise StatsError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")


def _finite(scores, name: str) -> np.ndarray:
    values = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise StatsError(f"{name} holds the non-finite value "
                         f"{values.flat[bad[0]]} at index {bad[0]}")
    return values


def _midranks(values: np.ndarray):
    """1-based midranks of a 1-D array and the tie term sum(t^3 - t) over
    its tie groups, split on ``!=`` of the sorted values (so -0.0 == 0.0)."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    sizes = np.diff(np.r_[starts, values.size])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(starts + (sizes + 1) / 2.0, sizes)
    return ranks, sum(t ** 3 - t for t in sizes[sizes > 1].tolist())


def _exact_tails(ranks: np.ndarray, statistic: float, size: int | None):
    """P(S <= statistic) and P(S >= statistic), where S is the rank sum of
    a uniformly random subset of ``ranks``: of any size when ``size`` is
    None, else of that size. Midranks are multiples of 1/2, so the sums
    run over doubled ranks, which are integers."""
    r2 = np.rint(2.0 * ranks).astype(np.int64)
    top = int(r2.sum())
    # dp[j, s] = number of j-subsets of the ranks seen so far with doubled sum s
    dp = np.zeros(((r2.size if size is None else size) + 1, top + 1))
    dp[0, 0] = 1.0
    for r in r2.tolist():
        dp[1:, r:] += dp[:-1, :top + 1 - r]
    counts = dp.sum(axis=0) if size is None else dp[size]
    stat2 = int(np.rint(2.0 * statistic))
    total = float(counts.sum())
    return float(counts[:stat2 + 1].sum()) / total, float(counts[stat2:].sum()) / total


def _normal_tails(statistic: float, mean: float, var: float):
    """Continuity-corrected normal P(S <= statistic) and P(S >= statistic);
    a null of zero variance gives (1, 1)."""
    if var <= 0.0:
        return 1.0, 1.0
    sd = math.sqrt(var)
    return tuple(0.5 * math.erfc(x / sd / math.sqrt(2.0))
                 for x in (mean - statistic - 0.5, statistic - mean - 0.5))


def _finish(p_le: float, p_ge: float, alternative: str) -> float:
    if alternative == "a_less":
        p = p_le
    elif alternative == "b_less":
        p = p_ge
    else:
        p = 2.0 * min(p_le, p_ge)
    return min(max(p, 0.0), 1.0)


def signed_rank_test(scores_a, scores_b, alternative: str = "two_sided") -> RankTestResult:
    """Paired Wilcoxon signed-rank test on index-paired score lists.

    Differences d_i = a_i - b_i; zero differences are dropped, ties in |d|
    take midranks, and the statistic is the rank sum of positive d. With
    ``a_less`` the alternative is that a's scores are stochastically
    smaller (small statistic), with ``b_less`` the reverse. Exact p-values
    enumerate the 2^n sign assignments while n_effective <= 25; beyond that
    a tie- and continuity-corrected normal approximation is used. All-zero
    differences give p = 1.
    """
    _check_alternative(alternative)
    a = _finite(scores_a, "score batch a")
    b = _finite(scores_b, "score batch b")
    if a.shape != b.shape or a.ndim != 1:
        raise StatsError(f"paired batches must be equal-length vectors, "
                         f"got shapes {a.shape} and {b.shape}")
    if a.size == 0:
        raise StatsError("empty score lists")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return RankTestResult(statistic=0.0, p_value=1.0, alternative=alternative,
                              method="signed_rank_paired", n_effective=0)
    ranks, tie_term = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= SIGNED_RANK_EXACT_LIMIT:
        # the 2^n sign assignments are the subsets of ranks counted in W+
        p_le, p_ge = _exact_tails(ranks, w_plus, None)
    else:
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
        p_le, p_ge = _normal_tails(w_plus, n * (n + 1) / 4.0, var)
    return RankTestResult(statistic=w_plus,
                          p_value=_finish(p_le, p_ge, alternative),
                          alternative=alternative,
                          method="signed_rank_paired", n_effective=n)


def mann_whitney_test(scores_a, scores_b, alternative: str = "two_sided") -> RankTestResult:
    """Unpaired Mann-Whitney U test with midrank ties.

    The statistic is U for sample a. Exact p-values enumerate the label
    assignments (choose which of the combined ranks belong to a) while the
    combined size is <= 20; otherwise the tie- and continuity-corrected
    normal approximation applies.
    """
    _check_alternative(alternative)
    a = _finite(scores_a, "score batch a")
    b = _finite(scores_b, "score batch b")
    if a.size == 0 or b.size == 0:
        raise StatsError("both score lists must be nonempty")
    na, nb, big_n = a.size, b.size, a.size + b.size
    ranks, tie_term = _midranks(np.concatenate([a, b], axis=None))
    rank_sum_a = float(ranks[:na].sum())
    u_a = rank_sum_a - na * (na + 1) / 2.0
    if big_n <= MANN_WHITNEY_EXACT_LIMIT:
        # U is a's rank sum less a constant, so its tails are the rank sum's
        p_le, p_ge = _exact_tails(ranks, rank_sum_a, na)
    else:
        var = (na * nb / 12.0) * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
        p_le, p_ge = _normal_tails(u_a, na * nb / 2.0, var)
    return RankTestResult(statistic=u_a,
                          p_value=_finish(p_le, p_ge, alternative),
                          alternative=alternative,
                          method="mann_whitney_unpaired", n_effective=big_n)


def compare_scores(scores_a, scores_b, method: str = "signed_rank",
                   alternative: str = "a_less", alpha: float = 0.01) -> dict:
    """Build the comparison report: summaries, test outcome and decision.

    ``method`` is 'signed_rank' (paired; requires index-paired batches) or
    'mann_whitney' (unpaired). The decision rejects the null "a >= b" (or
    its counterpart for the chosen alternative) when p < alpha, which must
    lie in (0, 1).
    """
    if not 0.0 < alpha < 1.0:
        raise StatsError(f"alpha must lie in (0, 1), got {alpha}")
    if method == "signed_rank":
        result = signed_rank_test(scores_a, scores_b, alternative)
    elif method == "mann_whitney":
        result = mann_whitney_test(scores_a, scores_b, alternative)
    else:
        raise StatsError(f"method must be 'signed_rank' or 'mann_whitney', got {method!r}")
    null = {"a_less": "a >= b", "b_less": "b >= a", "two_sided": "a == b"}[alternative]
    return {
        "summary_a": vars(summarize(scores_a)),
        "summary_b": vars(summarize(scores_b)),
        "method": result.method,
        "alternative": alternative,
        "null_hypothesis": null,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "n_effective": result.n_effective,
        "alpha": alpha,
        "rejected": bool(result.p_value < alpha),
        "decision": (f"h0({null}) rejected at alpha={alpha:g}"
                     if result.p_value < alpha else
                     f"no significant difference at alpha={alpha:g}"),
    }
