"""Score-batch summaries and nonparametric rank comparisons.

Two tests decide whether one model's scores are stochastically smaller
than another's: the paired signed-rank test (valid when both batches were
scored on the identical pair sequence, i.e. the same seed) and the
unpaired Mann-Whitney test as a fallback for batches from different
seeds. Both use midranks for ties. Exact p-values come from the full
null distribution of the statistic conditioned on the observed ranks,
computed by generating-function convolution; larger samples fall back to
the normal approximation with tie and continuity corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

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
    """Exact order statistics; even-length medians average the middle two."""
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise StatsError("cannot summarize an empty score list")
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return ScoreSummary(count=values.size, mean=float(values.mean()),
                        median=float(median), minimum=float(values.min()),
                        maximum=float(values.max()), q1=float(q1), q3=float(q3))


def _check_alternative(alternative: str) -> None:
    if alternative not in ALTERNATIVES:
        raise StatsError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _tail_probs(counts: np.ndarray, stat2: int, total: float):
    # counts[s] = number of assignments with doubled statistic s
    p_le = float(counts[:stat2 + 1].sum()) / total
    p_ge = float(counts[stat2:].sum()) / total
    return p_le, p_ge


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
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
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
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= SIGNED_RANK_EXACT_LIMIT:
        # distribution of W+ over sign assignments, on doubled ranks so
        # midranks (multiples of 1/2) become integers
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        counts = np.zeros(int(r2.sum()) + 1, dtype=np.float64)
        counts[0] = 1.0
        for r in r2:
            counts[int(r):] += counts[:-int(r)]
        stat2 = int(np.rint(2.0 * w_plus))
        p_le, p_ge = _tail_probs(counts, stat2, 2.0 ** n)
    else:
        mean = n * (n + 1) / 4.0
        tie_term = sum(t ** 3 - t for t in _tie_sizes(np.abs(d)))
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
        sd = math.sqrt(var)
        p_le = _normal_sf((mean - w_plus - 0.5) / sd)
        p_ge = _normal_sf((w_plus - mean - 0.5) / sd)
    return RankTestResult(statistic=w_plus,
                          p_value=_finish(p_le, p_ge, alternative),
                          alternative=alternative,
                          method="signed_rank_paired", n_effective=n)


def _tie_sizes(values) -> list[int]:
    _, counts = np.unique(values, return_counts=True)
    return [int(c) for c in counts if c > 1]


def mann_whitney_test(scores_a, scores_b, alternative: str = "two_sided") -> RankTestResult:
    """Unpaired Mann-Whitney U test with midrank ties.

    The statistic is U for sample a. Exact p-values enumerate the label
    assignments (choose which of the combined ranks belong to a) while the
    combined size is <= 20; otherwise the tie- and continuity-corrected
    normal approximation applies.
    """
    _check_alternative(alternative)
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise StatsError("both score lists must be nonempty")
    na, nb = a.size, b.size
    combined = np.concatenate([a, b])
    ranks = rankdata(combined)
    u_a = float(ranks[:na].sum()) - na * (na + 1) / 2.0

    if na + nb <= MANN_WHITNEY_EXACT_LIMIT:
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        # dp[j][s] = number of j-subsets of the ranks seen so far with
        # doubled rank sum s
        max_sum = int(r2.sum())
        dp = np.zeros((na + 1, max_sum + 1), dtype=np.float64)
        dp[0, 0] = 1.0
        for r in r2:
            r = int(r)
            dp[1:, r:] += dp[:-1, :max_sum + 1 - r]
        counts = dp[na]
        # doubled U = doubled rank sum - na*(na+1); shift to U-indexed array
        shift = na * (na + 1)
        u2 = int(np.rint(2.0 * u_a))
        u_counts = counts[shift:] if shift <= max_sum else np.zeros(1)
        p_le, p_ge = _tail_probs(u_counts, u2, math.comb(na + nb, na))
    else:
        big_n = na + nb
        mean = na * nb / 2.0
        tie_term = sum(t ** 3 - t for t in _tie_sizes(combined))
        var = (na * nb / 12.0) * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
        if var <= 0.0:
            return RankTestResult(statistic=u_a, p_value=1.0, alternative=alternative,
                                  method="mann_whitney_unpaired", n_effective=big_n)
        sd = math.sqrt(var)
        p_le = _normal_sf((mean - u_a - 0.5) / sd)
        p_ge = _normal_sf((u_a - mean - 0.5) / sd)
    return RankTestResult(statistic=u_a,
                          p_value=_finish(p_le, p_ge, alternative),
                          alternative=alternative,
                          method="mann_whitney_unpaired", n_effective=na + nb)


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
