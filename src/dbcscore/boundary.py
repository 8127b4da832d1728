"""Boundary-point generation along segments between opposite-class points.

A decision function ``f`` maps feature rows to probabilities; a crossing is
a point ``c = lam*a + (1-lam)*b`` with ``f(c)`` as close to 0.5 as the
configured precision allows. Crossings for a whole batch of segments are
driven in lockstep so that construction cost is dominated by batched
forward passes, while each segment's result is identical to what a lone
``find_crossing`` call produces for it.

Decision functions must accept a 2-D array of rows and return a 1-D array
of values in [0, 1]; ``MlpModel`` instances satisfy this directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ClassPair, LabeledDataset, k_nearest, sample_pairs

DEFAULT_EPSILON = 1.0 / 256.0
MAX_FAILURE_RATE = 0.10


class CrossingError(ValueError):
    """Raised when a segment's endpoints do not straddle the boundary."""


class FailureRateExceeded(RuntimeError):
    """Raised when more than MAX_FAILURE_RATE of crossings fail."""


@dataclass(frozen=True)
class CrossingConfig:
    """Precision and method for locating boundary crossings.

    ``epsilon`` bounds the width of the interpolation-parameter bracket.
    ``linear_scan`` walks lam = 0, eps, 2*eps, ... and keeps the lam whose
    f-value is closest to 0.5; ``bisection`` halves a straddling bracket in
    O(log(1/eps)) evaluations. ``tolerance_on_f`` optionally accepts a point
    early once |f(c) - 0.5| <= tolerance.
    """

    epsilon: float = DEFAULT_EPSILON
    method: str = "bisection"
    tolerance_on_f: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.method not in ("linear_scan", "bisection"):
            raise ValueError(f"method must be 'linear_scan' or 'bisection', got {self.method!r}")
        if self.tolerance_on_f is not None and self.tolerance_on_f < 0:
            raise ValueError("tolerance_on_f must be nonnegative")


@dataclass(frozen=True)
class Crossing:
    """One located boundary point with its bracket certificate.

    ``point = lam*a + (1-lam)*b``. The bracket [lam_lo, lam_hi] contains
    lam, and the f-values at its ends straddle 0.5 (bisection mode
    guarantees width <= epsilon unless a tolerance accepted early).
    """

    point: np.ndarray
    lam: float
    f_value: float
    lam_lo: float
    lam_hi: float


@dataclass(frozen=True)
class CrossingFailure:
    pair_index: int
    index_a: int
    index_b: int
    reason: str


@dataclass(frozen=True)
class ColumnProvenance:
    pair_index: int
    index_a: int
    index_b: int
    lam: float
    f_value: float


@dataclass(frozen=True)
class AdversarialSet:
    """Matrix of boundary points, one column per example (shape n x m)."""

    points: np.ndarray
    kind: str
    provenance: tuple[ColumnProvenance, ...]
    failures: tuple[CrossingFailure, ...] = ()

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] < 1:
            raise ValueError(f"points must be an n x m matrix with m >= 1, got {self.points.shape}")
        if self.kind not in ("global", "local"):
            raise ValueError(f"kind must be 'global' or 'local', got {self.kind!r}")

    @property
    def dimension(self) -> int:
        return self.points.shape[0]

    @property
    def sample_count(self) -> int:
        return self.points.shape[1]


def _interp(lam, A, B):
    # x = lam*a + (1-lam)*b, rowwise
    return lam[:, None] * A + (1.0 - lam[:, None]) * B


def _crossing_kernel(f, A, B, config: CrossingConfig):
    """Locate crossings for oriented segments. A rows are on the f < 0.5
    side, B rows on the f >= 0.5 side; the caller has already verified
    this. Returns (lam, f_value, lam_lo, lam_hi) arrays of length m.

    The returned lam is always a point where f was evaluated; the final
    bracket [lam_lo, lam_hi] contains it, straddles 0.5 and has width
    <= epsilon, so the whole search costs ceil(log2(1/epsilon)) f-rows
    beyond the endpoint checks.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    m = A.shape[0]
    if config.method == "linear_scan":
        lam, fval, lo, hi, _, _ = _linear_scan_kernel(f, A, B, config)
        return lam, fval, lo, hi

    lo = np.zeros(m)   # lam=0 is b: f >= 0.5
    hi = np.ones(m)    # lam=1 is a: f < 0.5
    lam = np.full(m, 0.5)
    fval = np.full(m, np.nan)
    done = np.zeros(m, dtype=bool)
    iters = math.ceil(math.log2(1.0 / config.epsilon))
    for _ in range(iters):
        active = np.flatnonzero(~done)
        if active.size == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        fm = np.asarray(f(_interp(mid, A[active], B[active])), dtype=np.float64)
        g = fm - 0.5
        lam[active] = mid
        fval[active] = fm
        exact = g == 0.0
        # an exact hit certifies with a zero-width bracket
        collapsed = active[exact]
        lo[collapsed] = mid[exact]
        hi[collapsed] = mid[exact]
        done[collapsed] = True
        ge = ~exact & (g >= 0.0)
        lt = g < 0.0
        lo[active[ge]] = mid[ge]
        hi[active[lt]] = mid[lt]
        if config.tolerance_on_f is not None:
            # mid stays an endpoint of the updated bracket, which straddles
            done[active[np.abs(g) <= config.tolerance_on_f]] = True
    return lam, fval, lo, hi


def _linear_scan_kernel(f, A, B, config: CrossingConfig):
    # Also returns g at the grid ends so callers can audit the
    # precondition without extra evaluations.
    eps = config.epsilon
    count = math.floor(1.0 / eps) + 1
    grid = np.minimum(eps * np.arange(count), 1.0)
    m = A.shape[0]
    lam = np.empty(m)
    fval = np.empty(m)
    lam_lo = np.empty(m)
    lam_hi = np.empty(m)
    g_first = np.empty(m)
    g_last = np.empty(m)
    for i in range(m):
        points = grid[:, None] * A[i] + (1.0 - grid)[:, None] * B[i]
        fv = np.asarray(f(points), dtype=np.float64)
        g = fv - 0.5
        g_first[i] = g[0]
        g_last[i] = g[-1]
        best = int(np.argmin(np.abs(g)))
        lam[i] = grid[best]
        fval[i] = fv[best]
        straddle = np.flatnonzero(g[:-1] * g[1:] <= 0.0)
        if straddle.size:
            # prefer the sign-change bracket adjacent to the winner
            j = straddle[np.argmin(np.abs(straddle - best))]
            lam_lo[i] = grid[j]
            lam_hi[i] = grid[j + 1]
        else:
            # grid missed lam=1 (1/eps not integral); f(a) < 0.5 closes it
            lam_lo[i] = grid[-1]
            lam_hi[i] = 1.0
    return lam, fval, lam_lo, lam_hi, g_first, g_last


def find_crossing(f, a, b, config: CrossingConfig = CrossingConfig()) -> Crossing:
    """Locate the boundary crossing on the segment between a and b.

    Requires f(a) < 0.5 <= f(b) and a finite f at the located point;
    violations raise CrossingError rather than guessing. Returns the
    crossing point, its interpolation parameter and the bracket
    certificate. The linear scan reads the endpoint values off its own
    grid, so its evaluation count stays at floor(1/epsilon) + 1 when
    1/epsilon is integral.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"a and b must be vectors of equal shape, got {a.shape} and {b.shape}")
    if np.array_equal(a, b):
        raise CrossingError("a and b are identical vectors")

    if config.method == "bisection":
        ends = np.asarray(f(np.vstack([a, b])), dtype=np.float64)
        fa, fb = float(ends[0]), float(ends[1])
        _require_straddle(fa, fb)
        lam, fval, lo, hi = _crossing_kernel(f, a[None, :], b[None, :], config)
    else:
        lam, fval, lo, hi, g_first, g_last = _linear_scan_kernel(
            f, a[None, :], b[None, :], config)
        fb = float(g_first[0]) + 0.5
        if math.floor(1.0 / config.epsilon) * config.epsilon == 1.0:
            fa = float(g_last[0]) + 0.5
        else:
            fa = float(np.asarray(f(a[None, :]), dtype=np.float64)[0])
        _require_straddle(fa, fb)
    if not np.isfinite(fval[0]):
        raise CrossingError(f"non-finite decision value {fval[0]} at lam={lam[0]:.6g}")
    point = lam[0] * a + (1.0 - lam[0]) * b
    return Crossing(point=point, lam=float(lam[0]), f_value=float(fval[0]),
                    lam_lo=float(lo[0]), lam_hi=float(hi[0]))


def _require_straddle(fa: float, fb: float) -> None:
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise CrossingError(
            f"non-finite decision value at an endpoint: f(a)={fa}, f(b)={fb}")
    if not (fa < 0.5 <= fb):
        raise CrossingError(
            f"endpoints do not straddle the boundary: f(a)={fa:.6g}, f(b)={fb:.6g} "
            "(need f(a) < 0.5 <= f(b))"
        )


def _crossing_set(f, dataset: LabeledDataset, ends, f_ends, kind: str,
                  config: CrossingConfig) -> AdversarialSet:
    """One crossing per segment between dataset rows, columns in order.

    ``ends`` holds one (row, row) index pair per segment and ``f_ends``
    the f-values at those rows. Orientation ignores labels: whichever end
    f puts strictly below 0.5 becomes the A side. A segment whose ends f
    puts on the same side, or whose f-value is non-finite at an end or at
    the located crossing, is recorded as a CrossingFailure at its position
    in ``ends``. More than MAX_FAILURE_RATE failures, or fewer than two
    crossings, abort the set.
    """
    ends = np.asarray(ends, dtype=np.int64)
    f_ends = np.asarray(f_ends, dtype=np.float64)
    finite_ends = np.isfinite(f_ends).all(axis=1)
    forward = finite_ends & (f_ends[:, 0] < 0.5) & (f_ends[:, 1] >= 0.5)
    backward = finite_ends & (f_ends[:, 1] < 0.5) & (f_ends[:, 0] >= 0.5)
    crossed = forward | backward
    ok = np.flatnonzero(crossed)
    oriented = np.where(backward[:, None], ends[:, ::-1], ends)

    def failure(i, reason):
        fa, fb = f_ends[i]
        return CrossingFailure(pair_index=int(i), index_a=int(ends[i, 0]),
                               index_b=int(ends[i, 1]),
                               reason=f"{reason} (f={fa:.6g} and f={fb:.6g})")

    failures = [failure(i, "both endpoints on the same side of 0.5"
                        if finite_ends[i]
                        else "non-finite decision value at an endpoint")
                for i in np.flatnonzero(~crossed)]
    _check_failures(failures, len(ends), ok.size, kind)
    A = dataset.features[oriented[ok, 0]]
    B = dataset.features[oriented[ok, 1]]
    lam, fval, _, _ = _crossing_kernel(f, A, B, config)
    finite = np.isfinite(fval)
    if not finite.all():
        failures = sorted(failures + [
            failure(ok[j], f"non-finite decision value at lam={lam[j]:.6g}")
            for j in np.flatnonzero(~finite)], key=lambda x: x.pair_index)
        _check_failures(failures, len(ends), int(finite.sum()), kind)
        ok, A, B, lam, fval = ok[finite], A[finite], B[finite], lam[finite], fval[finite]
    points = _interp(lam, A, B)
    provenance = tuple(
        ColumnProvenance(pair_index=i, index_a=ia, index_b=ib, lam=l, f_value=v)
        for i, (ia, ib), l, v in zip(ok.tolist(), oriented[ok].tolist(),
                                     lam.tolist(), fval.tolist())
    )
    return AdversarialSet(points=points.T, kind=kind, provenance=provenance,
                          failures=tuple(failures))


def _check_failures(failures, attempted, crossings, kind):
    if len(failures) / attempted > MAX_FAILURE_RATE:
        raise FailureRateExceeded(
            f"{len(failures)} of {attempted} crossings failed while building the "
            f"{kind} adversarial set; the failure rate exceeds {MAX_FAILURE_RATE:.0%}. "
            "First failure: " + failures[0].reason
        )
    if crossings < 2:
        raise FailureRateExceeded(
            f"only {crossings} of {attempted} crossings succeeded while building "
            f"the {kind} adversarial set; need at least 2"
        )


def global_adversarial_set(f, dataset: LabeledDataset, reps: int,
                           config: CrossingConfig = CrossingConfig(),
                           seed: int = 0) -> AdversarialSet:
    """One crossing per sampled cross-class pair, columns in sampling order.

    Pairs whose endpoints f places on the same side are recorded as
    failures and skipped; more than MAX_FAILURE_RATE failures aborts, and
    at least two successful columns are required.
    """
    if reps < 2:
        raise ValueError(f"reps must be >= 2 for a global set, got {reps}")
    ends = np.array([(p.index_a, p.index_b) for p in sample_pairs(dataset, reps, seed)])
    f_rows = np.asarray(f(dataset.features), dtype=np.float64)
    return _crossing_set(f, dataset, ends, f_rows[ends], "global", config)


def local_adversarial_set(f, dataset: LabeledDataset, pair: ClassPair, k: int,
                          config: CrossingConfig = CrossingConfig(),
                          expand_around: str = "b") -> AdversarialSet:
    """Crossings from one endpoint to k+1 neighbors of the other.

    The anchor (``a`` by default) is crossed toward the k+1 nearest
    same-class neighbors of the expanded endpoint, the endpoint itself
    included and listed first, yielding the k+1 boundary points that
    sample one segment of the boundary. Failures carry the neighbor's
    rank as their ``pair_index``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if expand_around not in ("a", "b"):
        raise ValueError(f"expand_around must be 'a' or 'b', got {expand_around!r}")
    if expand_around == "b":
        anchor_index, hub, hub_index, hub_class = pair.index_a, pair.b, pair.index_b, 1
    else:
        anchor_index, hub, hub_index, hub_class = pair.index_b, pair.a, pair.index_a, 0
    neighbors = k_nearest(dataset, hub, class_filter=hub_class, k=k + 1)
    if hub_index in neighbors:
        neighbors.remove(hub_index)
        neighbors.insert(0, hub_index)

    f_rows = np.asarray(f(dataset.features[[anchor_index] + neighbors]), dtype=np.float64)
    ends = np.column_stack([np.full(len(neighbors), anchor_index), neighbors])
    f_ends = np.column_stack([np.full(len(neighbors), f_rows[0]), f_rows[1:]])
    return _crossing_set(f, dataset, ends, f_ends, "local", config)


def save_adversarial_set(aset: AdversarialSet, path) -> Path:
    """Write examples as CSV rows plus a ``.provenance.csv`` audit sidecar."""
    path = Path(path)
    lines = [",".join(f"x{i}" for i in range(aset.dimension))]
    for column in aset.points.T:
        lines.append(",".join(repr(float(v)) for v in column))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    sidecar = path.with_suffix(".provenance.csv")
    with open(sidecar, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pair_index", "index_a", "index_b", "lam", "f_value"])
        for rec in aset.provenance:
            writer.writerow([rec.pair_index, rec.index_a, rec.index_b,
                             repr(rec.lam), repr(rec.f_value)])
    return sidecar
