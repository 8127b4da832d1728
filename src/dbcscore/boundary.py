"""Boundary-point generation along segments between opposite-class points.

A decision function ``f`` maps feature rows to probabilities; a crossing is
a point ``c = lam*a + (1-lam)*b`` with ``f(c)`` as close to 0.5 as the
configured precision allows. Crossings for a whole batch of segments are
driven in lockstep so that construction cost is dominated by batched
forward passes, while each segment's result is identical to what a lone
``find_crossing`` call produces for it. A global set, a local set and a
local batch are all one stack of segment lists, planned before any
search: each distinct segment searched once, in its first block, and
every set that holds it reads that one result. Orientation and the
failure rules apply per set; what a block searches depends on the sets
up to its own only.

Decision functions must accept a 2-D array of n rows and return an array
of shape (n,) with values in [0, 1]; ``MlpModel`` instances satisfy this
directly. Another shape, or a finite value outside [0, 1], raises
ValueError; NaN and +-inf are recorded as crossing failures. A decision
function must neither write nor keep the rows it is given: the bisection
reuses one buffer for the midpoints of every step.

An ``MlpModel`` whose first hidden layer is narrower than its input
(h1 < d) is searched in its first-layer space. That layer is affine, so
W1(lam*a + (1-lam)*b) = lam*W1 a + (1-lam)*W1 b: the kernel interpolates
the h1-wide rows ``rows @ W1.T`` and evaluates only the rest of the net.
Segment ends are still oriented by the model itself, and the crossing
points are still interpolated between the input rows. A provenance
``f_value`` may differ from the input-space search's by a few ulps, and
so, where f lies within ulps of 0.5, may a halving decision.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ClassPair, DatasetError, LabeledDataset, k_nearest, sample_pairs
from .model import MlpModel, _first_layer_tail

DEFAULT_EPSILON = 1.0 / 256.0
MAX_FAILURE_RATE = 0.10
# rows x dimension that one f call of a batch may receive: it sizes the
# linear scan's chunks and a local batch's blocks
ROW_BUDGET = 2 ** 19


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
    O(log(1/eps)) evaluations.
    """

    epsilon: float = DEFAULT_EPSILON
    method: str = "bisection"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.method not in ("linear_scan", "bisection"):
            raise ValueError(f"method must be 'linear_scan' or 'bisection', got {self.method!r}")


@dataclass(frozen=True)
class Crossing:
    """One located boundary point with its bracket certificate.

    ``point = lam*a + (1-lam)*b``. The f-values at the ends of the bracket
    [lam_lo, lam_hi] straddle 0.5. Bisection's bracket contains lam and is
    at most epsilon wide. The linear scan's bracket is the sign change of
    its grid nearest to lam, or [last grid point, 1] when the grid has
    none; it holds lam whenever f is monotone along the segment.
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


def _f_values(f, rows) -> np.ndarray:
    """f's values on the 2-D array ``rows``: the one place that reads a
    decision function's output. A result not of shape (n,) for n rows, or
    a finite value outside [0, 1], breaks the contract of f and raises
    ValueError. NaN and +-inf pass through, for the caller to record as
    crossing failures."""
    values = np.asarray(f(rows), dtype=np.float64)
    if values.shape != (len(rows),):
        raise ValueError(f"decision function returned shape {values.shape} for "
                         f"{len(rows)} rows; expected ({len(rows)},)")
    # NaN fails this test too, so the exact check runs only on a failure
    if not ((values >= 0.0) & (values <= 1.0)).all():
        outside = values[np.isfinite(values) & ((values < 0.0) | (values > 1.0))]
        if outside.size:
            raise ValueError(f"decision function returned {float(outside[0])!r}, "
                             "a finite value outside [0, 1]")
    return values


def _evaluate(f, rows):
    """f's values on the feature rows ``rows``, and the (decision function,
    rows) pair that the crossing kernel searches for them. For an
    ``MlpModel`` with h1 < d these are the net after its first product and
    the h1-wide products rows @ W1.T, computed once here; a first layer at
    least as wide as the input would cost more than it saves. Anything
    else is searched as given."""
    values = _f_values(f, rows)
    if (type(f) is MlpModel and len(f.layer_sizes) > 2
            and f.layer_sizes[1] < f.layer_sizes[0]):
        with np.errstate(over="ignore", invalid="ignore"):
            projected = np.asarray(rows, dtype=np.float64) @ f.weights[0].T
        return values, (functools.partial(_first_layer_tail, f), projected)
    return values, (f, rows)


def _crossing_kernel(f, A, B, config: CrossingConfig):
    """Locate crossings for oriented segments. A rows are on the f < 0.5
    side, B rows on the f >= 0.5 side; the caller has already verified
    this. Returns (lam, f_value, lam_lo, lam_hi) arrays of length m. A
    segment's values depend on the other segments of the call only
    through f, when f's value of a row depends on the rows beside it.
    Callers pass the rows and f of ``_evaluate``, so A and B may be
    an MLP's first-layer products rather than input rows.

    Bisection's lam is the last midpoint it evaluated; the final bracket
    [lam_lo, lam_hi] contains it, straddles 0.5 and has width <= epsilon,
    so the search costs ceil(log2(1/epsilon)) f-rows per segment. The
    linear scan costs floor(1/epsilon) + 1 f-rows per segment.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if config.method == "linear_scan":
        return _linear_scan_kernel(f, A, B, config.epsilon)

    m = A.shape[0]
    lo = np.zeros(m)   # lam=0 is b: f >= 0.5
    hi = np.ones(m)    # lam=1 is a: f < 0.5
    lam = np.full(m, 0.5)
    fval = np.full(m, np.nan)
    done = np.zeros(m, dtype=bool)
    # the midpoints of every step go into these two buffers: multiply,
    # multiply, add gives the same bits as _interp
    X = np.empty_like(A)
    Y = np.empty_like(B)
    iters = math.ceil(math.log2(1.0 / config.epsilon))
    for _ in range(iters):
        active = np.flatnonzero(~done)
        n = active.size
        if n == 0:
            break
        mid = 0.5 * (lo[active] + hi[active])
        a, b = (A, B) if n == m else (A[active], B[active])
        x, y = X[:n], Y[:n]
        # an MLP's first-layer products may overflow to +-inf at the ends;
        # they give NaN rows here, which its tail maps to a NaN f, a failure
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(mid[:, None], a, out=x)
            np.multiply(1.0 - mid[:, None], b, out=y)
            x += y
        fm = _f_values(f, x)
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
    return lam, fval, lo, hi


def _linear_scan_kernel(f, A, B, epsilon: float):
    """Evaluate the grid lam = 0, eps, 2*eps, ... (capped at 1) on every
    segment: lam is the first grid point of least |f - 0.5| (a NaN f wins,
    so it surfaces as a failure), the bracket the grid's sign change
    nearest to it, the lower on a tie, else [last grid point, 1]. No f
    call gets more than max(1, ROW_BUDGET // d) rows: whole grids of
    several segments, or pieces of one segment's grid. Each chunk of
    segments is reduced before the next, and only the f-values of its
    grids are kept, so memory grows neither with the segments nor with d
    times the grid size.
    """
    grid = np.minimum(epsilon * np.arange(math.floor(1.0 / epsilon) + 1), 1.0)
    m, d = A.shape
    size = grid.size
    chunk = max(1, ROW_BUDGET // (size * d))
    piece = min(size, max(1, ROW_BUDGET // d))
    lam, fval, lam_lo, lam_hi = (np.empty(m) for _ in range(4))
    steps = np.arange(size - 1)
    for start in range(0, m, chunk):
        part = slice(start, start + chunk)
        a, b = A[part, None], B[part, None]
        fv = np.empty((len(a), size))
        for j in range(0, size, piece):
            lams = grid[j:j + piece]
            # (segments, grid points, d), the bits of each segment's grid alone;
            # overflowed +-inf ends give NaN rows, as in the bisection
            with np.errstate(over="ignore", invalid="ignore"):
                points = lams[:, None] * a + (1.0 - lams)[:, None] * b
            fv[:, j:j + piece] = _f_values(f, points.reshape(-1, d)).reshape(len(a), -1)
        g = fv - 0.5
        best = np.argmin(np.abs(g), axis=1)
        lam[part] = grid[best]
        fval[part] = fv[np.arange(len(fv)), best]
        straddle = g[:, :-1] * g[:, 1:] <= 0.0
        j = np.argmin(np.where(straddle, np.abs(steps - best[:, None]), size), axis=1)
        found = straddle.any(axis=1)
        lam_lo[part] = np.where(found, grid[j], grid[-1])
        lam_hi[part] = np.where(found, grid[j + 1], 1.0)
    return lam, fval, lam_lo, lam_hi


def find_crossing(f, a, b, config: CrossingConfig = CrossingConfig()) -> Crossing:
    """Locate the boundary crossing on the segment between a and b.

    Requires f(a) < 0.5 <= f(b) and a finite f at the located point;
    violations raise CrossingError rather than guessing. Evaluates f once
    on both ends, then runs the same kernel as a batch of segments, in
    the same search space (an MLP with h1 < d in its first-layer space),
    so the result equals that segment's in any batch wherever f's rows
    keep their bits across batch sizes. Returns the crossing point, which
    lies between a and b, its interpolation parameter and the bracket
    certificate.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"a and b must be vectors of equal shape, got {a.shape} and {b.shape}")
    if np.array_equal(a, b):
        raise CrossingError("a and b are identical vectors")
    ends, (g, space) = _evaluate(f, np.vstack([a, b]))
    _require_straddle(float(ends[0]), float(ends[1]))
    lam, fval, lo, hi = _crossing_kernel(g, space[:1], space[1:], config)
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


def _orient(ends, f_rows):
    """f's values at the (row, row) ``ends`` of each segment, whether they
    straddle 0.5, and the ends with the f < 0.5 end first; ``f_rows`` is f's
    value on each dataset row. Orientation follows f, whatever the labels,
    so it is a function of a segment's two rows."""
    f_ends = f_rows[ends]
    below = f_ends < 0.5
    crossed = np.isfinite(f_ends).all(axis=-1) & (below[..., 0] != below[..., 1])
    return f_ends, crossed, np.where(below[..., 1:], ends[..., ::-1], ends)


@dataclass(frozen=True)
class _Plan:
    """The search of a stack of sets' segments, planned before any search;
    ``_plan`` builds it.

    ``ends`` holds the (row, row) ends of each position of each set, and
    ``f_rows`` f's value on each dataset row. ``distinct`` holds the
    oriented ends of each distinct straddling segment, in order of first
    occurrence, and ``segment`` the index into it of each position, or -1
    where the position's ends do not straddle 0.5. Block b, the sets
    b*per_block .. (b+1)*per_block - 1, searches
    ``distinct[owned[b]:owned[b+1]]``.
    """

    ends: np.ndarray
    f_rows: np.ndarray
    distinct: np.ndarray
    segment: np.ndarray
    per_block: int
    owned: np.ndarray

    def at_positions(self, lam, fval, sets: slice = slice(None)):
        """lam and f-value at each position of the sets ``sets``, from
        those of ``distinct``; the f-value stays NaN where the ends do not
        straddle 0.5."""
        segment = self.segment[sets]
        crossed = segment >= 0
        lam_at, fval_at = np.zeros(segment.shape), np.full(segment.shape, np.nan)
        lam_at[crossed], fval_at[crossed] = lam[segment[crossed]], fval[segment[crossed]]
        return lam_at, fval_at


def _plan(ends, f_rows, per_block: int) -> _Plan:
    """Plan the search of the segments ``ends``, one (row, row) index pair
    per segment of each set, shape (sets, segments, 2), for blocks of
    ``per_block`` sets; ``f_rows`` is f's value on each dataset row.

    A segment's orientation, and with it its search, is a function of its
    two rows (``_orient``): the positions that name the same two rows
    share one search. Each distinct straddling segment is searched once,
    by the block where it first appears, so what a block searches depends
    on the sets up to its own only.
    """
    _, crossed, oriented = _orient(ends, f_rows)
    kept = oriented[crossed]
    _, first, inverse = np.unique(kept[:, 0] * len(f_rows) + kept[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    segment = np.full(crossed.shape, -1)
    segment[crossed] = rank[inverse]
    owner = np.nonzero(crossed)[0][first[order]] // per_block
    blocks = -(-len(ends) // per_block)
    return _Plan(ends=ends, f_rows=f_rows, distinct=kept[first[order]], segment=segment,
                 per_block=per_block, owned=np.searchsorted(owner, np.arange(blocks + 1)))


def _search(search, segments, config: CrossingConfig):
    """lam and f-value of each oriented segment of ``segments``, shape
    (m, 2), from one ``_crossing_kernel`` call on the rows that ``search``,
    an ``_evaluate`` result, searches."""
    g, space = search
    lam, fval, _, _ = _crossing_kernel(g, *space[segments.T], config)
    return lam, fval


def _crossing_sets(plan: _Plan, sets: slice, lam, fval, features, kind: str) -> list:
    """One crossing set per set ``sets`` of ``plan``, columns in segment
    order.

    ``lam`` and ``fval`` are those sets' ``_Plan.at_positions``, and
    ``features`` the dataset rows. A segment fails when its ends lie on
    one side, or when its f-value, at an end or at the crossing, is not
    finite; each set lists its CrossingFailures in position order, and
    more than MAX_FAILURE_RATE of them, or fewer than two crossings, abort
    it. Returns, per set, that FailureRateExceeded or (points, columns,
    failures): the crossings as rows, and the positions, oriented ends,
    lam and f-values from which ``_one_set`` builds the provenance.
    """
    ends = plan.ends[sets]
    f_ends, crossed, oriented = _orient(ends, plan.f_rows)
    segments = ends.shape[1]
    found = np.isfinite(fval)
    failures = [[] for _ in ends]
    for s, i in zip(*np.nonzero(~found)):  # position order in each set
        fa, fb = f_ends[s, i]
        reason = (f"non-finite decision value at lam={lam[s, i]:.6g}" if crossed[s, i]
                  else "both endpoints on the same side of 0.5"
                  if math.isfinite(fa) and math.isfinite(fb)
                  else "non-finite decision value at an endpoint")
        failures[s].append(CrossingFailure(pair_index=int(i), index_a=int(ends[s, i, 0]),
                                           index_b=int(ends[s, i, 1]),
                                           reason=f"{reason} (f={fa:.6g} and f={fb:.6g})"))
    position = np.nonzero(found)[1]
    oriented, lam, fval = oriented[found], lam[found], fval[found]
    results = []
    stop = 0
    for s, count in enumerate(found.sum(axis=1).tolist()):
        part = slice(stop, stop + count)
        stop += count
        # one set's rows at a time stay in cache, where a whole block's do not
        results.append(_abort(failures[s], segments, count, kind) or (
            _interp(lam[part], *features[oriented[part].T]),
            (position[part], oriented[part], lam[part], fval[part]), tuple(failures[s])))
    return results


def _abort(failures, attempted, crossings, kind):
    """The FailureRateExceeded that aborts a set, or None if it stands."""
    if len(failures) / attempted > MAX_FAILURE_RATE:
        return FailureRateExceeded(
            f"{len(failures)} of {attempted} crossings failed while building the "
            f"{kind} adversarial set; the failure rate exceeds {MAX_FAILURE_RATE:.0%}. "
            "First failure: " + failures[0].reason
        )
    if crossings < 2:
        return FailureRateExceeded(
            f"only {crossings} of {attempted} crossings succeeded while building "
            f"the {kind} adversarial set; need at least 2"
        )
    return None


def _one_set(f, dataset: LabeledDataset, ends, kind: str,
             config: CrossingConfig) -> AdversarialSet:
    """The AdversarialSet, with provenance, of the segments ``ends``, shape
    (segments, 2); raises the FailureRateExceeded that aborts the set. The
    set is searched as a local batch's one block would be: each distinct
    straddling segment once, in one kernel call."""
    f_rows, search = _evaluate(f, dataset.features)
    plan = _plan(ends[None], f_rows, 1)
    result, = _crossing_sets(plan, slice(None), *plan.at_positions(
        *_search(search, plan.distinct, config)), dataset.features, kind)
    if isinstance(result, FailureRateExceeded):
        raise result
    points, (positions, ends, lam, fval), failures = result
    provenance = tuple(
        ColumnProvenance(pair_index=i, index_a=ia, index_b=ib, lam=l, f_value=v)
        for i, (ia, ib), l, v in zip(positions.tolist(), ends.tolist(), lam.tolist(),
                                     fval.tolist())
    )
    return AdversarialSet(points=points.T, kind=kind, provenance=provenance,
                          failures=failures)


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
    return _one_set(f, dataset, ends, "global", config)


def _local_ends(dataset: LabeledDataset, pairs, k: int, expand_around: str):
    """Segment ends of each pair's local set, shape (pairs, k+1, 2).

    Each row pairs the anchor with one of the k+1 nearest same-class
    neighbors of the expanded endpoint (the hub), the hub itself first
    where it is among them; the others keep their k_nearest order. One
    k_nearest call answers every distinct hub of the pairs at once.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if expand_around not in ("a", "b"):
        raise ValueError(f"expand_around must be 'a' or 'b', got {expand_around!r}")
    hub_class = 1 if expand_around == "b" else 0
    population = dataset.class_indices(hub_class).size
    if k + 1 > population:
        raise DatasetError(
            f"k={k} needs k+1={k + 1} class-{hub_class} rows per local set, which "
            f"exceeds the class-{hub_class} population of {population}"
        )
    indices = np.array([(pair.index_a, pair.index_b) for pair in pairs], dtype=np.int64)
    anchors, hubs = indices.T if expand_around == "b" else indices.T[::-1]
    distinct, inverse = np.unique(hubs, return_inverse=True)
    rows = np.array(k_nearest(dataset, dataset.features[distinct], class_filter=hub_class,
                              k=k + 1), dtype=np.int64)
    # a stable sort on "is not the hub" moves the hub to the front
    rows = np.take_along_axis(
        rows, np.argsort(rows != distinct[:, None], axis=1, kind="stable"), axis=1)
    ends = np.empty((len(indices), k + 1, 2), dtype=np.int64)
    ends[..., 0] = anchors[:, None]
    ends[..., 1] = rows[inverse]
    return ends


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
    return _one_set(f, dataset, _local_ends(dataset, [pair], k, expand_around)[0], "local",
                    config)


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
