"""Boundary-point generation along segments between opposite-class points.

A decision function ``f`` maps feature rows to probabilities; a crossing is
a point ``c = lam*a + (1-lam)*b`` with ``f(c)`` as close to 0.5 as the
configured precision allows. Crossings for a whole batch of segments are
driven in lockstep so that construction cost is dominated by batched
forward passes, while each segment's result is identical to what a lone
``find_crossing`` call produces for it. A global set, a local set and a
local batch are all one stack of segment lists, a ``_Batch`` planned by
``_batch`` before any search: it evaluates f, orients each segment, picks
the block size and gives each distinct segment to its first block, which
searches it once; every set that holds it reads that one result. The
failure rules apply per set, in ``_Batch.crossing_sets``; what a block
searches depends on the sets up to its own only.

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

from .dataset import ClassPair, DatasetError, LabeledDataset, _pair_rows, k_nearest
from .model import MlpModel, _first_layer_tail

DEFAULT_EPSILON = 1.0 / 256.0
MAX_FAILURE_RATE = 0.10
# segments x dimension that a block of sets may search, unless one set holds more
ROW_BUDGET = 2 ** 19


class CrossingError(ValueError):
    """Raised when a segment's endpoints do not straddle the boundary."""


class FailureRateExceeded(RuntimeError):
    """Raised when more than MAX_FAILURE_RATE of crossings fail."""


@dataclass(frozen=True)
class CrossingConfig:
    """Precision for locating boundary crossings by bisection.

    ``epsilon`` bounds the width of the interpolation-parameter bracket
    that bisection halves down to, in ceil(log2(1/eps)) evaluations.
    """

    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


@dataclass(frozen=True)
class Crossing:
    """One located boundary point with its bracket certificate.

    ``point = lam*a + (1-lam)*b``. The f-values at the ends of the bracket
    [lam_lo, lam_hi] straddle 0.5; the bracket contains lam and is at most
    epsilon wide.
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

    The search is a bisection: lam is the last midpoint it evaluated; the
    final bracket [lam_lo, lam_hi] contains it, straddles 0.5 and has
    width <= epsilon, so it costs ceil(log2(1/epsilon)) f-rows per segment.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
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


def find_crossing(f, a, b, config: CrossingConfig = CrossingConfig()) -> Crossing:
    """Locate the boundary crossing on the segment between a and b.

    Requires f(a) < 0.5 <= f(b) and a finite f at the located point;
    violations raise CrossingError rather than guessing. Evaluates f once
    on both ends, then bisects with the same kernel as a batch of
    segments, in the same search space (an MLP with h1 < d in its
    first-layer space), so the result equals that segment's in any batch
    wherever f's rows keep their bits across batch sizes. Returns the
    crossing point, which lies between a and b, its interpolation
    parameter and the bracket certificate.
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


@dataclass(frozen=True)
class _Batch:
    """The search of a stack of sets' segments, planned before any search;
    ``_batch`` builds it.

    ``ends`` holds the (row, row) ends of each position of each set,
    ``f_rows`` f's value on each dataset row, ``search_space`` the
    (decision function, rows) pair that the kernel searches (``_evaluate``)
    and ``features`` the dataset rows. ``distinct`` holds the oriented ends
    of each distinct straddling segment, in order of first occurrence, and
    ``segment`` the index into it of each position, or -1 where the
    position's ends do not straddle 0.5. Block b, the sets
    b*per_block .. (b+1)*per_block - 1, searches
    ``distinct[owned[b]:owned[b+1]]``.
    """

    ends: np.ndarray
    f_rows: np.ndarray
    search_space: tuple
    features: np.ndarray
    config: CrossingConfig
    distinct: np.ndarray
    segment: np.ndarray
    per_block: int
    owned: np.ndarray

    def search(self, block: int):
        """lam and f-value of each distinct segment ``block`` owns, in one kernel call."""
        g, space = self.search_space
        segments = self.distinct[self.owned[block]:self.owned[block + 1]]
        lam, fval, _, _ = _crossing_kernel(g, *space[segments.T], self.config)
        return lam, fval

    def at_positions(self, lam, fval, sets: slice = slice(None)):
        """lam and f-value at each position of the sets ``sets``, from
        those of ``distinct``; the f-value stays NaN where the ends do not
        straddle 0.5."""
        segment = self.segment[sets]
        crossed = segment >= 0
        lam_at, fval_at = np.zeros(segment.shape), np.full(segment.shape, np.nan)
        lam_at[crossed], fval_at[crossed] = lam[segment[crossed]], fval[segment[crossed]]
        return lam_at, fval_at

    def crossing_sets(self, sets: slice, lam, fval, kind: str) -> list:
        """One crossing set per set ``sets``, columns in segment order.

        ``lam`` and ``fval`` are those sets' ``at_positions``. A segment
        fails when its ends lie on one side, or when its f-value, at an end
        or at the crossing, is not finite; each set lists its
        CrossingFailures in position order, and more than MAX_FAILURE_RATE
        of them, or fewer than two crossings, abort it. Returns, per set,
        that FailureRateExceeded or (points, columns, failures): the
        crossings as rows, and the positions, oriented ends, lam and
        f-values from which ``_one_set`` builds the provenance.
        """
        ends, segment = self.ends[sets], self.segment[sets]
        found = np.isfinite(fval)
        failures = [[] for _ in ends]
        for s, i in zip(*np.nonzero(~found)):  # position order in each set
            fa, fb = self.f_rows[ends[s, i]]
            reason = (f"non-finite decision value at lam={lam[s, i]:.6g}" if segment[s, i] >= 0
                      else "both endpoints on the same side of 0.5"
                      if math.isfinite(fa) and math.isfinite(fb)
                      else "non-finite decision value at an endpoint")
            failures[s].append(CrossingFailure(pair_index=int(i), index_a=int(ends[s, i, 0]),
                                               index_b=int(ends[s, i, 1]),
                                               reason=f"{reason} (f={fa:.6g} and f={fb:.6g})"))
        position = np.nonzero(found)[1]
        # only a straddling segment has a finite f-value: orient it as it was searched
        oriented, lam, fval = self.distinct[segment[found]], lam[found], fval[found]
        results = []
        stop = 0
        for s, count in enumerate(found.sum(axis=1).tolist()):
            part = slice(stop, stop + count)
            stop += count
            # one set's rows at a time stay in cache, where a whole block's do not
            results.append(_abort(failures[s], ends.shape[1], count, kind) or (
                _interp(lam[part], *self.features[oriented[part].T]),
                (position[part], oriented[part], lam[part], fval[part]), tuple(failures[s])))
        return results


def _batch(f, dataset: LabeledDataset, ends, config: CrossingConfig) -> _Batch:
    """Plan the search of the segments ``ends``, shape (sets, segments, 2):
    one (row, row) index pair per segment of each set.

    f is evaluated once on every dataset row. A segment is oriented by f,
    its f < 0.5 end first, whatever the labels, so its orientation and
    search are a function of its two rows: the positions that name the
    same two rows share one search, by the block where they first appear,
    so what a block searches depends on the sets up to its own only. A
    block holds P = min(32, max(1, ROW_BUDGET // (segments * dimension)))
    sets; a single set is always one block.
    """
    f_rows, search_space = _evaluate(f, dataset.features)
    f_ends = f_rows[ends]
    below = f_ends < 0.5
    crossed = np.isfinite(f_ends).all(axis=-1) & (below[..., 0] != below[..., 1])
    kept = np.where(below[..., 1:], ends[..., ::-1], ends)[crossed]
    _, first, inverse = np.unique(kept[:, 0] * len(f_rows) + kept[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    segment = np.full(crossed.shape, -1)
    segment[crossed] = rank[inverse]
    # larger blocks ran no faster; the row budget keeps a wide block's
    # buffers below the memory of a global set
    per_block = min(32, max(1, ROW_BUDGET // (ends.shape[1] * dataset.dimension)))
    owner = np.nonzero(crossed)[0][first[order]] // per_block
    blocks = -(-len(ends) // per_block)
    return _Batch(ends=ends, f_rows=f_rows, search_space=search_space,
                  features=dataset.features, config=config, distinct=kept[first[order]],
                  segment=segment, per_block=per_block,
                  owned=np.searchsorted(owner, np.arange(blocks + 1)))


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
    batch = _batch(f, dataset, ends[None], config)
    result, = batch.crossing_sets(slice(None), *batch.at_positions(*batch.search(0)), kind)
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
    return _one_set(f, dataset, _pair_rows(dataset, reps, seed), "global", config)


def _local_ends(dataset: LabeledDataset, pairs: np.ndarray, k: int, expand_around: str):
    """Segment ends of the local set of each pair of rows (class 0,
    class 1) in the (m, 2) array ``pairs``, shape (m, k+1, 2).

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
    anchors, hubs = pairs.T if expand_around == "b" else pairs.T[::-1]
    distinct, inverse = np.unique(hubs, return_inverse=True)
    rows = np.array(k_nearest(dataset, dataset.features[distinct], class_filter=hub_class,
                              k=k + 1), dtype=np.int64)
    # a stable sort on "is not the hub" moves the hub to the front
    rows = np.take_along_axis(
        rows, np.argsort(rows != distinct[:, None], axis=1, kind="stable"), axis=1)
    ends = np.empty((len(pairs), k + 1, 2), dtype=np.int64)
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
    ends = _local_ends(dataset, np.array([[pair.index_a, pair.index_b]]), k, expand_around)
    return _one_set(f, dataset, ends[0], "local", config)


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
