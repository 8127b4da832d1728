"""Two-class labeled datasets: CSV loading, synthetic blob generation,
exact nearest-neighbor queries and reproducible cross-class pair sampling.

All dataset objects are immutable after construction and safe to share
across worker processes. ``k_nearest`` and ``sample_pairs`` are pure
functions of their inputs; pair ``i`` is drawn from the sub-seed
``(seed, i)`` so results do not depend on evaluation order or on the
degree of parallelism.

``k_nearest`` answers one query vector or a (q, d) matrix of queries.
It finds candidates with one Gram-form product per chunk of queries and
ranks only the rows within a proven rounding margin of each query's k-th
Gram distance, with the exact formula; its docstring derives the margin.
So a query's list does not depend on the other queries of the call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# doubles that one Gram block of k_nearest may hold, on the scale of the
# crossing search's row budget
GRAM_BUDGET = 2 ** 19
# doubles of deltas that k_nearest ranks at once: a piece stays in cache
RANK_PIECE = 2 ** 16
_UNIT_ROUNDOFF = 2.0 ** -53


class DatasetError(ValueError):
    """Raised for malformed dataset files or contract violations."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix of shape (count, dimension) with binary row labels.

    Invariants: every label is 0 or 1, both classes are nonempty, and all
    feature values are finite.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2 or features.shape[0] == 0 or features.shape[1] == 0:
            raise DatasetError(f"features must be a nonempty 2-D matrix, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DatasetError(
                f"labels shape {labels.shape} does not match {features.shape[0]} feature rows"
            )
        bad = ~np.isin(labels, (0, 1))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise DatasetError(f"label at row {row} is {labels[row]!r}, expected 0 or 1")
        labels = labels.astype(np.int64)
        if not np.isfinite(features).all():
            row, col = np.argwhere(~np.isfinite(features))[0]
            raise DatasetError(f"non-finite feature value at row {row}, column {col}")
        for cls in (0, 1):
            if not (labels == cls).any():
                raise DatasetError(f"dataset has no rows with label {cls}")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)


@dataclass(frozen=True)
class ClassPair:
    """A cross-class pair: ``a`` carries label 0, ``b`` carries label 1."""

    a: np.ndarray
    b: np.ndarray
    index_a: int
    index_b: int


def load_csv(path, label_column="label") -> LabeledDataset:
    """Load a two-class dataset from a CSV file.

    ``label_column`` selects the label column by header name or by integer
    index. A header row is detected automatically: if any cell of the first
    row fails to parse as a number, the row is treated as a header.

    Raises DatasetError naming the offending row/column for unparseable
    cells, labels outside {0, 1}, or a missing class.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise DatasetError(f"empty file: {path}")

    def _is_numeric_row(cells):
        try:
            for cell in cells:
                float(cell)
        except ValueError:
            return False
        return True

    header = None
    if not _is_numeric_row(rows[0]):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise DatasetError(f"file has a header but no data rows: {path}")

    width = len(rows[0])
    if isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else width + label_column
    else:
        if header is None:
            raise DatasetError(
                f"label column {label_column!r} requested by name but file has no header"
            )
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DatasetError(f"label column {label_column!r} not found in header {header}") from None
    if not 0 <= label_idx < width:
        raise DatasetError(f"label column index {label_idx} out of range for {width} columns")

    features = np.empty((len(rows), width - 1), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(f"row {r} has {len(row)} cells, expected {width}")
        col_out = 0
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise DatasetError(f"unparseable cell at row {r}, column {c}: {cell!r}") from None
            if c == label_idx:
                if value not in (0.0, 1.0):
                    raise DatasetError(f"label at row {r} is {cell!r}, expected 0 or 1")
                labels[r] = int(value)
            else:
                if not np.isfinite(value):
                    raise DatasetError(f"non-finite feature at row {r}, column {c}")
                features[r, col_out] = value
                col_out += 1
    return LabeledDataset(features, labels)


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write a dataset as CSV with header ``f0,...,f{n-1},label``.

    Floats are written with shortest round-trip precision, so a rerun with
    identical inputs produces a byte-identical file.
    """
    path = Path(path)
    names = [f"f{i}" for i in range(dataset.dimension)] + ["label"]
    lines = [",".join(names)]
    for row, label in zip(dataset.features, dataset.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_blobs(per_class: int, dimension: int, center_distance: float,
               spread: float, seed: int) -> LabeledDataset:
    """Generate two isotropic Gaussian clusters, one per class.

    Cluster centers sit at ``±center_distance/2`` along the first feature
    axis; each cluster has ``per_class`` points with per-coordinate
    standard deviation ``spread``. Deterministic for a fixed seed.
    """
    if per_class < 1:
        raise DatasetError(f"per_class must be >= 1, got {per_class}")
    if dimension < 1:
        raise DatasetError(f"dimension must be >= 1, got {dimension}")
    if center_distance <= 0:
        raise DatasetError(f"center_distance must be > 0, got {center_distance}")
    if spread <= 0:
        raise DatasetError(f"spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    offset = np.zeros(dimension)
    offset[0] = center_distance / 2.0
    class0 = -offset + spread * rng.standard_normal((per_class, dimension))
    class1 = offset + spread * rng.standard_normal((per_class, dimension))
    features = np.vstack([class0, class1])
    labels = np.concatenate([np.zeros(per_class, dtype=np.int64),
                             np.ones(per_class, dtype=np.int64)])
    return LabeledDataset(features, labels)


def minmax_scale(dataset: LabeledDataset) -> LabeledDataset:
    """Rescale each feature to [0, 1]; constant features map to 0."""
    lo = dataset.features.min(axis=0)
    hi = dataset.features.max(axis=0)
    span = hi - lo
    span[span == 0] = 1.0
    return LabeledDataset((dataset.features - lo) / span, dataset.labels)


def k_nearest(dataset: LabeledDataset, query: np.ndarray, class_filter: int,
              k: int) -> list[int] | list[list[int]]:
    """Exact k-nearest rows of one class, by Euclidean distance to each query.

    ``query`` is one vector of the dataset's dimension, which returns one
    ``list[int]``, or a (q, d) matrix of queries, which returns one such
    list per row. A list holds dataset row indices in nondecreasing order
    of ``sqrt(einsum(delta, delta))``, the distance computed from the
    deltas ``x - query``; ties break toward the lower row index. A stored
    row equal to a query is eligible and ranks first at distance zero,
    which is what makes a point its own nearest neighbor. A non-finite
    query value raises DatasetError naming its row and column.

    The answer is that of ranking every row of the class with that exact
    formula, but only a margin set is ranked. One product ``Q @ X.T`` per
    chunk of queries gives the Gram-form squared distances g = a + b - 2p,
    with a = q.q, b = x.x and p = q.x; a chunk's Gram block holds at most
    GRAM_BUDGET doubles (one query's row at least). Each query keeps the
    rows with g <= t + w, where t is its k-th smallest g and w the margin
    below, and ranks only those with the exact formula, in pieces of at
    most max(1, RANK_PIECE // d) rows. The margin set holds the k rows
    of smallest g, so it is never empty and never larger than the class.

    Why the margin set holds the answer. Let u = 2^-53, gamma_n = n*u /
    (1 - n*u) (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., section 3.1), and gamma = gamma_{d+2}. For one query q and a
    row x let D = |q - x|^2 exactly, N = |q|^2 + |x|^2, and let S = |q|^2
    + max |x|^2 over the class, so that D <= 2N <= 2S. A dot product of
    length d computed in any order, with or without FMA, errs by at most
    gamma_d times the sum of the absolute products; a sum of three terms
    in any order by gamma_2 times the sum of their absolute values; and
    gamma_j + gamma_k + gamma_j*gamma_k <= gamma_{j+k} (Higham, Lemma
    3.3). BLAS products are such dot products (no Strassen-like scheme),
    and 2p is exact.

    1. The Gram form: |p - q.x| <= gamma_d |q||x| <= gamma_d N / 2 by
       Cauchy-Schwarz, a and b err by gamma_d times their exact values,
       and the three-term sum adds gamma_2 (1 + gamma_d) 2N. So
       |g - D| <= 2 (gamma_d + gamma_2 + gamma_2 gamma_d) N
       <= 2 gamma N <= 2 gamma S.
    2. The exact formula: each delta is rounded once, (1 + u), and its
       squares are summed as a dot product, so the computed square r obeys
       |r - D| <= gamma D <= 2 gamma S.
    3. The final sqrt is correctly rounded: e = fl(sqrt(r)) lies within
       a factor 1 +- u of sqrt(r). So e_x > e_y, strictly, whenever
       r_x (1 - u)^2 > r_y (1 + u)^2, which r_x - r_y > 10 u S ensures,
       since r_y <= (1 + gamma) 2S.

    Let y be one of the k rows with g_y <= t, and x a row left out, with
    g_x > T. By 1 and 2, r_x - r_y >= g_x - g_y - 8 gamma S, so by 3 x
    ranks strictly behind each of those k rows, whatever its index, once
    g_x > t + (8 gamma + 10 u) S; g_x > t + 12 gamma S suffices, since
    3u <= gamma. The code computes s = fl(a + max b) >= (1 - gamma) S,
    w = fl(16 gamma s) and T = fl(t + w). With |t| <= 3S, rounding costs
    at most u |t + w| <= gamma S + u w, so T >= t + 12 gamma S while
    gamma <= 0.18, that is for any d below 10^15. A row outside the
    margin set thus never reaches the first k. Underflow is exact in a
    sum and errs by at most 2^-1075 in a product (Higham, section 2.1);
    the sums above hold fewer than 16 (d + 2) products, which the floor
    (d + 2) 2^-1068 added to w covers. The bound also needs no overflow:
    every term above stays below 2^1023 while s <= 2^1020. Beyond that,
    w is infinite and every row of the class is ranked, as is every row
    whose g is NaN.
    """
    if k < 1:
        raise DatasetError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    single = query.ndim == 1
    queries = query[None, :] if single else query
    if queries.ndim != 2 or queries.shape[1] != dataset.dimension:
        raise DatasetError(
            f"query shape {query.shape} does not match dataset dimension {dataset.dimension}"
        )
    if not np.isfinite(queries).all():
        row, col = np.argwhere(~np.isfinite(queries))[0]
        raise DatasetError(f"non-finite query value at row {row}, column {col}")
    candidates = dataset.class_indices(class_filter)
    if k > candidates.size:
        raise DatasetError(
            f"k={k} exceeds class-{class_filter} population of {candidates.size}"
        )
    d = dataset.dimension
    rows = dataset.features[candidates]
    row_norms = np.einsum("ij,ij->i", rows, rows)
    query_norms = np.einsum("ij,ij->i", queries, queries)
    scale = query_norms + row_norms.max()
    gamma = (d + 2) * _UNIT_ROUNDOFF / (1.0 - (d + 2) * _UNIT_ROUNDOFF)
    margin = np.where(scale <= 2.0 ** 1020,
                      16.0 * gamma * scale + (d + 2) * 2.0 ** -1068, np.inf)
    neighbors = np.empty((len(queries), k), dtype=np.int64)
    chunk = max(1, GRAM_BUDGET // candidates.size)
    piece = max(1, RANK_PIECE // d)
    for start in range(0, len(queries), chunk):
        block = slice(start, start + chunk)
        # overflow only comes with scale > 2^1020, where every row is kept
        with np.errstate(over="ignore", invalid="ignore"):
            gram = queries[block] @ rows.T
            gram *= -2.0
            gram += query_norms[block, None]
            gram += row_norms
            threshold = np.partition(gram, k - 1, axis=1)[:, k - 1] + margin[block]
            # row-major, so grouped by query and ascending in candidate
            owner, kept = np.nonzero(~(gram > threshold[:, None]))
        del gram
        squares = np.empty(kept.size)
        for i in range(0, kept.size, piece):
            deltas = rows[kept[i:i + piece]]
            deltas -= queries[block][owner[i:i + piece]]
            squares[i:i + piece] = np.einsum("ij,ij->i", deltas, deltas)
        order = np.lexsort((kept, np.sqrt(squares), owner))
        counts = np.bincount(owner, minlength=len(threshold))
        first = np.cumsum(counts) - counts
        neighbors[block] = candidates[kept[order][first[:, None] + np.arange(k)]]
    return neighbors[0].tolist() if single else neighbors.tolist()


def sample_pair(dataset: LabeledDataset, pair_index: int, seed: int) -> ClassPair:
    """Draw the ``pair_index``-th cross-class pair of the (seed) sequence.

    The pair comes from the sub-seed ``(seed, pair_index)`` alone, so any
    pair can be reproduced without generating its predecessors.
    """
    return _draw_pair(dataset, dataset.class_indices(0), dataset.class_indices(1),
                      pair_index, seed)


def sample_pairs(dataset: LabeledDataset, reps: int, seed: int) -> list[ClassPair]:
    """Draw ``reps`` cross-class pairs uniformly at random with replacement.

    Pair ``i`` is generated from the sub-seed ``(seed, i)``, so the sequence
    is identical whether pairs are consumed serially or split across
    workers.
    """
    if reps < 1:
        raise DatasetError(f"reps must be >= 1, got {reps}")
    idx0, idx1 = dataset.class_indices(0), dataset.class_indices(1)
    return [_draw_pair(dataset, idx0, idx1, i, seed) for i in range(reps)]


def _draw_pair(dataset, idx0, idx1, pair_index, seed) -> ClassPair:
    """Pair ``pair_index`` of the (seed) sequence, given the row indices of
    class 0 and class 1."""
    rng = np.random.default_rng([seed, pair_index])
    ia = int(idx0[rng.integers(idx0.size)])
    ib = int(idx1[rng.integers(idx1.size)])
    return ClassPair(a=dataset.features[ia], b=dataset.features[ib],
                     index_a=ia, index_b=ib)
