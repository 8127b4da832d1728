"""Two-class labeled datasets: CSV loading, synthetic blob generation,
exact nearest-neighbor queries and reproducible cross-class pair sampling.

All dataset objects are immutable after construction and safe to share
across worker processes. ``k_nearest`` and ``sample_pairs`` are pure
functions of their inputs; pair ``i`` is drawn from the sub-seed
``(seed, i)`` so results do not depend on evaluation order or on the
degree of parallelism.

Pair ``i`` is one position in each class, ``integers(n0)`` and then
``integers(n1)`` of a PCG64 generator seeded by ``SeedSequence([seed,
i])``. ``_draw_positions`` computes that for every pair of a call at once,
in uint32 and uint64 array arithmetic: no generator object is built per
pair. The pair sequence is the program's own; today it equals numpy 2.x's
``default_rng([seed, i]).integers``, which the tests check, while a fixed
table of draws in the tests pins it should numpy's ``integers`` change.

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
    pair can be reproduced without generating its predecessors. A seed or
    pair index that is not a non-negative integer raises DatasetError.
    """
    if not isinstance(pair_index, (int, np.integer)) or not 0 <= pair_index < 2 ** 64:
        raise DatasetError(f"pair index must be an integer in [0, 2^64), got {pair_index!r}")
    return _class_pairs(dataset, _pair_rows(dataset, 1, seed, first=pair_index))[0]


def sample_pairs(dataset: LabeledDataset, reps: int, seed: int) -> list[ClassPair]:
    """Draw ``reps`` cross-class pairs uniformly at random with replacement.

    Pair ``i`` depends on ``(seed, i)`` alone, so the sequence is identical
    whether pairs are consumed serially or split across workers. It is one
    row of each class, at positions ``integers(n0)`` and then
    ``integers(n1)`` (n0, n1 the class sizes, rows in dataset order) of a
    PCG64 generator seeded by ``SeedSequence([seed, i])``, which
    ``_draw_positions`` computes for every pair at once. The sequence is
    the program's own: today it equals numpy 2.x's ``default_rng([seed,
    i]).integers``, but numpy does not promise to keep ``integers`` fixed,
    and this draw would not follow a change. A negative or non-integer seed
    raises DatasetError, and so does a class of more than 2^32 rows.
    """
    return _class_pairs(dataset, _pair_rows(dataset, reps, seed))


def _class_pairs(dataset, rows) -> list[ClassPair]:
    return [ClassPair(a=dataset.features[ia], b=dataset.features[ib], index_a=ia, index_b=ib)
            for ia, ib in rows.tolist()]


def _pair_rows(dataset: LabeledDataset, reps: int, seed: int, first: int = 0) -> np.ndarray:
    """Dataset rows (class 0, class 1) of pairs ``first`` to ``first + reps
    - 1`` of the (seed) sequence, shape (reps, 2), int64."""
    if reps < 1:
        raise DatasetError(f"reps must be >= 1, got {reps}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DatasetError(f"seed must be a non-negative integer, got {seed!r}")
    idx0, idx1 = dataset.class_indices(0), dataset.class_indices(1)
    indices = np.arange(reps, dtype=np.uint64) + np.uint64(first)
    positions = _draw_positions(seed, indices, idx0.size, idx1.size)
    return np.stack([idx0[positions[:, 0]], idx1[positions[:, 1]]], axis=1)


# pairs that _draw_positions draws at once: its working arrays, about 27
# words a pair, stay below 4 MB however many pairs are drawn
PAIR_CHUNK = 2 ** 14
_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, high and low 64-bit halves
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _draw_positions(seed: int, indices: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """Within-class positions (class 0, class 1) of pairs ``indices`` of the
    (seed) sequence, for classes of n0 and n1 rows: shape (len(indices), 2),
    int64.

    Pair i is ``integers(n0)`` and then ``integers(n1)`` of numpy's PCG64
    generator seeded by ``SeedSequence([seed, i])``, computed for all pairs
    at once in uint32 and uint64 array arithmetic:

    - SeedSequence hashes the entropy words, the little-endian uint32
      words of ``seed`` and then of ``i`` (0 is one word), into a pool of
      four words, and hashes the pool out into four uint64 words;
    - PCG64 (O'Neill 2014) sets its 128-bit increment to (w2 w3) << 1 | 1
      and its state to one LCG step from 0, plus (w0 w1), stepped once
      more; each 64-bit output steps the state and applies XSL-RR. The
      128-bit product is formed from 32-bit limbs;
    - ``integers(n)`` reads no output for n = 1. Otherwise it reads 32-bit
      words, the low half of an output and then its high half, and keeps
      the high 32 bits of word * n unless the low 32 bits fall below
      2^32 mod n (Lemire 2019), in which case it reads the next word. The
      class-1 draw continues the word stream the class-0 draw left.

    A rejected draw continues its own stream, so pair i still depends on
    (seed, i) alone; the rejection loop runs over the shrinking subset of
    rejected pairs. Pairs are drawn PAIR_CHUNK at a time. ``seed`` must be
    a non-negative integer and ``indices`` a uint64 array; a class of more
    than 2^32 rows raises DatasetError.
    """
    for n in (n0, n1):
        if not 1 <= n <= 2 ** 32:
            raise DatasetError(f"pair draws need classes of 1 to 2^32 rows, got {n}")
    positions = np.empty((len(indices), 2), dtype=np.int64)
    for start in range(0, len(indices), PAIR_CHUNK):
        chunk = indices[start:start + PAIR_CHUNK]
        words = _WordStream(*_seed_state(seed, chunk))
        for column, n in enumerate((n0, n1)):
            # integers(1) reads no output
            positions[start:start + len(chunk), column] = (
                _bounded(words, n) if n > 1 else 0)
    return positions


def _seed_state(seed: int, indices: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for each i,
    as four uint64 arrays."""
    seed = int(seed)
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    state = np.empty((4, len(indices)), dtype=np.uint64)
    # an index of two words lengthens the entropy, which changes its mixing
    wide = indices > _MASK32
    for group, index_words in ((~wide, 1), (wide, 2)):
        if not group.any():
            continue
        index = indices[group]
        entropy = [np.full(index.size, word, dtype=np.uint32) for word in seed_words]
        entropy += [(index >> np.uint64(32 * w) & _MASK32).astype(np.uint32)
                    for w in range(index_words)]
        pool = _mix_entropy(entropy)
        hashes = _hash_constants(_INIT_B, _MULT_B)
        halves = [_hashmix(pool[j % 4], hashes).astype(np.uint64) for j in range(8)]
        for w in range(4):
            state[w, group] = halves[2 * w] | halves[2 * w + 1] << np.uint64(32)
    return list(state)


def _hash_constants(value: int, multiplier: int):
    """The (xor, multiply) constants of SeedSequence's successive hashes."""
    while True:
        following = value * multiplier & _MASK32
        yield value, following
        value = following


def _hashmix(value: np.ndarray, hashes) -> np.ndarray:
    xor, multiply = next(hashes)
    value = (value ^ xor) * multiply
    return value ^ value >> 16


def _mix_entropy(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's pool of four uint32 words from the entropy words."""
    hashes = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [_hashmix(entropy[j] if j < len(entropy) else zero, hashes) for j in range(4)]

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ result >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], _hashmix(pool[src], hashes))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], _hashmix(word, hashes))
    return pool


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a_lo, a_hi = a & _MASK32, a >> np.uint64(32)
    b_lo, b_hi = b & _MASK32, b >> 32
    low, cross_a, cross_b = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    middle = (low >> np.uint64(32)) + (cross_a & _MASK32) + (cross_b & _MASK32)
    return (a_hi * b_hi + (cross_a >> np.uint64(32)) + (cross_b >> np.uint64(32))
            + (middle >> np.uint64(32)))


class _WordStream:
    """Per pair, the 32-bit words a seeded PCG64 hands to ``integers``."""

    def __init__(self, init_hi, init_lo, seq_hi, seq_lo):
        one = np.uint64(1)
        self.inc_hi = seq_hi << one | seq_lo >> np.uint64(63)
        self.inc_lo = seq_lo << one | one
        # state 0 stepped once is the increment; add the initial state
        lo = self.inc_lo + init_lo
        hi = self.inc_hi + init_hi + (lo < init_lo)
        self.hi, self.lo = self._step(hi, lo, self.inc_hi, self.inc_lo)
        self.output = np.zeros_like(lo)
        # the output's high half is still to be read
        self.buffered = np.zeros(lo.shape, dtype=bool)

    @staticmethod
    def _step(hi, lo, inc_hi, inc_lo):
        """state * multiplier + increment, mod 2^128."""
        new_lo = lo * _PCG_MULT_LO + inc_lo
        new_hi = (hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi(lo, _PCG_MULT_LO)
                  + inc_hi + (new_lo < inc_lo))
        return new_hi, new_lo

    def next(self, pairs: np.ndarray) -> np.ndarray:
        """The next word of each stream in ``pairs``, as uint64."""
        fresh = pairs[~self.buffered[pairs]]
        hi, lo = self._step(self.hi[fresh], self.lo[fresh], self.inc_hi[fresh],
                            self.inc_lo[fresh])
        self.hi[fresh], self.lo[fresh] = hi, lo
        # XSL-RR: the halves' xor, rotated right by the state's top 6 bits
        folded, rotation = hi ^ lo, hi >> np.uint64(58)
        self.output[fresh] = folded >> rotation | folded << (np.uint64(64) - rotation & np.uint64(63))
        buffered = self.buffered[pairs]
        output = self.output[pairs]
        self.buffered[pairs] = ~buffered
        return np.where(buffered, output >> np.uint64(32), output & _MASK32)


def _bounded(words: _WordStream, n: int) -> np.ndarray:
    """``integers(n)`` for 2 <= n <= 2^32, one draw per stream: Lemire's
    multiply, with rejected streams redrawn from their next word."""
    threshold = (2 ** 32 - n) % n
    drawn = np.empty(len(words.lo), dtype=np.int64)
    pending = np.arange(len(words.lo))
    while pending.size:
        product = words.next(pending) * np.uint64(n)
        drawn[pending] = product >> np.uint64(32)
        pending = pending[(product & _MASK32) < threshold]
    return drawn
