"""Complexity scoring of adversarial sets.

The score of a set X (n dims x m examples) is the Shannon entropy of the
normalized eigenvalues of its second-moment matrix, divided by the log of
a divisor so the result lands in [0, 1]. When n exceeds m the nonzero
eigenvalues come from the m x m Gram matrix X'X instead of the n x n
XX', which computes the same spectrum at a fraction of the cost.

Centering is on by default (standard PCA); ``center=False`` keeps the raw
second moment, in which case the mean direction of an off-origin cloud
dominates the spectrum. The divisor is min(n, m) by default ("effective");
``paper_n`` divides by log n instead, which caps scores well below 1
whenever m is much smaller than n.

A local batch scores its pairs in fixed blocks, in two phases, over one
``boundary._Batch``, planned by ``_batch``, which holds the block rule.
First, each distinct segment of the batch is searched once, in its first
block: a block's kernel call covers the segments that first appear there.
Then each block's local sets read their crossings from those shared
results, and its sets of equal size share one stacked eigensolver call.
Each set still gets its own checks, eigenvalues and entropy, computed
with the bits of a lone ``eigen_spectrum`` and ``normalized_entropy``. A
score depends on the pairs up to its block only, so never on the batch
length or the worker count.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import ctypes
import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import (MAX_FAILURE_RATE, AdversarialSet, CrossingConfig,
                       FailureRateExceeded, _batch, _Batch, _local_ends,
                       global_adversarial_set)
from .dataset import LabeledDataset, _pair_rows
# dbcbench/tracing.py wraps these names here; the batch itself never calls them
from .boundary import local_adversarial_set  # noqa: F401
from .dataset import sample_pair  # noqa: F401

DIVISOR_MODES = ("effective", "paper_n")
SCORES_FORMAT_VERSION = "dbc-scores/1"

# relative tolerance separating eigensolver noise from genuine negatives
_NEGATIVE_EIG_RTOL = 1e-10


class SpectrumError(ValueError):
    """Raised for invalid spectra or score-file contents."""


@dataclass(frozen=True)
class EigenSpectrum:
    """Nonincreasing, nonnegative eigenvalues of a set's second moment."""

    eigenvalues: np.ndarray
    dimension: int
    sample_count: int
    centered: bool

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=np.float64)
        if eig.ndim != 1 or eig.size == 0:
            raise SpectrumError("eigenvalues must be a nonempty vector")
        if not np.isfinite(eig).all():
            raise SpectrumError("non-finite eigenvalue")
        if (eig < 0).any():
            raise SpectrumError("negative eigenvalue after clamping")
        if (np.diff(eig) > 0).any():
            raise SpectrumError("eigenvalues must be sorted nonincreasing")
        object.__setattr__(self, "eigenvalues", eig)


@dataclass(frozen=True)
class DbcScore:
    """Normalized eigenvalue entropy in [0, 1]; smaller = simpler boundary."""

    value: float
    spectrum: EigenSpectrum
    normalization_divisor: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise SpectrumError(f"score {self.value} outside [0, 1]")


def eigen_spectrum(points, center: bool = True) -> EigenSpectrum:
    """Eigenvalues of the (optionally centered) second-moment matrix.

    Accepts an AdversarialSet or a raw n x m matrix with examples as
    columns. Reports min(n, m) values, using the Gram matrix X'X when
    n > m. Tiny negative eigensolver artifacts are clamped to zero;
    anything more negative raises.
    """
    if isinstance(points, AdversarialSet):
        points = points.points
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise SpectrumError(f"expected an n x m matrix, got shape {X.shape}")
    n, m = X.shape
    if m < 2:
        raise SpectrumError(f"at least 2 examples required, got {m}")
    return EigenSpectrum(eigenvalues=_eigenvalues(X, center), dimension=n,
                         sample_count=m, centered=center)


def _eigenvalues(X, center: bool) -> np.ndarray:
    """Clamped, nonincreasing eigenvalues of each n x m set in X, shape
    (..., n, m) to (..., min(n, m)). A stack of sets goes through one
    batched product and one eigvalsh call, which give each set the bits it
    gets alone; every check still applies to each set."""
    if not np.isfinite(X).all():
        raise SpectrumError("non-finite entries in adversarial set")
    if center:
        X = X - X.mean(axis=-1, keepdims=True)
    Xt = X.swapaxes(-1, -2)
    second_moment = X @ Xt if X.shape[-2] <= X.shape[-1] else Xt @ X
    eig = np.linalg.eigvalsh(second_moment)
    tol = _NEGATIVE_EIG_RTOL * np.maximum(eig[..., -1:], 0.0) + np.finfo(np.float64).tiny
    low = (eig < -tol).any(axis=-1).ravel()
    if low.any():
        s = np.flatnonzero(low)[0]
        worst = eig.reshape(-1, eig.shape[-1])[s]
        raise SpectrumError(
            f"eigenvalue {worst.min():.6g} is too negative for solver noise "
            f"(tolerance {-tol.ravel()[s]:.6g})"
        )
    return np.clip(eig, 0.0, None)[..., ::-1]


def normalized_entropy(spectrum: EigenSpectrum,
                       divisor_mode: str = "effective") -> DbcScore:
    """Shannon entropy of eigenvalue proportions over log(divisor).

    The proportions are p_i = lam_i / sum(lam); H = -sum p_i log p_i with
    0 log 0 = 0. An all-zero spectrum scores 0 (a single repeated point is
    maximally simple), as does a divisor of 1.
    """
    divisor = _divisor(spectrum.dimension, spectrum.sample_count, divisor_mode)
    return DbcScore(value=_entropy(spectrum.eigenvalues, divisor), spectrum=spectrum,
                    normalization_divisor=divisor)


def _divisor(n: int, m: int, divisor_mode: str) -> int:
    if divisor_mode not in DIVISOR_MODES:
        raise SpectrumError(f"divisor_mode must be one of {DIVISOR_MODES}")
    return n if divisor_mode == "paper_n" else min(n, m)


def _entropy(eig: np.ndarray, divisor: int) -> float:
    """The score of one set's eigenvalues, in [0, 1]."""
    total = float(eig.sum())
    if total == 0.0 or divisor <= 1:
        return 0.0
    p = eig / total
    positive = p[p > 0.0]
    entropy = float(-(positive * np.log(positive)).sum())
    # a rank-1 set's entropy is -(1 * log 1) = -0.0; max keeps its first
    # argument on a tie, so 0.0 goes first and no score reads -0.0
    return min(max(0.0, entropy / math.log(divisor)), 1.0)


def dbc_global(f, dataset: LabeledDataset, reps: int,
               config: CrossingConfig = CrossingConfig(), seed: int = 0,
               center: bool = True, divisor_mode: str = "effective") -> DbcScore:
    """Score the boundary from one global adversarial set."""
    aset = global_adversarial_set(f, dataset, reps, config, seed)
    return normalized_entropy(eigen_spectrum(aset, center), divisor_mode)


@dataclass(frozen=True)
class LocalScore:
    pair_index: int
    k: int
    sample_count: int
    value: float


# a pool worker's _LocalBatch, set once by its initializer
_pool_task = None


def _set_pool_task(task) -> None:
    global _pool_task
    _pool_task = task


def _run_pool_task(phase, args):
    return phase(_pool_task, *args)


@functools.cache
def _openblas():
    """(get, set) of numpy's bundled scipy-openblas thread count, or None
    where numpy does not bundle scipy-openblas."""
    for path in Path(np.__file__).parent.with_name("numpy.libs").glob(
            "libscipy_openblas64_*"):
        try:
            lib = ctypes.CDLL(str(path))
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run this process's BLAS on one thread inside the block, and restore
    its own count on leaving. Workers forked inside the block inherit the
    one thread. Setting a count restarts OpenBLAS's thread pool, whose
    new thread spins for a while: in each worker it would spin on the
    cores the workers share, and so it would in this process if the count
    came back before the workers finish."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


@dataclass(frozen=True)
class _LocalBatch:
    """A planned local batch, shared by its blocks. ``search`` runs phase 1
    of a block and ``score`` phase 2; a pool's workers get the batch once,
    when they fork, and each task then names its block."""

    batch: _Batch
    k: int
    center: bool
    divisor_mode: str

    def search(self, block: int):
        """lam and f-value of each distinct segment that ``block`` owns."""
        return self.batch.search(block)

    def score(self, sets: slice, lam, fval):
        """LocalScores of the pairs of the block ``sets``, given lam and
        f-value at each of their positions; a pair whose local set aborts
        gets the message of its FailureRateExceeded instead. Sets of equal
        size are stacked into one ``_eigenvalues`` call."""
        results = self.batch.crossing_sets(sets, lam, fval, "local")
        sizes = {}
        for i, result in enumerate(results):
            if not isinstance(result, FailureRateExceeded):
                sizes.setdefault(result[0].shape[0], []).append(i)
        for m, members in sizes.items():
            # (sets, n, m): each set's examples as columns, as eigen_spectrum takes them
            stack = np.stack([results[i][0] for i in members]).swapaxes(1, 2)
            divisor = _divisor(self.batch.features.shape[1], m, self.divisor_mode)
            for i, eig in zip(members, _eigenvalues(stack, self.center)):
                results[i] = LocalScore(pair_index=sets.start + i, k=self.k, sample_count=m,
                                        value=_entropy(eig, divisor))
        return [str(r) if isinstance(r, FailureRateExceeded) else r for r in results]


def _both_phases(local: _LocalBatch, run) -> list:
    """Every block's phase 1 and phase 2; ``run(phase, arguments)`` maps a
    phase over one tuple of arguments per block, in block order. Block b
    reads only segments that blocks 0..b search, so its phase 2 is given
    the lam and f-values at its positions as soon as its own phase 1 is
    done, and never waits for a later block's."""
    batch = local.batch
    blocks = range(len(batch.owned) - 1)
    lam, fval = np.empty(len(batch.distinct)), np.empty(len(batch.distinct))

    def scoring_tasks():
        for b, searched in zip(blocks, run(_LocalBatch.search, ((b,) for b in blocks))):
            owned = slice(batch.owned[b], batch.owned[b + 1])
            lam[owned], fval[owned] = searched
            sets = slice(b * batch.per_block, (b + 1) * batch.per_block)
            yield (sets, *batch.at_positions(lam, fval, sets))

    return [r for scores in run(_LocalBatch.score, scoring_tasks()) for r in scores]


def dbc_local_batch(f, dataset: LabeledDataset, reps: int, k: int,
                    config: CrossingConfig = CrossingConfig(), seed: int = 0,
                    center: bool = True, divisor_mode: str = "effective",
                    expand_around: str = "b", workers: int = 1) -> list[LocalScore]:
    """One local DBC score per sampled pair; order follows pair index.

    The pair sequence depends only on (dataset, reps, seed), so two models
    scored with the same seed see identical pairs and their score lists
    pair up by index. f is evaluated once on every dataset row, for the
    segment ends, and one k_nearest call finds the neighbours of every
    distinct hub row at once. Pair i then goes to block i // P, where
    ``_batch`` picks P = min(32, max(1, ROW_BUDGET // ((k+1) * dimension))),
    which depends only on k and the dimension. Each distinct segment is
    searched once, in its first block: one crossing-kernel call per block
    covers the segments that first appear there, and every set that holds
    a segment reads its crossing from that one result. Each pair's set
    then gets its own spectrum, though the block's sets of equal size
    share one stacked eigensolver call. A block's searches depend on the
    pairs up to that block only, and pair i on (seed, i) alone, so a
    pair's score depends on neither ``reps`` nor ``workers``: results are
    identical at any worker count (at least 1).

    Blocks may fan out over min(``workers``, blocks) processes, one pool
    for both phases; a single block runs serially. The pool forks its
    workers, each of which receives the planned batch, with f and the
    dataset rows, once, when it starts; a block's second-phase task
    carries the lam and f-values of its own positions, and is queued as
    soon as the searches of the blocks up to its own are back. It asks
    for fork by name, since forkserver (Python 3.14's default on Linux)
    would pickle ``f``, which fails for a closure, and would not hand over
    the parent's BLAS thread count. The parent runs its BLAS on one thread
    while the pool runs, so each worker inherits one thread, and then
    restores its own count.
    Scores that fail (too many crossing failures inside one local set)
    are dropped; more than MAX_FAILURE_RATE of them dropped aborts the
    batch.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ends = _local_ends(dataset, _pair_rows(dataset, reps, seed), k, expand_around)
    local = _LocalBatch(batch=_batch(f, dataset, ends, config), k=k, center=center,
                        divisor_mode=divisor_mode)
    blocks = len(local.batch.owned) - 1
    processes = min(workers, blocks)
    if processes == 1:
        results = _both_phases(
            local, lambda phase, args: itertools.starmap(functools.partial(phase, local), args))
    else:
        import multiprocessing  # only pools need it; it adds to every start-up
        chunksize = max(1, blocks // (processes * 8))
        with _one_blas_thread(), concurrent.futures.ProcessPoolExecutor(
                max_workers=processes, mp_context=multiprocessing.get_context("fork"),
                initializer=_set_pool_task, initargs=(local,)) as pool:
            results = _both_phases(local, lambda phase, args: pool.map(
                functools.partial(_run_pool_task, phase), args, chunksize=chunksize))
    failures = [(i, r) for i, r in enumerate(results) if isinstance(r, str)]
    if len(failures) / reps > MAX_FAILURE_RATE:
        raise FailureRateExceeded(
            f"{len(failures)} of {reps} local scores failed "
            f"(> {MAX_FAILURE_RATE:.0%}). "
            f"First failure at pair {failures[0][0]}: {failures[0][1]}"
        )
    return [r for r in results if isinstance(r, LocalScore)]


def save_score_batch(path, scores: list[LocalScore], metadata: dict) -> None:
    """Write scores as CSV with ``#``-prefixed metadata header lines.

    Metadata keys and values are written in sorted key order so identical
    runs produce byte-identical files.
    """
    path = Path(path)
    lines = [f"# format: {SCORES_FORMAT_VERSION}"]
    for key in sorted(metadata):
        lines.append(f"# {key}: {metadata[key]}")
    lines.append("pair_index,k,m,dbc,divisor_mode,centered")
    divisor_mode = metadata.get("divisor_mode", "effective")
    centered = metadata.get("center", "true")
    for s in scores:
        lines.append(f"{s.pair_index},{s.k},{s.sample_count},{s.value!r},"
                     f"{divisor_mode},{centered}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_score_batch(path):
    """Read a score CSV; returns (scores, metadata dict). SpectrumError,
    naming the file, refuses a format other than SCORES_FORMAT_VERSION (a
    file without a format line reads as that one), a file without score
    rows, and a repeated ``pair_index``, since the paired test matches
    scores by pair index."""
    path = Path(path)
    if not path.exists():
        raise SpectrumError(f"no such file: {path}")
    metadata = {}
    rows = []
    seen = set()
    with open(path, newline="", encoding="utf-8") as handle:
        lines = [ln.rstrip("\n") for ln in handle if ln.strip()]
    body = []
    for line in lines:
        if line.startswith("#"):
            text = line[1:].strip()
            if ":" in text:
                key, _, value = text.partition(":")
                metadata[key.strip()] = value.strip()
        else:
            body.append(line)
    version = metadata.get("format", SCORES_FORMAT_VERSION)
    if version != SCORES_FORMAT_VERSION:
        raise SpectrumError(f"score file {path} has format {version!r}; "
                            f"this version reads {SCORES_FORMAT_VERSION!r} only")
    for r, row in enumerate(csv.DictReader(body)):
        try:
            rows.append(LocalScore(pair_index=int(row["pair_index"]),
                                   k=int(row["k"]),
                                   sample_count=int(row["m"]),
                                   value=float(row["dbc"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpectrumError(f"malformed score row {r} in {path}: {exc}") from None
        # a NaN or out-of-range score would reach the rank tests as a value
        if not 0.0 <= rows[-1].value <= 1.0:
            raise SpectrumError(f"score row {r} in {path} has dbc {row['dbc']!r}, "
                                f"not a finite value in [0, 1]")
        if rows[-1].pair_index in seen:
            raise SpectrumError(f"score row {r} in {path} repeats pair_index "
                                f"{rows[-1].pair_index}")
        seen.add(rows[-1].pair_index)
    if not rows:
        raise SpectrumError(f"score file {path} has no score rows")
    return rows, metadata
