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

A local batch scores its pairs in fixed blocks: each block's local sets
share one crossing-kernel call, and each set keeps its own spectrum and
score, so a score never depends on the block, the batch length or the
worker count.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boundary import (MAX_FAILURE_RATE, AdversarialSet, CrossingConfig,
                       FailureRateExceeded, _crossing_sets, _local_ends,
                       global_adversarial_set)
# dbcbench/tracing.py wraps this name here; the batch itself never calls it
from .boundary import local_adversarial_set  # noqa: F401
from .dataset import LabeledDataset, sample_pair

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
    if not np.isfinite(X).all():
        raise SpectrumError("non-finite entries in adversarial set")
    if center:
        X = X - X.mean(axis=1, keepdims=True)
    if n <= m:
        second_moment = X @ X.T
    else:
        second_moment = X.T @ X
    eig = np.linalg.eigvalsh(second_moment)
    top = float(eig[-1])
    tol = _NEGATIVE_EIG_RTOL * max(top, 0.0) + np.finfo(np.float64).tiny
    if (eig < -tol).any():
        raise SpectrumError(
            f"eigenvalue {eig.min():.6g} is too negative for solver noise "
            f"(tolerance {-tol:.6g})"
        )
    eig = np.clip(eig, 0.0, None)[::-1]
    return EigenSpectrum(eigenvalues=eig, dimension=n, sample_count=m,
                         centered=center)


def normalized_entropy(spectrum: EigenSpectrum,
                       divisor_mode: str = "effective") -> DbcScore:
    """Shannon entropy of eigenvalue proportions over log(divisor).

    The proportions are p_i = lam_i / sum(lam); H = -sum p_i log p_i with
    0 log 0 = 0. An all-zero spectrum scores 0 (a single repeated point is
    maximally simple), as does a divisor of 1.
    """
    if divisor_mode not in DIVISOR_MODES:
        raise SpectrumError(f"divisor_mode must be one of {DIVISOR_MODES}")
    eig = spectrum.eigenvalues
    if divisor_mode == "paper_n":
        divisor = spectrum.dimension
    else:
        divisor = min(spectrum.dimension, spectrum.sample_count)
    total = float(eig.sum())
    if total == 0.0 or divisor <= 1:
        return DbcScore(value=0.0, spectrum=spectrum,
                        normalization_divisor=divisor)
    p = eig / total
    positive = p[p > 0.0]
    entropy = float(-(positive * np.log(positive)).sum())
    value = min(max(entropy / math.log(divisor), 0.0), 1.0)
    return DbcScore(value=value, spectrum=spectrum,
                    normalization_divisor=divisor)


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


# a pool worker's bound _score_block, set once by its initializer
_pool_task = None


def _set_pool_task(task) -> None:
    global _pool_task
    _pool_task = task
    _pin_blas_threads()


def _run_pool_task(start: int):
    return _pool_task(start)


def _pin_blas_threads() -> None:
    """Run this worker's BLAS on one thread, so that the workers of a pool
    do not oversubscribe the cores between them. Does nothing where numpy
    does not bundle scipy-openblas."""
    for path in Path(np.__file__).parent.with_name("numpy.libs").glob(
            "libscipy_openblas64_*"):
        try:
            set_threads = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
        return


def _score_block(start: int, f, dataset, ends, f_rows, block, k, config, center,
                 divisor_mode):
    """LocalScores of pairs start .. start+block-1; a pair whose local set
    aborts gets the message of its FailureRateExceeded instead."""
    ends = ends[start:start + block]
    results = []
    for i, result in enumerate(_crossing_sets(f, dataset, ends, f_rows[ends], "local",
                                              config), start):
        if isinstance(result, FailureRateExceeded):
            results.append(str(result))
            continue
        points = result[0]
        score = normalized_entropy(eigen_spectrum(points.T, center), divisor_mode)
        results.append(LocalScore(pair_index=i, k=k, sample_count=points.shape[0],
                                  value=score.value))
    return results


def dbc_local_batch(f, dataset: LabeledDataset, reps: int, k: int,
                    config: CrossingConfig = CrossingConfig(), seed: int = 0,
                    center: bool = True, divisor_mode: str = "effective",
                    expand_around: str = "b", workers: int = 1) -> list[LocalScore]:
    """One local DBC score per sampled pair; order follows pair index.

    The pair sequence depends only on (dataset, reps, seed), so two models
    scored with the same seed see identical pairs and their score lists
    pair up by index. f is evaluated once on every dataset row, for the
    segment ends, and k_nearest once per distinct hub row. Pair i then
    goes to block i // P, where P = min(32, max(1, 2**19 // ((k+1) *
    dimension))) depends only on k and the dimension; each block's
    segments go through one crossing-kernel call, and each pair's set
    gets its own spectrum. Blocks may fan out over min(``workers``,
    blocks) processes, each of which receives ``f`` and ``dataset`` once,
    when it starts and pins its BLAS to one thread; a single block runs
    serially. Since a block's rows never depend on ``workers`` or
    ``reps``, results are identical at any worker count (at least 1).
    Scores that fail (too many crossing failures inside one local set) are
    dropped; more than MAX_FAILURE_RATE of them dropped aborts the batch.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pairs = [sample_pair(dataset, i, seed) for i in range(reps)]
    ends = _local_ends(dataset, pairs, k, expand_around)
    f_rows = np.asarray(f(dataset.features), dtype=np.float64)
    # larger blocks ran no faster; the row budget keeps a wide block's
    # buffers below the memory of a global set
    block = min(32, max(1, 2 ** 19 // ((k + 1) * dataset.dimension)))
    task = functools.partial(_score_block, f=f, dataset=dataset, ends=ends,
                             f_rows=f_rows, block=block, k=k, config=config,
                             center=center, divisor_mode=divisor_mode)
    starts = range(0, reps, block)
    processes = min(workers, len(starts))
    if processes == 1:
        blocks = map(task, starts)
    else:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=processes,
                                    initializer=_set_pool_task,
                                    initargs=(task,)) as pool:
            blocks = list(pool.map(_run_pool_task, starts,
                                   chunksize=max(1, len(starts) // (processes * 8))))
    results = [r for scores in blocks for r in scores]
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
    """Read a score CSV; returns (scores, metadata dict)."""
    path = Path(path)
    if not path.exists():
        raise SpectrumError(f"no such file: {path}")
    metadata = {}
    rows = []
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
    if not body:
        raise SpectrumError(f"score file {path} has no rows")
    reader = csv.DictReader(body)
    for r, row in enumerate(reader):
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
    return rows, metadata
