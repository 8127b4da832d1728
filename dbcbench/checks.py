"""Correctness checks on the outputs of a workload round.

Each check raises ``CheckFailed`` on a wrong output. The references here
are written apart from dbcscore: pair draws, neighbours, forward passes,
bisection and entropy are recomputed with plain numpy, and the
signed-rank figures come from scipy. Tolerances are derived in the
docstrings (and in README.md); none is fitted to observed outputs.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import scipy.stats

# |f - 0.5| rounding and lam*a + (1-lam)*b rounding are both below this
# per coordinate for the magnitudes the workloads produce (|x| < 1e3)
POINT_SLACK = 1e-9
# float64 eigen-solver and entropy rounding on sets of <= 3072 x 2000
ENTROPY_SLACK = 1e-10
WILCOXON_RTOL = 1e-9


class CheckFailed(Exception):
    """A program output disagrees with its reference or property."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---- independent references ----------------------------------------------

def ref_forward(weights, biases, activation, X):
    """Evaluation-mode MLP forward pass with a sigmoid head."""
    h = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for w, b in zip(weights[:-1], biases[:-1]):
        z = h @ np.asarray(w).T + np.asarray(b)
        h = np.tanh(z) if activation == "tanh" else np.maximum(z, 0.0)
    z = (h @ np.asarray(weights[-1]).T + np.asarray(biases[-1]))[:, 0]
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def mlp_reference(model):
    """The reference forward pass of a trained MlpModel's parameters."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    return lambda X: ref_forward(weights, biases, model.hidden_activation, X)


def ref_pair(labels, pair_index, seed):
    """Row indices (class 0, class 1) of pair ``pair_index``: one draw from
    each class with the sub-seed (seed, pair_index)."""
    rng = np.random.default_rng([seed, pair_index])
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    return int(idx0[rng.integers(idx0.size)]), int(idx1[rng.integers(idx1.size)])


def ref_neighbors(X, labels, hub, count):
    """``count`` nearest rows of the hub's class, by brute force, ties to
    the lower row index, the hub itself moved first."""
    same = np.flatnonzero(labels == labels[hub])
    dist = np.linalg.norm(X[same] - X[hub], axis=1)
    order = sorted(range(same.size), key=lambda j: (dist[j], same[j]))
    rows = [int(same[j]) for j in order[:count]]
    if hub in rows:
        rows.remove(hub)
        rows.insert(0, hub)
    return rows


def ref_bisect(f, a, b, eps):
    """Bisection on lam in [0, 1] for x = lam*a + (1-lam)*b, with f(b) >= 0.5
    and f(a) < 0.5: ceil(log2(1/eps)) halvings, the last midpoint kept."""
    lo, hi, lam = 0.0, 1.0, 0.5
    for _ in range(math.ceil(math.log2(1.0 / eps))):
        lam = 0.5 * (lo + hi)
        g = f((lam * a + (1.0 - lam) * b)[None, :])[0] - 0.5
        if g == 0.0:
            break
        if g > 0.0:
            lo = lam
        else:
            hi = lam
    return lam


def is_last_midpoint(lam, f_value, eps):
    """Bisection of [0, 1] to width eps ends on an odd multiple of 2^-n,
    n = ceil(log2(1/eps)), unless an earlier midpoint hit f = 0.5 exactly."""
    scaled = lam * 2.0 ** math.ceil(math.log2(1.0 / eps))
    return f_value == 0.5 or (scaled == math.floor(scaled) and scaled % 2 == 1)


def oriented_segments(f, X, anchor, rows):
    """(low side, high side) row pairs for the rows that straddle 0.5
    with the anchor; the others are crossing failures."""
    f_anchor = f(X[anchor][None, :])[0]
    f_rows = f(X[rows])
    segments = []
    for row, value in zip(rows, f_rows):
        if f_anchor < 0.5 <= value:
            segments.append((anchor, row))
        elif value < 0.5 <= f_anchor:
            segments.append((row, anchor))
    return segments


def ref_entropy(points):
    """Normalized entropy of the centered spectrum of ``points`` (examples
    as rows), from squared singular values, divided by log min(n, m)."""
    P = points - points.mean(axis=0)
    s2 = np.linalg.svd(P, compute_uv=False) ** 2
    divisor = min(points.shape)
    total = s2.sum()
    if total == 0.0 or divisor <= 1:
        return 0.0, s2
    p = s2[s2 > 0.0] / total
    return float(-(p * np.log(p)).sum() / math.log(divisor)), s2


def entropy_tolerance(s2, frob_distance):
    """Bound on the normalized-entropy change when the point matrix moves
    by ``frob_distance`` in Frobenius norm.

    Singular values move by at most that distance in l2 (Mirsky), so the
    eigenvalue proportions move by T <= e(2 sqrt(S) + e)/S in total
    variation, S the sum of squared singular values; the Fannes-Audenaert
    inequality then bounds the entropy change by T log(d-1) + h(T).
    """
    d = s2.size
    total = float(s2.sum())
    if d <= 1 or total == 0.0:
        return ENTROPY_SLACK
    e = frob_distance
    T = e * (2.0 * math.sqrt(total) + e) / total
    if T >= 1.0 - 1.0 / d:
        return 1.0
    h = 0.0 if T == 0.0 else -T * math.log(T) - (1.0 - T) * math.log1p(-T)
    return (T * math.log(max(d - 1, 1)) + h) / math.log(d) + ENTROPY_SLACK


# ---- checks ----------------------------------------------------------------

def check_scores(scores, k=None):
    """Every score in [0, 1]; no local set wider than k+1 columns."""
    for s in scores:
        require(0.0 <= s.value <= 1.0, f"score {s.value} of pair {s.pair_index} outside [0, 1]")
        if k is not None:
            require(s.sample_count <= k + 1,
                    f"local set of pair {s.pair_index} has {s.sample_count} columns, k+1 = {k + 1}")


def check_same_scores(pooled, serial):
    """Pooled scores equal serial scores pair by pair, bit for bit."""
    got = {s.pair_index: (s.sample_count, s.value) for s in pooled}
    for s in serial:
        require(got.get(s.pair_index) == (s.sample_count, s.value),
                f"pair {s.pair_index}: pooled {got.get(s.pair_index)} != serial "
                f"{(s.sample_count, s.value)}")


def check_wilcoxon(values_a, values_b, statistic, p_value):
    """The ``a_less`` signed-rank statistic and p-value against scipy's
    normal approximation with tie and continuity corrections."""
    ref = scipy.stats.wilcoxon(values_a, values_b, zero_method="wilcox",
                               correction=True, method="approx",
                               alternative="less")
    require(abs(statistic - ref.statistic) <= WILCOXON_RTOL * ref.statistic,
            f"signed-rank statistic {statistic} != scipy {ref.statistic}")
    # below the smallest normal double scipy's normal tail underflows to 0
    # where erfc still returns a subnormal, so the gap is absolute there
    require(abs(p_value - ref.pvalue) <= WILCOXON_RTOL * ref.pvalue + np.finfo(np.float64).tiny,
            f"signed-rank p-value {p_value!r} != scipy {ref.pvalue!r}")


def check_accuracy(f_ref, X, labels, bound, name):
    acc = float(np.mean((f_ref(X) >= 0.5) == (labels == 1)))
    require(acc > bound, f"{name}: held-out accuracy {acc:.4f} <= bound {bound:.4f}")


def blob_accuracy_bound(center_distance):
    """Halfway between chance and the Bayes accuracy Phi(d/2) of two unit
    isotropic Gaussians whose centres are ``center_distance`` apart."""
    bayes = 0.5 * (1.0 + math.erf(center_distance / 2.0 / math.sqrt(2.0)))
    return 0.5 + 0.5 * (bayes - 0.5)


def check_local_sample(local_set, f_ref, X, labels, scores, pair_indices,
                       k, eps, seed):
    """Local scores of the sampled pairs against the reference.

    ``local_set(pair_index)`` returns the program's AdversarialSet for the
    pair. Its columns must join the same rows as the reference's
    brute-force neighbours; each lam must be where a bisection to eps
    ends; each of its points must lie within
    eps*|a - b| of the reference bisection point on the same segment (both
    end inside brackets of width <= eps); and the score must match the
    reference entropy within the bound that this point distance implies.
    """
    by_index = {s.pair_index: s for s in scores}
    for i in pair_indices:
        require(i in by_index, f"pair {i} has no local score")
        ia, ib = ref_pair(labels, i, seed)
        rows = ref_neighbors(X, labels, ib, k + 1)
        segments = oriented_segments(f_ref, X, ia, rows)
        aset = local_set(i)
        got = [(c.index_a, c.index_b) for c in aset.provenance]
        require(got == segments, f"pair {i}: set columns {got} != reference {segments}")
        for c in aset.provenance:
            require(is_last_midpoint(c.lam, c.f_value, eps),
                    f"pair {i}: lam {c.lam!r} is not the last midpoint of a bisection to {eps}")
        ref_points = np.array([
            (lam := ref_bisect(f_ref, X[lo], X[hi], eps)) * X[lo] + (1.0 - lam) * X[hi]
            for lo, hi in segments])
        points = aset.points.T
        lengths = np.linalg.norm(X[[lo for lo, _ in segments]] - X[[hi for _, hi in segments]], axis=1)
        moved = np.linalg.norm(points - ref_points, axis=1)
        require((moved <= eps * lengths + POINT_SLACK).all(),
                f"pair {i}: boundary point off the reference by {moved.max():.3g} "
                f"(eps*|a-b| = {(eps * lengths).min():.3g})")
        expected, s2 = ref_entropy(ref_points)
        tol = entropy_tolerance(s2, float(np.linalg.norm(points - ref_points)))
        value = by_index[i].value
        require(abs(value - expected) <= tol,
                f"pair {i}: score {value!r} != reference {expected!r} (tolerance {tol:.3g})")


def line_score_bound(A, B, w, t, eps):
    """Upper bound on the 2-D score of boundary points on segments A->B when
    the true boundary is the line w.x = t and each point lies within
    eps*|a - b| of its exact crossing.

    The exact crossings are collinear (centered rank 1, singular value
    s1); moving the points by E with |E|_F <= e leaves sigma2 <= e and
    sigma1 >= s1 - e, so the minor eigenvalue share is at most
    e^2/((s1 - e)^2 + e^2) and the score at most its binary entropy over
    log 2.
    """
    lam = (t - B @ w) / ((A - B) @ w)
    P = lam[:, None] * A + (1.0 - lam)[:, None] * B
    s1 = float(np.linalg.norm(P - P.mean(axis=0)))
    e = float(np.sqrt(((eps * np.linalg.norm(A - B, axis=1) + POINT_SLACK) ** 2).sum()))
    if s1 <= e:
        return 1.0
    share = e * e / ((s1 - e) ** 2 + e * e)
    if share >= 0.5:
        return 1.0
    return (-share * math.log(share) - (1.0 - share) * math.log1p(-share)) / math.log(2.0)


def tanh_line(doc):
    """The boundary line w.x = t of a 2,1,1 tanh net given as a model file
    document: f = sigmoid(v tanh(w.x + c) + d) = 0.5 where tanh(.) = -d/v."""
    (w,), (c,) = doc["weights"][0], doc["biases"][0]
    ((v,),), (d,) = doc["weights"][1], doc["biases"][1]
    require(abs(d / v) < 1.0, f"2,1,1 tanh net has no boundary (d/v = {d / v})")
    return np.asarray(w), math.atanh(-d / v) - c


def check_line_scores(doc, X, labels, local_scores, global_value, k, reps,
                      eps, seed):
    """Every local score and the global score of a 2,1,1 tanh net lie below
    the bound its straight boundary and eps imply."""
    w, t = tanh_line(doc)
    f_ref = lambda P: ref_forward(doc["weights"], doc["biases"], "tanh", P)
    neighbours = {}
    for s in local_scores:
        ia, ib = ref_pair(labels, s.pair_index, seed)
        if ib not in neighbours:
            neighbours[ib] = ref_neighbors(X, labels, ib, k + 1)
        segments = oriented_segments(f_ref, X, ia, neighbours[ib])
        require(len(segments) == s.sample_count,
                f"pair {s.pair_index}: {s.sample_count} columns, reference {len(segments)}")
        lo, hi = zip(*segments)
        bound = line_score_bound(X[list(lo)], X[list(hi)], w, t, eps)
        require(s.value <= bound,
                f"pair {s.pair_index}: straight-boundary score {s.value!r} above bound {bound!r}")
    f_rows = f_ref(X)
    segments = []
    for i in range(reps):
        ia, ib = ref_pair(labels, i, seed)
        if f_rows[ia] < 0.5 <= f_rows[ib]:
            segments.append((ia, ib))
        elif f_rows[ib] < 0.5 <= f_rows[ia]:
            segments.append((ib, ia))
    lo, hi = zip(*segments)
    bound = line_score_bound(X[list(lo)], X[list(hi)], w, t, eps)
    require(global_value <= bound,
            f"straight-boundary global score {global_value!r} above bound {bound!r}")


def check_on_hyperplane(aset, X, w, eps):
    """Every global boundary point of f = sigmoid(c * w.x) lies within
    eps*|w.(a - b)|/|w| of the hyperplane w.x = 0: it is within eps in lam
    of the exact crossing, and w.x is linear in lam."""
    unit = w / np.linalg.norm(w)
    A = X[[c.index_a for c in aset.provenance]]
    B = X[[c.index_b for c in aset.provenance]]
    offset = np.abs(aset.points.T @ unit)
    bound = eps * np.abs((A - B) @ unit) + POINT_SLACK
    worst = int(np.argmax(offset - bound))
    require((offset <= bound).all(),
            f"global boundary point {worst} is {offset[worst]:.3g} off the hyperplane "
            f"(bound {bound[worst]:.3g})")


def read_score_file(path):
    """(scores, metadata) of a dbc score CSV, parsed without dbcscore."""
    metadata, body = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
            elif line.strip():
                body.append(line.strip().split(","))
    header = body[0]
    col = {name: header.index(name) for name in ("pair_index", "m", "dbc")}
    scores = [SimpleNamespace(pair_index=int(row[col["pair_index"]]),
                              sample_count=int(row[col["m"]]),
                              value=float(row[col["dbc"]]))
              for row in body[1:]]
    return scores, metadata
