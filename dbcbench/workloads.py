"""The benchmark's workloads: set-up, one closed-loop round, and checks.

A round runs the workload's operations one after another (training runs,
score batches and compares are the counted operations) and returns the
round's ``train_s``, ``score_s`` and ``total_s``. ``check`` verifies the
outputs of the last round. Inputs come from the seed alone; ``short``
shrinks every size so that a round takes about a second, for tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import xml.etree.ElementTree as ET

import numpy as np

import checks
from dbcscore import boundary, cli, dataset, model, spectrum, stats
from tracing import CountingCallable


class OpFailed(Exception):
    """A CLI command of the round exited with a nonzero code."""


class Workload:
    name = ""
    ops = 0  # counted operations per round

    def __init__(self, seed, workdir, short):
        self.seed = seed
        self.dir = workdir

    def round(self, tracer=None):
        self.tracer = tracer
        self.done = 0
        self.times = {"train": 0.0, "score": 0.0}
        start = time.perf_counter()
        self._round()
        total = time.perf_counter() - start
        return {"train_s": self.times["train"], "score_s": self.times["score"],
                "total_s": total}

    def _op(self, kind, fn, *args, **kwargs):
        """Run one counted operation; ``kind`` is train, score or compare."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        if kind in self.times:
            self.times[kind] += time.perf_counter() - start
        self.done += 1
        return result

    def _f(self, f):
        return f if self.tracer is None else CountingCallable(f, self.tracer)

    def layer_extras(self):
        return {}


class Cli2d(Workload):
    """The README pipeline through ``dbc``: blobs, two trainings, local and
    global scores per model (local ones on a process pool), a paired
    compare and an SVG plot with a boundary overlay."""

    name = "cli-2d"
    ops = 7
    MODELS = (("simple", "2,1,1", "tanh"), ("complex", "2,10,32,16,1", "relu"))
    K = 8
    EPSILON = 1 / 65536
    SERIAL_PREFIX = 32

    def __init__(self, seed, workdir, short):
        super().__init__(seed, workdir, short)
        self.per_class, self.epochs, self.reps, self.overlay, self.grid = (
            (40, 60, 60, 20, 40) if short else (200, 300, 2000, 200, 200))
        self.workers = len(os.sched_getaffinity(0))
        self.data = str(workdir / "blobs.csv")
        self._blobs()
        self.dataset = dataset.load_csv(self.data)

    def path(self, name):
        return str(self.dir / name)

    def _cli(self, *argv):
        argv = [str(a) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"dbc {argv[0]} exited with code {code}")

    def _blobs(self):
        self._cli("blobs", "--per-class", self.per_class, "--dim", 2,
                  "--seed", self.seed, "--out", self.data)

    def _score(self, tag, mode, workers):
        extra = ["--k", self.K, "--workers", workers] if mode == "local" else []
        self._op("score", self._cli, "score", "--model", self.path(f"{tag}.json"),
                 "--data", self.data, "--mode", mode, "--reps", self.reps,
                 "--epsilon", "1/65536", "--seed", self.seed + 1, *extra,
                 "--out", self.path(f"{tag}_{mode}.csv"))

    def _round(self):
        self._blobs()
        for tag, arch, activation in self.MODELS:
            self._op("train", self._cli, "train", "--data", self.data,
                     "--arch", arch, "--activation", activation,
                     "--epochs", self.epochs, "--lr", 0.01, "--seed", self.seed,
                     "--out", self.path(f"{tag}.json"))
        # the traced round is serial; its pool figure is measured apart
        workers = 1 if self.tracer else self.workers
        for tag, _, _ in self.MODELS:
            self._score(tag, "local", workers)
            self._score(tag, "global", workers)
        self._op("compare", self._cli, "compare",
                 "--a", self.path("simple_local.csv"),
                 "--b", self.path("complex_local.csv"), "--test", "signed-rank",
                 "--alternative", "a_less", "--out", self.path("report.json"))
        self._cli("plot2d", "--model", self.path("complex.json"), "--data", self.data,
                  "--overlay-reps", self.overlay, "--grid", self.grid,
                  "--seed", self.seed + 2, "--out", self.path("boundary.svg"))

    def _serial(self, tag, reps, workers=1):
        return spectrum.dbc_local_batch(
            model.load_model(self.path(f"{tag}.json")), self.dataset, reps=reps,
            k=self.K, config=boundary.CrossingConfig(epsilon=self.EPSILON),
            seed=self.seed + 1, workers=workers)

    def check(self):
        table = np.loadtxt(self.data, delimiter=",", skiprows=1)
        X, labels = table[:, :-1], table[:, -1].astype(np.int64)
        scores = {}
        for tag, _, _ in self.MODELS:
            for mode in ("local", "global"):
                scores[tag, mode], _ = checks.read_score_file(self.path(f"{tag}_{mode}.csv"))
                checks.check_scores(scores[tag, mode], self.K if mode == "local" else None)
            serial = self._serial(tag, self.SERIAL_PREFIX)
            pooled = [s for s in scores[tag, "local"] if s.pair_index < self.SERIAL_PREFIX]
            checks.check_same_scores(pooled, serial)
            checks.check_same_scores(serial, pooled)
        with open(self.path("simple.json"), encoding="utf-8") as handle:
            simple = json.load(handle)
        checks.check_line_scores(simple, X, labels, scores["simple", "local"],
                                 scores["simple", "global"][0].value, self.K,
                                 self.reps, self.EPSILON, self.seed + 1)
        with open(self.path("report.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        checks.check_wilcoxon(*paired_values(scores["simple", "local"],
                                             scores["complex", "local"]),
                              report["statistic"], report["p_value"])
        circles = ET.parse(self.path("boundary.svg")).getroot().iter(
            "{http://www.w3.org/2000/svg}circle")
        checks.require(len(X) < sum(1 for _ in circles) <= len(X) + self.overlay,
                       "plot holds the wrong number of points")

    def layer_extras(self):
        """Serial time over pooled time for the complex model's batch,
        both untraced."""
        start = time.perf_counter()
        self._serial("complex", self.reps)
        serial = time.perf_counter() - start
        start = time.perf_counter()
        self._serial("complex", self.reps, self.workers)
        return {"spectrum.pool.speedup": serial / (time.perf_counter() - start)}


def stratified_split(ds, fraction, seed):
    """Per-class random split into (train, held-out) LabeledDatasets."""
    rng = np.random.default_rng([seed, 999])
    train_rows, held_rows = [], []
    for cls in (0, 1):
        rows = rng.permutation(ds.class_indices(cls))
        cut = int(round(fraction * rows.size))
        train_rows.extend(rows[:cut])
        held_rows.extend(rows[cut:])
    train_rows, held_rows = np.sort(train_rows), np.sort(held_rows)
    return (dataset.LabeledDataset(ds.features[train_rows], ds.labels[train_rows]),
            dataset.LabeledDataset(ds.features[held_rows], ds.labels[held_rows]))


class Desk30d(Workload):
    """Criterion-6 shapes through the library: a dropout-regularized and a
    wide net on 30-D blobs, serial local batches at k=30, one global score
    and a paired signed-rank compare."""

    name = "desk-30d"
    ops = 6
    CENTER_DISTANCE = 3.5
    K = 30
    EPSILON = 1 / 256
    SAMPLE = 4

    def __init__(self, seed, workdir, short):
        super().__init__(seed, workdir, short)
        per_class, self.reg_epochs, self.wide_epochs, self.reps, self.global_reps = (
            (60, 40, 4, 40, 40) if short else (300, 100, 60, 1000, 500))
        ds = dataset.make_blobs(per_class=per_class, dimension=30,
                                center_distance=self.CENTER_DISTANCE,
                                spread=1.0, seed=seed)
        self.train_set, self.held_out = stratified_split(ds, 0.6, seed)

    def _round(self):
        tr = self.train_set
        self.models = {
            "regularized": self._op("train", model.train, tr, [30, 20, 20, 20, 1],
                                    model.TrainConfig(epochs=self.reg_epochs, batch_size=32,
                                                      learning_rate=1e-3, seed=self.seed,
                                                      dropout_rates=(0.2, 0.2, 0.2)))[0],
            "wide": self._op("train", model.train, tr, [30, 1000, 1],
                             model.TrainConfig(epochs=self.wide_epochs, batch_size=8,
                                               learning_rate=5e-3, seed=self.seed))[0],
        }
        cross = boundary.CrossingConfig(epsilon=self.EPSILON)
        self.scores = {
            name: self._op("score", spectrum.dbc_local_batch, self._f(m), tr,
                           reps=self.reps, k=self.K, config=cross, seed=self.seed,
                           workers=1)
            for name, m in self.models.items()}
        self.global_score = self._op("score", spectrum.dbc_global,
                                     self._f(self.models["wide"]), tr,
                                     reps=self.global_reps, config=cross, seed=self.seed)
        self.paired = paired_values(self.scores["regularized"], self.scores["wide"])
        self.report = self._op("compare", stats.compare_scores, *self.paired,
                               method="signed_rank", alternative="a_less")

    def check(self):
        tr = self.train_set
        X, labels = tr.features, tr.labels
        bound = checks.blob_accuracy_bound(self.CENTER_DISTANCE)
        cross = boundary.CrossingConfig(epsilon=self.EPSILON)
        for name, m in self.models.items():
            scores = self.scores[name]
            checks.check_scores(scores, self.K)
            f_ref = checks.mlp_reference(m)
            checks.check_accuracy(f_ref, self.held_out.features, self.held_out.labels,
                                  bound, name)
            checks.check_local_sample(
                lambda i, m=m: boundary.local_adversarial_set(
                    m, tr, dataset.sample_pair(tr, i, self.seed), self.K, cross),
                f_ref, X, labels, scores, sampled(scores, self.SAMPLE),
                self.K, self.EPSILON, self.seed)
        checks.require(0.0 <= self.global_score.value <= 1.0,
                       f"global score {self.global_score.value} outside [0, 1]")
        checks.check_wilcoxon(*self.paired, self.report["statistic"],
                              self.report["p_value"])


def paired_values(scores_a, scores_b):
    """Values of the pair indices both batches scored, in index order."""
    a = {s.pair_index: s.value for s in scores_a}
    b = {s.pair_index: s.value for s in scores_b}
    shared = sorted(set(a) & set(b))
    return [a[i] for i in shared], [b[i] for i in shared]


def sampled(scores, count):
    """Pair indices of ``count`` scores spread evenly over the batch."""
    picks = np.linspace(0, len(scores) - 1, count).round().astype(int)
    return sorted({scores[j].pair_index for j in picks})


class LinearBoundary:
    """f(x) = sigmoid(4 w.x): the analytic boundary of criterion 8."""

    def __init__(self, w):
        self.w = w

    def __call__(self, points):
        z = 4.0 * np.atleast_2d(points) @ self.w
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


class Image3072d(Workload):
    """Criterion-8 shapes: an 8-D blob manifold embedded in 3072-D, an MLP
    [3072, 64, 1], local batches on the MLP and on the analytic linear
    callable, a global score of the MLP and a global set of the callable."""

    name = "image-3072d"
    ops = 5
    DIM = 3072
    LATENT = 8
    K = 15
    EPSILON = 1 / 256
    SAMPLE = 3

    def __init__(self, seed, workdir, short):
        super().__init__(seed, workdir, short)
        per_class, self.epochs, self.reps = (30, 5, 30) if short else (120, 40, 300)
        rng = np.random.default_rng([seed, 7])
        latent = dataset.make_blobs(per_class=per_class, dimension=self.LATENT,
                                    center_distance=7.0, spread=1.0, seed=seed)
        basis = np.linalg.qr(rng.standard_normal((self.DIM, self.LATENT)))[0].T
        X = latent.features @ basis + 0.002 * rng.standard_normal((latent.count, self.DIM))
        self.dataset = dataset.LabeledDataset(X, latent.labels)
        self.linear = LinearBoundary(basis[0])

    def _round(self):
        ds = self.dataset
        self.mlp = self._op("train", model.train, ds, [self.DIM, 64, 1],
                            model.TrainConfig(epochs=self.epochs, batch_size=32,
                                              learning_rate=1e-3, seed=self.seed))[0]
        cross = boundary.CrossingConfig(epsilon=self.EPSILON)
        self.callables = {"mlp": self.mlp, "linear": self.linear}
        self.scores = {
            name: self._op("score", spectrum.dbc_local_batch, self._f(f), ds,
                           reps=self.reps, k=self.K, config=cross, seed=self.seed,
                           workers=1)
            for name, f in self.callables.items()}
        self.global_score = self._op("score", spectrum.dbc_global, self._f(self.mlp), ds,
                                     reps=self.reps, config=cross, seed=self.seed)
        self.linear_set = self._op("score", boundary.global_adversarial_set,
                                   self._f(self.linear), ds, self.reps, cross, self.seed)

    def check(self):
        ds = self.dataset
        cross = boundary.CrossingConfig(epsilon=self.EPSILON)
        for name, f in self.callables.items():
            scores = self.scores[name]
            checks.check_scores(scores, self.K)
            f_ref = checks.mlp_reference(f) if name == "mlp" else f
            checks.check_local_sample(
                lambda i, f=f: boundary.local_adversarial_set(
                    f, ds, dataset.sample_pair(ds, i, self.seed), self.K, cross),
                f_ref, ds.features, ds.labels, scores, sampled(scores, self.SAMPLE),
                self.K, self.EPSILON, self.seed)
        checks.require(0.0 <= self.global_score.value <= 1.0,
                       f"global score {self.global_score.value} outside [0, 1]")
        checks.check_on_hyperplane(self.linear_set, ds.features, self.linear.w,
                                   self.EPSILON)


WORKLOADS = {w.name: w for w in (Cli2d, Desk30d, Image3072d)}
