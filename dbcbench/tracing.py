"""Span tracing around the public functions of dbcscore, from outside.

``traced(tracer)`` replaces public functions at their module attributes
(including the names that ``boundary``, ``spectrum`` and ``cli`` import
from sibling modules) with wrappers that record one span per call, and
restores the originals on exit. Decision functions are wrapped in
``CountingCallable``, which records a ``model.forward`` span with the
number of rows evaluated. Spans stay in memory; the caller writes them out.

The package itself is not modified; spans cover only what a caller can
see at these boundaries.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from dbcscore import boundary, cli, dataset, model, spectrum, stats

# (module, attribute, span name); one function imported under several
# module attributes is patched at each of them
PATCHES = (
    (dataset, "make_blobs", "dataset.make_blobs"),
    (cli, "make_blobs", "dataset.make_blobs"),
    (dataset, "load_csv", "dataset.csv"),
    (cli, "load_csv", "dataset.csv"),
    (dataset, "save_csv", "dataset.csv"),
    (cli, "save_csv", "dataset.csv"),
    (dataset, "k_nearest", "dataset.k_nearest"),
    (boundary, "k_nearest", "dataset.k_nearest"),
    (dataset, "sample_pair", "dataset.sample_pair"),
    (spectrum, "sample_pair", "dataset.sample_pair"),
    (model, "train", "model.train"),
    (cli, "train", "model.train"),
    (model, "batch_gradients", "model.grad"),
    (cli, "save_model", "model.io"),
    (boundary, "local_adversarial_set", "boundary.local_set"),
    (spectrum, "local_adversarial_set", "boundary.local_set"),
    (boundary, "global_adversarial_set", "boundary.global_set"),
    (spectrum, "global_adversarial_set", "boundary.global_set"),
    (cli, "global_adversarial_set", "boundary.global_set"),
    (spectrum, "eigen_spectrum", "spectrum.eigen"),
    (spectrum, "normalized_entropy", "spectrum.entropy"),
    (spectrum, "dbc_local_batch", "spectrum.local_batch"),
    (cli, "dbc_local_batch", "spectrum.local_batch"),
    (spectrum, "dbc_global", "spectrum.global"),
    (cli, "dbc_global", "spectrum.global"),
    (cli, "save_score_batch", "spectrum.score_io"),
    (cli, "load_score_batch", "spectrum.score_io"),
    (stats, "signed_rank_test", "stats.rank_test"),
    (cli, "compare_scores", "stats.compare"),
    (cli, "render_plot2d", "svgplot.render"),
    (cli, "main", "cli.main"),
)

SET_SPANS = ("boundary.local_set", "boundary.global_set")


class Tracer:
    """In-memory spans: name, start, end, parent id and optional counts."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **counts):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None, **counts}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name in SET_SPANS:
                    record["segments"] = result.sample_count
                    record["failures"] = len(result.failures)
                return result
        return wrapper


class CountingCallable:
    """A decision function that records one ``model.forward`` span per
    call, with the number of rows evaluated. Attribute reads pass through,
    so it stands in for an ``MlpModel`` wherever the CLI reads one."""

    def __init__(self, f, tracer):
        self._f = f
        self._tracer = tracer

    def __call__(self, x):
        rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
        with self._tracer.span("model.forward", rows=rows):
            return self._f(x)

    def __getattr__(self, name):
        return getattr(self._f, name)


@contextmanager
def traced(tracer):
    """Patch every PATCHES target (and ``cli.load_model``, whose models
    come back counted) for the duration of the block."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
    originals.append((cli, "load_model", cli.load_model))
    for mod, attr, name in PATCHES:
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
    load = tracer.wrap("model.io", cli.load_model)
    cli.load_model = lambda path: CountingCallable(load(path), tracer)
    try:
        yield
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans):
    """Per-layer figures of one traced round, keyed by metric name."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def self_total(name):
        return sum(own[s["id"]] for s in named(name))

    def inside_set(s):
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] in SET_SPANS:
                return True
            parent = by_id[parent]["parent"]
        return False

    forward = named("model.forward")
    rows = sum(s["rows"] for s in forward)
    set_rows = sum(s["rows"] for s in forward if inside_set(s))
    sets = named("boundary.local_set") + named("boundary.global_set")
    segments = sum(s.get("segments", 0) for s in sets)
    # a local set that aborts on its failure rate has no "segments" key
    failures = sum(s.get("failures", 1) for s in sets)
    steps = len(named("model.grad"))
    return {
        "dataset.k_nearest.calls": len(named("dataset.k_nearest")),
        "dataset.k_nearest.s": total("dataset.k_nearest"),
        "dataset.sample_pair.s": total("dataset.sample_pair"),
        "dataset.csv.s": total("dataset.csv"),
        "model.forward.calls": len(forward),
        "model.forward.rows": rows,
        "model.forward.s": total("model.forward"),
        "model.forward.rows_per_s": rows / total("model.forward"),
        "model.train.steps": steps,
        "model.train.steps_per_s": steps / total("model.train"),
        "model.train.grad_s": total("model.grad"),
        "model.train.update_s": self_total("model.train"),
        "model.io.s": total("model.io"),
        "boundary.local_set.calls": len(named("boundary.local_set")),
        "boundary.local_set.s": self_total("boundary.local_set"),
        "boundary.global_set.s": total("boundary.global_set"),
        "boundary.segments": segments,
        "boundary.rows_per_segment": set_rows / segments,
        "boundary.failures": failures,
        "spectrum.eigen.calls": len(named("spectrum.eigen")),
        "spectrum.eigen.s": total("spectrum.eigen"),
        "spectrum.entropy.s": total("spectrum.entropy"),
        "spectrum.local_batch.s": self_total("spectrum.local_batch"),
        "spectrum.score_io.s": total("spectrum.score_io"),
        "stats.rank_test.s": total("stats.rank_test"),
        "cli.self_s": self_total("cli.main"),
        "svgplot.render.s": self_total("svgplot.render"),
    }
