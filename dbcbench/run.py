"""dbcscore benchmark: one workload per run, closed loop, one JSON line out.

    python3 dbcbench/run.py --workload cli-2d --seed 1 --seconds 20 --trace 0

Run from the root of a source tree that holds ``src/dbcscore``. The run
sets up the workload once, then runs as many whole rounds as fit in
``--seconds`` (at least one) and checks every round's outputs. After each
round it times the same cold set-up in a fresh interpreter
(``--setup-only``). ``setup_s`` is the median of these set-ups and the
run's own, each timed from the start of this script, so it includes
importing numpy, scipy and dbcscore. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds). With ``--trace 1`` every workload runs traced, serially, and the
metrics are the per-layer figures named ``<workload>.<layer metric>``;
the spans go to ``dbcbench/out/trace-seed<seed>.json``. See README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "dbcbench" / "out"


def declared(*kinds):
    """Metric name -> unit, for the metrics of the given kinds
    (``end_to_end``, ``per_layer``) that BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for kind in kinds for m in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shrink every size, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_program():
    """Put this tree's src/ first on the path and import dbcscore from it."""
    package = ROOT / "src" / "dbcscore" / "__init__.py"
    if not package.is_file():
        sys.exit(f"run.py: no dbcscore sources at {package.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import dbcscore
    if Path(dbcscore.__file__).resolve() != package.resolve():
        sys.exit(f"run.py: imported dbcscore from {dbcscore.__file__}, not {package}")


class Ledger:
    """Operations attempted and failed over every round of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def round(self, workload, tracer=None):
        """One round (traced when a tracer is given) plus its untraced
        checks; None when an operation failed."""
        from tracing import traced
        self.attempted += workload.ops
        try:
            with traced(tracer) if tracer else contextlib.nullcontext():
                times = workload.round(tracer)
        except Exception:
            traceback.print_exc()
            self.failed += workload.ops - workload.done
            return None
        try:
            workload.check()
        except Exception:
            # a CheckFailed, or an output the check could not even read
            traceback.print_exc()
            self.correct = False
        return times


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def whole_rounds(seconds):
    """Yield once per round: the first always, each further one only if a
    round as long as the longest so far would still end within ``seconds``."""
    begin = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        yield
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() - begin + longest > seconds:
            return


def medians(rounds):
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def cold_setup(args):
    """Set-up time of a fresh interpreter running this script with
    ``--setup-only``."""
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.short:
        argv.append("--short")
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"run.py: a --setup-only run failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def run_plain(args, workdir, ledger):
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, workdir, args.short)
    setups = [time.perf_counter() - START]
    rounds = []
    for _ in whole_rounds(args.seconds):
        times = ledger.round(workload)
        if times is None:
            break
        rounds.append(times)
        # one sample per round: a shared machine's speed can drift over
        # tens of seconds, so samples spread over the run give a steadier
        # median than consecutive ones
        setups.append(cold_setup(args))
    metrics = medians(rounds) if rounds else {}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def run_traced(args, workdir, ledger):
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS
    workloads = []
    for cls in WORKLOADS.values():
        (workdir / cls.name).mkdir()
        workloads.append(cls(args.seed, workdir / cls.name, args.short))
    rounds = {w.name: [] for w in workloads}
    spans = {w.name: [] for w in workloads}
    for _ in whole_rounds(args.seconds):
        for workload in workloads:
            tracer = Tracer()
            times = ledger.round(workload, tracer)
            if times is None:
                return {}
            figures = layer_metrics(tracer.spans)
            figures.update(workload.layer_extras())
            figures["traced.total_s"] = times["total_s"]
            rounds[workload.name].append(figures)
            spans[workload.name].append(tracer.spans)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-seed{args.seed}.json", "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    figures = {f"{name}.{metric}": value
               for name, per_round in rounds.items()
               for metric, value in medians(per_round).items()}
    return {name: figures[name] for name in declared("per_layer")}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ledger = Ledger()
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir, args.short)
            print(time.perf_counter() - START)
            return
        run = run_traced if args.trace else run_plain
        metrics = run(args, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = declared("end_to_end", "per_layer")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
