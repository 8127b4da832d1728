"""Command-line front end: dataset generation, training, scoring,
comparison and 2-D boundary plotting.

Every output file gets a ``<file>.manifest.json`` sidecar recording the
command, flags, master seed and input hashes; the output files themselves
contain no timestamps, so reruns with identical flags are byte-identical.

Exit codes: 0 success, 1 usage error, 2 data/contract error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .boundary import (CrossingConfig, CrossingError, FailureRateExceeded,
                       global_adversarial_set)
from .dataset import DatasetError, LabeledDataset, load_csv, make_blobs, minmax_scale, save_csv
from .model import (ModelError, TrainConfig, TrainingDiverged, load_model,
                    save_model, train)
from .spectrum import (SpectrumError, dbc_global, dbc_local_batch,
                       load_score_batch, save_score_batch, LocalScore)
from .stats import StatsError, compare_scores
from .svgplot import render_plot2d

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# score-file metadata that must match for two batches to be comparable
_SCORING_CONTRACT = ("mode", "k", "epsilon", "method", "center", "divisor_mode",
                    "expand_around", "scale")

SAME_DATASET_CAVEAT = (
    "DBC scores are meaningless for a single model in isolation and are "
    "comparable only across models trained on the same dataset."
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    command: str
    flags: dict
    master_seed: int | None
    input_hashes: dict
    artifact_version: str
    timestamp: str

    def write_sidecar(self, out_path) -> Path:
        sidecar = Path(str(out_path) + ".manifest.json")
        sidecar.write_text(json.dumps(asdict(self), indent=2) + "\n",
                           encoding="utf-8")
        return sidecar


def _manifest(command, args, seed, input_hashes) -> RunManifest:
    flags = {k: v for k, v in sorted(vars(args).items())
             if k not in ("func", "command")}
    return RunManifest(command=command, flags=flags, master_seed=seed,
                       input_hashes=input_hashes, artifact_version=__version__,
                       timestamp=datetime.now(timezone.utc).isoformat())


def _parse_epsilon(text: str) -> float:
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            value = float(num) / float(den)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"epsilon must be a ratio or decimal, got {text!r}") from None
    if not 0.0 < value < 1.0:
        raise UsageError(f"epsilon must lie in (0, 1), got {text!r}")
    return value


def _parse_arch(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"architecture must be comma-separated integers, got {text!r}") from None
    if len(sizes) < 2:
        raise UsageError("architecture needs at least an input and an output layer")
    return sizes


def _parse_dropout(text: str) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--dropout must be comma-separated rates, got {text!r}") from None


def _load_dataset(args) -> tuple[LabeledDataset, str]:
    column = args.label_column
    if isinstance(column, str) and (column.isdigit()
                                    or (column.startswith("-") and column[1:].isdigit())):
        column = int(column)
    dataset = load_csv(args.data, column)
    if getattr(args, "scale", False):
        dataset = minmax_scale(dataset)
    return dataset, _sha256(args.data)


def cmd_blobs(args) -> int:
    if args.per_class < 1 or args.dim < 1:
        raise UsageError("--per-class and --dim must be positive")
    if args.center_distance <= 0 or args.spread <= 0:
        raise UsageError("--center-distance and --spread must be positive")
    dataset = make_blobs(per_class=args.per_class, dimension=args.dim,
                         center_distance=args.center_distance,
                         spread=args.spread, seed=args.seed)
    save_csv(dataset, args.out)
    _manifest("blobs", args, args.seed, {}).write_sidecar(args.out)
    print(f"wrote {args.out}: {dataset.count} rows, dimension {dataset.dimension}")
    return EXIT_OK


def cmd_train(args) -> int:
    dataset, data_hash = _load_dataset(args)
    arch = _parse_arch(args.arch)
    dropout = _parse_dropout(args.dropout)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                         learning_rate=args.lr, seed=args.seed,
                         optimizer=args.optimizer, dropout_rates=dropout,
                         target_train_accuracy=args.target_acc)
    model, report = train(dataset, arch, config, hidden_activation=args.activation)
    save_model(model, args.out)
    _manifest("train", args, args.seed, {"dataset": data_hash}).write_sidecar(args.out)
    summary = {
        "architecture": arch,
        "parameter_count": model.parameter_count(),
        "final_train_accuracy": report.final_accuracy,
        "epochs_run": report.epochs_run,
        "epoch_accuracy": report.epoch_accuracy,
    }
    text = json.dumps(summary, indent=2)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_score(args) -> int:
    if args.mode == "local" and args.k is None:
        raise UsageError("--k is required for local mode")
    if args.reps is not None and args.reps < 1:
        raise UsageError("--reps must be positive")
    workers = args.workers if args.workers is not None else int(os.environ.get("DBC_WORKERS", "1"))
    if workers < 1:
        raise UsageError("--workers (or $DBC_WORKERS) must be at least 1")
    dataset, data_hash = _load_dataset(args)
    model = load_model(args.model)
    model_hash = _sha256(args.model)
    if model.dimension != dataset.dimension:
        raise ModelError(
            f"model dimension {model.dimension} does not match dataset "
            f"dimension {dataset.dimension}"
        )
    reps = args.reps if args.reps is not None else 5 * dataset.count
    config = CrossingConfig(epsilon=_parse_epsilon(args.epsilon),
                            method=args.method.replace("-", "_"))
    divisor_mode = args.divisor.replace("-", "_")

    metadata = {
        "mode": args.mode, "k": args.k if args.mode == "local" else -1,
        "reps": reps, "seed": args.seed,
        "epsilon": repr(config.epsilon), "method": config.method,
        "center": "true" if args.center else "false",
        "divisor_mode": divisor_mode, "expand_around": args.expand_around,
        "scale": "true" if args.scale else "false",
        "dataset_sha256": data_hash, "model_sha256": model_hash,
    }
    if args.mode == "local":
        scores = dbc_local_batch(model, dataset, reps=reps, k=args.k,
                                 config=config, seed=args.seed,
                                 center=args.center, divisor_mode=divisor_mode,
                                 expand_around=args.expand_around,
                                 workers=workers)
    else:
        score = dbc_global(model, dataset, reps=reps, config=config,
                           seed=args.seed, center=args.center,
                           divisor_mode=divisor_mode)
        scores = [LocalScore(pair_index=-1, k=-1,
                             sample_count=score.spectrum.sample_count,
                             value=score.value)]
    save_score_batch(args.out, scores, metadata)
    _manifest("score", args, args.seed,
              {"dataset": data_hash, "model": model_hash}).write_sidecar(args.out)
    values = [s.value for s in scores]
    print(f"wrote {args.out}: {len(scores)} score(s), "
          f"median {float(np.median(values)):.6f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scores_a, meta_a = load_score_batch(args.a)
    scores_b, meta_b = load_score_batch(args.b)
    if not scores_a or not scores_b:
        raise StatsError("score files must contain at least one score each")
    for path, meta in ((args.a, meta_a), (args.b, meta_b)):
        if meta.get("mode") == "global":
            raise StatsError(
                f"{path} holds one global score, which no rank test can compare, "
                "even with --force; compare local score files (--mode local)"
            )
    if meta_a.get("dataset_sha256") != meta_b.get("dataset_sha256") and not args.force:
        raise StatsError(
            "score files come from different datasets; DBC scores are only "
            "comparable across models trained on the same dataset "
            "(use --force to override)"
        )
    method = args.test.replace("-", "_")
    keys = () if args.force else _SCORING_CONTRACT
    if method == "signed_rank":
        keys += ("seed", "reps")
    mismatched = [key for key in keys if meta_a.get(key) != meta_b.get(key)]
    if mismatched:
        raise StatsError(
            "score files were scored under different parameters: "
            + ", ".join(f"{key} {meta_a.get(key)!r} vs {meta_b.get(key)!r}"
                        for key in mismatched)
            + ". Re-score with identical parameters; --force overrides all but "
            "the seed and reps that --test signed-rank pairs by."
        )
    if method == "signed_rank":
        by_index_a = {s.pair_index: s.value for s in scores_a}
        by_index_b = {s.pair_index: s.value for s in scores_b}
        shared = sorted(set(by_index_a) & set(by_index_b))
        if not shared:
            raise StatsError("no shared pair indices between the score files")
        values_a = [by_index_a[i] for i in shared]
        values_b = [by_index_b[i] for i in shared]
    else:
        values_a = [s.value for s in scores_a]
        values_b = [s.value for s in scores_b]

    report = compare_scores(values_a, values_b, method=method,
                            alternative=args.alternative, alpha=args.alpha)
    report["file_a"] = str(args.a)
    report["file_b"] = str(args.b)
    report["caveat"] = SAME_DATASET_CAVEAT
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _manifest("compare", args, None,
                  {"a": _sha256(args.a), "b": _sha256(args.b)}).write_sidecar(args.out)
    print(text)
    return EXIT_OK


def cmd_plot2d(args) -> int:
    dataset, data_hash = _load_dataset(args)
    if dataset.dimension != 2:
        raise DatasetError(
            f"plot2d requires a 2-D dataset, got dimension {dataset.dimension}"
        )
    model = load_model(args.model)
    if model.dimension != 2:
        raise ModelError(f"plot2d requires a 2-D model, got dimension {model.dimension}")
    overlay = None
    if args.overlay_reps:
        config = CrossingConfig(epsilon=_parse_epsilon(args.epsilon))
        aset = global_adversarial_set(model, dataset, reps=args.overlay_reps,
                                      config=config, seed=args.seed)
        overlay = aset.points.T
    svg = render_plot2d(dataset, model, grid=args.grid, overlay=overlay)
    Path(args.out).write_text(svg, encoding="utf-8")
    _manifest("plot2d", args, args.seed,
              {"dataset": data_hash, "model": _sha256(args.model)}).write_sidecar(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dbc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("blobs", help="generate a two-cluster synthetic dataset")
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--center-distance", type=float, default=10.0)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_blobs)

    p = sub.add_parser("train", help="train an MLP classifier on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--arch", required=True, help="layer sizes, e.g. 2,10,1")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    p.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    p.add_argument("--dropout", default="", help="per-hidden-layer rates, e.g. 0.2,0.2,0.2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target-acc", type=float, default=None)
    p.add_argument("--scale", action="store_true", help="min-max scale features to [0,1]")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="compute DBC scores for a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--mode", choices=("local", "global"), default="local")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--reps", type=int, default=None,
                   help="pair draws; defaults to 5x dataset size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", default="1/256")
    p.add_argument("--method", choices=("bisection", "linear-scan"), default="bisection")
    p.add_argument("--center", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--divisor", choices=("effective", "paper-n"), default="effective")
    p.add_argument("--expand-around", choices=("a", "b"), default="b")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default $DBC_WORKERS or 1)")
    p.add_argument("--scale", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("compare", help="rank-test two score files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--test", choices=("signed-rank", "mann-whitney"),
                   default="signed-rank")
    p.add_argument("--alternative", choices=("a_less", "b_less", "two_sided"),
                   default="a_less")
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--force", action="store_true",
                   help="compare across different datasets or scoring parameters")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot2d", help="render an SVG of data and decision regions")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--overlay-reps", type=int, default=0,
                   help="overlay a global adversarial set of this many points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", default="1/256")
    p.add_argument("--scale", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot2d)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingDiverged, FailureRateExceeded, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DatasetError, ModelError, SpectrumError, StatsError,
            CrossingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
