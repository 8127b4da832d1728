"""Tests of the benchmark itself: each correctness check rejects a wrong
output, the short mode runs every workload end to end, traced counts
repeat, and a tree without the program's sources fails without a result.

    python3 -m pytest dbcbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from dbcscore import (CrossingConfig, MlpModel, TrainConfig, dbc_global,  # noqa: E402
                      dbc_local_batch, global_adversarial_set, local_adversarial_set,
                      make_blobs, sample_pair, train)
from dbcscore.stats import compare_scores  # noqa: E402
from workloads import LinearBoundary  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EPS = 1 / 256


@pytest.fixture(scope="module")
def wavy():
    """5-D blobs and a small trained ReLU net, whose boundary bends."""
    ds = make_blobs(per_class=40, dimension=5, center_distance=4.0, spread=1.0, seed=3)
    net, _ = train(ds, [5, 8, 1], TrainConfig(epochs=60, learning_rate=0.01, seed=1))
    return ds, net


def local_sample_args(ds, f, seed=5, k=6, reps=12):
    scores = dbc_local_batch(f, ds, reps=reps, k=k, config=CrossingConfig(epsilon=EPS), seed=seed)

    def local_set(i):
        return local_adversarial_set(f, ds, sample_pair(ds, i, seed), k, CrossingConfig(epsilon=EPS))
    return local_set, scores, k, seed


def test_local_sample_accepts_program_and_rejects_perturbed_score(wavy):
    ds, net = wavy
    local_set, scores, k, seed = local_sample_args(ds, net)
    f_ref = checks.mlp_reference(net)
    picks = [s.pair_index for s in scores[:4]]
    checks.check_local_sample(local_set, f_ref, ds.features, ds.labels, scores, picks, k, EPS, seed)
    bad = [dataclasses.replace(s, value=s.value + 1e-7) if s.pair_index == picks[1] else s
           for s in scores]
    with pytest.raises(checks.CheckFailed, match="score"):
        checks.check_local_sample(local_set, f_ref, ds.features, ds.labels, bad, picks, k, EPS, seed)


def test_local_sample_rejects_moved_point(wavy):
    ds, net = wavy
    local_set, scores, k, seed = local_sample_args(ds, net)

    def moved(i):
        aset = local_set(i)
        points = aset.points.copy()
        points[:, 2] += 0.05
        return dataclasses.replace(aset, points=points)
    with pytest.raises(checks.CheckFailed, match="off the reference"):
        checks.check_local_sample(moved, checks.mlp_reference(net), ds.features, ds.labels,
                                  scores, [scores[0].pair_index], k, EPS, seed)


def test_local_sample_rejects_coarser_bisection(wavy):
    ds, net = wavy
    local_set, scores, k, seed = local_sample_args(ds, net)
    coarse = lambda i: local_adversarial_set(  # noqa: E731
        net, ds, sample_pair(ds, i, seed), k, CrossingConfig(epsilon=2 * EPS))
    with pytest.raises(checks.CheckFailed, match="last midpoint"):
        checks.check_local_sample(coarse, checks.mlp_reference(net), ds.features, ds.labels,
                                  scores, [scores[0].pair_index], k, EPS, seed)


def test_local_sample_rejects_wrong_neighbours(wavy):
    ds, net = wavy
    local_set, scores, k, seed = local_sample_args(ds, net)
    shifted = lambda i: local_set(i + 1)  # noqa: E731
    with pytest.raises(checks.CheckFailed, match="columns"):
        checks.check_local_sample(shifted, checks.mlp_reference(net), ds.features, ds.labels,
                                  scores, [scores[0].pair_index], k, EPS, seed)


def test_hyperplane_rejects_point_off_the_plane():
    ds = make_blobs(per_class=30, dimension=6, center_distance=5.0, spread=1.0, seed=1)
    w = np.array([1.0, 0.5, 0, 0, 0, 0])
    linear = LinearBoundary(w)
    aset = global_adversarial_set(linear, ds, 40, CrossingConfig(epsilon=EPS), seed=2)
    checks.check_on_hyperplane(aset, ds.features, w, EPS)
    points = aset.points.copy()
    points[:, 7] += 0.1 * w / np.linalg.norm(w)
    with pytest.raises(checks.CheckFailed, match="off the hyperplane"):
        checks.check_on_hyperplane(dataclasses.replace(aset, points=points), ds.features, w, EPS)


def test_wilcoxon_rejects_wrong_p_value_and_statistic():
    rng = np.random.default_rng(4)
    a = rng.uniform(size=300)
    b = a + rng.normal(0.05, 0.2, size=300)
    report = compare_scores(a, b, method="signed_rank", alternative="a_less")
    checks.check_wilcoxon(a, b, report["statistic"], report["p_value"])
    with pytest.raises(checks.CheckFailed, match="p-value"):
        checks.check_wilcoxon(a, b, report["statistic"], report["p_value"] * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed, match="statistic"):
        checks.check_wilcoxon(a, b, report["statistic"] + 1, report["p_value"])


def test_wilcoxon_accepts_a_subnormal_p_value_where_scipy_underflows():
    a = np.linspace(0.0, 1.0, 1900)
    b = a + 1.0 + np.linspace(0.0, 1e-3, 1900)
    report = compare_scores(a, b, method="signed_rank", alternative="a_less")
    assert 0.0 < report["p_value"] < np.finfo(np.float64).tiny
    checks.check_wilcoxon(a, b, report["statistic"], report["p_value"])


def tanh_net_doc():
    return {"weights": [[[1.0, 0.5]], [[3.0]]], "biases": [[0.2], [0.6]]}


def test_line_bound_accepts_program_and_rejects_raised_score():
    doc = tanh_net_doc()
    net = MlpModel([2, 1, 1], [np.array(w) for w in doc["weights"]],
                   [np.array(b) for b in doc["biases"]], "tanh")
    ds = make_blobs(per_class=50, dimension=2, center_distance=8.0, spread=1.0, seed=9)
    eps, k, reps, seed = 1 / 65536, 5, 40, 3
    config = CrossingConfig(epsilon=eps)
    local = dbc_local_batch(net, ds, reps=reps, k=k, config=config, seed=seed)
    value = dbc_global(net, ds, reps=reps, config=config, seed=seed).value
    args = (doc, ds.features, ds.labels)
    checks.check_line_scores(*args, local, value, k, reps, eps, seed)
    raised = [dataclasses.replace(local[0], value=local[0].value + 0.01)] + local[1:]
    with pytest.raises(checks.CheckFailed, match="straight-boundary score"):
        checks.check_line_scores(*args, raised, value, k, reps, eps, seed)
    with pytest.raises(checks.CheckFailed, match="global"):
        checks.check_line_scores(*args, local, value + 0.01, k, reps, eps, seed)


def test_range_and_width_checks():
    ok = SimpleNamespace(pair_index=0, sample_count=4, value=0.5)
    checks.check_scores([ok], k=3)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_scores([SimpleNamespace(pair_index=0, sample_count=4, value=1.0000001)])
    with pytest.raises(checks.CheckFailed, match="columns"):
        checks.check_scores([ok], k=2)


def test_same_scores_and_accuracy_checks():
    serial = dbc_local_batch(LinearBoundary(np.array([1.0, 0.0])),
                             make_blobs(30, 2, 6.0, 1.0, seed=2), reps=10, k=3)
    checks.check_same_scores(serial, serial)
    other = [dataclasses.replace(s, value=s.value * (1 + 1e-12)) for s in serial]
    with pytest.raises(checks.CheckFailed, match="pooled"):
        checks.check_same_scores(other, serial)
    X = np.array([[-1.0], [1.0]])
    f = lambda P: 1.0 / (1.0 + np.exp(-P[:, 0]))  # noqa: E731
    checks.check_accuracy(f, X, np.array([0, 1]), 0.9, "right")
    with pytest.raises(checks.CheckFailed, match="accuracy"):
        checks.check_accuracy(f, X, np.array([1, 0]), 0.9, "wrong")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "dbcbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_mode_runs_each_workload_end_to_end(workload):
    done = run_bench("--workload", workload, "--seed", "2", "--seconds", "0",
                     "--trace", "0", "--short")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_short_mode_writes_every_layer_metric_with_repeatable_counts():
    results = []
    for _ in range(2):
        done = run_bench("--workload", "cli-2d", "--seed", "3", "--seconds", "0",
                         "--trace", "1", "--short")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    counts = [k for k, unit in names.items() if unit == "count"]
    assert [results[0]["metrics"][k] for k in counts] == [results[1]["metrics"][k] for k in counts]


def test_tree_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    done = run_bench("--workload", "cli-2d", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
