import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dbcscore
from dbcscore import LocalScore, cli
from dbcscore.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset + two trained models shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "blobs.csv"
    assert run(["blobs", "--per-class", 60, "--dim", 2, "--seed", 7,
                "--out", data]) == 0
    simple = root / "simple.json"
    assert run(["train", "--data", data, "--arch", "2,1,1", "--activation", "tanh",
                "--epochs", 200, "--lr", "0.01", "--seed", 0,
                "--out", simple]) == 0
    complex_ = root / "complex.json"
    assert run(["train", "--data", data, "--arch", "2,10,32,16,1",
                "--epochs", 200, "--lr", "0.01", "--seed", 0,
                "--out", complex_]) == 0
    return {"root": root, "data": data, "simple": simple, "complex": complex_}


class TestBlobs:
    def test_row_count(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["blobs", "--per-class", 200, "--dim", 2, "--seed", 7,
                    "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 401  # header + 400 rows
        assert lines[0] == "f0,f1,label"

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["blobs", "--per-class", 30, "--dim", 3, "--seed", 5]
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_per_class_usage_error(self, tmp_path, capsys):
        code = run(["blobs", "--per-class", 0, "--dim", 2,
                    "--out", tmp_path / "x.csv"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_manifest_sidecar(self, tmp_path):
        out = tmp_path / "d.csv"
        run(["blobs", "--per-class", 10, "--dim", 2, "--seed", 1, "--out", out])
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["command"] == "blobs"
        assert manifest["master_seed"] == 1
        assert manifest["flags"]["per_class"] == 10


class TestTrain:
    def test_report_contents(self, workspace, capsys):
        out = workspace["root"] / "m5.json"
        assert run(["train", "--data", workspace["data"], "--arch", "2,1,1",
                    "--activation", "tanh", "--epochs", 200, "--lr", "0.01",
                    "--seed", 3, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameter_count"] == 5
        assert report["final_train_accuracy"] == 1.0

    def test_927_parameter_architecture(self, workspace, capsys):
        out = workspace["root"] / "m927.json"
        assert run(["train", "--data", workspace["data"],
                    "--arch", "2,10,32,16,1", "--epochs", 1, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameter_count"] == 927

    def test_arch_mismatch_exits_2(self, workspace, capsys):
        code = run(["train", "--data", workspace["data"], "--arch", "3,1",
                    "--epochs", 1, "--out", workspace["root"] / "bad.json"])
        assert code == 2
        assert "dimension" in capsys.readouterr().err

    def test_malformed_dropout_is_usage_error(self, workspace, capsys):
        code = run(["train", "--data", workspace["data"], "--arch", "2,4,1",
                    "--dropout", "0.2,", "--epochs", 1,
                    "--out", workspace["root"] / "bad.json"])
        assert code == 1
        assert "--dropout" in capsys.readouterr().err
        # --arch and --dropout are parsed before the data is read (a
        # missing file exits 2)
        missing, out = workspace["root"] / "missing.csv", workspace["root"] / "bad.json"
        for flags, message in ((["--arch", "x"], "architecture must be"),
                               (["--arch", "2,4,1", "--dropout", "x"], "--dropout")):
            assert run(["train", "--data", missing, *flags, "--out", out]) == 1
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_target_accuracy_above_one_refused(self, workspace, capsys):
        out = workspace["root"] / "bad.json"
        code = run(["train", "--data", workspace["data"], "--arch", "2,4,1",
                    "--target-acc", 3, "--epochs", 1, "--out", out])
        assert code == 2
        assert "target_train_accuracy" in capsys.readouterr().err
        assert not out.exists()


class TestScore:
    def test_local_csv_shape(self, workspace, capsys):
        out = workspace["root"] / "s.csv"
        assert run(["score", "--model", workspace["simple"], "--data",
                    workspace["data"], "--mode", "local", "--k", 5,
                    "--reps", 20, "--seed", 11, "--out", out]) == 0
        body = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert body[0] == "pair_index,k,m,dbc,divisor_mode,centered"
        assert len(body) == 21
        meta = dict(ln[1:].split(":", 1) for ln in out.read_text().splitlines()
                    if ln.startswith("#") and ":" in ln)
        assert meta[" seed"].strip() == "11"

    def test_workers_do_not_change_bytes(self, workspace):
        outs = []
        for workers, name in ((1, "w1.csv"), (4, "w4.csv")):
            out = workspace["root"] / name
            # 40 pairs make two blocks, so 4 workers really run a pool
            assert run(["score", "--model", workspace["simple"], "--data",
                        workspace["data"], "--mode", "local", "--k", 4,
                        "--reps", 40, "--seed", 2, "--workers", workers,
                        "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_workers_default_to_the_usable_cpus(self, workspace, monkeypatch):
        """Without --workers or $DBC_WORKERS, a local score asks for one
        worker per CPU the process may run on; the variable overrides that
        count, and the flag overrides both."""
        asked = []

        def spy(*args, workers, **kwargs):
            asked.append(workers)
            return [LocalScore(pair_index=0, k=3, sample_count=4, value=0.5)]

        monkeypatch.setattr(cli, "dbc_local_batch", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.delenv("DBC_WORKERS", raising=False)
        argv = ["score", "--model", workspace["simple"], "--data", workspace["data"],
                "--mode", "local", "--k", 3, "--reps", 5,
                "--out", workspace["root"] / "wd.csv"]
        assert run(argv) == 0
        monkeypatch.setenv("DBC_WORKERS", "2")
        assert run(argv) == 0
        assert run(argv + ["--workers", 7]) == 0
        assert asked == [3, 2, 7]

    def test_global_mode(self, workspace):
        out = workspace["root"] / "g.csv"
        assert run(["score", "--model", workspace["simple"], "--data",
                    workspace["data"], "--mode", "global", "--reps", 40,
                    "--seed", 3, "--out", out]) == 0
        body = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(body) == 2  # header + single global score

    def test_default_reps_five_times_dataset(self, workspace):
        out = workspace["root"] / "defreps.csv"
        assert run(["score", "--model", workspace["simple"], "--data",
                    workspace["data"], "--mode", "local", "--k", 3,
                    "--seed", 1, "--epsilon", "1/64", "--out", out]) == 0
        body = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert len(body) == 1 + 5 * 120

    def test_missing_k_usage_error(self, workspace):
        assert run(["score", "--model", workspace["simple"], "--data",
                    workspace["data"], "--mode", "local",
                    "--out", workspace["root"] / "x.csv"]) == 1

    def test_workers_below_one_usage_error(self, workspace, monkeypatch, capsys):
        out = workspace["root"] / "w0.csv"
        argv = ["score", "--model", workspace["simple"], "--data", workspace["data"],
                "--mode", "local", "--k", 3, "--reps", 5, "--out", out]
        assert run(argv + ["--workers", 0]) == 1
        assert "--workers" in capsys.readouterr().err
        monkeypatch.setenv("DBC_WORKERS", "-7")
        assert run(argv) == 1
        capsys.readouterr()
        monkeypatch.setenv("DBC_WORKERS", "two")
        assert run(argv) == 1
        assert "$DBC_WORKERS must be an integer, got 'two'" in capsys.readouterr().err
        monkeypatch.delenv("DBC_WORKERS")
        # --k is checked before the data is read (a missing file exits 2)
        missing = workspace["root"] / "missing.csv"
        assert run(["score", "--model", workspace["simple"], "--data", missing,
                    "--mode", "local", "--k", 0, "--out", out]) == 1
        assert "--k must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_global_reps_below_two_usage_error(self, workspace, capsys):
        """A global set needs two pairs: --reps 1 in global mode and
        --overlay-reps 1 or below 0 are usage errors, checked before any
        file is read (a missing file exits 2), as are a plot2d --grid
        below 2 and an --epsilon outside (0, 1)."""
        root = workspace["root"]
        missing_data, missing_model = root / "missing.csv", root / "missing.json"
        out = root / "reps1.csv"
        assert run(["score", "--model", missing_model, "--data", missing_data,
                    "--mode", "global", "--reps", 1, "--out", out]) == 1
        assert "--reps must be at least 2 in global mode" in capsys.readouterr().err
        for reps in (1, -3):
            assert run(["plot2d", "--model", missing_model, "--data", missing_data,
                        "--overlay-reps", reps, "--out", out]) == 1
            assert "--overlay-reps must be 0 or at least 2" in capsys.readouterr().err
        assert run(["plot2d", "--model", missing_model, "--data", missing_data,
                    "--grid", 1, "--out", out]) == 1
        assert "--grid must be at least 2" in capsys.readouterr().err
        # so is --epsilon, and plot2d checks it even without an overlay
        for command, epsilon in ((["score", "--mode", "global"], "2"), (["plot2d"], "7")):
            assert run([*command, "--model", missing_model, "--data", missing_data,
                        "--epsilon", epsilon, "--out", out]) == 1
            assert "epsilon must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()
        # the smallest accepted values still run
        assert run(["score", "--model", workspace["simple"], "--data", workspace["data"],
                    "--mode", "global", "--reps", 2, "--out", out]) == 0
        assert run(["plot2d", "--model", workspace["simple"], "--data", workspace["data"],
                    "--overlay-reps", 2, "--grid", 10, "--out", root / "o2.svg"]) == 0


@pytest.fixture(scope="module")
def score_files(workspace):
    paths = {}
    for tag, model in (("simple", workspace["simple"]),
                       ("complex", workspace["complex"])):
        out = workspace["root"] / f"scores_{tag}.csv"
        assert run(["score", "--model", model, "--data", workspace["data"],
                    "--mode", "local", "--k", 6, "--reps", 120,
                    "--epsilon", "1/4096", "--seed", 21, "--out", out]) == 0
        paths[tag] = out
    return paths


class TestCompare:
    def test_simple_beats_complex(self, score_files, capsys):
        assert run(["compare", "--a", score_files["simple"],
                    "--b", score_files["complex"], "--test", "signed-rank",
                    "--alternative", "a_less"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary_a"]["median"] < report["summary_b"]["median"]
        assert report["rejected"] is True
        assert "same dataset" in report["caveat"]

    def test_self_comparison_no_difference(self, score_files, capsys):
        assert run(["compare", "--a", score_files["simple"],
                    "--b", score_files["simple"], "--alternative", "two_sided"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_value"] == 1.0
        assert report["rejected"] is False

    @pytest.mark.parametrize("alpha", ["0", "1", "5", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_usage_error(self, workspace, alpha, capsys):
        """An alpha outside (0, 1) exits 1 before any file is read (a
        missing file exits 2)."""
        root = workspace["root"]
        out = root / "alpha.json"
        assert run(["compare", "--a", root / "missing_a.csv", "--b", root / "missing_b.csv",
                    "--alpha", alpha, "--out", out]) == 1
        assert "--alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_pair_index_refused(self, score_files, tmp_path, capsys):
        """Rows appended with the pair indices 3 and 4 again exit 2 and name
        the file and the first repeated row."""
        lines = score_files["simple"].read_text().splitlines()
        body = [ln for ln in lines if ln and not ln.startswith("#")]
        repeated = [",".join(["3"] + body[1].split(",")[1:]),
                    ",".join(["4"] + body[2].split(",")[1:])]
        bad = tmp_path / "repeated.csv"
        bad.write_text("\n".join(lines + repeated) + "\n")
        assert run(["compare", "--a", bad, "--b", score_files["complex"]]) == 2
        err = capsys.readouterr().err
        assert "repeated.csv" in err and f"row {len(body) - 1}" in err
        assert "repeats pair_index 3" in err

    def test_seed_mismatch_refused(self, workspace, score_files, capsys):
        other = workspace["root"] / "other_seed.csv"
        assert run(["score", "--model", workspace["simple"], "--data",
                    workspace["data"], "--mode", "local", "--k", 6,
                    "--reps", 120, "--seed", 22, "--out", other]) == 0
        code = run(["compare", "--a", score_files["simple"], "--b", other])
        assert code == 2
        err = capsys.readouterr().err
        # the other file also keeps the default epsilon; one message names both
        assert "seed" in err and "epsilon" in err

    def test_scoring_contract_refused_without_force(self, workspace, capsys):
        files = []
        for k in (3, 20):
            out = workspace["root"] / f"contract_k{k}.csv"
            assert run(["score", "--model", workspace["simple"], "--data",
                        workspace["data"], "--mode", "local", "--k", k,
                        "--reps", 40, "--seed", 21, "--out", out]) == 0
            files += ["--a" if k == 3 else "--b", out]
        for test in ("signed-rank", "mann-whitney"):
            assert run(["compare", *files, "--test", test]) == 2
            assert "k '3' vs '20'" in capsys.readouterr().err
            assert run(["compare", *files, "--test", test, "--force"]) == 0

    def test_global_score_files_refused(self, workspace, score_files, capsys):
        files = {}
        for tag in ("simple", "complex"):
            files[tag] = workspace["root"] / f"{tag}_global.csv"
            assert run(["score", "--model", workspace[tag], "--data",
                        workspace["data"], "--mode", "global", "--reps", 120,
                        "--seed", 21, "--out", files[tag]]) == 0
        pairs = ((files["simple"], files["complex"]),
                 (score_files["simple"], files["complex"]))
        for a, b in pairs:
            for test in ("signed-rank", "mann-whitney"):
                for force in ((), ("--force",)):
                    assert run(["compare", "--a", a, "--b", b, "--test", test,
                                *force]) == 2
                    assert "global score" in capsys.readouterr().err

    def test_non_finite_or_out_of_range_scores_refused(self, workspace, score_files,
                                                       tmp_path, capsys):
        lines = score_files["simple"].read_text().splitlines()
        body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
        for i, value in zip(body[1:3], ("nan", "1.7")):
            fields = lines[i].split(",")
            fields[3] = value
            lines[i] = ",".join(fields)
        bad = tmp_path / "bad_scores.csv"
        bad.write_text("\n".join(lines) + "\n")
        for test in ("signed-rank", "mann-whitney"):
            assert run(["compare", "--a", bad, "--b", score_files["complex"],
                        "--test", test]) == 2
            err = capsys.readouterr().err
            assert "bad_scores.csv" in err and "row 0" in err

    def test_header_only_and_other_version_files_refused(self, score_files, tmp_path,
                                                          capsys):
        """A score file with a header but no rows, and one of format
        dbc-scores/9, exit 2 under either test and name the file."""
        lines = score_files["simple"].read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#") or ln.startswith("pair_index")]
        header_only = tmp_path / "header_only.csv"
        header_only.write_text("\n".join(header) + "\n")
        version_9 = tmp_path / "version_9.csv"
        version_9.write_text("\n".join(lines).replace("dbc-scores/1", "dbc-scores/9") + "\n")
        for bad, message in ((header_only, "has no score rows"),
                             (version_9, "has format 'dbc-scores/9'")):
            for test in ("signed-rank", "mann-whitney"):
                assert run(["compare", "--a", score_files["complex"], "--b", bad,
                            "--test", test]) == 2
                err = capsys.readouterr().err
                assert bad.name in err and message in err

    def test_signed_rank_report_counts_shared_pairs(self, score_files, tmp_path, capsys):
        """The paired report says how many pair indices both files share and
        how many each holds alone; a row dropped from one file is one
        unshared pair, and the written report keeps its bytes."""
        lines = score_files["simple"].read_text().splitlines()
        body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
        total = len(body) - 1
        dropped = tmp_path / "dropped.csv"
        dropped.write_text("\n".join(lines[:body[5]] + lines[body[5] + 1:]) + "\n")
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run(["compare", "--a", score_files["simple"], "--b", dropped,
                        "--test", "signed-rank", "--out", out]) == 0
            capsys.readouterr()
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert (report["pairs_shared"], report["pairs_only_a"],
                report["pairs_only_b"]) == (total - 1, 1, 0)
        assert report["n_effective"] <= total - 1
        assert run(["compare", "--a", dropped, "--b", score_files["simple"],
                    "--test", "mann-whitney"]) == 0
        assert "pairs_shared" not in json.loads(capsys.readouterr().out)

    def test_dataset_mismatch_refused_without_force(self, workspace,
                                                    score_files, capsys):
        data2 = workspace["root"] / "blobs2.csv"
        run(["blobs", "--per-class", 60, "--dim", 2, "--seed", 8, "--out", data2])
        model2 = workspace["root"] / "m2.json"
        run(["train", "--data", data2, "--arch", "2,1,1", "--activation", "tanh",
             "--epochs", 100, "--lr", "0.01", "--seed", 0, "--out", model2])
        other = workspace["root"] / "other_data.csv"
        assert run(["score", "--model", model2, "--data", data2, "--mode",
                    "local", "--k", 6, "--reps", 120, "--seed", 21,
                    "--out", other]) == 0
        assert run(["compare", "--a", score_files["simple"], "--b", other]) == 2
        assert "same dataset" in capsys.readouterr().err
        assert run(["compare", "--a", score_files["simple"], "--b", other,
                    "--force"]) == 0


class TestPlot2d:
    def test_svg_written_with_boundary(self, workspace):
        out = workspace["root"] / "plot.svg"
        assert run(["plot2d", "--model", workspace["simple"], "--data",
                    workspace["data"], "--grid", 60, "--out", out]) == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert "<svg" in svg and "</svg>" in svg
        assert svg.count("<circle") == 120  # every data point plotted

    def test_overlay_points_near_boundary(self, workspace):
        """Machine check: every overlay point must sit near f = 0.5."""
        from dbcscore import load_csv, load_model, global_adversarial_set
        out = workspace["root"] / "overlay.svg"
        assert run(["plot2d", "--model", workspace["simple"], "--data",
                    workspace["data"], "--grid", 40, "--overlay-reps", 30,
                    "--seed", 4, "--epsilon", "1/4096", "--out", out]) == 0
        model = load_model(workspace["simple"])
        dataset = load_csv(workspace["data"])
        aset = global_adversarial_set(model, dataset, reps=30, seed=4)
        f_values = model(aset.points.T)
        assert np.abs(f_values - 0.5).max() < 0.2
        assert out.read_text().count("<circle") == 120 + 30

    def test_refuses_high_dimensional_data(self, workspace, tmp_path):
        data30 = tmp_path / "d30.csv"
        run(["blobs", "--per-class", 20, "--dim", 30, "--seed", 0, "--out", data30])
        code = run(["plot2d", "--model", workspace["simple"], "--data", data30,
                    "--out", tmp_path / "x.svg"])
        assert code == 2

    def test_model_of_another_dimension_refused(self, workspace, tmp_path, capsys):
        """score and plot2d share one model check and one message."""
        from dbcscore import MlpModel, save_model
        path = tmp_path / "three.json"
        save_model(MlpModel([3, 1], [np.ones((1, 3))], [np.zeros(1)]), path)
        for command in (["score", "--mode", "global"], ["plot2d"]):
            out = tmp_path / "x.out"
            assert run([*command, "--model", path, "--data", workspace["data"],
                        "--out", out]) == 2
            err = capsys.readouterr().err
            assert "model dimension 3 does not match dataset dimension 2" in err
            assert not out.exists()

    def test_rerun_identical_bytes(self, workspace):
        a = workspace["root"] / "p1.svg"
        b = workspace["root"] / "p2.svg"
        for out in (a, b):
            run(["plot2d", "--model", workspace["simple"], "--data",
                 workspace["data"], "--grid", 30, "--out", out])
        assert a.read_bytes() == b.read_bytes()


def argv_from_manifest(manifest, out_path):
    """Rebuild a command line from a manifest sidecar."""
    argv = [manifest["command"]]
    for key, value in manifest["flags"].items():
        flag = "--" + key.replace("_", "-")
        if value is None or key == "out":
            continue
        if isinstance(value, bool):
            if key == "center":
                argv.append(flag if value else "--no-center")
            elif value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    argv.extend(["--out", str(out_path)])
    return argv


def manifest_commands(workspace, score_files):
    """One command line per subcommand; shared flags take non-default
    values where the command has them."""
    data, simple = workspace["data"], workspace["simple"]
    return {
        "blobs": (["blobs", "--per-class", 10, "--dim", 3, "--seed", 4], "csv"),
        "train": (["train", "--data", data, "--label-column", "label", "--scale",
                   "--arch", "2,3,1", "--epochs", 3, "--seed", 5], "json"),
        "score": (["score", "--model", simple, "--data", data, "--mode", "local",
                   "--k", 3, "--reps", 15, "--seed", 6, "--epsilon", "1/512"], "csv"),
        "compare": (["compare", "--a", score_files["simple"], "--b", score_files["complex"],
                     "--test", "mann-whitney", "--alpha", "0.05"], "json"),
        "plot2d": (["plot2d", "--model", simple, "--data", data, "--grid", 12,
                    "--overlay-reps", 4, "--seed", 2, "--epsilon", "1/64"], "svg"),
    }


class TestManifest:
    @pytest.mark.parametrize("command", ["blobs", "train", "score", "compare", "plot2d"])
    def test_rerun_from_manifest_reproduces_file(self, workspace, score_files, tmp_path,
                                                 command, capsys):
        """The manifest sidecar is a complete recipe: replaying it yields
        a byte-identical output file and the same flags."""
        argv, suffix = manifest_commands(workspace, score_files)[command]
        original, replayed = tmp_path / f"original.{suffix}", tmp_path / f"replayed.{suffix}"
        assert run(argv + ["--out", original]) == 0
        manifest = json.loads(Path(f"{original}.manifest.json").read_text())
        assert manifest["command"] == command
        assert run(argv_from_manifest(manifest, replayed)) == 0
        assert replayed.read_bytes() == original.read_bytes()
        assert list(manifest) == ["command", "flags", "master_seed", "input_hashes",
                                  "artifact_version", "timestamp"]
        again = json.loads(Path(f"{replayed}.manifest.json").read_text())
        for sidecar in (manifest, again):
            del sidecar["timestamp"], sidecar["flags"]["out"]
        assert again == manifest
        capsys.readouterr()


class TestExitCodes:
    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["score", "--model", tmp_path / "no.json", "--data",
                    tmp_path / "no.csv", "--mode", "global",
                    "--out", tmp_path / "o.csv"]) == 2

    def test_numerical_failure_exit_3(self, workspace, tmp_path):
        """A model that never crosses 0.5 makes every crossing fail."""
        from dbcscore import MlpModel, save_model
        never = MlpModel([2, 1], [np.array([[0.0, 0.0]])], [np.array([5.0])])
        path = tmp_path / "never.json"
        save_model(never, path)
        code = run(["score", "--model", path, "--data", workspace["data"],
                    "--mode", "global", "--reps", 10,
                    "--out", tmp_path / "o.csv"])
        assert code == 3


README_PIPELINE = [
    ["blobs", "--per-class", "200", "--dim", "2", "--seed", "7", "--out", "blobs.csv"],
    ["train", "--data", "blobs.csv", "--arch", "2,1,1", "--activation", "tanh",
     "--epochs", "300", "--lr", "0.01", "--seed", "0", "--out", "simple.json"],
    ["train", "--data", "blobs.csv", "--arch", "2,10,32,16,1",
     "--epochs", "300", "--lr", "0.01", "--seed", "0", "--out", "complex.json"],
    ["score", "--model", "simple.json", "--data", "blobs.csv", "--mode", "local",
     "--k", "8", "--reps", "60", "--seed", "1", "--out", "simple_scores.csv"],
    ["score", "--model", "complex.json", "--data", "blobs.csv", "--mode", "local",
     "--k", "8", "--reps", "60", "--seed", "1", "--workers", "2",
     "--out", "complex_scores.csv"],
    ["compare", "--a", "simple_scores.csv", "--b", "complex_scores.csv",
     "--test", "signed-rank", "--alternative", "a_less", "--out", "report.json"],
    ["compare", "--a", "simple_scores.csv", "--b", "complex_scores.csv",
     "--test", "mann-whitney", "--alternative", "a_less", "--out", "report_mw.json"],
    ["plot2d", "--model", "complex.json", "--data", "blobs.csv", "--overlay-reps", "20",
     "--seed", "2", "--out", "boundary.svg"],
]


def test_readme_pipeline_without_scipy(tmp_path):
    """The README pipeline, at small --reps, in an interpreter where
    ``import scipy`` fails: every step exits 0 and writes its output."""
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from dbcscore.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if main(argv) != 0:\n"
        "        sys.exit(f'dbc {argv[0]} exited nonzero')\n"
    )
    src = str(Path(dbcscore.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, json.dumps(README_PIPELINE)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    for argv in README_PIPELINE:
        assert (tmp_path / argv[-1]).stat().st_size > 0
    assert json.loads((tmp_path / "report.json").read_text())["pairs_shared"] > 0
