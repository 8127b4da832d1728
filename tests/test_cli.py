import json

import numpy as np
import pytest

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
        assert not out.exists()


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


class TestManifest:
    def test_rerun_from_manifest_reproduces_file(self, workspace, tmp_path):
        """The manifest sidecar is a complete recipe: replaying it yields
        a byte-identical output file."""
        original = workspace["root"] / "replay.csv"
        assert run(["score", "--model", workspace["simple"], "--data",
                    workspace["data"], "--mode", "local", "--k", 3,
                    "--reps", 15, "--seed", 6, "--out", original]) == 0
        manifest = json.loads((workspace["root"] / "replay.csv.manifest.json")
                              .read_text())
        replayed = tmp_path / "replayed.csv"
        assert run(argv_from_manifest(manifest, replayed)) == 0
        assert replayed.read_bytes() == original.read_bytes()


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
