import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groco import cli as gcli
from groco import dataio as dio
from groco import diffgrad as dg

from test_model import write_checkpoint_tensors

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "groco.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_sort_hard_example():
    proc = run_cli("sort", "--values", "6,1,4,2", "--hard")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].split() == ["1", "2", "4", "6"]
    matrix = [line.split() for line in lines[1:]]
    assert len(matrix) == 4
    flat = [v for row in matrix for v in row]
    assert set(flat) == {"0", "1"}


def test_sort_relaxed_two_values():
    proc = run_cli("sort", "--values", "2,1", "--beta", "1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert [float(v) for v in lines[0].split()] == pytest.approx([1.25, 1.75], abs=1e-9)
    assert [float(v) for v in lines[1].split()] == pytest.approx([0.25, 0.75], abs=1e-9)
    assert [float(v) for v in lines[2].split()] == pytest.approx([0.75, 0.25], abs=1e-9)


def test_sort_unparsable_values_is_usage_error():
    proc = run_cli("sort", "--values", "abc")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower() or "error" in proc.stderr.lower()


def test_help_lists_defaults():
    proc = run_cli("train", "--help")
    assert proc.returncode == 0
    assert "default: 1.0" in proc.stdout  # --beta
    assert "default: 10" in proc.stdout  # --neg
    assert "--no-stopgrad" in proc.stdout
    assert "--no-preorder" in proc.stdout


def test_train_missing_data_is_usage_error(tmp_path):
    proc = run_cli("train", cwd=tmp_path)
    assert proc.returncode == 2
    assert "no training data" in proc.stderr


def _small_train_args(tmp_path, seed="5", extra=()):
    return [
        "train", "--synth", "--clusters", "3", "--dim", "8", "--per-cluster", "16",
        "--epochs", "2", "--batch-size", "8", "--neg", "4", "--seed", seed,
        "--ckpt", str(tmp_path / "model.ckpt"),
        "--metrics", str(tmp_path / "metrics.csv"),
        "--save-data", str(tmp_path / "data.gvec"),
        *extra,
    ]


def test_train_writes_outputs_and_is_deterministic(tmp_path):
    proc = run_cli(*_small_train_args(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    ckpt1 = (tmp_path / "model.ckpt").read_bytes()
    metrics1 = (tmp_path / "metrics.csv").read_bytes()
    assert len(metrics1.splitlines()) == 1 + 2 * (48 // 8)

    proc = run_cli(*_small_train_args(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "model.ckpt").read_bytes() == ckpt1
    assert (tmp_path / "metrics.csv").read_bytes() == metrics1

    proc = run_cli(*_small_train_args(tmp_path, seed="6"), cwd=tmp_path)
    assert (tmp_path / "model.ckpt").read_bytes() != ckpt1


def test_train_baselines_complete(tmp_path):
    for loss in ("infonce", "triplet"):
        proc = run_cli(*_small_train_args(tmp_path, extra=["--loss", loss]), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr


def test_train_neg_below_one_is_usage_error(tmp_path):
    for extra in ([], ["--loss", "infonce", "--infonce-top-n"], ["--loss", "triplet"]):
        args = _small_train_args(tmp_path, extra=extra)
        args[args.index("--neg") + 1] = "0"
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2, (extra, proc.stderr)
        assert "num_negatives must be >= 1" in proc.stderr
        assert not (tmp_path / "model.ckpt").exists()


def test_train_ablation_flags_accepted(tmp_path):
    proc = run_cli(
        *_small_train_args(tmp_path, extra=["--no-stopgrad", "--no-preorder", "--random-negatives"]),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_train_dump_config(tmp_path):
    proc = run_cli(*_small_train_args(tmp_path, extra=["--dump-config"]), cwd=tmp_path)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert any(line == "beta=1.0" for line in lines)
    assert any(line == "num_negatives=4" for line in lines)
    assert any(line.startswith("seed=5") for line in lines)


def test_train_dump_config_defaults_are_the_config_classes(tmp_path, monkeypatch, capsys):
    # no tuning flag: every printed setting is a TrainConfig or SynthConfig default
    import groco.model as md

    monkeypatch.delenv("GROCO_SEED", raising=False)
    rc = gcli.main(["train", "--synth", "--epochs", "2", "--dump-config",
                    "--ckpt", str(tmp_path / "model.ckpt"), "--metrics", str(tmp_path / "metrics.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    data_line = next(i for i, line in enumerate(lines) if line.startswith("data="))
    expect = [f"{key}={value}" for key, value in sorted(md.TrainConfig(epochs=2, seed=0).as_flat_dict().items())]
    assert lines[:data_line] == expect
    assert lines[data_line] == f"data={dio.synth_generate(dio.SynthConfig()).provenance}"


def test_train_margin_parses_inf_and_rejects_text(tmp_path, capsys):
    rc = gcli.main(_small_train_args(tmp_path, extra=["--loss", "triplet", "--margin", "inf", "--dump-config"]))
    assert rc == 0
    assert "triplet_margin=inf" in capsys.readouterr().out.splitlines()
    assert gcli.main(_small_train_args(tmp_path, extra=["--margin", "abc"])) == 2


@pytest.mark.parametrize("extra, message", [
    (["--beta", "-1"], "beta must be a finite positive real"),
    (["--loss", "triplet", "--margin", "nan"], "margin must be positive"),
], ids=["beta", "margin"])
def test_train_bad_loss_setting_is_rejected_before_any_file_is_touched(extra, message, tmp_path, capsys):
    # used to delete the metrics file and write the dataset before exiting 2
    (tmp_path / "metrics.csv").write_bytes(b"epoch,step,loss,lr\n0,0,1.0,0.0\n")
    rc = gcli.main(_small_train_args(tmp_path, extra=extra))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert (tmp_path / "metrics.csv").read_bytes() == b"epoch,step,loss,lr\n0,0,1.0,0.0\n"
    assert not (tmp_path / "data.gvec").exists()
    assert not (tmp_path / "model.ckpt").exists()


def test_train_batch_larger_than_the_data_is_rejected_before_any_file_is_touched(tmp_path, capsys):
    # used to write the dataset and delete the metrics file before exiting 2
    (tmp_path / "metrics.csv").write_bytes(b"epoch,step,loss,lr\n0,0,1.0,0.0\n")
    rc = gcli.main(_small_train_args(tmp_path, extra=["--batch-size", "64"]))  # 3 clusters x 16 = 48 samples
    assert rc == 2
    assert "dataset of 48 samples is smaller than one batch" in capsys.readouterr().err
    assert (tmp_path / "metrics.csv").read_bytes() == b"epoch,step,loss,lr\n0,0,1.0,0.0\n"
    assert not (tmp_path / "data.gvec").exists()
    assert not (tmp_path / "model.ckpt").exists()


def test_groco_seed_env_override(tmp_path):
    args = [
        "train", "--synth", "--clusters", "3", "--dim", "8", "--per-cluster", "16",
        "--epochs", "1", "--batch-size", "8", "--neg", "4", "--warmup-epochs", "0",
        "--ckpt", str(tmp_path / "a.ckpt"), "--metrics", str(tmp_path / "a.csv"),
        "--dump-config",
    ]
    proc = run_cli(*args, env_extra={"GROCO_SEED": "77"}, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "seed=77" in proc.stdout.splitlines()


def test_eval_knn_and_linear(tmp_path):
    proc = run_cli(*_small_train_args(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data.gvec"),
        "--mode", "knn", "--k", "1,3", "--out", str(tmp_path / "report.csv"), "--seed", "1",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "knn k=1" in out and "knn k=3" in out
    for line in out.strip().splitlines():
        acc = float(line.rsplit("=", 1)[1])
        assert 0.0 <= acc <= 1.0
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "metric,k,accuracy"

    proc = run_cli(
        "eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data.gvec"),
        "--mode", "linear", "--probe-steps", "50", "--seed", "1",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "linear_probe" in proc.stdout


def test_eval_non_integer_k_is_usage_error(tmp_path):
    # int() used to truncate 1.9 and 10.5 to 1 and 10 and run those, and
    # to raise an uncaught OverflowError on inf
    proc = run_cli(*_small_train_args(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for ks in ("1.9,10.5", "3,2.5", "1,inf", "nan"):
        proc = run_cli(
            "eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data.gvec"),
            "--k", ks, "--seed", "1", cwd=tmp_path,
        )
        assert proc.returncode == 2, (ks, proc.stdout)
        assert "--k must be comma-separated integers" in proc.stderr
        assert "knn" not in proc.stdout


@pytest.mark.parametrize("weight_tau", ["0", "-0.07", "nan", "inf"])
def test_eval_non_positive_or_non_finite_weight_tau_is_usage_error(weight_tau, tmp_path, capsys):
    # each used to print an accuracy and exit 0
    import groco.model as md

    ds = dio.synth_generate(dio.SynthConfig(clusters=3, dim=8, per_cluster=16, seed=2))
    dio.gvec_write(ds, tmp_path / "data.gvec")
    params = md.init_params(8, (8, 8), (4, 4), seed=0)
    md.checkpoint_save(params, md.init_optimizer(params), tmp_path / "rand.ckpt")
    rc = gcli.main(["eval", "--ckpt", str(tmp_path / "rand.ckpt"), "--data", str(tmp_path / "data.gvec"),
                    "--k", "20", "--weight-tau", weight_tau, "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "weight_tau must be finite and > 0" in captured.err
    assert "knn" not in captured.out


def test_eval_checkpoint_without_a_bias_is_usage_error(tmp_path, capsys):
    # used to exit 1 with a KeyError traceback
    import groco.model as md

    ds = dio.synth_generate(dio.SynthConfig(clusters=3, dim=8, per_cluster=16, seed=2))
    dio.gvec_write(ds, tmp_path / "data.gvec")
    params = md.init_params(8, (8, 8), (4, 4), seed=0)
    md.checkpoint_save(params, md.init_optimizer(params), tmp_path / "good.ckpt")
    good = md.checkpoint_load(tmp_path / "good.ckpt")[0]
    tensors = [(n, a) for n, a in good.named_arrays() if n != "enc.0.bias"]
    tensors += [(f"opt.v.{n}", a) for n, a in good.named_arrays()]
    tensors += [("opt.step", [0.0]), ("opt.momentum", [0.9]), ("opt.base_lr", [10.0])]
    write_checkpoint_tensors(tmp_path / "bad.ckpt", tensors)
    rc = gcli.main(["eval", "--ckpt", str(tmp_path / "bad.ckpt"), "--data", str(tmp_path / "data.gvec"), "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "missing tensor 'enc.0.bias'" in captured.err
    assert captured.out == ""


def test_eval_random_init_checkpoint(tmp_path):
    import groco.model as md

    ds = dio.synth_generate(dio.SynthConfig(clusters=3, dim=8, per_cluster=16, seed=2))
    dio.gvec_write(ds, tmp_path / "data.gvec")
    params = md.init_params(8, (8, 8), (4, 4), seed=0)
    md.checkpoint_save(params, md.init_optimizer(params), tmp_path / "rand.ckpt")
    proc = run_cli(
        "eval", "--ckpt", str(tmp_path / "rand.ckpt"), "--data", str(tmp_path / "data.gvec"),
        "--k", "1,3", "--seed", "1", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.strip().splitlines():
        acc = float(line.rsplit("=", 1)[1])
        assert 0.0 <= acc <= 1.0


def test_eval_both_spaces_run(tmp_path):
    proc = run_cli(*_small_train_args(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for space in ("representation", "projection"):
        proc = run_cli(
            "eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "data.gvec"),
            "--space", space, "--k", "1", "--seed", "1", cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr


def test_eval_shape_mismatch_is_usage_error(tmp_path):
    proc = run_cli(*_small_train_args(tmp_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    other = dio.synth_generate(dio.SynthConfig(clusters=2, dim=5, per_cluster=10, seed=1))
    dio.gvec_write(other, tmp_path / "other.gvec")
    proc = run_cli(
        "eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "other.gvec"),
        "--seed", "1", cwd=tmp_path,
    )
    assert proc.returncode == 2


def test_toy_csv_outputs(tmp_path):
    out_g = tmp_path / "toy_groco.csv"
    out_i = tmp_path / "toy_nce.csv"
    assert run_cli("toy", "--loss", "groco", "--steps", "40", "--out", str(out_g), cwd=tmp_path).returncode == 0
    assert run_cli("toy", "--loss", "infonce", "--steps", "40", "--out", str(out_i), cwd=tmp_path).returncode == 0
    lines_g = out_g.read_text().strip().splitlines()
    lines_i = out_i.read_text().strip().splitlines()
    assert lines_g[0] == "step,s_pos,s_neg1,s_neg2,s_neg3,s_neg4"
    assert len(lines_g) == len(lines_i) == 42


def test_toy_zero_lr_constant_columns(tmp_path):
    out = tmp_path / "toy.csv"
    assert run_cli("toy", "--lr", "0", "--steps", "10", "--out", str(out), cwd=tmp_path).returncode == 0
    rows = [line.split(",")[1:] for line in out.read_text().strip().splitlines()[1:]]
    assert all(row == rows[0] for row in rows)


@pytest.mark.parametrize("lr", ["-1", "nan", "inf"])
def test_toy_negative_or_non_finite_lr_is_usage_error(lr, tmp_path, capsys):
    # --lr -1 used to run gradient ascent and exit 0
    out = tmp_path / "toy.csv"
    rc = gcli.main(["toy", f"--lr={lr}", "--steps", "3", "--out", str(out)])
    assert rc == 2
    assert "lr must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_toy_default_grid_displacement_ordering(tmp_path):
    out_g = tmp_path / "g.csv"
    out_i = tmp_path / "i.csv"
    run_cli("toy", "--loss", "groco", "--out", str(out_g), cwd=tmp_path)
    run_cli("toy", "--loss", "infonce", "--out", str(out_i), cwd=tmp_path)

    def farthest_displacement(path):
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        far_col = 2 + int(np.argmin(data[0, 2:]))  # smallest initial negative similarity
        return abs(data[-1, far_col] - data[0, far_col])

    assert farthest_displacement(out_g) < farthest_displacement(out_i)


def test_gradcheck_passes_in_process(capsys):
    rc = gcli.main(["gradcheck", "--kmax", "2", "--nmax", "3", "--betas", "1", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gradcheck pass" in out


def test_gradcheck_corrupted_vjp_fails(monkeypatch, capsys):
    # the arctan swap derivative lives in the border-mass op's rule
    real = dg.VJP_RULES["border_mass"]
    monkeypatch.setitem(dg.VJP_RULES, "border_mass", lambda node, g: (real(node, g)[0] * 0.5,))
    rc = gcli.main(["gradcheck", "--kmax", "1", "--nmax", "2", "--betas", "1", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "coordinate" in out


@pytest.mark.parametrize("flag,value", [("--kmax", "0"), ("--nmax", "0"), ("--kmax", "-2")])
def test_gradcheck_group_size_below_one_is_usage_error(flag, value, capsys):
    # a size of 0 used to check no point at all and report a pass
    rc = gcli.main(["gradcheck", flag, value, "--betas", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "must be >= 1" in captured.err
    assert "gradcheck pass" not in captured.out


@pytest.mark.parametrize("flag,value", [("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
                                        ("--h", "0"), ("--h", "-0.001"), ("--h", "nan"), ("--h", "inf")])
def test_gradcheck_non_positive_or_non_finite_h_and_tol_are_usage_errors(flag, value, capsys):
    rc = gcli.main(["gradcheck", "--kmax", "1", "--nmax", "1", "--betas", "1", flag, value])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"{flag} must be a finite positive real" in captured.err
    assert captured.out == ""


def test_gradcheck_h_sweep_error_curve():
    # central-difference error: large h pays truncation, tiny h pays roundoff
    errors = {}
    for h in (1e-3, 1e-6, 1e-9):
        rng = np.random.default_rng(9)
        from groco import losses as ls

        point = gcli._separated_point(rng, 6)
        report = dg.grad_check(lambda t, x: ls.groco_from_raw_distances(x, 2, 1.0), point, h=h, tol=1.0)
        errors[h] = report.max_rel_error
    assert errors[1e-6] < errors[1e-3]
    assert errors[1e-6] < errors[1e-9]


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


@pytest.mark.parametrize("loss", ["groco", "infonce", "triplet"])
def test_diverging_run_exits_3_naming_the_view(loss, tmp_path):
    # used to exit 2 with a usage line and a message about the distances
    args = _small_train_args(tmp_path, extra=["--loss", loss, "--lr", "1e300"])
    proc = run_cli(*args, cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "numeric failure: non-finite projection norm for view" in proc.stderr
    assert "usage" not in proc.stderr
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "-1", "0"])
def test_train_non_finite_or_non_positive_lr_is_usage_error(lr, tmp_path, capsys):
    rc = gcli.main(_small_train_args(tmp_path, extra=[f"--lr={lr}"]))
    assert rc == 2
    assert "need a finite lr > 0" in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, message", [
    ("--center-scale", "center_scale must be finite and positive"),
    ("--inst-noise", "inst_noise must be finite and >= 0"),
    ("--view-noise", "view_noise entries must be finite and >= 0"),
], ids=["center-scale", "inst-noise", "view-noise"])
def test_train_non_finite_synth_or_view_noise_is_usage_error(flag, message, value, tmp_path, capsys):
    # each but --view-noise nan used to exit 3 at step 0, with a numeric
    # failure for view 0
    rc = gcli.main(_small_train_args(tmp_path, extra=[f"{flag}={value}"]))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "model.ckpt").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_gvec_dataset_with_a_nan_is_usage_error(command, tmp_path, capsys):
    # train used to exit 3 at step 0, with a numeric failure for view 8;
    # eval exited 2 only once the embeddings were checked
    import groco.model as md

    ds = dio.synth_generate(dio.SynthConfig(clusters=3, dim=8, per_cluster=16, seed=2))
    dio.gvec_write(ds, tmp_path / "data.gvec")
    blob = bytearray((tmp_path / "data.gvec").read_bytes())
    offset = dio._HEADER.size + 4 * (8 * ds.dim + 3)  # row 8, column 3
    blob[offset:offset + 4] = np.array([np.nan], dtype="<f4").tobytes()
    (tmp_path / "nan.gvec").write_bytes(bytes(blob))
    if command == "train":
        argv = ["train", "--data", str(tmp_path / "nan.gvec"), "--epochs", "2", "--batch-size", "8", "--neg", "4",
                "--ckpt", str(tmp_path / "model.ckpt")]
    else:
        params = md.init_params(8, (8, 8), (4, 4), seed=0)
        md.checkpoint_save(params, md.init_optimizer(params), tmp_path / "model.ckpt")
        argv = ["eval", "--ckpt", str(tmp_path / "model.ckpt"), "--data", str(tmp_path / "nan.gvec"), "--seed", "1"]
    rc = gcli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "vectors must be finite, row 8 is not" in captured.err
    assert "knn" not in captured.out
    assert command == "eval" or not (tmp_path / "model.ckpt").exists()


def test_nan_loss_exits_3_with_step(tmp_path, monkeypatch, capsys):
    import groco.batchpipe as bp
    import groco.model as md

    calls = {"n": 0}
    real = bp.batch_loss

    def poisoned(batch, loss_kind, params, **kw):
        out = real(batch, loss_kind, params, **kw)
        calls["n"] += 1
        if calls["n"] >= 3:  # diverge on the third step
            return dg.scale(out, float("nan"))
        return out

    monkeypatch.setattr(md.batchpipe, "batch_loss", poisoned)
    rc = gcli.main(_small_train_args(tmp_path, extra=["--warmup-epochs", "0"]))
    err = capsys.readouterr().err
    assert rc == 3
    assert "step 2" in err
