"""End-to-end runs of every subcommand through main(), plus the config stack."""

import os

import numpy as np
import pytest

from mxt.cli import (
    build_configs,
    default_flat,
    effective_config,
    main,
    scan_time_ratio,
)
from mxt.data import read_pgm, read_ppm, write_ppm, write_pgm
from mxt.model import ModelConfig, MxT, save_model
from mxt.tensor import ContractError

TINY = [
    "--set", "model.base_channels=4",
    "--set", "model.hm_counts=1,1,1,1,1,1,1",
    "--set", "model.state_dim=2",
    "--set", "model.pooled_spatial=4",
    "--set", "model.scan_chunk=16",
    "--set", "loss.style=0", "--set", "loss.perceptual=0",
    "--set", "loss.adversarial=0",
]


def _train_tiny(tmp_path, extra=()):
    ckpt = str(tmp_path / "tiny.ckpt")
    rc = main(["train", "--out", ckpt, "--iters", "2", "--synthetic", "2",
               "--image-size", "16", "--seed", "5", *TINY, *extra])
    assert rc == 0
    return ckpt


# ---- config stack ---------------------------------------------------------------


def test_precedence_defaults_file_env_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.seed = 11\ntrain.lr=0.5  # comment\n\n# full-line comment\n")
    # file beats defaults
    flat = effective_config(str(cfg), {}, {})
    assert flat["train.seed"] == "11" and flat["train.lr"] == "0.5"
    # env beats file (seed only)
    flat = effective_config(str(cfg), {"MXT_SEED": "22"}, {})
    assert flat["train.seed"] == "22"
    # flags beat env
    flat = effective_config(str(cfg), {"MXT_SEED": "22"}, {"train.seed": "33"})
    assert flat["train.seed"] == "33"
    assert flat["train.lr"] == "0.5"


def test_config_rejects_unknown_keys_and_bad_env(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("train.nope=1\n")
    with pytest.raises(ContractError, match="unknown config key"):
        effective_config(str(cfg), {}, {})
    with pytest.raises(ContractError, match="MXT_SEED"):
        effective_config(None, {"MXT_SEED": "abc"}, {})
    with pytest.raises(ContractError, match="width"):
        effective_config(None, {}, {"width": "double"})


def test_default_flat_is_pinned():
    # the exact strings and order checkpoint metadata has always stored
    assert list(default_flat().items()) == [
        ("model.base_channels", "16"), ("model.hm_counts", "4,6,6,8,6,6,4"),
        ("model.state_dim", "8"), ("model.pooled_spatial", "8"), ("model.heads", "1"),
        ("model.expand", "2"), ("model.conv_kernel", "4"), ("model.gdfn_expansion", "2.66"),
        ("model.scan_chunk", "64"), ("model.input_channels", "4"),
        ("model.output_channels", "3"), ("model.enable_mamba", "true"),
        ("model.enable_srsa", "true"), ("model.enable_ffn", "true"),
        ("model.use_cbfn", "true"), ("model.use_pe", "true"), ("model.scale_qk", "false"),
        ("model.silu_after_conv", "false"), ("model.use_skip_d", "false"),
        ("train.lr", "0.0001"), ("train.beta1", "0.9"), ("train.beta2", "0.999"),
        ("train.eps", "1e-08"), ("train.batch_size", "2"), ("train.seed", "0"),
        ("train.iters", "2000"), ("train.log_every", "50"), ("train.checkpoint_every", "0"),
        ("train.data_dir", ""), ("train.data_count", "8"), ("train.image_size", "32"),
        ("loss.l1", "1.0"), ("loss.style", "250.0"), ("loss.perceptual", "0.1"),
        ("loss.adversarial", "0.001"), ("loss.adv_mode", "nonsat"),
        ("loss.composite", "false"), ("width", "standard"),
    ]


def test_build_configs_roundtrip():
    flat = effective_config(None, {}, {"model.base_channels": "8",
                                       "loss.adversarial": "0",
                                       "train.batch_size": "3"})
    mcfg, tcfg, weights, width = build_configs(flat)
    assert mcfg.base_channels == 8
    assert tcfg.batch_size == 3
    assert weights.adversarial == 0.0
    assert width == "standard"


# ---- exit codes -----------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert main(["train"]) == 1              # missing --out
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["train", "--out", "x", "--set", "banana"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "inpainting" in capsys.readouterr().out


def test_data_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.ckpt")
    assert main(["infer", "--model", missing, "--image", "a.ppm",
                 "--mask", "b.pgm", "--out", "c.ppm"]) == 2
    # unknown config key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("what=1\n")
    assert main(["train", "--out", str(tmp_path / "x.ckpt"),
                 "--config", str(cfg)]) == 2
    # malformed image file
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6 garbage")
    ckpt = _train_tiny(tmp_path)
    capsys.readouterr()
    rc = main(["infer", "--model", ckpt, "--image", str(bad),
               "--mask", str(bad), "--out", str(tmp_path / "o.ppm")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("pair", [
    # values that do not parse
    "model.use_cbfn=maybe", "model.state_dim=2.5", "model.hm_counts=1,x,1", "train.eps=tiny",
    # non-finite floats
    "train.lr=nan", "train.lr=inf", "train.lr=1e999", "model.gdfn_expansion=nan",
    "model.gdfn_expansion=-inf", "loss.style=nan",
    # out of range
    "model.hm_counts=1,1", "model.base_channels=0", "model.state_dim=0",
    "model.pooled_spatial=0", "model.heads=0", "model.expand=0", "model.conv_kernel=0",
    "model.input_channels=0", "train.eps=0", "train.beta1=1", "train.beta2=1.0",
    "train.beta1=-0.1", "train.image_size=0", "train.iters=-1", "train.log_every=-1",
    "train.checkpoint_every=-1", "train.data_count=0", "model.gdfn_expansion=0.5",
    "model.gdfn_expansion=-3",
])
def test_bad_config_values_exit_2(tmp_path, capsys, pair):
    # each is rejected while the config is read, before any training step
    rc = main(["train", "--out", str(tmp_path / "x.ckpt"), "--iters", "1",
               "--synthetic", "2", *TINY, "--set", pair])
    assert rc == 2
    assert pair.split("=")[0].split(".")[1] in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_resume_refuses_flags_it_would_ignore(tmp_path, capsys, monkeypatch):
    ckpt = _train_tiny(tmp_path)
    capsys.readouterr()
    for extra in (["--lr", "1"], ["--set", "train.lr=1"], ["--seed", "3"],
                  ["--width", "wide"], ["--config", "run.cfg"], ["--data-dir", "d"],
                  ["--batch-size", "1"], ["--synthetic", "3"], ["--image-size", "8"]):
        assert main(["train", "--out", ckpt, "--resume", ckpt, *extra]) == 1
        assert extra[0] in capsys.readouterr().err
    # the environment's seed would be ignored just the same
    monkeypatch.setenv("MXT_SEED", "9")
    assert main(["train", "--out", ckpt, "--resume", ckpt, "--iters", "3"]) == 1
    assert "MXT_SEED" in capsys.readouterr().err
    monkeypatch.delenv("MXT_SEED")
    # the one setting it does take is range-checked like a fresh run's
    assert main(["train", "--out", ckpt, "--resume", ckpt, "--iters", "-1"]) == 2
    assert "iters" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--step", "0"), ("--step", "nan"), ("--step", "-1e-5"), ("--tol", "-1"),
    ("--tol", "inf"),
])
def test_gradcheck_rejects_bad_step_or_tol(monkeypatch, capsys, flag, value):
    import mxt.gradcheck

    def no_checks(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(mxt.gradcheck, "run_standard_suite", no_checks)
    assert main(["gradcheck", "--blocks", "loss_l1", f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert flag in err and "numeric failure" not in err


def test_train_checks_out_directory_before_any_step(tmp_path, monkeypatch, capsys):
    import mxt.train

    ckpt = _train_tiny(tmp_path)

    def no_steps(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(mxt.train, "train_loop", no_steps)
    missing = str(tmp_path / "missing" / "run.ckpt")
    capsys.readouterr()
    assert main(["train", "--out", missing, "--iters", "1", "--synthetic", "2",
                 "--image-size", "16", *TINY]) == 2
    assert "missing" in capsys.readouterr().err
    assert main(["train", "--out", missing, "--resume", ckpt, "--iters", "3"]) == 2
    assert "missing" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "missing")
    # an existing directory is no checkpoint path either
    assert main(["train", "--out", str(tmp_path), "--resume", ckpt, "--iters", "3"]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_gradcheck_failure_exits_3(capsys):
    # an impossible tolerance forces the numeric-failure path
    rc = main(["gradcheck", "--blocks", "loss_l1", "--tol", "1e-30"])
    assert rc == 3
    out = capsys.readouterr()
    assert "status=FAIL" in out.out
    assert "numeric failure" in out.err


# ---- subcommands ----------------------------------------------------------------


def test_train_echoes_sorted_config_and_writes_checkpoint(tmp_path, capsys):
    ckpt = _train_tiny(tmp_path)
    out = capsys.readouterr().out
    assert os.path.exists(ckpt)
    lines = out.splitlines()
    cfg_lines = [l for l in lines if "=" in l and not l.startswith(("step", "done"))]
    keys = [l.split("=", 1)[0] for l in cfg_lines if "." in l.split("=", 1)[0]]
    assert keys == sorted(keys) and "train.seed" in keys
    assert "train.seed=5" in out
    assert any(l.startswith("done step=2 hole_l1=") for l in lines)


def test_train_resume_continues(tmp_path, capsys):
    ckpt = _train_tiny(tmp_path)
    capsys.readouterr()
    rc = main(["train", "--out", ckpt, "--resume", ckpt, "--iters", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resumed from" in out and "at step 2" in out
    assert "done step=4" in out


def test_env_seed_feeds_training(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MXT_SEED", "77")
    ckpt = str(tmp_path / "env.ckpt")
    rc = main(["train", "--out", ckpt, "--iters", "1", "--synthetic", "2",
               "--image-size", "16", *TINY])
    assert rc == 0
    assert "train.seed=77" in capsys.readouterr().out


def test_infer_and_eval_roundtrip(tmp_path, capsys):
    ckpt = _train_tiny(tmp_path)
    rng = np.random.default_rng(0)
    img = rng.random((3, 16, 16))
    mask = np.zeros((1, 16, 16))
    mask[:, 5:9, 5:9] = 1.0
    write_ppm(str(tmp_path / "in.ppm"), img)
    write_pgm(str(tmp_path / "holes.pgm"), mask)
    out_path = str(tmp_path / "filled.ppm")
    rc = main(["infer", "--model", ckpt, "--image", str(tmp_path / "in.ppm"),
               "--mask", str(tmp_path / "holes.pgm"), "--out", out_path])
    assert rc == 0
    filled = read_ppm(out_path)
    assert filled.shape == (3, 16, 16)
    # composited output: known pixels byte-identical to the input file
    orig = read_ppm(str(tmp_path / "in.ppm"))
    known = mask[0] == 0
    assert np.array_equal(filled[:, known], orig[:, known])

    capsys.readouterr()
    rc = main(["eval", "--model", ckpt, "--synthetic", "2",
               "--image-size", "16", "--seed", "3", "--per-image"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "image=0" in out and "all" in out and "psnr" in out


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    return _train_tiny(tmp_path_factory.mktemp("eval"))


@pytest.mark.parametrize("flag,value", [("--synthetic", "0"), ("--synthetic", "-1"),
                                        ("--image-size", "0"), ("--image-size", "-4")])
def test_eval_rejects_sizes_below_one(tiny_ckpt, capsys, flag, value):
    rc = main(["eval", "--model", tiny_ckpt, flag, value])
    assert rc == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("cmd,args", [
    ("infer", ["--tile", "-8"]),
    ("infer", ["--tile", "0", "--overlap", "-3"]),
    ("eval", ["--tile", "-8"]),
    ("eval", ["--tile", "64", "--overlap", "-1"]),
])
def test_negative_tile_or_overlap_exits_2(tiny_ckpt, tmp_path, capsys, cmd, args):
    if cmd == "infer":
        write_ppm(str(tmp_path / "in.ppm"), np.zeros((3, 16, 16)))
        write_pgm(str(tmp_path / "holes.pgm"), np.zeros((1, 16, 16)))
        io = ["--image", str(tmp_path / "in.ppm"), "--mask", str(tmp_path / "holes.pgm"),
              "--out", str(tmp_path / "filled.ppm")]
    else:
        io = ["--synthetic", "1", "--image-size", "16"]
    rc = main([cmd, "--model", tiny_ckpt, *io, *args])
    assert rc == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "filled.ppm")


def test_gradcheck_subset_passes(capsys):
    rc = main(["gradcheck", "--blocks", "layer_norm,loss_l1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "block=layer_norm" in out and "status=ok" in out
    assert "failures=0" in out


def test_gradcheck_runs_the_model_check(capsys):
    assert main(["gradcheck", "--blocks", "model"]) == 0
    out = capsys.readouterr().out
    assert "block=model" in out and "failures=0" in out


def test_scan_bench_reports_ratio(capsys):
    rc = main(["scan-bench", "--length", "64", "--repeats", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "L=64" in out and "L=128" in out and "ratio=" in out


@pytest.mark.parametrize("flag,value", [("--length", "-3"), ("--length", "0"),
                                        ("--channels", "0"), ("--state-dim", "0")])
def test_scan_bench_rejects_sizes_below_one(capsys, flag, value):
    assert main(["scan-bench", flag, value, "--repeats", "1"]) == 2
    out = capsys.readouterr()
    assert flag in out.err and "ratio=" not in out.out


def test_scan_time_ratio_function():
    t1, t2, ratio = scan_time_ratio(64, repeats=3)
    assert t1 > 0 and t2 > 0 and ratio == t2 / t1


def test_mask_gen_writes_masks_and_manifest(tmp_path, capsys):
    out_dir = str(tmp_path / "masks")
    rc = main(["mask-gen", "--out", out_dir, "--count", "2",
               "--bucket", "all", "--size", "32", "--seed", "1"])
    assert rc == 0
    names = sorted(os.listdir(out_dir))
    assert "manifest.txt" in names
    pgms = [n for n in names if n.endswith(".pgm")]
    assert len(pgms) == 6  # 2 per bucket
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert "bucket=low" in manifest and "ratio=" in manifest
    assert "wrote 6 masks" in capsys.readouterr().out
    # every mask file parses back as binary
    m = read_pgm(os.path.join(out_dir, pgms[0]))
    assert set(np.unique(m)) <= {0.0, 1.0}


def test_mask_gen_rejects_unknown_bucket(tmp_path):
    assert main(["mask-gen", "--out", str(tmp_path / "m"),
                 "--bucket", "huge"]) == 2


def test_gradcheck_unknown_block_is_a_usage_error(capsys):
    # names are checked before any check runs
    rc = main(["gradcheck", "--blocks", "layer_norm,nope"])
    assert rc == 1
    out = capsys.readouterr()
    assert "block=" not in out.out
    assert out.err.startswith("usage error:")
    assert "nope" in out.err and "mamba_block" in out.err


@pytest.mark.parametrize("flag,value", [("--size", "0"), ("--size", "-8"),
                                        ("--count", "0"), ("--count", "-1")])
def test_mask_gen_rejects_sizes_below_one(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "m"
    assert main(["mask-gen", "--out", str(out_dir), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not out_dir.exists()


def test_resume_from_a_model_checkpoint_exits_2(tmp_path, capsys):
    model_ckpt = str(tmp_path / "model.ckpt")
    save_model(model_ckpt, MxT(ModelConfig(base_channels=4, hm_counts=(1,) * 7),
                               np.random.default_rng(0)))
    rc = main(["train", "--out", str(tmp_path / "x.ckpt"), "--resume", model_ckpt])
    assert rc == 2
    assert "not a training checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"train.seed=1\ntrain.data_dir=caf\xe9\n")
    rc = main(["train", "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "byte 31" in err


def _images_of_two_sizes(directory):
    directory.mkdir()
    rng = np.random.default_rng(4)
    for name, side in (("a.ppm", 16), ("b.ppm", 24)):
        write_ppm(str(directory / name), rng.random((3, side, side)))
    return str(directory)


def test_train_on_images_of_two_sizes_exits_2_before_any_step(tmp_path, capsys):
    data = _images_of_two_sizes(tmp_path / "data")
    rc = main(["train", "--out", str(tmp_path / "x.ckpt"), "--iters", "1",
               "--data-dir", data, *TINY])
    assert rc == 2
    err = capsys.readouterr().err
    assert "16x16" in err and "24x24" in err
    assert not (tmp_path / "x.ckpt").exists()


def test_eval_scores_images_of_two_sizes(tiny_ckpt, tmp_path, capsys):
    data = _images_of_two_sizes(tmp_path / "data")
    capsys.readouterr()
    assert main(["eval", "--model", tiny_ckpt, "--data-dir", data, "--per-image"]) == 0
    out = capsys.readouterr().out
    assert "image=0" in out and "image=1" in out


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("argv,env", [
    (["train", "--seed", "-1"], None),
    (["train", "--set", "train.seed=-1"], None),
    (["train"], "-1"),
    (["eval", "--seed", "-2"], None),
    (["eval"], "-1"),
    (["mask-gen", "--seed", "-3"], None),
    (["mask-gen"], "-1"),
    (["scan-bench", "--seed", "-1"], None),
], ids=["train-flag", "train-set", "train-env", "eval-flag", "eval-env", "mask-gen-flag",
        "mask-gen-env", "scan-bench-flag"])
def test_negative_seed_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, env):
    import mxt.cli
    import mxt.model
    import mxt.train

    monkeypatch.setattr(mxt.model, "load_model", _no_work)
    monkeypatch.setattr(mxt.train, "init_train_state", _no_work)
    monkeypatch.setattr(mxt.cli, "scan_time_ratio", _no_work)
    if env is None:
        monkeypatch.delenv("MXT_SEED", raising=False)
    else:
        monkeypatch.setenv("MXT_SEED", env)
    out = tmp_path / "out"
    cmd, *flags = argv
    io = {"train": ["--out", str(out), "--iters", "1", "--synthetic", "2", *TINY],
          "eval": ["--model", str(tmp_path / "run.ckpt")],
          "mask-gen": ["--out", str(out)],
          "scan-bench": []}[cmd]
    assert main([cmd, *io, *flags]) == 2
    err = capsys.readouterr().err
    assert ("MXT_SEED" if env else "seed") in err and ">= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["filled.jpg", "filled", "missing/filled.ppm", "."])
def test_infer_checks_out_before_loading_the_model(tmp_path, monkeypatch, capsys, name):
    import mxt.model

    monkeypatch.setattr(mxt.model, "load_model", _no_work)
    out = str(tmp_path / name)
    assert main(["infer", "--model", str(tmp_path / "run.ckpt"), "--image", "in.ppm",
                 "--mask", "holes.pgm", "--out", out]) == 2
    assert f"--out {out}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "missing")



def _infer_inputs(tmp_path):
    write_ppm(str(tmp_path / "in.ppm"), np.zeros((3, 16, 16)))
    write_pgm(str(tmp_path / "holes.pgm"), np.zeros((1, 16, 16)))
    return str(tmp_path / "in.ppm"), str(tmp_path / "holes.pgm")


@pytest.mark.parametrize("mask", ["in.ppm", "holes.png", "missing.pgm", "small.pgm"])
def test_infer_checks_and_reads_the_mask_before_loading_the_model(tmp_path, monkeypatch,
                                                                  capsys, mask):
    # a mask of the wrong format, a missing one, or one of the wrong size
    import mxt.model

    image, _ = _infer_inputs(tmp_path)
    write_pgm(str(tmp_path / "small.pgm"), np.zeros((1, 8, 8)))
    monkeypatch.setattr(mxt.model, "load_model", _no_work)
    path = str(tmp_path / mask)
    assert main(["infer", "--model", str(tmp_path / "run.ckpt"), "--image", image,
                 "--mask", path, "--out", str(tmp_path / "filled.ppm")]) == 2
    err = capsys.readouterr().err
    assert (path in err) or ("does not match" in err)


def test_eval_reads_the_data_dir_before_loading_the_model(tmp_path, monkeypatch, capsys):
    import mxt.model

    monkeypatch.setattr(mxt.model, "load_model", _no_work)
    missing = str(tmp_path / "missing")
    assert main(["eval", "--model", str(tmp_path / "run.ckpt"), "--data-dir", missing]) == 2
    assert missing in capsys.readouterr().err


@pytest.mark.parametrize("flag,name", [("--out", "filled.png"), ("--out", "filled.pgm"),
                                       ("--image", "in.pgm")])
def test_infer_rejects_formats_before_inference(tiny_ckpt, tmp_path, monkeypatch, capsys,
                                                flag, name):
    # .png without pillow, the composited RGB output into a 1-channel .pgm,
    # and a 1-channel .pgm input fail before any input is read or tile is run
    import sys

    import mxt.data
    import mxt.model

    image, mask = _infer_inputs(tmp_path)
    write_pgm(str(tmp_path / "in.pgm"), np.zeros((1, 16, 16)))
    monkeypatch.setitem(sys.modules, "PIL", None)  # pillow is not installed
    monkeypatch.setattr(mxt.model, "tiled_inference", _no_work)
    monkeypatch.setattr(mxt.data, "read_image", _no_work)
    paths = {"--image": image, "--out": str(tmp_path / "filled.ppm")}
    paths[flag] = str(tmp_path / name)
    argv = ["infer", "--model", tiny_ckpt, "--mask", mask]
    for key, path in paths.items():
        argv += [key, path]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{flag} {paths[flag]}" in capsys.readouterr().err


def test_infer_raw_output_has_the_model_channels(tmp_path, monkeypatch, capsys):
    import mxt.model

    ckpt = str(tmp_path / "gray.ckpt")
    cfg = ModelConfig(base_channels=4, hm_counts=(1,) * 7, output_channels=1)
    save_model(ckpt, MxT(cfg, np.random.default_rng(0)))
    image, mask = _infer_inputs(tmp_path)
    infer = ["infer", "--model", ckpt, "--image", image, "--mask", mask, "--raw", "--out"]
    assert main([*infer, str(tmp_path / "raw.pgm")]) == 0
    assert read_pgm(str(tmp_path / "raw.pgm")).shape == (1, 16, 16)
    monkeypatch.setattr(mxt.model, "tiled_inference", _no_work)
    out = str(tmp_path / "raw.ppm")
    capsys.readouterr()
    assert main([*infer, out]) == 2
    assert f"--out {out}" in capsys.readouterr().err
