"""Optimizer and training-state behaviour, including exact resume."""

import hashlib
import os

import numpy as np
import pytest

import mxt.tensor as T
from mxt.blocks import Module
from mxt.checkpoint import SchemaError, load_checkpoint, save_checkpoint
from mxt.data import (
    MaskSpec,
    generate_irregular_mask,
    read_ppm,
    synthetic_dataset,
    synthetic_image,
    write_pgm,
    write_ppm,
)
from mxt.losses import LossWeights
from mxt.model import WIDTHS, ModelConfig, MxT, save_model
from mxt.tensor import DimensionError, NumericError, Tape, Tensor
from mxt.train import (
    Adam,
    TrainConfig,
    TrainState,
    build_samples,
    hole_l1,
    init_train_state,
    load_train_state,
    save_train_state,
    train_loop,
    train_step,
)


def tiny_cfg():
    return ModelConfig(base_channels=4, hm_counts=(1,) * 7, state_dim=2,
                       pooled_spatial=4, scan_chunk=16)


def l1_only():
    return LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.0)


class _Pair(Module):
    def __init__(self):
        self.a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        self.b = Tensor(np.array([[0.5]]), requires_grad=True)


def test_adam_matches_reference_updates():
    mod = _Pair()
    opt = Adam(mod, TrainConfig(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8))
    # reference trackers
    ref = {n: p.data.copy() for n, p in mod.named_parameters()}
    m = {n: np.zeros_like(v) for n, v in ref.items()}
    v = {n: np.zeros_like(val) for n, val in ref.items()}
    rng = np.random.default_rng(0)
    for t in range(1, 6):
        grads = {n: rng.normal(size=val.shape) for n, val in ref.items()}
        for n, p in mod.named_parameters():
            p.grad = grads[n].copy()
        opt.step()
        for n in ref:
            m[n] = 0.9 * m[n] + 0.1 * grads[n]
            v[n] = 0.999 * v[n] + 0.001 * grads[n] ** 2
            mh = m[n] / (1 - 0.9**t)
            vh = v[n] / (1 - 0.999**t)
            ref[n] = ref[n] - 0.1 * mh / (np.sqrt(vh) + 1e-8)
    for n, p in mod.named_parameters():
        assert np.allclose(p.data, ref[n], atol=1e-14), n


def test_adam_skips_frozen_and_gradless():
    mod = _Pair()
    mod.b.requires_grad = False
    opt = Adam(mod, TrainConfig(lr=0.5))
    before_a = mod.a.data.copy()
    before_b = mod.b.data.copy()
    mod.a.grad = np.ones(3)
    opt.step()
    assert not np.array_equal(mod.a.data, before_a)
    assert np.array_equal(mod.b.data, before_b)
    # no grad at all -> untouched
    mod2 = _Pair()
    opt2 = Adam(mod2, TrainConfig(lr=0.5))
    snap = mod2.a.data.copy()
    opt2.step()
    assert np.array_equal(mod2.a.data, snap)


def test_training_reduces_l1():
    samples = synthetic_dataset(4, 16, 16, seed=3)
    tc = TrainConfig(lr=2e-3, batch_size=2, seed=1, log_every=0)
    state = init_train_state(tiny_cfg(), tc, l1_only())
    first = train_step(state, samples)["l1"]
    last = first
    for _ in range(24):
        last = train_step(state, samples)["l1"]
    assert last < first


def test_adversarial_setup_steps_both_optimizers():
    samples = synthetic_dataset(2, 16, 16, seed=4)
    weights = LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.001)
    tc = TrainConfig(batch_size=2, seed=2)
    state = init_train_state(tiny_cfg(), tc, weights)
    assert state.disc is not None and state.opt_d is not None
    parts = train_step(state, samples)
    assert "d_loss" in parts and "adversarial" in parts
    assert state.opt_g.t == 1 and state.opt_d.t == 1


def test_perceptual_terms_build_extractor():
    weights = LossWeights(l1=1.0, style=250.0, perceptual=0.1, adversarial=0.0)
    state = init_train_state(tiny_cfg(), TrainConfig(), weights)
    assert state.extractor is not None
    assert state.disc is None
    # extractor stays frozen
    assert all(not p.requires_grad for p in state.extractor.parameters())


def _all_tensors(state: TrainState) -> dict:
    out = {f"model.{n}": p.data for n, p in state.model.named_parameters()}
    if state.disc is not None:
        out.update({f"disc.{n}": p.data for n, p in state.disc.named_parameters()})
    for tag in ("opt_g", "opt_d"):
        opt = getattr(state, tag)
        if opt is not None:
            out.update({f"{tag}.m.{n}": a for n, a in opt.m.items()})
            out.update({f"{tag}.v.{n}": a for n, a in opt.v.items()})
    return out


@pytest.mark.parametrize("width", ["standard", "wide"])
def test_resume_is_bit_exact(tmp_path, width):
    samples = synthetic_dataset(4, 16, 16, seed=5)
    weights = LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.001)

    def fresh():
        return init_train_state(tiny_cfg(), TrainConfig(batch_size=2, seed=9),
                                weights, width=width)

    straight = fresh()
    for _ in range(6):
        train_step(straight, samples)

    broken = fresh()
    for _ in range(3):
        train_step(broken, samples)
    path = str(tmp_path / f"state-{width}.ckpt")
    save_train_state(path, broken)
    resumed = load_train_state(path)
    assert resumed.step == 3 and resumed.model.dtype == WIDTHS[width]
    for _ in range(3):
        train_step(resumed, samples)

    a, b = _all_tensors(straight), _all_tensors(resumed)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key]), f"{key} diverged after resume"


def test_save_load_save_is_byte_identical(tmp_path):
    samples = synthetic_dataset(2, 16, 16, seed=6)
    state = init_train_state(tiny_cfg(), TrainConfig(batch_size=2, seed=3), l1_only())
    train_step(state, samples)
    p1 = str(tmp_path / "a.ckpt")
    p2 = str(tmp_path / "b.ckpt")
    save_train_state(p1, state)
    reloaded = load_train_state(p1)
    save_train_state(p2, reloaded)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_numeric_abort_leaves_state_untouched(tmp_path):
    samples = synthetic_dataset(2, 16, 16, seed=7)
    state = init_train_state(tiny_cfg(), TrainConfig(batch_size=2, seed=4), l1_only())
    train_step(state, samples)
    snap = {n: p.data.copy() for n, p in state.model.named_parameters()}
    step_before = state.step
    # poison one weight so the forward pass goes non-finite
    state.model.embed.w.data[0, 0] = np.nan
    snap["embed.w"] = state.model.embed.w.data.copy()
    ckpt = str(tmp_path / "abort.ckpt")
    # either guard may fire first (softmax's NaN check or the loss-term check);
    # both are NumericError and both fire before any parameter update
    with pytest.raises(NumericError, match="NaN|non-finite"):
        train_loop(state, samples, target_steps=10, checkpoint_path=ckpt)
    assert state.step == step_before
    for n, p in state.model.named_parameters():
        assert np.array_equal(p.data, snap[n], equal_nan=True), n
    # the abort wrote the last good state
    assert os.path.exists(ckpt)
    recovered = load_train_state(ckpt)
    assert recovered.step == step_before


def test_paper_layout_tape_holds_at_most_118_mib():
    # one paper-layout forward and both losses at 32x32, B = 2: the distinct
    # buffers the recorded outputs hold, each base array counted once so a
    # reshape view adds nothing. The bound catches an op that keeps an
    # activation no backward reads, or one backward can cheaply recompute
    # (111.6 MiB with the pre-activations and attention weights recomputed).
    from mxt.data import batch_at
    from mxt.losses import discriminator_loss, generator_loss

    state = init_train_state(ModelConfig(base_channels=16, hm_counts=(4, 6, 6, 8, 6, 6, 4)),
                             TrainConfig(batch_size=2, image_size=32, seed=101))
    batch = batch_at(synthetic_dataset(4, 32, 32, seed=101), 2, 101, 0)
    gt = Tensor(batch.i_gt)
    with Tape() as tape:
        out = state.model(Tensor(batch.i_in))
        discriminator_loss(state.disc, gt, out, state.weights.adv_mode)
        generator_loss(out, gt, batch.mask, state.weights, state.extractor, state.disc)
        bases = {}
        for node in tape.nodes:
            arr = node.out.data
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            bases[id(arr)] = arr.nbytes
    assert sum(bases.values()) / 2**20 <= 118


def test_first_nonfinite_names_the_bad_term():
    from mxt.train import _first_nonfinite
    assert _first_nonfinite({"l1": 0.5, "total": 1.0}) is None
    assert _first_nonfinite({"l1": 0.5, "style": float("inf")}) == "style"
    assert _first_nonfinite({"l1": float("nan")}) == "l1"


def test_train_loop_runs_to_target_and_checkpoints(tmp_path):
    samples = synthetic_dataset(2, 16, 16, seed=8)
    tc = TrainConfig(batch_size=2, seed=5, log_every=2, checkpoint_every=2)
    state = init_train_state(tiny_cfg(), tc, l1_only())
    lines = []
    ckpt = str(tmp_path / "loop.ckpt")
    parts = train_loop(state, samples, target_steps=4,
                       checkpoint_path=ckpt, log_fn=lines.append)
    assert state.step == 4
    assert "l1" in parts and "total" in parts
    assert any(line.startswith("step=2 ") for line in lines)
    assert load_train_state(ckpt).step == 4


def test_hole_l1_is_finite_and_positive():
    samples = synthetic_dataset(2, 16, 16, seed=9)
    state = init_train_state(tiny_cfg(), TrainConfig(), l1_only())
    val = hole_l1(state, samples)
    assert np.isfinite(val) and val > 0


def test_load_train_state_draws_no_random_numbers(tmp_path, monkeypatch):
    class NoDraws(np.random.Generator):
        def uniform(self, *args, **kwargs):
            raise AssertionError("a random weight was drawn")

    samples = synthetic_dataset(2, 16, 16, seed=6)
    weights = LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.001)
    state = init_train_state(tiny_cfg(), TrainConfig(batch_size=2, seed=3), weights)
    train_step(state, samples)
    p = str(tmp_path / "state.ckpt")
    save_train_state(p, state)
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: NoDraws(np.random.PCG64()))
    loaded = load_train_state(p)
    a, b = _all_tensors(state), _all_tensors(loaded)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key


def test_load_train_state_rejects_tensors_it_does_not_use(tmp_path):
    samples = synthetic_dataset(2, 16, 16, seed=6)
    weights = LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.001)
    state = init_train_state(tiny_cfg(), TrainConfig(batch_size=2, seed=3), weights)
    train_step(state, samples)
    p = str(tmp_path / "state.ckpt")
    save_train_state(p, state)
    meta, tensors = load_checkpoint(p)
    # without the adversarial term the disc.* and opt_d.* tensors have no use
    meta["loss.adversarial"] = "0.0"
    tensors["opt_g.m.bogus"] = np.zeros(3, dtype=np.float32)
    save_checkpoint(p, meta, tensors)
    with pytest.raises(SchemaError, match="unused tensors") as err:
        load_train_state(p)
    for name in ("'disc.", "'opt_d.m.", "'opt_d.v.", "'opt_g.m.bogus'"):
        assert name in str(err.value), name


def test_checkpoint_digests_are_pinned(tmp_path):
    # digests of the files a freshly initialized model and training state
    # save: any change to parameter names, order, shapes, init draws or
    # metadata changes them. Init calls no BLAS, so they hold on any host.
    def digest(path):
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    cfg = ModelConfig(base_channels=4, hm_counts=(1,) * 7)
    save_model(str(tmp_path / "model.ckpt"), MxT(cfg, np.random.default_rng(0)))
    assert digest(tmp_path / "model.ckpt") == (
        "c4f0b936b35e6828f3eed7820499727cb883cab58947c43f3833a749f81416d3")
    # default losses: the discriminator and both Adam optimizers are stored
    state = init_train_state(cfg, TrainConfig(seed=0))
    assert state.disc is not None and state.step == 0
    save_train_state(str(tmp_path / "state.ckpt"), state)
    assert digest(tmp_path / "state.ckpt") == (
        "6b0c9cdddc7bcd9652cda03e0935e6e31607fd2067c24af22849945d9a45a434")


def _adversarial_checkpoint(tmp_path) -> str:
    samples = synthetic_dataset(2, 16, 16, seed=6)
    weights = LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.001)
    state = init_train_state(tiny_cfg(), TrainConfig(batch_size=2, seed=3), weights)
    train_step(state, samples)
    p = str(tmp_path / "state.ckpt")
    save_train_state(p, state)
    return p


@pytest.mark.parametrize("prefix", ["opt_g.m.", "opt_d.v."])
@pytest.mark.parametrize("damage", ["missing", "shape", "dtype"])
def test_load_train_state_checks_every_optimizer_moment(tmp_path, prefix, damage):
    p = _adversarial_checkpoint(tmp_path)
    meta, tensors = load_checkpoint(p)
    key = next(k for k in tensors if k.startswith(prefix))
    if damage == "missing":
        del tensors[key]
    elif damage == "shape":
        tensors[key] = np.zeros((2, 2), dtype=tensors[key].dtype)
    else:
        tensors[key] = tensors[key].astype(np.float64)
    save_checkpoint(p, meta, tensors)
    with pytest.raises(SchemaError, match=key.replace(".", r"\.")):
        load_train_state(p)


@pytest.mark.parametrize("key,value", [("opt_d.t", None), ("step", "3.5"), ("step", ""),
                                       ("opt_g.t", "x"), ("opt_d.t", "1e3")])
def test_load_train_state_needs_integer_counters(tmp_path, key, value):
    p = _adversarial_checkpoint(tmp_path)
    meta, tensors = load_checkpoint(p)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    save_checkpoint(p, meta, tensors)
    with pytest.raises(SchemaError, match=key):
        load_train_state(p)


def test_load_train_state_rejects_a_model_checkpoint(tmp_path):
    p = str(tmp_path / "model.ckpt")
    save_model(p, MxT(tiny_cfg(), np.random.default_rng(0)))
    with pytest.raises(SchemaError, match="not a training checkpoint"):
        load_train_state(p)


def test_train_loop_rejects_images_of_two_sizes_before_any_step():
    samples = synthetic_dataset(2, 16, 16, seed=8) + synthetic_dataset(1, 24, 24, seed=8)
    state = init_train_state(tiny_cfg(), TrainConfig(batch_size=2, seed=5), l1_only())
    with pytest.raises(DimensionError, match="16x16 and 24x24"):
        train_loop(state, samples, target_steps=2)
    assert state.step == 0 and state.opt_g.t == 0


def _recipe(images, seed):
    # the sample recipe, written out: the mask of image i comes from bucket
    # low/mid/high in turn and seed * 100003 + i
    out = []
    for i, img in enumerate(images):
        bucket = ("low", "mid", "high")[i % 3]
        res = generate_irregular_mask(MaskSpec(bucket, seed * 100003 + i), *img.shape[1:])
        out.append((img, res.mask, bucket))
    return out


def _assert_samples_equal(samples, expected):
    assert len(samples) == len(expected)
    for s, (img, mask, bucket) in zip(samples, expected):
        np.testing.assert_array_equal(s.i_gt, img)
        np.testing.assert_array_equal(s.mask, mask)
        assert s.bucket == bucket


def test_build_samples_follows_the_sample_recipe(tmp_path):
    samples = build_samples(TrainConfig(data_count=4, image_size=12, seed=5))
    images = [synthetic_image(12, 12, np.random.default_rng([5, i])) for i in range(4)]
    _assert_samples_equal(samples, _recipe(images, 5))
    # a data directory: RGB files in name order, others skipped
    rng = np.random.default_rng(1)
    for name in ("c.ppm", "a.ppm", "B.PPM", "d.ppm"):
        write_ppm(str(tmp_path / name), rng.random((3, 8, 8)))
    write_pgm(str(tmp_path / "holes.pgm"), np.ones((1, 8, 8)))
    (tmp_path / "notes.txt").write_text("not an image")
    samples = build_samples(TrainConfig(data_dir=str(tmp_path), seed=2))
    images = [read_ppm(str(tmp_path / n)) for n in ("B.PPM", "a.ppm", "c.ppm", "d.ppm")]
    _assert_samples_equal(samples, _recipe(images, 2))
