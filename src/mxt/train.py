"""Training loop: Adam, alternating discriminator/generator steps, resumable state.

Determinism contract: a run is fully determined by (model config, train config,
loss weights, width). Batch composition depends only on (seed, step), so a
checkpoint at step k resumed to step n is bit-identical to an uninterrupted
run to step n. The frozen feature extractor is rebuilt from its fixed seed and
is never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import Module
from .checkpoint import SchemaError, load_checkpoint, save_checkpoint
from .data import batch_at, folder_dataset, synthetic_dataset
from .losses import (
    FeatureExtractor,
    LossWeights,
    PatchDiscriminator,
    discriminator_loss,
    generator_loss,
    masked_l1,
)
from .model import (WIDTHS, ModelConfig, MxT, _load_state, _state_tensors, _unloaded_model,
                    decode_config, encode_config, prepare_input, width_of)
from .tensor import ContractError, DimensionError, NumericError, Tape, Tensor, no_grad

# fixed stream ids so model/disc init never collide with batch shuffling
_MODEL_STREAM = 1
_DISC_STREAM = 2


@dataclass
class TrainConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 2
    seed: int = 0
    iters: int = 2000
    log_every: int = 50
    checkpoint_every: int = 0
    # data source; recorded in checkpoints so a resumed run rebuilds the
    # exact same sample list
    data_dir: str = ""
    data_count: int = 8
    image_size: int = 32

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        # written as "not in range" so that nan fails too
        if not self.lr > 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if not self.eps > 0:
            raise ContractError(f"eps must be positive, got {self.eps}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ContractError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        for name in ("image_size", "data_count"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "iters", "log_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")


def flat_config(mcfg: ModelConfig, tcfg: TrainConfig, weights: LossWeights, width: str) -> dict:
    """The flat str->str config of a training run: model.*, train.*, loss.*
    and width, in the order checkpoint metadata stores them."""
    flat = encode_config(mcfg, "model.")
    flat.update(encode_config(tcfg, "train."))
    flat.update(encode_config(weights, "loss."))
    flat["width"] = width
    return flat


class Adam(object):
    """Moment estimates are keyed by parameter name so they survive a
    checkpoint round trip attached to the right tensors."""

    def __init__(self, module: Module, tcfg: TrainConfig):
        self.params = dict(module.named_parameters())
        self.lr, self.beta1, self.beta2, self.eps = tcfg.lr, tcfg.beta1, tcfg.beta2, tcfg.eps
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        """One update per parameter with a gradient, through two scratch
        arrays: ``s`` and ``u``, which becomes the parameter's new data. The
        ops and their order are those of ``m = b1*m + (1-b1)*g``,
        ``v = b2*v + (1-b2)*g*g``, ``p - lr*(m/bc1) / (sqrt(v/bc2) + eps)``,
        so the values are too. The data is rebound, never written, so a
        node recorded before the step keeps the forward-time array."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            s = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += s
            np.multiply(g, g, out=s)
            s *= 1.0 - self.beta2
            v *= self.beta2
            v += s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            u = np.divide(m, bc1)
            u *= self.lr
            u /= s
            np.subtract(p.data, u, out=u)
            p.data = u


@dataclass
class TrainState:
    model: MxT
    tcfg: TrainConfig
    weights: LossWeights
    opt_g: Adam
    extractor: FeatureExtractor | None
    disc: PatchDiscriminator | None
    opt_d: Adam | None
    step: int = 0

    @property
    def parts(self) -> dict:
        """What a training checkpoint stores, by key prefix, in file order."""
        return {"model": self.model, "opt_g": self.opt_g, "disc": self.disc, "opt_d": self.opt_d}


def init_train_state(mcfg: ModelConfig, tcfg: TrainConfig,
                     weights: LossWeights | None = None,
                     width: str = "standard") -> TrainState:
    weights = weights if weights is not None else LossWeights()
    model = MxT(mcfg, np.random.default_rng([tcfg.seed, _MODEL_STREAM]), dtype=WIDTHS[width])
    return _assemble_state(model, tcfg, weights, np.random.default_rng([tcfg.seed, _DISC_STREAM]))


def _assemble_state(model: MxT, tcfg: TrainConfig, weights: LossWeights,
                    disc_rng: np.random.Generator | None) -> TrainState:
    """Optimizers, extractor and (when adversarial) discriminator around a
    model; disc_rng None leaves the discriminator for a load to fill in. The
    extractor is never stored, so it is always drawn from its fixed seed."""
    opt_g = Adam(model, tcfg)
    extractor = None
    if weights.style != 0 or weights.perceptual != 0:
        extractor = FeatureExtractor(dtype=model.dtype)
    disc = opt_d = None
    if weights.adversarial != 0:
        disc = PatchDiscriminator(disc_rng, dtype=model.dtype)
        opt_d = Adam(disc, tcfg)
    return TrainState(model=model, tcfg=tcfg, weights=weights, opt_g=opt_g,
                      extractor=extractor, disc=disc, opt_d=opt_d)


def build_samples(tcfg: TrainConfig) -> list:
    """Materialize the training set a config describes (synthetic unless
    data_dir points at a directory of images)."""
    if tcfg.data_dir:
        return folder_dataset(tcfg.data_dir, tcfg.seed)
    return synthetic_dataset(tcfg.data_count, tcfg.image_size, tcfg.image_size, tcfg.seed)


def _first_nonfinite(parts: dict) -> str | None:
    for name, value in parts.items():
        if not np.isfinite(value):
            return name
    return None


def train_step(state: TrainState, samples) -> dict:
    """One optimization step. All finiteness checks run before any parameter
    is touched, so a raised NumericError leaves the state at the last good
    step."""
    tc = state.tcfg
    batch = batch_at(samples, tc.batch_size, tc.seed, state.step, dtype=state.model.dtype)
    x = Tensor(batch.i_in)
    gt = Tensor(batch.i_gt)
    state.model.zero_grad()
    if state.disc is not None:
        state.disc.zero_grad()
    with Tape():
        out = state.model(x)
        d_loss = None
        if state.disc is not None:
            d_loss = discriminator_loss(state.disc, gt, out, state.weights.adv_mode)
        g_loss, parts = generator_loss(out, gt, batch.mask, state.weights,
                                       state.extractor, state.disc)
        if d_loss is not None:
            parts["d_loss"] = float(d_loss.data)
        bad = _first_nonfinite(parts)
        if bad is not None:
            raise NumericError(
                f"non-finite loss term '{bad}' at step {state.step}")
        if d_loss is not None:
            d_loss.backward()
            state.opt_d.step()
        g_loss.backward()
        state.opt_g.step()
    state.step += 1
    return parts


def train_loop(state: TrainState, samples, target_steps: int,
               checkpoint_path: str | None = None, log_fn=None) -> dict:
    """Run until state.step == target_steps. On a numeric abort, the last good
    state is written to checkpoint_path (if set) before re-raising."""
    tc = state.tcfg
    sizes = sorted({"x".join(map(str, s.i_gt.shape[1:])) for s in samples})
    if len(sizes) > 1:
        raise DimensionError(f"training images must share one size, got {sizes[0]} and {sizes[1]}")
    parts: dict = {}
    while state.step < target_steps:
        try:
            parts = train_step(state, samples)
        except NumericError:
            if checkpoint_path:
                save_train_state(checkpoint_path, state)
                if log_fn:
                    log_fn(f"aborted; last good state (step {state.step}) "
                           f"saved to {checkpoint_path}")
            raise
        if log_fn and tc.log_every and state.step % tc.log_every == 0:
            shown = " ".join(f"{k}={v:.5f}" for k, v in sorted(parts.items()))
            log_fn(f"step={state.step} {shown}")
        if (checkpoint_path and tc.checkpoint_every
                and state.step % tc.checkpoint_every == 0):
            save_train_state(checkpoint_path, state)
    if checkpoint_path:
        save_train_state(checkpoint_path, state)
    return parts


def hole_l1(state: TrainState, samples) -> float:
    """Mean masked L1 over a full dataset pass (no gradients)."""
    vals = []
    dtype = state.model.dtype
    with no_grad():
        for s in samples:
            x = Tensor(prepare_input(s.i_gt, s.mask, dtype)[None])
            gt = Tensor(s.i_gt[None].astype(dtype))
            out = state.model(x)
            vals.append(float(masked_l1(out, gt, s.mask[None]).data))
    return float(np.mean(vals))


# ---- persistence -----------------------------------------------------------------


def save_train_state(path: str, state: TrainState) -> None:
    meta = flat_config(state.model.config, state.tcfg, state.weights,
                       width_of(state.model.dtype))
    meta["step"] = str(state.step)
    meta["opt_g.t"] = str(state.opt_g.t)
    if state.disc is not None:
        meta["opt_d.t"] = str(state.opt_d.t)
    save_checkpoint(path, meta, _state_tensors(state.parts))


def _meta_count(meta: dict, key: str, path: str) -> int:
    if key not in meta:
        raise SchemaError(f"{path}: no {key} in a training checkpoint")
    try:
        return int(meta[key])
    except ValueError:
        raise SchemaError(f"{path}: {key} must be an integer, got {meta[key]!r}") from None


def load_train_state(path: str) -> TrainState:
    """Rebuild a training state from a checkpoint. Nothing the file stores is
    drawn: the model and discriminator are built uninitialized and loaded.
    Only the frozen extractor, which is never stored, is drawn from its fixed
    seed. The file must store exactly the tensors the state has a place for
    (no discriminator when the adversarial weight is 0), as for load_model."""
    meta, tensors = load_checkpoint(path)
    if "step" not in meta:
        raise SchemaError(f"{path}: not a training checkpoint (no step or optimizer state)")
    tcfg = decode_config(TrainConfig, meta, "train.")
    weights = decode_config(LossWeights, meta, "loss.")
    state = _assemble_state(_unloaded_model(path, meta), tcfg, weights, disc_rng=None)
    _load_state(path, state.parts, tensors)
    state.step = _meta_count(meta, "step", path)
    state.opt_g.t = _meta_count(meta, "opt_g.t", path)
    if state.opt_d is not None:
        state.opt_d.t = _meta_count(meta, "opt_d.t", path)
    return state
