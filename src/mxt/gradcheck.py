"""Finite-difference gradient verification.

Central differences with step h on float64 inputs give truncation error
O(h^2); at h = 1e-5 that is ~1e-10, far below the 1e-5 acceptance line, so a
failure here points at a wrong backward rule rather than FD noise.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tape, Tensor, no_grad, sum_


def fd_gradients(f: Callable[..., float], arrays: Sequence[np.ndarray], h: float = 1e-5):
    """Central-difference gradients of scalar f wrt each float64 array."""
    grads = []
    for i, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = f(*arrays)
            flat[j] = keep - h
            dn = f(*arrays)
            flat[j] = keep
            gflat[j] = (up - dn) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise |a - n| / max(1, |a|, |n|) over the array."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _tape_gradients(leaves: list, objective: Callable) -> list:
    """Each leaf's tape gradient of the scalar objective(), zeros where none
    arrives. The leaves' .grad is cleared before and after."""
    for leaf in leaves:
        leaf.grad = None
    with Tape():
        out = objective()
        if out.shape != ():
            raise ValueError(f"gradcheck target must be scalar, got {out.shape}")
        out.backward()
    grads = [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
             for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    return grads


def _tape_vs_fd(leaves: list, objective: Callable, value: Callable, h: float) -> list:
    """Relative error of each leaf's tape gradient of the scalar objective()
    against central differences of value(*arrays). The differences run on
    private copies of the leaves' arrays, so no array a leaf wraps is written."""
    analytic = _tape_gradients(leaves, objective)
    numeric = fd_gradients(value, [leaf.data.copy() for leaf in leaves], h=h)
    return [relative_error(a, n) for a, n in zip(analytic, numeric)]


def check_function(build: Callable[..., Tensor], arrays: Sequence[np.ndarray], h: float = 1e-5):
    """Compare tape gradients of ``build(*leaf_tensors) -> scalar`` to FD.

    Returns (worst_rel_err, per_input_errors). Arrays must be float64.
    """
    leaves = [Tensor(np.array(a, dtype=np.float64), requires_grad=True, dtype=np.float64)
              for a in arrays]
    # the float64 copies stay float64 through Tensor
    errs = _tape_vs_fd(leaves, lambda: build(*leaves),
                       lambda *vals: float(build(*map(Tensor, vals)).data), h)
    return (max(errs) if errs else 0.0), errs


def _reduce_weights(shape: tuple) -> np.ndarray:
    """Fixed random weights that reduce a module's output to the checked scalar."""
    return np.random.default_rng(1234).standard_normal(shape)


def _directional_errors(leaves: list, objective: Callable, value: Callable,
                        rng: np.random.Generator, count: int, h: float) -> list:
    """Relative error of the tape gradient of the scalar objective() along
    each of ``count`` random unit directions v over all leaves together,
    against the central difference (value(a + h v) - value(a - h v)) / 2h of
    value(*arrays) at the leaves' arrays a: the check for a graph too large
    to difference elementwise."""
    grads = _tape_gradients(leaves, objective)
    # value() may rebind the leaves' data, so the base point is read once
    base = [leaf.data for leaf in leaves]
    errs = []
    for _ in range(count):
        v = [rng.standard_normal(a.shape) for a in base]
        norm = np.sqrt(sum(float(np.vdot(d, d)) for d in v))
        v = [d / norm for d in v]
        tape_dot = sum(float(np.vdot(g, d)) for g, d in zip(grads, v))
        up = value(*[a + h * d for a, d in zip(base, v)])
        dn = value(*[a - h * d for a, d in zip(base, v)])
        errs.append(relative_error(np.array(tape_dot), np.array((up - dn) / (2.0 * h))))
    return errs


def check_module_gradients(module, x: np.ndarray, h: float = 1e-5, forward=None) -> dict:
    """FD-verify a Module's gradients wrt its input and every parameter.

    The module must be built at float64. The (possibly non-scalar) output is
    reduced by a fixed random-weight sum so every output element influences
    the check. Returns {name: rel_err} plus a "worst" entry; the input slot
    is named "<input>".
    """
    names, errs = _module_check(
        module, x, forward, lambda leaves, objective, value: _tape_vs_fd(leaves, objective, value, h))
    report = dict(zip(names, errs))
    report["worst"] = max(report.values())
    return report


def _module_check(module, x: np.ndarray, forward, compare) -> tuple:
    """``compare(leaves, objective, value)`` over the module's input and
    trainable parameters, as ``check_module_gradients`` describes; returns
    the slot names ("<input>" first) and what ``compare`` returned."""
    forward = forward or (lambda m, t: m(t))
    params = list(module.named_parameters())
    if any(p.data.dtype != np.float64 for _, p in params):
        raise ValueError("gradcheck needs a float64 module")
    checked = [(name, p) for name, p in params if p.requires_grad]
    originals = [p.data for _, p in checked]
    xt = Tensor(np.array(x, dtype=np.float64), requires_grad=True, dtype=np.float64)

    def objective() -> Tensor:
        y = forward(module, xt)
        return sum_(y * Tensor(_reduce_weights(y.shape), dtype=np.float64))

    def value(x_, *arrays) -> float:
        # the module reads the perturbed copies in place of its own arrays
        for (_, p), arr in zip(checked, arrays):
            p.data = arr
        with no_grad():
            out = forward(module, Tensor(x_, dtype=np.float64))
        return float(np.sum(out.data * _reduce_weights(out.shape)))

    try:
        result = compare([xt] + [p for _, p in checked], objective, value)
    finally:
        for (_, p), arr in zip(checked, originals):
            p.data = arr
    return ["<input>"] + [name for name, _ in checked], result


def _check_model(rng: np.random.Generator, h: float) -> dict:
    """Directional check of a whole float64 MxT (base 4, one hybrid module
    per stage) at 16x16, B = 2, under the full generator loss with each
    adversarial mode: 3 random unit directions over every parameter and the
    input together. Slots are "<mode>.v<i>"."""
    from .losses import FeatureExtractor, LossWeights, PatchDiscriminator, generator_loss
    from .model import ModelConfig, MxT

    f64 = np.float64
    model = MxT(ModelConfig(base_channels=4, hm_counts=(1,) * 7), rng, dtype=f64)
    extractor = FeatureExtractor(dtype=f64)
    disc = PatchDiscriminator(rng, widths=(4, 8), dtype=f64)
    gt = rng.uniform(0.05, 0.95, (2, 3, 16, 16))
    mask = np.zeros((2, 1, 16, 16))
    mask[:, :, 4:12, 4:12] = 1.0
    x = np.concatenate([gt * (1.0 - mask), mask], axis=1)
    report = {}
    for mode in ("nonsat", "hinge"):
        weights = LossWeights(adv_mode=mode)
        _, errs = _module_check(
            model, x,
            lambda m, t: generator_loss(m(t), Tensor(gt), mask, weights, extractor, disc)[0],
            lambda leaves, objective, value: _directional_errors(
                leaves, objective, value, rng, 3, h))
        report.update({f"{mode}.v{i}": err for i, err in enumerate(errs)})
    report["worst"] = max(report.values())
    return report


# ---- standard verification suite ----------------------------------------------------
#
# Every trainable block and every loss term, checked on small float64 inputs
# (4x4 spatial). Backward rules do not depend on widths, so the discriminator
# used for the adversarial checks is a narrow one to keep FD affordable. The
# "model" check runs the assembled network and loss along random directions.

STANDARD_BLOCKS = (
    "layer_norm",
    "conv2d",
    "depthwise_conv2d",
    "causal_conv1d",
    "srsa",
    "mamba_block",
    "gdfn",
    "cbfn",
    "ssm_scan",
    "loss_l1",
    "loss_masked_l1",
    "loss_style",
    "loss_perceptual",
    "loss_adv_g_nonsat",
    "loss_adv_g_hinge",
    "loss_adv_d_nonsat",
    "loss_adv_d_hinge",
    "model",
)


def run_standard_check(name: str, h: float = 1e-5) -> dict:
    """Run one named check; returns {slot: rel_err, ..., "worst": float}."""
    from .blocks import (
        CausalConv1d,
        ChannelLayerNorm,
        Conv2d,
        DepthwiseConv2d,
        Gdfn,
        MambaBlock,
        Srsa,
        SsmParams,
    )
    from .losses import (
        FeatureExtractor,
        PatchDiscriminator,
        adversarial_g_from_logits,
        discriminator_loss,
        l1_loss,
        masked_l1,
        perceptual_loss,
        style_loss,
    )
    from .model import ModelConfig
    from .ssm import scan_chunked

    rng = np.random.default_rng(7)
    f64 = np.float64
    x4 = rng.standard_normal((1, 4, 4, 4))
    img = rng.uniform(0.05, 0.95, (1, 3, 4, 4))
    gt = rng.uniform(0.05, 0.95, (1, 3, 4, 4))
    mask = np.zeros((1, 1, 4, 4))
    mask[:, :, 1:3, 1:3] = 1.0

    if name == "layer_norm":
        return check_module_gradients(ChannelLayerNorm(4, dtype=f64), x4, h=h)
    if name == "conv2d":
        return check_module_gradients(Conv2d(4, 3, 3, rng, stride=2, pad=1, dtype=f64), x4, h=h)
    if name == "depthwise_conv2d":
        return check_module_gradients(DepthwiseConv2d(4, rng, dtype=f64), x4, h=h)
    if name == "causal_conv1d":
        return check_module_gradients(CausalConv1d(4, rng, 4, dtype=f64),
                                      rng.standard_normal((1, 6, 4)), h=h)
    if name == "srsa":
        mod = Srsa(4, ModelConfig(pooled_spatial=2, heads=2), rng, dtype=f64)
        return check_module_gradients(mod, x4, h=h)
    if name == "mamba_block":
        mod = MambaBlock(4, ModelConfig(state_dim=2, scan_chunk=5), rng, dtype=f64)
        return check_module_gradients(mod, x4, h=h)
    if name == "gdfn":
        return check_module_gradients(
            Gdfn(4, ModelConfig(use_cbfn=False), rng, dtype=f64), x4, h=h)
    if name == "cbfn":
        return check_module_gradients(
            Gdfn(4, ModelConfig(), rng, dtype=f64), x4, h=h)
    if name == "ssm_scan":
        return check_module_gradients(
            SsmParams(4, 2, rng, False, dtype=f64), rng.standard_normal((1, 16, 4)), h=h,
            forward=lambda m, t: scan_chunked(t, m, 5))
    if name == "loss_l1":
        worst, errs = check_function(lambda a, b: l1_loss(a, b), [img, gt], h=h)
        return {"out": errs[0], "gt": errs[1], "worst": worst}
    if name == "loss_masked_l1":
        worst, errs = check_function(lambda a, b: masked_l1(a, b, mask), [img, gt], h=h)
        return {"out": errs[0], "gt": errs[1], "worst": worst}
    if name in ("loss_style", "loss_perceptual"):
        ext = FeatureExtractor(dtype=f64)
        term = style_loss if name == "loss_style" else perceptual_loss
        worst, errs = check_function(lambda a, b: term(ext(a), ext(b)), [img, gt], h=h)
        return {"out": errs[0], "gt": errs[1], "worst": worst}
    if name.startswith("loss_adv_g"):
        mode = name.rsplit("_", 1)[1]
        disc = PatchDiscriminator(rng, widths=(4, 8), dtype=f64)
        return check_module_gradients(
            disc, img, h=h,
            forward=lambda m, t: adversarial_g_from_logits(m(t), mode))
    if name.startswith("loss_adv_d"):
        mode = name.rsplit("_", 1)[1]
        disc = PatchDiscriminator(rng, widths=(4, 8), dtype=f64)
        fake = Tensor(gt.copy(), dtype=f64)
        # the fake branch is detached inside the loss, so only the real input
        # and the discriminator weights carry gradients
        return check_module_gradients(
            disc, img, h=h,
            forward=lambda m, t: discriminator_loss(m, t, fake, mode))
    if name == "model":
        return _check_model(rng, h)
    raise ValueError(f"unknown gradcheck block {name!r}; "
                     f"known: {', '.join(STANDARD_BLOCKS)}")


def run_standard_suite(names=None, h: float = 1e-5):
    """Yield (name, report) for each requested check (all by default)."""
    for name in names or STANDARD_BLOCKS:
        yield name, run_standard_check(name, h=h)
