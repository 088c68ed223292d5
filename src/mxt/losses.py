"""Training losses: weighted L1 / style / perceptual / adversarial.

Style and perceptual terms compare features from a frozen four-stage conv
pyramid whose weights are drawn once from a recorded seed; gradients flow
through it to the generator but never into it. The adversarial pair defaults
to the non-saturating softplus form, with hinge as an alternative. Terms
whose weight is exactly 0 are never evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import Conv2d, Module
from .tensor import ContractError, Tensor

EXTRACTOR_SEED = 314159  # the frozen feature pyramid is this seed, always
EXTRACTOR_WIDTHS = (16, 32, 64, 128)


@dataclass
class LossWeights:
    l1: float = 1.0
    style: float = 250.0
    perceptual: float = 0.1
    adversarial: float = 0.001
    adv_mode: str = "nonsat"  # or "hinge"
    composite: bool = False   # compare composited output instead of raw

    def __post_init__(self):
        if self.adv_mode not in ("nonsat", "hinge"):
            raise ContractError(f"adv_mode must be nonsat or hinge, got {self.adv_mode!r}")


class FeatureExtractor(Module):
    """Stride-2 conv+relu stages of ``EXTRACTOR_WIDTHS`` over an RGB image,
    drawn from ``EXTRACTOR_SEED``; forward returns all four feature maps."""

    def __init__(self, dtype=np.float32):
        rng = np.random.default_rng(EXTRACTOR_SEED)
        self.stages = []
        cin = 3
        for cout in EXTRACTOR_WIDTHS:
            self.stages.append(Conv2d(cin, cout, 3, rng, stride=2, pad=1, dtype=dtype))
            cin = cout
        self.set_requires_grad(False)

    def forward(self, x: Tensor) -> list:
        feats = []
        for conv in self.stages:
            x = T.relu(conv(x))
            feats.append(x)
        return feats


class PatchDiscriminator(Module):
    """Stride-2 conv stack over an RGB image ending in a 1x1 logit map over
    patches."""

    def __init__(self, rng: np.random.Generator | None, widths=(32, 64, 128),
                 dtype=np.float32):
        self.stages = []
        cin = 3
        for cout in widths:
            self.stages.append(Conv2d(cin, cout, 3, rng, stride=2, pad=1, dtype=dtype))
            cin = cout
        self.head = Conv2d(cin, 1, 1, rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        for conv in self.stages:
            x = T.leaky_relu(conv(x))
        return self.head(x)  # (B, 1, h, w) logits


# ---- individual terms ------------------------------------------------------------


def l1_loss(a: Tensor, b: Tensor) -> Tensor:
    return T.mean(T.abs_(a - b))


def masked_l1(out: Tensor, gt: Tensor, mask: np.ndarray) -> Tensor:
    """Mean absolute error over hole pixels only (mask 1 = hole)."""
    mask = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    total = float(mask.sum()) * out.shape[1]
    if total == 0:
        raise ContractError("masked_l1: mask selects nothing")
    m = Tensor(np.broadcast_to(mask, out.shape).astype(out.data.dtype))
    return T.sum_(T.abs_(out - gt) * m) / total


def gram_matrix(f: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C, C) channel co-occurrence, normalized by C*H*W."""
    bsz, c, h, w = f.shape
    flat = T.reshape(f, (bsz, c, h * w))
    g = T.matmul(flat, T.transpose(flat, (0, 2, 1)))
    return g / float(c * h * w)


def _average(terms: list) -> Tensor:
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total / len(terms)


def style_loss(feats_out: list, feats_gt: list) -> Tensor:
    return _average([l1_loss(gram_matrix(a), gram_matrix(b)) for a, b in zip(feats_out, feats_gt)])


def perceptual_loss(feats_out: list, feats_gt: list) -> Tensor:
    return _average([l1_loss(a, b) for a, b in zip(feats_out, feats_gt)])


def adversarial_g_from_logits(fake_logits: Tensor, mode: str) -> Tensor:
    if mode == "nonsat":
        return T.mean(T.softplus(T.neg(fake_logits)))
    if mode == "hinge":
        return T.neg(T.mean(fake_logits))
    raise ContractError(f"unknown adversarial mode {mode!r}")


def adversarial_d_from_logits(real_logits: Tensor, fake_logits: Tensor, mode: str) -> Tensor:
    if mode == "nonsat":
        return T.mean(T.softplus(T.neg(real_logits))) + T.mean(T.softplus(fake_logits))
    if mode == "hinge":
        return T.mean(T.relu(1.0 - real_logits)) + T.mean(T.relu(1.0 + fake_logits))
    raise ContractError(f"unknown adversarial mode {mode!r}")


# ---- aggregation --------------------------------------------------------------------


def _composite_t(out: Tensor, gt: Tensor, mask: np.ndarray) -> Tensor:
    m = np.broadcast_to(np.asarray(mask), out.shape).astype(out.data.dtype)
    return out * Tensor(m) + gt * Tensor(1.0 - m)


def generator_loss(out: Tensor, gt: Tensor, mask: np.ndarray, weights: LossWeights,
                   extractor: FeatureExtractor | None, disc: PatchDiscriminator | None):
    """Weighted sum of the enabled terms; returns (total, {name: float}).

    Terms with weight 0 are skipped outright (no extractor/discriminator
    forward happens for them).
    """
    target = _composite_t(out, gt, mask) if weights.composite else out
    parts = {}
    total = None

    def accumulate(name, weight, term):
        nonlocal total
        parts[name] = float(term.data)
        weighted = term * weight
        total = weighted if total is None else total + weighted

    if weights.l1 != 0:
        accumulate("l1", weights.l1, l1_loss(target, gt))
    if weights.style != 0 or weights.perceptual != 0:
        if extractor is None:
            raise ContractError("style/perceptual weights need a feature extractor")
        fo = extractor(target)
        fg = extractor(gt)
        if weights.style != 0:
            accumulate("style", weights.style, style_loss(fo, fg))
        if weights.perceptual != 0:
            accumulate("perceptual", weights.perceptual, perceptual_loss(fo, fg))
    if weights.adversarial != 0:
        if disc is None:
            raise ContractError("adversarial weight needs a discriminator")
        accumulate("adversarial", weights.adversarial,
                   adversarial_g_from_logits(disc(target), weights.adv_mode))
    if total is None:
        raise ContractError("all loss weights are zero")
    parts["total"] = float(total.data)
    return total, parts


def discriminator_loss(disc: PatchDiscriminator, real: Tensor, fake: Tensor,
                       mode: str) -> Tensor:
    """D's objective; the fake batch is detached here, so only D learns."""
    return adversarial_d_from_logits(disc(real), disc(fake.detach()), mode)
