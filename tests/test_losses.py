"""Losses: hand-computed oracles, FD gradients, frozen-extractor behaviour."""

import numpy as np
import pytest

import mxt.losses as L
from mxt.gradcheck import check_module_gradients, relative_error
from mxt.tensor import ContractError, Tape, Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


# ---- L1 ------------------------------------------------------------------------


def test_l1_zero_on_identical_and_known_value():
    x = Tensor(rng(1).uniform(0, 1, (2, 3, 4, 4)), dtype=np.float64)
    assert L.l1_loss(x, x).item() == 0.0
    a = Tensor(np.zeros((1, 1, 2, 2)), dtype=np.float64)
    b = Tensor(np.array([[[[1.0, -1.0], [0.5, 0.0]]]]), dtype=np.float64)
    assert L.l1_loss(a, b).item() == pytest.approx(2.5 / 4)


def test_masked_l1_counts_only_holes():
    gt = rng(2).uniform(0, 1, (1, 3, 4, 4))
    out = gt.copy()
    mask = np.zeros((1, 1, 4, 4))
    mask[0, 0, 1, 1] = 1.0
    mask[0, 0, 2, 3] = 1.0
    out[0, :, 1, 1] += 0.3
    out[0, :, 2, 3] -= 0.1
    got = L.masked_l1(Tensor(out, dtype=np.float64), Tensor(gt, dtype=np.float64), mask)
    assert got.item() == pytest.approx((0.3 * 3 + 0.1 * 3) / 6)
    # changing pixels outside the mask changes nothing
    out2 = out.copy()
    out2[0, :, 0, 0] += 99.0
    got2 = L.masked_l1(Tensor(out2, dtype=np.float64), Tensor(gt, dtype=np.float64), mask)
    assert got2.item() == pytest.approx(got.item())


def test_masked_l1_empty_mask_rejected():
    x = Tensor(np.zeros((1, 3, 4, 4)), dtype=np.float64)
    with pytest.raises(ContractError):
        L.masked_l1(x, x, np.zeros((1, 1, 4, 4)))


# ---- gram / style -----------------------------------------------------------------


def test_gram_matrix_matches_loop_oracle():
    f = rng(3).standard_normal((2, 3, 4, 5))
    got = L.gram_matrix(Tensor(f, dtype=np.float64)).data
    for b in range(2):
        flat = f[b].reshape(3, -1)
        ref = flat @ flat.T / (3 * 4 * 5)
        np.testing.assert_allclose(got[b], ref, rtol=1e-12)


def test_style_and_perceptual_zero_on_identical():
    ex = L.FeatureExtractor(dtype=np.float64)
    x = Tensor(rng(4).uniform(0, 1, (1, 3, 16, 16)), dtype=np.float64)
    feats = ex(x)
    assert L.style_loss(feats, feats).item() == 0.0
    assert L.perceptual_loss(feats, feats).item() == 0.0
    y = Tensor(rng(5).uniform(0, 1, (1, 3, 16, 16)), dtype=np.float64)
    assert L.style_loss(feats, ex(y)).item() > 0
    assert L.perceptual_loss(feats, ex(y)).item() > 0


def test_extractor_is_frozen_and_reproducible():
    a = L.FeatureExtractor(dtype=np.float64)
    b = L.FeatureExtractor(dtype=np.float64)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
        assert not pa.requires_grad


def test_gradient_flows_through_frozen_extractor_into_input():
    ex = L.FeatureExtractor(dtype=np.float64)
    x = Tensor(rng(6).uniform(0, 1, (1, 3, 8, 8)), requires_grad=True, dtype=np.float64)
    gt = Tensor(rng(7).uniform(0, 1, (1, 3, 8, 8)), dtype=np.float64)
    with Tape():
        L.perceptual_loss(ex(x), ex(gt)).backward()
    assert x.grad is not None and np.abs(x.grad).max() > 0
    assert all(p.grad is None for p in ex.parameters())


# ---- adversarial -----------------------------------------------------------------------


def test_adversarial_nonsat_zero_logits_baseline():
    z = Tensor(np.zeros((2, 1, 4, 4)), dtype=np.float64)
    assert L.adversarial_g_from_logits(z, "nonsat").item() == pytest.approx(np.log(2))
    assert L.adversarial_d_from_logits(z, z, "nonsat").item() == pytest.approx(2 * np.log(2))


def test_adversarial_hinge_formulas():
    real = Tensor(np.array([[[[0.5]]]]), dtype=np.float64)
    fake = Tensor(np.array([[[[-2.0]]]]), dtype=np.float64)
    d = L.adversarial_d_from_logits(real, fake, mode="hinge")
    assert d.item() == pytest.approx(max(0, 1 - 0.5) + max(0, 1 + (-2.0)))
    g = L.adversarial_g_from_logits(fake, mode="hinge")
    assert g.item() == pytest.approx(2.0)


def test_adversarial_directions():
    # confident-correct D lowers its loss; G prefers fooling D
    good = Tensor(np.full((1, 1, 2, 2), 5.0), dtype=np.float64)
    bad = Tensor(np.full((1, 1, 2, 2), -5.0), dtype=np.float64)
    d = L.adversarial_d_from_logits
    assert d(good, bad, "nonsat").item() < d(bad, good, "nonsat").item()
    g = L.adversarial_g_from_logits
    assert g(good, "nonsat").item() < g(bad, "nonsat").item()


def test_unknown_adv_mode_rejected():
    with pytest.raises(ContractError):
        L.LossWeights(adv_mode="wgan")


# ---- aggregation --------------------------------------------------------------------------


def test_generator_loss_weighting_and_parts():
    ex = L.FeatureExtractor(dtype=np.float64)
    disc = L.PatchDiscriminator(rng(8), widths=(4, 8, 8), dtype=np.float64)
    g = rng(9)
    out = Tensor(g.uniform(0, 1, (1, 3, 16, 16)), dtype=np.float64)
    gt = Tensor(g.uniform(0, 1, (1, 3, 16, 16)), dtype=np.float64)
    mask = (g.uniform(0, 1, (1, 1, 16, 16)) > 0.7).astype(np.float64)
    w = L.LossWeights(l1=1.0, style=250.0, perceptual=0.1, adversarial=0.001)
    total, parts = L.generator_loss(out, gt, mask, w, extractor=ex, disc=disc)
    expect = parts["l1"] + 250 * parts["style"] + 0.1 * parts["perceptual"] + 0.001 * parts["adversarial"]
    assert float(total.data) == pytest.approx(expect, rel=1e-12)
    assert parts["total"] == pytest.approx(expect, rel=1e-12)


def test_zero_weight_terms_not_evaluated():
    out = Tensor(rng(10).uniform(0, 1, (1, 3, 8, 8)), dtype=np.float64)
    gt = Tensor(rng(11).uniform(0, 1, (1, 3, 8, 8)), dtype=np.float64)
    mask = np.ones((1, 1, 8, 8))
    w = L.LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.0)
    # no extractor, no discriminator: must not be touched
    total, parts = L.generator_loss(out, gt, mask, w, extractor=None, disc=None)
    assert set(parts) == {"l1", "total"}
    with pytest.raises(ContractError):
        L.generator_loss(out, gt, mask, L.LossWeights(l1=0, style=0, perceptual=0, adversarial=0),
                         None, None)


def test_composite_mode_ignores_known_region_errors():
    g = rng(12)
    gt = Tensor(g.uniform(0, 1, (1, 3, 8, 8)), dtype=np.float64)
    mask = np.zeros((1, 1, 8, 8))
    mask[0, 0, :2, :2] = 1.0
    out_bad_outside = gt.data.copy()
    out_bad_outside[0, :, 4:, 4:] += 0.5  # wrong only where mask = 0
    w = L.LossWeights(l1=1.0, style=0, perceptual=0, adversarial=0, composite=True)
    total, _ = L.generator_loss(Tensor(out_bad_outside, dtype=np.float64), gt, mask, w, None, None)
    assert float(total.data) == 0.0


def test_discriminator_loss_detaches_fake():
    disc = L.PatchDiscriminator(rng(13), widths=(4, 8, 8), dtype=np.float64)
    fake = Tensor(rng(14).uniform(0, 1, (1, 3, 16, 16)), requires_grad=True, dtype=np.float64)
    real = Tensor(rng(15).uniform(0, 1, (1, 3, 16, 16)), dtype=np.float64)
    with Tape():
        L.discriminator_loss(disc, real, fake, "nonsat").backward()
    assert fake.grad is None  # detached: nothing reaches the generator side
    assert any(p.grad is not None for p in disc.parameters())


# ---- gradients ------------------------------------------------------------------------------


def test_loss_gradients_vs_fd():
    from mxt.blocks import Module

    class Wrapper(Module):
        def __init__(self, kind):
            self.ex = L.FeatureExtractor(dtype=np.float64)
            self.disc = L.PatchDiscriminator(rng(16), widths=(3, 4, 4), dtype=np.float64)
            self._kind = kind
            self._gt = rng(17).uniform(0, 1, (1, 3, 8, 8))
            self._mask = np.zeros((1, 1, 8, 8))
            self._mask[0, 0, 2:6, 2:6] = 1.0

        def forward(self, x):
            gt = Tensor(self._gt, dtype=np.float64)
            if self._kind == "l1":
                return L.l1_loss(x, gt)
            if self._kind == "masked_l1":
                return L.masked_l1(x, gt, self._mask)
            if self._kind == "style":
                return L.style_loss(self.ex(x), self.ex(gt))
            if self._kind == "perceptual":
                return L.perceptual_loss(self.ex(x), self.ex(gt))
            if self._kind == "adv_g":
                return L.adversarial_g_from_logits(self.disc(x), "nonsat")
            raise AssertionError(self._kind)

    x = rng(18).uniform(0.2, 0.8, (1, 3, 8, 8))
    for kind in ("l1", "masked_l1", "style", "perceptual", "adv_g"):
        report = check_module_gradients(Wrapper(kind), x)
        assert report["worst"] < 1e-5, (kind, report)
