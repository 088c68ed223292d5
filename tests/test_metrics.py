"""Metric pins and brute-force oracles."""

import numpy as np
import pytest

import mxt.tensor as T
from mxt.losses import l1_loss
from mxt.metrics import (
    MetricReport,
    evaluate_pairs,
    gaussian_window,
    l1_metric,
    psnr,
    ssim,
)
from mxt.tensor import ContractError, DimensionError


def test_psnr_identical_hits_cap():
    rng = np.random.default_rng(0)
    x = rng.random((3, 16, 16))
    assert psnr(x, x) == 99.0


def test_psnr_uniform_offset_is_twenty():
    rng = np.random.default_rng(1)
    x = rng.random((3, 32, 32)) * 0.9  # keep x + 0.1 inside [0, 1]
    assert abs(psnr(x, x + 0.1) - 20.0) < 1e-6


def test_psnr_known_mse():
    x = np.zeros((1, 8, 8))
    y = np.full((1, 8, 8), 0.5)
    # mse = 0.25 -> 10*log10(1/0.25)
    assert abs(psnr(x, y) - 10.0 * np.log10(4.0)) < 1e-12


def test_psnr_cap_applies_to_tiny_mse():
    x = np.zeros((1, 8, 8))
    y = x.copy()
    y[0, 0, 0] = 1e-12
    assert psnr(x, y) == 99.0


def test_psnr_shape_mismatch():
    with pytest.raises(DimensionError):
        psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))


def test_l1_metric_matches_l1_loss():
    rng = np.random.default_rng(2)
    a = rng.random((2, 3, 12, 12))
    b = rng.random((2, 3, 12, 12))
    loss = l1_loss(T.Tensor(a), T.Tensor(b)).data.item()
    assert abs(l1_metric(a, b) - loss) < 1e-15


def test_gaussian_window_properties():
    w = gaussian_window()
    assert w.shape == (11, 11)
    assert abs(w.sum() - 1.0) < 1e-12
    assert w[5, 5] == w.max()
    assert np.allclose(w, w.T)
    # ratio of neighbouring samples must follow the gaussian falloff
    expect = np.exp(-1.0 / (2 * 1.5**2))
    assert abs(w[5, 6] / w[5, 5] - expect) < 1e-12


def test_ssim_identical_is_one():
    rng = np.random.default_rng(3)
    x = rng.random((3, 16, 16))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images_closed_form():
    # zero variance: ssim collapses to (2*m1*m2 + C1) / (m1^2 + m2^2 + C1)
    m1, m2 = 0.3, 0.7
    a = np.full((1, 16, 16), m1)
    b = np.full((1, 16, 16), m2)
    c1 = 0.01**2
    expect = (2 * m1 * m2 + c1) / (m1 * m1 + m2 * m2 + c1)
    assert abs(ssim(a, b) - expect) < 1e-12


def test_ssim_brute_force_oracle():
    """Explicit per-window loops against the vectorized version."""
    rng = np.random.default_rng(4)
    x = rng.random((14, 15))
    y = np.clip(x + rng.normal(0, 0.1, x.shape), 0, 1)
    w = gaussian_window()
    c1, c2 = 0.01**2, 0.03**2
    vals = []
    for i in range(14 - 10):
        for j in range(15 - 10):
            px = x[i:i + 11, j:j + 11]
            py = y[i:i + 11, j:j + 11]
            mx = (px * w).sum()
            my = (py * w).sum()
            vx = (px * px * w).sum() - mx * mx
            vy = (py * py * w).sum() - my * my
            vxy = (px * py * w).sum() - mx * my
            vals.append(((2 * mx * my + c1) * (2 * vxy + c2))
                        / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    assert abs(ssim(x, y) - np.mean(vals)) < 1e-12


def test_ssim_grayscale_is_channel_mean():
    rng = np.random.default_rng(5)
    a = rng.random((3, 16, 16))
    b = rng.random((3, 16, 16))
    gray = ssim(a.mean(axis=0)[None], b.mean(axis=0)[None])
    assert abs(ssim(a, b) - gray) < 1e-15


def test_ssim_orders_degradation():
    rng = np.random.default_rng(6)
    x = rng.random((1, 24, 24))
    mild = np.clip(x + rng.normal(0, 0.02, x.shape), 0, 1)
    harsh = np.clip(x + rng.normal(0, 0.3, x.shape), 0, 1)
    assert ssim(x, harsh) < ssim(x, mild) < 1.0


def test_ssim_rejects_small_inputs():
    with pytest.raises(ContractError):
        ssim(np.zeros((1, 10, 16)), np.zeros((1, 10, 16)))


def test_evaluate_compositing_ignores_known_region_error():
    rng = np.random.default_rng(7)
    gt = rng.random((3, 16, 16))
    mask = np.zeros((1, 16, 16))
    mask[:, 4:9, 4:9] = 1.0
    out = np.clip(gt + 0.4, 0, 1)  # wrong everywhere
    raw = evaluate_pairs([(out, gt, mask, "low")], composited=False)
    comp = evaluate_pairs([(out, gt, mask, "low")], composited=True)
    assert comp.records[0].psnr > raw.records[0].psnr
    assert comp.records[0].l1 < raw.records[0].l1


def test_evaluate_aggregates_by_bucket():
    rng = np.random.default_rng(8)
    pairs = []
    for k, bucket in enumerate(["low", "low", "high"]):
        gt = rng.random((3, 16, 16))
        out = np.clip(gt + 0.01 * (k + 1), 0, 1)
        pairs.append((out, gt, np.ones((1, 16, 16)), bucket))
    rep = evaluate_pairs(pairs, composited=True)
    agg = rep.aggregate()
    assert agg[""]["count"] == 3
    assert agg["low"]["count"] == 2
    assert agg["high"]["count"] == 1
    expect_low = np.mean([rep.records[0].psnr, rep.records[1].psnr])
    assert abs(agg["low"]["psnr"] - expect_low) < 1e-12


def test_report_renderers():
    rec = MetricReport(composited=True)
    rep = evaluate_pairs(
        [(np.full((1, 16, 16), 0.5), np.full((1, 16, 16), 0.5),
          np.ones((1, 16, 16)), "mid")])
    table = rep.render_table()
    assert "mid" in table and "all" in table and "psnr" in table
    lines = rep.render_lines()
    assert "image=0" in lines and "bucket=mid" in lines
    assert rec.render_lines() == ""


def test_aggregate_counts_a_bucketless_record_once():
    rng = np.random.default_rng(9)
    gt = rng.random((3, 16, 16))
    mask = np.ones((1, 16, 16))
    rep = evaluate_pairs([(np.clip(gt + 0.05, 0, 1), gt, mask, ""), (gt, gt, mask, "low")],
                         composited=True)
    agg = rep.aggregate()
    assert agg[""]["count"] == 2 and agg["low"]["count"] == 1
    assert agg[""]["psnr"] == np.mean([r.psnr for r in rep.records])
    assert ["all", "2"] in [line.split()[:2] for line in rep.render_table().splitlines()]
