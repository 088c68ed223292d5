"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with output visible:

    python3 -m pytest tests/test_acceptance.py -v -s

The overfit criterion is the slow one (several minutes of actual training);
everything else finishes in well under a minute apiece.
"""

import os
import time

import numpy as np
import pytest

import mxt.tensor as T
from mxt.tensor import Tensor


def _report(tag: str, ok: bool, detail: str):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


# -- 1 ------------------------------------------------------------------------------


def test_01_chunked_scan_matches_sequential():
    """50 random configs, L<=512, N<=16, chunk in {1,3,16,64,L}, float64,
    worst |chunked - sequential| < 1e-10, under 60 s."""
    from mxt.blocks import SsmParams
    from mxt.ssm import scan_chunked, scan_sequential

    rng = np.random.default_rng(11)
    chunks = (1, 3, 16, 64, None)  # None -> chunk_len = L
    worst = 0.0
    t0 = time.time()
    with T.no_grad():
        for i in range(50):
            L = int(rng.integers(2, 513))
            N = int(rng.integers(1, 17))
            E = int(rng.integers(1, 7))
            B = int(rng.integers(1, 3))
            chunk = chunks[i % len(chunks)] or L
            params = SsmParams(E, N, rng, False, dtype=np.float64)
            x = Tensor(rng.standard_normal((B, L, E)), dtype=np.float64)
            y_seq = scan_sequential(x, params).data
            y_chk = scan_chunked(x, params, chunk_len=chunk).data
            worst = max(worst, float(np.max(np.abs(y_seq - y_chk))))
    elapsed = time.time() - t0
    _report("01 scan-equivalence", worst < 1e-10 and elapsed < 60.0,
            f"worst_diff={worst:.3e} over 50 configs in {elapsed:.1f}s")


# -- 2 ------------------------------------------------------------------------------


def test_02_zoh_matches_series_oracle():
    """Discretization vs a 30-term high-precision series, rel < 1e-12 on both
    branches; a_bar -> 1 and b_bar -> 0 as the step vanishes (1e-10)."""
    import mpmath

    from mxt.ssm import discretize_zoh

    rng = np.random.default_rng(13)
    a = -np.exp(rng.uniform(-3, 3, 400))
    delta = 10.0 ** rng.uniform(-12, 0, 400)
    # force a band straddling the small-argument branch
    delta[:120] = 10.0 ** rng.uniform(-10, -6, 120) / np.abs(a[:120])
    b = rng.standard_normal(400)

    a_bar, b_bar = (t.data for t in discretize_zoh(
        Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64),
        Tensor(delta, dtype=np.float64)))

    worst = 0.0
    with mpmath.workdps(50):
        for i in range(400):
            x = mpmath.mpf(delta[i]) * mpmath.mpf(a[i])
            e = sum(x**k / mpmath.factorial(k) for k in range(30))
            phi = mpmath.mpf(delta[i]) * sum(
                x**k / mpmath.factorial(k + 1) for k in range(30))
            ra = abs(a_bar[i] - float(e)) / max(1.0, abs(float(e)))
            rb = abs(b_bar[i] - float(phi * mpmath.mpf(b[i]))) / max(
                1.0, abs(float(phi * mpmath.mpf(b[i]))))
            worst = max(worst, float(ra), float(rb))

    limit_worst = 0.0
    for tiny in (0.0, 1e-14, 1e-12):
        ab, bb = (t.data for t in discretize_zoh(
            Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64),
            Tensor(np.full_like(a, tiny), dtype=np.float64)))
        limit_worst = max(limit_worst, float(np.max(np.abs(ab - 1.0))),
                          float(np.max(np.abs(bb))))

    _report("02 zoh-series-oracle", worst < 1e-12 and limit_worst < 1e-10,
            f"series_rel={worst:.3e} vanishing_step={limit_worst:.3e}")


# -- 3 ------------------------------------------------------------------------------


def test_03_gradcheck_every_block():
    """Every block and loss term FD-verified at float64, worst rel < 1e-5,
    whole sweep under 5 minutes."""
    from mxt.gradcheck import run_standard_suite

    t0 = time.time()
    worst_name, worst = "", 0.0
    for name, rep in run_standard_suite(h=1e-5):
        if rep["worst"] > worst:
            worst_name, worst = name, rep["worst"]
    elapsed = time.time() - t0
    _report("03 gradcheck-all-blocks", worst < 1e-5 and elapsed < 300.0,
            f"worst={worst:.3e} ({worst_name}) in {elapsed:.1f}s")


# -- 4 ------------------------------------------------------------------------------


def test_04_full_model_shape_and_depth():
    """The reference layout [4,6,6,8,6,6,4] at base 16 maps a (2,3,64,64)
    image + (2,1,64,64) mask to a finite (2,3,64,64) output through exactly
    three down and three up steps."""
    from mxt.model import ModelConfig, MxT

    cfg = ModelConfig(base_channels=16, hm_counts=(4, 6, 6, 8, 6, 6, 4))
    model = MxT(cfg, np.random.default_rng(0), dtype=np.float32)
    rng = np.random.default_rng(1)
    img = rng.random((2, 3, 64, 64), dtype=np.float32)
    mask = (rng.random((2, 1, 64, 64)) > 0.7).astype(np.float32)
    x = np.concatenate([img * (1.0 - mask), mask], axis=1)
    with T.no_grad():
        out = model(Tensor(x)).data
    ok = (out.shape == (2, 3, 64, 64) and bool(np.all(np.isfinite(out)))
          and len(model.down) == 3 and len(model.up) == 3)
    _report("04 full-model-forward", ok,
            f"out={out.shape} finite={bool(np.all(np.isfinite(out)))} "
            f"down={len(model.down)} up={len(model.up)}")


# -- 5 ------------------------------------------------------------------------------


def test_05_attention_pooling_cbfn_and_pe():
    """SRSA pools keys/values to 64 tokens at 16/32/64 px with softmax rows
    summing to 1 +/- 1e-6; the context broadcast adds a per-sample,
    per-channel constant (spread < 1e-6); the first positional-encoding row
    is exactly {0, 1}."""
    from mxt.blocks import Gdfn, Srsa, positional_encoding
    from mxt.model import ModelConfig

    checks = []
    with T.no_grad():
        for size in (16, 32, 64):
            srsa = Srsa(8, ModelConfig(pooled_spatial=8), np.random.default_rng(2),
                        dtype=np.float64)
            x = Tensor(np.random.default_rng(3).standard_normal((1, 8, size, size)))
            att = srsa.attention_map(x).data  # (B, heads, L, tokens)
            checks.append(att.shape[-1] == 64)
            checks.append(float(np.max(np.abs(att.sum(-1) - 1.0))) < 1e-6)

        plain = Gdfn(8, ModelConfig(use_cbfn=False), np.random.default_rng(4),
                     dtype=np.float64)
        ctx = Gdfn(8, ModelConfig(use_cbfn=True), np.random.default_rng(4),
                   dtype=np.float64)
        xb = Tensor(np.random.default_rng(5).standard_normal((2, 8, 12, 12)))
        diff = ctx(xb).data - plain(xb).data          # (B, C, H, W)
        spread = float(np.max(diff.max(axis=(2, 3)) - diff.min(axis=(2, 3))))
        checks.append(spread < 1e-6)

    pe0 = positional_encoding(32, 8, np.float64)[0]
    checks.append(set(np.unique(pe0)) == {0.0, 1.0})
    _report("05 srsa-cbfn-pe", all(checks),
            f"rowsum_ok broadcast_spread={spread:.2e} pe0={sorted(set(pe0))}")


# -- 6 ------------------------------------------------------------------------------

# Pinned by a calibration run on one core (see notes below): the base-16
# single-repeat model crosses hole L1 = 0.02 on the 8-image synthetic set
# in well under the iteration budget at this learning rate.
OVERFIT_LR = 2e-3
OVERFIT_BATCH = 4
OVERFIT_MAX_ITERS = 2000
OVERFIT_TARGET = 0.02
OVERFIT_TIME_LIMIT_S = 900.0


@pytest.mark.slow
def test_06_overfit_small_set():
    """Base-16 model, 8 synthetic 32x32 images, default loss weights with
    the adversarial term off: hole L1 < 0.02 within 2000 iterations on one
    core in under 15 minutes."""
    from mxt.data import synthetic_dataset
    from mxt.losses import LossWeights
    from mxt.model import ModelConfig
    from mxt.train import TrainConfig, hole_l1, init_train_state, train_step

    mcfg = ModelConfig(base_channels=16, hm_counts=(1,) * 7)
    weights = LossWeights(l1=1.0, style=250.0, perceptual=0.1, adversarial=0.0)
    tcfg = TrainConfig(lr=OVERFIT_LR, batch_size=OVERFIT_BATCH, seed=0)
    state = init_train_state(mcfg, tcfg, weights)
    samples = synthetic_dataset(8, 32, 32, seed=0)

    t0 = time.time()
    reached, value = None, float("inf")
    while state.step < OVERFIT_MAX_ITERS:
        train_step(state, samples)
        if state.step % 25 == 0:
            value = hole_l1(state, samples)
            if value < OVERFIT_TARGET:
                reached = state.step
                break
            if time.time() - t0 > OVERFIT_TIME_LIMIT_S:
                break
    elapsed = time.time() - t0
    _report("06 overfit-small-set",
            reached is not None and elapsed < OVERFIT_TIME_LIMIT_S,
            f"hole_l1={value:.4f} at iter {reached or state.step} "
            f"in {elapsed:.0f}s (budget {OVERFIT_MAX_ITERS} iters / 15 min)")


# -- 7 ------------------------------------------------------------------------------


def test_07_metric_pins():
    """psnr(x,x)=99, ssim(x,x)=1, psnr at a uniform 0.1 offset = 20 +/- 1e-6,
    and the l1 metric equals the l1 loss term."""
    from mxt.losses import l1_loss
    from mxt.metrics import l1_metric, psnr, ssim

    rng = np.random.default_rng(17)
    x = rng.random((3, 32, 32)) * 0.9
    pin_cap = psnr(x, x) == 99.0
    pin_ssim = abs(ssim(x, x) - 1.0) < 1e-12
    pin_offset = abs(psnr(x, x + 0.1) - 20.0) < 1e-6
    a, b = rng.random((2, 3, 16, 16)), rng.random((2, 3, 16, 16))
    pin_l1 = abs(l1_metric(a, b) - float(l1_loss(Tensor(a), Tensor(b)).data)) < 1e-15
    _report("07 metric-pins", pin_cap and pin_ssim and pin_offset and pin_l1,
            f"psnr_cap={pin_cap} ssim1={pin_ssim} offset20={pin_offset} l1eq={pin_l1}")


# -- 8 ------------------------------------------------------------------------------


def test_08_mask_buckets():
    """100 masks per coverage bucket all land inside their (lo, hi] range
    with zero fallbacks."""
    from mxt.data import BUCKETS, MaskSpec, generate_irregular_mask

    bad, fallbacks = 0, 0
    for bucket, (lo, hi) in sorted(BUCKETS.items()):
        for i in range(100):
            res = generate_irregular_mask(
                MaskSpec(bucket=bucket, seed=90001 * (i + 1)), 64, 64)
            fallbacks += int(res.fallback)
            if not (lo < res.ratio <= hi):
                bad += 1
    _report("08 mask-buckets", bad == 0 and fallbacks == 0,
            f"out_of_range={bad}/300 fallbacks={fallbacks}")


# -- 9 ------------------------------------------------------------------------------


def test_09_checkpoint_roundtrip_and_exact_resume(tmp_path):
    """save -> load -> save is byte-identical, and a run interrupted at step 5
    and resumed to 10 matches an uninterrupted 10-step run bit for bit, at
    float64, with the adversarial pair enabled."""
    from mxt.data import synthetic_dataset
    from mxt.losses import LossWeights
    from mxt.model import ModelConfig
    from mxt.train import (
        TrainConfig,
        init_train_state,
        load_train_state,
        save_train_state,
        train_step,
    )

    mcfg = ModelConfig(base_channels=4, hm_counts=(1,) * 7, state_dim=2,
                       pooled_spatial=4, scan_chunk=16)
    weights = LossWeights(l1=1.0, style=0.0, perceptual=0.0, adversarial=0.001)
    samples = synthetic_dataset(4, 16, 16, seed=21)

    def fresh():
        return init_train_state(mcfg, TrainConfig(batch_size=2, seed=21),
                                weights, width="wide")

    straight = fresh()
    for _ in range(10):
        train_step(straight, samples)

    broken = fresh()
    for _ in range(5):
        train_step(broken, samples)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_train_state(p1, broken)
    resumed = load_train_state(p1)
    save_train_state(p2, resumed)
    bytes_equal = open(p1, "rb").read() == open(p2, "rb").read()
    for _ in range(5):
        train_step(resumed, samples)

    drift = 0.0
    names_match = ({n for n, _ in straight.model.named_parameters()}
                   == {n for n, _ in resumed.model.named_parameters()})
    exact = names_match and bytes_equal
    for (n, p), (_, q) in zip(straight.model.named_parameters(),
                              resumed.model.named_parameters()):
        if not np.array_equal(p.data, q.data):
            exact = False
            drift = max(drift, float(np.max(np.abs(p.data - q.data))))
    for n in straight.opt_g.m:
        if not (np.array_equal(straight.opt_g.m[n], resumed.opt_g.m[n])
                and np.array_equal(straight.opt_g.v[n], resumed.opt_g.v[n])):
            exact = False
    for (n, p), (_, q) in zip(straight.disc.named_parameters(),
                              resumed.disc.named_parameters()):
        if not np.array_equal(p.data, q.data):
            exact = False
    _report("09 checkpoint-exactness", exact,
            f"save/load/save_bytes_equal={bytes_equal} "
            f"resume_drift={drift:.1e} steps=10 width=wide")


# -- 10 -----------------------------------------------------------------------------


def test_10_sequential_scan_scales_linearly():
    """Median sequential-scan time must roughly double from L to 2L
    (ratio in [1.6, 2.6])."""
    from mxt.cli import scan_time_ratio

    t1, t2, ratio = scan_time_ratio(512, channels=8, state_dim=8, repeats=15)
    _report("10 scan-linear-time", 1.6 <= ratio <= 2.6,
            f"median {t1 * 1e3:.2f}ms -> {t2 * 1e3:.2f}ms ratio={ratio:.2f}")
