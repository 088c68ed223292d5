"""Quality metrics and evaluation aggregation.

Images are in [0, 1], so the peak value is 1. PSNR caps at 99.0 dB
(identical images hit the cap instead of infinity). SSIM uses an 11x11
Gaussian window (sigma 1.5), valid-mode windows only, stabilizers
C1 = 0.01^2 and C2 = 0.03^2, computed on the channel-mean grayscale of color
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import ContractError, DimensionError

PSNR_CAP = 99.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise DimensionError(f"psnr: shapes differ {a.shape} vs {b.shape}")
    mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * np.log10(1.0 / mse))


def l1_metric(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise DimensionError(f"l1: shapes differ {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64))))


def gaussian_window() -> np.ndarray:
    """The SSIM_WINDOW x SSIM_WINDOW Gaussian of SSIM_SIGMA, summing to 1."""
    half = (SSIM_WINDOW - 1) / 2.0
    coords = np.arange(SSIM_WINDOW, dtype=np.float64) - half
    g1 = np.exp(-(coords**2) / (2.0 * SSIM_SIGMA * SSIM_SIGMA))
    w = g1[:, None] * g1[None, :]
    return w / w.sum()


def _to_gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, np.float64)
    if img.ndim == 2:
        return img
    if img.ndim == 3:
        return img.mean(axis=0)
    raise DimensionError(f"ssim expects (H, W) or (C, H, W), got {img.shape}")


def _windowed(img: np.ndarray, w: np.ndarray) -> np.ndarray:
    views = np.lib.stride_tricks.sliding_window_view(img, w.shape)
    return np.tensordot(views, w, axes=((2, 3), (0, 1)))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise DimensionError(f"ssim: shapes differ {a.shape} vs {b.shape}")
    x, y = _to_gray(a), _to_gray(b)
    if x.shape[0] < SSIM_WINDOW or x.shape[1] < SSIM_WINDOW:
        raise ContractError(f"ssim needs at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {x.shape}")
    w = gaussian_window()
    mu_x = _windowed(x, w)
    mu_y = _windowed(y, w)
    sig_x = _windowed(x * x, w) - mu_x * mu_x
    sig_y = _windowed(y * y, w) - mu_y * mu_y
    sig_xy = _windowed(x * y, w) - mu_x * mu_y
    num = (2 * mu_x * mu_y + SSIM_C1) * (2 * sig_xy + SSIM_C2)
    den = (mu_x**2 + mu_y**2 + SSIM_C1) * (sig_x + sig_y + SSIM_C2)
    return float(np.mean(num / den))


# ---- evaluation ---------------------------------------------------------------------


@dataclass
class MetricRecord:
    index: int
    bucket: str
    psnr: float
    ssim: float
    l1: float


@dataclass
class MetricReport:
    composited: bool
    records: list = field(default_factory=list)

    def aggregate(self) -> dict:
        """bucket -> {psnr, ssim, l1, count}; '' groups every record once."""
        groups: dict = {}
        for rec in self.records:
            for key in ("", rec.bucket) if rec.bucket else ("",):
                groups.setdefault(key, []).append(rec)
        out = {}
        for key, recs in groups.items():
            out[key] = {
                "psnr": float(np.mean([r.psnr for r in recs])),
                "ssim": float(np.mean([r.ssim for r in recs])),
                "l1": float(np.mean([r.l1 for r in recs])),
                "count": len(recs),
            }
        return out

    def render_table(self) -> str:
        agg = self.aggregate()
        mode = "composited" if self.composited else "raw"
        lines = [f"metrics ({mode} output, {len(self.records)} images)"]
        lines.append(f"{'bucket':<10}{'count':>6}{'psnr':>10}{'ssim':>9}{'l1':>10}")
        order = [k for k in ("low", "mid", "high") if k in agg]
        order += sorted(k for k in agg if k not in ("", "low", "mid", "high"))
        for key in order + [""]:
            if key not in agg:
                continue
            row = agg[key]
            label = key if key else "all"
            lines.append(
                f"{label:<10}{row['count']:>6}{row['psnr']:>10.3f}"
                f"{row['ssim']:>9.4f}{row['l1']:>10.5f}")
        return "\n".join(lines)

    def render_lines(self) -> str:
        out = []
        for r in self.records:
            out.append(
                f"image={r.index} bucket={r.bucket or '-'} "
                f"psnr={r.psnr:.4f} ssim={r.ssim:.5f} l1={r.l1:.6f}")
        return "\n".join(out)


def evaluate_pairs(pairs, composited: bool = True) -> MetricReport:
    """pairs: iterable of (out, gt, mask, bucket); metrics are computed on the
    composited output (known pixels restored from gt) unless composited=False."""
    from .model import composite

    report = MetricReport(composited=composited)
    for i, (out, gt, mask, bucket) in enumerate(pairs):
        img = composite(out, gt, mask) if composited else out
        report.records.append(MetricRecord(
            index=i, bucket=bucket,
            psnr=psnr(img, gt), ssim=ssim(img, gt), l1=l1_metric(img, gt)))
    return report
