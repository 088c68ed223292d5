"""Data plumbing: binary PPM/PGM image files, brush-stroke hole masks bucketed
by coverage ratio, a procedural image corpus, and deterministic batching.

Images are float arrays in [0, 1], channel-first: RGB (3, H, W), masks
(1, H, W) with 1 marking the hole to fill. Quantization to bytes rounds half
up, so read(write(x)) is byte-exact for byte-born data.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .model import prepare_input
from .tensor import ContractError, DimensionError


class ParseError(ValueError):
    """Malformed image file; the message carries a byte offset."""


# mask-coverage buckets: ratio in (lo, hi]
BUCKETS = {
    "low": (0.0001, 0.20),
    "mid": (0.20, 0.40),
    "high": (0.40, 0.60),
}

MAX_MASK_ATTEMPTS = 64
MAX_STROKES = 256  # per attempt


# ---- PPM / PGM ------------------------------------------------------------------


def _quantize(img: np.ndarray) -> np.ndarray:
    """[0,1] float -> uint8, rounding .5 upward (floor(x*255 + 0.5))."""
    return np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)


class _Header:
    """Tokenizer for the whitespace-and-comments netpbm header."""

    def __init__(self, blob: bytes, path: str):
        self.blob, self.path, self.off = blob, path, 0

    def token(self) -> tuple:
        """(start_offset, token_bytes) after skipping whitespace and comments."""
        blob = self.blob
        n = len(blob)
        while self.off < n:
            c = blob[self.off]
            if c in b"#":
                while self.off < n and blob[self.off] not in b"\n":
                    self.off += 1
            elif c in b" \t\r\n":
                self.off += 1
            else:
                break
        if self.off >= n:
            raise ParseError(f"{self.path}: unexpected end of header at byte {self.off}")
        start = self.off
        while self.off < n and blob[self.off] not in b" \t\r\n":
            self.off += 1
        return start, blob[start : self.off]

    def integer(self, what: str) -> int:
        start, tok = self.token()
        if not tok.isdigit():
            raise ParseError(f"{self.path}: expected {what} at byte {start}, got {tok[:20]!r}")
        return int(tok)


def _read_netpbm(path: str, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    h = _Header(blob, path)
    at, got = h.token()
    if got != magic:
        raise ParseError(f"{path}: bad magic {got[:8]!r} at byte {at}, expected {magic.decode()}")
    width = h.integer("width")
    height = h.integer("height")
    maxval = h.integer("maxval")
    if maxval != 255:
        raise ParseError(f"{path}: unsupported maxval {maxval} (only 255)")
    # exactly one whitespace byte separates the header from the raster
    if h.off >= len(blob) or blob[h.off] not in b" \t\r\n":
        raise ParseError(f"{path}: missing raster separator at byte {h.off}")
    h.off += 1
    need = width * height * channels
    raster = blob[h.off : h.off + need]
    if len(raster) < need:
        raise ParseError(
            f"{path}: raster truncated at byte {h.off + len(raster)} "
            f"(need {need} bytes, have {len(raster)})")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels)
    return arr


def read_ppm(path: str) -> np.ndarray:
    """Binary P6 -> (3, H, W) float64 in [0, 1]."""
    arr = _read_netpbm(path, b"P6", 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_ppm(path: str, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[0] != 3:
        raise DimensionError(f"write_ppm expects (3, H, W), got {img.shape}")
    q = _quantize(img).transpose(1, 2, 0)
    with open(path, "wb") as f:
        f.write(f"P6\n{img.shape[2]} {img.shape[1]}\n255\n".encode())
        f.write(q.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Binary P5 -> (1, H, W) float64 mask in {0, 1} (values > 127 are holes)."""
    arr = _read_netpbm(path, b"P5", 1)
    return (arr.transpose(2, 0, 1) > 127).astype(np.float64)


def write_pgm(path: str, mask: np.ndarray) -> None:
    if mask.ndim != 3 or mask.shape[0] != 1:
        raise DimensionError(f"write_pgm expects (1, H, W), got {mask.shape}")
    q = ((mask[0] > 0.5) * np.uint8(255)).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{mask.shape[2]} {mask.shape[1]}\n255\n".encode())
        f.write(q.tobytes())


# image file formats by extension, and the channel counts a file of each holds
FORMATS = {".ppm": (3,), ".pgm": (1,), ".png": (1, 3)}


def check_image(path: str, channels: int | None, what: str) -> str:
    """The extension of image file `path`, checked to be in FORMATS, to hold
    `channels` channels (any count when None) and, for .png, to find pillow
    installed. Errors name `what`, the flag or use of the path, and the path."""
    ext = os.path.splitext(path)[1].lower()
    if ext not in FORMATS:
        raise ContractError(f"{what} {path}: unsupported image extension {ext!r} "
                            f"({'/'.join(FORMATS)})")
    if channels is not None and channels not in FORMATS[ext]:
        raise ContractError(f"{what} {path}: a {ext} file cannot hold a {channels}-channel image")
    if ext == ".png":
        try:
            from PIL import Image  # noqa: F401
        except ImportError as e:
            raise ContractError(f"{what} {path}: PNG support needs the 'png' extra (pillow)") from e
    return ext


def read_image(path: str) -> np.ndarray:
    """An RGB image file -> (3, H, W) float64 in [0, 1]."""
    if check_image(path, 3, "read_image") == ".ppm":
        return read_ppm(path)
    from PIL import Image

    arr = np.asarray(Image.open(path).convert("RGB"))
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_image(path: str, img: np.ndarray) -> None:
    ext = check_image(path, img.shape[0], "write_image")
    if ext == ".ppm":
        write_ppm(path, img)
    elif ext == ".pgm":
        write_pgm(path, img)
    else:
        from PIL import Image

        q = _quantize(img)  # (1, H, W) is written as a grayscale "L" image
        Image.fromarray(q[0] if len(q) == 1 else q.transpose(1, 2, 0)).save(path)


# ---- irregular masks --------------------------------------------------------------


@dataclass
class MaskSpec:
    """Recipe for one irregular mask.

    bucket names a coverage range (lo, hi] from BUCKETS. Stroke geometry
    scales with the image side.
    """

    bucket: str
    seed: int

    def range(self) -> tuple:
        if self.bucket not in BUCKETS:
            raise ContractError(f"unknown bucket {self.bucket!r}; have {sorted(BUCKETS)}")
        return BUCKETS[self.bucket]


@dataclass
class MaskResult:
    mask: np.ndarray       # (1, H, W) float in {0, 1}
    ratio: float
    fallback: bool         # True when no attempt landed inside the range
    attempts: int


def _stamp_disk(canvas: np.ndarray, cy: float, cx: float, r: float) -> None:
    h, w = canvas.shape
    y0, y1 = max(0, int(cy - r)), min(h, int(cy + r) + 2)
    x0, x1 = max(0, int(cx - r)), min(w, int(cx + r) + 2)
    if y0 >= y1 or x0 >= x1:
        return
    yy, xx = np.ogrid[y0:y1, x0:x1]
    canvas[y0:y1, x0:x1] |= ((yy - cy) ** 2 + (xx - cx) ** 2) <= r * r


def _draw_stroke(canvas: np.ndarray, rng: np.random.Generator) -> None:
    """One brush stroke: a random walk of 2..4 segments with a round tip."""
    h, w = canvas.shape
    side = min(h, w)
    y, x = rng.uniform(0, h), rng.uniform(0, w)
    angle = rng.uniform(0, 2 * np.pi)
    radius = rng.uniform(max(1.0, side / 32), max(1.5, side / 16))
    for seg in range(rng.integers(2, 5)):
        angle += rng.uniform(-1.0, 1.0)
        length = rng.uniform(side / 8, side / 4)
        ny, nx = y + length * np.sin(angle), x + length * np.cos(angle)
        steps = max(2, int(length / max(radius * 0.5, 1.0)) + 1)
        for t in np.linspace(0.0, 1.0, steps):
            _stamp_disk(canvas, y + (ny - y) * t, x + (nx - x) * t, radius)
        y, x = ny, nx


def generate_irregular_mask(spec: MaskSpec, height: int, width: int) -> MaskResult:
    """Brush-stroke mask whose hole ratio falls in the requested bucket.

    Strokes accumulate until coverage reaches a target drawn inside the
    bucket; an attempt that overshoots the upper bound is discarded and
    retried with a fresh sub-seed (up to MAX_MASK_ATTEMPTS). If every attempt
    misses, the nearest miss is returned with fallback=True and a warning.
    """
    lo, hi = spec.range()
    best = None
    best_dist = np.inf
    for attempt in range(MAX_MASK_ATTEMPTS):
        rng = np.random.default_rng([spec.seed, attempt])
        target = rng.uniform(lo, hi)
        canvas = np.zeros((height, width), dtype=bool)
        for _ in range(MAX_STROKES):
            if canvas.mean() >= target:
                break
            _draw_stroke(canvas, rng)
        ratio = float(canvas.mean())
        if lo < ratio <= hi:
            return MaskResult(canvas[None].astype(np.float64), ratio, False, attempt + 1)
        dist = lo - ratio if ratio <= lo else ratio - hi
        if dist < best_dist:
            best, best_dist = canvas, dist
    ratio = float(best.mean())
    warnings.warn(
        f"mask generation missed ({lo}, {hi}] after {MAX_MASK_ATTEMPTS} attempts; "
        f"returning nearest ratio {ratio:.4f}")
    return MaskResult(best[None].astype(np.float64), ratio, True, MAX_MASK_ATTEMPTS)


# ---- synthetic corpus ----------------------------------------------------------------


@dataclass
class ImageSample:
    i_gt: np.ndarray   # (3, H, W)
    mask: np.ndarray   # (1, H, W)
    bucket: str


def synthetic_image(height: int, width: int, rng: np.random.Generator) -> np.ndarray:
    """Gradient background + a few rectangles and disks + a soft sinusoid."""
    c0, c1 = rng.uniform(0, 1, (2, 3))
    theta = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    t = (yy * np.sin(theta) + xx * np.cos(theta))
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    img = c0[:, None, None] + t[None] * (c1 - c0)[:, None, None]

    for _ in range(rng.integers(1, 4)):
        color = rng.uniform(0, 1, 3)
        y0, x0 = rng.integers(0, height), rng.integers(0, width)
        hh, ww = rng.integers(height // 8, height // 2 + 1), rng.integers(width // 8, width // 2 + 1)
        img[:, y0 : y0 + hh, x0 : x0 + ww] = color[:, None, None]
    for _ in range(rng.integers(1, 3)):
        color = rng.uniform(0, 1, 3)
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        r = rng.uniform(min(height, width) / 10, min(height, width) / 4)
        disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        img[:, disk] = color[:, None]

    freq = rng.uniform(2, 8)
    phase = rng.uniform(0, 2 * np.pi)
    ang = rng.uniform(0, 2 * np.pi)
    wave = np.sin(2 * np.pi * freq * (yy * np.sin(ang) + xx * np.cos(ang)) / max(height, width) + phase)
    img += 0.08 * wave[None] * rng.uniform(0.3, 1.0, (3, 1, 1))
    return np.clip(img, 0.0, 1.0)


BUCKET_CYCLE = ("low", "mid", "high")


def masked_samples(images, seed: int) -> list:
    """One sample per (3, H, W) image, in order; the hole mask of image i is
    drawn from (seed, i), and mask buckets cycle low/mid/high."""
    samples = []
    for i, img in enumerate(images):
        bucket = BUCKET_CYCLE[i % len(BUCKET_CYCLE)]
        spec = MaskSpec(bucket, seed * 100003 + i)
        res = generate_irregular_mask(spec, img.shape[1], img.shape[2])
        samples.append(ImageSample(img, res.mask, bucket))
    return samples


def synthetic_dataset(count: int, height: int, width: int, seed: int) -> list:
    """Deterministic list of samples of generated images."""
    return masked_samples((synthetic_image(height, width, np.random.default_rng([seed, i]))
                           for i in range(count)), seed)


def folder_dataset(directory: str, seed: int) -> list:
    """Samples of the RGB image files in a directory, in name order."""
    exts = tuple(ext for ext, held in FORMATS.items() if 3 in held)
    names = sorted(n for n in os.listdir(directory) if n.lower().endswith(exts))
    if not names:
        raise ContractError(f"no {'/'.join(exts)} images in {directory!r}")
    return masked_samples((read_image(os.path.join(directory, n)) for n in names), seed)


def mask_set(bucket: str, count: int, size: int, seed: int):
    """The masks `mxt mask-gen` writes for one bucket: (file name, MaskResult)."""
    for i in range(count):
        spec = MaskSpec(bucket, seed * 1000003 + i)
        yield f"{bucket}-{i:04d}.pgm", generate_irregular_mask(spec, size, size)


# ---- batching ----------------------------------------------------------------------------


@dataclass
class Batch:
    i_gt: np.ndarray   # (B, 3, H, W)
    mask: np.ndarray   # (B, 1, H, W)
    i_in: np.ndarray   # (B, 4, H, W)
    indices: tuple


def _epoch_perm(n: int, seed: int, epoch: int) -> np.ndarray:
    return np.random.default_rng([seed, epoch]).permutation(n)


def batch_indices(n: int, batch_size: int, seed: int, step: int) -> tuple:
    """Sample indices of global batch `step` under per-epoch shuffling.

    ceil(n / batch_size) batches per epoch; the last one may be short.
    """
    if n < 1:
        raise ContractError("empty dataset")
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    per_epoch = (n + batch_size - 1) // batch_size
    epoch, k = divmod(step, per_epoch)
    perm = _epoch_perm(n, seed, epoch)
    return tuple(int(i) for i in perm[k * batch_size : (k + 1) * batch_size])


def batch_at(samples: list, batch_size: int, seed: int, step: int, dtype=np.float32) -> Batch:
    idx = batch_indices(len(samples), batch_size, seed, step)
    gts = np.stack([samples[i].i_gt for i in idx]).astype(dtype)
    masks = np.stack([samples[i].mask for i in idx]).astype(dtype)
    ins = np.stack([prepare_input(samples[i].i_gt, samples[i].mask, dtype) for i in idx])
    return Batch(i_gt=gts, mask=masks, i_in=ins, indices=idx)
