"""The inpainting network: hybrid modules arranged in a three-level U-Net.

Input is 4 channels (masked RGB plus the mask, 1 = hole); output is RGB in
[0, 1] via a scaled tanh. Each stage stacks hybrid modules; a hybrid module
applies spatial-reduced attention, a selective-scan block, and a gated
feed-forward, each behind its own residual:

    f1 = f + SRSA(f);  f2 = f1 + Mamba(f1);  out = f2 + FFN(f2)

Encoder stages halve resolution and double channels with a stride-2 conv;
decoder stages upsample (nearest 2x + conv), fuse the encoder skip by
concat + 1x1 conv, then run their own hybrid stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .blocks import Conv2d, Gdfn, MambaBlock, Module, Srsa
from .checkpoint import SchemaError, load_checkpoint, save_checkpoint
from .tensor import ContractError, DimensionError, Tensor


@dataclass
class ModelConfig:
    base_channels: int = 16
    hm_counts: tuple = (4, 6, 6, 8, 6, 6, 4)
    state_dim: int = 8
    pooled_spatial: int = 8
    heads: int = 1
    expand: int = 2
    conv_kernel: int = 4
    gdfn_expansion: float = 2.66
    scan_chunk: int = 64
    input_channels: int = 4
    output_channels: int = 3
    enable_mamba: bool = True
    enable_srsa: bool = True
    enable_ffn: bool = True
    use_cbfn: bool = True
    use_pe: bool = True
    scale_qk: bool = False
    silu_after_conv: bool = False
    use_skip_d: bool = False

    def __post_init__(self):
        self.hm_counts = tuple(int(c) for c in self.hm_counts)
        if len(self.hm_counts) % 2 != 1:
            raise ContractError(f"hm_counts must have odd length, got {self.hm_counts}")
        if any(c < 0 for c in self.hm_counts):
            raise ContractError("hm_counts entries must be >= 0")
        for name in ("base_channels", "state_dim", "pooled_spatial", "heads", "expand",
                     "conv_kernel", "scan_chunk", "input_channels", "output_channels"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        # the feed-forward's hidden width, round(gdfn_expansion * channels),
        # must not fall below its input width
        if not self.gdfn_expansion >= 1:
            raise ContractError(f"gdfn_expansion must be >= 1, got {self.gdfn_expansion}")

    @property
    def levels(self) -> int:
        """Number of down/up steps (3 for the default 7-stage layout)."""
        return (len(self.hm_counts) - 1) // 2


class HybridModule(Module):
    """SRSA -> Mamba -> gated FFN, each sub-block behind its own residual."""

    def __init__(self, channels: int, cfg: ModelConfig, rng: np.random.Generator,
                 dtype=np.float32):
        # the enabled sub-blocks in order; the underscore keeps the list out
        # of parameter traversal, so names stay srsa.*, mamba.*, ffn.*
        self._blocks = []
        if cfg.enable_srsa:
            self.srsa = Srsa(channels, cfg, rng, dtype=dtype)
            self._blocks.append(self.srsa)
        if cfg.enable_mamba:
            self.mamba = MambaBlock(channels, cfg, rng, dtype=dtype)
            self._blocks.append(self.mamba)
        if cfg.enable_ffn:
            self.ffn = Gdfn(channels, cfg, rng, dtype=dtype)
            self._blocks.append(self.ffn)

    def forward(self, x: Tensor) -> Tensor:
        for block in self._blocks:
            x = x + block(x)
        return x


class Stage(Module):
    """A stack of hybrid modules at one resolution."""

    def __init__(self, channels: int, count: int, cfg: ModelConfig,
                 rng: np.random.Generator, dtype=np.float32):
        self.blocks = [HybridModule(channels, cfg, rng, dtype=dtype) for _ in range(count)]

    def forward(self, x: Tensor) -> Tensor:
        for b in self.blocks:
            x = b(x)
        return x


class MxT(Module):
    """The U-Net. With rng None its weights are left uninitialized, for a
    model whose every weight is loaded next (see load_model)."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None,
                 dtype=np.float32):
        self._cfg = cfg
        base = cfg.base_channels
        lv = cfg.levels
        self.embed = Conv2d(cfg.input_channels, base, 3, rng, pad=1, dtype=dtype)
        self.enc = [Stage(base * 2**i, cfg.hm_counts[i], cfg, rng, dtype=dtype) for i in range(lv)]
        self.down = [Conv2d(base * 2**i, base * 2**(i + 1), 3, rng, stride=2, pad=1, dtype=dtype)
                     for i in range(lv)]
        self.mid = Stage(base * 2**lv, cfg.hm_counts[lv], cfg, rng, dtype=dtype)
        self.up = [Conv2d(base * 2**(i + 1), base * 2**i, 3, rng, pad=1, dtype=dtype)
                   for i in reversed(range(lv))]
        self.fuse = [Conv2d(base * 2**(i + 1), base * 2**i, 1, rng, dtype=dtype)
                     for i in reversed(range(lv))]
        self.dec = [Stage(base * 2**i, cfg.hm_counts[2 * lv - i], cfg, rng, dtype=dtype)
                    for i in reversed(range(lv))]
        self.head = Conv2d(base, cfg.output_channels, 3, rng, pad=1, dtype=dtype)

    @property
    def config(self) -> ModelConfig:
        return self._cfg

    @property
    def dtype(self) -> np.dtype:
        """The width every weight (and so every activation) is stored at."""
        return self.embed.w.data.dtype

    def forward(self, x: Tensor) -> Tensor:
        cfg = self._cfg
        if x.ndim != 4 or x.shape[1] != cfg.input_channels:
            raise DimensionError(
                f"expected (B, {cfg.input_channels}, H, W), got {x.shape}")
        div = 2 ** cfg.levels
        if x.shape[2] % div or x.shape[3] % div:
            raise DimensionError(
                f"spatial dims {x.shape[2]}x{x.shape[3]} must be divisible by {div}")
        f = self.embed(x)
        skips = []
        for stage, down in zip(self.enc, self.down):
            f = stage(f)
            skips.append(f)
            f = down(f)
        f = self.mid(f)
        for up, fuse, stage, skip in zip(self.up, self.fuse, self.dec, reversed(skips)):
            f = up(T.upsample_nearest2x(f))
            f = fuse(T.concat([f, skip], axis=1))
            f = stage(f)
        y = self.head(f)
        return (T.tanh(y) + 1.0) * 0.5


def prepare_input(i_gt: np.ndarray, mask: np.ndarray, dtype=np.float32) -> np.ndarray:
    """(3,H,W) image in [0,1] + (1,H,W) mask (1 = hole) -> (4,H,W) model input:
    the masked image with the mask appended."""
    if i_gt.ndim != 3 or mask.ndim != 3 or mask.shape[0] != 1:
        raise DimensionError(f"prepare_input: got {i_gt.shape}, {mask.shape}")
    if i_gt.shape[1:] != mask.shape[1:]:
        raise DimensionError(f"image {i_gt.shape} vs mask {mask.shape}")
    masked = i_gt * (1.0 - mask)
    return np.concatenate([masked, mask], axis=0).astype(dtype)


def composite(out: np.ndarray, i_gt: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Keep known pixels from the ground truth, fill holes from the net."""
    return i_gt * (1.0 - mask) + out * mask


def _axis_positions(size: int, tile: int, stride: int) -> list:
    pos = list(range(0, size - tile + 1, stride))
    if pos[-1] != size - tile:
        pos.append(size - tile)
    return pos


def _tile_weights(tile: int, overlap: int, at_start: bool, at_end: bool, dtype) -> np.ndarray:
    """1D blending profile: flat 1 inside, a linear ramp over the overlap on
    any edge that meets another tile. Ramps never reach 0, so the accumulated
    weight is positive everywhere."""
    w = np.ones(tile, dtype=dtype)
    if overlap > 0:
        ramp = np.linspace(0.0, 1.0, overlap + 2, dtype=np.float64)[1:-1].astype(dtype)
        if not at_start:
            w[:overlap] = ramp
        if not at_end:
            w[tile - overlap:] = ramp[::-1]
    return w


def tiled_inference(model: MxT, i_in: np.ndarray, tile: int = 0, overlap: int = 16) -> np.ndarray:
    """Run the model over (4, H, W), optionally tile by tile.

    tile = 0 (or >= the whole image) runs one full pass; a negative tile or
    overlap raises ContractError, tiled or not. Otherwise square
    tiles of the given side cover the image with the given overlap; outputs
    are feather-blended with linear ramps and renormalized. overlap = 0
    degenerates to disjoint tiles copied verbatim, bit-equal to running each
    region independently.

    The tiles of one row go through the model as one batch. Every layer
    works per sample, so the output equals a pass per tile, and memory
    scales with one row of tiles rather than one tile (still far below a
    full pass over a large image).
    """
    if i_in.ndim != 3:
        raise DimensionError(f"tiled_inference expects (C, H, W), got {i_in.shape}")
    c, h, w = i_in.shape
    dt = model.dtype
    div = 2 ** model.config.levels

    def run(batch: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return model(Tensor(batch, dtype=dt)).data

    if tile < 0 or overlap < 0:
        raise ContractError(f"tile {tile} and overlap {overlap} must be >= 0")
    if tile == 0 or (tile >= h and tile >= w):
        return run(i_in[None])[0]
    if tile % div:
        raise ContractError(f"tile side {tile} must be divisible by {div}")
    if overlap >= tile:
        raise ContractError(f"overlap {overlap} must be in [0, tile)")
    if tile > h or tile > w:
        raise ContractError(f"tile {tile} exceeds image {h}x{w}")
    stride = tile - overlap
    out = np.zeros((model.config.output_channels, h, w), dtype=dt)
    acc = np.zeros((1, h, w), dtype=dt)
    ys = _axis_positions(h, tile, stride)
    xs = _axis_positions(w, tile, stride)
    for y0 in ys:
        wy = _tile_weights(tile, overlap, y0 == 0, y0 == h - tile, dt)
        row_out = run(np.stack([i_in[:, y0 : y0 + tile, x0 : x0 + tile] for x0 in xs]))
        for x0, patch_out in zip(xs, row_out):
            wx = _tile_weights(tile, overlap, x0 == 0, x0 == w - tile, dt)
            w2d = (wy[:, None] * wx[None, :])[None]
            out[:, y0 : y0 + tile, x0 : x0 + tile] += patch_out * w2d
            acc[:, y0 : y0 + tile, x0 : x0 + tile] += w2d
    return out / acc


# ---- persistence ---------------------------------------------------------------

# the one width <-> dtype table: checkpoints, training state and the CLI
WIDTHS = {"standard": np.dtype(np.float32), "wide": np.dtype(np.float64)}


def width_of(dtype) -> str:
    return next(w for w, dt in WIDTHS.items() if dt == dtype)


# the one config codec: a config dataclass (ModelConfig, TrainConfig,
# LossWeights) as flat str -> str pairs, for checkpoint metadata, config files
# and --set flags. A value is read by the type of its field's default: bools as
# true/false (or 1/0), floats by repr and finite only, tuples as comma lists of
# ints.


def encode_config(cfg, prefix: str = "") -> dict:
    """The fields of a config dataclass as prefix+name -> text, in field order."""
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            text = ",".join(str(c) for c in v)
        elif isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, float):
            text = repr(v)
        else:
            text = str(v)
        out[prefix + f.name] = text
    return out


def decode_config(cls, flat: dict, prefix: str = ""):
    """Build cls from the entries of flat under prefix (others are ignored);
    fields with no entry keep their defaults. An unknown key, a value that
    does not parse or a non-finite float is a ContractError."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, raw in flat.items():
        if not key.startswith(prefix):
            continue
        name = key[len(prefix):]
        if name not in defaults:
            raise ContractError(f"unknown {cls.__name__} key {key!r}")
        kwargs[name] = _decode_value(defaults[name], str(raw), key)
    return cls(**kwargs)


def _decode_value(default, raw: str, key: str):
    if isinstance(default, bool):
        if raw.lower() not in ("true", "false", "1", "0"):
            raise ContractError(f"bad boolean {raw!r} for {key}")
        return raw.lower() in ("true", "1")
    if isinstance(default, str):
        return raw
    try:
        if isinstance(default, tuple):
            return tuple(int(c) for c in raw.split(",") if c != "")
        if isinstance(default, int):
            return int(raw)
        value = float(raw)
    except ValueError:
        raise ContractError(f"bad value {raw!r} for {key}") from None
    if not math.isfinite(value):
        raise ContractError(f"{key} must be finite, got {raw!r}")
    return value


def _state_tensors(parts: dict, loaded: dict | None = None) -> dict:
    """Every array `parts` holds, keyed and ordered as a checkpoint stores
    them. parts maps a key prefix to a Module, whose parameters are stored as
    prefix.name, or to an optimizer, whose moments are stored as prefix.m.name
    and prefix.v.name; a None part stores nothing. With `loaded`, each array
    is swapped for loaded[key], as read, where that exists, and the returned
    dict holds the arrays swapped out."""
    loaded = loaded or {}
    out = {}
    for prefix, part in parts.items():
        if isinstance(part, Module):
            for name, p in part.named_parameters():
                key = f"{prefix}.{name}"
                out[key], p.data = p.data, loaded.get(key, p.data)
        elif part is not None:
            for name in part.params:
                for kind, store in (("m", part.m), ("v", part.v)):
                    key = f"{prefix}.{kind}.{name}"
                    out[key], store[name] = store[name], loaded.get(key, store[name])
    return out


def _load_state(path: str, parts: dict, stored: dict) -> None:
    """Fill freshly built, uninitialized parts with a checkpoint's arrays.
    `stored` must hold exactly the names the parts save, each with the shape
    and dtype of the array it replaces; otherwise SchemaError. The parts are
    filled before the check, so a caller drops them when it fails."""
    fresh = _state_tensors(parts, stored)
    missing = sorted(set(fresh) - set(stored))
    unused = sorted(set(stored) - set(fresh))
    if missing or unused:
        raise SchemaError(f"{path}: missing tensors {missing}, unused tensors {unused}")
    for name, want in fresh.items():
        got = stored[name]
        if got.shape != want.shape or got.dtype != want.dtype:
            raise SchemaError(f"{path}: {name} is {got.dtype} {got.shape}, "
                              f"expected {want.dtype} {want.shape}")


def _unloaded_model(path: str, meta: dict) -> MxT:
    """The MxT a checkpoint's metadata describes, built without drawing
    random numbers: its weights are left for _load_state to fill."""
    if meta.get("width") not in WIDTHS:
        raise SchemaError(f"{path}: missing or bad width {meta.get('width')!r}")
    return MxT(decode_config(ModelConfig, meta, "model."), None, dtype=WIDTHS[meta["width"]])


def save_model(path: str, model: MxT) -> None:
    meta = encode_config(model.config, "model.")
    meta["width"] = width_of(model.dtype)
    save_checkpoint(path, meta, _state_tensors({"model": model}))


def load_model(path: str):
    """Rebuild an MxT from a model or training checkpoint, reading only its
    model.* tensors; returns (model, meta)."""
    meta, tensors = load_checkpoint(path)
    model = _unloaded_model(path, meta)
    _load_state(path, {"model": model},
                {k: v for k, v in tensors.items() if k.startswith("model.")})
    return model, meta
