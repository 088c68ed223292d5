"""Network building blocks: layers plus the three sub-blocks of a hybrid module.

Spatial tensors are (B, C, H, W); sequence tensors are (B, L, C) with L = H*W
in raster (row-major) order. Each layer (Conv2d, DepthwiseConv2d,
CausalConv1d, LayerNorm, ChannelLayerNorm, Linear) is one call to a fused
tensor op with a hand-written backward, so it records one tape node that
keeps only its inputs; the sub-blocks compose those layers with generic tape
ops, the feed-forward's gate is the one-node ``gelu_gate``, the attention
term is the one-node ``attention`` and every Linear applies its activation
within its own node. Each sub-block runs through ``recompute``, which keeps
only a chain's inputs and reruns it in backward: Srsa and Gdfn are one chain
from their input each (CBFN's mean-add follows), and MambaBlock keeps its
norm and scan recorded and runs inp -> conv and out(gate * body) as two
chains from the norm output. Every MambaBlock reads its
positional table from one shared cache, one constant table per (L, C, dtype).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .ssm import scan_chunked
from .tensor import DimensionError, Tensor

if TYPE_CHECKING:
    from .model import ModelConfig


class Module:
    """Minimal parameter container. Attributes that are Tensors, Modules, or
    lists of Modules are traversed in insertion order; names starting with an
    underscore are invisible to traversal (caches, config)."""

    def named_parameters(self, prefix: str = ""):
        for name, value in self.__dict__.items():
            if name.startswith("_"):
                continue
            path = f"{prefix}{name}"
            if isinstance(value, Tensor):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}{i}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def set_requires_grad(self, flag: bool):
        for p in self.parameters():
            p.requires_grad = flag

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def _uniform(rng: np.random.Generator | None, shape, k: float, dtype) -> Tensor:
    """A weight drawn from U(-k, k); left uninitialized when rng is None, for
    a model whose every weight is loaded next."""
    data = np.empty(shape, dtype) if rng is None else rng.uniform(-k, k, shape).astype(dtype)
    return Tensor(data, requires_grad=True, dtype=dtype)


class Linear(Module):
    """x @ w + b, then the activation ``act`` (None, "silu" or "softplus")
    in the same tape node."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 act: str | None = None, dtype=np.float32):
        k = 1.0 / np.sqrt(cin)
        self.w = _uniform(rng, (cin, cout), k, dtype)
        self.b = _uniform(rng, (cout,), k, dtype)
        self._act = act

    def forward(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b, act=self._act)


class LayerNorm(Module):
    """Normalize one axis (the last by default) to zero mean / unit variance,
    then scale+shift."""

    def __init__(self, dim: int, axis: int = -1, dtype=np.float32):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True, dtype=dtype)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True, dtype=dtype)
        self._axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, axis=self._axis)


class ChannelLayerNorm(Module):
    """LayerNorm over the channel axis of (B, C, H, W)."""

    def __init__(self, channels: int, dtype=np.float32):
        self.ln = LayerNorm(channels, axis=1, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.ln(x)


class Conv2d(Module):
    """k x k convolution, one fused tape op (``tensor.conv2d``).

    Weight layout (k*k*cin, cout); tap (dy, dx) occupies rows
    [(dy*k + dx)*cin, ...+cin).
    """

    def __init__(self, cin: int, cout: int, k: int, rng: np.random.Generator,
                 stride: int = 1, pad: int = 0, dtype=np.float32):
        fan_in = cin * k * k
        kk = 1.0 / np.sqrt(fan_in)
        self.w = _uniform(rng, (fan_in, cout), kk, dtype)
        self.b = _uniform(rng, (cout,), kk, dtype)
        self._k, self._stride, self._pad = k, stride, pad

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d(x, self.w, self.b, self._k, self._stride, self._pad)


# every depthwise conv of the network is 3x3 with padding 1, so keeps H and W
DW_KERNEL, DW_PAD = 3, 1


class DepthwiseConv2d(Module):
    """Per-channel 3x3 convolution (stride 1, padding 1); weight layout (9, C)."""

    def __init__(self, channels: int, rng: np.random.Generator, dtype=np.float32):
        kk = 1.0 / np.sqrt(DW_KERNEL * DW_KERNEL)
        self.w = _uniform(rng, (DW_KERNEL * DW_KERNEL, channels), kk, dtype)
        self.b = _uniform(rng, (channels,), kk, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return T.depthwise_conv2d(x, self.w, self.b, DW_KERNEL, DW_PAD)


class CausalConv1d(Module):
    """Depthwise causal convolution over (B, L, C): position t sees t-k+1..t."""

    def __init__(self, channels: int, rng: np.random.Generator, k: int, dtype=np.float32):
        kk = 1.0 / np.sqrt(k)
        self.w = _uniform(rng, (k, channels), kk, dtype)
        self.b = _uniform(rng, (channels,), kk, dtype)

    def forward(self, x: Tensor) -> Tensor:
        return T.causal_conv1d(x, self.w, self.b)


class SsmParams(Module):
    """Learned weights of one selective scan over (B, L, E) sequences.

    a_log: (E, N) log-magnitudes of the always-negative decay a = -exp(a_log)
    dt_w, dt_b: (E, E), (E,) projection and bias behind softplus -> delta
    b_w, c_w: (E, N) input projections to the per-step b_t / readout c_t
    skip_d: optional (E,) direct feedthrough added as skip_d * x

    Initial weights: a in [1, 16] pre-log, a delta bias giving softplus
    outputs in [1e-3, 1e-1], small uniform projections; with rng None they
    are left uninitialized, for a model whose every weight is loaded next.
    """

    def __init__(self, channels: int, state_dim: int, rng: np.random.Generator | None,
                 use_skip: bool, dtype=np.float32):
        e, n = channels, state_dim
        if rng is None:
            a_log, dt_b = np.empty((e, n), dtype), np.empty(e, dtype)
        else:
            a_log = np.log(rng.uniform(1.0, 16.0, (e, n)))
            target_dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), e))
            dt_b = np.log(np.expm1(target_dt))  # inverse softplus
        k = 1.0 / np.sqrt(e)
        self.a_log = Tensor(a_log, requires_grad=True, dtype=dtype)
        self.dt_w = _uniform(rng, (e, e), k, dtype)
        self.dt_b = Tensor(dt_b, requires_grad=True, dtype=dtype)
        self.b_w = _uniform(rng, (e, n), k, dtype)
        self.c_w = _uniform(rng, (e, n), k, dtype)
        self.skip_d = Tensor(np.ones(e), requires_grad=True, dtype=dtype) if use_skip else None

    def decay(self) -> Tensor:
        """a = -exp(a_log), (E, N), strictly negative."""
        return T.neg(T.exp(self.a_log))


def positional_encoding(length: int, channels: int, dtype) -> np.ndarray:
    """Sinusoidal table (length, channels): even channels sin, odd cos, both
    at rate pos / 10000^(even_index/channels). Position 0 is exactly {0, 1}."""
    pe = np.zeros((length, channels), dtype=dtype)
    pos = np.arange(length, dtype=np.float64)[:, None]
    even = np.arange(0, channels, 2, dtype=np.float64)
    rate = pos / np.power(10000.0, even / channels)
    pe[:, 0::2] = np.sin(rate)
    pe[:, 1::2] = np.cos(rate[:, : channels // 2])
    return pe


@functools.lru_cache(maxsize=32)
def _positional_table(length: int, channels: int, dtype: np.dtype) -> Tensor:
    """The constant table every MambaBlock adds at this shape and width;
    bounded, so a run fed many image sizes keeps at most 32 tables."""
    return Tensor(positional_encoding(length, channels, dtype))


# ---- the three sub-blocks -------------------------------------------------------


class Srsa(Module):
    """Spatial-reduced self-attention.

    Queries stay at full resolution; keys and values are adaptively pooled to
    a pooled_spatial^2 token grid, so attention cost is linear in H*W. A
    depthwise 3x3 on the full-resolution values re-injects local detail:

        out = LE(V) + softmax(Q K'^T [* 1/sqrt(d)]) V'
    """

    def __init__(self, channels: int, cfg: ModelConfig, rng: np.random.Generator,
                 dtype=np.float32):
        if channels % cfg.heads:
            raise DimensionError(f"channels {channels} not divisible by heads {cfg.heads}")
        self.norm = ChannelLayerNorm(channels, dtype=dtype)
        self.qkv = Conv2d(channels, 3 * channels, 1, rng, dtype=dtype)
        self.qkv_dw = DepthwiseConv2d(3 * channels, rng, dtype=dtype)
        self.local = DepthwiseConv2d(channels, rng, dtype=dtype)
        self._pooled = cfg.pooled_spatial
        self._heads = cfg.heads
        self._scale = 1.0 / np.sqrt(channels // cfg.heads) if cfg.scale_qk else None

    def _qkv(self, x: Tensor) -> Tensor:
        return self.qkv_dw(self.qkv(self.norm(x)))              # (B, 3C, H, W)

    def forward(self, x: Tensor) -> Tensor:
        return T.recompute(self._local_plus_attention, (x,), self.parameters())

    def _local_plus_attention(self, x: Tensor) -> Tensor:
        qkv = self._qkv(x)
        v = qkv[:, 2 * qkv.shape[1] // 3 :]
        return self.local(v) + T.attention(qkv, self._heads, self._pooled, self._scale)

    def attention_map(self, x: Tensor) -> Tensor:
        """The softmax weights, (B, heads, H*W, pooled^2), as a constant; for
        inspection."""
        att = T._attention_parts(self._qkv(x).data, self._heads, self._pooled, self._scale)[3]
        return Tensor(att.swapaxes(-1, -2))


class MambaBlock(Module):
    """Selective-scan block over the raster-flattened image.

    (B, C, H, W) -> (B, L, C) row-major, plus a sinusoidal position table,
    layer norm, then two branches from the same normalized sequence: the scan
    body SSM(CausalConv(SiLU(Linear))) and a SiLU(Linear) gate. Their product
    goes through the output projection and back to (B, C, H, W).
    """

    def __init__(self, channels: int, cfg: ModelConfig, rng: np.random.Generator,
                 dtype=np.float32):
        inner = cfg.expand * channels
        self.norm = LayerNorm(channels, dtype=dtype)
        self.inp = Linear(channels, inner, rng, act="silu", dtype=dtype)
        self.conv = CausalConv1d(inner, rng, cfg.conv_kernel, dtype=dtype)
        self.ssm = SsmParams(inner, cfg.state_dim, rng, cfg.use_skip_d, dtype=dtype)
        self.gate = Linear(channels, inner, rng, act="silu", dtype=dtype)
        self.out = Linear(inner, channels, rng, dtype=dtype)
        self._cfg = cfg

    def forward(self, x: Tensor) -> Tensor:
        bsz, c, h, w = x.shape
        L = h * w
        seq = T.transpose(T.reshape(x, (bsz, c, L)), (0, 2, 1))   # (B, L, C)
        if self._cfg.use_pe:
            seq = seq + _positional_table(L, c, seq.dtype)
        # the norm stays recorded: rerun inside both chains, its gamma and
        # beta would sum their two gradients in another order
        seq = self.norm(seq)
        body = T.recompute(self._conv_in, (seq,), self.inp.parameters() + self.conv.parameters())
        body = scan_chunked(body, self.ssm, self._cfg.scan_chunk)
        y = T.recompute(self._gated_out, (seq, body),
                        self.gate.parameters() + self.out.parameters())
        return T.reshape(T.transpose(y, (0, 2, 1)), (bsz, c, h, w))   # (B, C, H, W)

    def _conv_in(self, seq: Tensor) -> Tensor:
        body = self.conv(self.inp(seq))
        return T.silu(body) if self._cfg.silu_after_conv else body

    def _gated_out(self, seq: Tensor, body: Tensor) -> Tensor:
        return self.out(self.gate(seq) * body)                     # (B, L, C)


class Gdfn(Module):
    """Gated depthwise feed-forward: pointwise expand to two lanes, depthwise
    3x3, gelu-gate one lane by the other, pointwise project back.

    With ``use_cbfn`` on (the CBFN variant), the per-sample channel mean of
    the result is added back everywhere, handing every pixel the global
    context at zero parameter cost.
    """

    def __init__(self, channels: int, cfg: ModelConfig, rng: np.random.Generator,
                 dtype=np.float32):
        hidden = int(round(cfg.gdfn_expansion * channels))
        self.norm = ChannelLayerNorm(channels, dtype=dtype)
        self.expand = Conv2d(channels, 2 * hidden, 1, rng, dtype=dtype)
        self.dw = DepthwiseConv2d(2 * hidden, rng, dtype=dtype)
        self.project = Conv2d(hidden, channels, 1, rng, dtype=dtype)
        self._broadcast = cfg.use_cbfn

    def forward(self, x: Tensor) -> Tensor:
        y = T.recompute(self._gated_project, (x,), self.parameters())
        if self._broadcast:
            y = y + T.mean(y, axis=(2, 3), keepdims=True)
        return y

    def _gated_project(self, x: Tensor) -> Tensor:
        return self.project(T.gelu_gate(self.dw(self.expand(self.norm(x)))))
