"""Blocks: conv layers against naive loop oracles, block invariants, FD grads."""

import contextlib

import numpy as np
import pytest

import mxt.blocks as B
import mxt.ssm as S
import mxt.tensor as T
from mxt.gradcheck import check_module_gradients
from mxt.model import HybridModule, ModelConfig
from mxt.tensor import Tensor
from mxt.train import Adam, TrainConfig


def rng(seed=0):
    return np.random.default_rng(seed)


# ---- naive conv oracles ------------------------------------------------------


def conv2d_oracle(x, w, b, k, stride, pad):
    """Direct quadruple loop matching Conv2d's (k*k*cin, cout) weight layout."""
    bsz, cin, h, wd = x.shape
    cout = w.shape[1]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((bsz, cout, oh, ow), dtype=x.dtype)
    for bi in range(bsz):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for dy in range(k):
                        for dx in range(k):
                            for ci in range(cin):
                                acc += (
                                    xp[bi, ci, i * stride + dy, j * stride + dx]
                                    * w[(dy * k + dx) * cin + ci, co]
                                )
                    out[bi, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def depthwise_oracle(x, w, b, k, pad):
    bsz, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    out = np.zeros((bsz, c, oh, ow), dtype=x.dtype)
    for bi in range(bsz):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    acc = sum(
                        xp[bi, ci, i + dy, j + dx] * w[dy * k + dx, ci]
                        for dy in range(k)
                        for dx in range(k)
                    )
                    out[bi, ci, i, j] = acc + b[ci]
    return out


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
def test_conv2d_matches_oracle(stride, pad):
    conv = B.Conv2d(3, 5, 3, rng(1), stride=stride, pad=pad, dtype=np.float64)
    x = rng(2).standard_normal((2, 3, 6, 7))
    got = conv(Tensor(x, dtype=np.float64)).data
    ref = conv2d_oracle(x, conv.w.data, conv.b.data, 3, stride, pad)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_row_bands_equal_one_matmul_over_all_columns(monkeypatch, stride):
    # bands of 2 output rows of each sample: 9 rows at stride 1 and 5 at
    # stride 2, so the last band is ragged; pad 1 puts zeros at both edges of
    # the first and last band
    k, pad = 3, 1
    r = rng(46)
    x = r.standard_normal((2, 3, 9, 7)).astype(np.float32)
    w = r.standard_normal((k * k * 3, 5)).astype(np.float32)
    b = r.standard_normal(5).astype(np.float32)
    oh, ow = (9 + 2 * pad - k) // stride + 1, (7 + 2 * pad - k) // stride + 1
    # the reference: every column at once, then one matmul and the bias
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    col = win.transpose(0, 4, 5, 1, 2, 3).reshape(2, k * k * 3, oh * ow)
    ref = np.matmul(np.ascontiguousarray(w.T), col)
    ref += b[:, None]
    bands, im2col = [], T._im2col

    def spy(xp, k, stride, rows, ow):
        bands.append(rows)
        return im2col(xp, k, stride, rows, ow)

    monkeypatch.setattr(T, "_im2col", spy)
    monkeypatch.setattr(T, "_COLUMN_BYTES", 2 * k * k * 3 * ow * 4)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), k, stride, pad).data
    assert bands == [range(r0, min(r0 + 2, oh)) for r0 in range(0, oh, 2)] * 2
    assert np.array_equal(got, ref.reshape(2, 5, oh, ow))


@pytest.mark.parametrize("bsz", [4, 8])
def test_conv2d_output_does_not_depend_on_batch_size(bsz):
    # a 3x3 conv from 64 to 32 channels at 16^2: one sample's columns fit one
    # band, so a stacked batch must equal one call per sample
    r = rng(47)
    x = r.standard_normal((bsz, 64, 16, 16)).astype(np.float32)
    w = Tensor(r.standard_normal((9 * 64, 32)).astype(np.float32))
    b = Tensor(r.standard_normal(32).astype(np.float32))
    got = T.conv2d(Tensor(x), w, b, 3, 1, 1).data
    each = np.concatenate([T.conv2d(Tensor(x[i : i + 1]), w, b, 3, 1, 1).data
                           for i in range(bsz)])
    assert np.array_equal(got, each)


def test_conv1x1_matches_oracle():
    conv = B.Conv2d(4, 2, 1, rng(3), dtype=np.float64)
    x = rng(4).standard_normal((1, 4, 5, 5))
    got = conv(Tensor(x, dtype=np.float64)).data
    ref = conv2d_oracle(x, conv.w.data, conv.b.data, 1, 1, 0)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_depthwise_matches_oracle():
    conv = B.DepthwiseConv2d(4, rng(5), dtype=np.float64)
    x = rng(6).standard_normal((2, 4, 5, 6))
    got = conv(Tensor(x, dtype=np.float64)).data
    ref = depthwise_oracle(x, conv.w.data, conv.b.data, 3, 1)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


def test_depthwise_plane_blocks_do_not_change_values(monkeypatch):
    # the default block holds all 6 planes; a 1-byte block forces one per block
    r = rng(45)
    x, w, b = r.standard_normal((2, 3, 5, 6)), r.standard_normal((9, 3)), r.standard_normal(3)
    weights = Tensor(r.standard_normal((2, 3, 5, 6)), dtype=np.float64)

    def run():
        ts = [Tensor(a, requires_grad=True, dtype=np.float64) for a in (x, w, b)]
        with T.Tape():
            y = T.depthwise_conv2d(*ts, 3, 1)
            T.sum_(y * weights).backward()
        return [y.data] + [t.grad for t in ts]

    whole = run()
    monkeypatch.setattr(T, "_BLOCK_BYTES", 1)
    for a, c in zip(whole, run()):
        np.testing.assert_array_equal(a, c)
    np.testing.assert_allclose(whole[0], depthwise_oracle(x, w, b, 3, 1), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("bias", [True, False])
def test_depthwise_streamed_blocks_bit_equal_to_shifted_sum(monkeypatch, pad, bias):
    # blocks of 3 of the 2*5 planes, each padded into one reused scratch
    # and cropped straight into a contiguous output, equal the taps summed
    # over the whole padded input in the same order, starting from the bias
    # (bias False: an all-zero bias)
    r = rng(47)
    x = r.standard_normal((2, 5, 6, 7)).astype(np.float32)
    w = r.standard_normal((9, 5)).astype(np.float32)
    b = r.standard_normal(5).astype(np.float32) if bias else np.zeros(5, np.float32)
    oh, ow = 6 + 2 * pad - 2, 7 + 2 * pad - 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ref = np.broadcast_to(b[:, None, None], (2, 5, oh, ow)).copy()
    for t in range(9):
        ref += xp[:, :, t // 3 : t // 3 + oh, t % 3 : t % 3 + ow] * w[t][:, None, None]
    monkeypatch.setattr(T, "_BLOCK_BYTES", 3 * oh * (7 + 2 * pad) * 4)
    got = T.depthwise_conv2d(Tensor(x), Tensor(w), Tensor(b), 3, pad).data
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref)


def test_causal_conv1d_is_causal_and_correct():
    conv = B.CausalConv1d(3, rng(7), k=4, dtype=np.float64)
    x = rng(8).standard_normal((1, 10, 3))
    y0 = conv(Tensor(x, dtype=np.float64)).data
    x2 = x.copy()
    x2[0, 6] += 5.0
    y1 = conv(Tensor(x2, dtype=np.float64)).data
    np.testing.assert_array_equal(y0[:, :6], y1[:, :6])
    # position t = weighted sum of x[t-3..t]
    xp = np.concatenate([np.zeros((1, 3, 3)), x], axis=1)
    t = 5
    ref = sum(xp[0, t + j] * conv.w.data[j] for j in range(4)) + conv.b.data
    np.testing.assert_allclose(y0[0, t], ref, rtol=1e-12)


def test_layernorm_normalizes_last_axis():
    ln = B.LayerNorm(8, dtype=np.float64)
    x = rng(9).standard_normal((4, 8)) * 3 + 2
    y = ln(Tensor(x, dtype=np.float64)).data
    np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)
    np.testing.assert_allclose(y.std(axis=-1), 1, atol=1e-4)  # eps shifts slightly


def test_positional_encoding_values():
    pe = B.positional_encoding(16, 6, np.float64)
    assert pe.shape == (16, 6)
    # position 0: sines exactly 0, cosines exactly 1
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)
    # spot-check the stated rate at pos=3, channel pair (4, 5)
    rate = 3 / 10000 ** (4 / 6)
    assert pe[3, 4] == pytest.approx(np.sin(rate), abs=1e-15)
    assert pe[3, 5] == pytest.approx(np.cos(rate), abs=1e-15)
    odd = B.positional_encoding(4, 5, np.float64)
    assert odd.shape == (4, 5)
    assert np.isfinite(odd).all()


# ---- SRSA ----------------------------------------------------------------------


def test_srsa_shape_and_token_count():
    srsa = B.Srsa(8, ModelConfig(pooled_spatial=8), rng(10), dtype=np.float64)
    for side in (16, 32):
        x = Tensor(rng(11).standard_normal((1, 8, side, side)), dtype=np.float64)
        y = srsa(x)
        assert y.shape == (1, 8, side, side)
        att = srsa.attention_map(x)
        assert att.shape[-1] == 64  # pooled token count fixed by config
        np.testing.assert_allclose(att.data.sum(axis=-1), 1.0, atol=1e-6)


def test_srsa_pool_smaller_input_than_grid():
    srsa = B.Srsa(4, ModelConfig(pooled_spatial=8), rng(12), dtype=np.float64)
    x = Tensor(rng(13).standard_normal((1, 4, 4, 4)), dtype=np.float64)
    att = srsa.attention_map(x)
    assert att.shape[-1] == 64
    np.testing.assert_allclose(att.data.sum(axis=-1), 1.0, atol=1e-6)


def test_srsa_heads_split():
    srsa = B.Srsa(8, ModelConfig(pooled_spatial=2, heads=2), rng(14), dtype=np.float64)
    y = srsa(Tensor(rng(15).standard_normal((2, 8, 6, 6)), dtype=np.float64))
    assert y.shape == (2, 8, 6, 6)
    with pytest.raises(T.DimensionError):
        B.Srsa(6, ModelConfig(heads=4), rng(16))


def test_srsa_qk_scale_flag_changes_output():
    a = B.Srsa(4, ModelConfig(pooled_spatial=2, scale_qk=False), rng(17), dtype=np.float64)
    b = B.Srsa(4, ModelConfig(pooled_spatial=2, scale_qk=True), rng(17), dtype=np.float64)
    x = Tensor(rng(18).standard_normal((1, 4, 5, 5)), dtype=np.float64)
    ya, yb = a(x), b(x)
    assert np.abs(ya.data - yb.data).max() > 1e-9


def test_srsa_forward_is_local_plus_attention_map_times_pooled_values():
    # two heads: channel d of head j is j*dh + d in both v and the output
    srsa = B.Srsa(8, ModelConfig(pooled_spatial=2, heads=2), rng(21), dtype=np.float64)
    x = Tensor(rng(22).standard_normal((2, 8, 6, 6)), dtype=np.float64)
    y = srsa(x).data
    att = srsa.attention_map(x).data                       # (B, heads, HW, 4)
    v = srsa.qkv_dw(srsa.qkv(srsa.norm(x))).data[:, 16:]   # (B, C, H, W)
    local = srsa.local(Tensor(v, dtype=np.float64)).data
    vp = v.reshape(2, 2, 4, 2, 3, 2, 3).mean(axis=(4, 6)).reshape(2, 2, 4, 4)
    ctx = att @ vp.transpose(0, 1, 3, 2)                       # (B, heads, HW, dh)
    np.testing.assert_allclose(y, local + ctx.transpose(0, 1, 3, 2).reshape(2, 8, 6, 6),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("heads,scale_qk", [(1, False), (2, True)])
def test_srsa_attention_map_equals_pooled_softmax_chain(heads, scale_qk):
    # the weights as the unfused ops compute them: pool k, scale the scores
    # k_p^T q, max-shifted softmax over the pooled tokens
    srsa = B.Srsa(8, ModelConfig(pooled_spatial=2, heads=heads, scale_qk=scale_qk), rng(48))
    x = Tensor(rng(49).standard_normal((2, 8, 6, 7)).astype(np.float32))
    qkv = srsa.qkv_dw(srsa.qkv(srsa.norm(x)))
    dh = 8 // heads
    q = T.reshape(qkv[:, :8], (2, heads, dh, 42))
    kp = T.reshape(T.adaptive_avg_pool2d(qkv[:, 8:16], (2, 2)), (2, heads, dh, 4))
    s = T.matmul(T.transpose(kp, (0, 1, 3, 2)), q).data
    if scale_qk:
        s = s * np.float32(1.0 / np.sqrt(dh))
    e = np.exp(s - s.max(axis=-2, keepdims=True))
    ref = (e / e.sum(axis=-2, keepdims=True)).transpose(0, 1, 3, 2)
    att = srsa.attention_map(x)
    assert att.shape == (2, heads, 42, 4) and att.dtype == np.float32
    assert np.array_equal(att.data, ref)


def test_srsa_gradients():
    srsa = B.Srsa(2, ModelConfig(pooled_spatial=2), rng(19), dtype=np.float64)
    report = check_module_gradients(srsa, rng(20).standard_normal((1, 2, 4, 4)))
    assert report["worst"] < 1e-5, report


# ---- Mamba block ------------------------------------------------------------------


def test_mamba_block_shape_and_causality():
    mb = B.MambaBlock(3, ModelConfig(state_dim=2, use_pe=False), rng(21), dtype=np.float64)
    x = rng(22).standard_normal((1, 3, 4, 5))
    y0 = mb(Tensor(x, dtype=np.float64)).data
    assert y0.shape == (1, 3, 4, 5)
    x2 = x.copy()
    # one channel of the last raster pixel (an all-channel shift would sit
    # in the layer norm's null space and vanish)
    x2[0, 1, 3, 4] += 7.0
    y1 = mb(Tensor(x2, dtype=np.float64)).data
    flat0 = y0.reshape(1, 3, -1)
    flat1 = y1.reshape(1, 3, -1)
    np.testing.assert_array_equal(flat0[..., :-1], flat1[..., :-1])
    assert np.abs(flat0[..., -1] - flat1[..., -1]).max() > 0


def test_mamba_block_pe_toggle():
    on = B.MambaBlock(4, ModelConfig(state_dim=2, scan_chunk=8, use_pe=True), rng(23),
                      dtype=np.float64)
    off = B.MambaBlock(4, ModelConfig(state_dim=2, scan_chunk=8, use_pe=False), rng(23),
                       dtype=np.float64)
    x = Tensor(rng(24).standard_normal((1, 4, 3, 3)), dtype=np.float64)
    assert np.abs(on(x).data - off(x).data).max() > 1e-9


def test_mamba_block_scan_modes_agree(monkeypatch):
    # the block's fused scan against the sequential reference scan
    mb = B.MambaBlock(3, ModelConfig(state_dim=2, scan_chunk=4), rng(25), dtype=np.float64)
    x = Tensor(rng(26).standard_normal((2, 3, 4, 4)), dtype=np.float64)
    yc = mb(x).data
    monkeypatch.setattr(B, "scan_chunked", lambda t, p, chunk_len: S.scan_sequential(t, p))
    ys = mb(x).data
    np.testing.assert_allclose(yc, ys, rtol=1e-11, atol=1e-13)


def test_mamba_block_tape_holds_no_state_sized_output():
    # the fused scan keeps its (B, L, E, N) states inside one chunk
    bsz, c, hw, n = 1, 3, 4, 5
    mb = B.MambaBlock(c, ModelConfig(state_dim=n, expand=2, scan_chunk=4), rng(25))
    x = Tensor(rng(26).standard_normal((bsz, c, hw, hw)).astype(np.float32), requires_grad=True)
    with T.Tape() as tape:
        mb(x)
    state_size = bsz * hw * hw * (2 * c) * n
    assert len(tape) > 0
    assert all(node.out.size != state_size for node in tape.nodes)


def test_mamba_blocks_share_one_positional_table():
    # every block at one (L, C, dtype) adds the same constant table object
    x = Tensor(rng(46).standard_normal((1, 4, 3, 5)).astype(np.float32), requires_grad=True)
    with T.Tape() as tape:
        for seed in (47, 48):
            B.MambaBlock(4, ModelConfig(state_dim=2), rng(seed))(x)
        tables = [node.inputs[1] for node in tape.nodes
                  if len(node.inputs) == 2 and node.inputs[1].shape == (15, 4)
                  and not node.inputs[1].requires_grad]
    assert len(tables) == 2 and tables[0] is tables[1]
    np.testing.assert_array_equal(tables[0].data, B.positional_encoding(15, 4, np.float32))
    wide = B.MambaBlock(4, ModelConfig(state_dim=2), rng(49), dtype=np.float64)
    with T.Tape() as tape:
        wide(Tensor(x.data.astype(np.float64), requires_grad=True))
        assert any(node.inputs[1].dtype == np.float64 and node.inputs[1].shape == (15, 4)
                   for node in tape.nodes if len(node.inputs) == 2)


def test_mamba_block_gradients():
    mb = B.MambaBlock(2, ModelConfig(state_dim=2, expand=2, scan_chunk=4), rng(27),
                      dtype=np.float64)
    report = check_module_gradients(mb, rng(28).standard_normal((1, 2, 4, 4)))
    assert report["worst"] < 1e-5, report


# ---- GDFN / CBFN ---------------------------------------------------------------------


def test_gdfn_hidden_width_rule():
    # the hidden width is the project conv's input width
    g = B.Gdfn(16, ModelConfig(use_cbfn=False), rng(29), dtype=np.float64)
    assert g.project.w.shape[0] == round(2.66 * 16)
    assert g.expand.w.shape[1] == 2 * round(2.66 * 16)
    tiny = B.Gdfn(2, ModelConfig(use_cbfn=False), rng(30), dtype=np.float64)
    assert tiny.project.w.shape[0] >= 2


def test_gdfn_shape():
    g = B.Gdfn(4, ModelConfig(use_cbfn=False), rng(31), dtype=np.float64)
    y = g(Tensor(rng(32).standard_normal((2, 4, 6, 6)), dtype=np.float64))
    assert y.shape == (2, 4, 6, 6)


def test_cbfn_minus_gdfn_is_spatially_constant():
    plain = B.Gdfn(4, ModelConfig(use_cbfn=False), rng(33), dtype=np.float64)
    # same seed, same weights; the default config builds the CBFN
    cb = B.Gdfn(4, ModelConfig(), rng(33), dtype=np.float64)
    x = Tensor(rng(34).standard_normal((2, 4, 8, 8)), dtype=np.float64)
    diff = cb(x).data - plain(x).data
    spread = diff.max(axis=(2, 3)) - diff.min(axis=(2, 3))
    assert spread.max() < 1e-6
    # and the constant equals the spatial mean of the plain output
    np.testing.assert_allclose(diff[:, :, 0, 0], plain(x).data.mean(axis=(2, 3)), atol=1e-10)


def test_gdfn_and_cbfn_gradients():
    for flag in (False, True):
        g = B.Gdfn(2, ModelConfig(use_cbfn=flag), rng(35), dtype=np.float64)
        report = check_module_gradients(g, rng(36).standard_normal((1, 2, 4, 4)))
        assert report["worst"] < 1e-5, (flag, report)


def test_layernorm_gradients():
    ln = B.LayerNorm(3, dtype=np.float64)
    report = check_module_gradients(ln, rng(37).standard_normal((2, 5, 3)))
    assert report["worst"] < 1e-5, report


# ---- tape budget ------------------------------------------------------------------------


def _recorded_nodes(module, shape) -> int:
    x = Tensor(rng(41).standard_normal(shape).astype(np.float32), requires_grad=True)
    with T.Tape() as tape:
        module(x)
    return len(tape)


@pytest.mark.parametrize("make,shape", [
    (lambda r: B.Conv2d(3, 4, 3, r, stride=2, pad=1), (2, 3, 6, 6)),
    (lambda r: B.Conv2d(3, 4, 1, r), (2, 3, 6, 6)),
    (lambda r: B.DepthwiseConv2d(3, r), (2, 3, 6, 6)),
    (lambda r: B.CausalConv1d(3, r, 4), (2, 9, 3)),
    (lambda r: B.LayerNorm(3), (2, 9, 3)),
    (lambda r: B.ChannelLayerNorm(3), (2, 3, 6, 6)),
])
def test_each_layer_records_one_node(make, shape):
    assert _recorded_nodes(make(rng(42)), shape) == 1


def test_sub_block_tape_budget():
    # the whole norm -> expand -> dw -> gelu gate -> project chain is one
    # recompute node; context broadcast adds a mean and an add
    assert _recorded_nodes(B.Gdfn(8, ModelConfig(use_cbfn=False), rng(43)), (1, 8, 8, 8)) == 1
    assert _recorded_nodes(B.Gdfn(8, ModelConfig(use_cbfn=True), rng(43)), (1, 8, 8, 8)) == 3
    # Srsa is one recompute node over norm, qkv, qkv_dw, the v slice, local,
    # attention and the sum, with or without the scale
    assert _recorded_nodes(B.Srsa(8, ModelConfig(), rng(44)), (1, 8, 8, 8)) == 1
    assert _recorded_nodes(B.Srsa(8, ModelConfig(scale_qk=True), rng(44)), (1, 8, 8, 8)) == 1
    # the norm and the scan are recorded, and the scan's dt projection is one
    # linear node, its softplus included; inp -> conv (-> silu) is one
    # recompute node, and so are gate, product and output projection
    assert _recorded_nodes(B.MambaBlock(8, ModelConfig(), rng(44)), (1, 8, 4, 4)) == 14
    assert _recorded_nodes(B.MambaBlock(8, ModelConfig(silu_after_conv=True), rng(44)),
                           (1, 8, 4, 4)) == 14


def _root(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def test_hybrid_module_saves_at_most_20_times_its_input():
    # each sub-block keeps only the input of its recompute chains: the
    # distinct buffers behind the live nodes' saved arrays (a view counts as
    # the array it views, once) stay under 20x the input's bytes
    hm = HybridModule(16, ModelConfig(), rng(45))
    x = Tensor(rng(46).standard_normal((2, 16, 32, 32)).astype(np.float32), requires_grad=True)
    with T.Tape() as tape:
        hm(x)
        held = {id(r): r.nbytes for node in tape.nodes for r in map(_root, node.saved)}
    assert sum(held.values()) <= 20 * x.data.nbytes


# ---- recomputed chains ------------------------------------------------------------------


_SUB_BLOCKS = {
    "srsa": (lambda d: B.Srsa(8, ModelConfig(), rng(80), dtype=d), (2, 8, 8, 8)),
    "mamba": (lambda d: B.MambaBlock(8, ModelConfig(), rng(81), dtype=d), (2, 8, 4, 4)),
    "mamba-silu-skip": (lambda d: B.MambaBlock(
        8, ModelConfig(silu_after_conv=True, use_skip_d=True), rng(81), dtype=d), (2, 8, 4, 4)),
    "gdfn": (lambda d: B.Gdfn(8, ModelConfig(), rng(82), dtype=d), (2, 8, 8, 8)),
}


def _sub_block_grads(name, dtype, step=None, quiet=False):
    """Output, input gradient and parameter gradients of a fresh sub-block;
    ``step`` runs between forward and backward, and ``quiet`` runs backward
    under ``no_grad``."""
    make, shape = _SUB_BLOCKS[name]
    blk = make(dtype)
    x = Tensor(rng(83).standard_normal(shape).astype(dtype), requires_grad=True)
    w = rng(84).standard_normal(shape).astype(dtype)
    with T.Tape():
        y = blk(x)
        loss = T.sum_(y * Tensor(w))
        if step is not None:
            step(blk)
        with T.no_grad() if quiet else contextlib.nullcontext():
            loss.backward()
    return [y.data, x.grad] + [p.grad for p in blk.parameters()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(_SUB_BLOCKS))
def test_recomputed_sub_block_equals_the_recorded_chain(name, dtype, monkeypatch):
    got = _sub_block_grads(name, dtype)
    monkeypatch.setattr(T, "recompute", lambda fn, inputs, params: fn(*inputs))
    want = _sub_block_grads(name, dtype)
    assert len(got) == len(want)
    for i, (a, e) in enumerate(zip(got, want)):
        assert a is not None and np.array_equal(a, e), i


@pytest.mark.parametrize("name", sorted(_SUB_BLOCKS))
def test_optimizer_step_between_forward_and_backward_keeps_forward_time_grads(name):
    def adam_step(blk):
        # a real Adam update rebinds every parameter's data
        for p in blk.parameters():
            p.grad = np.ones_like(p.data)
        Adam(blk, TrainConfig(lr=0.1)).step()
        for p in blk.parameters():
            p.grad = None

    want = _sub_block_grads(name, np.float32)
    got = _sub_block_grads(name, np.float32, step=adam_step)
    for i, (a, e) in enumerate(zip(got, want)):
        assert np.array_equal(a, e), i


@pytest.mark.parametrize("name", sorted(_SUB_BLOCKS))
def test_backward_under_no_grad_keeps_the_recomputed_gradients(name):
    # the innermost open Tape() or no_grad() decides recording, so the rerun
    # of each recompute node records on its own Tape under an outer no_grad
    want = _sub_block_grads(name, np.float32)
    got = _sub_block_grads(name, np.float32, quiet=True)
    for i, (a, e) in enumerate(zip(got, want)):
        assert a is not None and np.array_equal(a, e), i


# ---- one description: the sub-blocks read ModelConfig --------------------------------


@pytest.mark.parametrize("cfg", [
    ModelConfig(),
    ModelConfig(use_cbfn=False, scale_qk=True, use_skip_d=True),
], ids=["defaults", "gdfn-scaled-skip"])
def test_sub_blocks_built_alone_equal_the_hybrid_modules(cfg):
    # the same draws in the same order give the same weights, and the same
    # flags the same forward
    hm = HybridModule(8, cfg, rng(50), dtype=np.float64)
    r = rng(50)
    alone = {"srsa": B.Srsa(8, cfg, r, dtype=np.float64),
             "mamba": B.MambaBlock(8, cfg, r, dtype=np.float64),
             "ffn": B.Gdfn(8, cfg, r, dtype=np.float64)}
    expect = [(f"{k}.{n}", p) for k, blk in alone.items() for n, p in blk.named_parameters()]
    got = list(hm.named_parameters())
    assert [n for n, _ in got] == [n for n, _ in expect]
    for (name, a), (_, b) in zip(got, expect):
        assert np.array_equal(a.data, b.data), name
    x = Tensor(rng(51).standard_normal((1, 8, 4, 4)), dtype=np.float64)
    y = x
    for blk in alone.values():
        y = y + blk(y)
    assert np.array_equal(hm(x).data, y.data)


# ---- module traversal ------------------------------------------------------------------


def test_named_parameters_deterministic_and_skips_private():
    mb = B.MambaBlock(3, ModelConfig(state_dim=2), rng(38), dtype=np.float64)
    names = [n for n, _ in mb.named_parameters()]
    assert names == [n for n, _ in mb.named_parameters()]
    assert all(not n.startswith("_") for n in names)
    assert "norm.gamma" in names
    assert "ssm.a_log" in names  # scan weights must be reachable for training
    assert "inp.w" in names


def test_param_count_counts_everything():
    lin = B.Linear(3, 4, rng(39), dtype=np.float64)
    assert lin.param_count() == 3 * 4 + 4
