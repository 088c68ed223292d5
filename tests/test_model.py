"""Model assembly: structure, shapes, ablation counts, tiling, persistence."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mxt.tensor as T
from mxt.checkpoint import CorruptionError, SchemaError, load_checkpoint, save_checkpoint
from mxt.losses import LossWeights
from mxt.model import (MxT, ModelConfig, composite, decode_config, encode_config, load_model,
                       prepare_input, save_model, tiled_inference)
from mxt.train import TrainConfig
from mxt.tensor import ContractError, DimensionError, Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_cfg(**kw):
    base = dict(base_channels=4, hm_counts=(1, 1, 1, 1, 1, 1, 1), state_dim=2,
                pooled_spatial=4, scan_chunk=16)
    base.update(kw)
    return ModelConfig(**base)


def tiny_model(seed=0, dtype=np.float32, **kw):
    return MxT(tiny_cfg(**kw), rng(seed), dtype=dtype)


# ---- structure -----------------------------------------------------------------


def test_unet_has_three_downs_and_ups_by_default():
    m = tiny_model()
    assert len(m.down) == 3 and len(m.up) == 3
    assert m.config.levels == 3


def test_channel_trajectory_doubles_then_halves():
    m = MxT(ModelConfig(base_channels=16, hm_counts=(0,) * 7), rng(1))
    # embed: 4 -> 16; downs: 16->32->64->128; ups mirror back to 16
    assert m.embed.w.shape == (9 * 4, 16)
    assert [d.w.shape[1] for d in m.down] == [32, 64, 128]
    assert [u.w.shape[1] for u in m.up] == [64, 32, 16]
    assert m.head.w.shape == (9 * 16, 3)


def test_forward_shape_and_range():
    m = tiny_model()
    x = rng(2).uniform(0, 1, (2, 4, 16, 16)).astype(np.float32)
    y = m(Tensor(x, dtype=np.float32))
    assert y.shape == (2, 3, 16, 16)
    assert np.isfinite(y.data).all()
    assert (y.data >= 0).all() and (y.data <= 1).all()


def test_forward_validates_input():
    m = tiny_model()
    with pytest.raises(DimensionError):
        m(Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32)))
    with pytest.raises(DimensionError):
        m(Tensor(np.zeros((1, 4, 12, 16), dtype=np.float32)))  # 12 % 8 != 0


def test_hybrid_modules_disabled_is_identity_stages():
    cfg = tiny_cfg(enable_mamba=False, enable_srsa=False, enable_ffn=False)
    m = MxT(cfg, rng(3))
    x = rng(4).uniform(0, 1, (1, 4, 16, 16)).astype(np.float32)
    y = m(Tensor(x, dtype=np.float32))
    assert y.shape == (1, 3, 16, 16)
    # only convs remain
    names = [n for n, _ in m.named_parameters()]
    assert all(".srsa." not in n and ".mamba." not in n and ".ffn." not in n for n in names)


def test_same_seed_same_output():
    x = rng(5).uniform(0, 1, (1, 4, 16, 16)).astype(np.float32)
    ya = tiny_model(seed=7)(Tensor(x, dtype=np.float32)).data
    yb = tiny_model(seed=7)(Tensor(x, dtype=np.float32)).data
    assert np.array_equal(ya, yb)


# ---- ablation parameter counts ------------------------------------------------------


def test_ablation_counts_monotone_and_cbfn_free():
    cfg = tiny_cfg()
    def count(mamba, srsa, ffn, cbfn=True):
        variant = replace(cfg, enable_mamba=mamba, enable_srsa=srsa, enable_ffn=ffn,
                          use_cbfn=cbfn)
        return MxT(variant, rng(6)).param_count()

    none = count(mamba=False, srsa=False, ffn=False)
    mamba_only = count(mamba=True, srsa=False, ffn=False)
    srsa_only = count(mamba=False, srsa=True, ffn=False)
    full_gdfn = count(mamba=True, srsa=True, ffn=True, cbfn=False)
    full_cbfn = count(mamba=True, srsa=True, ffn=True, cbfn=True)
    assert none < mamba_only < full_gdfn
    assert none < srsa_only < full_gdfn
    # context broadcast adds zero parameters over the plain gated FFN
    assert full_cbfn == full_gdfn
    # sub-block contributions compose additively
    assert full_gdfn > mamba_only + srsa_only - none


# ---- config codec ------------------------------------------------------------------


@pytest.mark.parametrize("cfg", [
    tiny_cfg(gdfn_expansion=2.66, use_cbfn=False, hm_counts=(2, 3, 2)),
    TrainConfig(lr=3e-4, batch_size=3, seed=7, iters=10, data_dir="some dir"),
    LossWeights(adversarial=0.0, adv_mode="hinge", composite=True),
], ids=lambda cfg: type(cfg).__name__)
def test_config_flat_roundtrip(cfg):
    flat = encode_config(cfg, "p.")
    assert list(flat) == [f"p.{f.name}" for f in fields(cfg)]
    assert all(isinstance(v, str) for v in flat.values())
    # entries under other prefixes are not this config's
    assert decode_config(type(cfg), {**flat, "q.x": "1", "width": "wide"}, "p.") == cfg
    assert decode_config(type(cfg), {}, "p.") == type(cfg)()
    with pytest.raises(ContractError, match="unknown"):
        decode_config(type(cfg), {"p.nonsense": "1"}, "p.")


def _field_values(f):
    """Values a field can hold that its config accepts."""
    if f.name == "adv_mode":
        return st.sampled_from(["nonsat", "hinge"])
    if f.name == "gdfn_expansion":
        return st.floats(1, 8)
    if isinstance(f.default, bool):
        return st.booleans()
    if isinstance(f.default, tuple):  # odd length, as hm_counts needs
        return st.lists(st.integers(0, 99), max_size=3).map(lambda c: (*c, 1, *c))
    if isinstance(f.default, int):
        return st.integers(1, 10**12)
    if isinstance(f.default, float):  # (0, 1) is in range for every other float field
        return st.floats(0, 1, exclude_min=True, exclude_max=True)
    return st.text()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ModelConfig, TrainConfig, LossWeights]).flatmap(
    lambda cls: st.builds(cls, **{f.name: _field_values(f) for f in fields(cls)})))
def test_config_codec_roundtrip_any_values(cfg):
    assert decode_config(type(cfg), encode_config(cfg)) == cfg


# ---- input prep / composite -----------------------------------------------------------


def test_prepare_input_and_composite():
    g = rng(7)
    img = g.uniform(0, 1, (3, 8, 8))
    mask = (g.uniform(0, 1, (1, 8, 8)) > 0.5).astype(np.float64)
    xin = prepare_input(img, mask, dtype=np.float64)
    assert xin.shape == (4, 8, 8)
    np.testing.assert_array_equal(xin[3:], mask)
    np.testing.assert_array_equal(xin[:3][:, mask[0] == 1], 0.0)
    np.testing.assert_array_equal(xin[:3][:, mask[0] == 0], img[:, mask[0] == 0])
    out = g.uniform(0, 1, (3, 8, 8))
    comp = composite(out, img, mask)
    np.testing.assert_array_equal(comp[:, mask[0] == 0], img[:, mask[0] == 0])
    np.testing.assert_array_equal(comp[:, mask[0] == 1], out[:, mask[0] == 1])
    with pytest.raises(DimensionError):
        prepare_input(img, mask[:, :4])


# ---- tiled inference ---------------------------------------------------------------------


def test_tiled_overlap_zero_equals_independent_tiles():
    m = tiny_model(seed=8)
    x = rng(9).uniform(0, 1, (4, 16, 32)).astype(np.float32)
    tiled = tiled_inference(m, x, tile=16, overlap=0)
    left = tiled_inference(m, x[:, :, :16], tile=0)
    right = tiled_inference(m, x[:, :, 16:], tile=0)
    assert np.array_equal(tiled[:, :, :16], left)
    assert np.array_equal(tiled[:, :, 16:], right)


def test_tiled_blending_covers_and_stays_in_range():
    m = tiny_model(seed=10)
    x = rng(11).uniform(0, 1, (4, 40, 48)).astype(np.float32)
    out = tiled_inference(m, x, tile=24, overlap=8)
    assert out.shape == (3, 40, 48)
    assert np.isfinite(out).all()
    assert (out >= 0).all() and (out <= 1 + 1e-6).all()


def test_tiled_full_image_when_tile_large_or_zero():
    m = tiny_model(seed=12)
    x = rng(13).uniform(0, 1, (4, 16, 16)).astype(np.float32)
    np.testing.assert_array_equal(tiled_inference(m, x, tile=0), tiled_inference(m, x, tile=64))


def test_tiled_validates_tile_and_overlap():
    m = tiny_model()
    x = np.zeros((4, 32, 32), dtype=np.float32)
    with pytest.raises(ContractError):
        tiled_inference(m, x, tile=12)  # not divisible by 8
    with pytest.raises(ContractError):
        tiled_inference(m, x, tile=16, overlap=16)
    with pytest.raises(ContractError):
        tiled_inference(m, x, tile=16, overlap=-1)


@pytest.mark.parametrize("tile,overlap", [(-8, 0), (-64, 16), (0, -3), (64, -1)])
def test_tiled_rejects_negative_tile_or_overlap_even_untiled(tile, overlap):
    # tile 0 and tile >= the image take the whole-image pass, which must not
    # swallow a negative value
    m = tiny_model()
    x = np.zeros((4, 32, 32), dtype=np.float32)
    with pytest.raises(ContractError, match="must be >= 0"):
        tiled_inference(m, x, tile=tile, overlap=overlap)


def test_batched_forward_equals_single_sample_forwards():
    # scan_chunk 24 leaves a ragged last chunk at every level of a 16x16 input
    # (L = 256, 64, 16, 4)
    m = tiny_model(seed=20, scan_chunk=24)
    x = rng(21).uniform(0, 1, (3, 4, 16, 16)).astype(np.float32)
    with T.no_grad():
        batched = m(Tensor(x, dtype=np.float32)).data
        singles = [m(Tensor(x[i : i + 1], dtype=np.float32)).data[0] for i in range(3)]
    assert np.array_equal(batched, np.stack(singles))


def test_tiled_equals_per_tile_reference_blend():
    m = tiny_model(seed=22)
    x = rng(23).uniform(0, 1, (4, 40, 56)).astype(np.float32)
    tile, overlap = 24, 8
    ys, xs = [0, 16], [0, 16, 32]  # a 2x3 grid of tiles at stride 16
    ramp = np.linspace(0.0, 1.0, overlap + 2, dtype=np.float64)[1:-1].astype(np.float32)

    def profile(start, size):
        w = np.ones(tile, dtype=np.float32)
        if start > 0:
            w[:overlap] = ramp
        if start + tile < size:
            w[tile - overlap:] = ramp[::-1]
        return w

    out = np.zeros((3, 40, 56), dtype=np.float32)
    acc = np.zeros((1, 40, 56), dtype=np.float32)
    for y0 in ys:
        for x0 in xs:
            w2d = (profile(y0, 40)[:, None] * profile(x0, 56)[None, :])[None]
            with T.no_grad():
                patch = m(Tensor(x[None, :, y0 : y0 + tile, x0 : x0 + tile],
                                 dtype=np.float32)).data[0]
            out[:, y0 : y0 + tile, x0 : x0 + tile] += patch * w2d
            acc[:, y0 : y0 + tile, x0 : x0 + tile] += w2d
    assert np.array_equal(tiled_inference(m, x, tile=tile, overlap=overlap), out / acc)


# ---- checkpoint container -------------------------------------------------------------------


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    meta = {"step": "12", "model.base_channels": "4"}
    tensors = {
        "w1": rng(14).standard_normal((3, 4)).astype(np.float32),
        "w2": rng(15).standard_normal((5,)).astype(np.float64),
        "scalar": np.float32(3.5).reshape(()),
    }
    save_checkpoint(p1, meta, tensors)
    m2, t2 = load_checkpoint(p1)
    assert m2 == meta
    for k in tensors:
        np.testing.assert_array_equal(t2[k], tensors[k])
        assert t2[k].dtype == tensors[k].dtype
    save_checkpoint(p2, m2, t2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_detects_corruption(tmp_path):
    p = str(tmp_path / "c.ckpt")
    save_checkpoint(p, {"k": "v"}, {"w": np.ones(4, dtype=np.float32)})
    blob = bytearray(open(p, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(p, "wb").write(bytes(blob))
    with pytest.raises(CorruptionError):
        load_checkpoint(p)
    open(p, "wb").write(bytes(blob[:10]))
    with pytest.raises(CorruptionError):
        load_checkpoint(p)
    open(p, "wb").write(b"NOTMAGIC" + bytes(20))
    with pytest.raises(CorruptionError):
        load_checkpoint(p)


def test_model_save_load_roundtrip(tmp_path):
    p = str(tmp_path / "model.ckpt")
    m = tiny_model(seed=16)
    save_model(p, m)
    loaded, meta = load_model(p)
    assert meta["width"] == "standard"
    x = rng(17).uniform(0, 1, (1, 4, 16, 16)).astype(np.float32)
    ya = m(Tensor(x, dtype=np.float32)).data
    yb = loaded(Tensor(x, dtype=np.float32)).data
    assert np.array_equal(ya, yb)


def test_model_load_schema_errors(tmp_path):
    p = str(tmp_path / "model.ckpt")
    m = tiny_model(seed=18)
    save_model(p, m)
    meta, tensors = load_checkpoint(p)

    extra = dict(tensors)
    extra["model.bogus"] = np.zeros(3, dtype=np.float32)
    save_checkpoint(p, meta, extra)
    with pytest.raises(SchemaError):
        load_model(p)

    short = dict(tensors)
    short.pop("model.embed.w")
    save_checkpoint(p, meta, short)
    with pytest.raises(SchemaError):
        load_model(p)

    bent = dict(tensors)
    bent["model.embed.w"] = np.zeros((2, 2), dtype=np.float32)
    save_checkpoint(p, meta, bent)
    with pytest.raises(SchemaError):
        load_model(p)


# ---- checkpoint I/O in one pass -----------------------------------------------------


class _NoDraws(np.random.Generator):
    def uniform(self, *args, **kwargs):
        raise AssertionError("a random weight was drawn")


def test_load_model_draws_no_random_numbers(tmp_path, monkeypatch):
    p = str(tmp_path / "model.ckpt")
    m = tiny_model(seed=19, use_skip_d=True)
    save_model(p, m)
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: _NoDraws(np.random.PCG64()))
    loaded, _ = load_model(p)
    for (na, pa), (nb, pb) in zip(m.named_parameters(), loaded.named_parameters()):
        assert na == nb and pa.data.dtype == pb.data.dtype
        assert np.array_equal(pa.data, pb.data), na


def test_checkpoint_bytes_follow_the_documented_layout(tmp_path):
    import struct
    import zlib

    p = str(tmp_path / "tiny.ckpt")
    meta = {"step": "7", "model.base_channels": "4", "note": "a=b"}
    tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
               "s": np.array(-1.5, dtype=np.float64)}
    save_checkpoint(p, meta, tensors)

    text = b"model.base_channels=4\nnote=a=b\nstep=7\n"
    body = b"MXTCKPT1" + struct.pack("<I", len(text)) + text + struct.pack("<I", 2)
    body += struct.pack("<H", 1) + b"w" + struct.pack("<BB", 0, 2) + struct.pack("<2I", 2, 3)
    body += struct.pack("<6f", 0, 1, 2, 3, 4, 5)
    body += struct.pack("<H", 1) + b"s" + struct.pack("<BB", 1, 0)
    body += struct.pack("<d", -1.5)
    expected = body + struct.pack("<I", zlib.crc32(body))
    assert open(p, "rb").read() == expected

    m2, t2 = load_checkpoint(p)
    assert m2 == meta and list(t2) == ["w", "s"]
    for k in tensors:
        assert t2[k].dtype == tensors[k].dtype and t2[k].shape == tensors[k].shape
        np.testing.assert_array_equal(t2[k], tensors[k])


def test_checkpoint_oversized_payload_raises_without_allocating(tmp_path):
    import struct
    import tracemalloc
    import zlib

    p = str(tmp_path / "huge.ckpt")
    body = b"MXTCKPT1" + struct.pack("<I", 0) + struct.pack("<I", 1)
    body += struct.pack("<H", 1) + b"w" + struct.pack("<BBI", 0, 1, 2**31) + bytes(64)
    open(p, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
    tracemalloc.start()
    try:
        with pytest.raises(CorruptionError):
            load_checkpoint(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the declared payload is 8 GiB


def test_checkpoint_rejects_bytes_between_last_tensor_and_crc(tmp_path):
    import struct
    import zlib

    p = str(tmp_path / "extra.ckpt")
    save_checkpoint(p, {"k": "v"}, {"w": np.ones(4, dtype=np.float32)})
    body = open(p, "rb").read()[:-4] + b"\0\0\0\0"
    open(p, "wb").write(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CorruptionError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_io_holds_one_copy_of_the_payload(tmp_path):
    import tracemalloc

    p = str(tmp_path / "four.ckpt")
    gen = rng(20)
    tensors = {f"t{i}": gen.standard_normal((256, 1024)).astype(np.float32) for i in range(4)}
    payload = sum(a.nbytes for a in tensors.values())  # 4 MiB

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(lambda: save_checkpoint(p, {"k": "v"}, tensors)) <= 0.25 * payload
    loaded = {}
    assert traced_peak(lambda: loaded.update(load_checkpoint(p)[1])) <= 1.25 * payload
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])
