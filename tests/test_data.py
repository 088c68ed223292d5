"""Data layer: byte-exact image I/O, mask buckets, corpus and batch determinism."""

import sys

import numpy as np
import pytest

import mxt.data as D
from mxt.model import prepare_input
from mxt.tensor import ContractError


def rng(seed=0):
    return np.random.default_rng(seed)


# ---- PPM / PGM -------------------------------------------------------------------


def test_ppm_roundtrip_byte_exact(tmp_path):
    p1, p2 = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
    raw = rng(1).integers(0, 256, (3, 5, 7), dtype=np.uint8)
    D.write_ppm(p1, raw / 255.0)
    img = D.read_ppm(p1)
    np.testing.assert_array_equal(img, raw / 255.0)
    D.write_ppm(p2, img)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_quantization_rounds_half_up():
    q = D._quantize(np.array([[0.0, 0.5 / 255, 127.5 / 255, 1.0, 1.7, -0.3]]))
    np.testing.assert_array_equal(q, [[0, 1, 128, 255, 255, 0]])


def test_ppm_header_comments_ok(tmp_path):
    p = str(tmp_path / "c.ppm")
    body = bytes(range(12)) * 1
    blob = b"P6\n# a comment\n2 # widths\n2\n255\n" + body
    open(p, "wb").write(blob)
    img = D.read_ppm(p)
    assert img.shape == (3, 2, 2)
    np.testing.assert_array_equal(D._quantize(img).transpose(1, 2, 0).reshape(-1), np.frombuffer(body, np.uint8))


def test_ppm_parse_errors_carry_byte_offsets(tmp_path):
    p = str(tmp_path / "bad.ppm")
    open(p, "wb").write(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(D.ParseError, match="byte 0"):
        D.read_ppm(p)
    open(p, "wb").write(b"P6\nxx 2\n255\n")
    with pytest.raises(D.ParseError, match="byte 3"):
        D.read_ppm(p)
    open(p, "wb").write(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(D.ParseError, match="unsupported maxval"):
        D.read_ppm(p)
    open(p, "wb").write(b"P6\n4 4\n255\n" + bytes(10))  # needs 48 bytes
    with pytest.raises(D.ParseError, match="byte"):
        D.read_ppm(p)


def test_pgm_mask_roundtrip(tmp_path):
    p = str(tmp_path / "m.pgm")
    mask = (rng(2).uniform(0, 1, (1, 6, 4)) > 0.5).astype(np.float64)
    D.write_pgm(p, mask)
    np.testing.assert_array_equal(D.read_pgm(p), mask)


def test_write_ppm_validates_shape(tmp_path):
    with pytest.raises(Exception):
        D.write_ppm(str(tmp_path / "x.ppm"), np.zeros((1, 4, 4)))


def test_read_image_dispatch_unknown_extension(tmp_path):
    with pytest.raises(ContractError):
        D.read_image(str(tmp_path / "x.bmp"))


@pytest.mark.parametrize("path,channels,message", [
    ("x.bmp", 3, "unsupported image extension '.bmp'"),
    ("x.pgm", 3, "a .pgm file cannot hold a 3-channel image"),
    ("x.ppm", 1, "a .ppm file cannot hold a 1-channel image"),
    ("x.png", None, "PNG support needs the 'png' extra"),
])
def test_check_image_names_the_path_and_what_is_wrong(monkeypatch, path, channels, message):
    monkeypatch.setitem(sys.modules, "PIL", None)  # pillow is not installed
    with pytest.raises(ContractError, match=f"--out {path}: {message}"):
        D.check_image(path, channels, "--out")
    assert D.check_image("X.PGM", 1, "--out") == ".pgm"


def test_image_files_hold_only_their_channels(tmp_path):
    # read_image reads RGB only; a mask file is read with read_pgm
    p = str(tmp_path / "m.pgm")
    D.write_pgm(p, np.ones((1, 4, 4)))
    with pytest.raises(ContractError, match="m.pgm"):
        D.read_image(p)
    with pytest.raises(ContractError, match="rgb.pgm"):
        D.write_image(str(tmp_path / "rgb.pgm"), np.zeros((3, 4, 4)))
    assert not (tmp_path / "rgb.pgm").exists()


def test_png_roundtrip_when_pillow_present(tmp_path):
    pytest.importorskip("PIL")
    p = str(tmp_path / "img.png")
    raw = rng(3).integers(0, 256, (3, 4, 6), dtype=np.uint8)
    D.write_image(p, raw / 255.0)
    np.testing.assert_array_equal(D.read_image(p), raw / 255.0)


# ---- masks --------------------------------------------------------------------------


@pytest.mark.parametrize("bucket", ["low", "mid", "high"])
def test_masks_land_in_bucket(bucket):
    lo, hi = D.BUCKETS[bucket]
    for seed in range(10):
        res = D.generate_irregular_mask(D.MaskSpec(bucket=bucket, seed=seed), 64, 64)
        assert res.mask.shape == (1, 64, 64)
        assert set(np.unique(res.mask)) <= {0.0, 1.0}
        assert lo < res.ratio <= hi, (bucket, seed, res.ratio)
        assert not res.fallback
        assert res.ratio == res.mask.mean()


def test_mask_determinism():
    a = D.generate_irregular_mask(D.MaskSpec(bucket="mid", seed=42), 48, 48)
    b = D.generate_irregular_mask(D.MaskSpec(bucket="mid", seed=42), 48, 48)
    np.testing.assert_array_equal(a.mask, b.mask)
    c = D.generate_irregular_mask(D.MaskSpec(bucket="mid", seed=43), 48, 48)
    assert not np.array_equal(a.mask, c.mask)


def test_mask_rectangular_canvas():
    res = D.generate_irregular_mask(D.MaskSpec(bucket="mid", seed=7), 32, 80)
    assert res.mask.shape == (1, 32, 80)
    lo, hi = D.BUCKETS["mid"]
    assert lo < res.ratio <= hi


def test_impossible_bucket_falls_back_with_warning(monkeypatch):
    monkeypatch.setitem(D.BUCKETS, "mid", (0.9998, 0.9999))
    with pytest.warns(UserWarning, match="nearest"):
        res = D.generate_irregular_mask(D.MaskSpec(bucket="mid", seed=1), 32, 32)
    assert res.fallback
    assert res.attempts == D.MAX_MASK_ATTEMPTS


def test_unknown_bucket_rejected():
    with pytest.raises(ContractError):
        D.generate_irregular_mask(D.MaskSpec(bucket="huge", seed=0), 32, 32)


# ---- synthetic corpus ------------------------------------------------------------------


def test_synthetic_dataset_shapes_and_determinism():
    ds = D.synthetic_dataset(6, 32, 32, seed=5)
    assert len(ds) == 6
    for i, s in enumerate(ds):
        assert s.i_gt.shape == (3, 32, 32)
        assert s.mask.shape == (1, 32, 32)
        assert s.i_gt.min() >= 0 and s.i_gt.max() <= 1
        assert s.bucket == D.BUCKET_CYCLE[i % 3]
        lo, hi = D.BUCKETS[s.bucket]
        assert lo < s.mask.mean() <= hi
        x = prepare_input(s.i_gt, s.mask, dtype=np.float64)
        np.testing.assert_array_equal(x[:3], s.i_gt * (1 - s.mask))
        np.testing.assert_array_equal(x[3:], s.mask)
    ds2 = D.synthetic_dataset(6, 32, 32, seed=5)
    for a, b in zip(ds, ds2):
        np.testing.assert_array_equal(a.i_gt, b.i_gt)
        np.testing.assert_array_equal(a.mask, b.mask)
    ds3 = D.synthetic_dataset(2, 32, 32, seed=6)
    assert not np.array_equal(ds[0].i_gt, ds3[0].i_gt)


def test_synthetic_images_vary():
    ds = D.synthetic_dataset(4, 24, 24, seed=9)
    assert not np.array_equal(ds[0].i_gt, ds[1].i_gt)


# ---- batching ---------------------------------------------------------------------------


def test_batch_at_deterministic_and_keeps_partial_tail():
    ds = D.synthetic_dataset(10, 16, 16, seed=11)
    sizes = [D.batch_at(ds, 4, 3, k).i_gt.shape[0] for k in range(6)]
    assert sizes == [4, 4, 2, 4, 4, 2]
    a = [D.batch_at(ds, 4, 3, k).indices for k in range(6)]
    b = [D.batch_at(ds, 4, 3, k).indices for k in range(6)]
    assert a == b == [D.batch_indices(10, 4, 3, k) for k in range(6)]
    # one epoch covers every sample exactly once
    seen = sorted(i for batch in a[:3] for i in batch)
    assert seen == list(range(10))
    # epochs shuffle differently
    assert a[:3] != a[3:]


def test_batch_dtype_and_stacking():
    ds = D.synthetic_dataset(3, 16, 16, seed=15)
    b = D.batch_at(ds, 2, 0, 0, dtype=np.float64)
    assert b.i_gt.dtype == np.float64
    assert b.i_in.shape == (2, 4, 16, 16)
    assert b.mask.shape == (2, 1, 16, 16)


def test_empty_dataset_rejected():
    with pytest.raises(ContractError):
        D.batch_at([], 4, 0, 0)
    with pytest.raises(ContractError):
        D.batch_indices(0, 4, 0, 0)
    with pytest.raises(ContractError):
        D.batch_indices(5, 0, 0, 0)
