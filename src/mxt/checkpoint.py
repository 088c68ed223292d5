"""Binary checkpoint container: metadata lines plus named float arrays.

Layout (all integers little-endian):

    8 bytes   magic "MXTCKPT1"
    u32       metadata byte length, then that many utf-8 bytes of
              "key=value" lines, one per line, sorted by key
    u32       tensor count
    per tensor:
        u16   name byte length, then the utf-8 name
        u8    dtype code (0 = float32, 1 = float64)
        u8    rank, then rank * u32 dims
        raw   C-order little-endian payload
    u32       crc32 of everything before it

Each byte is copied once on either side. A save streams the header pieces
and each array's own buffer into a temp file in the target's directory,
folding every piece into a running crc32, then renames the file into place
with os.replace, so a crash never leaves a half-written checkpoint at the
target path. A load reads the file in order: each payload goes straight
into the array that is returned (converted only on a big-endian host), and
before it is allocated its size is checked against the bytes the file has
left, so a damaged header cannot ask for more memory than the file holds.
The crc32 runs over the raw bytes as read and is compared at the end. Bad
magic, truncation, an unknown dtype code, undecodable text, trailing bytes
and a checksum mismatch all raise CorruptionError.

Saving the dict returned by a load reproduces the file byte for byte (dict
order is preserved for tensors; metadata is re-sorted, and was sorted on
disk to begin with).
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib

import numpy as np

MAGIC = b"MXTCKPT1"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


class CorruptionError(ValueError):
    """Checksum or container-structure damage."""


class SchemaError(ValueError):
    """The checkpoint disagrees with what the loader needs."""


def save_checkpoint(path: str, meta: dict, tensors: dict) -> None:
    """meta: {str: str}; tensors: {str: float32/float64 ndarray}."""
    meta_blob = "".join(f"{k}={meta[k]}\n" for k in sorted(meta)).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as f:
            crc = 0

            def put(piece) -> None:
                nonlocal crc
                f.write(piece)
                crc = zlib.crc32(piece, crc)

            put(MAGIC)
            put(struct.pack("<I", len(meta_blob)))
            put(meta_blob)
            put(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                if arr.dtype not in _CODES:
                    raise SchemaError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
                nb = name.encode("utf-8")
                put(struct.pack(f"<H{len(nb)}sBB{arr.ndim}I", len(nb), nb,
                                _CODES[arr.dtype], arr.ndim, *arr.shape))
                put(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
            f.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str):
    """Returns (meta: dict, tensors: dict) or raises CorruptionError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < len(MAGIC) + 8:
            raise CorruptionError(f"{path}: truncated ({size} bytes)")
        end = size - 4  # where the stored crc32 starts
        off = crc = 0

        def check_room(n: int) -> None:
            if n > end - off:
                raise CorruptionError(
                    f"{path}: truncated at byte {off} ({n} bytes wanted, {end - off} left)")

        def fill(buf) -> None:
            nonlocal off, crc
            if f.readinto(buf) != buf.nbytes:
                raise CorruptionError(f"{path}: short read at byte {off}")
            off += buf.nbytes
            crc = zlib.crc32(buf, crc)

        def take(n: int) -> bytes:
            check_room(n)
            buf = bytearray(n)
            fill(memoryview(buf))
            return bytes(buf)

        def text(raw: bytes, what: str) -> str:
            try:
                return raw.decode("utf-8")
            except UnicodeDecodeError:
                raise CorruptionError(f"{path}: {what} is not utf-8") from None

        magic = take(len(MAGIC))
        if magic != MAGIC:
            raise CorruptionError(f"{path}: bad magic {magic!r}")
        (meta_len,) = struct.unpack("<I", take(4))
        meta = {}
        for line in text(take(meta_len), "metadata").splitlines():
            if line:
                k, _, v = line.partition("=")
                meta[k] = v
        (count,) = struct.unpack("<I", take(4))
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(2))
            name = text(take(name_len), "a tensor name")
            code, ndim = struct.unpack("<BB", take(2))
            if code not in _DTYPES:
                raise CorruptionError(f"{path}: unknown dtype code {code} for {name!r}")
            dims = struct.unpack(f"<{ndim}I", take(4 * ndim))
            dt = _DTYPES[code]
            check_room(math.prod(dims) * dt.itemsize)
            arr = np.empty(dims, dtype=dt)
            fill(arr)
            tensors[name] = arr if dt.isnative else arr.astype(dt.newbyteorder("="))
        if off != end:
            raise CorruptionError(f"{path}: {end - off} trailing bytes")
        (crc_stored,) = struct.unpack("<I", f.read(4))
    if crc & 0xFFFFFFFF != crc_stored:
        raise CorruptionError(f"{path}: checksum mismatch")
    return meta, tensors
