"""Portable binary tensor container.

Layout (all little-endian): magic "SOKT", version byte 0x01, dtype byte
(0x00 float32, 0x01 uint32), rank byte, rank u32 dims, raw payload.
Round-trips are bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, DataError, TruncatedPayloadError, UnsupportedFormatError
from .tensor import Tensor

MAGIC = b"SOKT"
VERSION = 0x01
DTYPE_F32 = 0x00
DTYPE_U32 = 0x01


def save_tensor(path, t) -> None:
    """Write a float32 Tensor or a uint32 numpy array."""
    if isinstance(t, Tensor):
        dtype_byte = DTYPE_F32
        arr = t.data
        payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    else:
        arr = np.asarray(t)
        if arr.dtype != np.uint32:
            raise DataError(f"save_tensor accepts float32 tensors or uint32 arrays, got {arr.dtype}")
        dtype_byte = DTYPE_U32
        payload = np.ascontiguousarray(arr, dtype="<u4").tobytes()
    if arr.ndim > 255:
        raise DataError("tensor rank exceeds container limit")
    header = MAGIC + struct.pack("<BBB", VERSION, dtype_byte, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    Path(path).write_bytes(header + payload)


def load_tensor(path):
    """Read a container; returns Tensor for float32, uint32 ndarray for uint32."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 7:
        raise TruncatedPayloadError(f"{path}: header cut short")
    version, dtype_byte, rank = struct.unpack("<BBB", blob[4:7])
    if version != VERSION:
        raise UnsupportedFormatError(f"{path}: unsupported version {version}")
    if dtype_byte not in (DTYPE_F32, DTYPE_U32):
        raise UnsupportedFormatError(f"{path}: unsupported dtype byte {dtype_byte:#x}")
    dims_end = 7 + 4 * rank
    if len(blob) < dims_end:
        raise TruncatedPayloadError(f"{path}: dims cut short")
    dims = struct.unpack(f"<{rank}I", blob[7:dims_end])
    count = 1
    for d in dims:
        count *= d
    expected = dims_end + 4 * count
    if len(blob) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload has {(len(blob) - dims_end) // 4} of {count} elements")
    if len(blob) > expected:
        raise DataError(f"{path}: {len(blob) - expected} trailing bytes after payload")
    raw = blob[dims_end:expected]
    if dtype_byte == DTYPE_F32:
        return Tensor(np.frombuffer(raw, dtype="<f4").reshape(dims))
    return np.frombuffer(raw, dtype="<u4").reshape(dims).copy()


def save_weights(dir_path, weights: dict) -> None:
    """One container file per named tensor."""
    base = Path(dir_path)
    base.mkdir(parents=True, exist_ok=True)
    for name, w in weights.items():
        save_tensor(base / f"{name}.sokt", w)


def load_weights(dir_path) -> dict:
    base = Path(dir_path)
    out = {}
    for path in sorted(base.glob("*.sokt")):
        out[path.name[: -len(".sokt")]] = load_tensor(path)
    if not out:
        raise DataError(f"no weight containers under {dir_path}")
    return out
