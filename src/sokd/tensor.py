"""Dense float32 tensors, splittable deterministic randomness, and the
primitive numeric operations the rest of the package builds on.

Tensors are immutable values backed by row-major numpy arrays. Every
operation validates that its output is finite; NaN/Inf anywhere is a
contract violation and raises NonFiniteError instead of propagating.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, ShapeError

_MASK64 = (1 << 64) - 1


class Tensor:
    """Immutable dense array of 32-bit reals with explicit dims."""

    __slots__ = ("_data",)

    def __init__(self, data, copy: bool = True):
        # copy=None: numpy 2.x "copy only when a cast or layout change requires it"
        arr = np.array(data, dtype=np.float32, copy=True if copy else None)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"non-finite values in tensor of dims {arr.shape}")
        arr.flags.writeable = False
        self._data = arr

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def dims(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    @classmethod
    def zeros(cls, dims) -> "Tensor":
        return cls(np.zeros(dims, dtype=np.float32), copy=False)

    @classmethod
    def full(cls, dims, value: float) -> "Tensor":
        return cls(np.full(dims, value, dtype=np.float32), copy=False)

    def reshape(self, dims) -> "Tensor":
        return Tensor(self._data.reshape(dims), copy=False)

    def item(self) -> float:
        if self._data.size != 1:
            raise ShapeError(f"item() on tensor of dims {self.dims}")
        return float(self._data.reshape(()))

    def tolist(self):
        return self._data.tolist()

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims})"


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class Rng:
    """Counter-based splittable random stream.

    A stream is fully determined by (master_seed, stream_id); deriving a
    child stream never touches the parent's state, so parallel and serial
    derivation orders produce identical numbers.
    """

    __slots__ = ("master_seed", "stream_id", "_gen")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = master_seed & _MASK64
        self.stream_id = stream_id & _MASK64
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, label) -> "Rng":
        if isinstance(label, str):
            h = _fnv1a64(label)
        else:
            h = _splitmix64(int(label) & _MASK64)
        return Rng(self.master_seed, _splitmix64(self.stream_id ^ h))

    def uniform(self, shape=None) -> np.ndarray:
        """Uniform on the open interval (0, 1); never returns exactly 0 or 1."""
        ints = self._gen.integers(0, 1 << 53, size=shape, dtype=np.int64)
        return (ints.astype(np.float64) + 0.5) / float(1 << 53)

    def normal(self, shape=None, dtype=np.float64) -> np.ndarray:
        """Standard normals drawn in `dtype` (float32 is its own stream, not a cast)."""
        return self._gen.standard_normal(size=shape, dtype=dtype)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int, k=None) -> np.ndarray:
        """A permutation of range(n), or k distinct indices without shuffling all n."""
        if k is None:
            return self._gen.permutation(n)
        return self._gen.choice(n, k, replace=False)


def gumbel_from_uniform(u) -> np.ndarray:
    """The Gumbel transform g = -log(-log(u)) for u in (0, 1)."""
    u = np.asarray(u, dtype=np.float64)
    return -np.log(-np.log(u))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if len(a.dims) != 2 or len(b.dims) != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.dims} and {b.dims}")
    if a.dims[1] != b.dims[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.dims} vs {b.dims}")
    return Tensor(a.data @ b.data, copy=False)


# The no-tape conv builds patch matrices for at most this many images at a
# time: at batch 256 (evaluation, the teacher-feature cache) one matrix
# takes 37.7 MB against 9.4 MB, and where the allocator put it raised peak RSS.
_PATCH_IMAGES = 64


def _conv1x1(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Channel mixing by a (K, C) matrix; x is NCHW."""
    n, c, h, w = x.shape
    return (mat @ x.reshape(n, c, h * w)).reshape(n, -1, h, w)


def _pad_for(x: np.ndarray, kh: int, kw: int, padding: str) -> np.ndarray:
    h, wd = x.shape[2:]
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ShapeError("same padding requires odd kernel sizes")
        return np.pad(x, ((0, 0), (0, 0), ((kh - 1) // 2,) * 2, ((kw - 1) // 2,) * 2))
    if padding == "valid":
        if kh > h or kw > wd:
            raise ShapeError(f"kernel {kh}x{kw} does not fit input {h}x{wd} under valid padding")
        return x
    raise ShapeError(f"unknown padding mode {padding!r}")


def _im2col(xp: np.ndarray, kh: int, kw: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Per-image patch matrices (N, C*kh*kw, H'*W') over a padded input;
    rows run over (c, i, j), so a (K, C*kh*kw) kernel matrix times them
    is already NCHW."""
    n, c, hp, wp = xp.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + oh, j:j + ow]
    return cols.reshape(n, c * kh * kw, oh * ow), (oh, ow)


def _col2im_add(dcols: np.ndarray, padded_shape: tuple, kh: int, kw: int) -> np.ndarray:
    """Scatter-accumulate (N, C*kh*kw, H'*W') column gradients back onto
    the padded input."""
    n, c, hp, wp = padded_shape
    oh, ow = hp - kh + 1, wp - kw + 1
    dxp = np.zeros((n, c, hp, wp), dtype=np.float32)
    d6 = dcols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + oh, j:j + ow] += d6[:, :, i, j]
    return dxp


def _conv2d_raw(x: np.ndarray, w: np.ndarray, padding: str) -> np.ndarray:
    n, c, h, wd = x.shape
    k, c2, kh, kw = w.shape
    if c != c2:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {c2}")
    if padding not in ("same", "valid"):
        raise ShapeError(f"unknown padding mode {padding!r}")
    if kh == 1 and kw == 1:
        return _conv1x1(x, w.reshape(k, c))
    xp = _pad_for(x, kh, kw, padding)
    oh, ow = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    w_mat = w.reshape(k, -1)
    out = np.empty((n, k, oh, ow), dtype=np.float32)
    for s in range(0, n, _PATCH_IMAGES):
        cols, _ = _im2col(xp[s:s + _PATCH_IMAGES], kh, kw)
        np.matmul(w_mat, cols, out=out[s:s + _PATCH_IMAGES].reshape(-1, k, oh * ow))
    return out


def conv2d(x: Tensor, w: Tensor, padding: str = "same") -> Tensor:
    """Stride-1 cross-correlation. x is (C,H,W) or (N,C,H,W), w is (K,C,kh,kw)."""
    if len(w.dims) != 4:
        raise ShapeError(f"conv2d kernel must be 4-d, got {w.dims}")
    if len(x.dims) == 3:
        return Tensor(_conv2d_raw(x.data[None], w.data, padding)[0], copy=False)
    if len(x.dims) == 4:
        return Tensor(_conv2d_raw(x.data, w.data, padding), copy=False)
    raise ShapeError(f"conv2d input must be 3-d or 4-d, got {x.dims}")


def _pool_raw(arr: np.ndarray) -> np.ndarray:
    """2x2 stride-2 mean over the last two (even) axes. (a+b)+(c+d) is the
    order numpy's two-axis mean adds in, so the bytes match it, except at a
    2x2 input (1x1 output), where numpy's order differs in the last bit."""
    out = arr[..., 0::2, 0::2] + arr[..., 0::2, 1::2]
    out += arr[..., 1::2, 0::2] + arr[..., 1::2, 1::2]
    out *= np.float32(0.25)
    return out


def avg_pool2d(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2 on (C,H,W) or (N,C,H,W)."""
    if len(x.dims) not in (3, 4):
        raise ShapeError(f"avg_pool2d input must be 3-d or 4-d, got {x.dims}")
    h, w = x.dims[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2d needs even spatial dims, got {h}x{w}")
    return Tensor(_pool_raw(x.data), copy=False)


def avg_pool2d_input_grad(dy: np.ndarray) -> np.ndarray:
    up = np.repeat(np.repeat(dy, 2, axis=-2), 2, axis=-1)
    return (up * np.float32(0.25)).astype(np.float32)


def softmax_temp(v: Tensor, tau: float) -> Tensor:
    """Temperature softmax exp(v_i/tau) / sum_j exp(v_j/tau), max-stabilized."""
    if tau <= 0:
        raise ShapeError(f"softmax temperature must be positive, got {tau}")
    arr = v.data.astype(np.float64)
    if arr.size == 0:
        raise ShapeError("softmax of empty vector")
    z = arr / tau
    z -= z.max()
    e = np.exp(z)
    return Tensor(e / e.sum(), copy=False)


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_BINARY_KINDS = ("add", "sub", "mul", "scale")
_UNARY_KINDS = ("relu", "sigmoid")


def elementwise(kind: str, a: Tensor, b=None) -> Tensor:
    """Pointwise operation; binary kinds need equal dims or a scalar operand."""
    if kind in _UNARY_KINDS:
        if b is not None:
            raise ShapeError(f"{kind} takes a single operand")
        if kind == "relu":
            return Tensor(np.maximum(a.data, np.float32(0)), copy=False)
        return Tensor(_sigmoid_raw(a.data), copy=False)
    if kind not in _BINARY_KINDS:
        raise ShapeError(f"unknown elementwise kind {kind!r}")
    if isinstance(b, Tensor):
        if b.dims == a.dims:
            other = b.data
        elif b.size == 1:
            other = np.float32(b.data.reshape(()))
        else:
            raise ShapeError(f"elementwise {kind} shape mismatch: {a.dims} vs {b.dims}")
    elif isinstance(b, (int, float)):
        other = np.float32(b)
    else:
        raise ShapeError(f"elementwise {kind} needs a tensor or scalar second operand")
    if kind == "add":
        out = a.data + other
    elif kind == "sub":
        out = a.data - other
    else:
        # mul and scale coincide once the operand is materialized
        out = a.data * other
    return Tensor(out, copy=False)


def add(a: Tensor, b) -> Tensor:
    return elementwise("add", a, b)


def sub(a: Tensor, b) -> Tensor:
    return elementwise("sub", a, b)


def mul(a: Tensor, b) -> Tensor:
    return elementwise("mul", a, b)


def scale(a: Tensor, s: float) -> Tensor:
    return elementwise("scale", a, s)


def relu(a: Tensor) -> Tensor:
    return elementwise("relu", a)


def sigmoid(a: Tensor) -> Tensor:
    return elementwise("sigmoid", a)
