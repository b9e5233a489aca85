"""Define-by-run reverse-mode differentiation over float32 tensors.

A Tape records nodes in creation order, which is already a topological
order, so the backward pass is a single reverse sweep. Sampling noise is
never differentiated: random draws enter graphs as constants and the
reparameterized transforms of them are ordinary differentiable nodes.
Custom-backward nodes host surrogate gradients (straight-through
estimators) whose backward deliberately differs from the true derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as tc
from .errors import ShapeError
from .tensor import Tensor

_f32 = np.float32


class Tape:
    """Recorded forward graph; single-owner while recording."""

    __slots__ = ("nodes", "params")

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: list[Node] = []

    def constant(self, value) -> "Node":
        t = value if isinstance(value, Tensor) else Tensor(value)
        return Node(self, t, (), None, needs_grad=False)

    def param(self, value) -> "Node":
        t = value if isinstance(value, Tensor) else Tensor(value)
        node = Node(self, t, (), None, needs_grad=True)
        self.params.append(node)
        return node

    def release(self) -> None:
        """Drop the graph once its gradients are taken: nodes refer to their
        tape, so otherwise only the cycle collector frees a step's arrays."""
        self.nodes.clear()
        self.params.clear()


class Node:
    """One value in the recorded graph."""

    __slots__ = ("tape", "idx", "tensor", "parents", "needs_grad", "_backward")

    def __init__(self, tape: Tape, tensor: Tensor, parents: tuple,
                 backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]],
                 needs_grad: Optional[bool] = None):
        self.tape = tape
        self.tensor = tensor
        self.parents = parents
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in parents)
        self.needs_grad = needs_grad
        self._backward = backward_fn
        self.idx = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def data(self) -> np.ndarray:
        return self.tensor.data

    @property
    def dims(self) -> tuple[int, ...]:
        return self.tensor.dims

    @property
    def size(self) -> int:
        return self.tensor.size

    def __add__(self, other):
        return add(self, other) if isinstance(other, Node) else lin(self, 1.0, float(other))

    def __radd__(self, other):
        return lin(self, 1.0, float(other))

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Node) else lin(self, 1.0, -float(other))

    def __rsub__(self, other):
        return lin(self, -1.0, float(other))

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Node) else lin(self, float(other), 0.0)

    def __rmul__(self, other):
        return lin(self, float(other), 0.0)

    def __neg__(self):
        return lin(self, -1.0, 0.0)


def _same_tape(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    if any(n.tape is not tape for n in nodes[1:]):
        raise ShapeError("operands belong to different tapes")
    return tape


def _scalar_of(node: Node) -> bool:
    return node.size == 1


def _reduce_to(grad: np.ndarray, node: Node) -> np.ndarray:
    """Collapse a broadcast gradient back down to a scalar operand's shape."""
    if grad.shape == node.dims:
        return grad
    return np.array([grad.sum(dtype=np.float64)], dtype=_f32).reshape(node.dims)


def add(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b)
    if a.dims != b.dims and not (_scalar_of(a) or _scalar_of(b)):
        raise ShapeError(f"add shape mismatch: {a.dims} vs {b.dims}")
    av = a.data if not (_scalar_of(a) and a.dims != b.dims) else _f32(a.data.reshape(()))
    bv = b.data if not (_scalar_of(b) and a.dims != b.dims) else _f32(b.data.reshape(()))
    out = Tensor(av + bv, copy=False)

    def back(up):
        return (_reduce_to(up, a) if a.needs_grad else None,
                _reduce_to(up, b) if b.needs_grad else None)

    return Node(tape, out, (a, b), back)


def sub(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b)
    if a.dims != b.dims and not (_scalar_of(a) or _scalar_of(b)):
        raise ShapeError(f"sub shape mismatch: {a.dims} vs {b.dims}")
    av = a.data if not (_scalar_of(a) and a.dims != b.dims) else _f32(a.data.reshape(()))
    bv = b.data if not (_scalar_of(b) and a.dims != b.dims) else _f32(b.data.reshape(()))
    out = Tensor(av - bv, copy=False)

    def back(up):
        return (_reduce_to(up, a) if a.needs_grad else None,
                _reduce_to(-up, b) if b.needs_grad else None)

    return Node(tape, out, (a, b), back)


def mul(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b)
    if a.dims != b.dims and not (_scalar_of(a) or _scalar_of(b)):
        raise ShapeError(f"mul shape mismatch: {a.dims} vs {b.dims}")
    av = a.data if not (_scalar_of(a) and a.dims != b.dims) else _f32(a.data.reshape(()))
    bv = b.data if not (_scalar_of(b) and a.dims != b.dims) else _f32(b.data.reshape(()))
    out = Tensor(av * bv, copy=False)
    a_data, b_data = a.data, b.data

    def back(up):
        ga = gb = None
        if a.needs_grad:
            ga = _reduce_to(
                up * (b_data.reshape(()) if _scalar_of(b) and a.dims != b.dims else b_data), a)
        if b.needs_grad:
            gb = _reduce_to(
                up * (a_data.reshape(()) if _scalar_of(a) and a.dims != b.dims else a_data), b)
        return (ga, gb)

    return Node(tape, out, (a, b), back)


def lin(x: Node, a: float, b: float) -> Node:
    """Elementwise affine a*x + b with float coefficients."""
    out = Tensor(x.data * _f32(a) + _f32(b), copy=False)

    def back(up):
        return (up * _f32(a),)

    return Node(x.tape, out, (x,), back)


def relu(x: Node) -> Node:
    mask = x.data > 0
    out = Tensor(np.where(mask, x.data, _f32(0)), copy=False)

    def back(up):
        return (np.where(mask, up, _f32(0)),)

    return Node(x.tape, out, (x,), back)


def sigmoid(x: Node) -> Node:
    out = tc.sigmoid(x.tensor)
    s = out.data

    def back(up):
        return (up * s * (1.0 - s),)

    return Node(x.tape, out, (x,), back)


def clip(x: Node, lo: float, hi: float) -> Node:
    """Clamp to [lo, hi]; gradient passes inside the interval, zero outside."""
    inside = (x.data >= lo) & (x.data <= hi)
    out = Tensor(np.clip(x.data, _f32(lo), _f32(hi)), copy=False)

    def back(up):
        return (np.where(inside, up, _f32(0)),)

    return Node(x.tape, out, (x,), back)


def exp(x: Node) -> Node:
    out = Tensor(np.exp(x.data), copy=False)
    e = out.data

    def back(up):
        return (up * e,)

    return Node(x.tape, out, (x,), back)


def log(x: Node) -> Node:
    out = Tensor(np.log(x.data), copy=False)
    xd = x.data

    def back(up):
        return (up / xd,)

    return Node(x.tape, out, (x,), back)


def matmul(a: Node, b: Node) -> Node:
    out = tc.matmul(a.tensor, b.tensor)
    a_data, b_data = a.data, b.data

    def back(up):
        return (up @ b_data.T, a_data.T @ up)

    return Node(_same_tape(a, b), out, (a, b), back)


def conv2d(x: Node, w: Node, padding: str = "same") -> Node:
    if len(x.dims) != 4:
        raise ShapeError(f"autodiff conv2d expects NCHW input, got {x.dims}")
    n, c, h, wd = x.dims
    k, _, kh, kw = w.dims
    if kh == 1 and kw == 1:
        out = tc.conv2d(x.tensor, w.tensor, padding)
        w_mat, x_flat = w.data.reshape(k, c), x.data.reshape(n, c, h * wd)

        def back1(up):
            dy = up.reshape(n, k, h * wd)
            gx = (w_mat.T @ dy).reshape(n, c, h, wd) if x.needs_grad else None
            gw = (dy @ x_flat.transpose(0, 2, 1)).sum(axis=0).reshape(k, c, 1, 1) \
                if w.needs_grad else None
            return (gx, gw)

        return Node(_same_tape(x, w), out, (x, w), back1)

    # the per-image patch matrices are built once and reused by both gradient paths
    xp = tc._pad_for(x.data, kh, kw, padding)
    cols, (oh, ow) = tc._im2col(xp, kh, kw)
    w_mat = w.data.reshape(k, -1)
    out = Tensor((w_mat @ cols).reshape(n, k, oh, ow), copy=False)

    def back(up):
        dy = up.reshape(n, k, oh * ow)
        # one product over all (image, pixel) rows: a per-image sum moves the last
        # bits, and the teacher's training is sensitive to them (ROADMAP Blocker)
        gw = (dy.transpose(0, 2, 1).reshape(-1, k).T @ cols.transpose(0, 2, 1).reshape(
            -1, c * kh * kw)).reshape(k, c, kh, kw) if w.needs_grad else None
        gx = None
        if x.needs_grad:
            dxp = tc._col2im_add(w_mat.T @ dy, xp.shape, kh, kw)
            ph, pw = (xp.shape[2] - h) // 2, (xp.shape[3] - wd) // 2
            gx = np.ascontiguousarray(dxp[:, :, ph:ph + h, pw:pw + wd])
        return (gx, gw)

    return Node(_same_tape(x, w), out, (x, w), back)


def avg_pool2d(x: Node) -> Node:
    out = tc.avg_pool2d(x.tensor)

    def back(up):
        return (tc.avg_pool2d_input_grad(up),)

    return Node(x.tape, out, (x,), back)


def concat0(nodes: Sequence[Node]) -> Node:
    """Concatenate along axis 0; backward splits the upstream gradient."""
    tape = _same_tape(*nodes)
    out = Tensor(np.concatenate([n.data for n in nodes], axis=0), copy=False)
    sizes = [n.dims[0] for n in nodes]

    def back(up):
        grads, start = [], 0
        for node, size in zip(nodes, sizes):
            grads.append(up[start:start + size] if node.needs_grad else None)
            start += size
        return tuple(grads)

    return Node(tape, out, tuple(nodes), back)


def slice_channels(x: Node, start: int, stop: int) -> Node:
    """x[:, start:stop] of an NCHW value; backward zero-fills the rest."""
    if not (0 <= start < stop <= x.dims[1]):
        raise ShapeError(f"channel slice [{start}:{stop}] out of range for {x.dims}")
    out = Tensor(np.ascontiguousarray(x.data[:, start:stop]), copy=False)
    dims = x.dims

    def back(up):
        g = np.zeros(dims, dtype=_f32)
        g[:, start:stop] = up
        return (g,)

    return Node(x.tape, out, (x,), back)


def bias_add(x: Node, b: Node) -> Node:
    """Add a length-K bias along axis 1 of a (N,K,...) or (N,K) value."""
    if len(b.dims) != 1 or len(x.dims) < 2 or x.dims[1] != b.dims[0]:
        raise ShapeError(f"bias_add shape mismatch: {x.dims} vs {b.dims}")
    shape = (1, b.dims[0]) + (1,) * (len(x.dims) - 2)
    out = Tensor(x.data + b.data.reshape(shape), copy=False)
    axes = (0,) + tuple(range(2, len(x.dims)))

    def back(up):
        return (up, up.sum(axis=axes, dtype=np.float64).astype(_f32))

    return Node(_same_tape(x, b), out, (x, b), back)


def reshape(x: Node, dims) -> Node:
    out = x.tensor.reshape(dims)
    orig = x.dims

    def back(up):
        return (up.reshape(orig),)

    return Node(x.tape, out, (x,), back)


def sum_all(x: Node) -> Node:
    out = Tensor(np.array([x.data.sum(dtype=np.float64)], dtype=_f32), copy=False)
    dims = x.dims

    def back(up):
        return (np.full(dims, up.reshape(())[()], dtype=_f32),)

    return Node(x.tape, out, (x,), back)


def mean_all(x: Node) -> Node:
    n = x.size
    out = Tensor(np.array([x.data.mean(dtype=np.float64)], dtype=_f32), copy=False)
    dims = x.dims

    def back(up):
        return (np.full(dims, up.reshape(())[()] / n, dtype=_f32),)

    return Node(x.tape, out, (x,), back)


def softmax_temp(v: Node, tau: float) -> Node:
    out = tc.softmax_temp(v.tensor, tau)
    w = out.data.astype(np.float64)

    def back(up):
        u = up.astype(np.float64)
        g = w * (u - float((u * w).sum())) / tau
        return (g.astype(_f32),)

    return Node(v.tape, out, (v,), back)


def pick(v: Node, i: int) -> Node:
    """Single component v[i] as a 1-element node."""
    if not 0 <= i < v.size:
        raise ShapeError(f"pick index {i} out of range for dims {v.dims}")
    out = Tensor(v.data.reshape(-1)[i:i + 1])
    dims = v.dims

    def back(up):
        g = np.zeros(v.size, dtype=_f32)
        g[i] = up.reshape(())[()]
        return (g.reshape(dims),)

    return Node(v.tape, out, (v,), back)


def cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Mean softmax cross-entropy over a batch of logits rows."""
    z = logits.data.astype(np.float64)
    n = z.shape[0]
    y = np.asarray(labels)
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = float((lse - z[np.arange(n), y]).mean())
    out = Tensor(np.array([loss], dtype=_f32), copy=False)
    p = np.exp(z - lse[:, None])

    def back(up):
        g = p.copy()
        g[np.arange(n), y] -= 1.0
        return ((g * (up.reshape(())[()] / n)).astype(_f32),)

    return Node(logits.tape, out, (logits,), back)


@dataclass
class CustomBackward:
    """A forward transform paired with a surrogate backward.

    forward_fn maps input arrays to the output array; backward_fn maps
    (upstream, *input arrays) to one gradient array (or None) per input.
    """

    forward_fn: Callable[..., np.ndarray]
    backward_fn: Callable[..., Sequence[Optional[np.ndarray]]]


def straight_through(fn: CustomBackward, *inputs: Node) -> Node:
    """Apply fn.forward_fn exactly; route upstream through fn.backward_fn."""
    tape = _same_tape(*inputs)
    datas = tuple(n.data for n in inputs)
    out = Tensor(fn.forward_fn(*datas), copy=False)

    def back(up):
        grads = fn.backward_fn(up, *datas)
        if len(grads) != len(inputs):
            raise ShapeError(
                f"custom backward returned {len(grads)} gradients for {len(inputs)} inputs")
        checked = []
        for g, node in zip(grads, inputs):
            if g is not None and np.shape(g) != node.dims:
                raise ShapeError(
                    f"custom backward gradient shape {np.shape(g)} != input shape {node.dims}")
            checked.append(g)
        return tuple(checked)

    return Node(tape, out, tuple(inputs), back)


def backward(loss: Node) -> dict[Node, Tensor]:
    """Gradients of a scalar loss for every parameter on the tape.

    Parameters with no path to the loss get zero gradients; non-parameter
    leaves get no entry.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got dims {loss.dims}")
    tape = loss.tape
    grads: list[Optional[np.ndarray]] = [None] * (loss.idx + 1)
    grads[loss.idx] = np.ones(loss.dims, dtype=_f32)
    for node in reversed(tape.nodes[: loss.idx + 1]):
        g = grads[node.idx]
        if g is None or node._backward is None or not node.needs_grad:
            continue
        for parent, pg in zip(node.parents, node._backward(g)):
            if pg is None or not parent.needs_grad:
                continue
            pg = np.asarray(pg, dtype=_f32)
            if grads[parent.idx] is None:
                grads[parent.idx] = pg
            else:
                # fan-out accumulates by addition; never mutate in place
                grads[parent.idx] = grads[parent.idx] + pg
    result: dict[Node, Tensor] = {}
    for p in tape.params:
        g = grads[p.idx] if p.idx <= loss.idx else None
        result[p] = Tensor(g) if g is not None else Tensor.zeros(p.dims)
    return result
