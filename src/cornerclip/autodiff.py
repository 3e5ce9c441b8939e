"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for a small transformer: broadcasting arithmetic,
batched matmul, reductions, elementwise transcendentals, gather, softmax,
GELU and layer-norm primitives, and an L2-normalize composite. Gradients
are exact; the finite-difference harness in the test suite is the contract.

A node requires a gradient iff an input does (leaves are marked by the
caller, see ``train.gradients``); other nodes are constants with no parents
and no backward closure, so ``backward`` never visits them.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

# Optional multiply-accumulate counter, enabled via count_macs(). Counts
# forward-pass matmul MACs only.
_MAC_COUNTER: list | None = None


@contextlib.contextmanager
def count_macs():
    """Context manager yielding a single-element list accumulating MACs."""
    global _MAC_COUNTER
    prev = _MAC_COUNTER
    _MAC_COUNTER = [0]
    try:
        yield _MAC_COUNTER
    finally:
        _MAC_COUNTER = prev


class Tensor:
    """A node in the computation graph wrapping an ndarray value."""

    __slots__ = ("value", "grad", "_own_grad", "_parents", "_backward", "requires_grad")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._own_grad = None   # the grad array this node allocated, if any
        self._parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def accumulate(self, g):
        # The first gradient is kept as given, uncopied: it may be shared with
        # another node (add fans one g out) or read-only (tsum's broadcast_to).
        # So only an array this node allocated itself is ever added into in place.
        if self.grad is None:
            self.grad = g
        elif self.grad is self._own_grad:
            self.grad += g
        else:
            self.grad = self._own_grad = self.grad + g

    def backward(self):
        """Backpropagate from this (typically scalar) node into every node that
        requires a gradient."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(power(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def detach(self):
        return Tensor(self.value.copy())


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(value, parents: tuple, backward) -> Tensor:
    """Output node of a primitive: it requires a gradient iff an input does."""
    if any(p.requires_grad for p in parents):
        return Tensor(value, parents, backward, requires_grad=True)
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad, in one reduction, over the axes that were broadcast to produce it."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and grad.shape[lead + i] != 1)
    return grad.sum(axis=axes).reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.value.shape))

    return _result(a.value + b.value, (a, b), _bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.value, b.value.shape))

    return _result(a.value * b.value, (a, b), _bw)


def _fast_pow(x: np.ndarray, e: float) -> np.ndarray:
    # np.power with a float exponent is slow; special-case the hot exponents
    if e == -1.0:
        return 1.0 / x
    if e == 0.5:
        return np.sqrt(x)
    if e == -0.5:
        return 1.0 / np.sqrt(x)
    if e == -2.0:
        return 1.0 / (x * x)
    return x**e


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        a.accumulate(g * exponent * _fast_pow(a.value, exponent - 1.0))

    return _result(_fast_pow(a.value, exponent), (a,), _bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    v = np.exp(a.value)

    def _bw(g):
        a.accumulate(g * v)

    return _result(v, (a,), _bw)


def log(a) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        a.accumulate(g / a.value)

    return _result(np.log(a.value), (a,), _bw)


def sqrt(a) -> Tensor:
    return power(a, 0.5)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi]."""
    a = as_tensor(a)
    inside = (a.value >= lo) & (a.value <= hi)

    def _bw(g):
        a.accumulate(g * inside)

    return _result(np.clip(a.value, lo, hi), (a,), _bw)


def matmul(a, b) -> Tensor:
    """Matrix product. With a 2-D right operand (a dense layer) the forward pass
    and both gradients are single flattened (rows, k) GEMMs."""
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.value, b.value
    if bv.ndim == 2:
        a2 = av.reshape(-1, av.shape[-1])
        v = (a2 @ bv).reshape(av.shape[:-1] + bv.shape[-1:])

        def _bw(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                a.accumulate((g2 @ bv.T).reshape(av.shape))
            if b.requires_grad:
                b.accumulate(a2.T @ g2)
    else:
        v = av @ bv

        def _bw(g):
            if a.requires_grad:
                a.accumulate(_unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
            if b.requires_grad:
                b.accumulate(_unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))

    if _MAC_COUNTER is not None:
        batch = int(np.prod(v.shape[:-2], dtype=np.int64)) if v.ndim > 2 else 1
        _MAC_COUNTER[0] += batch * v.shape[-2] * av.shape[-1] * v.shape[-1]
    return _result(v, (a, b), _bw)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.value.shape))

    return _result(a.value.sum(axis=axis, keepdims=keepdims), (a,), _bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        a.accumulate(g.reshape(a.value.shape))

    return _result(a.value.reshape(shape), (a,), _bw)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inv = np.argsort(axes)

    def _bw(g):
        a.accumulate(g.transpose(inv))

    return _result(a.value.transpose(axes), (a,), _bw)


def getitem(a, idx) -> Tensor:
    a = as_tensor(a)

    def _bw(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        a.accumulate(full)

    return _result(a.value[idx], (a,), _bw)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: gather rows of `table` by integer index array."""

    def _bw(g):
        full = np.zeros_like(table.value)
        np.add.at(full, ids, g)
        table.accumulate(full)

    return _result(table.value[ids], (table,), _bw)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate(g[tuple(sl)])

    return _result(np.concatenate([t.value for t in tensors], axis=axis), tuple(tensors), _bw)


def softmax(x) -> Tensor:
    """Numerically stable softmax primitive over the last axis (max-subtracted)."""
    x = as_tensor(x)
    m = np.max(x.value, axis=-1, keepdims=True)
    e = np.exp(x.value - m)
    p = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        x.accumulate(p * (g - dot))

    return _result(p, (x,), _bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x) -> Tensor:
    """tanh-approximation GELU primitive (smooth, finite-difference friendly):
    0.5 v (1 + tanh(c (v + 0.044715 v^3))), evaluated with in-place temporaries."""
    x = as_tensor(x)
    v = x.value
    t = 0.044715 * v
    t *= v
    t *= v
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    half_v = 0.5 * v
    y = 1.0 + t
    y *= half_v

    def _bw(g):
        # d/dv = 0.5 (1 + t) + 0.5 v (1 - t^2) c (1 + 3 * 0.044715 v^2)
        du = (3.0 * 0.044715) * v
        du *= v
        du += 1.0
        du *= _GELU_C
        d = 1.0 - t * t
        d *= half_v
        d *= du
        d += 0.5 * (1.0 + t)
        d *= g
        x.accumulate(d)

    return _result(y, (x,), _bw)


def layer_norm(x, gain, bias) -> Tensor:
    """Layer norm over the last axis as one node; its backward reuses the
    normalized input xhat and the reciprocal std rstd saved by the forward."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    inv_n = 1.0 / x.value.shape[-1]
    xhat = x.value - x.value.sum(axis=-1, keepdims=True) * inv_n
    rstd = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) * inv_n + 1e-5)
    xhat *= rstd
    y = xhat * gain.value
    y += bias.value

    def _bw(g):
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.value.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.value.shape))
        if x.requires_grad:
            dxhat = g * gain.value
            proj = (dxhat * xhat).sum(axis=-1, keepdims=True) * inv_n
            dx = dxhat - dxhat.sum(axis=-1, keepdims=True) * inv_n
            dx -= xhat * proj
            dx *= rstd
            x.accumulate(dx)

    return _result(y, (x, gain, bias), _bw)


def l2_normalize(x) -> Tensor:
    n = sqrt((x * x).sum(axis=-1, keepdims=True))
    return x / n
