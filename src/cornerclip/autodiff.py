"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for a small transformer: broadcasting arithmetic,
reductions, elementwise transcendentals, gather, softmax, GELU and
layer-norm primitives, and a dense layer (``matmul`` is one without a bias),
the pre-norm transformer MLP and multi-head self-attention, an L2
normalization and the bidirectional InfoNCE of image features against K text
feature sets each fused into one node. Gradients are exact; the
finite-difference harness in the test suite is the contract.

A node requires a gradient iff an input does (leaves are marked by the
caller, see ``train.gradients``); other nodes are constants with no parents
and no backward closure, so ``backward`` never visits them. ``mlp`` also
saves nothing then.

A forward may `release` a node's value as soon as nothing reads more than
its shape; the node keeps the shape.

A graph is backpropagated once. ``backward`` releases each node's gradient,
closure and parents as soon as the node's backward has run, so only leaves
keep gradients, and a second ``backward`` through the same graph raises.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

# Optional multiply-accumulate counter, enabled via count_macs(). Counts the
# forward-pass MACs of matmul, linear, mlp, self_attention and contrastive only.
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


def _count_macs(n: int) -> None:
    if _MAC_COUNTER is not None:
        _MAC_COUNTER[0] += n


class Tensor:
    """A node in the computation graph wrapping an ndarray value."""

    __slots__ = ("value", "grad", "_parents", "_backward", "requires_grad", "_shape")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad

    @property
    def shape(self):
        """The value's shape, kept after `release` drops the value."""
        return self._shape if self.value is None else self.value.shape

    def accumulate(self, g):
        # The first gradient is kept as given, uncopied: it may be shared with
        # another node (add fans one g out) or read-only (tsum's broadcast_to).
        # So it is never written, and each later one is summed out of place.
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Backpropagate from this (typically scalar) node into every node that
        requires a gradient, consuming the graph on the way.

        Once a node's backward has run, the node drops its gradient, its
        closure (and with it what the closure saved) and its parents, so each
        intermediate is freed as soon as nothing downstream needs it. Leaves
        keep their gradients; non-leaf nodes keep only their values (or, once
        released, their shapes). A graph is backpropagated once: going
        through a consumed node again raises RuntimeError."""
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
        while topo:
            node = topo.pop()
            if node._backward is None:      # a leaf keeps its gradient
                continue
            g, node.grad = node.grad, None
            if g is not None:
                node._backward(g)
            node._backward, node._parents = _consumed, ()

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def _consumed(g):
    """The backward of a node whose graph was already backpropagated."""
    raise RuntimeError("backward through a graph that was already backpropagated: "
                       "build the graph again")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(value, parents: tuple, backward) -> Tensor:
    """Output node of a primitive: it requires a gradient iff an input does."""
    if any(p.requires_grad for p in parents):
        return Tensor(value, parents, backward, requires_grad=True)
    return Tensor(value)


def release(*tensors: Tensor) -> None:
    """Drop the value of each graph node among `tensors`, keeping its shape, so
    that its array is freed once nothing else holds it: memory sharing by
    liveness with no recomputation (Chen et al., arXiv 1604.06174, section 3).

    Call it once the value's last forward reader has run, and only if no
    backward reads the value as data: mul, power, log, gelu and
    contrastive's image features do; the other primitives read an input's
    shape or arrays they saved. A released value is None, so a stray read
    raises. Leaves, constants and released nodes are left as they are."""
    for t in tensors:
        if t._backward is not None and t.value is not None:
            t._shape, t.value = t.value.shape, None


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad, in one reduction, over the axes that were broadcast to produce it."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and grad.shape[lead + i] != 1)
    return grad.sum(axis=axes).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.shape))

    return _result(a.value + b.value, (a, b), _bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def _bw(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.value, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.value, b.shape))

    return _result(a.value * b.value, (a, b), _bw)


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)

    def _bw(g):
        a.accumulate(g * exponent * a.value ** (exponent - 1.0))

    return _result(a.value ** exponent, (a,), _bw)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    v = np.exp(a.value)

    def _bw(g):
        a.accumulate(g * v)

    return _result(v, (a,), _bw)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def _bw(g):
        a.accumulate(g / a.value)

    return _result(np.log(a.value), (a,), _bw)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp with zero gradient outside [lo, hi]."""
    a = _as_tensor(a)
    inside = (a.value >= lo) & (a.value <= hi)

    def _bw(g):
        a.accumulate(g * inside)

    return _result(np.clip(a.value, lo, hi), (a,), _bw)


def _gemm(x2: np.ndarray, w: Tensor, b: Tensor | None = None) -> np.ndarray:
    """x2 @ w (+ b) for a 2-D x2 and w as one GEMM, the bias added in place."""
    y2 = x2 @ w.value
    if b is not None:
        y2 += b.value
    _count_macs(y2.size * x2.shape[1])
    return y2


def _gemm_backward(g2: np.ndarray, x2: np.ndarray, w: Tensor, b: Tensor | None = None, *,
                   dx: bool) -> np.ndarray | None:
    """From the gradient g2 of y2 = x2 @ w (+ b), accumulate those of w, one GEMM,
    and of b, one column sum; return that of x2, g2 @ w.T, when dx."""
    if w.requires_grad:
        w.accumulate(x2.T @ g2)
    if b is not None and b.requires_grad:
        b.accumulate(g2.sum(axis=0))
    return g2 @ w.value.T if dx else None


def linear(x, w, b=None) -> Tensor:
    """Dense layer x @ w (+ b) over the last axis of x for a 2-D w as one node
    over one flattened (rows, k) GEMM, see _gemm."""
    x, w = _as_tensor(x), _as_tensor(w)
    parents = (x, w) if b is None else (x, w, _as_tensor(b))
    x2 = x.value.reshape(-1, x.value.shape[-1])
    y2 = _gemm(x2, *parents[1:])

    def _bw(g):
        dx = _gemm_backward(g.reshape(-1, g.shape[-1]), x2, *parents[1:], dx=x.requires_grad)
        if dx is not None:
            x.accumulate(dx.reshape(x.shape))

    return _result(y2.reshape(x.value.shape[:-1] + w.value.shape[-1:]), parents, _bw)


def matmul(a, b) -> Tensor:
    """a @ b for a 2-D b: linear without a bias."""
    return linear(a, b)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.shape))

    return _result(a.value.sum(axis=axis, keepdims=keepdims), (a,), _bw)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)

    def _bw(g):
        a.accumulate(g.reshape(a.shape))

    return _result(a.value.reshape(shape), (a,), _bw)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    inv = np.argsort(axes)

    def _bw(g):
        a.accumulate(g.transpose(inv))

    return _result(a.value.transpose(axes), (a,), _bw)


def _is_basic(idx) -> bool:
    """True for an index of slices, ints, None and Ellipsis only: it selects
    each element at most once, so its gradient needs no summing scatter."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(i is None or i is Ellipsis or isinstance(i, slice)
               or (isinstance(i, (int, np.integer)) and not isinstance(i, bool))
               for i in items)


def _scatter_sum(shape, idx, g: np.ndarray) -> np.ndarray:
    """np.add.at(np.zeros(shape), idx, g) for an index that may select an
    element more than once, as one np.bincount over the flat positions idx
    selects: it adds in np.add.at's order, so the bytes are the same."""
    size = math.prod(shape)
    flat = np.arange(size).reshape(shape)[idx]
    return np.bincount(flat.reshape(-1), weights=g.reshape(-1), minlength=size).reshape(shape)


def getitem(a, idx) -> Tensor:
    a = _as_tensor(a)
    basic = _is_basic(idx)

    def _bw(g):
        if basic:
            full = np.zeros(a.shape)
            full[idx] = g
        else:
            full = _scatter_sum(a.shape, idx, g)
        a.accumulate(full)

    return _result(a.value[idx], (a,), _bw)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: gather rows of `table` by integer index array; the
    backward sums the gradients of repeated ids with _scatter_sum."""

    def _bw(g):
        table.accumulate(_scatter_sum(table.shape, ids, g))

    return _result(table.value[ids], (table,), _bw)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t.accumulate(g[tuple(sl)])

    return _result(np.concatenate([t.value for t in tensors], axis=axis), tuple(tensors), _bw)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax over the last axis, computed in place in z."""
    z -= np.max(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def softmax(x) -> Tensor:
    """Numerically stable softmax primitive over the last axis (max-subtracted)."""
    x = _as_tensor(x)
    p = _softmax(x.value.copy())

    def _bw(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        x.accumulate(p * (g - dot))

    return _result(p, (x,), _bw)


def contrastive(v, ts, tau) -> Tensor:
    """Bidirectional InfoNCE of image features v (N, p) against K text feature
    sets, each of ts one set (N, p) or k sets (N, k, p), as one node over one
    GEMM of v against the sets t_k stacked: the (K, 2) summed cross-entropies
    [i2t, t2i] of the diagonal of z_k = v t_k^T / tau under its row softmax P_k
    and its column softmax Q_k. An upstream g (K, 2) gives z_k the gradient
    g_k0 (P_k - I) + g_k1 (Q_k - I)."""
    v, tau, *ts = (_as_tensor(x) for x in (v, tau, *ts))
    N, p = v.shape
    for t in ts:
        if t.value.ndim not in (2, 3) or (t.shape[0], t.shape[-1]) != (N, p):
            raise ValueError(f"text features {t.shape} do not match image features {v.shape}")
    blocks = [t.value.reshape(N, -1, p).transpose(1, 0, 2) for t in ts]    # (k, N, p)
    t2 = np.concatenate(blocks).reshape(-1, p)      # (K N, p), set-major
    K = len(t2) // N
    s = v.value @ t2.T                              # (N, K N)
    _count_macs(s.size * p)
    if not np.all(np.isfinite(s)):
        raise ValueError("similarity matrix has non-finite entries")
    inv_tau = 1.0 / tau.value
    z = s.reshape(N, K, N).transpose(1, 0, 2) * inv_tau
    zz = np.stack([z, z.transpose(0, 2, 1)], axis=1)    # (K, 2, N, N): rows, columns of z_k
    m = np.max(zz, axis=-1, keepdims=True)
    e = np.exp(zz - m)
    row_sum = e.sum(axis=-1, keepdims=True)
    diag = np.arange(N)
    loss = (np.log(row_sum[..., 0]) + m[..., 0] - zz[..., diag, diag]).sum(axis=-1)

    def _bw(g):
        dzz = e / row_sum
        dzz[..., diag, diag] -= 1.0
        dzz *= g[:, :, None, None]
        dz = dzz[:, 0] + dzz[:, 1].transpose(0, 2, 1)
        if tau.requires_grad:
            tau.accumulate(-(dz * z).sum() * inv_tau)
        dz *= inv_tau                               # now the gradient of s
        if v.requires_grad:
            v.accumulate(dz.transpose(1, 0, 2).reshape(N, K * N) @ t2)
        dt = (dz.transpose(0, 2, 1).reshape(K * N, N) @ v.value).reshape(K, N, p)
        splits = np.cumsum([len(b) for b in blocks])[:-1]
        for t, dt_t in zip(ts, np.split(dt.transpose(1, 0, 2), splits, axis=1)):
            if t.requires_grad:
                t.accumulate(dt_t.reshape(t.shape))

    return _result(loss, (v, *ts, tau), _bw)


_GELU_A = 0.044715
_GELU_2C = 2.0 * math.sqrt(2.0 / math.pi)


def _gelu_gate(v: np.ndarray) -> np.ndarray:
    """The gate s = sigmoid(2u) = 1 / (1 + exp(-2u)), u = c (v + 0.044715 v^3),
    of the tanh-approximation GELU 0.5 v (1 + tanh(u)) = v s. For very negative
    v, exp(-2u) overflows to inf and s is 0, its limit, so that overflow goes
    unreported."""
    s = v * v
    s *= _GELU_A
    s += 1.0
    s *= v
    s *= -_GELU_2C                  # -2u
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return s


def _gelu_slope(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d(v s)/dv = s + v s (1 - s) 2c (1 + 3 * 0.044715 v^2), the slope a GELU's
    backward multiplies its upstream gradient by."""
    d = v * v
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= _GELU_2C
    d *= v
    d *= s
    d *= 1.0 - s
    d += s
    return d


def gelu(x) -> Tensor:
    """GELU v s, s = _gelu_gate(v), as one node that saves s for its backward."""
    x = _as_tensor(x)
    s = _gelu_gate(x.value)

    def _bw(g):
        x.accumulate(_gelu_slope(x.value, s) * g)

    return _result(x.value * s, (x,), _bw)


def _pre_norm(x: Tensor, gain: Tensor, bias: Tensor):
    """Layer norm of x over the last axis, y = xhat * gain + bias with
    xhat = (x - mean) * rstd. Returns y, a rebuild() that gives y's bytes again
    with the forward's own two operations from the saved xhat and rstd, and a
    backward that takes y's gradient and accumulates those of x, gain and bias."""
    inv_n = 1.0 / x.value.shape[-1]
    xhat = x.value - x.value.sum(axis=-1, keepdims=True) * inv_n
    rstd = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) * inv_n + 1e-5)
    xhat *= rstd

    def rebuild():
        y = xhat * gain.value
        y += bias.value
        return y

    def backward(g):
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            dxhat = g * gain.value
            proj = (dxhat * xhat).sum(axis=-1, keepdims=True) * inv_n
            dx = dxhat - dxhat.sum(axis=-1, keepdims=True) * inv_n
            dx -= xhat * proj
            dx *= rstd
            x.accumulate(dx)

    return rebuild(), rebuild, backward


def mlp(x, gain, bias, w1, b1, w2, b2) -> Tensor:
    """A pre-norm block's MLP, layer norm -> linear -> GELU -> linear, as one
    node over the two GEMMs of _gemm. The activation h = v s is written in
    place into the pre-activation v. When an input requires a gradient, the
    node keeps h and the GELU's slope at v, all its backward reads of the GELU,
    and of the norm only xhat and rstd: the normed input, which the first
    weight's gradient reads, is rebuilt from them. When no input requires a
    gradient, it saves nothing and the result is a constant."""
    x, gain, bias, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, gain, bias, w1, b1, w2, b2))
    y, norm_again, norm_bw = _pre_norm(x, gain, bias)
    v = _gemm(y.reshape(-1, y.shape[-1]), w1, b1)
    s = _gelu_gate(v)
    grad = any(t.requires_grad for t in (x, gain, bias, w1, b1, w2, b2))
    slope = _gelu_slope(v, s) if grad else None
    h = np.multiply(v, s, out=v)
    out = _gemm(h, w2, b2).reshape(x.value.shape[:-1] + w2.value.shape[-1:])
    if not grad:
        return Tensor(out)
    norm_grad = any(t.requires_grad for t in (x, gain, bias))

    def _bw(g):
        dh = _gemm_backward(g.reshape(-1, g.shape[-1]), h, w2, b2,
                            dx=norm_grad or w1.requires_grad or b1.requires_grad)
        if dh is not None:
            dh *= slope
            # the normed input is rebuilt last and freed at once, so that the
            # heap does not grow for it (minor faults on every step otherwise)
            dy = dh @ w1.value.T if norm_grad else None
            _gemm_backward(dh, norm_again().reshape(dh.shape[0], -1), w1, b1, dx=False)
            if dy is not None:
                norm_bw(dy.reshape(x.shape))

    return Tensor(out, (x, gain, bias, w1, b1, w2, b2), _bw, requires_grad=True)


def self_attention(x, gain, bias, wq, bq, wk, bk, wv, bv, heads: int,
                   logit_bias: np.ndarray, rows: int | None = None):
    """A pre-norm block's multi-head self-attention as one node: layer norm,
    the query, key and value projections, scaled scores plus the additive
    logit bias `logit_bias` (B, 1, L, L), softmax and value mix, with the
    heads merged.

    Queries, and so outputs, are computed for the first `rows` positions only
    (all L by default); keys and values always cover every position. Returns
    (output (B, rows, d), attention probabilities (B, heads, rows, L)). The
    backward is analytic and reuses the saved probabilities; of the norm it
    keeps only xhat and rstd, and it rebuilds the normed input and the `wk|wv`
    concatenation of the key and value GEMM."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    ws = [_as_tensor(t) for t in (wq, wk, wv)]
    bs = [_as_tensor(t) for t in (bq, bk, bv)]
    B, L, d = x.value.shape
    rows = L if rows is None else rows
    dh = d // heads
    scale = dh ** -0.5

    def inputs(y):
        """The normed input's (B L, d) rows and the (B rows, d) rows of its queries."""
        return y.reshape(B * L, d), y[:, :rows].reshape(B * rows, d)

    def w_kv():
        return np.concatenate([ws[1].value, ws[2].value], axis=1)

    y, norm_again, norm_bw = _pre_norm(x, gain, bias)
    x2, xq2 = inputs(y)
    q2 = xq2 @ ws[0].value
    q2 += bs[0].value
    kv2 = x2 @ w_kv()               # one GEMM for keys and values
    kv2 += np.concatenate([bs[1].value, bs[2].value])
    q = q2.reshape(B, rows, heads, dh).transpose(0, 2, 1, 3)
    k, v = kv2.reshape(B, L, 2, heads, dh).transpose(2, 0, 3, 1, 4)
    p = q @ k.swapaxes(-1, -2)
    p *= scale
    p += logit_bias[:, :, :rows]
    _softmax(p)
    out = (p @ v).transpose(0, 2, 1, 3).reshape(B, rows, d)
    _count_macs(B * (rows * d * d + 2 * L * d * d + 2 * rows * L * d))

    def _bw(g):
        gh = g.reshape(B, rows, heads, dh).transpose(0, 2, 1, 3)
        dv = p.swapaxes(-1, -2) @ gh
        ds = gh @ v.swapaxes(-1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        dq2 = (ds @ k).transpose(0, 2, 1, 3).reshape(B * rows, d)
        dkv2 = np.stack([ds.swapaxes(-1, -2) @ q, dv]).transpose(1, 3, 0, 2, 4)
        dkv2 = dkv2.reshape(B * L, 2 * d)
        dy = dkv2 @ w_kv().T
        dy.reshape(B, L, d)[:, :rows] += (dq2 @ ws[0].value.T).reshape(B, rows, d)
        x2, xq2 = inputs(norm_again())         # rebuilt last and freed at once, as in mlp
        dW = np.concatenate([xq2.T @ dq2, x2.T @ dkv2], axis=1)
        del x2, xq2
        db = np.concatenate([dq2.sum(axis=0), dkv2.sum(axis=0)])
        for i, (w, bias_i) in enumerate(zip(ws, bs)):
            if w.requires_grad:
                w.accumulate(dW[:, i * d:(i + 1) * d])
            if bias_i.requires_grad:
                bias_i.accumulate(db[i * d:(i + 1) * d])
        norm_bw(dy.reshape(B, L, d))

    return _result(out, (x, gain, bias, *ws, *bs), _bw), p


def layer_norm(x, gain, bias) -> Tensor:
    """Layer norm over the last axis as one node, see _pre_norm; its backward
    reuses the normalized input xhat and the reciprocal std rstd saved by the
    forward."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    y, _, norm_bw = _pre_norm(x, gain, bias)
    return _result(y, (x, gain, bias), norm_bw)


def l2_normalize(x) -> Tensor:
    """x / ||x|| over the last axis as one node. With y the output and inv the
    saved reciprocal norm, the gradient is (g - y (y . g)) inv."""
    x = _as_tensor(x)
    inv = 1.0 / np.sqrt((x.value * x.value).sum(axis=-1, keepdims=True))
    y = x.value * inv

    def _bw(g):
        x.accumulate((g - y * (y * g).sum(axis=-1, keepdims=True)) * inv)

    return _result(y, (x,), _bw)
