"""Finite-difference checks for the autodiff primitives."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from cornerclip import autodiff as ad
from cornerclip import corpus, masks, objective, train
from cornerclip.autodiff import Tensor
from cornerclip.corpus import generate_synthetic_corpus
from cornerclip.tokenizer import ROLE_CLS, ROLE_CORNER, ROLE_PAD, ROLE_SEP, ROLE_TEXT


def fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_unary(op, x, tol=1e-6):
    t = Tensor(x, requires_grad=True)
    out = op(t).sum()
    out.backward()
    fd = fd_grad(lambda v: float(op(Tensor(v)).sum().value), x)
    np.testing.assert_allclose(t.grad, fd, atol=tol, rtol=tol)


@pytest.mark.parametrize("op", [
    ad.exp, lambda t: ad.log(t + 3.0), ad.gelu,
    lambda t: ad.power(t, 3.0), lambda t: ad.power(t, -1.0),
    lambda t: ad.power(t * t + 1.0, 0.5), lambda t: ad.softmax(t) * np.arange(4.0),
    lambda t: ad.l2_normalize(t) * np.arange(4.0),
])
def test_unary_gradients(op):
    rng = np.random.default_rng(0)
    check_unary(op, rng.normal(size=(3, 4)) + 2.0)


def test_l2_normalize_gradient_3d():
    rng = np.random.default_rng(17)
    coef = rng.normal(size=(2, 3, 5))
    check_unary(lambda t: ad.l2_normalize(t) * coef, rng.normal(size=(2, 3, 5)))


def test_l2_normalize_forward_is_bit_exact():
    """One node, same operations as x * (1 / sqrt(sum x^2)): bit for bit."""
    x = np.random.default_rng(18).normal(size=(4, 3, 7)) * 5.0
    t = Tensor(x, requires_grad=True)
    y = ad.l2_normalize(t)
    assert y._parents == (t,)
    np.testing.assert_array_equal(y.value, x * (1 / np.sqrt((x * x).sum(-1, keepdims=True))))


def test_broadcast_add_mul_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    out = (a * b + b).sum()
    out.backward()
    fd_b = fd_grad(lambda v: float(((Tensor(a.value.copy()) * Tensor(v) + Tensor(v)).sum()).value),
                   b.value)
    np.testing.assert_allclose(b.grad, fd_b, atol=1e-6)
    np.testing.assert_allclose(a.grad, np.broadcast_to(b.value, a.shape), atol=1e-12)


def test_matmul_gradients_batched():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    (a @ b).sum().backward()
    fd_a = fd_grad(lambda v: float((Tensor(v) @ Tensor(b.value.copy())).sum().value), a.value)
    fd_b = fd_grad(lambda v: float((Tensor(a.value.copy()) @ Tensor(v)).sum().value), b.value)
    np.testing.assert_allclose(a.grad, fd_a, atol=1e-6)
    np.testing.assert_allclose(b.grad, fd_b, atol=1e-6)


def test_getitem_and_take_rows_gradients():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    out = a[np.array([0, 2, 2]), :].sum()
    out.backward()
    expect = np.zeros((5, 4))
    expect[0] = 1
    expect[2] = 2  # repeated row accumulates
    np.testing.assert_array_equal(a.grad, expect)

    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    ids = np.array([[1, 1], [4, 0]])
    ad.take_rows(table, ids).sum().backward()
    expect = np.zeros((6, 3))
    expect[1] = 2
    expect[4] = 1
    expect[0] = 1
    np.testing.assert_array_equal(table.grad, expect)


@pytest.mark.parametrize("table_shape, ids", [
    ((62, 8), np.random.default_rng(5).integers(0, 62, size=(32, 15))),   # a text batch
    ((6, 3), np.array([2, 2, 5, 2, 0])),                                   # 1-D, repeats
    ((1, 4), np.zeros((7, 1), dtype=np.int64)),                            # the ViT's CLS row
])
def test_take_rows_backward_matches_add_at_bytes(table_shape, ids):
    """The bincount backward adds in np.add.at's order: the same bytes."""
    rng = np.random.default_rng(6)
    table = Tensor(rng.normal(size=table_shape), requires_grad=True)
    g = rng.normal(size=ids.shape + table_shape[1:])
    (ad.take_rows(table, ids) * g).sum().backward()
    expect = np.zeros(table_shape)
    np.add.at(expect, ids, g)
    assert table.grad.tobytes() == expect.tobytes()


@pytest.mark.parametrize("shape, idx", [
    ((5, 4), (np.array([0, 2, 2, 4, 2]),)),                                # repeated rows
    ((5, 3, 8), (np.array([0, 1, 0, 2, 4, 4, 3]), 1, slice(None))),       # a feature readback
    ((62, 8), np.random.default_rng(5).integers(0, 62, size=(32, 15))),   # 2-D ids
    ((1, 4), np.zeros((7, 1), dtype=np.int64)),                            # the ViT's CLS row
    ((4, 3), (np.array([1, 0, 1]), np.array([2, 2, 0]))),                  # repeated pairs
], ids=["rows", "readback", "2d-ids", "vit-cls", "pairs"])
def test_scatter_sum_matches_add_at_bytes(shape, idx):
    """The one bincount scatter adds in np.add.at's order: the same bytes."""
    g = np.random.default_rng(7).normal(size=np.zeros(shape)[idx].shape)
    expect = np.zeros(shape)
    np.add.at(expect, idx, g)
    assert ad._scatter_sum(shape, idx, g).tobytes() == expect.tobytes()


def test_layer_norm_gradient():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=6), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    (ad.layer_norm(x, g, b) * np.arange(6.0)).sum().backward()
    fd = fd_grad(lambda v: float((ad.layer_norm(Tensor(v), Tensor(g.value.copy()),
                                                Tensor(b.value.copy()))
                                  * np.arange(6.0)).sum().value), x.value)
    np.testing.assert_allclose(x.grad, fd, atol=1e-5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    p = ad.softmax(Tensor(rng.normal(size=(7, 9)) * 10)).value
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


def test_masked_softmax_exact_zero():
    logits = np.array([[1.0, -1e9, 2.0]])
    p = ad.softmax(Tensor(logits)).value
    assert p[0, 1] == 0.0
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_clip_gradient_zero_outside():
    x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
    ad.clip(x, 0.0, 1.0).sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_mac_counter_counts_matmuls():
    a = Tensor(np.ones((2, 3, 4)))
    b = Tensor(np.ones((4, 5)))
    with ad.count_macs() as c:
        a @ b
    assert c[0] == 2 * 3 * 4 * 5
    # backward matmuls are not counted
    with ad.count_macs() as c:
        out = (a @ b).sum()
        out.backward()
    assert c[0] == 2 * 3 * 4 * 5


@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 4)])
def test_matmul_dense_weight_gradients(shape):
    """A 2-D right operand takes the flattened-GEMM path on 3-D and 4-D inputs."""
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    coef = rng.normal(size=shape[:-1] + (5,))
    (a @ w * coef).sum().backward()
    fd_a = fd_grad(lambda v: float((Tensor(v) @ Tensor(w.value.copy()) * coef).sum().value),
                   a.value)
    fd_w = fd_grad(lambda v: float((Tensor(a.value.copy()) @ Tensor(v) * coef).sum().value),
                   w.value)
    np.testing.assert_allclose(a.grad, fd_a, atol=1e-6)
    np.testing.assert_allclose(w.grad, fd_w, atol=1e-6)
    np.testing.assert_allclose((a @ w).value, np.einsum("...k,kn->...n", a.value, w.value),
                               rtol=1e-12, atol=1e-12)


def test_layer_norm_gain_and_bias_gradients():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=6), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    coef = rng.normal(size=(2, 3, 6))
    (ad.layer_norm(x, g, b) * coef).sum().backward()

    def loss(xv, gv, bv):
        return float((ad.layer_norm(Tensor(xv), Tensor(gv), Tensor(bv)) * coef).sum().value)

    np.testing.assert_allclose(x.grad, fd_grad(lambda v: loss(v, g.value, b.value), x.value),
                               atol=1e-5)
    np.testing.assert_allclose(g.grad, fd_grad(lambda v: loss(x.value, v, b.value), g.value),
                               atol=1e-6)
    np.testing.assert_allclose(b.grad, fd_grad(lambda v: loss(x.value, g.value, v), b.value),
                               atol=1e-6)


def test_gelu_batched_gradient():
    rng = np.random.default_rng(8)
    coef = rng.normal(size=(2, 3, 8))
    check_unary(lambda t: ad.gelu(t) * coef, rng.normal(size=(2, 3, 8)) * 2.0)


def test_unbroadcast_multi_axis():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(2, 3, 4, 5))
    np.testing.assert_allclose(ad._unbroadcast(g, (3, 1, 5)),
                               g.sum(axis=0).sum(axis=1, keepdims=True), atol=1e-12)
    np.testing.assert_allclose(ad._unbroadcast(g, ()), g.sum(), atol=1e-12)
    a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1, 5)), requires_grad=True)
    coef = rng.normal(size=(2, 3, 4, 5))
    ((a * b + b) * coef).sum().backward()
    fd_b = fd_grad(lambda v: float(((Tensor(a.value.copy()) * Tensor(v) + Tensor(v)) * coef)
                                   .sum().value), b.value)
    np.testing.assert_allclose(b.grad, fd_b, atol=1e-6)


def test_leaf_without_requires_grad_gets_no_gradient():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)))
    const = w * 2.0
    assert not const.requires_grad and const._parents == () and const._backward is None
    out = ad.layer_norm(a @ w, np.ones(2), np.zeros(2)).sum()
    assert out.requires_grad
    out.backward()
    assert a.grad is not None
    assert w.grad is None


def test_fan_out_gradient_is_not_aliased():
    # add hands one gradient array to both parents; x then receives more
    # gradients, which must not leak into y's (shared) first gradient
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    coef = rng.normal(size=(3, 4))
    (((x + y) + x + x) * coef).sum().backward()
    np.testing.assert_array_equal(y.grad, coef)
    np.testing.assert_allclose(x.grad, 3.0 * coef, atol=1e-12)

    # tsum's gradient is a read-only broadcast view; accumulating onto it works
    x.grad = y.grad = None
    ((x + y) + x).sum().backward()
    np.testing.assert_array_equal(y.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))


def reachable(root):
    """Every node reachable from root through its parents, root first."""
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def keep_graph_backward(root):
    """Backward as it ran before it consumed the graph: the same reverse
    topological order, every node's gradient, closure and parents kept."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
    root.grad = np.ones_like(root.value)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def step_graph():
    """A default-config model on a 64-record corpus, and a function that builds
    its step-1 loss graph with every parameter requiring a gradient."""
    recs = generate_synthetic_corpus(1, 64, 4, 16)
    vocab = corpus.vocabulary(recs)
    cfg = train.TrainConfig(seed=1)
    text_cfg, image_cfg = train.make_configs(vocab, cfg, 16)
    params = train.build_model(text_cfg, image_cfg, cfg.seed, cfg.tau_init)
    batch = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(1, 1), image_cfg)

    def loss():
        for t in params.values():
            t.requires_grad = True
        return train.compute_loss(params, batch, text_cfg, image_cfg, cfg)[0].total

    return params, loss


def test_release_drops_a_nodes_value_only():
    """release leaves leaves and constants as they are; a graph node's value
    becomes None, so a read of it raises, and its shape is kept, which is all
    add's backward reads."""
    leaf = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    const = Tensor(np.ones((2, 3)))
    node = ad.add(leaf, const)
    out = ad.tsum(node + 1.0)
    ad.release(leaf, const, node, node)
    assert leaf.value.tobytes() == np.arange(6.0).tobytes()
    assert const.value.tobytes() == np.ones((2, 3)).tobytes()
    assert node.value is None and node.shape == (2, 3) and repr(node) == "Tensor(shape=(2, 3))"
    with pytest.raises(TypeError):
        ad.mul(node, 2.0)
    with pytest.raises(AttributeError):
        node.value.sum()
    out.backward()
    assert leaf.grad.tobytes() == np.ones((2, 3)).tobytes()


def test_backward_consumes_the_graph():
    """After backward no non-leaf node of the step graph keeps a gradient, a
    closure or parents but each keeps the value it had (None once the forward
    released it), the leaves' gradients are the bytes of the backward that
    kept the whole graph, and a second backward raises."""
    params, step_loss = step_graph()
    keep_graph_backward(step_loss())
    expected = {name: t.grad.copy() for name, t in params.items()}
    for t in params.values():
        t.grad = None

    loss = step_loss()
    nodes = reachable(loss)
    inner = [n for n in nodes if n._backward is not None]
    assert len(inner) >= 40 and all(n._parents for n in inner)
    values = [n.value for n in inner]
    loss.backward()
    for node, value in zip(inner, values):
        assert node.grad is None and node._parents == () and node._backward is ad._consumed
        assert node.value is value
    leaves = {id(n) for n in nodes if n._backward is None and n.requires_grad}
    assert leaves == set(map(id, params.values()))
    for name, t in params.items():
        assert t.grad.tobytes() == expected[name].tobytes(), name
    with pytest.raises(RuntimeError, match="already backpropagated"):
        loss.backward()
    assert all(t.grad.tobytes() == expected[n].tobytes() for n, t in params.items())


def test_backward_into_a_consumed_node_raises():
    """A new graph built on a node of a consumed graph cannot reach past it."""
    x = Tensor(np.arange(3.0), requires_grad=True)
    y = x * 2.0
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
    with pytest.raises(RuntimeError, match="already backpropagated"):
        (y * 3.0).sum().backward()


def test_three_gradients_sum_without_writing_any():
    rng = np.random.default_rng(13)
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    gs = [rng.normal(size=(2, 3)) for _ in range(3)]
    kept = [g.copy() for g in gs]
    for g in gs:
        x.accumulate(g)
    np.testing.assert_array_equal(x.grad, (kept[0] + kept[1]) + kept[2])
    for g, k in zip(gs, kept):
        np.testing.assert_array_equal(g, k)


def check_inputs(loss, values, tol=1e-6, const=()):
    """Analytic gradients of the scalar loss(*tensors) for every input against
    central differences, one input at a time with the others held. Inputs
    whose index is in `const` require no gradient and must get none."""
    tensors = [Tensor(v, requires_grad=i not in const) for i, v in enumerate(values)]
    loss(*tensors).backward()
    for i, (t, v) in enumerate(zip(tensors, values)):
        if i in const:
            assert t.grad is None, f"input {i}"
            continue
        def f(x, i=i):
            return float(loss(*[Tensor(x if j == i else u) for j, u in enumerate(values)]).value)
        np.testing.assert_allclose(t.grad, fd_grad(f, v), atol=tol, rtol=tol, err_msg=f"input {i}")


@pytest.mark.parametrize("idx", [
    (slice(None), slice(1, 3)), 1, (Ellipsis, 2), (slice(None, None, 2), -1),
    (np.array([0, 2, 2]), slice(None)), (np.array([1, 0, 1]), np.array([2, 2, 0])),
], ids=["slices", "int", "ellipsis-int", "step-slice-int", "advanced-rows", "advanced-pairs"])
def test_getitem_gradient(idx):
    """Basic indices (slices and ints) take the exact-assignment backward,
    advanced ones the summing scatter, where a repeated element adds up."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 3))
    coef = rng.normal(size=x[idx].shape)
    check_inputs(lambda t: (t[idx] * coef).sum(), [x])


def test_linear_gradients_and_macs():
    rng = np.random.default_rng(14)
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    coef = rng.normal(size=(2, 3, 5))
    check_inputs(lambda x, w, b: (ad.linear(x, w, b) * coef).sum(), [x, w, b])
    with ad.count_macs() as c:
        y = ad.linear(Tensor(x), Tensor(w), Tensor(b)).value
    assert c[0] == 2 * 3 * 4 * 5
    np.testing.assert_allclose(y, x @ w + b, rtol=1e-12, atol=1e-12)


def test_matmul_is_linear_without_a_bias():
    """matmul(a, b) and linear(a, b) give the same bytes: value and both gradients."""
    rng = np.random.default_rng(15)
    a, b, coef = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(2, 3, 5))
    results = []
    for op in (ad.matmul, ad.linear):
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        y = op(ta, tb)
        (y * coef).sum().backward()
        results.append([t.tobytes() for t in (y.value, ta.grad, tb.grad)])
    assert results[0] == results[1]


def test_gelu_large_inputs_without_warnings():
    v = np.array([-1e3, -300.0, -40.0, -5.0, -0.5, 0.0, 0.5, 5.0, 40.0, 300.0, 1e3])
    u = np.sqrt(2.0 / np.pi) * (v + 0.044715 * v ** 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_unary(ad.gelu, v)
        y = ad.gelu(Tensor(v)).value
    # the tanh form loses relative precision to cancellation in 1 + tanh(u) < 1
    np.testing.assert_allclose(y, 0.5 * v * (1.0 + np.tanh(u)), rtol=1e-14, atol=1e-15)


def _mlp_inputs(rng, scale=1.0):
    """x (2, 3, 4), gain (4,), bias (4,), w1 (4, 6), b1 (6,), w2 (6, 4), b2 (4,)."""
    return [rng.normal(size=shape) * scale
            for shape in ((2, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,))]


MLP_INPUTS = ["x", "gain", "bias", "w1", "b1", "w2", "b2"]


def _mlp_chain(x, gain, bias, w1, b1, w2, b2):
    """The MLP node's computation as its unfused nodes."""
    return ad.linear(ad.gelu(ad.linear(ad.layer_norm(x, gain, bias), w1, b1)), w2, b2)


@pytest.mark.parametrize("const", range(7), ids=MLP_INPUTS)
def test_mlp_gradients(const):
    """All seven inputs of the fused pre-norm MLP under a non-uniform upstream
    gradient, with the input `const` requiring none."""
    rng = np.random.default_rng(19)
    values = _mlp_inputs(rng)
    coef = rng.normal(size=(2, 3, 4))
    check_inputs(lambda *ts: (ad.mlp(*ts) * coef).sum(), values, const=(const,))


def test_mlp_no_grad_forward_is_bit_exact_and_counts_both_layers():
    """The in-place no-grad forward, the graph forward and layer_norm -> linear
    -> gelu -> linear agree bit for bit, and the node counts the two linears' MACs."""
    values = _mlp_inputs(np.random.default_rng(20), scale=2.0)
    consts = [Tensor(v) for v in values]
    with ad.count_macs() as c_mlp:
        no_grad = ad.mlp(*consts)
    with ad.count_macs() as c_ref:
        ref = _mlp_chain(*consts)
    graph = ad.mlp(Tensor(values[0], requires_grad=True), *consts[1:])
    assert not no_grad.requires_grad and no_grad._parents == () and no_grad._backward is None
    assert graph.requires_grad
    np.testing.assert_array_equal(no_grad.value, ref.value)
    np.testing.assert_array_equal(graph.value, ref.value)
    assert c_mlp[0] == c_ref[0] == 2 * 2 * 3 * 4 * 6


def test_mlp_gradients_are_those_of_the_unfused_layers_bit_for_bit():
    """The backward runs the numpy operations of layer_norm, linear, gelu and
    linear, the normed input rebuilt with the forward's own operations."""
    rng = np.random.default_rng(23)
    values = _mlp_inputs(rng, scale=2.0)
    coef = rng.normal(size=(2, 3, 4))
    grads = []
    for node in (ad.mlp, _mlp_chain):
        ts = [Tensor(v, requires_grad=True) for v in values]
        (node(*ts) * coef).sum().backward()
        grads.append([t.grad for t in ts])
    for name, g_fused, g_chain in zip(MLP_INPUTS, *grads):
        np.testing.assert_array_equal(g_fused, g_chain, err_msg=name)


def _closure_arrays(fn):
    """Every array a backward closure reaches through closure cells, nested
    closures, lists and tuples, and the values of the Tensors it holds."""
    found, seen, stack = [], set(), [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.value)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj):
            stack.extend(c.cell_contents for c in obj.__closure__ or ())
    return found


def test_mlp_node_keeps_the_activation_and_the_slope_only():
    """A grad-mode mlp node's backward holds exactly two (rows, hidden) arrays:
    the activation h its second GEMM reads and the GELU's slope, not the
    pre-activation v or the gate s."""
    rng = np.random.default_rng(24)
    x, gain, bias, w1, b1, w2, b2 = (rng.normal(size=shape) for shape in (
        (2, 5, 4), (4,), (4,), (4, 7), (7,), (7, 4), (4,)))
    node = ad.mlp(Tensor(x, requires_grad=True), gain, bias, w1, b1, w2, b2)
    owners = {id(a if a.base is None else a.base): a
              for a in _closure_arrays(node._backward) if a.size == 10 * 7}
    assert len(owners) == 2
    v = ad.layer_norm(x, gain, bias).value.reshape(10, 4) @ w1 + b1
    h = ad.gelu(Tensor(v)).value
    assert sorted(a.shape for a in owners.values()) == [(10, 7), (10, 7)]
    assert any(a.tobytes() == h.tobytes() for a in owners.values())


def _attention_inputs(rng, B=2, L=6, d=4):
    """x (B, L, d), gain and bias (d,), then wq, bq, wk, bk, wv, bv."""
    values = [rng.normal(size=(B, L, d)), rng.normal(size=d), rng.normal(size=d)]
    for _ in range(3):
        values += [rng.normal(size=(d, d)), rng.normal(size=d)]
    return values


@pytest.mark.parametrize("node", ["mlp", "self_attention"])
def test_pre_norm_nodes_keep_neither_the_normed_input_nor_wk_wv(node):
    """The backward of a grad-mode pre-norm node holds the norm's xhat, but not
    the normed input xhat * gain + bias, which it rebuilds, and the attention
    node holds no (d, 2d) `wk|wv` concatenation, which it builds again."""
    rng = np.random.default_rng(31)
    if node == "mlp":
        values = [rng.normal(size=shape) for shape in (
            (2, 5, 4), (4,), (4,), (4, 7), (7,), (7, 4), (4,))]
        out = ad.mlp(Tensor(values[0], requires_grad=True), *values[1:])
    else:
        values = _attention_inputs(rng, L=5)
        out, _ = ad.self_attention(Tensor(values[0], requires_grad=True), *values[1:],
                                   2, np.zeros((2, 1, 5, 5)), 3)
    x, gain, bias = values[:3]
    normed = ad.layer_norm(x, gain, bias).value
    xhat = (normed - bias) / gain
    kept = _closure_arrays(out._backward)
    sized = [a for a in kept if a.size == x.size]
    assert any(np.allclose(a.reshape(x.shape), xhat, rtol=1e-12, atol=1e-12) for a in sized)
    assert not any(a.tobytes() == normed.tobytes() for a in sized)
    assert not any(a.shape == (4, 8) for a in kept)


def test_mlp_large_inputs_without_warnings():
    """Pre-activations down to about -1e3 overflow exp(-2u) silently, in both
    modes. The norm's gain and bias are held: their central differences run
    through outputs of about 1e3 and lose about 1e-6 to rounding."""
    x, gain, bias, w1, b1, w2, b2 = _mlp_inputs(np.random.default_rng(21))
    b1 = np.array([-1e3, -300.0, -40.0, 0.0, 40.0, 1e3])
    w1 *= 1e-3
    coef = np.random.default_rng(22).normal(size=(2, 3, 4))
    values = [x, gain, bias, w1, b1, w2, b2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_inputs(lambda *ts: (ad.mlp(*ts) * coef).sum(), values, const=(1, 2))
        y = ad.mlp(*(Tensor(v) for v in values)).value
    assert np.all(np.isfinite(y))


def _corner_bias():
    """(2, 1, 6, 6) corner-mask logit bias of a full row and a padded row."""
    C, K, T, S, P = ROLE_CLS, ROLE_CORNER, ROLE_TEXT, ROLE_SEP, ROLE_PAD
    roles = np.array([[C, K, K, T, T, S], [C, K, K, T, S, P]])
    return masks.mask_bias(masks.full_mask(roles, "corner"))[:, None]


ATTENTION_INPUTS = ["x", "gain", "bias", "wq", "bq", "wk", "bk", "wv", "bv"]


@pytest.mark.parametrize("rows", [None, 3], ids=["all-rows", "cut-rows"])
def test_self_attention_gradients(rows):
    """All nine inputs of the fused pre-norm attention node, under a corner mask."""
    rng = np.random.default_rng(15)
    B, L, d, heads = 2, 6, 4, 2
    bias = _corner_bias()
    values = _attention_inputs(rng, B, L, d)
    x, gain, beta, wq, bq, wk, bk, wv, bv = values
    n = L if rows is None else rows
    coef = rng.normal(size=(B, n, d))

    def loss(*ts):
        out, _ = ad.self_attention(*ts, heads, bias, rows)
        return (out * coef).sum()

    check_inputs(loss, values)
    # reference: layer norm, then per-head softmax attention in plain numpy over all rows
    out, probs = ad.self_attention(*[Tensor(v) for v in values], heads, bias, rows)
    xn = x - x.mean(axis=-1, keepdims=True)
    xn = xn / np.sqrt((xn * xn).mean(axis=-1, keepdims=True) + 1e-5) * gain + beta
    split = [(xn @ w + b).reshape(B, L, heads, d // heads).transpose(0, 2, 1, 3)
             for w, b in ((wq, bq), (wk, bk), (wv, bv))]
    s = split[0] @ split[1].transpose(0, 1, 3, 2) * (d // heads) ** -0.5 + bias
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    ref = (p @ split[2]).transpose(0, 2, 1, 3).reshape(B, L, d)
    np.testing.assert_allclose(out.value, ref[:, :n], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(probs, p[:, :, :n], rtol=1e-12, atol=1e-12)
    assert out.shape == (B, n, d) and probs.shape == (B, heads, n, L)


def _attention_after_norm(h, wq, bq, wk, bk, wv, bv, heads, bias, rows):
    """The attention node before it took the pre-norm, over the layer_norm
    node h: the same numpy operations in the same order, kept as the
    reference that the fused node must equal bit for bit."""
    ws, bs = [wq, wk, wv], [bq, bk, bv]
    B, L, d = h.value.shape
    dh = d // heads
    scale = dh ** -0.5
    w_kv = np.concatenate([wk.value, wv.value], axis=1)
    x2 = h.value.reshape(B * L, d)
    xq2 = h.value[:, :rows].reshape(B * rows, d)
    q2 = xq2 @ wq.value
    q2 += bq.value
    kv2 = x2 @ w_kv
    kv2 += np.concatenate([bk.value, bv.value])
    q = q2.reshape(B, rows, heads, dh).transpose(0, 2, 1, 3)
    k, v = kv2.reshape(B, L, 2, heads, dh).transpose(2, 0, 3, 1, 4)
    p = q @ k.swapaxes(-1, -2)
    p *= scale
    p += bias[:, :, :rows]
    ad._softmax(p)
    out = (p @ v).transpose(0, 2, 1, 3).reshape(B, rows, d)

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
        dW = np.concatenate([xq2.T @ dq2, x2.T @ dkv2], axis=1)
        dx = dkv2 @ w_kv.T
        dx.reshape(B, L, d)[:, :rows] += (dq2 @ wq.value.T).reshape(B, rows, d)
        db = np.concatenate([dq2.sum(axis=0), dkv2.sum(axis=0)])
        for i, (w, b) in enumerate(zip(ws, bs)):
            w.accumulate(dW[:, i * d:(i + 1) * d])
            b.accumulate(db[i * d:(i + 1) * d])
        h.accumulate(dx.reshape(B, L, d))

    return Tensor(out, (h, *ws, *bs), _bw, requires_grad=h.requires_grad), p


@pytest.mark.parametrize("rows", [6, 3], ids=["all-rows", "cut-rows"])
def test_self_attention_is_layer_norm_then_attention_bit_for_bit(rows):
    """Output, probabilities and the gradient of every input equal layer_norm
    followed by the attention computation, in grad mode and not."""
    rng = np.random.default_rng(33)
    values = _attention_inputs(rng, 2, 6, 4)
    values[0] *= 3.0
    bias, coef = _corner_bias(), rng.normal(size=(2, rows, 4))
    results = []
    for fused in (True, False):
        for grad in (False, True):
            ts = [Tensor(v, requires_grad=grad) for v in values]
            if fused:
                out, probs = ad.self_attention(*ts, 2, bias, rows)
            else:
                out, probs = _attention_after_norm(ad.layer_norm(*ts[:3]), *ts[3:], 2, bias, rows)
            assert out.requires_grad == grad
            if grad:
                (out * coef).sum().backward()
            results.append([out.value, probs] + [t.grad for t in ts if grad])
    fused_const, fused_grad, ref_const, ref_grad = results
    for a, b in zip(fused_const + fused_grad, ref_const + ref_grad):
        assert a.tobytes() == b.tobytes()
    assert len(fused_grad) == 2 + len(ATTENTION_INPUTS)


def test_contrastive_gradients_values_and_macs():
    """K = 5 sets of non-unit features under a non-uniform (K, 2) upstream
    gradient, with a Tensor temperature, one set that needs no gradient and
    a block of two sets (N, 2, p), which count as its sets [:, 0], [:, 1]."""
    rng = np.random.default_rng(17)
    N, p, K = 4, 5, 5
    v, t0, t1, fixed = (rng.normal(size=(N, p)) for _ in range(4))
    block = rng.normal(size=(N, 2, p))
    coef = rng.normal(size=(K, 2))

    def loss(v, t0, t1, block, tau):
        return (ad.contrastive(v, [t0, fixed, t1, block], tau) * coef).sum()

    check_inputs(loss, [v, t0, t1, block, np.array(0.7)])
    const = Tensor(fixed)
    with ad.count_macs() as c:
        out = ad.contrastive(Tensor(v, requires_grad=True), [t0, const, t1, block], 0.7)
    out.sum().backward()
    assert const.grad is None
    assert c[0] == N * K * N * p
    for k, t in enumerate((t0, fixed, t1, block[:, 0], block[:, 1])):
        z = v @ t.T / 0.7
        for j, zd in enumerate((z, z.T)):
            lse = np.log(np.exp(zd).sum(axis=1))
            assert out.value[k, j] == pytest.approx((lse - np.diag(zd)).sum(), rel=1e-12)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("needs_grad", [True, False], ids=["grad", "no-grad"])
def test_contrastive_block_is_its_sets_in_turn(k, needs_grad):
    """A block (N, k, p) between two single sets gives the same bytes as its k
    sets passed one at a time: values, MACs and the gradients of v, tau, the
    sets around it and the block, which needs a gradient or none."""
    rng = np.random.default_rng(18)
    N, p = 4, 5
    v, first, last = (rng.normal(size=(N, p)) for _ in range(3))
    block = rng.normal(size=(N, k, p))
    coef = rng.normal(size=(k + 2, 2))

    def run(sets):
        leaves = [Tensor(x, requires_grad=True) for x in (v, first, np.array(0.7))]
        with ad.count_macs() as c:
            out = ad.contrastive(leaves[0], [leaves[1], *sets, last], leaves[2])
        (out * coef).sum().backward()
        return [out.value, c[0], *(t.grad for t in leaves)]

    whole = Tensor(block, requires_grad=needs_grad)
    sets = [Tensor(block[:, j], requires_grad=needs_grad) for j in range(k)]
    for a, b in zip(run([whole]), run(sets)):
        np.testing.assert_array_equal(a, b)
    if needs_grad:
        np.testing.assert_array_equal(whole.grad, np.stack([t.grad for t in sets], axis=1))
    else:
        assert whole.grad is None and all(t.grad is None for t in sets)


@pytest.mark.parametrize("direction", ["i2t", "t2i"])
def test_info_nce_gradients(direction):
    """Both directions, with the gradient on S and on a Tensor temperature."""
    rng = np.random.default_rng(16)
    S = rng.normal(size=(4, 4))
    check_inputs(lambda s, tau: objective.info_nce(s, tau, direction),
                 [S, np.array(0.3)])
    s_const = Tensor(S, requires_grad=True)
    objective.info_nce(s_const, 0.3, direction).backward()
    fd = fd_grad(lambda v: float(objective.info_nce(v, 0.3, direction).value), S)
    np.testing.assert_allclose(s_const.grad, fd, atol=1e-6)


def _vit_setup(tmp_path, freeze_image):
    recs = generate_synthetic_corpus(0, 8, 2, 8)
    rng = np.random.default_rng(11)
    for r in recs:
        r.image_path = str(tmp_path / f"{r.id}.npy")
        np.save(r.image_path, rng.normal(size=(32, 32, 3)))
        r.image_feature = None
    vocab = corpus.vocabulary(recs)
    cfg = train.TrainConfig(batch_size=4, steps=1, warmup_steps=1, seed=0, limit=16,
                            text_depth=1, text_width=16, text_heads=2, projection_dim=8,
                            k_subcaptions=2, image_mode="vit", freeze_image=freeze_image)
    text_cfg, image_cfg = train.make_configs(vocab, cfg, 0)
    params = train.build_model(text_cfg, image_cfg, cfg.seed, cfg.tau_init)
    batch = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(0, 1), image_cfg)
    return train.gradients(params, batch, text_cfg, image_cfg, cfg), params


def test_frozen_image_tower_gets_no_backward(tmp_path):
    (frozen, _, _), params = _vit_setup(tmp_path, freeze_image=True)
    (full, _, _), _ = _vit_setup(tmp_path, freeze_image=False)
    img = [n for n in params if n.startswith("img.")]
    assert len(img) > 10
    assert all(params[n].grad is None for n in img)
    assert set(frozen) == set(full) - set(img)
    for name, g in frozen.items():
        np.testing.assert_array_equal(g, full[name], err_msg=name)


def test_every_public_name_has_a_caller():
    """No primitive the model does not call: each public name of autodiff.py
    is imported from it or read off it by another module of the package, or
    is one that perfbench/tracer.py wraps by name."""
    root = Path(__file__).resolve().parents[1]
    pkg = root / "src" / "cornerclip"
    public = {n.name for n in ast.parse((pkg / "autodiff.py").read_text()).body
              if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}
    called = set()
    for path in pkg.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "cornerclip.autodiff"):
                called |= {a.name for a in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "autodiff"):
                called.add(node.attr)
    wrapped = set()
    for node in ast.parse((root / "perfbench" / "tracer.py").read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("PRIMITIVES", "COMPOSITES")):
            wrapped |= set(ast.literal_eval(node.value))
    assert wrapped and called
    assert public - called - wrapped == set()
