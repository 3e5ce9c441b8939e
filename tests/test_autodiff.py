"""Finite-difference checks for the autodiff primitives."""

import numpy as np
import pytest

from cornerclip import autodiff as ad
from cornerclip import train
from cornerclip.autodiff import Tensor
from cornerclip.corpus import generate_synthetic_corpus
from cornerclip.tokenizer import Vocabulary


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
    lambda t: ad.sqrt(t * t + 1.0), lambda t: ad.softmax(t) * np.arange(4.0),
    lambda t: ad.l2_normalize(t) * np.arange(4.0),
])
def test_unary_gradients(op):
    rng = np.random.default_rng(0)
    check_unary(op, rng.normal(size=(3, 4)) + 2.0)


def test_broadcast_add_mul_gradients():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    out = (a * b + b).sum()
    out.backward()
    fd_b = fd_grad(lambda v: float(((a.detach() * Tensor(v) + Tensor(v)).sum()).value),
                   b.value)
    np.testing.assert_allclose(b.grad, fd_b, atol=1e-6)
    np.testing.assert_allclose(a.grad, np.broadcast_to(b.value, a.shape), atol=1e-12)


def test_matmul_gradients_batched():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    (a @ b).sum().backward()
    fd_a = fd_grad(lambda v: float((Tensor(v) @ b.detach()).sum().value), a.value)
    fd_b = fd_grad(lambda v: float((a.detach() @ Tensor(v)).sum().value), b.value)
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


def test_layer_norm_gradient():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
    g = Tensor(rng.normal(size=6), requires_grad=True)
    b = Tensor(rng.normal(size=6), requires_grad=True)
    (ad.layer_norm(x, g, b) * np.arange(6.0)).sum().backward()
    fd = fd_grad(lambda v: float((ad.layer_norm(Tensor(v), g.detach(), b.detach())
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
    fd_a = fd_grad(lambda v: float((Tensor(v) @ w.detach() * coef).sum().value), a.value)
    fd_w = fd_grad(lambda v: float((a.detach() @ Tensor(v) * coef).sum().value), w.value)
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
    fd_b = fd_grad(lambda v: float(((a.detach() * Tensor(v) + Tensor(v)) * coef).sum().value),
                   b.value)
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


def _vit_setup(tmp_path, freeze_image):
    recs = generate_synthetic_corpus(0, 8, 2, 8)
    rng = np.random.default_rng(11)
    for r in recs:
        r.image_path = str(tmp_path / f"{r.id}.npy")
        np.save(r.image_path, rng.normal(size=(32, 32, 3)))
        r.image_feature = None
    vocab = Vocabulary.build([r.short_text for r in recs]
                             + [t for r in recs for t in r.long_texts])
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
