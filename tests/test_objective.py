"""Contrastive loss tests against closed forms and brute-force oracles."""

import math
import re

import numpy as np
import pytest

from cornerclip import objective as ob
from cornerclip.autodiff import Tensor


def brute_force_info_nce(S, tau, direction):
    """Naive double-loop evaluation of the summed InfoNCE."""
    S = np.asarray(S, dtype=np.float64)
    if direction == "t2i":
        S = S.T
    N = S.shape[0]
    total = 0.0
    for i in range(N):
        num = math.exp(S[i, i] / tau)
        den = sum(math.exp(S[i, j] / tau) for j in range(N))
        total -= math.log(num / den)
    return total


def random_unit_vectors(rng, n, p):
    x = rng.normal(size=(n, p))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestInfoNCE:
    @pytest.mark.parametrize("N", [2, 4, 8])
    @pytest.mark.parametrize("direction", ["i2t", "t2i"])
    def test_uniform_similarities(self, N, direction):
        for const in (0.0, 0.7, -0.3):
            for tau in (1.0, 0.07):
                S = np.full((N, N), const)
                val = float(ob.info_nce(S, tau, direction).value)
                assert abs(val - N * math.log(N)) < 1e-9

    def test_identity_n2_tau1(self):
        S = np.eye(2)
        val = float(ob.info_nce(S, 1.0, "i2t").value)
        expected = 2 * (-math.log(math.e / (math.e + 1)))
        assert abs(val - 0.626523) < 1e-5
        assert abs(val - expected) < 1e-12
        assert abs(val - brute_force_info_nce(S, 1.0, "i2t")) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            N = int(rng.integers(2, 9))
            S = rng.normal(size=(N, N))
            tau = float(rng.uniform(0.05, 2.0))
            for d in ("i2t", "t2i"):
                assert abs(float(ob.info_nce(S, tau, d).value)
                           - brute_force_info_nce(S, tau, d)) < 1e-9

    def test_symmetry_transpose(self):
        rng = np.random.default_rng(3)
        S = rng.normal(size=(5, 5))
        a = float(ob.info_nce(S, 0.3, "i2t").value)
        b = float(ob.info_nce(S.T, 0.3, "t2i").value)
        assert a == b

    def test_nonnegative_lower_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            S = rng.normal(size=(4, 4))
            assert float(ob.info_nce(S, 0.5, "i2t").value) >= 0.0

    def test_row_argmax_invariant_to_tau(self):
        rng = np.random.default_rng(5)
        S = rng.normal(size=(6, 6))
        ranks = np.argmax(S, axis=1)
        for tau in (0.01, 0.5, 10.0):
            np.testing.assert_array_equal(np.argmax(S / tau, axis=1), ranks)

    def test_stable_at_large_logit_scale(self):
        S = np.array([[1.0, -1.0], [-1.0, 1.0]])
        val = float(ob.info_nce(S, 1e-4, "i2t").value)
        assert np.isfinite(val)
        assert val >= 0.0

    def test_non_finite_rejected(self):
        S = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(FloatingPointError, match="non-finite"):
            ob.info_nce(S, 1.0, "i2t")


class TestShortLoss:
    def test_uniform(self):
        rng = np.random.default_rng(6)
        v = random_unit_vectors(rng, 1, 8)
        V = np.repeat(v, 4, axis=0)
        T = np.repeat(v, 4, axis=0)
        val = float(ob.short_loss(V, T, 0.5).value)
        assert abs(val - 2 * 4 * math.log(4)) < 1e-9

    def test_identity_n2(self):
        val = float(ob.short_loss(np.eye(2), np.eye(2), 1.0).value)
        assert abs(val - 1.253046) < 1e-5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        V = random_unit_vectors(rng, 6, 8)
        T = random_unit_vectors(rng, 6, 8)
        base = float(ob.short_loss(V, T, 0.2).value)
        perm = rng.permutation(6)
        assert abs(float(ob.short_loss(V[perm], T[perm], 0.2).value) - base) <= 1e-12

    def test_feature_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"text features \(2, 4\) do not match"):
            ob.short_loss(np.ones((2, 3)), np.ones((2, 4)), 1.0)
        with pytest.raises(ValueError, match=r"text features \(3, 3\) do not match"):
            ob.long_loss(np.ones((2, 3)), np.ones((2, 3)), [np.ones((3, 3))], 1.0)
        for block in ((2, 2, 4), (3, 2, 3), (2, 1, 1, 3)):
            with pytest.raises(ValueError, match=re.escape(f"text features {block} do not match")):
                ob.total_loss(np.ones((2, 3)), np.ones((2, 3)), 1.0, np.ones(block))


class TestLongLoss:
    def test_m_zero_equals_short(self):
        rng = np.random.default_rng(8)
        V = random_unit_vectors(rng, 4, 8)
        T = random_unit_vectors(rng, 4, 8)
        assert float(ob.long_loss(V, T, [], 0.3).value) == \
            float(ob.short_loss(V, T, 0.3).value)

    def test_uniform_closed_form(self):
        rng = np.random.default_rng(9)
        v = random_unit_vectors(rng, 1, 8)
        V = np.repeat(v, 4, axis=0)
        val = float(ob.long_loss(V, V, [V, V], 0.7).value)
        expected = 2 * (1 + 2) * 4 * math.log(4)
        assert abs(val - expected) < 1e-9
        assert abs(expected - 33.271) < 1e-2

    def test_duplicated_corner_additivity(self):
        rng = np.random.default_rng(10)
        V = random_unit_vectors(rng, 5, 8)
        tg = random_unit_vectors(rng, 5, 8)
        c1 = random_unit_vectors(rng, 5, 8)
        one = float(ob.long_loss(V, tg, [c1], 0.4).value)
        two = float(ob.long_loss(V, tg, [c1, c1], 0.4).value)
        term = float(ob.short_loss(V, c1, 0.4).value)
        assert abs(two - (one + term)) < 1e-9


class TestTotalLoss:
    def test_long_absent(self):
        rng = np.random.default_rng(11)
        V = random_unit_vectors(rng, 4, 8)
        T = random_unit_vectors(rng, 4, 8)
        bd = ob.total_loss(V, T, 0.5)
        assert bd.long is None
        assert float(bd.total.value) == bd.short

    def test_uniform_sum_of_closed_forms(self):
        rng = np.random.default_rng(12)
        v = random_unit_vectors(rng, 1, 8)
        V = np.repeat(v, 4, axis=0)
        bd = ob.total_loss(V, V, 0.9, np.stack([V, V, V], axis=1))
        # short = 2*4*log 4, long = (1+2)*2*4*log 4
        assert abs(bd.short - 11.090) < 1e-3
        assert abs(bd.long - 33.271) < 1e-3
        assert abs(float(bd.total.value) - (11.090 + 33.271)) < 2e-3

    def test_gradient_is_sum_of_term_gradients(self):
        rng = np.random.default_rng(13)
        V = Tensor(random_unit_vectors(rng, 4, 6), requires_grad=True)
        T = random_unit_vectors(rng, 4, 6)
        tg = random_unit_vectors(rng, 4, 6)
        c = [random_unit_vectors(rng, 4, 6)]

        bd = ob.total_loss(V, T, 0.5, np.stack([tg, *c], axis=1))
        bd.total.backward()
        g_total = V.grad.copy()

        V.grad = None
        ob.short_loss(V, T, 0.5).backward()
        g_short = V.grad.copy()
        V.grad = None
        ob.long_loss(V, tg, c, 0.5).backward()
        g_long = V.grad.copy()
        np.testing.assert_allclose(g_total, g_short + g_long, atol=1e-12)


class TestTemperature:
    def test_tau_init_and_clamp(self):
        s = ob.initial_log_scale(0.07)
        assert abs(float(ob.temperature(s).value) - 0.07) < 1e-12
        s.value = np.float64(100.0)
        assert float(ob.temperature(s).value) == ob.TAU_MIN
        s.value = np.float64(-100.0)
        assert float(ob.temperature(s).value) == ob.TAU_MAX
