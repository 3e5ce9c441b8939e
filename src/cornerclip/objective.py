"""Contrastive objectives over unit-normalized features.

The short loss is the standard bidirectional InfoNCE between image
features and short-text global features. The long loss adds one
bidirectional InfoNCE term per corner feature set on top of the global
term, all sharing a single learnable temperature. The training total is
their sum, reduced as a SUM over the batch; mean-per-pair values are
reported alongside for cross-batch comparability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, clip, diag_cross_entropy, exp, matmul, mul, transpose

TAU_MIN = 0.01
TAU_MAX = 10.0


def initial_log_scale(tau_init: float) -> Tensor:
    """The learnable log-scale temperature s, set so that tau = exp(-s) = tau_init."""
    return Tensor(np.float64(-math.log(tau_init)))


def temperature(s) -> Tensor:
    """tau = clamp(exp(-s), [TAU_MIN, TAU_MAX])."""
    return clip(exp(mul(s, -1.0)), TAU_MIN, TAU_MAX)


def similarity(A, B) -> Tensor:
    """S(i, j) = dot(a_i, b_j); inputs are already unit-normalized."""
    A, B = as_tensor(A), as_tensor(B)
    if A.shape[-1] != B.shape[-1]:
        raise ValueError(f"feature width mismatch: {A.shape[-1]} vs {B.shape[-1]}")
    return matmul(A, transpose(B, (1, 0)))


def info_nce(S, tau, direction: str) -> Tensor:
    """Summed negative log-likelihood of the diagonal under row softmax, as one node.

    i2t treats rows as queries; t2i uses the transposed pairing.
    """
    S = as_tensor(S)
    if not np.all(np.isfinite(S.value)):
        raise ValueError("similarity matrix has non-finite entries")
    if direction not in ("i2t", "t2i"):
        raise ValueError(f"unknown direction {direction!r}")
    return diag_cross_entropy(S, tau, axis=1 if direction == "i2t" else 0)


def short_loss(V, T_short, tau) -> Tensor:
    S = similarity(V, T_short)
    return info_nce(S, tau, "i2t") + info_nce(S, tau, "t2i")


def long_loss(V, t_g, corners, tau) -> Tensor:
    """Bidirectional InfoNCE summed over the global and each corner feature set."""
    V = as_tensor(V)
    total = short_loss(V, t_g, tau)
    for c in corners:
        total = total + short_loss(V, c, tau)
    return total


@dataclass
class LossBreakdown:
    total: Tensor
    short: Tensor
    long: Tensor | None

    def per_pair(self, N: int, m: int) -> dict:
        """Mean-per-pair values: loss / (N * number of directional terms)."""
        out = {"short_per_pair": float(self.short.value) / (2 * N)}
        if self.long is not None:
            out["long_per_pair"] = float(self.long.value) / (2 * N * (1 + m))
        return out


def total_loss(V, t_short, tau, t_g=None, corners=None) -> LossBreakdown:
    """Short loss plus, when long-text features are given, the long loss."""
    short = short_loss(V, t_short, tau)
    if t_g is None:
        return LossBreakdown(total=short, short=short, long=None)
    lng = long_loss(V, t_g, corners or [], tau)
    return LossBreakdown(total=short + lng, short=short, long=lng)
