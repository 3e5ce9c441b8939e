"""Contrastive objectives over unit-normalized features.

The short loss is the standard bidirectional InfoNCE between image
features and short-text global features. The long loss adds one
bidirectional InfoNCE term per corner feature set on top of the global
term, all sharing a single learnable temperature. The training total is
their sum, reduced as a SUM over the batch; one `autodiff.contrastive` node
computes every term of it, the long caption's (N, 1+m, p) block taken whole;
mean-per-pair values are reported alongside for cross-batch comparability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, clip, contrastive, exp, mul

TAU_MIN = 0.01
TAU_MAX = 10.0


def initial_log_scale(tau_init: float) -> Tensor:
    """The learnable log-scale temperature s, set so that tau = exp(-s) = tau_init."""
    return Tensor(np.float64(-math.log(tau_init)))


def temperature(s) -> Tensor:
    """tau = clamp(exp(-s), [TAU_MIN, TAU_MAX])."""
    return clip(exp(mul(s, -1.0)), TAU_MIN, TAU_MAX)


def info_nce(S, tau, direction: str) -> Tensor:
    """Summed negative log-likelihood of the diagonal of S / tau under a row
    softmax ("i2t": rows are queries) or a column softmax ("t2i"), as the
    contrastive node of the features (S, I), since S I^T = S exactly."""
    if direction not in ("i2t", "t2i"):
        raise ValueError(f"unknown direction {direction!r}")
    return contrastive(S, [np.eye(np.shape(S)[0])], tau)[0, ("i2t", "t2i").index(direction)]


def short_loss(V, T_short, tau) -> Tensor:
    """Bidirectional InfoNCE between image and short-text global features."""
    return contrastive(V, [T_short], tau).sum()


def long_loss(V, t_g, corners, tau) -> Tensor:
    """Bidirectional InfoNCE summed over the global and each corner feature set."""
    return contrastive(V, [t_g, *corners], tau).sum()


@dataclass
class LossBreakdown:
    total: Tensor           # the training loss, a graph node
    short: float            # its short-caption term
    long: float | None      # its long-caption terms, None without long texts

    def per_pair(self, N: int, m: int) -> dict:
        """Mean-per-pair values: loss / (N * number of directional terms)."""
        out = {"short_per_pair": self.short / (2 * N)}
        if self.long is not None:
            out["long_per_pair"] = self.long / (2 * N * (1 + m))
        return out


def total_loss(V, t_short, tau, t_long=None) -> LossBreakdown:
    """Short loss plus, given the long-text block (N, 1+m, p), global feature
    first, the long loss: the sum of one contrastive node over every set."""
    terms = contrastive(V, [t_short] + ([] if t_long is None else [t_long]), tau)
    lng = None if t_long is None else float(terms.value[1:].sum())
    return LossBreakdown(total=terms.sum(), short=float(terms.value[0].sum()), long=lng)
