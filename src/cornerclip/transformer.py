"""Pre-normalization transformer blocks shared by the text and image towers."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, gelu, layer_norm, matmul, softmax, transpose

def init_block_params(rng: np.random.Generator, d: int, mlp_ratio: int,
                      prefix: str, params: dict) -> None:
    """Initialize one block's parameters into `params` under `prefix`."""
    dm = d * mlp_ratio
    scale = d ** -0.5

    def p(name, value):
        params[f"{prefix}{name}"] = Tensor(value)

    p("ln1.g", np.ones(d))
    p("ln1.b", np.zeros(d))
    for w in ("wq", "wk", "wv", "wo"):
        p(w, rng.normal(0.0, scale, size=(d, d)))
        p("b" + w[1], np.zeros(d))
    p("ln2.g", np.ones(d))
    p("ln2.b", np.zeros(d))
    p("w1", rng.normal(0.0, scale, size=(d, dm)))
    p("b1", np.zeros(dm))
    p("w2", rng.normal(0.0, dm ** -0.5, size=(dm, d)))
    p("b2", np.zeros(d))


def _split_heads(x: Tensor, heads: int) -> Tensor:
    B, L, d = x.shape
    return transpose(x.reshape(B, L, heads, d // heads), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    B, h, L, dh = x.shape
    return transpose(x, (0, 2, 1, 3)).reshape(B, L, h * dh)


def attention(x: Tensor, params: dict, prefix: str, heads: int,
              bias: np.ndarray, collect: list | None = None) -> Tensor:
    """Masked multi-head self-attention; `bias` is an additive (B,1,L,L) logit bias."""
    dh = x.shape[-1] // heads
    q = _split_heads(matmul(x, params[f"{prefix}wq"]) + params[f"{prefix}bq"], heads)
    k = _split_heads(matmul(x, params[f"{prefix}wk"]) + params[f"{prefix}bk"], heads)
    v = _split_heads(matmul(x, params[f"{prefix}wv"]) + params[f"{prefix}bv"], heads)
    scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (dh ** -0.5) + bias
    attn = softmax(scores)
    if collect is not None:
        collect.append(attn.value)
    out = _merge_heads(matmul(attn, v))
    return matmul(out, params[f"{prefix}wo"]) + params[f"{prefix}bo"]


def block_forward(x: Tensor, params: dict, prefix: str, heads: int,
                  bias: np.ndarray, collect: list | None = None) -> Tensor:
    h = layer_norm(x, params[f"{prefix}ln1.g"], params[f"{prefix}ln1.b"])
    x = x + attention(h, params, prefix, heads, bias, collect)
    h = layer_norm(x, params[f"{prefix}ln2.g"], params[f"{prefix}ln2.b"])
    h = matmul(gelu(matmul(h, params[f"{prefix}w1"]) + params[f"{prefix}b1"]),
               params[f"{prefix}w2"]) + params[f"{prefix}b2"]
    return x + h
