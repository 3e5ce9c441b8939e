"""Pre-normalization transformer blocks shared by the text and image towers."""

from __future__ import annotations

import mmap
import os
import signal

import numpy as np

from .autodiff import (Tensor, l2_normalize, layer_norm, linear, matmul, mlp, release,
                       self_attention)

# Rows per pass of every no-grad embedding (evaluation.embed_texts and
# image_encoder.embed_images). A row's features are the same bytes in any pass of
# 2 rows or more; 16 rows keep a pass's working set small at the speed of more.
# So the bytes do not change when a forked worker (embed_rows) runs the later half
# of the passes: in a process of one OS thread (POSIX's condition for a safe fork),
# on 2 CPUs or more, from WORKER_PASSES passes on (text embeddings were measured to
# break even at 8 to 28). At N = 4096 texts its private memory is about 5 MB;
# profilers in this process, perfbench's tracer too, do not see its calls.
EMBED_ROWS = 16
WORKER_PASSES = 32


def embed_chunks(n: int) -> list[slice]:
    """The row slices of a no-grad embedding's passes over n rows: EMBED_ROWS each,
    a one-row tail folded into the pass before it, since a one-row pass runs
    numpy's matrix-vector products, which sum in another order."""
    starts = list(range(0, n, EMBED_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


def worker_pays(passes: int) -> bool:
    """Whether a forked worker takes half of `passes` passes (see WORKER_PASSES)."""
    return (passes >= WORKER_PASSES and os.path.isdir("/proc/self/task")
            and len(os.sched_getaffinity(0)) >= 2 and len(os.listdir("/proc/self/task")) == 1)


def embed_rows(n: int, width: int, encode, worker: bool = True) -> np.ndarray:
    """The (n, width) features of a no-grad embedding, encode(rows) those of row slice
    `rows`, in the passes of embed_chunks. If `worker` and worker_pays, a forked worker
    runs the later half of the passes into a shared mapping, copied into the result
    once it is reaped; a worker that fails has its passes run again here, raising
    its exception. `worker` False keeps passes too light to pay for a fork here."""
    passes = embed_chunks(n)
    out = np.empty((n, width))
    half = len(passes) // 2 if worker and worker_pays(len(passes)) else 0
    if half:
        shared = np.ndarray((n, width), np.float64, mmap.mmap(-1, n * width * 8))
        if (pid := os.fork()) == 0:     # the worker: its passes, then _exit 0, or 1 on a raise
            try:
                for rows in passes[-half:]:
                    shared[rows] = encode(rows)
                os._exit(0)
            finally:
                os._exit(1)
    try:
        for rows in passes[:len(passes) - half]:
            out[rows] = encode(rows)
    except BaseException:
        if half:
            os.kill(pid, signal.SIGKILL)    # its rows are not wanted
        raise
    finally:
        failed = half and os.waitpid(pid, 0)[1]
    if failed:
        for rows in passes[-half:]:
            out[rows] = encode(rows)
    elif half:
        out[passes[-half].start:] = shared[passes[-half].start:]
    return out


def shape_rules(config) -> list:
    """The range rules of a tower's shape, shared by the text tower and the ViT."""
    return [(name, getattr(config, name) >= 1, ">= 1")
            for name in ("depth", "width", "heads", "mlp_ratio", "projection_dim")] + [
        ("width", config.heads >= 1 and config.width % config.heads == 0,
         f"divisible by heads ({config.heads})")]


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


def init_tower_params(rng: np.random.Generator, config, prefix: str, params: dict) -> None:
    """Initialize the blocks, final norm and projection of a tower shaped by `config`
    into `params` under `prefix`, drawing from `rng` after its own embeddings."""
    d = config.width
    for layer in range(config.depth):
        init_block_params(rng, d, config.mlp_ratio, f"{prefix}L{layer}.", params)
    params[f"{prefix}lnf.g"] = Tensor(np.ones(d))
    params[f"{prefix}lnf.b"] = Tensor(np.zeros(d))
    params[f"{prefix}proj"] = Tensor(rng.normal(0.0, d ** -0.5, size=(d, config.projection_dim)))


def attention(x: Tensor, params: dict, prefix: str, heads: int, bias: np.ndarray,
              collect: list | None = None, rows: int | None = None) -> Tensor:
    """Masked multi-head self-attention of the block's pre-norm of x, with its
    output projection; `bias` is an additive (B,1,L,L) logit bias. Outputs
    cover the first `rows` positions (all by default)."""
    mixed, probs = self_attention(
        x, *(params[f"{prefix}{n}"]
             for n in ("ln1.g", "ln1.b", "wq", "bq", "wk", "bk", "wv", "bv")),
        heads, bias, rows)
    if collect is not None:
        collect.append(probs)
    return linear(mixed, params[f"{prefix}wo"], params[f"{prefix}bo"])


def block_forward(x: Tensor, params: dict, prefix: str, heads: int, bias: np.ndarray,
                  collect: list | None = None, rows: int | None = None) -> Tensor:
    """One pre-norm block, whose attention and MLP nodes normalize their own
    input. With `rows`, only the first `rows` positions are computed past the
    keys and values, and the output has those rows only. Each residual-stream
    value, the input x included, is released (`autodiff.release`) once its
    last reader has run: no backward reads more than its shape."""
    a = attention(x, params, prefix, heads, bias, collect, rows)
    cut = x if rows is None else x[:, :rows]
    mid = cut + a
    release(x, cut, a)
    h = mlp(mid, *(params[f"{prefix}{n}"] for n in ("ln2.g", "ln2.b", "w1", "b1", "w2", "b2")))
    out = mid + h
    release(mid, h)
    return out


def tower(x: Tensor, params: dict, prefix: str, config, bias: np.ndarray, pooled: int,
          collect: list | None = None, every_row: bool = False):
    """A tower's blocks and final norm, shaped by `config`, then its first `pooled` rows
    projected and L2-normalized: (features (B, pooled, p), final-norm hidden states).
    The features read only those rows, so the last block computes just them,
    unless the caller reads every row: `every_row`, or probabilities into `collect`.
    The input x and each block's output are released once read, as in block_forward."""
    every_row = every_row or collect is not None
    for layer in range(config.depth):
        rows = None if every_row or layer < config.depth - 1 else pooled
        x = block_forward(x, params, f"{prefix}L{layer}.", config.heads, bias, collect, rows)
    hidden = layer_norm(x, params[f"{prefix}lnf.g"], params[f"{prefix}lnf.b"])
    release(x)
    top = hidden if hidden.shape[1] == pooled else hidden[:, :pooled]
    return l2_normalize(matmul(top, params[f"{prefix}proj"])), hidden
