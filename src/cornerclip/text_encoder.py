"""Text tower: masked transformer emitting the global feature and corner features.

The encoder embeds tokens and positions, applies `depth` pre-norm blocks
under the corner attention mask, and pools positions 0..m (CLS plus corner
tokens). Pooled states go through one shared projection and are
L2-normalized: position 0 is the global text feature, positions 1..m the
corner features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import masks, transformer
from .autodiff import Tensor, release, take_rows
from .settings import check_settings, text_layout_rules
from .tokenizer import CORNER_ID_BASE, M_MAX, ROLE_CORNER, ROLE_SEP, ROLE_TEXT, TokenSequence


@dataclass
class TextEncoderConfig:
    vocab_size: int
    limit: int = 32
    m: int = 2
    depth: int = 2
    width: int = 64
    heads: int = 4
    mlp_ratio: int = 4
    projection_dim: int = 32
    mask_mode: str = "corner"

    def __post_init__(self):
        # the corner-id cap before the layout rules: an m above it is refused as
        # such whatever the limit
        check_settings(self, transformer.shape_rules(self)
                       + [("m", self.m <= M_MAX, f"<= {M_MAX} (the reserved corner ids)")]
                       + text_layout_rules(self)
                       + [("mask_mode", self.mask_mode in masks.MODES, f"one of {masks.MODES}")])


@dataclass
class TextFeatures:
    t_g: np.ndarray                     # (p,) unit vector
    corners: np.ndarray                 # (m, p) unit vectors
    hidden: np.ndarray | None = None    # (L, d) final-norm states, pre-projection


def init_params(config: TextEncoderConfig, seed: int, prefix: str = "text.") -> dict:
    """Seed-deterministic init; corner embedding rows get distinct constant offsets."""
    rng = np.random.default_rng(seed)
    d = config.width
    params: dict[str, Tensor] = {}

    tok = rng.normal(0.0, 0.02, size=(config.vocab_size, d))
    # distinct per-corner offsets so corner rows start apart from one another
    for i in range(config.m):
        tok[CORNER_ID_BASE + i] += 0.25 * (i + 1)
    params[f"{prefix}tok_emb"] = Tensor(tok)
    params[f"{prefix}pos_emb"] = Tensor(rng.normal(0.0, 0.02, size=(config.limit, d)))
    transformer.init_tower_params(rng, config, prefix, params)
    return params


def encode_text_graph(ids: np.ndarray, roles: np.ndarray, params: dict,
                      config: TextEncoderConfig, prefix: str = "text.",
                      collect_attn: list | None = None, with_hidden: bool = False,
                      corners: bool = True):
    """Batched forward. Returns (features (B, 1+m, p), hidden (B, L, d) or None)
    Tensors; hidden is given only `with_hidden`.

    Features read only positions 0..m, so the last block computes just those
    rows, unless the caller reads every row: `with_hidden` or `collect_attn`.
    `corners=False` gives the global feature alone, (B, 1, p): row 0 in the last
    block and, under the corner mask, where nothing reads a corner, no positions 1..m.
    """
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    roles = np.atleast_2d(np.asarray(roles, dtype=np.int64))
    L = ids.shape[1]
    if L > config.limit or L < config.m + 1:
        raise ValueError(f"sequence length {L} outside [m+1, limit {config.limit}]")
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError("token id out of vocabulary range")
    if not corners and (with_hidden or collect_attn is not None):
        raise ValueError("corners=False reads neither hidden states nor attention")
    pos = params[f"{prefix}pos_emb"]
    if not corners and config.mask_mode == "corner" and config.m:
        if np.any(roles[:, 1:config.m + 1] != ROLE_CORNER):
            raise ValueError(f"positions 1..{config.m} must all be corners to drop them")
        keep = np.r_[0, config.m + 1:L]
        ids, roles, pos = ids[:, keep], roles[:, keep], pos[keep]
    elif L < config.limit:
        # trailing PAD positions carry no information and attract no attention
        # weight, so a batch may be trimmed to its longest true length
        pos = pos[:L]
    # (B, 1, L, L) additive attention bias, built for the whole batch at once
    bias = masks.mask_bias(masks.full_mask(roles, config.mask_mode))[:, None, :, :]
    tokens = take_rows(params[f"{prefix}tok_emb"], ids)
    x = tokens + pos
    release(tokens)
    feats, hidden = transformer.tower(x, params, prefix, config, bias,
                                      config.m + 1 if corners else 1, collect_attn, with_hidden)
    return feats, hidden if with_hidden else None


def encode_text(seq: TokenSequence, params: dict, config: TextEncoderConfig,
                prefix: str = "text.", with_hidden: bool = False) -> TextFeatures:
    feats, hidden = encode_text_graph(seq.ids, seq.roles, params, config, prefix,
                                      with_hidden=with_hidden)
    f = feats.value[0]
    return TextFeatures(
        t_g=f[0],
        corners=f[1:config.m + 1],
        hidden=hidden.value[0] if with_hidden else None,
    )


def stack_trimmed(seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """(ids, roles) of a text batch, cut after its longest true length: the
    trailing all-PAD columns attract exactly zero attention, so cutting them
    leaves every feature unchanged while the attention cost drops."""
    L = max(s.true_length for s in seqs)
    return (np.stack([s.ids[:L] for s in seqs]), np.stack([s.roles[:L] for s in seqs]))


def distinct_rows(ids: np.ndarray, roles: np.ndarray):
    """The distinct (ids, roles) rows of a text batch in first-occurrence
    order, and the index that reads the batch back from them:
    `ids == distinct_ids[index]`. A batch with no repeated row comes back as
    it is, with the identity index."""
    seen: dict = {}
    index = np.array([seen.setdefault((i.tobytes(), r.tobytes()), len(seen))
                      for i, r in zip(ids, roles)], dtype=np.intp)
    first = np.unique(index, return_index=True)[1]
    return ids[first], roles[first], index


def content_positions(seq: TokenSequence) -> np.ndarray:
    """Indices of TEXT and SEP positions."""
    return np.where((seq.roles == ROLE_TEXT) | (seq.roles == ROLE_SEP))[0]

