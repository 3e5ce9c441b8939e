"""Attention masks: the corner-isolation rule plus padding.

Entry (q, k) = 1 means query position q may attend to key position k.
The corner rule blocks (q, k) iff (k is a corner, or q and k are both in
the corner-or-CLS group) and q != k: corner tokens and CLS neglect each
other but read all sub-caption tokens, and nothing reads a corner.
"""

from __future__ import annotations

import numpy as np

from .tokenizer import ROLE_CLS, ROLE_CORNER, ROLE_PAD, ROLE_SEP, ROLE_TEXT

MASK_NEG = -1e9
MODES = ("corner", "full")      # "full": every position reads every other (no corner rule)


# _NEXT_OK[prev, cur]: role `cur` may directly follow role `prev`; rows and
# columns in role order CLS, CORNER, TEXT, SEP, PAD
_NEXT_OK = np.array([[0, 1, 1, 1, 1],
                     [0, 1, 1, 1, 1],
                     [0, 0, 1, 1, 1],
                     [0, 0, 1, 1, 1],
                     [0, 0, 0, 0, 1]], dtype=bool)


def validate_role_layout(roles: np.ndarray) -> None:
    """Check the CLS CORNER* (TEXT|SEP)* PAD* layout of a (L,) role array or of
    every row of a (B, L) batch; raise on violation."""
    roles = np.asarray(roles)
    if roles.ndim not in (1, 2) or roles.size == 0:
        raise ValueError("roles must be a nonempty 1-D array or a (B, L) batch of them")
    if np.any(roles[..., 0] != ROLE_CLS):
        raise ValueError("position 0 must be CLS")
    # CLS never follows anything, so this also keeps CLS out of positions 1..L-1
    if (roles.min() < 0 or roles.max() >= len(_NEXT_OK)
            or not np.all(_NEXT_OK[roles[..., :-1], roles[..., 1:]])):
        raise ValueError("malformed role layout")


def build_corner_mask(roles: np.ndarray) -> np.ndarray:
    """L x L binary mask for the corner rule (B x L x L for a batch of role
    rows); padding is ignored here."""
    validate_role_layout(roles)
    roles = np.asarray(roles)
    L = roles.shape[-1]
    is_corner = roles == ROLE_CORNER
    in_group = is_corner | (roles == ROLE_CLS)
    blocked = is_corner[..., None, :] | (in_group[..., :, None] & in_group[..., None, :])
    blocked &= ~np.eye(L, dtype=bool)
    return (~blocked).astype(np.int8)


def apply_padding(mask: np.ndarray, roles: np.ndarray) -> np.ndarray:
    """Zero every PAD-key column except its own diagonal entry."""
    roles = np.asarray(roles)
    L = roles.shape[-1]
    if mask.shape != roles.shape + (L,):
        raise ValueError("mask/roles length mismatch")
    pad_key = (roles == ROLE_PAD)[..., None, :]
    return np.where(pad_key, np.eye(L, dtype=mask.dtype), mask)


def full_mask(roles: np.ndarray, mask_mode: str) -> np.ndarray:
    """The attention mask of `mask_mode` with padding applied: the corner rule,
    or with "full" (the register-token ablation) all ones.

    `roles` is one (L,) layout or a (B, L) batch; the mask is (L, L) or (B, L, L).
    """
    if mask_mode not in MODES:
        raise ValueError(f"unknown mask_mode {mask_mode!r}")
    mask = build_corner_mask(roles)       # validates the layout in either mode
    if mask_mode == "full":
        mask = np.ones_like(mask)
    return apply_padding(mask, roles)


def mask_bias(mask: np.ndarray) -> np.ndarray:
    """Additive logit bias: 0 where attending is allowed, MASK_NEG where blocked."""
    return (mask.astype(np.float64) - 1.0) * (-MASK_NEG)


def format_mask(mask: np.ndarray) -> str:
    """Render a mask as a 0/1 grid, one row per line."""
    return "\n".join(" ".join(str(int(v)) for v in row) for row in mask)
