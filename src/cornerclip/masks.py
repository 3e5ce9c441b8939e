"""Attention masks: the corner-isolation rule plus padding.

Entry (q, k) = 1 means query position q may attend to key position k.
The corner rule blocks (q, k) iff (k is a corner, or q and k are both in
the corner-or-CLS group) and q != k: corner tokens and CLS neglect each
other but read all sub-caption tokens, and nothing reads a corner.
"""

from __future__ import annotations

import numpy as np

from .tokenizer import ROLE_CLS, ROLE_CORNER, ROLE_PAD

MASK_NEG = -1e9
MODES = ("corner", "full")      # "full": every position reads every other (no corner rule)


# a role's place in CLS CORNER* (TEXT|SEP)* PAD*, by role: CLS, CORNER, TEXT, SEP, PAD
_PLACE = np.array([0, 1, 2, 2, 3])


def validate_role_layout(roles: np.ndarray) -> None:
    """Check the CLS CORNER* (TEXT|SEP)* PAD* layout of a (L,) role array or of
    every row of a (B, L) batch: CLS at position 0 only, places never decreasing
    along a row; raise on violation."""
    roles = np.asarray(roles)
    if roles.ndim not in (1, 2) or roles.size == 0:
        raise ValueError("roles must be a nonempty 1-D array or a (B, L) batch of them")
    if np.any(roles[..., 0] != ROLE_CLS):
        raise ValueError("position 0 must be CLS")
    # the range first, so no out-of-range role is read as another role's place
    if roles.min() < 0 or roles.max() >= len(_PLACE):
        raise ValueError("malformed role layout")
    # past position 0 a place is at least the one before it, and at least 1: no second CLS
    places = _PLACE[roles]
    if np.any(places[..., 1:] < np.maximum(places[..., :-1], 1)):
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


def full_mask(roles: np.ndarray, mask_mode: str) -> np.ndarray:
    """The attention mask of `mask_mode` with padding applied: the corner rule,
    or with "full" (the register-token ablation) all ones; then every PAD key
    is read by itself only.

    `roles` is one (L,) layout or a (B, L) batch; the mask is (L, L) or (B, L, L).
    """
    if mask_mode not in MODES:
        raise ValueError(f"unknown mask_mode {mask_mode!r}")
    mask = build_corner_mask(roles)       # validates the layout in either mode
    if mask_mode == "full":
        mask = np.ones_like(mask)
    roles = np.asarray(roles)
    pad_key = (roles == ROLE_PAD)[..., None, :]
    return np.where(pad_key, np.eye(roles.shape[-1], dtype=mask.dtype), mask)


def mask_bias(mask: np.ndarray) -> np.ndarray:
    """Additive logit bias: 0 where attending is allowed, MASK_NEG where blocked."""
    return (mask.astype(np.float64) - 1.0) * (-MASK_NEG)


def format_mask(mask: np.ndarray) -> str:
    """Render a mask as a 0/1 grid, one row per line."""
    return "\n".join(" ".join(str(int(v)) for v in row) for row in mask)
