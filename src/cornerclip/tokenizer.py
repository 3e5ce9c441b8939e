"""Word-level tokenizer with special tokens and sentence segmentation.

Text inputs are laid out as [CLS], corner tokens, then the word tokens of
each sub-caption followed by [SEP], truncated to a fixed length and padded.
A sub-caption is a sentence ending with a period; a trailing fragment
without a period is kept rather than dropped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .settings import check_settings

# Per-position role tags.
ROLE_CLS = 0
ROLE_CORNER = 1
ROLE_TEXT = 2
ROLE_SEP = 3
ROLE_PAD = 4

# Reserved token ids; corner i < M_MAX has id CORNER_ID_BASE + i.
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
CORNER_ID_BASE, M_MAX = 4, 8
_RESERVED = {"[PAD]": PAD_ID, "[UNK]": UNK_ID, "[CLS]": CLS_ID, "[SEP]": SEP_ID,
             **{f"[COR_{i + 1}]": CORNER_ID_BASE + i for i in range(M_MAX)}}

_WORD_RE = re.compile(r"[a-z0-9]+")
_SUBCAPTION_RE = re.compile(r"[^.]*\.|[^.]+$")


def word_tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation; punctuation is dropped."""
    return _WORD_RE.findall(text.lower())


def split_subcaptions(text: str) -> list[str]:
    """Split a text into period-terminated sentences.

    A trailing fragment without a period is returned as a final sub-caption.
    """
    return [s for s in (m.strip() for m in _SUBCAPTION_RE.findall(text)) if s]


def sample_consecutive(subcaps: list[str], k: int, rng: np.random.Generator) -> str:
    """Join min(k, len) consecutive sub-captions starting at an rng-uniform index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not subcaps:
        raise ValueError("empty long text")
    k = min(k, len(subcaps))
    start = int(rng.integers(0, len(subcaps) - k + 1))
    return " ".join(subcaps[start:start + k])


def text_layout_rules(layout) -> list:
    """The rules of a text layout of `layout.limit` positions with `layout.m`
    corners: each corner has a reserved id, and [CLS], the corners and one [SEP]
    fit. The cap comes first, so an m above it is refused as such whatever the limit."""
    m = layout.m
    return [("m", m <= M_MAX, f"<= {M_MAX} (the reserved corner ids)"), ("m", m >= 0, ">= 0"),
            ("limit", layout.limit >= m + 2, f">= m + 2 ({m + 2})")]


@dataclass
class Vocabulary:
    """Token-to-id map: the reserved ids PAD_ID, UNK_ID, CLS_ID, SEP_ID and
    CORNER_ID_BASE + i for corner i < M_MAX, then the words in sorted order."""

    token_to_id: dict[str, int] = field(default_factory=lambda: dict(_RESERVED))

    def __post_init__(self):
        self._id_to_token = {v: k for k, v in self.token_to_id.items()}

    def __len__(self) -> int:
        return len(self.token_to_id)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def token_of(self, tid: int) -> str:
        return self._id_to_token[tid]

    @classmethod
    def build(cls, texts) -> "Vocabulary":
        """Build a vocabulary from an iterable of texts (sorted word order)."""
        table = dict(_RESERVED)
        for w in sorted({w for text in texts for w in word_tokenize(text)}):
            table[w] = len(table)
        return cls(token_to_id=table)


@dataclass
class TokenSequence:
    """Fixed-length token ids with a role tag per position."""

    ids: np.ndarray      # (limit,) int64
    roles: np.ndarray    # (limit,) int64
    true_length: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.roles = np.asarray(self.roles, dtype=np.int64)


def tokenize(text: str, limit: int, m: int, vocab: Vocabulary) -> TokenSequence:
    """Produce [CLS], COR_1..COR_m, words + [SEP] per sub-caption, pad to limit."""
    layout = SimpleNamespace(limit=limit, m=m)
    check_settings(layout, text_layout_rules(layout))
    ids = [CLS_ID] + [CORNER_ID_BASE + i for i in range(m)]
    roles = [ROLE_CLS] + [ROLE_CORNER] * m
    for sub in split_subcaptions(text):
        for w in word_tokenize(sub):
            ids.append(vocab.id_of(w))
            roles.append(ROLE_TEXT)
        ids.append(SEP_ID)
        roles.append(ROLE_SEP)
    ids = ids[:limit]
    roles = roles[:limit]
    true_length = len(ids)
    ids += [PAD_ID] * (limit - true_length)
    roles += [ROLE_PAD] * (limit - true_length)
    return TokenSequence(np.array(ids), np.array(roles), true_length)


def detokenize(seq: TokenSequence, vocab: Vocabulary) -> list[str]:
    """Tokens at non-PAD positions, for debugging."""
    return [vocab.token_of(int(t)) for t, r in zip(seq.ids, seq.roles) if r != ROLE_PAD]
