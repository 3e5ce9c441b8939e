"""Corpus records, manifest I/O, statistics, and a synthetic toy generator.

A manifest is a JSONL stream, one record per line, with fields
``id``, ``image_path`` OR ``image_feature`` (list of finite reals),
``short_text``, ``long_texts`` (list of strings), and optionally
``label`` (int) and ``attributes`` (list of strings).

The synthetic generator builds records whose image feature is a
salience-weighted sum of latent attribute vectors: the short text names
only the first (dominant) attribute, while the long texts describe one
attribute per sentence, so long captions are strictly more informative.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .settings import check_settings
from .tokenizer import Vocabulary, split_subcaptions, word_tokenize

log = logging.getLogger(__name__)

ATTRIBUTE_WORDS = [
    "red", "blue", "green", "amber", "violet", "teal", "coral", "ivory",
    "round", "square", "striped", "dotted", "glossy", "matte", "woven", "carved",
    "wooden", "metal", "glass", "stone", "paper", "ceramic", "velvet", "copper",
    "tiny", "huge", "curved", "jagged", "smooth", "hollow", "bright", "faded",
]

_LONG_TEMPLATES = [
    "a {} thing.",
    "it is {}.",
]

SHORT_TEMPLATE = "a photo of a {}."


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


@dataclass
class ManifestRecord:
    id: str
    short_text: str = ""
    long_texts: list[str] = field(default_factory=list)
    image_path: str | None = None
    image_feature: np.ndarray | None = None
    label: int | None = None          # salient-attribute class, synthetic corpora only
    attributes: list[str] | None = None

    def __post_init__(self):
        def check(ok, rule):
            if not ok:
                raise ValueError(f"record {self.id}: {rule}")

        check(isinstance(self.id, str), "id must be a string")
        if self.image_feature is not None:
            try:
                feat = np.asarray(self.image_feature)
            except ValueError:                  # a ragged nesting, refused as not 1-D
                feat = np.asarray(None)
            check(feat.ndim == 1 and feat.dtype.kind in "iuf" and np.isfinite(feat).all(),
                  "image_feature must be a 1-D list of finite reals")
            check(feat.size > 0, "image_feature must not be empty")
            self.image_feature = feat.astype(np.float64, copy=False)
        check(self.label is None or type(self.label) is int, "label must be an int")
        check(self.attributes is None or _strings(self.attributes),
              "attributes must be a list of strings")
        check(isinstance(self.short_text, str), "short_text must be a string")
        check(_strings(self.long_texts), "long_texts must be a list of strings")
        for i, text in enumerate(self.long_texts):      # a blank one has no sub-caption
            check(text.strip(), f"long_texts[{i}] is blank")
        check(self.short_text or self.long_texts, "needs short_text or long_texts")
        check(self.image_path is not None or self.image_feature is not None,
              "needs image_path or image_feature")

    @property
    def has_class(self) -> bool:
        """Whether the record has a class: a label, named by attributes[0]."""
        return self.label is not None and bool(self.attributes)

    @property
    def short_caption(self) -> str:
        """What the record trains and evaluates on as its short text."""
        return self.short_text or self.long_texts[0]

    @property
    def long_caption(self) -> str:
        """What the record is evaluated on as its full long text."""
        return self.long_texts[0] if self.long_texts else self.short_text

    def to_json(self) -> str:
        """One JSON line: every field that is not None, an array as a list."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps({name: v.tolist() if isinstance(v, np.ndarray) else v
                           for name, v in values.items() if v is not None}, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ManifestRecord":
        """The record of a `to_json` line; a field without a default that the
        line lacks raises KeyError naming it."""
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError("not a JSON object")
        return cls(**{f.name: d[f.name] for f in fields(cls)
                      if f.name in d or f.default is f.default_factory is MISSING})


def save_manifest(records: list[ManifestRecord], path) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(rec.to_json() + "\n")


def load_manifest(path) -> list[ManifestRecord]:
    """Load a JSONL manifest; a line that fails to parse or validate, or whose id an
    earlier record took, is skipped with a warning."""
    records = []
    skipped = 0
    lines = {}      # id -> the line of its record
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                rec = ManifestRecord.from_json(line)
                if rec.id in lines:
                    raise ValueError(f"id {rec.id!r} is already on line {lines[rec.id]}")
                lines[rec.id] = i + 1
                records.append(rec)
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                skipped += 1
                log.warning("skipping manifest line %d: %s", i + 1, exc)
    if skipped:
        log.warning("skipped %d unreadable manifest records", skipped)
    return records


def vocabulary(records) -> Vocabulary:
    """The vocabulary of a manifest: the words of its records' short and long texts."""
    return Vocabulary.build(t for r in records for t in (r.short_text, *r.long_texts))


@dataclass
class CorpusStats:
    n_images: int
    n_texts: int
    avg_subcaptions_per_text: float
    avg_tokens_per_text: float


def corpus_stats(records) -> CorpusStats:
    """Counts and means over all texts (short and long) of a record stream; a text's
    tokens are its words plus one separator per sub-caption."""
    n_images = 0
    n_texts = 0
    sub_total = 0
    tok_total = 0
    for rec in records:
        n_images += 1
        texts = ([rec.short_text] if rec.short_text else []) + list(rec.long_texts)
        for t in texts:
            subs = split_subcaptions(t)
            n_texts += 1
            sub_total += len(subs)
            tok_total += sum(len(word_tokenize(s)) for s in subs) + len(subs)
    if n_texts == 0:
        return CorpusStats(n_images, 0, 0.0, 0.0)
    return CorpusStats(n_images, n_texts, sub_total / n_texts, tok_total / n_texts)


def generate_synthetic_corpus(
    seed: int,
    n: int,
    n_attributes: int,
    feature_dim: int,
    pool_size: int | None = None,
) -> list[ManifestRecord]:
    """Generate `n` records, each with `n_attributes` latent attributes.

    Every attribute in the pool gets a random unit vector. A record's image
    feature is the normalized salience-weighted sum of its attribute vectors
    (weight 1/(j+1) for position j). Attribute tuples are distinct across
    records whenever enough ordered tuples exist. Deterministic in `seed`.
    """
    if pool_size is None:
        pool_size = 8 * n_attributes
    given = SimpleNamespace(seed=seed, feature_dim=feature_dim, n=n, n_attributes=n_attributes,
                            pool_size=pool_size)
    check_settings(given, [("seed", seed >= 0, ">= 0"), ("feature_dim", feature_dim >= 1, ">= 1"),
                           ("n", n >= 2, ">= 2"), ("n_attributes", n_attributes >= 2, ">= 2"),
                           ("pool_size", pool_size >= n_attributes,
                            f">= n_attributes ({n_attributes})")])
    rng = np.random.default_rng(seed)

    pool = list(ATTRIBUTE_WORDS)
    while len(pool) < pool_size:
        pool.append(f"attr{len(pool)}")
    pool = pool[:pool_size]

    vectors = rng.normal(size=(pool_size, feature_dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)

    n_tuples = math.perm(pool_size, n_attributes)
    seen: set[tuple] = set()
    records = []
    weights = 1.0 / (1.0 + np.arange(n_attributes))
    for i in range(n):
        while True:
            idx = tuple(rng.choice(pool_size, size=n_attributes, replace=False).tolist())
            if n >= n_tuples or idx not in seen:
                seen.add(idx)
                break
        attrs = [pool[j] for j in idx]
        feat = (weights[:, None] * vectors[list(idx)]).sum(axis=0)
        feat /= np.linalg.norm(feat)
        short = SHORT_TEMPLATE.format(attrs[0])
        longs = [
            " ".join(tpl.format(a) for a in attrs)
            for tpl in _LONG_TEMPLATES
        ]
        records.append(ManifestRecord(
            id=f"syn{i:05d}",
            short_text=short,
            long_texts=longs,
            image_feature=feat,
            label=int(idx[0]),
            attributes=attrs,
        ))
    return records

