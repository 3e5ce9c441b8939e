"""Zero-shot evaluation: retrieval recall, prompt classification, FLOPs.

Retrieval uses the global text feature only. The image-to-text rule is
any-hit: an image scores when any of its paired texts lands in its top-k.
All ties break toward the lower index so results are platform-stable, and
every metric is invariant to positive rescaling of the similarity matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import image_encoder, text_encoder
from .autodiff import count_macs
from .corpus import ManifestRecord
from .image_encoder import ImageEncoderConfig
from .text_encoder import TextEncoderConfig
from .tokenizer import Vocabulary, tokenize

DEFAULT_TEMPLATES = ["a photo of a {}."]


@dataclass
class RetrievalGroundTruth:
    image_to_texts: list[list[int]]   # per image, indices of its paired texts
    text_to_image: list[int]          # per text, index of its single image

    def __post_init__(self):
        for img, texts in enumerate(self.image_to_texts):
            if not texts:
                raise ValueError(f"image {img} has no paired texts")
            for t in texts:
                if self.text_to_image[t] != img:
                    raise ValueError("ground truth is not bidirectionally consistent")
        for t, img in enumerate(self.text_to_image):
            if t not in self.image_to_texts[img]:
                raise ValueError("ground truth is not bidirectionally consistent")

    @classmethod
    def one_to_one(cls, n: int) -> "RetrievalGroundTruth":
        return cls([[i] for i in range(n)], list(range(n)))


@dataclass
class EvalReport:
    task: str
    metrics: dict = field(default_factory=dict)
    n_images: int = 0
    n_texts: int = 0

    def to_dict(self) -> dict:
        return {"task": self.task, "n_images": self.n_images,
                "n_texts": self.n_texts, **self.metrics}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def has_nan(self) -> bool:
        return any(isinstance(v, float) and not np.isfinite(v)
                   for v in self.metrics.values())


_RANK_BLOCK = 1 << 21    # score entries compared per block of queries


def _match_ranks(S: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Per row q of S, the rank of entry match[q] among the row's entries:
    #(higher) + #(equal at a lower index), which is the position a stable sort
    on descending score gives it. Rows are taken in blocks of views of S, so
    the temporaries stay small; a non-finite score raises."""
    n_rows, n_cols = S.shape
    match = np.asarray(match, dtype=np.int64)
    ranks = np.empty(n_rows, dtype=np.int64)
    cols = np.arange(n_cols)
    step = max(1, _RANK_BLOCK // n_cols)
    for lo in range(0, n_rows, step):
        block = S[lo:lo + step]
        target = match[lo:lo + step]
        if not np.isfinite(block).all():
            raise ValueError("similarity matrix has non-finite entries")
        score = block[np.arange(block.shape[0]), target][:, None]
        ranks[lo:lo + step] = np.count_nonzero(block > score, axis=1)
        equal = block == score
        if np.count_nonzero(equal) > len(block):   # a tie beyond the matches themselves
            ranks[lo:lo + step] += np.count_nonzero(equal & (cols < target[:, None]), axis=1)
    return ranks


def _best_paired(S: np.ndarray, image_to_texts: list[list[int]]) -> np.ndarray:
    """Per image, the paired text that ranks first among its pairs: the highest
    score, the lowest index among equal scores. An image's best rank over its
    paired texts is this text's rank, so any-hit reduces to one match per row."""
    sizes = [len(texts) for texts in image_to_texts]
    img = np.repeat(np.arange(len(image_to_texts)), sizes)
    txt = np.fromiter((t for texts in image_to_texts for t in texts), np.int64, len(img))
    order = np.lexsort((txt, -S[img, txt], img))
    starts = np.cumsum([0] + sizes[:-1])
    return txt[order][starts]


def recall_at_k(S: np.ndarray, gt: RetrievalGroundTruth, k: int, direction: str) -> float:
    """Fraction of queries whose match ranks in the top k (any-hit for i2t).

    O(N^2) by rank counting, with ties ranked toward the lower index."""
    S = np.asarray(S, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gt.image_to_texts or not gt.text_to_image:
        raise ValueError("empty ground truth")
    if direction == "i2t":
        ranks = _match_ranks(S, _best_paired(S, gt.image_to_texts))
    elif direction == "t2i":
        ranks = _match_ranks(S.T, gt.text_to_image)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return int(np.count_nonzero(ranks < k)) / len(ranks)


def embed_eval_set(records: list[ManifestRecord], params: dict,
                   text_cfg: TextEncoderConfig, image_cfg: ImageEncoderConfig,
                   vocab: Vocabulary, text_kind: str = "long_full",
                   batch_size: int = 64):
    """Unit-norm embedding arrays for a manifest.

    text_kind "short" embeds the short texts; "long_full" embeds the ENTIRE
    first long text (truncated to the limit) - evaluation never samples
    sub-captions. Returns (ids, image array (n,p), text array (n,p)).
    """
    if text_kind not in ("short", "long_full"):
        raise ValueError(f"unknown text_kind {text_kind!r}")
    if text_kind == "short":
        texts = [rec.short_text or rec.long_texts[0] for rec in records]
    else:
        texts = [rec.long_texts[0] if rec.long_texts else rec.short_text for rec in records]
    return ([r.id for r in records],
            image_encoder.embed_images(records, params, image_cfg, batch_size),
            embed_texts(texts, params, text_cfg, vocab, batch_size))


def embed_texts(texts: list[str], params: dict, text_cfg: TextEncoderConfig,
                vocab: Vocabulary, batch_size: int = 64) -> np.ndarray:
    """Unit-norm global text features (n, p), batch_size PAD-trimmed texts per pass."""
    seqs = [tokenize(t, text_cfg.limit, text_cfg.m, vocab) for t in texts]
    return np.concatenate([
        text_encoder.encode_text_graph(*text_encoder.stack_trimmed(seqs[i:i + batch_size]),
                                       params, text_cfg)[0].value[:, 0, :]
        for i in range(0, len(seqs), batch_size)])


def evaluate_retrieval(image_feats: np.ndarray, text_feats: np.ndarray,
                       gt: RetrievalGroundTruth, task: str = "retrieval",
                       ks=(1, 5)) -> EvalReport:
    S = image_feats @ text_feats.T
    metrics = {}
    for k in ks:
        metrics[f"i2t_r@{k}"] = recall_at_k(S, gt, k, "i2t")
        metrics[f"t2i_r@{k}"] = recall_at_k(S, gt, k, "t2i")
    return EvalReport(task=task, metrics=metrics,
                      n_images=image_feats.shape[0], n_texts=text_feats.shape[0])


def class_prototypes(class_names: list[str], templates: list[str], params: dict,
                     text_cfg: TextEncoderConfig, vocab: Vocabulary) -> np.ndarray:
    """Per class: embed each filled template, average, re-normalize."""
    if not class_names:
        raise ValueError("empty class list")
    if not templates:
        raise ValueError("need at least one template")
    prompts = [t.format(name) for name in class_names for t in templates]
    embs = embed_texts(prompts, params, text_cfg, vocab, batch_size=len(prompts))
    means = embs.reshape(len(class_names), len(templates), -1).mean(axis=1)
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def zero_shot_classify(image_feats: np.ndarray, labels: np.ndarray,
                       prototypes: np.ndarray) -> float:
    """Acc@1 of argmax-cosine prediction; ties break to the lower class index."""
    scores = image_feats @ prototypes.T
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred == np.asarray(labels)))


def classification_task(records: list[ManifestRecord]):
    """(class_names, labels) for the synthetic salient-attribute task."""
    label_names: dict[int, str] = {}
    for rec in records:
        if rec.label is None or not rec.attributes:
            raise ValueError(f"record {rec.id} carries no label")
        label_names[rec.label] = rec.attributes[0]
    classes = sorted(label_names)
    remap = {lab: i for i, lab in enumerate(classes)}
    names = [label_names[lab] for lab in classes]
    labels = np.array([remap[rec.label] for rec in records])
    return names, labels


def short_text_groups(records: list[ManifestRecord]):
    """Deduplicated short texts with any-hit ground truth.

    Returns (unique_texts, image_to_texts): each image's paired-text set is
    the single deduplicated text matching its short caption.
    """
    unique: dict[str, int] = {}
    image_to_texts = []
    for rec in records:
        image_to_texts.append([unique.setdefault(rec.short_text, len(unique))])
    return list(unique), image_to_texts


def short_retrieval_r1(records: list[ManifestRecord], params: dict,
                       text_cfg: TextEncoderConfig, image_cfg: ImageEncoderConfig,
                       vocab: Vocabulary) -> float:
    """i2t R@1 over the deduplicated short-text candidate set."""
    return short_i2t_r1(image_encoder.embed_images(records, params, image_cfg), records,
                        params, text_cfg, vocab)


def short_i2t_r1(image_feats: np.ndarray, records: list[ManifestRecord], params: dict,
                 text_cfg: TextEncoderConfig, vocab: Vocabulary) -> float:
    """`short_retrieval_r1` from the records' image features (`image_encoder.embed_images`)."""
    texts, image_to_texts = short_text_groups(records)
    S = image_feats @ embed_texts(texts, params, text_cfg, vocab, batch_size=len(texts)).T
    ranks = _match_ranks(S, _best_paired(S, image_to_texts))
    return int(np.count_nonzero(ranks == 0)) / len(records)


def flops_estimate(config: TextEncoderConfig, L_effective: int) -> int:
    """Forward-pass FLOPs (2 per multiply-accumulate) of the text encoder.

    Counts every matrix product: QKV/output projections, attention scores
    and mixing, the MLP, and the shared output projection of the r = 1+m
    pooled positions. The last block computes keys and values for all L
    positions but everything else for its r pooled rows only. Embedding
    lookups and normalizations are free.
    """
    if L_effective > config.limit:
        raise ValueError("L_effective exceeds the configured limit")
    L, d, r = L_effective, config.width, 1 + config.m
    dm = d * config.mlp_ratio

    def block(rows):     # MACs of one block computing `rows` of its L rows
        return 2 * L * d * d + 2 * rows * d * d + 2 * rows * L * d + 2 * rows * d * dm

    macs = sum(block(r if layer == config.depth - 1 else L) for layer in range(config.depth))
    macs += r * d * config.projection_dim
    return 2 * macs


def measured_text_flops(config: TextEncoderConfig, params: dict,
                        vocab: Vocabulary) -> int:
    """Instrumented matmul counter over one real forward pass (oracle)."""
    seq = tokenize("a b c d e f g h i j.", config.limit, config.m, vocab)
    with count_macs() as counter:
        text_encoder.encode_text_graph(seq.ids, seq.roles, params, config)
    return 2 * counter[0]


def export_embeddings(path, ids: list[str], image_feats: np.ndarray,
                      text_feats: np.ndarray) -> None:
    """Array dump with record ids, loadable via numpy."""
    np.savez(path, ids=np.array(ids), image=image_feats, text=text_feats)
