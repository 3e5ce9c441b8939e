"""Zero-shot evaluation: retrieval recall, prompt classification, FLOPs.

Retrieval uses the global text feature only. The image-to-text rule is
any-hit: an image scores when any of its paired texts lands in its top-k.
All ties break toward the lower index so results are platform-stable, and
every metric is invariant to positive rescaling of the similarity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import image_encoder, text_encoder, transformer
from .autodiff import count_macs
from .corpus import SHORT_TEMPLATE, ManifestRecord
from .image_encoder import ImageEncoderConfig
from .text_encoder import TextEncoderConfig
from .tokenizer import Vocabulary, tokenize

DEFAULT_TEMPLATES = [SHORT_TEMPLATE]


@dataclass
class RetrievalGroundTruth:
    image_to_texts: list[list[int]]          # per image, indices of its paired texts
    text_to_image: list[int] | None = None   # per text, its image; None if it may have several

    def __post_init__(self):
        image_of = self.text_to_image
        _check_pairs(self.image_to_texts, None if image_of is None else len(image_of))
        if image_of is None:
            return
        n_images = len(self.image_to_texts)
        for t, img in enumerate(image_of):
            if not 0 <= img < n_images:
                raise ValueError(f"text {t} pairs with image {img}, "
                                 f"but there are {n_images} images")
        if (any(image_of[t] != img for img, texts in enumerate(self.image_to_texts)
                for t in texts)
                or any(t not in self.image_to_texts[img] for t, img in enumerate(image_of))):
            raise ValueError("ground truth is not bidirectionally consistent")

    @classmethod
    def one_to_one(cls, n: int) -> "RetrievalGroundTruth":
        return cls([[i] for i in range(n)], list(range(n)))


def _check_pairs(image_to_texts: list[list[int]], n_texts: int | None) -> None:
    """Refuse an image without paired texts, or with a text index below 0 or, given
    n_texts, at or past it, naming the image."""
    for img, texts in enumerate(image_to_texts):
        if not texts or min(texts) < 0:
            raise ValueError(f"image {img} has no paired texts (or a negative index): {texts}")
        if n_texts is not None and max(texts) >= n_texts:
            raise ValueError(f"image {img} pairs with text {max(texts)}, "
                             f"but there are {n_texts} texts")


@dataclass
class EvalReport:
    task: str
    metrics: dict = field(default_factory=dict)
    n_images: int = 0
    n_texts: int = 0


_RANK_BLOCK = 1 << 16    # score entries per row block: 512 KiB of float64, 16 rows at N = 4096


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


def _ahead(S: np.ndarray, score: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row q of S, the entries above score[q] plus those equal to it left of
    column target[q] (which may lie outside S): a stable sort's rank of that match."""
    ahead = np.count_nonzero(S > score[:, None], axis=1)
    equal = S == score[:, None]
    own = np.count_nonzero((target >= 0) & (target < S.shape[1]))   # matches tie themselves
    if np.count_nonzero(equal) > own:
        ahead += np.count_nonzero(equal & (np.arange(S.shape[1]) < target[:, None]), axis=1)
    return ahead


def _ranks(row_block, shape, image_to_texts, text_to_image=None) -> dict:
    """Ranks (see `_ahead`) of the matches in scores S (images x texts) of `shape`,
    read only as row blocks row_block(lo, hi) = S[lo:hi] of about _RANK_BLOCK entries:
    "i2t" per image, of its best paired text; given text_to_image, "t2i" per text, of
    its image, counted down the columns in a second pass, so row_block must give
    the same scores on each call. Non-finite scores raise."""
    counts = (len(image_to_texts), shape[1] if text_to_image is None else len(text_to_image))
    if counts != tuple(shape):
        raise ValueError(f"ground truth pairs {counts[0]} images with {counts[1]} texts, "
                         f"but the scores are {shape[0]} x {shape[1]}")
    if not all(counts):
        raise ValueError("empty ground truth")
    _check_pairs(image_to_texts, shape[1])
    step = max(1, _RANK_BLOCK // shape[1])
    image_of = np.asarray([] if text_to_image is None else text_to_image, np.int64)
    ranks, match = {"i2t": np.empty(shape[0], np.int64)}, np.empty(shape[1])
    for lo in range(0, shape[0], step):
        S = row_block(lo, lo + step)
        if not np.isfinite(S).all():
            raise ValueError("similarity matrix has non-finite entries")
        best = _best_paired(S, image_to_texts[lo:lo + step])
        ranks["i2t"][lo:lo + step] = _ahead(S, S[np.arange(len(S)), best], best)
        mine = np.flatnonzero(image_of // step == lo // step)
        match[mine] = S[image_of[mine] - lo, mine]
    if text_to_image is not None:
        ranks["t2i"] = sum(_ahead(row_block(lo, lo + step).T, match, image_of - lo)
                           for lo in range(0, shape[0], step))
    return ranks


def recall_at_k(S: np.ndarray, gt: RetrievalGroundTruth, k: int, direction: str) -> float:
    """Fraction of queries whose match ranks in the top k (any-hit for i2t).

    O(N^2) by rank counting, with ties ranked toward the lower index."""
    S = np.asarray(S, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be >= 1")
    if direction not in ("i2t", "t2i"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "t2i" and gt.text_to_image is None:
        raise ValueError("t2i needs the ground truth's text_to_image, which is None")
    ranks = _ranks(lambda lo, hi: S[lo:hi], S.shape, gt.image_to_texts,
                   gt.text_to_image if direction == "t2i" else None)[direction]
    return int(np.count_nonzero(ranks < k)) / len(ranks)


def embed_eval_set(records: list[ManifestRecord], params: dict,
                   text_cfg: TextEncoderConfig, image_cfg: ImageEncoderConfig,
                   vocab: Vocabulary, text_kind: str = "long_full"):
    """Unit-norm embedding arrays for a manifest.

    text_kind "short" embeds each record's `short_caption`; "long_full" its
    `long_caption`, the ENTIRE first long text (truncated to the limit) -
    evaluation never samples sub-captions. Returns (ids, image array (n,p),
    text array (n,p)).
    """
    if text_kind not in ("short", "long_full"):
        raise ValueError(f"unknown text_kind {text_kind!r}")
    texts = [rec.short_caption if text_kind == "short" else rec.long_caption
             for rec in records]
    return ([r.id for r in records], image_encoder.embed_images(records, params, image_cfg),
            embed_texts(texts, params, text_cfg, vocab))


def embed_texts(texts: list[str], params: dict, text_cfg: TextEncoderConfig,
                vocab: Vocabulary) -> np.ndarray:
    """Unit-norm global text features (n, p), PAD-trimmed texts in the passes of
    `transformer.embed_chunks`, each batch tokenized as it is encoded."""

    def features(batch):
        seqs = [tokenize(t, text_cfg.limit, text_cfg.m, vocab) for t in batch]
        return text_encoder.encode_text_graph(*text_encoder.stack_trimmed(seqs), params,
                                              text_cfg, corners=False)[0].value[:, 0]

    return np.concatenate([features(texts[rows])
                           for rows in transformer.embed_chunks(len(texts))])


def _score_blocks(image_feats: np.ndarray, text_feats: np.ndarray):
    """(lo, hi) -> image_feats[lo:hi] @ text_feats.T, the features checked finite first."""
    for name, feats in (("image", image_feats), ("text", text_feats)):
        if not np.isfinite(feats).all():
            raise ValueError(f"{name} features have non-finite entries")
    return lambda lo, hi: image_feats[lo:hi] @ text_feats.T


def evaluate_retrieval(image_feats: np.ndarray, text_feats: np.ndarray,
                       gt: RetrievalGroundTruth, task: str = "retrieval",
                       ks=(1, 5)) -> EvalReport:
    """Recall@k for each k in ks both ways (i2t alone when gt has no text_to_image), from
    one ranking per direction over row blocks image_feats[lo:hi] @ text_feats.T."""
    if image_feats.shape[1] != text_feats.shape[1]:
        raise ValueError(f"image features have width {image_feats.shape[1]}, "
                         f"text features {text_feats.shape[1]}")
    if any(k < 1 for k in ks):
        raise ValueError(f"k must be >= 1, got ks={list(ks)}")
    ranks = _ranks(_score_blocks(image_feats, text_feats),
                   (len(image_feats), len(text_feats)), gt.image_to_texts, gt.text_to_image)
    metrics = {f"{d}_r@{k}": int(np.count_nonzero(ranks[d] < k)) / len(ranks[d])
               for k in ks for d in ranks}
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
    embs = embed_texts(prompts, params, text_cfg, vocab)
    means = embs.reshape(len(class_names), len(templates), -1).mean(axis=1)
    return means / np.linalg.norm(means, axis=1, keepdims=True)


def zero_shot_classify(image_feats: np.ndarray, labels: np.ndarray,
                       prototypes: np.ndarray) -> float:
    """Acc@1 of argmax-cosine prediction; ties break to the lower class index."""
    scores = image_feats @ prototypes.T
    pred = np.argmax(scores, axis=1)
    return float(np.mean(pred == np.asarray(labels)))


def classification_task(records: list[ManifestRecord]):
    """(class_names, labels) of the records' classes (`ManifestRecord.has_class`),
    the labels numbered 0.. in label order. A record without a class is refused,
    naming what it lacks, and so are two records that give one label two names, or
    one name two labels (the two prototypes would tie)."""
    named: dict[int, ManifestRecord] = {}       # per label, its first record
    labelled: dict[str, ManifestRecord] = {}    # per class name, its first record
    for rec in records:
        if not rec.has_class:
            raise ValueError(f"record {rec.id} carries " + (
                "no label" if rec.label is None else
                f"label {rec.label} but no attributes to name its class (attributes[0])"))
        first, same = named.setdefault(rec.label, rec), labelled.setdefault(rec.attributes[0], rec)
        if first.attributes[0] != rec.attributes[0]:
            raise ValueError(f"records {first.id} and {rec.id} both carry label {rec.label} "
                             f"but name it {first.attributes[0]!r} and {rec.attributes[0]!r}")
        if same.label != rec.label:
            raise ValueError(f"records {same.id} and {rec.id} carry labels {same.label} and "
                             f"{rec.label} but both name them {rec.attributes[0]!r}")
    classes = sorted(named)
    return ([named[lab].attributes[0] for lab in classes],
            np.searchsorted(classes, [rec.label for rec in records]))


def record_classes(records: list[ManifestRecord]):
    """`classification_task(records)`, or None when no record has a class."""
    return classification_task(records) if any(r.has_class for r in records) else None


def short_retrieval(records: list[ManifestRecord], image_feats: np.ndarray, params: dict,
                    text_cfg: TextEncoderConfig, vocab: Vocabulary, ks=(1, 5)) -> EvalReport:
    """`evaluate_retrieval` of the records' image features against the distinct short
    captions as token sequences at the model's limit and m (captions apart in case alone
    would tie), any-hit and with no t2i: several records share a caption."""
    seqs = [tokenize(rec.short_caption, text_cfg.limit, text_cfg.m, vocab) for rec in records]
    group = text_encoder.distinct_rows(*text_encoder.stack_trimmed(seqs))[2]
    texts = [records[i].short_caption for i in np.unique(group, return_index=True)[1]]
    return evaluate_retrieval(image_feats, embed_texts(texts, params, text_cfg, vocab),
                              RetrievalGroundTruth([[g] for g in group.tolist()]), "short", ks)


def short_retrieval_r1(records: list[ManifestRecord], params: dict,
                       text_cfg: TextEncoderConfig, image_cfg: ImageEncoderConfig,
                       vocab: Vocabulary) -> float:
    """i2t R@1 of `short_retrieval` over the records' embedded images."""
    image_feats = image_encoder.embed_images(records, params, image_cfg)
    return short_retrieval(records, image_feats, params, text_cfg, vocab,
                           ks=(1,)).metrics["i2t_r@1"]


def evaluate(records: list[ManifestRecord], params: dict, text_cfg: TextEncoderConfig,
             image_cfg: ImageEncoderConfig, vocab: Vocabulary,
             image_feats: np.ndarray | None = None,
             text_feats: np.ndarray | None = None) -> dict:
    """A model's report on a manifest: long_{i2t,t2i}_r@{1,5} over the records'
    long_full texts, short_r@{1,5} image to text over the distinct short captions,
    cls_acc@1 of the prompt prototypes when a record has a class, and the counts
    n_images, n_texts, n_short_texts. It embeds whichever long_full array of
    `embed_eval_set` it is not given (a frozen run gives its image features).
    Classes that `record_classes` refuses are refused before anything is embedded."""
    classes = record_classes(records)
    if image_feats is None:
        image_feats = image_encoder.embed_images(records, params, image_cfg)
    if text_feats is None:
        text_feats = embed_texts([r.long_caption for r in records], params, text_cfg, vocab)
    long = evaluate_retrieval(image_feats, text_feats,
                              RetrievalGroundTruth.one_to_one(len(records)))
    short = short_retrieval(records, image_feats, params, text_cfg, vocab)
    report = {"n_images": long.n_images, "n_texts": long.n_texts, "n_short_texts": short.n_texts,
              **{f"long_{k}": v for k, v in long.metrics.items()},
              **{k.replace("i2t", "short"): v for k, v in short.metrics.items()}}
    if classes is not None:
        names, labels = classes
        protos = class_prototypes(names, DEFAULT_TEMPLATES, params, text_cfg, vocab)
        report["cls_acc@1"] = zero_shot_classify(image_feats, labels, protos)
    return report


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
