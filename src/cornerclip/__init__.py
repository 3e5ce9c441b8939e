"""Toy-scale dual-encoder language-image pretraining with corner tokens."""

from .corpus import (
    CorpusStats,
    ManifestRecord,
    corpus_stats,
    generate_synthetic_corpus,
    load_manifest,
    save_manifest,
)
from .evaluation import (
    EvalReport,
    RetrievalGroundTruth,
    flops_estimate,
    recall_at_k,
    zero_shot_classify,
)
from .image_encoder import ImageEncoderConfig, encode_image_graph
from .masks import apply_padding, build_corner_mask
from .objective import info_nce, long_loss, short_loss, total_loss
from .text_encoder import TextEncoderConfig, TextFeatures, dump_attention, encode_text
from .tokenizer import TokenSequence, Vocabulary, sample_consecutive, split_subcaptions, tokenize
from .train import TrainConfig, run_training

__all__ = [
    "CorpusStats", "ManifestRecord", "corpus_stats", "generate_synthetic_corpus",
    "load_manifest", "save_manifest", "EvalReport", "RetrievalGroundTruth",
    "flops_estimate", "recall_at_k", "zero_shot_classify", "ImageEncoderConfig",
    "encode_image_graph", "apply_padding", "build_corner_mask", "info_nce",
    "long_loss", "short_loss", "total_loss", "TextEncoderConfig",
    "TextFeatures", "dump_attention", "encode_text", "TokenSequence", "Vocabulary",
    "sample_consecutive", "split_subcaptions", "tokenize", "TrainConfig", "run_training",
]
