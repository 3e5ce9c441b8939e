"""Image tower: unit-normalized global image embedding.

Two modes share the same output sphere: a small patch transformer with CLS
pooling on pixel inputs, or a linear projection of precomputed features
(locked-tower style training keeps this side frozen).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transformer
from .autodiff import Tensor, concat, l2_normalize, linear, matmul, release, take_rows
from .settings import check_settings

MODES = ("vit", "precomputed")
NAMESPACE = "img."      # every parameter of the tower is named NAMESPACE + its name


@dataclass
class ImageEncoderConfig:
    mode: str = "precomputed"            # one of MODES
    projection_dim: int = 32
    # precomputed mode
    input_feature_dim: int = 16
    # vit mode
    image_size: int = 32
    patch_size: int = 8
    channels: int = 3
    depth: int = 2
    width: int = 64
    heads: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        # a vit run stores input_feature_dim 0: its tower reads no features
        check_settings(self, [("mode", self.mode in MODES, f"one of {MODES}")]
                       + transformer.shape_rules(self) + [
            *((n, getattr(self, n) >= 1, ">= 1") for n in ("image_size", "patch_size", "channels")),
            ("image_size", self.patch_size >= 1 and self.image_size % self.patch_size == 0,
             f"divisible by patch_size ({self.patch_size})"),
            ("input_feature_dim", self.mode == "vit" or self.input_feature_dim >= 1, ">= 1")])

    @property
    def input_shape(self) -> tuple:      # of one example of the tower's inputs
        return ((self.input_feature_dim,) if self.mode == "precomputed"
                else (self.image_size, self.image_size, self.channels))

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels


def init_params(config: ImageEncoderConfig, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    def p(name, value):
        params[NAMESPACE + name] = Tensor(value)

    if config.mode == "precomputed":
        p("proj", rng.normal(0.0, config.input_feature_dim ** -0.5,
                             size=(config.input_feature_dim, config.projection_dim)))
        return params
    d = config.width
    p("patch_emb", rng.normal(0.0, config.patch_dim ** -0.5, size=(config.patch_dim, d)))
    p("patch_bias", np.zeros(d))
    p("cls_emb", rng.normal(0.0, 0.02, size=(1, d)))
    p("pos_emb", rng.normal(0.0, 0.02, size=(config.n_patches + 1, d)))
    transformer.init_tower_params(rng, config, NAMESPACE, params)
    return params


def patchify(images: np.ndarray, config: ImageEncoderConfig) -> np.ndarray:
    """(B, H, W, C) pixels -> (B, n_patches, patch_dim), row-major patch order."""
    B, H, W, C = images.shape
    ps = config.patch_size
    x = images.reshape(B, H // ps, ps, W // ps, ps, C)
    return x.transpose(0, 1, 3, 2, 4, 5).reshape(B, config.n_patches, config.patch_dim)


def check_records(records, config: ImageEncoderConfig) -> None:
    """Raise on the first record the tower cannot take: in precomputed mode one
    without a feature of input_feature_dim values, in vit mode one without an
    image_path (its pixels are not loaded here)."""
    for rec in records:
        if config.mode == "vit":
            if rec.image_path is None:
                raise ValueError(f"record {rec.id}: vit mode needs image_path")
        elif rec.image_feature is None:
            raise ValueError(f"record {rec.id}: precomputed mode needs image_feature")
        elif len(rec.image_feature) != config.input_feature_dim:
            raise ValueError(f"record {rec.id}: image_feature has {len(rec.image_feature)} "
                             f"values, expected {config.input_feature_dim}")


def image_inputs(records, config: ImageEncoderConfig) -> np.ndarray:
    """Stacked tower inputs of manifest records: each record's precomputed
    feature, or in vit mode the pixels of its .npy file, refused unless of input_shape."""
    check_records(records, config)
    if config.mode == "precomputed":
        return np.stack([rec.image_feature for rec in records])
    pixels = [np.load(rec.image_path) for rec in records]
    for rec, x in zip(records, pixels):
        if x.shape != config.input_shape:
            raise ValueError(f"record {rec.id}: pixel shape {x.shape}, expected {config.input_shape}")
    return np.stack(pixels)


def embed_images(records, params: dict, config: ImageEncoderConfig) -> np.ndarray:
    """Unit-norm image features (n, p) of manifest records, computed in record
    order in the passes of `transformer.embed_rows`, so they depend on nothing
    but the records and the parameters."""
    return transformer.embed_rows(len(records), config.projection_dim, lambda rows: (
        encode_image_graph(image_inputs(records[rows], config), params, config).value),
        worker=config.mode == "vit")      # a precomputed pass is one small product


def encode_image_graph(inputs: np.ndarray, params: dict, config: ImageEncoderConfig) -> Tensor:
    """Batched forward to unit-normalized global features, shape (B, p)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape[1:] != config.input_shape:
        raise ValueError(f"{config.mode} mode takes inputs of shape (batch, "
                         f"{', '.join(map(str, config.input_shape))}), got {inputs.shape}")
    if config.mode == "precomputed":
        return l2_normalize(matmul(Tensor(inputs), params[NAMESPACE + "proj"]))

    patches = patchify(inputs, config)
    B = patches.shape[0]
    proj = linear(patches, params[NAMESPACE + "patch_emb"], params[NAMESPACE + "patch_bias"])
    cls = take_rows(params[NAMESPACE + "cls_emb"], np.zeros((B, 1), dtype=np.int64))
    tokens = concat([cls, proj], axis=1)
    x = tokens + params[NAMESPACE + "pos_emb"]
    release(proj, cls, tokens)
    L = config.n_patches + 1
    feats, _ = transformer.tower(x, params, NAMESPACE, config, np.zeros((B, 1, L, L)), 1)
    return feats[:, 0]
