"""Training engine: batch assembly, gradients, AdamW updates, checkpointing.

Everything downstream of (seed, corpus, config) is deterministic: each
step draws its batch from a stateless per-step generator, so resuming
from a checkpoint reproduces the uninterrupted metrics stream exactly.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import reprlib
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import checkpoint as ckpt
from . import image_encoder, objective, text_encoder
from .autodiff import Tensor
from .corpus import ManifestRecord
from .image_encoder import ImageEncoderConfig
from .settings import SettingError, check_settings
from .text_encoder import TextEncoderConfig
from .tokenizer import (TokenSequence, Vocabulary, sample_consecutive, split_subcaptions,
                        tokenize)

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 32
    steps: int = 600
    lr: float = 1e-3
    weight_decay: float = 0.01
    warmup_steps: int = 50
    lr_schedule: str = "constant"        # {"constant", "cosine"}
    seed: int = 0
    k_subcaptions: int = 3
    use_long_texts: bool = True          # False means short-only training
    mask_mode: str = "corner"
    m: int = 2
    freeze_image: bool = False
    tau_init: float = 0.07
    # model shape
    limit: int = 32
    text_depth: int = 2
    text_width: int = 64
    text_heads: int = 4
    projection_dim: int = 32
    image_mode: str = "precomputed"
    # bookkeeping
    checkpoint_every: int = 0            # 0 disables periodic checkpoints

    def __post_init__(self):
        tau = (objective.TAU_MIN, objective.TAU_MAX)
        check_settings(self, (
            ("batch_size", self.batch_size >= 2, ">= 2"),
            ("steps", self.steps >= 1, ">= 1"),
            ("lr", 0 < self.lr < np.inf, "finite and > 0"),
            ("weight_decay", 0 <= self.weight_decay < np.inf, "finite and >= 0"),
            ("lr_schedule", self.lr_schedule in ("constant", "cosine"), "constant or cosine"),
            ("k_subcaptions", self.k_subcaptions >= 1, ">= 1"),
            ("tau_init", tau[0] <= self.tau_init <= tau[1], f"in [{tau[0]}, {tau[1]}]"),
            *((n, getattr(self, n) >= 0, ">= 0") for n in ("warmup_steps", "seed",
                                                           "checkpoint_every"))))
        make_configs(Vocabulary(), self, 1)     # the shape fields obey the towers' rules


# TrainConfig's shape fields, each with the tower config field it sets: the towers
# are derived from these tables alone, and the meta stores the fields there only
TEXT_SHAPE = {"limit": "limit", "m": "m", "mask_mode": "mask_mode", "text_depth": "depth",
              "text_width": "width", "text_heads": "heads", "projection_dim": "projection_dim"}
IMAGE_SHAPE = {"image_mode": "mode", "projection_dim": "projection_dim"}


def make_configs(vocab: Vocabulary, cfg: TrainConfig, feature_dim: int):
    """The run's (text, image) tower configs."""
    text, image = ({field: getattr(cfg, name) for name, field in table.items()}
                   for table in (TEXT_SHAPE, IMAGE_SHAPE))
    return (TextEncoderConfig(vocab_size=len(vocab), **text),
            ImageEncoderConfig(input_feature_dim=feature_dim, **image))


def build_model(text_cfg: TextEncoderConfig, image_cfg: ImageEncoderConfig,
                seed: int, tau_init: float = 0.07):
    """Flat parameter dict: each tower's under its NAMESPACE, and the objective's obj.s."""
    params = text_encoder.init_params(text_cfg, seed)
    params.update(image_encoder.init_params(image_cfg, seed + 1))
    params["obj.s"] = objective.initial_log_scale(tau_init)
    return params


@dataclass
class Batch:
    indices: np.ndarray
    short_ids: np.ndarray
    short_roles: np.ndarray
    image_inputs: np.ndarray | None = None      # what the image tower reads, or
    image_features: np.ndarray | None = None    # what a frozen tower gave for them
    long_ids: np.ndarray | None = None
    long_roles: np.ndarray | None = None
    n_long_fallback: int = 0


@dataclass
class RecordTexts:
    """A record's texts in the form every step reads them."""
    short: TokenSequence                  # the short caption, tokenized
    long_subcaptions: list[list[str]]     # each long caption, split into sub-captions;
                                          # empty when the long branch is off


def prepare_texts(records: list[ManifestRecord], vocab: Vocabulary,
                  text_cfg: TextEncoderConfig, cfg: TrainConfig) -> list[RecordTexts]:
    """Per record, the step-invariant text work, done once per run."""
    return [RecordTexts(tokenize(r.short_caption, text_cfg.limit, text_cfg.m, vocab),
                        [split_subcaptions(t) for t in r.long_texts]
                        if cfg.use_long_texts else [])
            for r in records]


def _check_batch_fits(records: list[ManifestRecord], cfg: TrainConfig) -> None:
    if len(records) < cfg.batch_size:
        raise ValueError(f"manifest has {len(records)} records < batch_size {cfg.batch_size}")


def assemble_batch(records: list[ManifestRecord], vocab: Vocabulary,
                   text_cfg: TextEncoderConfig, cfg: TrainConfig,
                   rng: np.random.Generator,
                   image_cfg: ImageEncoderConfig,
                   texts: list[RecordTexts] | None = None,
                   image_features: np.ndarray | None = None) -> Batch:
    """One training batch. `texts` is `prepare_texts(records, ...)`, made here
    when not given. With `image_features`, the (n, p) features of all records,
    the batch takes its rows of them and no tower inputs."""
    _check_batch_fits(records, cfg)
    if texts is None:
        texts = prepare_texts(records, vocab, text_cfg, cfg)
    idx = rng.choice(len(records), size=cfg.batch_size, replace=False)
    chosen_texts = [texts[int(i)] for i in idx]

    short_ids, short_roles = text_encoder.stack_trimmed([t.short for t in chosen_texts])
    batch = Batch(indices=idx, short_ids=short_ids, short_roles=short_roles)
    if image_features is None:
        batch.image_inputs = image_encoder.image_inputs([records[int(i)] for i in idx],
                                                        image_cfg)
    else:
        batch.image_features = image_features[idx]
    if not cfg.use_long_texts:
        return batch
    long_seqs = []
    for t in chosen_texts:
        if t.long_subcaptions:
            pick = int(rng.integers(0, len(t.long_subcaptions)))
            text = sample_consecutive(t.long_subcaptions[pick], cfg.k_subcaptions, rng)
            long_seqs.append(tokenize(text, text_cfg.limit, text_cfg.m, vocab))
        else:
            long_seqs.append(t.short)
            batch.n_long_fallback += 1
    batch.long_ids, batch.long_roles = text_encoder.stack_trimmed(long_seqs)
    return batch


def compute_loss(params: dict, batch: Batch, text_cfg: TextEncoderConfig,
                 image_cfg: ImageEncoderConfig, cfg: TrainConfig):
    """Build the loss graph; returns (breakdown, tau tensor).

    Short captions repeat within a batch, so each text batch is encoded once
    per distinct row and each pair reads its row back through an advanced
    index, whose backward sums the gradients of the repeats. The graph has
    the same nodes whether or not a batch repeats a row.
    """
    tau = objective.temperature(params["obj.s"])
    v = (Tensor(batch.image_features) if batch.image_features is not None
         else image_encoder.encode_image_graph(batch.image_inputs, params, image_cfg))
    ids, roles, short_index = text_encoder.distinct_rows(batch.short_ids, batch.short_roles)
    short_feats, _ = text_encoder.encode_text_graph(ids, roles, params, text_cfg, corners=False)
    if batch.long_ids is None:
        return objective.total_loss(v, short_feats[short_index], tau), tau
    ids, roles, long_index = text_encoder.distinct_rows(batch.long_ids, batch.long_roles)
    long_feats, _ = text_encoder.encode_text_graph(ids, roles, params, text_cfg)
    return objective.total_loss(v, short_feats[short_index], tau, long_feats[long_index]), tau


def trainable_names(params: dict, cfg: TrainConfig) -> list[str]:
    return [n for n in sorted(params)
            if not (cfg.freeze_image and n.startswith(image_encoder.NAMESPACE))]


def gradients(params: dict, batch: Batch, text_cfg: TextEncoderConfig,
              image_cfg: ImageEncoderConfig, cfg: TrainConfig):
    """Exact gradients of the total loss for every trainable parameter, or the loss's
    FloatingPointError, raised before backward on a non-finite similarity or temperature.

    This is the only place parameters are marked, and only until it returns:
    exactly the trainable ones require a gradient, so backward never enters a
    frozen tower, and every other forward pass builds no graph. The returned
    arrays are the leaves' own gradients, which may be shared with other
    arrays of the graph: read them, never write them.
    """
    names = trainable_names(params, cfg)
    trainable = set(names)
    for name, t in params.items():
        t.grad = None
        t.requires_grad = name in trainable
    try:
        breakdown, tau = compute_loss(params, batch, text_cfg, image_cfg, cfg)
        breakdown.total.backward()
    finally:
        for t in params.values():
            t.requires_grad = False
    grads = {}
    for name in names:
        g = params[name].grad
        grads[name] = np.zeros_like(params[name].value) if g is None else g
    return grads, breakdown, float(np.asarray(tau.value).reshape(-1)[0])


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def create(cls, params: dict, names: list[str]) -> "AdamState":
        return cls(m={n: np.zeros_like(params[n].value) for n in names},
                   v={n: np.zeros_like(params[n].value) for n in names})


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Learning rate at 1-based step: linear warmup, then constant or cosine."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr * step / cfg.warmup_steps
    if cfg.lr_schedule == "constant":
        return cfg.lr
    span = max(cfg.steps - cfg.warmup_steps, 1)
    progress = min((step - cfg.warmup_steps) / span, 1.0)
    return cfg.lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def _decays(arr: np.ndarray) -> bool:
    # decay matrices only; gains, biases, and the temperature are exempt
    return arr.ndim >= 2


def train_step(params: dict, opt: AdamState, batch: Batch,
               text_cfg: TextEncoderConfig, image_cfg: ImageEncoderConfig,
               cfg: TrainConfig, step: int) -> dict:
    """One AdamW update (decoupled weight decay); returns the step metrics.

    The moments `opt.m`, `opt.v` and each parameter's `value` are updated in
    place, through two scratch arrays per parameter: copy a `value` to keep it.
    Each parameter's gradient is released right after its update, so no
    parameter holds a `grad` when the step returns.
    """
    t0 = time.perf_counter()
    grads, breakdown, tau_val = gradients(params, batch, text_cfg, image_cfg, cfg)
    opt.step += 1
    lr = lr_at(cfg, step)
    c1, c2 = 1 - ADAM_BETA1 ** opt.step, 1 - ADAM_BETA2 ** opt.step
    gnorm_sq = 0.0
    for name in sorted(grads):
        g, m, v, p = grads.pop(name), opt.m[name], opt.v[name], params[name].value
        params[name].grad = None
        # explicit out= throughout: a ufunc on a 0-d array (obj.s) returns a scalar
        a, b = np.empty_like(g), np.empty_like(g)
        gnorm_sq += float(np.multiply(g, g, out=a).sum())
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(g, 1 - ADAM_BETA2, out=a), g, out=a)
        np.divide(m, c1, out=a)                             # mhat
        np.sqrt(np.divide(v, c2, out=b), out=b)             # sqrt(vhat)
        b += ADAM_EPS
        a /= b                                              # the Adam update
        if cfg.weight_decay and _decays(p):
            a += np.multiply(p, cfg.weight_decay, out=b)
        a *= lr
        p -= a
    metrics = {
        "step": step,
        "loss_total": float(breakdown.total.value),
        "loss_short": breakdown.short,
        "loss_long": breakdown.long if breakdown.long is not None else 0.0,
        "tau": tau_val,
        "grad_norm": float(np.sqrt(gnorm_sq)),
        "lr": float(lr),
        "n_long_fallback": batch.n_long_fallback,
    }
    metrics.update(breakdown.per_pair(cfg.batch_size, text_cfg.m))
    log.debug("step %d: loss=%.4f (%.3fs)", step, metrics["loss_total"],
              time.perf_counter() - t0)
    return metrics


def step_rng(seed: int, step: int) -> np.random.Generator:
    """Stateless per-step generator; resuming needs no carried RNG state."""
    return np.random.default_rng([seed, step])


def metrics_line(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True)


@dataclass
class TrainResult:
    params: dict
    opt: AdamState
    metrics: list[dict]
    text_cfg: TextEncoderConfig
    image_cfg: ImageEncoderConfig
    vocab: Vocabulary
    image_features: np.ndarray | None = None    # a frozen tower's, per record


def checkpoint_meta(cfg: TrainConfig, text_cfg: TextEncoderConfig,
                    image_cfg: ImageEncoderConfig, vocab: Vocabulary) -> dict:
    return {
        "train_config": {k: v for k, v in dataclasses.asdict(cfg).items()
                         if k not in TEXT_SHAPE and k not in IMAGE_SHAPE},
        "text_config": dataclasses.asdict(text_cfg),
        "image_config": dataclasses.asdict(image_cfg),
        "vocab": {"token_to_id": vocab.token_to_id},
    }


def _refuse_stale(meta: dict, current: dict) -> None:
    """Refuse a meta whose sections hold fields that `current`, the current format, lacks."""
    for section, fields in current.items():
        stale = sorted(set(meta[section]) - set(fields))
        if stale:
            raise ckpt.CheckpointError(
                f"checkpoint {section} has fields {stale} that the current format does "
                "not store there: the checkpoint predates the current format")


RESUMABLE = ("steps", "checkpoint_every")    # the train_config fields a resume may change


def check_resume_meta(stored: dict, expected: dict) -> None:
    """Refuse a checkpoint whose meta differs from the resuming run's anywhere
    but in the RESUMABLE fields; the error names the first differing field,
    train_config fields bare and the others as `section.field`."""
    expected = json.loads(json.dumps(expected))        # in the form a checkpoint stores it
    if sorted(stored) != sorted(expected):
        raise ckpt.CheckpointError(f"checkpoint meta sections mismatch: stored "
                                   f"{sorted(stored)}, expected {sorted(expected)}")
    _refuse_stale(stored, expected)
    for section, want in expected.items():
        got = stored[section]
        prefix = "" if section == "train_config" else f"{section}."
        for name in {**got, **want}:
            if got.get(name) != want.get(name) and f"{prefix}{name}" not in RESUMABLE:
                raise ckpt.CheckpointError(
                    f"checkpoint field {prefix + name!r} mismatch: stored "
                    f"{reprlib.repr(got.get(name))}, expected {reprlib.repr(want.get(name))}")


def vocab_from_meta(meta: dict) -> Vocabulary:
    """The checkpoint's vocabulary, its token table (an older meta's `m_max` beside
    it is not read: the model's m was checked against this table when it trained)."""
    return Vocabulary(token_to_id=dict(meta["vocab"]["token_to_id"]))


def model_from_meta(meta: dict):
    """(text_cfg, image_cfg, vocab) of a checkpoint; refuses one older than their fields."""
    towers = {"text_config": TextEncoderConfig, "image_config": ImageEncoderConfig}
    _refuse_stale(meta, {s: [f.name for f in dataclasses.fields(c)] for s, c in towers.items()})
    return (*(c(**meta[s]) for s, c in towers.items()), vocab_from_meta(meta))


def continue_stream(path, keep):
    """Continue an append-only record file: keep its complete lines up to the
    first one `keep` rejects and cut the rest off in place, a torn last line
    too, so no kept line is ever rewritten. Returns (kept lines, a handle that
    appends after them)."""
    f = open(path, "a+", newline="")
    try:
        f.seek(0)
        kept = []
        for line in f:
            if not line.endswith("\n") or not keep(line):
                break
            kept.append(line)
        f.truncate(len("".join(kept).encode()))
    except BaseException:
        f.close()
        raise
    return kept, f


METRICS_FILE = "metrics.jsonl"      # a run's out_dir also holds ckpt_<step>.bin, ckpt_final.bin


def refuse_used_out_dir(out_dir) -> None:
    """Refuse an out_dir holding a run's files, whose metrics a fresh `run_training` would
    cut, leaving its checkpoints for a resume to splice; the message names train's flag."""
    names = os.listdir(out_dir) if os.path.isdir(out_dir) else ()
    if any(n == METRICS_FILE or n.startswith("ckpt_") and n.endswith(".bin") for n in names):
        raise SettingError(f"--out-dir {out_dir} already holds a run ({METRICS_FILE} or "
                           "ckpt_*.bin); train into a new directory")


def run_training(records: list[ManifestRecord], vocab: Vocabulary, cfg: TrainConfig,
                 out_dir: str | None = None, resume_from: str | None = None,
                 stop_after: int | None = None) -> TrainResult:
    """Train for cfg.steps steps (or up to `stop_after`), streaming metrics.

    With `resume_from`, continues from the checkpointed step and reproduces
    the uninterrupted run's remaining metrics exactly.
    """
    check_settings(SimpleNamespace(stop_after=stop_after),
                   [("stop_after", stop_after is None or stop_after >= 0, ">= 0")])
    if not records:
        raise ValueError("manifest has no usable records")
    _check_batch_fits(records, cfg)
    # precomputed features take the first record's width (1 if it lacks one: check_records
    # refuses it); every record is checked before step 1, not when a step first draws it
    first = records[0].image_feature
    feature_dim = 0 if cfg.image_mode == "vit" else 1 if first is None else len(first)
    text_cfg, image_cfg = make_configs(vocab, cfg, feature_dim)
    image_encoder.check_records(records, image_cfg)
    meta = checkpoint_meta(cfg, text_cfg, image_cfg, vocab)

    start_step = 0
    end_step = cfg.steps if stop_after is None else min(stop_after, cfg.steps)
    if resume_from is not None:
        params, (adam_m, adam_v, opt_step), start_step, stored = ckpt.load_checkpoint(resume_from)
        check_resume_meta(stored, meta)
        if end_step < start_step:
            raise ckpt.CheckpointError(
                f"the run ends at step {end_step}, before the checkpoint's step {start_step}: "
                "a resume cannot go back")
        opt = AdamState(m=adam_m, v=adam_v, step=opt_step)
    else:
        params = build_model(text_cfg, image_cfg, cfg.seed, cfg.tau_init)
        opt = AdamState.create(params, trainable_names(params, cfg))

    # a frozen tower gives each record the same feature at every step: compute
    # them once, in fixed record-order chunks, so a resumed run gets the same
    # features as an uninterrupted one
    image_features = (image_encoder.embed_images(records, params, image_cfg)
                      if cfg.freeze_image else None)
    texts = prepare_texts(records, vocab, text_cfg, cfg)
    metrics_file = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _, metrics_file = continue_stream(      # a resumed run logs later steps again
            os.path.join(out_dir, METRICS_FILE),
            lambda line: start_step and json.loads(line)["step"] <= start_step)

    metrics: list[dict] = []
    try:
        for step in range(start_step + 1, end_step + 1):
            rng = step_rng(cfg.seed, step)
            batch = assemble_batch(records, vocab, text_cfg, cfg, rng, image_cfg, texts,
                                   image_features)
            rec = train_step(params, opt, batch, text_cfg, image_cfg, cfg, step)
            metrics.append(rec)
            if metrics_file is not None:
                metrics_file.write(metrics_line(rec) + "\n")
            if (out_dir is not None and cfg.checkpoint_every
                    and step % cfg.checkpoint_every == 0):
                metrics_file.flush()      # a resume from this checkpoint keeps these lines
                ckpt.save_checkpoint(os.path.join(out_dir, f"ckpt_{step:06d}.bin"),
                                     params, opt, step, meta)
    finally:
        if metrics_file is not None:
            metrics_file.close()

    if out_dir is not None:
        ckpt.save_checkpoint(os.path.join(out_dir, "ckpt_final.bin"), params, opt,
                             end_step, meta)
    return TrainResult(params, opt, metrics, text_cfg, image_cfg, vocab, image_features)
