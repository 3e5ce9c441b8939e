#!/usr/bin/env python3
"""sha256 prefixes of the outputs of five fixed training runs and one resume.

    python3 tools/output_digests.py > digests.txt

Imports the package from src/ next to this directory, trains on
`generate_synthetic_corpus(1, 256, 4, 16)` and prints, per run, the first
16 hex digits of the sha256 of metrics.jsonl, ckpt_final.bin and the
long_full image, long_full text and short text features of the trained
model. Run it on two checkouts and `diff` the outputs: equal lines mean
the change left those bytes alone. Runs:

- default: 40 steps of the default config, seed 1, a checkpoint every 20;
- resume: the default run again from its step-20 checkpoint;
- frozen: 40 steps with the image tower frozen;
- cosine: 30 steps of the cosine schedule, 5 warmup steps;
- vit and vit_frozen: 15 steps of the ViT tower on .npy pixels, trained
  and frozen.

BLAS is pinned to one thread so the bytes do not depend on the host's
thread count. Temporary files are removed at exit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cornerclip import corpus, evaluation, train  # noqa: E402
from cornerclip.tokenizer import Vocabulary  # noqa: E402

IMAGE_SHAPE = (32, 32, 3)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def vit_records(records, pixel_dir: Path):
    """The records with each feature carried by a deterministic pixel file instead."""
    rng = np.random.default_rng([1, 7])
    feature_dim = len(records[0].image_feature)
    projection = rng.normal(0.0, feature_dim ** -0.5, size=(int(np.prod(IMAGE_SHAPE)),
                                                             feature_dim))
    pixel_dir.mkdir()
    out = []
    for rec in records:
        path = pixel_dir / f"{rec.id}.npy"
        np.save(path, np.tanh(projection @ rec.image_feature).reshape(IMAGE_SHAPE))
        out.append(corpus.ManifestRecord(id=rec.id, short_text=rec.short_text,
                                         long_texts=rec.long_texts, image_path=str(path)))
    return out


def report(name, records, result, out_dir: Path):
    lines = [(f"{name}.metrics", (out_dir / "metrics.jsonl").read_bytes()),
             (f"{name}.ckpt_final", (out_dir / "ckpt_final.bin").read_bytes())]
    for kind in ("long_full", "short"):
        _, img, txt = evaluation.embed_eval_set(records, result.params, result.text_cfg,
                                                result.image_cfg, result.vocab, kind)
        if kind == "long_full":
            lines.append((f"{name}.{kind}.img", np.ascontiguousarray(img).tobytes()))
        lines.append((f"{name}.{kind}.txt", np.ascontiguousarray(txt).tobytes()))
    for label, data in lines:
        print(f"{label} {digest(data)}", flush=True)


def main():
    records = corpus.generate_synthetic_corpus(1, 256, 4, 16)
    vocab = Vocabulary.build([r.short_text for r in records]
                             + [t for r in records for t in r.long_texts])
    work = Path(tempfile.mkdtemp(prefix="output_digests_"))
    try:
        vit = vit_records(records, work / "pixels")
        runs = [
            ("default", records, train.TrainConfig(steps=40, seed=1, checkpoint_every=20)),
            ("frozen", records, train.TrainConfig(steps=40, seed=1, freeze_image=True)),
            ("cosine", records, train.TrainConfig(steps=30, seed=1, lr_schedule="cosine",
                                                  warmup_steps=5)),
            ("vit", vit, train.TrainConfig(steps=15, seed=1, image_mode="vit")),
            ("vit_frozen", vit, train.TrainConfig(steps=15, seed=1, image_mode="vit",
                                                  freeze_image=True)),
        ]
        for name, recs, cfg in runs:
            out_dir = work / name
            result = train.run_training(recs, vocab, cfg, out_dir=str(out_dir))
            report(name, recs, result, out_dir)
            if name == "default":
                resumed = work / "resume"
                shutil.copytree(out_dir, resumed)
                result = train.run_training(recs, vocab, cfg, out_dir=str(resumed),
                                            resume_from=str(resumed / "ckpt_000020.bin"))
                report("resume", recs, result, resumed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
