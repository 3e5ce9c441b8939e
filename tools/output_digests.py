#!/usr/bin/env python3
"""sha256 prefixes of the outputs of six fixed training runs, one resume and
one sweep, or their numbers, to compare two trees exactly or to the last bits.

    python3 tools/output_digests.py > digests.txt
    python3 tools/output_digests.py --dump DIR
    python3 tools/output_digests.py --against DIR

Imports the package from src/ next to this directory, trains on
`generate_synthetic_corpus(1, 256, 4, 16)` and prints, per run, the first
16 hex digits of the sha256 of metrics.jsonl, ckpt_final.bin's arrays (its
header without the meta, then the payload) and its meta apart, the
long_full image, long_full text and short text features of the trained
model, and its eval numbers: recall@1 and @5 both ways over the long_full
features and zero-shot accuracy. Run it on two checkouts and `diff` the
outputs: equal lines mean the change left those bytes alone, and a change
to the meta alone shows as its meta lines alone. Runs:

- default: 200 steps of the default config, seed 1, a checkpoint every 100;
- resume: the default run again from its step-100 checkpoint;
- frozen: 40 steps with the image tower frozen;
- cosine: 30 steps of the cosine schedule, 5 warmup steps;
- vit and vit_frozen: 15 steps of the ViT tower on .npy pixels, trained
  and frozen;
- eval_long: 5 steps of the default config, evaluated on the benchmark's
  eval_long corpus, `generate_synthetic_corpus(1 + 1_000_003, 4096, 4, 16)`;
- sweep: `cornerclip sweep --axis m_corners --values 0,2 --seeds 1 --steps 20`
  on the same corpus, run through `cli.dispatch` with its stdout discarded;
  its lines digest rows.csv and plot_data_agg.csv without their wall_time_s
  columns, the only ones that vary between runs.

Where a change moves the last bits, digests differ everywhere; then
`--dump DIR` on one tree writes each output that is numbers (the
metrics.jsonl values, one row per step in key order, the features and the
eval numbers) to DIR/<line>.npy, and `--against DIR` on the other prints
per line the largest absolute and relative difference from that dump.
Copy this file into the other tree to run the same runs there.

BLAS is pinned to one thread so the bytes do not depend on the host's
thread count. Temporary files are removed at exit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cornerclip import checkpoint, cli, corpus, evaluation, train  # noqa: E402
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
                                         long_texts=rec.long_texts, image_path=str(path),
                                         label=rec.label, attributes=rec.attributes))
    return out


def outputs(name, records, result, out_dir: Path):
    """(line, bytes digested, the numbers as a float array or None) per output of a run."""
    model = (result.params, result.text_cfg, result.image_cfg, result.vocab)
    _, img, txt = evaluation.embed_eval_set(records, *model, "long_full")
    short = evaluation.embed_eval_set(records, *model, "short", image_feats=img)[2]
    report = evaluation.evaluate_retrieval(
        img, txt, evaluation.RetrievalGroundTruth.one_to_one(len(records)))
    names, labels = evaluation.classification_task(records)
    protos = evaluation.class_prototypes(names, evaluation.DEFAULT_TEMPLATES, result.params,
                                         result.text_cfg, result.vocab)
    scores = np.array([v for _, v in sorted(report.metrics.items())]
                      + [evaluation.zero_shot_classify(img, labels, protos)])
    metrics = (out_dir / "metrics.jsonl").read_bytes()
    steps = np.array([[v for _, v in sorted(json.loads(line).items())]
                      for line in metrics.splitlines()], dtype=np.float64)
    numbers = {"long_full.img": img, "long_full.txt": txt, "short.txt": short, "eval": scores}
    return ([(f"{name}.metrics", metrics, steps)]
            + checkpoint_parts(f"{name}.ckpt_final", (out_dir / "ckpt_final.bin").read_bytes())
            + [(f"{name}.{kind}", np.ascontiguousarray(v).tobytes(), v)
               for kind, v in numbers.items()])


def checkpoint_parts(line, blob: bytes):
    """A checkpoint's arrays (its header without the meta, then the payload)
    and its meta, as two outputs."""
    start = len(checkpoint.MAGIC) + 8
    end = start + struct.unpack("<Q", blob[len(checkpoint.MAGIC):start])[0]
    header = json.loads(blob[start:end])
    meta = json.dumps(header.pop("meta"), sort_keys=True).encode()
    arrays = json.dumps(header, sort_keys=True).encode() + blob[end:-4]
    return [(f"{line}.arrays", arrays, None), (f"{line}.meta", meta, None)]


def sweep_outputs(records, work: Path):
    """(line, bytes digested, None) of rows.csv and plot_data_agg.csv of a small
    sweep, each table without its wall_time_s columns."""
    manifest, out_dir = work / "sweep.jsonl", work / "sweep"
    corpus.save_manifest(records, str(manifest))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch(["sweep", "--axis", "m_corners", "--values", "0,2", "--seeds", "1",
                             "--steps", "20", "--corpus", str(manifest), "--out", str(out_dir)])
    if code != 0:
        raise SystemExit(f"the sweep exited {code}")
    lines = []
    for name in ("rows", "plot_data_agg"):
        text = (out_dir / f"{name}.csv").read_text()
        comments = [line for line in text.splitlines(keepends=True) if line.startswith("#")]
        table = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
        keep = [i for i, column in enumerate(table[0]) if not column.startswith("wall_time_s")]
        kept = "".join(",".join(row[i] for i in keep) + "\n" for row in table)
        lines.append((f"sweep.{name}", ("".join(comments) + kept).encode(), None))
    return lines


def largest_differences(values: np.ndarray, reference: np.ndarray) -> str:
    """Largest |values - reference| and the largest of it over |reference|;
    equal entries, NaNs included, differ by 0."""
    if values.shape != reference.shape:
        return f"shape {values.shape} against {reference.shape}"
    diff = np.abs(values - reference)
    diff[(values == reference) | (np.isnan(values) & np.isnan(reference))] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(reference))
    return f"max_abs {diff.max(initial=0.0):.3g} max_rel {rel.max(initial=0.0):.3g}"


def emit(lines, dump: Path | None, against: Path | None) -> None:
    for line, data, values in lines:
        if against is None:
            print(f"{line} {digest(data)}", flush=True)
            if dump is not None and values is not None:
                np.save(dump / f"{line}.npy", values)
        elif values is not None:
            print(f"{line} {largest_differences(values, np.load(against / f'{line}.npy'))}",
                  flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--dump", type=Path, metavar="DIR",
                       help="also write each output that is numbers to DIR/<line>.npy")
    which.add_argument("--against", type=Path, metavar="DIR",
                       help="print each line's largest difference from a --dump DIR")
    args = parser.parse_args(argv)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)

    records = corpus.generate_synthetic_corpus(1, 256, 4, 16)
    vocab = Vocabulary.build([r.short_text for r in records]
                             + [t for r in records for t in r.long_texts])
    eval_long = corpus.generate_synthetic_corpus(1 + 1_000_003, 4096, 4, 16)
    work = Path(tempfile.mkdtemp(prefix="output_digests_"))
    try:
        vit = vit_records(records, work / "pixels")
        runs = [
            ("default", records, train.TrainConfig(steps=200, seed=1, checkpoint_every=100)),
            ("frozen", records, train.TrainConfig(steps=40, seed=1, freeze_image=True)),
            ("cosine", records, train.TrainConfig(steps=30, seed=1, lr_schedule="cosine",
                                                  warmup_steps=5)),
            ("vit", vit, train.TrainConfig(steps=15, seed=1, image_mode="vit")),
            ("vit_frozen", vit, train.TrainConfig(steps=15, seed=1, image_mode="vit",
                                                  freeze_image=True)),
            ("eval_long", records, train.TrainConfig(steps=5, seed=1)),
        ]
        for name, recs, cfg in runs:
            out_dir = work / name
            result = train.run_training(recs, vocab, cfg, out_dir=str(out_dir))
            emit(outputs(name, eval_long if name == "eval_long" else recs, result, out_dir),
                 args.dump, args.against)
            if name == "default":
                resumed = work / "resume"
                shutil.copytree(out_dir, resumed)
                result = train.run_training(recs, vocab, cfg, out_dir=str(resumed),
                                            resume_from=str(resumed / "ckpt_000100.bin"))
                emit(outputs("resume", recs, result, resumed), args.dump, args.against)
        emit(sweep_outputs(records, work), args.dump, args.against)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
