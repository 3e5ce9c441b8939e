"""Evaluate a trained model and sweep one axis of the recipe.

Evaluation is zero-shot throughout, and one report holds all of it:
retrieval ranks the full long captions by cosine similarity (R@1/R@5 both
directions), images rank the distinct short captions (R@1/R@5), and
classification scores images against prompt-template class prototypes.  The sweep harness then
retrains from scratch for each value of one axis -- here the number of
corner tokens -- and returns one row of metrics per cell (with FLOPs from
the closed-form estimator) and the cells that failed. It writes the same rows
to rows.csv in its directory, the failures to failures.jsonl, and the mean
and stddev over seeds per value to plot_data_agg.csv, which the demo prints.
Run:  python3 demos/04_evaluate_and_sweep.py        (about two minutes)
"""

import os
import tempfile

from cornerclip import corpus, evaluation, sweep, train

records = corpus.generate_synthetic_corpus(seed=1, n=32, n_attributes=2,
                                           feature_dim=16)
vocab = corpus.vocabulary(records)

base = train.TrainConfig(batch_size=16, steps=120, warmup_steps=20, seed=0,
                         limit=24, text_depth=2, text_width=32, text_heads=4,
                         projection_dim=16, k_subcaptions=2)

# --- single evaluation -------------------------------------------------------
result = train.run_training(records, vocab, base)
report = evaluation.evaluate(records, result.params, result.text_cfg,
                             result.image_cfg, vocab)
n_classes = len(evaluation.classification_task(records)[0])
print(f"long R@1 = {report['long_i2t_r@1']:.3f} (image to text, {report['n_texts']} "
      f"long captions)")
print(f"short R@1 = {report['short_r@1']:.3f} (image to text, "
      f"{report['n_short_texts']} distinct short captions)")
print(f"cls Acc@1 = {report['cls_acc@1']:.3f} over {n_classes} classes "
      f"(chance {1 / n_classes:.3f})")

flops = evaluation.flops_estimate(result.text_cfg, result.text_cfg.limit)
print(f"text-encoder forward pass: {flops:,} FLOPs at L={result.text_cfg.limit}")

# --- sweep over the number of corner tokens ----------------------------------
spec = sweep.SweepSpec(axis="m_corners", values=[0, 2], base=base, seeds=[0, 1])
with tempfile.TemporaryDirectory() as out_dir:
    rows, failures = sweep.run_sweep(spec, records, vocab, out_dir)
    print(f"\nper-cell rows ({len(failures)} cells failed):")
    for row in rows:
        print(f"  m={row['value']} seed={row['seed']}: "
              f"long R@1={float(row['long_i2t_r@1']):.3f} "
              f"short R@1={float(row['short_r@1']):.3f} "
              f"cls Acc@1={float(row['cls_acc@1']):.3f}")
    print("\naggregates (mean over seeds):")
    with open(os.path.join(out_dir, "plot_data_agg.csv")) as f:
        print(f.read().strip())
