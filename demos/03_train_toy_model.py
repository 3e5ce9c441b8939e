"""Train a small dual encoder on a synthetic corpus, end to end.

Each synthetic record pairs a feature vector (a salience-weighted sum of
latent attribute directions) with one short caption naming the dominant
attribute and two long captions describing every attribute, one sentence
each.  Training alternates nothing: every step draws a batch, encodes
images, short texts, and sampled long-text windows, and descends the sum
of the short and long contrastive losses.
Run:  python3 demos/03_train_toy_model.py           (about half a minute)
"""

import numpy as np

from cornerclip import corpus, train

# --- a corpus small enough to learn quickly ----------------------------------
records = corpus.generate_synthetic_corpus(seed=1, n=32, n_attributes=2,
                                           feature_dim=16)
print("example record:")
print("  short:", records[0].short_text)
print("  long: ", records[0].long_texts[0])
stats = corpus.corpus_stats(records)
print(f"  corpus: {stats.n_images} images, {stats.n_texts} texts, "
      f"{stats.avg_subcaptions_per_text:.2f} sub-captions/text")

vocab = corpus.vocabulary(records)
print(f"  vocabulary: {len(vocab)} tokens")

# --- train -------------------------------------------------------------------
cfg = train.TrainConfig(batch_size=16, steps=120, warmup_steps=20, seed=0,
                        limit=24, text_depth=2, text_width=32, text_heads=4,
                        projection_dim=16, k_subcaptions=2)
result = train.run_training(records, vocab, cfg)

print("\nstep   loss_total   loss_short   loss_long     tau")
for rec in result.metrics[::20] + [result.metrics[-1]]:
    print(f"{rec['step']:4d}   {rec['loss_total']:10.3f}   "
          f"{rec['loss_short']:10.3f}   {rec['loss_long']:9.3f}   {rec['tau']:.4f}")

first, last = result.metrics[0], result.metrics[-1]
drop = 100 * (1 - last["loss_total"] / first["loss_total"])
print(f"\nloss fell {drop:.0f}% over {cfg.steps} steps")

# --- determinism -------------------------------------------------------------
# Batches come from a stateless per-step generator, so rerunning the same
# config reproduces the metrics stream byte for byte.
again = train.run_training(records, vocab, cfg)
assert all(train.metrics_line(a) == train.metrics_line(b)
           for a, b in zip(result.metrics, again.metrics))
for k in result.params:
    np.testing.assert_array_equal(result.params[k].value, again.params[k].value)
print("rerun with the same seed: metrics and weights identical")
