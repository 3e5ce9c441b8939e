"""Walk through tokenization and the corner attention mask.

A caption is segmented into period-delimited sub-captions, each word is
mapped to a vocabulary id, and the sequence is laid out as

    [CLS] [COR_1] .. [COR_m] word .. [SEP] word .. [SEP] [PAD] ..

The mask then isolates the corner tokens: nobody reads a corner, corners
and [CLS] ignore each other, yet every one of them still reads the text.
Run:  python3 demos/01_tokenize_and_mask.py
"""

import numpy as np

from cornerclip import masks
from cornerclip.tokenizer import (
    Vocabulary, detokenize, sample_consecutive, split_subcaptions, tokenize,
)

caption = "A red vase on a table. The table is wooden. Light from a window."

# --- sub-caption segmentation ------------------------------------------------
subs = split_subcaptions(caption)
print("caption:      ", caption)
print("sub-captions: ")
for s in subs:
    print("   ", s)

# during training a contiguous window of k sub-captions is sampled
print("\nsampled window of 2 (seed 0):", sample_consecutive(subs, 2, np.random.default_rng(0)))
print("sampled window of 2 (seed 3):", sample_consecutive(subs, 2, np.random.default_rng(3)))

# --- token ids and roles -----------------------------------------------------
vocab = Vocabulary.build([caption])
seq = tokenize(caption, limit=24, m=2, vocab=vocab)
print("\ntokens:", " ".join(detokenize(seq, vocab)))
print("ids:   ", seq.ids.tolist())
print("roles: ", seq.roles.tolist(), "(0=CLS 1=CORNER 2=TEXT 3=SEP 4=PAD)")
print("true length before padding:", seq.true_length)

# --- the corner mask ---------------------------------------------------------
# Row q, column k: may position q attend to position k?  Note columns 1-2
# (the corners) are zero everywhere off the diagonal, and rows 0-2 only
# differ from the text rows in how they treat each other.
small = tokenize("a red vase. a table.", limit=10, m=2, vocab=Vocabulary.build(
    ["a red vase. a table."]))
grid = masks.build_corner_mask(small.roles)
print("\nmask for [CLS] [COR_1] [COR_2] a red vase [SEP] a table [SEP]:")
print(masks.format_mask(grid))

# with masking disabled the corners behave like plain register tokens
print("\nsame layout, masking disabled (all ones):")
print(masks.format_mask(masks.full_mask(small.roles, "full")))

# sanity check: no information can flow out of a corner, ever
assert np.all(grid[np.arange(10) != 1, 1] == 0)
assert np.all(grid[np.arange(10) != 2, 2] == 0)
print("\nno non-corner position can read a corner: verified")
