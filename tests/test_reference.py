"""Both towers and the training loss against a plain-numpy reference.

The reference reads the parameter dict and nothing else of the package's
model code: no autodiff, no fused nodes, no PAD trim, no row cut in the last
block, no corner drop and no distinct-row step. It encodes one full-length
sequence, or one image, at a time; it builds the text tower's attention mask
from the roles alone and cuts an image into patches with explicit slices.
Every gain and bias of both towers is randomized, so a forward that reads the
wrong norm or bias fails here even where it is consistent with its own
gradients.
"""

import dataclasses

import numpy as np
import pytest

from cornerclip import corpus, image_encoder, text_encoder, train
from cornerclip.corpus import generate_synthetic_corpus
from cornerclip.tokenizer import PAD_ID, ROLE_CLS, ROLE_CORNER, ROLE_PAD, tokenize


def layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * gain + bias


def gelu(v):
    return 0.5 * v * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (v + 0.044715 * v ** 3)))


def log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def allowed(roles, mask_mode):
    """(L, L) booleans, query by key. The corner rule: no query reads a corner,
    and CLS and the corners do not read each other; "full" drops that rule. Then
    no query reads a PAD key; every position reads itself."""
    group = (ROLE_CLS, ROLE_CORNER)
    ok = np.ones((len(roles), len(roles)), dtype=bool)
    for q, role_q in enumerate(roles):
        for k, role_k in enumerate(roles):
            corner_rule = role_k == ROLE_CORNER or (role_q in group and role_k in group)
            if q != k and (role_k == ROLE_PAD or mask_mode == "corner" and corner_rule):
                ok[q, k] = False
    return ok


def pooled_features(x, p, cfg, bias, pooled):
    """A tower over one sequence x (L, d) whose parameters p(name) gives: its
    pre-norm blocks, the final norm, then the first `pooled` rows projected and
    unit-normalized. `bias` is the (L, L) additive logit bias of every head."""
    dh = cfg.width // cfg.heads
    for layer in range(cfg.depth):
        def w(name):
            return p(f"L{layer}.{name}")

        h = layer_norm(x, w("ln1.g"), w("ln1.b"))
        q, k, v = (h @ w(f"w{c}") + w(f"b{c}") for c in "qkv")
        heads = []
        for i in range(cfg.heads):
            cols = slice(i * dh, (i + 1) * dh)
            scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh) + bias
            heads.append(np.exp(log_softmax(scores)) @ v[:, cols])
        x = x + np.concatenate(heads, axis=1) @ w("wo") + w("bo")
        h = layer_norm(x, w("ln2.g"), w("ln2.b"))
        x = x + gelu(h @ w("w1") + w("b1")) @ w("w2") + w("b2")
    out = layer_norm(x, p("lnf.g"), p("lnf.b"))[:pooled] @ p("proj")
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def text_features(params, ids, roles, cfg):
    """(1 + m, p) unit features of one full-length sequence: the global one first."""
    def p(name):
        return params[text_encoder.NAMESPACE + name].value

    x = p("tok_emb")[ids] + p("pos_emb")[:len(ids)]
    bias = np.where(allowed(roles, cfg.mask_mode), 0.0, -np.inf)
    return pooled_features(x, p, cfg, bias, cfg.m + 1)


def image_feature(params, image, cfg):
    """(p,) unit feature of one (H, W, C) image: its patches in row-major order,
    each flattened row by row, embedded after a CLS row, positions added, every
    position reading every other."""
    def p(name):
        return params[image_encoder.NAMESPACE + name].value

    ps, grid = cfg.patch_size, cfg.image_size // cfg.patch_size
    patches = np.stack([image[r * ps:(r + 1) * ps, c * ps:(c + 1) * ps].ravel()
                        for r in range(grid) for c in range(grid)])
    x = np.concatenate([p("cls_emb"), patches @ p("patch_emb") + p("patch_bias")]) + p("pos_emb")
    return pooled_features(x, p, cfg, np.zeros((len(x), len(x))), 1)[0]


def info_nce(v, t, tau):
    """Summed cross-entropy of the diagonal of v t^T / tau, rows then columns."""
    z = v @ t.T / tau
    return -np.trace(log_softmax(z)) - np.trace(log_softmax(z.T))


def padded(a, limit, fill):
    """A trimmed (B, L) batch array back at the full limit."""
    return np.pad(a, ((0, 0), (0, limit - a.shape[1])), constant_values=fill)


def assert_close(got, want):
    """Equal to 1e-12 of the reference's largest magnitude."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.fixture(scope="module")
def records():
    recs = generate_synthetic_corpus(1, 32, 4, 16)
    return recs, corpus.vocabulary(recs)


@pytest.fixture(scope="module")
def pixel_records(records, tmp_path_factory):
    """The records with each feature carried by a 32x32x3 .npy pixel file instead."""
    recs, vocab = records
    pixel_dir = tmp_path_factory.mktemp("pixels")
    projection = np.random.default_rng(7).normal(0.0, 0.25, size=(32 * 32 * 3, 16))
    out = []
    for rec in recs:
        path = pixel_dir / f"{rec.id}.npy"
        np.save(path, np.tanh(projection @ rec.image_feature).reshape(32, 32, 3))
        out.append(dataclasses.replace(rec, image_feature=None, image_path=str(path)))
    return out, vocab


def randomized_model(recs, vocab, cfg):
    """The run's configs and its parameters with every gain of both towers drawn
    around 1 and every bias of both towers drawn around 0."""
    feature_dim = 0 if cfg.image_mode == "vit" else len(recs[0].image_feature)
    text_cfg, image_cfg = train.make_configs(vocab, cfg, feature_dim)
    params = train.build_model(text_cfg, image_cfg, cfg.seed, cfg.tau_init)
    rng = np.random.default_rng(5)
    towers = (text_encoder.NAMESPACE, image_encoder.NAMESPACE)
    for name, t in params.items():
        if name.startswith(towers) and t.value.ndim == 1:
            gain = name.endswith(".g")
            t.value = float(gain) + rng.normal(0.0, 0.5 if gain else 0.3, size=t.value.shape)
    return text_cfg, image_cfg, params


def long_features(params, batch, text_cfg):
    """(B, 1 + m, p) reference features of a batch's long captions."""
    limit = text_cfg.limit
    return np.stack([text_features(params, i, r, text_cfg) for i, r in zip(
        padded(batch.long_ids, limit, PAD_ID), padded(batch.long_roles, limit, ROLE_PAD))])


def check_loss(params, batch, recs, vocab, v, text_cfg, image_cfg, cfg):
    """compute_loss's short, long and total terms against the reference's over
    the batch's unit image features v."""
    shorts = [tokenize(recs[i].short_caption, text_cfg.limit, text_cfg.m, vocab)
              for i in batch.indices]
    t_short = np.stack([text_features(params, s.ids, s.roles, text_cfg)[0] for s in shorts])
    t_long = long_features(params, batch, text_cfg)
    tau = np.clip(np.exp(-params["obj.s"].value), 0.01, 10.0)
    short = info_nce(v, t_short, tau)
    long = sum(info_nce(v, t_long[:, j], tau) for j in range(1 + text_cfg.m))
    breakdown, _ = train.compute_loss(params, batch, text_cfg, image_cfg, cfg)
    assert_close(np.array([breakdown.short, breakdown.long, breakdown.total.value]),
                 np.array([short, long, short + long]))


@pytest.mark.parametrize("mask_mode", ["corner", "full"])
@pytest.mark.parametrize("m", [0, 2])
def test_text_tower_and_loss_match_the_reference(records, m, mask_mode):
    """encode_text_graph on a long-caption batch, with and without its corners,
    and compute_loss's terms in the precomputed image mode."""
    recs, vocab = records
    cfg = train.TrainConfig(batch_size=8, seed=3, m=m, mask_mode=mask_mode, limit=24,
                            text_depth=2, text_width=16, text_heads=2, projection_dim=8)
    text_cfg, image_cfg, params = randomized_model(recs, vocab, cfg)
    batch = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(cfg.seed, 1),
                                 image_cfg)
    t_long = long_features(params, batch, text_cfg)
    feats, _ = text_encoder.encode_text_graph(batch.long_ids, batch.long_roles, params,
                                              text_cfg)
    assert_close(feats.value, t_long)
    globals_only, _ = text_encoder.encode_text_graph(batch.long_ids, batch.long_roles,
                                                     params, text_cfg, corners=False)
    assert_close(globals_only.value[:, 0], t_long[:, 0])

    image = (np.stack([recs[i].image_feature for i in batch.indices])
             @ params[image_encoder.NAMESPACE + "proj"].value)
    v = image / np.linalg.norm(image, axis=1, keepdims=True)
    check_loss(params, batch, recs, vocab, v, text_cfg, image_cfg, cfg)


@pytest.mark.parametrize("freeze_image", [False, True])
def test_vit_and_its_loss_match_the_reference(pixel_records, freeze_image):
    """encode_image_graph on a batch of pixels, and compute_loss's terms in the
    vit image mode: through the tower, or from a frozen tower's features."""
    recs, vocab = pixel_records
    cfg = train.TrainConfig(batch_size=8, seed=3, limit=24, text_depth=2, text_width=16,
                            text_heads=2, projection_dim=8, image_mode="vit",
                            freeze_image=freeze_image)
    text_cfg, image_cfg, params = randomized_model(recs, vocab, cfg)
    frozen = image_encoder.embed_images(recs, params, image_cfg) if freeze_image else None
    batch = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(cfg.seed, 1),
                                 image_cfg, image_features=frozen)
    pixels = np.stack([np.load(recs[i].image_path) for i in batch.indices])
    v = np.stack([image_feature(params, image, image_cfg) for image in pixels])
    assert_close(image_encoder.encode_image_graph(pixels, params, image_cfg).value, v)
    check_loss(params, batch, recs, vocab, v, text_cfg, image_cfg, cfg)
