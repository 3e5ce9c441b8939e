"""The text tower and the training loss against a plain-numpy reference.

The reference reads the parameter dict and nothing else of the package's
model code: no autodiff, no fused nodes, no PAD trim, no row cut in the last
block, no corner drop and no distinct-row step. It encodes one full-length
sequence at a time and builds its attention mask from the roles alone. Every
gain and bias of the text tower is randomized, so a forward that reads the
wrong norm or bias fails here even where it is consistent with its own
gradients.
"""

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


def text_features(params, ids, roles, cfg):
    """(1 + m, p) unit features of one full-length sequence: the global one first."""
    def p(name):
        return params[text_encoder.NAMESPACE + name].value

    x = p("tok_emb")[ids] + p("pos_emb")[:len(ids)]
    bias = np.where(allowed(roles, cfg.mask_mode), 0.0, -np.inf)
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
    pooled = layer_norm(x, p("lnf.g"), p("lnf.b"))[:cfg.m + 1] @ p("proj")
    return pooled / np.linalg.norm(pooled, axis=1, keepdims=True)


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


def randomized_model(recs, vocab, cfg):
    """The run's configs and its parameters with every text-tower gain drawn
    around 1 and every text-tower bias drawn around 0."""
    text_cfg, image_cfg = train.make_configs(vocab, cfg, len(recs[0].image_feature))
    params = train.build_model(text_cfg, image_cfg, cfg.seed, cfg.tau_init)
    rng = np.random.default_rng(5)
    for name, t in params.items():
        if name.startswith(text_encoder.NAMESPACE) and t.value.ndim == 1:
            gain = name.endswith(".g")
            t.value = float(gain) + rng.normal(0.0, 0.5 if gain else 0.3, size=t.value.shape)
    return text_cfg, image_cfg, params


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
    limit = text_cfg.limit
    long_ids = padded(batch.long_ids, limit, PAD_ID)
    long_roles = padded(batch.long_roles, limit, ROLE_PAD)
    t_long = np.stack([text_features(params, i, r, text_cfg)
                       for i, r in zip(long_ids, long_roles)])
    shorts = [tokenize(recs[i].short_caption, limit, m, vocab) for i in batch.indices]
    t_short = np.stack([text_features(params, s.ids, s.roles, text_cfg)[0] for s in shorts])

    feats, _ = text_encoder.encode_text_graph(batch.long_ids, batch.long_roles, params,
                                              text_cfg)
    assert_close(feats.value, t_long)
    globals_only, _ = text_encoder.encode_text_graph(batch.long_ids, batch.long_roles,
                                                     params, text_cfg, corners=False)
    assert_close(globals_only.value[:, 0], t_long[:, 0])

    image = (np.stack([recs[i].image_feature for i in batch.indices])
             @ params[image_encoder.NAMESPACE + "proj"].value)
    v = image / np.linalg.norm(image, axis=1, keepdims=True)
    tau = np.clip(np.exp(-params["obj.s"].value), 0.01, 10.0)
    short = info_nce(v, t_short, tau)
    long = sum(info_nce(v, t_long[:, j], tau) for j in range(1 + m))
    breakdown, _ = train.compute_loss(params, batch, text_cfg, image_cfg, cfg)
    assert_close(np.array([breakdown.short, breakdown.long, breakdown.total.value]),
                 np.array([short, long, short + long]))
