"""Text tower tests: init, normalization, corner isolation, attention dumps."""

import dataclasses

import numpy as np
import pytest

from cornerclip import objective
from cornerclip import text_encoder as te
from cornerclip.autodiff import Tensor, count_macs
from cornerclip.evaluation import flops_estimate
from cornerclip.tokenizer import CLS_ID, M_MAX, ROLE_PAD, Vocabulary, tokenize
from cornerclip.text_encoder import TextEncoderConfig


@pytest.fixture
def vocab():
    return Vocabulary.build(["a cat sat on the mat. a dog ran far. birds fly high."])


def small_config(vocab, **kw):
    defaults = dict(vocab_size=len(vocab), limit=16, m=2, depth=2, width=32,
                    heads=4, projection_dim=16)
    defaults.update(kw)
    return TextEncoderConfig(**defaults)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            TextEncoderConfig(vocab_size=10, width=30, heads=4)

    def test_limit_floor(self):
        with pytest.raises(ValueError, match=r"^limit must be >= m \+ 2 \(4\), got 3$"):
            TextEncoderConfig(vocab_size=10, limit=3, m=2)

    @pytest.mark.parametrize("field,value,rule", [
        ("heads", 0, ">= 1"), ("width", 0, ">= 1"), ("depth", 0, ">= 1"), ("m", -1, ">= 0"),
        ("mlp_ratio", 0, ">= 1"), ("m", M_MAX + 1, f"<= {M_MAX} (the reserved corner ids)"),
    ])
    def test_bad_shape_names_field_and_value(self, field, value, rule):
        with pytest.raises(ValueError) as exc:
            TextEncoderConfig(vocab_size=10, **{field: value})
        assert str(exc.value) == f"{field} must be {rule}, got {value!r}"


class TestInitParams:
    def test_deterministic(self, vocab):
        cfg = small_config(vocab)
        a = te.init_params(cfg, 42)
        b = te.init_params(cfg, 42)
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k].value, b[k].value)

    def test_corner_rows_pairwise_distinct(self, vocab):
        cfg = small_config(vocab, m=4, limit=18)
        p = te.init_params(cfg, 0)
        rows = p["text.tok_emb"].value[te.CORNER_ID_BASE:te.CORNER_ID_BASE + 4]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(rows[i] - rows[j]) > 0


class TestEncodeText:
    def test_unit_norms(self, vocab):
        cfg = small_config(vocab)
        p = te.init_params(cfg, 1)
        f = te.encode_text(tokenize("a cat sat. a dog ran.", 16, 2, vocab), p, cfg)
        assert abs(np.linalg.norm(f.t_g) - 1) < 1e-6
        np.testing.assert_allclose(np.linalg.norm(f.corners, axis=1), 1.0, atol=1e-6)

    def test_out_of_range_id_rejected(self, vocab):
        cfg = small_config(vocab)
        p = te.init_params(cfg, 1)
        seq = tokenize("a cat.", 16, 2, vocab)
        seq.ids[5] = cfg.vocab_size
        with pytest.raises(ValueError, match="out of vocabulary"):
            te.encode_text(seq, p, cfg)

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_corner_isolation(self, vocab, depth):
        cfg = small_config(vocab, depth=depth)
        rng = np.random.default_rng(depth)
        p = te.init_params(cfg, depth)
        seq = tokenize("a cat sat on the mat. birds fly.", 16, 2, vocab)
        base = te.encode_text(seq, p, cfg, with_hidden=True)
        p["text.tok_emb"].value[te.CORNER_ID_BASE:te.CORNER_ID_BASE + 2] += \
            rng.normal(size=(2, cfg.width))
        pert = te.encode_text(seq, p, cfg, with_hidden=True)
        assert np.max(np.abs(base.t_g - pert.t_g)) <= 1e-12
        content = te.content_positions(seq)
        assert np.max(np.abs(base.hidden[content] - pert.hidden[content])) <= 1e-12
        # corner features themselves do move
        assert np.max(np.abs(base.corners - pert.corners)) > 1e-6

    def test_full_mask_breaks_isolation(self, vocab):
        cfg = small_config(vocab, mask_mode="full")
        rng = np.random.default_rng(9)
        p = te.init_params(cfg, 9)
        seq = tokenize("a cat sat. a dog ran.", 16, 2, vocab)
        base = te.encode_text(seq, p, cfg)
        p["text.tok_emb"].value[te.CORNER_ID_BASE:te.CORNER_ID_BASE + 2] += \
            rng.normal(size=(2, cfg.width))
        pert = te.encode_text(seq, p, cfg)
        assert np.max(np.abs(base.t_g - pert.t_g)) > 1e-6

    def test_depth1_corners_ignore_cls_row(self, vocab):
        cfg = small_config(vocab, depth=1)
        p = te.init_params(cfg, 3)
        seq = tokenize("a cat sat. a dog ran.", 16, 2, vocab)
        base = te.encode_text(seq, p, cfg)
        p["text.tok_emb"].value[CLS_ID] += 0.5
        pert = te.encode_text(seq, p, cfg)
        assert np.max(np.abs(base.corners - pert.corners)) <= 1e-12

    def test_deterministic_forward(self, vocab):
        cfg = small_config(vocab)
        p = te.init_params(cfg, 5)
        seq = tokenize("a cat.", 16, 2, vocab)
        a = te.encode_text(seq, p, cfg)
        b = te.encode_text(seq, p, cfg)
        np.testing.assert_array_equal(a.t_g, b.t_g)

    def test_position_sensitivity(self, vocab):
        cfg = small_config(vocab)
        p = te.init_params(cfg, 7)
        a = te.encode_text(tokenize("cat dog.", 16, 2, vocab), p, cfg)
        b = te.encode_text(tokenize("dog cat.", 16, 2, vocab), p, cfg)
        assert np.max(np.abs(a.t_g - b.t_g)) > 1e-9

    @pytest.mark.parametrize("mask_mode", ["corner", "full"])
    def test_trimmed_batch_matches_untrimmed_encodes(self, vocab, mask_mode):
        cfg = small_config(vocab, mask_mode=mask_mode)
        p = te.init_params(cfg, 9)
        seqs = [tokenize(t, 16, 2, vocab)
                for t in ("a cat.", "a cat sat on the mat. a dog ran far.", "birds fly high.")]
        ids, roles = te.stack_trimmed(seqs)
        assert ids.shape == roles.shape == (3, max(s.true_length for s in seqs))
        assert ids.shape[1] < 16
        batch = te.encode_text_graph(ids, roles, p, cfg)[0].value[:, 0]
        for row, seq in zip(batch, seqs):
            feats, _ = te.encode_text_graph(seq.ids, seq.roles, p, cfg)
            np.testing.assert_allclose(row, feats.value[0, 0], rtol=0, atol=1e-12)


    @pytest.mark.parametrize("mask_mode", ["corner", "full"])
    def test_pooled_rows_match_the_all_rows_forward(self, vocab, mask_mode):
        """The last block computes only rows 0..m unless hidden states are read;
        the features equal those of the forward that computes every row."""
        cfg = small_config(vocab, mask_mode=mask_mode)
        p = te.init_params(cfg, 11)
        seqs = [tokenize(t, 16, 2, vocab)
                for t in ("a cat.", "a cat sat on the mat. a dog ran.", "birds fly high.")]
        ids, roles = te.stack_trimmed(seqs)
        pooled, no_hidden = te.encode_text_graph(ids, roles, p, cfg)
        full, hidden = te.encode_text_graph(ids, roles, p, cfg, with_hidden=True)
        assert no_hidden is None and hidden.shape == (3, ids.shape[1], cfg.width)
        np.testing.assert_allclose(pooled.value, full.value, rtol=0, atol=1e-12)


TEXTS = ("a cat.", "a cat sat on the mat. a dog ran far. birds fly high.", "birds fly high.")


class TestGlobalOnly:
    """`corners=False`: the global feature alone, with no corner position
    under the corner mask and one pooled row in the last block."""

    @pytest.mark.parametrize("mask_mode", ["corner", "full"])
    @pytest.mark.parametrize("m", [0, 2])
    def test_equals_row_0_of_the_full_pass(self, vocab, mask_mode, m):
        cfg = small_config(vocab, m=m, mask_mode=mask_mode)
        p = te.init_params(cfg, 13)
        seqs = [tokenize(t, 16, m, vocab) for t in TEXTS]
        # the mixed batch reaches the limit; each text alone is PAD-trimmed below it
        for batch in [seqs] + [[s] for s in seqs]:
            ids, roles = te.stack_trimmed(batch)
            got = te.encode_text_graph(ids, roles, p, cfg, corners=False)[0].value
            full = te.encode_text_graph(ids, roles, p, cfg)[0].value
            assert got.shape == (len(batch), 1, cfg.projection_dim)
            np.testing.assert_allclose(got[:, 0], full[:, 0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mask_mode", ["corner", "full"])
    def test_short_loss_gradient_matches_finite_differences(self, vocab, mask_mode):
        cfg = small_config(vocab, mask_mode=mask_mode, depth=1)
        p = te.init_params(cfg, 17)
        ids, roles = te.stack_trimmed([tokenize(t, 16, 2, vocab) for t in TEXTS])
        v = Tensor(np.random.default_rng(3).normal(size=(len(TEXTS), cfg.projection_dim)))
        tau = Tensor(np.float64(0.2))

        def loss():
            feats = te.encode_text_graph(ids, roles, p, cfg, corners=False)[0]
            return objective.short_loss(v, feats[:, 0, :], tau)

        names = ("text.tok_emb", "text.pos_emb", "text.L0.wk")
        for name in names:
            p[name].requires_grad = True
        loss().backward()
        rng = np.random.default_rng(4)
        for name in names:
            flat, grad = p[name].value.reshape(-1), p[name].grad.reshape(-1)
            rows = np.unique(ids) if name == "text.tok_emb" else range(p[name].shape[0])
            # one entry in each row the batch reads, the corner rows among them
            for idx in (row * p[name].shape[1] + rng.integers(p[name].shape[1]) for row in rows):
                old = flat[idx]
                flat[idx] = old + 1e-6
                up = loss().value
                flat[idx] = old - 1e-6
                down = loss().value
                flat[idx] = old
                fd = (up - down) / 2e-6
                assert abs(fd - grad[idx]) <= 1e-6 * max(1.0, abs(fd)), (name, idx)
        if mask_mode == "corner":      # no corner position is read
            assert not p["text.pos_emb"].grad[1:3].any()

    @pytest.mark.parametrize("mask_mode", ["corner", "full"])
    def test_macs_count_the_positions_and_rows_run(self, vocab, mask_mode):
        cfg = small_config(vocab, mask_mode=mask_mode)
        p = te.init_params(cfg, 19)
        ids, roles = te.stack_trimmed([tokenize(t, 16, 2, vocab) for t in TEXTS[:2]])
        B, L = ids.shape
        with count_macs() as every:
            te.encode_text_graph(ids, roles, p, cfg)
        with count_macs() as global_only:
            te.encode_text_graph(ids, roles, p, cfg, corners=False)
        assert 2 * every[0] == B * flops_estimate(cfg, L)
        # one pooled row over the positions run: the estimate of an m = 0 model
        run = L - cfg.m if mask_mode == "corner" else L
        assert 2 * global_only[0] == B * flops_estimate(dataclasses.replace(cfg, m=0), run)

    def test_refusals(self, vocab):
        cfg = small_config(vocab)
        p = te.init_params(cfg, 23)
        seq = tokenize("a cat.", 16, 2, vocab)
        with pytest.raises(ValueError, match="neither hidden states nor attention"):
            te.encode_text_graph(seq.ids, seq.roles, p, cfg, with_hidden=True, corners=False)
        with pytest.raises(ValueError, match="neither hidden states nor attention"):
            te.encode_text_graph(seq.ids, seq.roles, p, cfg, collect_attn=[], corners=False)
        # a sequence tokenized without corners has text where the corners belong
        bare = tokenize("a cat sat on the mat.", 16, 0, vocab)
        te.encode_text_graph(bare.ids, bare.roles, p, cfg)
        with pytest.raises(ValueError, match="positions 1..2 must all be corners"):
            te.encode_text_graph(bare.ids, bare.roles, p, cfg, corners=False)


def head_mean_attention(seq, params, cfg, layer):
    """Head-averaged (L, L) attention weights of one layer, from collect_attn."""
    collect: list = []
    te.encode_text_graph(seq.ids, seq.roles, params, cfg, collect_attn=collect)
    return collect[layer][0].mean(axis=0)


class TestDumpAttention:
    def test_rows_sum_to_one(self, vocab):
        cfg = small_config(vocab)
        p = te.init_params(cfg, 2)
        seq = tokenize("a cat sat.", 16, 2, vocab)
        w = head_mean_attention(seq, p, cfg, layer=1)
        assert w.shape == (16, 16)      # the last layer still covers every row
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_blocked_keys_carry_no_weight(self, vocab):
        cfg = small_config(vocab)
        p = te.init_params(cfg, 2)
        seq = tokenize("a cat sat.", 16, 2, vocab)
        w = head_mean_attention(seq, p, cfg, layer=0)
        non_corner = [0] + list(range(3, 16))
        assert np.max(w[np.ix_(non_corner, [1, 2])]) <= 1e-12
        pad_cols = np.where(seq.roles == ROLE_PAD)[0]
        for q in range(seq.true_length):
            assert np.max(w[q, pad_cols]) <= 1e-12

    def test_full_mask_m0_matches_unmasked_reference(self, vocab):
        cfg = small_config(vocab, m=0, mask_mode="full")
        p = te.init_params(cfg, 4)
        seq = tokenize("a cat sat on the mat a dog ran far birds fly high the", 16, 0, vocab)
        assert seq.true_length == 16  # no padding: reference has no mask at all
        w = head_mean_attention(seq, p, cfg, layer=0)

        # reference: plain softmax attention on the same embeddings, no bias
        from cornerclip import autodiff as ad, transformer as tr
        x = ad.take_rows(p["text.tok_emb"], seq.ids[None, :]) + p["text.pos_emb"]
        collect = []
        tr.attention(x, p, "text.L0.", cfg.heads, np.zeros((1, 1, 16, 16)), collect)
        ref = collect[0][0].mean(axis=0)
        np.testing.assert_allclose(w, ref, atol=1e-9)
