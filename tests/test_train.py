"""Training engine tests: batching, gradients, AdamW, resume equivalence."""

import dataclasses
import json
import os
import signal
import struct
import subprocess
import sys
import textwrap
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cornerclip import checkpoint as ckpt
from cornerclip import autodiff, corpus
from cornerclip import evaluation, image_encoder, objective, text_encoder, train, transformer
from cornerclip.autodiff import Tensor
from cornerclip.corpus import ManifestRecord, generate_synthetic_corpus
from cornerclip.tokenizer import M_MAX, Vocabulary, tokenize
from cornerclip.train import AdamState, TrainConfig


@pytest.fixture(scope="module")
def corpus16():
    recs = generate_synthetic_corpus(0, 16, 2, 8)
    return recs, corpus.vocabulary(recs)


def tiny_cfg(**kw):
    defaults = dict(batch_size=4, steps=3, warmup_steps=2, seed=0, limit=16,
                    text_depth=1, text_width=16, text_heads=2, projection_dim=8,
                    k_subcaptions=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


def traced_peak(fn):
    """(fn(), the traced peak of the call above what was traced before it, in bytes)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def setup_model(recs, vocab, cfg):
    feature_dim = 0 if cfg.image_mode == "vit" else len(recs[0].image_feature)
    text_cfg, image_cfg = train.make_configs(vocab, cfg, feature_dim)
    params = train.build_model(text_cfg, image_cfg, cfg.seed, cfg.tau_init)
    return text_cfg, image_cfg, params


class TestAssembleBatch:
    def test_deterministic_given_rng_seed(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg()
        text_cfg, image_cfg, _ = setup_model(recs, vocab, cfg)
        a = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                 train.step_rng(0, 5), image_cfg)
        b = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                 train.step_rng(0, 5), image_cfg)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.long_ids, b.long_ids)
        c = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                 train.step_rng(0, 6), image_cfg)
        assert not np.array_equal(a.indices, c.indices) or \
            not np.array_equal(a.long_ids, c.long_ids)

    def test_indices_without_replacement(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(batch_size=16)
        text_cfg, image_cfg, _ = setup_model(recs, vocab, cfg)
        b = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                 train.step_rng(1, 1), image_cfg)
        assert len(set(b.indices.tolist())) == 16

    def test_empty_manifest_rejected(self, corpus16):
        _, vocab = corpus16
        with pytest.raises(ValueError, match="no usable records"):
            train.run_training([], vocab, tiny_cfg())

    def test_too_few_records_rejected_before_any_file(self, corpus16, tmp_path):
        recs, vocab = corpus16
        out_dir = tmp_path / "run"
        with pytest.raises(ValueError, match="manifest has 3 records < batch_size 4"):
            train.run_training(recs[:3], vocab, tiny_cfg(), out_dir=str(out_dir))
        assert not out_dir.exists()

    def test_first_record_without_feature_is_named(self, corpus16):
        recs, vocab = corpus16
        first = dataclasses.replace(recs[0], image_feature=None, image_path="a.npy")
        with pytest.raises(ValueError, match=f"record {first.id}: precomputed mode needs "
                                             "image_feature"):
            train.run_training([first] + recs[1:], vocab, tiny_cfg())

    @pytest.mark.parametrize("mode", ["precomputed", "vit"])
    def test_bad_last_record_fails_before_step_one(self, tmp_path, mode):
        recs = generate_synthetic_corpus(0, 64, 2, 8)
        vocab = corpus.vocabulary(recs)
        if mode == "vit":     # every record but the last has a path; none is ever loaded
            recs = [dataclasses.replace(r, image_path=f"{r.id}.npy", image_feature=None)
                    for r in recs[:-1]] + [recs[-1]]
            need = "vit mode needs image_path"
        else:
            recs = recs[:-1] + [dataclasses.replace(recs[-1], image_feature=None,
                                                    image_path="z.npy")]
            need = "precomputed mode needs image_feature"
        with pytest.raises(ValueError, match=f"record {recs[-1].id}: {need}"):
            train.run_training(recs, vocab, tiny_cfg(image_mode=mode, steps=40),
                               out_dir=str(tmp_path))
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_short_feature_names_the_record(self, corpus16):
        recs, vocab = corpus16
        short = dataclasses.replace(recs[5], image_feature=recs[5].image_feature[:3])
        with pytest.raises(ValueError, match=f"record {short.id}: image_feature has 3 "
                                             "values, expected 8"):
            train.run_training(recs[:5] + [short] + recs[6:], vocab, tiny_cfg(steps=1))

    def test_blank_long_text_never_reaches_a_step(self, tmp_path):
        """A blank long text has no sub-caption to sample; its manifest line is
        skipped at load, so a run cannot draw it mid-way."""
        recs = generate_synthetic_corpus(1, 64, 4, 16)
        vocab = corpus.vocabulary(recs)
        blank = {"id": "x", "short_text": "a photo of a red.",
                 "long_texts": ["", "a red thing."], "image_feature": [1.0] * 16}
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join([json.dumps(blank)] + [r.to_json() for r in recs[1:]]))
        loaded = corpus.load_manifest(path)
        assert [r.id for r in loaded] == [r.id for r in recs[1:]]
        res = train.run_training(loaded, vocab, TrainConfig(steps=60, seed=1, warmup_steps=1))
        assert len(res.metrics) == 60

    def test_too_small_manifest(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(batch_size=32)
        text_cfg, image_cfg, _ = setup_model(recs, vocab, cfg)
        with pytest.raises(ValueError, match="batch_size"):
            train.assemble_batch(recs, vocab, text_cfg, cfg,
                                 train.step_rng(0, 1), image_cfg)

    def test_short_only_branch(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(k_subcaptions=0)
        text_cfg, image_cfg, _ = setup_model(recs, vocab, cfg)
        b = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                 train.step_rng(0, 1), image_cfg)
        assert b.long_ids is None and b.long_roles is None

    def test_long_entry_choice_uniform(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(batch_size=2, k_subcaptions=4)  # window covers whole text
        text_cfg, image_cfg, _ = setup_model(recs, vocab, cfg)
        # the two long templates start with different words ("a" vs "it")
        it_id = vocab.id_of("it")
        first_content = 1 + cfg.m
        hits = total = 0
        for step in range(1, 1001):
            b = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                     train.step_rng(2, step), image_cfg)
            hits += int((b.long_ids[:, first_content] == it_id).sum())
            total += cfg.batch_size
        assert abs(hits / total - 0.5) < 0.05

    def test_fallback_to_short_text(self, corpus16):
        recs, vocab = corpus16
        bare = [ManifestRecord(id=f"b{i}", short_text=r.short_text,
                               image_feature=r.image_feature)
                for i, r in enumerate(recs)]
        cfg = tiny_cfg()
        text_cfg, image_cfg, _ = setup_model(recs, vocab, cfg)
        b = train.assemble_batch(bare, vocab, text_cfg, cfg,
                                 train.step_rng(0, 1), image_cfg)
        assert b.n_long_fallback == cfg.batch_size
        np.testing.assert_array_equal(b.long_ids, b.short_ids)


    def test_long_only_record_trains_on_its_first_long_text(self, corpus16):
        recs, vocab = corpus16
        long_only = [dataclasses.replace(r, short_text="") if i < 2 else r
                     for i, r in enumerate(recs)]
        cfg = tiny_cfg()
        text_cfg, _, _ = setup_model(recs, vocab, cfg)
        texts = train.prepare_texts(long_only, vocab, text_cfg, cfg)
        for rec, t in zip(long_only, texts):
            want = tokenize(rec.short_text or rec.long_texts[0], text_cfg.limit, text_cfg.m,
                            vocab)
            np.testing.assert_array_equal(t.short.ids, want.ids)
            np.testing.assert_array_equal(t.short.roles, want.roles)


class TestGradients:
    def test_matches_finite_differences(self, corpus16):
        """On a drawn batch, and on one whose second pair repeats the first
        pair's captions, so each text pass encodes one row fewer."""
        recs, vocab = corpus16
        cfg = tiny_cfg()
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        batch = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                     train.step_rng(0, 1), image_cfg)
        dup = {name: getattr(batch, name).copy()
               for name in ("short_ids", "short_roles", "long_ids", "long_roles")}
        for rows in dup.values():
            rows[1] = rows[0]
        forced = dataclasses.replace(batch, **dup)
        assert len(np.unique(forced.short_ids, axis=0)) < cfg.batch_size
        for batch in (batch, forced):
            grads, _, _ = train.gradients(params, batch, text_cfg, image_cfg, cfg)

            def loss_value():
                bd, _ = train.compute_loss(params, batch, text_cfg, image_cfg, cfg)
                return float(bd.total.value)

            rng = np.random.default_rng(0)
            eps = 1e-6
            checked = 0
            for name in ("text.tok_emb", "text.L0.wq", "img.proj", "obj.s",
                         "text.proj", "text.pos_emb"):
                flat = params[name].value.reshape(-1)
                for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                    old = flat[idx]
                    flat[idx] = old + eps
                    up = loss_value()
                    flat[idx] = old - eps
                    down = loss_value()
                    flat[idx] = old
                    fd = (up - down) / (2 * eps)
                    an = grads[name].reshape(-1)[idx]
                    assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd)), (name, idx)
                    checked += 1
            assert checked >= 16

    def test_frozen_image_excluded(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(freeze_image=True)
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        batch = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                     train.step_rng(0, 1), image_cfg)
        grads, _, _ = train.gradients(params, batch, text_cfg, image_cfg, cfg)
        assert not any(n.startswith("img.") for n in grads)
        before = params["img.proj"].value.copy()
        opt = AdamState.create(params, list(grads))
        train.train_step(params, opt, batch, text_cfg, image_cfg, cfg, 1)
        np.testing.assert_array_equal(params["img.proj"].value, before)


    def test_traced_peak_of_one_step(self):
        """The traced peak of one default-config `train.gradients` call, on the
        step-1 batch of a 64-record corpus: 16.09 MiB while backward kept
        every node of the graph until the step ended, 11.77 MiB once it
        released each node as soon as its backward had run, 10.20 MiB once
        each MLP node kept its GELU's slope instead of the pre-activation
        and the gate, 9.19 MiB once the attention and MLP nodes took their
        block's pre-norm and kept only its xhat and rstd, and attention
        rebuilt `wk|wv` in backward, 7.40 MiB once the forward released each
        residual-stream value as soon as its last reader had run."""
        params, batch, text_cfg, image_cfg, cfg = first_step("default")
        peak = traced_peak(lambda: train.gradients(params, batch, text_cfg, image_cfg, cfg))[1]
        assert peak <= 8 * 2 ** 20

    def test_gradients_are_the_leaves_own(self, corpus16):
        """`gradients` hands out each leaf's own gradient array, not a copy."""
        recs, vocab = corpus16
        cfg = tiny_cfg()
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        batch = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                     train.step_rng(0, 1), image_cfg)
        grads, _, _ = train.gradients(params, batch, text_cfg, image_cfg, cfg)
        with_grad = [n for n in grads if params[n].grad is not None]
        assert with_grad and all(grads[n] is params[n].grad for n in with_grad)

    def test_step_graph_stays_fused(self):
        """Nodes reachable from one default-config step's loss, the parameter
        leaves left out: 300 before the dense layers, GELU, attention,
        InfoNCE and L2 normalization became one node each and the last blocks
        were cut to their pooled rows, 86 before every InfoNCE term of the
        step became one contrastive node, 65 before each block's MLP became
        one mlp node, 57 before each text pass was read back by one getitem
        and each tower projected its cut last block without a slice, 53
        before the attention and MLP nodes took their block's pre-norm.
        Unfusing a node again fails here."""
        params, batch, text_cfg, image_cfg, cfg = first_step("default")
        for t in params.values():
            t.requires_grad = True
        loss = train.compute_loss(params, batch, text_cfg, image_cfg, cfg)[0].total
        seen, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        assert len(seen - {id(t) for t in params.values()}) <= 45

    def test_features_do_not_depend_on_grad_mode(self):
        """Text and ViT features are the same bytes with every parameter
        requiring a gradient (nodes save what their backward reads) and with
        none (the MLP works in place and saves nothing): the in-place branch
        writes into no array that another node kept."""
        recs = generate_synthetic_corpus(1, 6, 2, 16)
        vocab = Vocabulary.build([t for r in recs for t in r.long_texts])
        cfg = TrainConfig(seed=1, image_mode="vit")
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        seqs = [tokenize(r.long_texts[0], text_cfg.limit, text_cfg.m, vocab) for r in recs]
        ids, roles = np.stack([q.ids for q in seqs]), np.stack([q.roles for q in seqs])
        size = image_cfg.image_size
        images = np.random.default_rng(2).normal(size=(len(recs), size, size, image_cfg.channels))

        def features(requires_grad):
            for t in params.values():
                t.requires_grad = requires_grad
            text = text_encoder.encode_text_graph(ids, roles, params, text_cfg)[0]
            image = image_encoder.encode_image_graph(images, params, image_cfg)
            assert text.requires_grad == image.requires_grad == requires_grad
            return text.value, image.value

        for graph, no_grad in zip(features(True), features(False)):
            np.testing.assert_array_equal(graph, no_grad)


def encode_every_row_loss(params, batch, text_cfg, image_cfg, cfg):
    """The reference for compute_loss: every text row encoded, as it is
    drawn, and passed to the loss as the tower's block; the short pass, like
    compute_loss's, reads only the global feature."""
    tau = objective.temperature(params["obj.s"])
    v = (Tensor(batch.image_features) if batch.image_features is not None
         else image_encoder.encode_image_graph(batch.image_inputs, params, image_cfg))
    short = text_encoder.encode_text_graph(batch.short_ids, batch.short_roles,
                                           params, text_cfg, corners=False)[0]
    long = text_encoder.encode_text_graph(batch.long_ids, batch.long_roles,
                                          params, text_cfg)[0]
    return objective.total_loss(v, short, tau, long), tau


def n_distinct(ids, roles):
    return len(np.unique(np.concatenate([ids, roles], axis=1), axis=0))


@pytest.fixture(scope="module")
def repeating_corpus():
    """16 records over a pool of 3 attributes: 3 distinct short captions and
    6 distinct attribute pairs, so captions repeat within a batch of 8."""
    recs = generate_synthetic_corpus(0, 16, 2, 8, pool_size=3)
    return recs, corpus.vocabulary(recs)


class TestDistinctCaptions:
    def batch(self, recs, vocab, cfg):
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        batch = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                     train.step_rng(cfg.seed, 1), image_cfg)
        return params, batch, text_cfg, image_cfg

    def reference_gradients(self, monkeypatch, params, batch, text_cfg, image_cfg, cfg):
        with monkeypatch.context() as patch:
            patch.setattr(train, "compute_loss", encode_every_row_loss)
            return train.gradients(params, batch, text_cfg, image_cfg, cfg)

    def test_encoder_sees_only_distinct_rows(self, repeating_corpus, monkeypatch):
        recs, vocab = repeating_corpus
        cfg = tiny_cfg(batch_size=8)
        params, batch, text_cfg, image_cfg = self.batch(recs, vocab, cfg)
        want = [n_distinct(batch.short_ids, batch.short_roles),
                n_distinct(batch.long_ids, batch.long_roles)]
        assert max(want) < cfg.batch_size
        sizes = []
        encode = text_encoder.encode_text_graph
        monkeypatch.setattr(text_encoder, "encode_text_graph",
                            lambda ids, *a, **kw: (sizes.append(len(ids)), encode(ids, *a, **kw))[1])
        train.gradients(params, batch, text_cfg, image_cfg, cfg)
        assert sizes == want

    def test_repeats_match_every_row_reference(self, repeating_corpus, monkeypatch):
        """The forward reads the same bytes; the gradients sum the repeats
        over fewer rows, so they differ in the last bits only."""
        recs, vocab = repeating_corpus
        cfg = tiny_cfg(batch_size=8)
        params, batch, text_cfg, image_cfg = self.batch(recs, vocab, cfg)
        grads, bd, tau = train.gradients(params, batch, text_cfg, image_cfg, cfg)
        ref, ref_bd, ref_tau = self.reference_gradients(monkeypatch, params, batch,
                                                        text_cfg, image_cfg, cfg)
        assert (bd.total.value.tobytes(), bd.short, bd.long, tau) == \
            (ref_bd.total.value.tobytes(), ref_bd.short, ref_bd.long, ref_tau)
        # relative to the largest entry: the key bias's true gradient is 0,
        # and both sides hold only rounding there
        scale = max(np.abs(g).max() for g in ref.values())
        for name, g in ref.items():
            np.testing.assert_allclose(grads[name], g, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    def test_all_distinct_batch_is_today_s_graph(self, corpus16, monkeypatch):
        """With no repeated row, every text row is encoded in its drawn order:
        the gradients are the reference's bytes."""
        recs, vocab = corpus16
        firsts = list({r.short_text: r for r in recs}.values())
        cfg = tiny_cfg(batch_size=8)
        params, batch, text_cfg, image_cfg = self.batch(firsts, vocab, cfg)
        assert n_distinct(batch.short_ids, batch.short_roles) == cfg.batch_size
        assert n_distinct(batch.long_ids, batch.long_roles) == cfg.batch_size
        grads = train.gradients(params, batch, text_cfg, image_cfg, cfg)[0]
        ref = self.reference_gradients(monkeypatch, params, batch, text_cfg, image_cfg, cfg)[0]
        for name, g in ref.items():
            assert grads[name].tobytes() == g.tobytes(), name

    def test_one_caption_batch_takes_a_step(self, corpus16):
        recs, vocab = corpus16
        caption = recs[0].short_text
        same = [dataclasses.replace(r, short_text=caption, long_texts=[caption])
                for r in recs]
        cfg = tiny_cfg(batch_size=16)
        params, batch, text_cfg, image_cfg = self.batch(same, vocab, cfg)
        assert n_distinct(batch.short_ids, batch.short_roles) == 1
        assert n_distinct(batch.long_ids, batch.long_roles) == 1
        opt = AdamState.create(params, train.trainable_names(params, cfg))
        metrics = train.train_step(params, opt, batch, text_cfg, image_cfg, cfg, 1)
        assert np.isfinite([metrics["loss_total"], metrics["grad_norm"]]).all()
        assert all(np.isfinite(p.value).all() for p in params.values())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3), st.data())
    def test_distinct_rows_rebuild_the_batch(self, batch_size, length, data):
        """Random small-alphabet batches, so rows repeat often."""
        rows = arrays(np.int64, (batch_size, length), elements=st.integers(0, 2))
        ids, roles = data.draw(rows), data.draw(rows)
        u_ids, u_roles, index = text_encoder.distinct_rows(ids, roles)
        np.testing.assert_array_equal(u_ids[index], ids)
        np.testing.assert_array_equal(u_roles[index], roles)
        assert n_distinct(u_ids, u_roles) == len(u_ids)
        # first-occurrence order: each row's number is at most one past any before it
        assert index[0] == 0 and index.max() == len(u_ids) - 1
        assert (np.diff(np.maximum.accumulate(index)) <= 1).all()
        # rows made distinct by a leading row number come back as they are
        numbered = np.concatenate([np.arange(batch_size)[:, None], ids], axis=1)
        u_ids, u_roles, index = text_encoder.distinct_rows(numbered, roles)
        np.testing.assert_array_equal(index, np.arange(batch_size))
        assert u_ids.tobytes() == numbered.tobytes() and u_roles.tobytes() == roles.tobytes()


class TestConfigValidation:
    @pytest.mark.parametrize("field,value,rule", [
        ("steps", 0, ">= 1"),
        ("lr", float("nan"), "finite and > 0"),
        ("lr", 0.0, "finite and > 0"),
        ("lr", float("inf"), "finite and > 0"),
        ("weight_decay", -0.01, "finite and >= 0"),
        ("weight_decay", float("nan"), "finite and >= 0"),
        ("tau_init", 0.0, "in [0.01, 10.0]"),
        ("tau_init", 10.5, "in [0.01, 10.0]"),
        ("warmup_steps", -1, ">= 0"),
        ("checkpoint_every", -1, ">= 0"),
        ("m", M_MAX + 1, f"<= {M_MAX} (the reserved corner ids)"),
    ])
    def test_bad_setting_names_field_and_value(self, field, value, rule):
        with pytest.raises(ValueError) as exc:
            tiny_cfg(**{field: value})
        assert str(exc.value) == f"{field} must be {rule}, got {value!r}"

    def test_range_ends_accepted(self):
        tiny_cfg(steps=1, weight_decay=0.0, tau_init=0.01, warmup_steps=0, checkpoint_every=0)
        tiny_cfg(tau_init=10.0)
        tiny_cfg(m=M_MAX)


class TestSchedule:
    def test_warmup_linear(self):
        cfg = tiny_cfg(lr=1.0, warmup_steps=4, steps=10)
        assert train.lr_at(cfg, 1) == pytest.approx(0.25)
        assert train.lr_at(cfg, 4) == pytest.approx(1.0)
        assert train.lr_at(cfg, 9) == pytest.approx(1.0)

    def test_cosine_endpoints(self):
        cfg = tiny_cfg(lr=1.0, warmup_steps=2, steps=10, lr_schedule="cosine")
        assert train.lr_at(cfg, 2) == pytest.approx(1.0)
        assert train.lr_at(cfg, 6) == pytest.approx(0.5)
        assert train.lr_at(cfg, 10) == pytest.approx(0.0, abs=1e-12)

    def test_weight_decay_skips_vectors(self):
        assert train._decays(np.zeros((4, 4)))           # text.proj
        assert not train._decays(np.zeros(4))            # text.L0.ln1.g
        assert not train._decays(np.zeros(()))           # obj.s


class TestTrainStep:
    def test_loss_decreases_over_short_run(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=30, warmup_steps=5, batch_size=8)
        res = train.run_training(recs, vocab, cfg)
        first = np.mean([m["loss_total"] for m in res.metrics[:5]])
        last = np.mean([m["loss_total"] for m in res.metrics[-5:]])
        assert last < first

    def test_metrics_fields(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=1)
        res = train.run_training(recs, vocab, cfg)
        m = res.metrics[0]
        for key in ("step", "loss_total", "loss_short", "loss_long", "tau",
                    "grad_norm", "lr", "n_long_fallback"):
            assert key in m
        assert m["step"] == 1
        assert m["loss_total"] == pytest.approx(m["loss_short"] + m["loss_long"])

    def test_deterministic_end_to_end(self, corpus16):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=3)
        a = train.run_training(recs, vocab, cfg)
        b = train.run_training(recs, vocab, cfg)
        assert [train.metrics_line(m) for m in a.metrics] == \
            [train.metrics_line(m) for m in b.metrics]
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].value, b.params[k].value)

    @pytest.mark.parametrize("freeze_image", [False, True])
    def test_no_parameter_holds_a_gradient_after_a_step(self, corpus16, freeze_image):
        """Each gradient is released right after its parameter's AdamW update:
        after `train_step`, and after `run_training` returns, no parameter
        holds a `grad`."""
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=2, freeze_image=freeze_image)
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        opt = AdamState.create(params, train.trainable_names(params, cfg))
        batch = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(0, 1),
                                     image_cfg)
        train.train_step(params, opt, batch, text_cfg, image_cfg, cfg, 1)
        assert all(t.grad is None for t in params.values())
        res = train.run_training(recs, vocab, cfg)
        assert all(t.grad is None for t in res.params.values())

    def test_inference_after_training_builds_no_graph(self, corpus16, monkeypatch):
        recs, vocab = corpus16
        res = train.run_training(recs, vocab, tiny_cfg(steps=2))
        assert not any(t.requires_grad for t in res.params.values())
        made = []
        init = Tensor.__init__
        monkeypatch.setattr(Tensor, "__init__",
                            lambda self, *a, **kw: (init(self, *a, **kw), made.append(self))[0])
        evaluation.embed_eval_set(recs, res.params, res.text_cfg, res.image_cfg, vocab)
        assert made and not any(t._backward is not None for t in made)


def out_of_place_adamw(params, opt, grads, cfg, step):
    """The AdamW update as train_step made it before it worked in place: new
    moment and value arrays every step. Returns the gradient norm."""
    opt.step += 1
    lr = train.lr_at(cfg, step)
    gnorm_sq = 0.0
    for name in sorted(grads):
        g = grads[name]
        gnorm_sq += float((g * g).sum())
        opt.m[name] = train.ADAM_BETA1 * opt.m[name] + (1 - train.ADAM_BETA1) * g
        opt.v[name] = train.ADAM_BETA2 * opt.v[name] + (1 - train.ADAM_BETA2) * g * g
        mhat = opt.m[name] / (1 - train.ADAM_BETA1 ** opt.step)
        vhat = opt.v[name] / (1 - train.ADAM_BETA2 ** opt.step)
        p = params[name]
        update = mhat / (np.sqrt(vhat) + train.ADAM_EPS)
        if cfg.weight_decay and p.value.ndim >= 2:
            update = update + cfg.weight_decay * p.value
        p.value = p.value - lr * update
    return float(np.sqrt(gnorm_sq))


class TestAdamW:
    @pytest.mark.parametrize("weight_decay", [0.01, 0.0])
    @pytest.mark.parametrize("freeze_image", [False, True])
    def test_in_place_update_is_the_out_of_place_one(self, corpus16, weight_decay,
                                                     freeze_image):
        """Three steps give the bytes of the out-of-place update, the 0-d obj.s
        included, and leave every moment and value array the same object."""
        recs, vocab = corpus16
        cfg = tiny_cfg(weight_decay=weight_decay, freeze_image=freeze_image)
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        ref = {n: Tensor(t.value.copy()) for n, t in params.items()}
        names = train.trainable_names(params, cfg)
        assert "obj.s" in names and params["obj.s"].value.ndim == 0
        assert any(n.startswith("img.") for n in names) != freeze_image
        opt, ref_opt = AdamState.create(params, names), AdamState.create(ref, names)
        for step in (1, 2, 3):
            batch = train.assemble_batch(recs, vocab, text_cfg, cfg,
                                         train.step_rng(cfg.seed, step), image_cfg)
            arrays = [(d, n, d[n]) for d in (opt.m, opt.v) for n in names]
            values = {n: t.value for n, t in params.items()}
            metrics = train.train_step(params, opt, batch, text_cfg, image_cfg, cfg, step)
            grads, _, _ = train.gradients(ref, batch, text_cfg, image_cfg, cfg)
            assert metrics["grad_norm"] == out_of_place_adamw(ref, ref_opt, grads, cfg, step)
            assert all(d[n] is a for d, n, a in arrays)
            assert all(params[n].value is a for n, a in values.items())
            for n in params:
                assert params[n].value.tobytes() == ref[n].value.tobytes(), n
            for n in names:
                assert opt.m[n].tobytes() == ref_opt.m[n].tobytes(), n
                assert opt.v[n].tobytes() == ref_opt.v[n].tobytes(), n
            assert opt.step == ref_opt.step == step


class TestCheckpointing:
    def test_round_trip_bit_exact(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=2)
        res = train.run_training(recs, vocab, cfg,
                                 out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "ckpt_final.bin"
        params, opt_raw, step, meta = ckpt.load_checkpoint(path)
        assert step == 2
        assert meta["text_config"]["m"] == cfg.m
        assert set(params) == set(res.params)
        for k in params:
            np.testing.assert_array_equal(params[k].value, res.params[k].value)
        adam_m, adam_v, opt_step = opt_raw
        assert opt_step == res.opt.step
        for k in adam_m:
            np.testing.assert_array_equal(adam_m[k], res.opt.m[k])
            np.testing.assert_array_equal(adam_v[k], res.opt.v[k])

    def test_scalar_param_shape_preserved(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=1)
        res = train.run_training(recs, vocab, cfg,
                                 out_dir=str(tmp_path / "run"))
        assert res.params["obj.s"].value.shape == ()
        params, _, _, _ = ckpt.load_checkpoint(tmp_path / "run" / "ckpt_final.bin")
        assert params["obj.s"].value.shape == ()

    def test_save_load_save_byte_identical(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=1)
        train.run_training(recs, vocab, cfg, out_dir=str(tmp_path / "run"))
        p1 = tmp_path / "run" / "ckpt_final.bin"
        params, opt_raw, step, meta = ckpt.load_checkpoint(p1)
        opt = AdamState(m=opt_raw[0], v=opt_raw[1], step=opt_raw[2])
        p2 = tmp_path / "again.bin"
        ckpt.save_checkpoint(p2, params, opt, step, meta)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=1)
        train.run_training(recs, vocab, cfg, out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "ckpt_final.bin"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ckpt.CheckpointError, match="checksum"):
            ckpt.load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["header cut", "arrays cut", "crc cut",
                                        "header byte flipped", "optimizer byte flipped"])
    def test_damaged_file_refused(self, corpus16, tmp_path, damage):
        """A file cut inside its JSON header, its arrays or its CRC, or with one
        header bit flipped so the header still parses, fails the checksum; so
        does a flipped byte of the optimizer state, which `load_parameters`
        reads no array of, since both reads verify the whole file."""
        recs, vocab = corpus16
        train.run_training(recs, vocab, tiny_cfg(steps=1), out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "ckpt_final.bin"
        blob = path.read_bytes()
        hlen = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16:16 + hlen])
        digit = blob.index(b'"step": 1') + len(b'"step": ')      # "1" -> "3"
        adam = 16 + hlen + next(e["offset"] for e in header["arrays"]
                                if e["name"].startswith("adam."))
        path.write_bytes({
            "header cut": blob[:16 + hlen // 2],
            "arrays cut": blob[:(16 + hlen + len(blob)) // 2],
            "crc cut": blob[:-2],
            "header byte flipped": blob[:digit] + b"3" + blob[digit + 1:],
            "optimizer byte flipped": blob[:adam] + bytes([blob[adam] ^ 1]) + blob[adam + 1:],
        }[damage])
        for read in (ckpt.load_checkpoint, ckpt.load_parameters):
            with pytest.raises(ckpt.CheckpointError, match=r"^checkpoint corrupted \(checksum "
                                                           r"mismatch\)$"):
                read(path)

    def test_save_and_load_move_the_state_once(self, tmp_path):
        """Traced peaks on the default config's 2.6 MB checkpoint. A save that
        built the payload from copies of every array peaked at 2.73 MiB, a load
        that held the file and its slices at once at 9.98 MiB; streamed, a save
        holds no array's copy and a load little beyond the arrays it returns."""
        recs = generate_synthetic_corpus(1, 256, 4, 16)
        vocab = corpus.vocabulary(recs)
        cfg = TrainConfig(seed=1)
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        opt = AdamState.create(params, train.trainable_names(params, cfg))
        meta = train.checkpoint_meta(cfg, text_cfg, image_cfg, vocab)
        path = tmp_path / "ckpt.bin"
        _, saved = traced_peak(lambda: ckpt.save_checkpoint(path, params, opt, 0, meta))
        assert path.stat().st_size > 2.5e6
        assert saved <= 0.5 * 2 ** 20
        (loaded, (m, v, _), _, _), peak = traced_peak(lambda: ckpt.load_checkpoint(path))
        arrays = [t.value for t in loaded.values()] + [*m.values(), *v.values()]
        assert peak <= sum(a.nbytes for a in arrays) + ckpt.CHUNK + 0.5 * 2 ** 20

    def test_parameters_read_skips_the_optimizer_state(self, tmp_path):
        """eval and inspect read the parameters alone: on the default config's
        checkpoint a full load peaks at 2.54 MiB, 1.65 MiB of it the AdamW
        moments; the parameters-only read (0.87 MiB) returns the same
        parameters, step and meta within 1 MiB."""
        recs = generate_synthetic_corpus(1, 256, 4, 16)
        vocab = corpus.vocabulary(recs)
        res = train.run_training(recs, vocab, TrainConfig(seed=1, steps=2),
                                 out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "ckpt_final.bin"
        (params, step, meta), peak = traced_peak(lambda: ckpt.load_parameters(path))
        assert peak <= 2 ** 20
        full, _, full_step, full_meta = ckpt.load_checkpoint(path)
        assert (step, meta) == (full_step, full_meta) and list(params) == list(full)
        for name, t in params.items():
            assert t.value.tobytes() == full[name].value.tobytes() == \
                res.params[name].value.tobytes()
            assert t.value.shape == full[name].value.shape

    def test_failed_write_keeps_previous_checkpoint(self, corpus16, tmp_path, monkeypatch):
        recs, vocab = corpus16
        run_dir = tmp_path / "run"
        train.run_training(recs, vocab, tiny_cfg(steps=1), out_dir=str(run_dir))
        path = run_dir / "ckpt_final.bin"
        before, listing = path.read_bytes(), sorted(os.listdir(run_dir))
        params, (m, v, opt_step), step, meta = ckpt.load_checkpoint(path)

        class TornFile:    # writes half of what it is given, then fails
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError("disk full")

        real_open = open
        monkeypatch.setattr(ckpt, "open", raising=False, value=lambda file, mode="r": (
            TornFile(real_open(file, mode)) if "w" in mode else real_open(file, mode)))
        with pytest.raises(OSError, match="disk full"):
            ckpt.save_checkpoint(path, params, AdamState(m=m, v=v, step=opt_step + 1),
                                 step + 1, meta)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(os.listdir(run_dir)) == listing
        assert ckpt.load_checkpoint(path)[2] == step

    def test_checkpoint_without_optimizer_state_refused(self, corpus16, tmp_path):
        recs, vocab = corpus16
        train.run_training(recs, vocab, tiny_cfg(steps=1), out_dir=str(tmp_path / "run"))
        path = tmp_path / "run" / "ckpt_final.bin"
        blob = path.read_bytes()
        hlen = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16:16 + hlen])
        header["has_opt_state"] = False
        hbytes = json.dumps(header, sort_keys=True).encode()
        body = blob[:8] + struct.pack("<Q", len(hbytes)) + hbytes + blob[16 + hlen:-4]
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(ckpt.CheckpointError, match="no optimizer state"):
            ckpt.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"definitely not a checkpoint file")
        with pytest.raises(ckpt.CheckpointError, match="magic"):
            ckpt.load_checkpoint(path)

    def test_meta_field_mismatch(self):
        stored = {"train_config": {"m": 2, "steps": 5}, "text_config": {"width": 16}}
        train.check_resume_meta(stored, {"train_config": {"m": 2, "steps": 9},
                                         "text_config": {"width": 16}})
        with pytest.raises(ckpt.CheckpointError, match="'m' mismatch: stored 2, expected 4"):
            train.check_resume_meta(stored, {"train_config": {"m": 4, "steps": 5},
                                             "text_config": {"width": 16}})
        with pytest.raises(ckpt.CheckpointError, match="'text_config.width' mismatch"):
            train.check_resume_meta(stored, {"train_config": {"m": 2, "steps": 5},
                                             "text_config": {"width": 32}})
        with pytest.raises(ckpt.CheckpointError, match="meta sections mismatch"):
            train.check_resume_meta({**stored, "m": 2}, stored)

    @pytest.mark.parametrize("image_mode,records", [("precomputed", "corpus16"),
                                                    ("vit", "pixel_corpus")])
    def test_each_setting_is_stored_in_one_section(self, request, tmp_path, image_mode,
                                                   records):
        """train_config holds the TrainConfig fields that set no tower field;
        the shape fields are stored only in the tower sections, which hold
        their configs whole, so no tower field is in train_config either."""
        recs, vocab = request.getfixturevalue(records)
        cfg = tiny_cfg(steps=1, image_mode=image_mode)
        train.run_training(recs, vocab, cfg, out_dir=str(tmp_path / "run"))
        meta = ckpt.load_checkpoint(tmp_path / "run" / "ckpt_final.bin")[3]
        in_towers = {"limit": ["text_config.limit"], "m": ["text_config.m"],
                     "mask_mode": ["text_config.mask_mode"],
                     "text_depth": ["text_config.depth"], "text_width": ["text_config.width"],
                     "text_heads": ["text_config.heads"], "image_mode": ["image_config.mode"],
                     # both towers project into the one joint space
                     "projection_dim": ["text_config.projection_dim",
                                        "image_config.projection_dim"]}
        for f in dataclasses.fields(TrainConfig):
            value = getattr(cfg, f.name)
            if f.name in in_towers:
                assert f.name not in meta["train_config"], f.name
                for home in in_towers[f.name]:
                    section, name = home.split(".")
                    assert meta[section][name] == value, home
            else:
                assert meta["train_config"][f.name] == value, f.name
        assert set(meta["train_config"]) == ({f.name for f in dataclasses.fields(TrainConfig)}
                                             - set(in_towers))
        for section, tower in (("text_config", text_encoder.TextEncoderConfig),
                               ("image_config", image_encoder.ImageEncoderConfig)):
            fields = {f.name for f in dataclasses.fields(tower)}
            assert set(meta[section]) == fields, section
            assert not fields & set(meta["train_config"]), section
        assert meta["image_config"]["mode"] == image_mode

    def test_vocab_round_trip(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=1)
        train.run_training(recs, vocab, cfg, out_dir=str(tmp_path / "run"))
        _, _, _, meta = ckpt.load_checkpoint(tmp_path / "run" / "ckpt_final.bin")
        assert meta["vocab"] == {"token_to_id": vocab.token_to_id}
        assert train.vocab_from_meta(meta).token_to_id == vocab.token_to_id
        older = {"vocab": {"m_max": M_MAX, **meta["vocab"]}}      # the layout that stored m_max
        assert train.vocab_from_meta(older).token_to_id == vocab.token_to_id


class TestResume:
    @pytest.mark.parametrize("stop_after", [1, 2, 3, 4, 5])
    def test_resume_reproduces_uninterrupted_run(self, corpus16, tmp_path, stop_after):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=6, warmup_steps=2)
        full = train.run_training(recs, vocab, cfg, out_dir=str(tmp_path / "full"))

        part_dir = str(tmp_path / "part")
        train.run_training(recs, vocab, cfg, out_dir=part_dir, stop_after=stop_after)
        resumed = train.run_training(
            recs, vocab, cfg, out_dir=part_dir,
            resume_from=str(tmp_path / "part" / "ckpt_final.bin"))

        assert [m["step"] for m in resumed.metrics] == list(range(stop_after + 1, 7))
        for got, want in zip(resumed.metrics, full.metrics[stop_after:]):
            assert train.metrics_line(got) == train.metrics_line(want)
        for k in full.params:
            np.testing.assert_array_equal(resumed.params[k].value,
                                          full.params[k].value)
        lines = (tmp_path / "part" / "metrics.jsonl").read_text().splitlines()
        assert lines == [train.metrics_line(m) for m in full.metrics]

    def test_resume_from_periodic_checkpoint_logs_each_step_once(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=8, warmup_steps=2, checkpoint_every=4)
        full = train.run_training(recs, vocab, cfg)
        run_dir = tmp_path / "run"
        # a run that stops after step 5 leaves ckpt_000004.bin and five metrics lines
        train.run_training(recs, vocab, cfg, out_dir=str(run_dir), stop_after=5)
        train.run_training(recs, vocab, cfg, out_dir=str(run_dir),
                           resume_from=str(run_dir / "ckpt_000004.bin"))
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["step"] for line in lines] == list(range(1, 9))
        assert lines == [train.metrics_line(m) for m in full.metrics]

    def test_resume_drops_a_torn_metrics_line(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=4, warmup_steps=2)
        full = train.run_training(recs, vocab, cfg)
        run_dir = tmp_path / "run"
        train.run_training(recs, vocab, cfg, out_dir=str(run_dir), stop_after=2)
        with open(run_dir / "metrics.jsonl", "a") as f:
            f.write('{"step": 3, "loss')
        train.run_training(recs, vocab, cfg, out_dir=str(run_dir),
                           resume_from=str(run_dir / "ckpt_final.bin"))
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert lines == [train.metrics_line(m) for m in full.metrics]

    def test_resume_interrupted_at_reopening_keeps_covered_lines(self, corpus16, tmp_path,
                                                                 monkeypatch):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=6, warmup_steps=2, checkpoint_every=2)
        full = [train.metrics_line(m) for m in train.run_training(recs, vocab, cfg).metrics]
        run_dir = tmp_path / "run"
        train.run_training(recs, vocab, cfg, out_dir=str(run_dir), stop_after=5)
        resume = dict(out_dir=str(run_dir), resume_from=str(run_dir / "ckpt_000004.bin"))

        class Killed(Exception):
            pass

        class DiesOnWrite:    # the process dies at its first write to a reopened file
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __iter__(self):
                return iter(self.f)

            def __getattr__(self, name):
                if name in ("write", "writelines"):
                    raise Killed
                return getattr(self.f, name)

        real_open = open
        monkeypatch.setattr(train, "open", raising=False,
                            value=lambda *a, **kw: DiesOnWrite(real_open(*a, **kw)))
        with pytest.raises(Killed):
            train.run_training(recs, vocab, cfg, **resume)
        monkeypatch.undo()
        assert (run_dir / "metrics.jsonl").read_text().splitlines() == full[:4]
        train.run_training(recs, vocab, cfg, **resume)
        assert (run_dir / "metrics.jsonl").read_text().splitlines() == full

    def test_kill_after_periodic_checkpoint_loses_no_line(self, corpus16, tmp_path):
        """A child process SIGKILLed right after its step-6 checkpoint; the
        resume from that checkpoint gives the uninterrupted stream."""
        recs, vocab = corpus16
        cfg = tiny_cfg(batch_size=8, steps=12, warmup_steps=2, checkpoint_every=6)
        full = [train.metrics_line(m) for m in train.run_training(recs, vocab, cfg).metrics]
        run_dir = tmp_path / "run"
        child = textwrap.dedent("""
            import json, os, signal, sys
            from cornerclip import corpus, train
            recs = corpus.generate_synthetic_corpus(0, 16, 2, 8)
            vocab = corpus.vocabulary(recs)
            save = train.ckpt.save_checkpoint
            def save_then_die(*args):
                save(*args)
                os.kill(os.getpid(), signal.SIGKILL)
            train.ckpt.save_checkpoint = save_then_die
            train.run_training(recs, vocab, train.TrainConfig(**json.loads(sys.argv[1])),
                               out_dir=sys.argv[2])
        """)
        src = os.path.dirname(os.path.dirname(train.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(dataclasses.asdict(cfg)), str(run_dir)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert sorted(os.listdir(run_dir)) == ["ckpt_000006.bin", "metrics.jsonl"]
        train.run_training(recs, vocab, cfg, out_dir=str(run_dir),
                           resume_from=str(run_dir / "ckpt_000006.bin"))
        assert (run_dir / "metrics.jsonl").read_text().splitlines() == full

    def test_resume_rejects_mismatched_m(self, corpus16, tmp_path):
        recs, vocab = corpus16
        cfg = tiny_cfg(steps=2)
        train.run_training(recs, vocab, cfg, out_dir=str(tmp_path / "run"))
        other = tiny_cfg(steps=4, m=3)
        with pytest.raises(ckpt.CheckpointError, match="'text_config.m' mismatch"):
            train.run_training(recs, vocab, other,
                               resume_from=str(tmp_path / "run" / "ckpt_final.bin"))

    @pytest.mark.parametrize("field,value", [
        ("text_width", 32), ("lr", 5e-3), ("batch_size", 8), ("vocab", None)])
    def test_resume_rejects_another_config(self, corpus16, tmp_path, field, value):
        recs, vocab = corpus16
        train.run_training(recs, vocab, tiny_cfg(steps=2), out_dir=str(tmp_path / "run"))
        if field == "vocab":
            cfg = tiny_cfg(steps=4)
            vocab = Vocabulary.build([r.short_text for r in recs] + ["zebra."])
        else:
            cfg = tiny_cfg(steps=4, **{field: value})
        stored_as = {"text_width": "text_config.width"}.get(field, field)
        with pytest.raises(ckpt.CheckpointError,
                           match=f"'[a-z_.]*{stored_as}[a-z_.]*' mismatch"):
            train.run_training(recs, vocab, cfg,
                               resume_from=str(tmp_path / "run" / "ckpt_final.bin"))

    def test_resume_may_extend_steps(self, corpus16, tmp_path):
        recs, vocab = corpus16
        run_dir = tmp_path / "run"
        train.run_training(recs, vocab, tiny_cfg(steps=2, checkpoint_every=2),
                           out_dir=str(run_dir))
        full = train.run_training(recs, vocab, tiny_cfg(steps=4))
        resumed = train.run_training(recs, vocab, tiny_cfg(steps=4), out_dir=str(run_dir),
                                     resume_from=str(run_dir / "ckpt_final.bin"))
        assert [train.metrics_line(m) for m in resumed.metrics] == \
            [train.metrics_line(m) for m in full.metrics[2:]]


    def test_resume_refuses_a_checkpoint_past_the_runs_end(self, corpus16, tmp_path):
        """A resume whose run ends before the checkpoint's step is refused
        before it writes anything, naming both steps; an equal end is allowed."""
        recs, vocab = corpus16
        run_dir = tmp_path / "run"
        train.run_training(recs, vocab, tiny_cfg(steps=6, checkpoint_every=3),
                           out_dir=str(run_dir))
        files = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        resume = dict(out_dir=str(run_dir), resume_from=str(run_dir / "ckpt_000006.bin"))
        with pytest.raises(ckpt.CheckpointError, match="ends at step 4, .* step 6"):
            train.run_training(recs, vocab, tiny_cfg(steps=4), **resume)
        with pytest.raises(ckpt.CheckpointError, match="ends at step 5, .* step 6"):
            train.run_training(recs, vocab, tiny_cfg(steps=9), stop_after=5, **resume)
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == files
        resumed = train.run_training(recs, vocab, tiny_cfg(steps=6), **resume)
        assert resumed.metrics == []
        assert len((run_dir / "metrics.jsonl").read_text().splitlines()) == 6


def to_pixels(recs, pixel_dir):
    """Replace each record's 8-wide feature with a 32x32x3 .npy pixel file in pixel_dir."""
    projection = np.random.default_rng(7).normal(0.0, 8 ** -0.5, size=(32 * 32 * 3, 8))
    for rec in recs:
        path = pixel_dir / f"{rec.id}.npy"
        np.save(path, np.tanh(projection @ rec.image_feature).reshape(32, 32, 3))
        rec.image_path, rec.image_feature = str(path), None


@pytest.fixture(scope="module")
def pixel_corpus(tmp_path_factory):
    """corpus16 with each feature replaced by a 32x32x3 .npy pixel file."""
    recs = generate_synthetic_corpus(0, 16, 2, 8)
    vocab = corpus.vocabulary(recs)
    to_pixels(recs, tmp_path_factory.mktemp("pixels"))
    return recs, vocab


class TestVitTraining:
    @pytest.mark.parametrize("freeze_image", [True, False])
    def test_vit_end_to_end(self, pixel_corpus, freeze_image):
        recs, vocab = pixel_corpus
        cfg = tiny_cfg(image_mode="vit", freeze_image=freeze_image)
        text_cfg, image_cfg, init = setup_model(recs, vocab, cfg)
        res = train.run_training(recs, vocab, cfg)
        img_names = [n for n in init if n.startswith("img.")]
        changed = [n for n in img_names
                   if not np.array_equal(res.params[n].value, init[n].value)]
        assert changed == ([] if freeze_image else img_names)
        assert not np.array_equal(res.params["text.tok_emb"].value, init["text.tok_emb"].value)

        again = train.run_training(recs, vocab, cfg)
        assert [train.metrics_line(m) for m in res.metrics] == \
            [train.metrics_line(m) for m in again.metrics]

        _, img, txt = evaluation.embed_eval_set(recs, res.params, res.text_cfg,
                                                res.image_cfg, vocab)
        assert img.shape == txt.shape == (16, cfg.projection_dim)
        for feats in (img, txt):
            np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-12)


RELEASE_SITES = (transformer, text_encoder, image_encoder)    # the modules that call release


def first_step(model, pixel_corpus=None):
    """(params, step-1 batch, text_cfg, image_cfg, cfg) of the default config on a
    64-record corpus, or of a trained (not frozen) ViT tower on pixel_corpus."""
    if model == "default":
        recs = generate_synthetic_corpus(1, 64, 4, 16)
        vocab = corpus.vocabulary(recs)
        cfg = TrainConfig(seed=1)
    else:
        (recs, vocab), cfg = pixel_corpus, tiny_cfg(image_mode="vit")
    text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
    batch = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(cfg.seed, 1),
                                 image_cfg)
    return params, batch, text_cfg, image_cfg, cfg


class TestRelease:
    """The forward releases each residual-stream value once its last reader has
    run; no backward reads one, so the step's bytes are those of a forward that
    keeps every value."""

    @pytest.mark.parametrize("cut", [True, False])
    @pytest.mark.parametrize("model", ["default", "vit"])
    def test_bytes_equal_with_every_value_kept(self, pixel_corpus, monkeypatch, model, cut):
        params, batch, text_cfg, image_cfg, cfg = first_step(model, pixel_corpus)
        assert cfg.freeze_image is False
        if not cut:     # every block computes every row
            block = transformer.block_forward
            monkeypatch.setattr(transformer, "block_forward",
                                lambda *a, rows=None, **kw: block(*a, **kw))

        def step():
            grads, breakdown, tau = train.gradients(params, batch, text_cfg, image_cfg, cfg)
            return ({n: g.tobytes() for n, g in grads.items()},
                    breakdown.total.value.tobytes(), breakdown.short, breakdown.long, tau)

        released = step()
        for module in RELEASE_SITES:
            monkeypatch.setattr(module, "release", lambda *tensors: None)
        kept = step()
        assert released[1:] == kept[1:]
        assert released[0].keys() == kept[0].keys()
        for name, g in released[0].items():
            assert g == kept[0][name], name

    @pytest.mark.parametrize("model,count", [("default", 22), ("vit", 27)])
    def test_released_nodes_keep_only_their_shapes(self, pixel_corpus, monkeypatch, model,
                                                   count):
        """A tower's pass releases 4 values in each full block, 5 in its cut
        last block, and its last block's output; a text pass also its token
        gather, the ViT's its patch projection, class gather and concatenation.
        The default config's two 2-block text passes make 2 (4 + 5 + 2), and a
        1-block text tower beside a 2-block ViT 2 (5 + 2) + (4 + 5 + 1 + 3).
        Every other node keeps its value."""
        params, batch, text_cfg, image_cfg, cfg = first_step(model, pixel_corpus)
        released = {}

        def recording(*tensors):
            released.update((id(t), (t, t.shape)) for t in tensors)
            autodiff.release(*tensors)

        for module in RELEASE_SITES:
            monkeypatch.setattr(module, "release", recording)
        for t in params.values():
            t.requires_grad = True
        try:
            loss = train.compute_loss(params, batch, text_cfg, image_cfg, cfg)[0].total
        finally:
            for t in params.values():
                t.requires_grad = False
        assert len(released) == count
        for t, shape in released.values():
            assert t.value is None and t.shape == shape and t._backward is not None
        nodes, stack = {}, [loss]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        assert {i for i, n in nodes.items() if n.value is None} == released.keys()


@pytest.fixture(params=["precomputed", "vit"])
def mode_corpus(request, corpus16, pixel_corpus):
    """(image mode, records, vocab) for each image mode."""
    return (request.param, *(pixel_corpus if request.param == "vit" else corpus16))


class TestFrozenTower:
    """A frozen image tower's features are computed once per run, in record-order
    chunks of transformer.EMBED_ROWS, and every step reads its rows of them."""

    def test_cached_features_equal_each_batch_forward(self, mode_corpus):
        mode, recs, vocab = mode_corpus
        cfg = tiny_cfg(image_mode=mode, freeze_image=True)
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        feats = image_encoder.embed_images(recs, params, image_cfg)
        assert feats.shape == (16, cfg.projection_dim)
        for step in range(1, 9):
            plain = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(0, step),
                                         image_cfg)
            cached = train.assemble_batch(recs, vocab, text_cfg, cfg, train.step_rng(0, step),
                                          image_cfg, image_features=feats)
            assert plain.image_features is None and cached.image_inputs is None
            np.testing.assert_array_equal(cached.indices, plain.indices)
            forward = image_encoder.encode_image_graph(plain.image_inputs, params, image_cfg)
            np.testing.assert_array_equal(cached.image_features, forward.value)
            np.testing.assert_array_equal(cached.short_ids, plain.short_ids)

    @pytest.mark.parametrize("n", [16, 14])
    def test_tower_runs_once_per_chunk_when_frozen(self, mode_corpus, monkeypatch, n):
        mode, recs, vocab = mode_corpus
        recs = recs[:n]
        calls = []
        encode = image_encoder.encode_image_graph
        monkeypatch.setattr(image_encoder, "encode_image_graph", lambda x, *a, **kw: (
            calls.append(len(x)), encode(x, *a, **kw))[1])
        for steps in (3, 7):
            for frozen in (True, False):
                calls.clear()
                cfg = tiny_cfg(image_mode=mode, freeze_image=frozen, steps=steps)
                res = train.run_training(recs, vocab, cfg)
                if frozen:
                    assert len(calls) == -(-n // transformer.EMBED_ROWS) and sum(calls) == n
                    init = train.build_model(res.text_cfg, res.image_cfg, cfg.seed,
                                             cfg.tau_init)
                    for name in (k for k in init if k.startswith("img.")):
                        np.testing.assert_array_equal(res.params[name].value,
                                                      init[name].value)
                else:
                    assert calls == [cfg.batch_size] * steps

    @pytest.mark.parametrize("rows", [1, 2, 7, 16, 64])
    def test_features_do_not_depend_on_the_chunk_size(self, mode_corpus, monkeypatch, rows):
        """The no-grad embedding's text and image features are the bytes of one
        pass over every record whenever each pass takes 2 rows or more. A
        one-row pass runs numpy's matrix-vector products, which sum in another
        order, so there they agree to the last bits only."""
        mode, recs, vocab = mode_corpus
        cfg = tiny_cfg(image_mode=mode)
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        seqs = [tokenize(r.long_caption, text_cfg.limit, text_cfg.m, vocab) for r in recs]
        text_once = text_encoder.encode_text_graph(*text_encoder.stack_trimmed(seqs), params,
                                                   text_cfg, corners=False)[0].value[:, 0]
        image_once = image_encoder.encode_image_graph(
            image_encoder.image_inputs(recs, image_cfg), params, image_cfg).value
        monkeypatch.setattr(transformer, "EMBED_ROWS", rows)
        _, img, txt = evaluation.embed_eval_set(recs, params, text_cfg, image_cfg, vocab)
        if rows == 1:
            np.testing.assert_allclose(img, image_once, rtol=0, atol=1e-15)
            np.testing.assert_allclose(txt, text_once, rtol=0, atol=1e-15)
        else:
            assert img.tobytes() == image_once.tobytes()
            assert txt.tobytes() == text_once.tobytes()

    @pytest.mark.parametrize("mode", ["precomputed", "vit"])
    def test_features_do_not_depend_on_the_set_size(self, mode, tmp_path):
        """A record's text and image features are the same bytes in every set of
        2 to 40 records that holds it: a set of 16k + 1 records folds its last
        record into the pass before it, so no pass runs a single row."""
        assert [(s.start, s.stop) for n in (0, 1, 16, 17, 18, 33)
                for s in transformer.embed_chunks(n)] == [
            (0, 1), (0, 16), (0, 17), (0, 16), (16, 18), (0, 16), (16, 33)]
        recs = generate_synthetic_corpus(0, 40, 2, 8)
        vocab = corpus.vocabulary(recs)
        if mode == "vit":
            to_pixels(recs, tmp_path)
        cfg = tiny_cfg(image_mode=mode)
        text_cfg, image_cfg, params = setup_model(recs, vocab, cfg)
        _, img, txt = evaluation.embed_eval_set(recs, params, text_cfg, image_cfg, vocab)
        for n in range(2, 41):
            _, img_n, txt_n = evaluation.embed_eval_set(recs[:n], params, text_cfg,
                                                        image_cfg, vocab)
            assert img_n.tobytes() == img[:n].tobytes(), n
            assert txt_n.tobytes() == txt[:n].tobytes(), n

    def test_resume_from_periodic_checkpoint(self, mode_corpus, tmp_path):
        mode, recs, vocab = mode_corpus
        cfg = tiny_cfg(image_mode=mode, freeze_image=True, steps=8, warmup_steps=2,
                       checkpoint_every=4)
        full = train.run_training(recs, vocab, cfg)
        run_dir = tmp_path / "run"
        train.run_training(recs, vocab, cfg, out_dir=str(run_dir), stop_after=5)
        resumed = train.run_training(recs, vocab, cfg, out_dir=str(run_dir),
                                     resume_from=str(run_dir / "ckpt_000004.bin"))
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert lines == [train.metrics_line(m) for m in full.metrics]
        for k in full.params:
            np.testing.assert_array_equal(resumed.params[k].value, full.params[k].value)
