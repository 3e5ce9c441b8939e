"""Retrieval/classification metrics against brute-force oracles, plus FLOPs."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerclip import checkpoint as ckpt
from cornerclip import cli
from cornerclip import evaluation as ev
from cornerclip import text_encoder as te
from cornerclip import corpus, image_encoder, train, transformer
from cornerclip.corpus import ManifestRecord, generate_synthetic_corpus, save_manifest
from cornerclip.evaluation import RetrievalGroundTruth
from cornerclip.image_encoder import ImageEncoderConfig
from cornerclip.tokenizer import Vocabulary


def oracle_recall(S, gt, k, direction):
    """Rank by sorted() with explicit (score, index) tie-break to lower index."""
    S = np.asarray(S)
    hits = 0
    if direction == "i2t":
        queries = list(enumerate(gt.image_to_texts))
        for img, paired in queries:
            order = sorted(range(S.shape[1]), key=lambda j: (-S[img, j], j))
            hits += int(any(j in paired for j in order[:k]))
        return hits / len(queries)
    for t, img in enumerate(gt.text_to_image):
        order = sorted(range(S.shape[0]), key=lambda i: (-S[i, t], i))
        hits += int(img in order[:k])
    return hits / len(gt.text_to_image)


def grouped_ground_truth(data, n_img):
    """Every image paired with at least one text, texts in shuffled order."""
    owner = data.draw(st.lists(st.integers(0, n_img - 1), min_size=0, max_size=10))
    text_to_image = list(range(n_img)) + owner
    order = data.draw(st.permutations(range(len(text_to_image))))
    text_to_image = [text_to_image[i] for i in order]
    image_to_texts = [[t for t, img in enumerate(text_to_image) if img == i]
                      for i in range(n_img)]
    for texts in image_to_texts:
        data.draw(st.randoms()).shuffle(texts)
    return RetrievalGroundTruth(image_to_texts, text_to_image)


def feature_rows(data, n, width, kind):
    """n rows drawn from a pool of at most n distinct ones, so rows repeat:
    small integers, eighths, or normal floats from a drawn seed."""
    size = data.draw(st.integers(1, n))
    if kind == "float":
        pool = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
            size=(size, width))
    else:
        values = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
        pool = np.array(data.draw(st.lists(values, min_size=size, max_size=size)), float)
        pool /= 8 if kind == "dyadic" else 1
    return pool[data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))]


class TestGroundTruth:
    def test_one_to_one(self):
        gt = RetrievalGroundTruth.one_to_one(3)
        assert gt.image_to_texts == [[0], [1], [2]]
        assert gt.text_to_image == [0, 1, 2]

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError, match="consistent"):
            RetrievalGroundTruth([[0], [1]], [1, 0])

    def test_empty_pairing_rejected(self):
        with pytest.raises(ValueError, match="no paired texts"):
            RetrievalGroundTruth([[0], []], [0])

    def test_without_text_to_image_a_text_pairs_with_many_images(self):
        """text_to_image None: any number of images per text, a negative index
        refused (no consistency check would catch it), and no t2i."""
        gt = RetrievalGroundTruth([[0], [0, 1], [1]])     # text 0: images 0 and 1
        assert ev.evaluate_retrieval(np.eye(3, 2), np.eye(2), gt).metrics == {
            "i2t_r@1": 2 / 3, "i2t_r@5": 1.0}
        with pytest.raises(ValueError, match=r"^image 1 has no paired texts \(or a negative "
                                             r"index\): \[0, -1\]$"):
            RetrievalGroundTruth([[0], [0, -1]])

    def test_a_text_index_past_the_texts_is_refused_naming_the_image(self):
        """A paired text past text_to_image, or past the scores' texts when there is
        no text_to_image, is refused naming its image and the index."""
        message = r"^image 1 pairs with text 5, but there are 2 texts$"
        with pytest.raises(ValueError, match=message):
            RetrievalGroundTruth([[0], [5]], [0, 1])
        gt = RetrievalGroundTruth([[0], [5]])
        with pytest.raises(ValueError, match=message):
            ev.recall_at_k(np.eye(2), gt, 1, "i2t")
        with pytest.raises(ValueError, match=message):
            ev.evaluate_retrieval(np.eye(2), np.eye(2), gt)

    @pytest.mark.parametrize("image_to_texts, image_of, message", [
        ([[0]], [0, 7], "text 1 pairs with image 7, but there are 1 images"),
        ([[0], [1]], [0, -1], "text 1 pairs with image -1, but there are 2 images")],
        ids=["past_the_end", "negative"])
    def test_an_image_index_outside_the_images_is_refused_naming_the_text(
            self, image_to_texts, image_of, message):
        """text_to_image's entries lie in [0, n_images): one past the end or below 0
        is refused naming the text and the image count, before the consistency check."""
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            RetrievalGroundTruth(image_to_texts, image_of)


class TestRecallAtK:
    def test_identity_matrix_perfect(self):
        gt = RetrievalGroundTruth.one_to_one(4)
        S = np.eye(4)
        for k in (1, 2):
            assert ev.recall_at_k(S, gt, k, "i2t") == 1.0
            assert ev.recall_at_k(S, gt, k, "t2i") == 1.0

    def test_matches_oracle_random_one_to_one(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 12))
            S = rng.normal(size=(n, n))
            if trial % 3 == 0:      # quantize to force score ties
                S = np.round(S)
            gt = RetrievalGroundTruth.one_to_one(n)
            for k in (1, 2, 5):
                for d in ("i2t", "t2i"):
                    assert ev.recall_at_k(S, gt, k, d) == oracle_recall(S, gt, k, d)

    def test_matches_oracle_five_texts_per_image(self):
        rng = np.random.default_rng(1)
        n_img = 6
        gt = RetrievalGroundTruth(
            [[5 * i + j for j in range(5)] for i in range(n_img)],
            [t // 5 for t in range(5 * n_img)])
        for _ in range(20):
            S = rng.normal(size=(n_img, 5 * n_img))
            for k in (1, 5):
                for d in ("i2t", "t2i"):
                    assert ev.recall_at_k(S, gt, k, d) == oracle_recall(S, gt, k, d)

    def test_any_hit_semantics(self):
        # image 0's second text wins the top slot: still a hit
        gt = RetrievalGroundTruth([[0, 1]], [0, 0])
        S = np.array([[0.1, 0.9]])
        assert ev.recall_at_k(S, gt, 1, "i2t") == 1.0

    def test_ties_break_to_lower_index(self):
        gt = RetrievalGroundTruth.one_to_one(2)
        S = np.zeros((2, 2))
        # all scores equal: query 0 hits (its match is index 0), query 1 misses
        assert ev.recall_at_k(S, gt, 1, "i2t") == 0.5
        assert ev.recall_at_k(S, gt, 1, "t2i") == 0.5

    def test_invariance_to_positive_rescaling(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(8, 8))
        gt = RetrievalGroundTruth.one_to_one(8)
        for k in (1, 5):
            for d in ("i2t", "t2i"):
                base = ev.recall_at_k(S, gt, k, d)
                assert ev.recall_at_k(3.7 * S, gt, k, d) == base
                assert ev.recall_at_k(S + 10.0, gt, k, d) == base

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_property_matches_sorted_oracle(self, data):
        """Non-square S, grouped ground truth in shuffled order, forced ties,
        k up to past N, both directions, and row blocks down to one row."""
        n_img = data.draw(st.integers(1, 6))
        gt = grouped_ground_truth(data, n_img)
        text_to_image = gt.text_to_image
        levels = data.draw(st.sampled_from([2, 3, 1000]))   # few levels force ties
        cells = st.integers(0, levels - 1)
        S = np.array(data.draw(st.lists(st.lists(cells, min_size=len(text_to_image),
                                                  max_size=len(text_to_image)),
                                         min_size=n_img, max_size=n_img)), dtype=float)
        S = S / levels - 0.3
        k = data.draw(st.integers(1, max(n_img, len(text_to_image)) + 2))
        block = data.draw(st.one_of(st.integers(1, 40), st.just(ev._RANK_BLOCK)))
        saved, ev._RANK_BLOCK = ev._RANK_BLOCK, block
        try:
            for d in ("i2t", "t2i"):
                assert ev.recall_at_k(S, gt, k, d) == oracle_recall(S, gt, k, d)
        finally:
            ev._RANK_BLOCK = saved

    def test_error_cases(self):
        gt = RetrievalGroundTruth.one_to_one(2)
        with pytest.raises(ValueError, match="non-finite"):
            ev.recall_at_k(np.array([[np.nan, 0], [0, 1.0]]), gt, 1, "i2t")
        with pytest.raises(ValueError, match="k must be"):
            ev.recall_at_k(np.eye(2), gt, 0, "i2t")
        with pytest.raises(ValueError, match="unknown direction"):
            ev.recall_at_k(np.eye(2), gt, 1, "sideways")
        with pytest.raises(ValueError, match="pairs 2 images with 2 texts, but the scores are 3 x 2"):
            ev.recall_at_k(np.ones((3, 2)), gt, 1, "t2i")


class TestEvaluateRetrieval:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_property_matches_recall_at_k_and_oracle(self, data):
        """One ranking per direction over row blocks gives recall_at_k's and the
        sorted oracle's recall for every k. Duplicated rows and columns and few
        distinct values force ties; blocks go down to one row.

        Integer and dyadic features have exact products, so every block equals
        the full product's rows bit for bit. For general floats BLAS may round a
        block's entries differently from one full product in the last bits, so
        they are checked against the product of the blocks evaluate_retrieval
        reads."""
        n_img = data.draw(st.integers(1, 7))
        gt = grouped_ground_truth(data, n_img)
        n_txt = len(gt.text_to_image)
        kind = data.draw(st.sampled_from(["integer", "dyadic", "float"]))
        width = data.draw(st.integers(1, 8))
        img = feature_rows(data, n_img, width, kind)
        txt = feature_rows(data, n_txt, width, kind)
        ks = data.draw(st.lists(st.integers(1, n_txt + 2), min_size=1, max_size=4))
        block = data.draw(st.one_of(st.integers(1, 40), st.just(ev._RANK_BLOCK)))
        saved, ev._RANK_BLOCK = ev._RANK_BLOCK, block
        try:
            report = ev.evaluate_retrieval(img, txt, gt, ks=ks)
            step = max(1, block // n_txt)
            S = (img @ txt.T if kind != "float" else
                 np.concatenate([img[lo:lo + step] @ txt.T for lo in range(0, n_img, step)]))
            for k in ks:
                for d in ("i2t", "t2i"):
                    want = oracle_recall(S, gt, k, d)
                    assert report.metrics[f"{d}_r@{k}"] == ev.recall_at_k(S, gt, k, d) == want
        finally:
            ev._RANK_BLOCK = saved
        assert (report.n_images, report.n_texts) == (n_img, n_txt)

    def test_score_matrix_is_never_built(self):
        n = 2048
        rng = np.random.default_rng(0)
        img, txt = rng.normal(size=(2, n, 32))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        txt /= np.linalg.norm(txt, axis=1, keepdims=True)
        gt = RetrievalGroundTruth.one_to_one(n)
        ev.evaluate_retrieval(img, txt, gt)
        tracemalloc.start()
        try:
            ev.evaluate_retrieval(img, txt, gt, ks=(1, 5, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 4

    def test_traced_peak_at_4096(self):
        """One `evaluate_retrieval` at N = 4096 traces 1.32 MiB with blocks of 2^16
        scores (16 rows), against 4.50 MiB with blocks of 2^18 (64 rows)."""
        n = 4096
        img, txt = np.random.default_rng(1).normal(size=(2, n, 32))
        gt = RetrievalGroundTruth.one_to_one(n)
        ev.evaluate_retrieval(img, txt, gt)
        tracemalloc.start()
        try:
            ev.evaluate_retrieval(img, txt, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    def test_bad_inputs_rejected_before_ranking(self):
        feats = np.eye(4)
        with pytest.raises(ValueError, match="pairs 3 images with 3 texts, but the scores are 4 x 4"):
            ev.evaluate_retrieval(feats, feats, RetrievalGroundTruth.one_to_one(3))
        gt = RetrievalGroundTruth.one_to_one(4)
        with pytest.raises(ValueError, match="pairs 4 images with 4 texts, but the scores are 4 x 5"):
            ev.evaluate_retrieval(feats, np.eye(5, 4), gt)
        with pytest.raises(ValueError, match="image features have width 4, text features 3"):
            ev.evaluate_retrieval(feats, feats[:, :3], gt)
        with pytest.raises(ValueError, match=r"k must be >= 1, got ks=\[1, 0\]"):
            ev.evaluate_retrieval(feats, feats, gt, ks=(1, 0))

    def test_non_finite_features_rejected(self):
        """A ValueError before the block product, not a matmul warning on inf * 0."""
        gt = RetrievalGroundTruth.one_to_one(3)
        for bad in (np.nan, np.inf):
            img = np.eye(3)
            img[1, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="image features have non-finite entries"):
                    ev.evaluate_retrieval(img, np.eye(3), gt)
                with pytest.raises(ValueError, match="text features have non-finite entries"):
                    ev.evaluate_retrieval(np.eye(3), img, gt)


class TestZeroShot:
    def test_orthogonal_prototypes_exact(self):
        protos = np.eye(3)
        feats = np.array([[0.9, 0.1, 0.0], [0.0, 1.0, 0.0], [0.1, 0.2, 0.7]])
        assert ev.zero_shot_classify(feats, [0, 1, 2], protos) == 1.0
        assert ev.zero_shot_classify(feats, [1, 1, 2], protos) == pytest.approx(2 / 3)

    def test_tie_breaks_to_lower_class(self):
        protos = np.eye(2)
        feats = np.array([[0.5, 0.5]])
        assert ev.zero_shot_classify(feats, [0], protos) == 1.0
        assert ev.zero_shot_classify(feats, [1], protos) == 0.0

    def test_classification_task_remaps_labels(self):
        recs = generate_synthetic_corpus(0, 8, 2, 8)
        names, labels = ev.classification_task(recs)
        assert labels.min() == 0 and labels.max() == len(names) - 1
        for rec, lab in zip(recs, labels):
            assert names[lab] == rec.attributes[0]

    def test_classification_task_requires_labels(self):
        recs = [ManifestRecord(id="r0", short_text="a cat.", image_feature=[1.0, 0.0])]
        with pytest.raises(ValueError, match="record r0 carries no label"):
            ev.classification_task(recs)

    def test_one_label_with_two_names_is_refused_before_any_embedding(self):
        """A label names one class: records giving label 14 the names "woven" and
        "striped" are refused, naming both, before evaluate embeds anything."""
        recs = [ManifestRecord(id=f"r{i}", short_text="a cat.", image_feature=[1.0, 0.0],
                               label=14, attributes=[name, "red"])
                for i, name in enumerate(("woven", "striped"))]
        message = r"^records r0 and r1 both carry label 14 but name it 'woven' and 'striped'$"
        with pytest.raises(ValueError, match=message):
            ev.classification_task(recs)
        with pytest.raises(ValueError, match=message):     # no model: embedding would fail
            ev.evaluate(recs, {}, None, None, None)

    def test_two_labels_with_one_name_are_refused_before_any_embedding(self):
        """A class has one label: labels 3 and 5 both named "red" would have equal
        prototypes, and the tie would send every image to the lower one, so the
        records are refused, naming both, before evaluate embeds anything."""
        recs = [ManifestRecord(id=f"r{i}", short_text="a cat.", image_feature=[1.0, 0.0],
                               label=label, attributes=["red", "woven"])
                for i, label in enumerate((3, 3, 5))]
        message = r"^records r0 and r2 carry labels 3 and 5 but both name them 'red'$"
        with pytest.raises(ValueError, match=message):
            ev.classification_task(recs)
        with pytest.raises(ValueError, match=message):     # no model: embedding would fail
            ev.evaluate(recs, {}, None, None, None)


def short_model(recs, **fields):
    """(text_cfg, image_cfg, vocab) of a small model of the records' words."""
    vocab = corpus.vocabulary(recs)
    cfg = train.TrainConfig(limit=16, text_depth=1, text_width=16, text_heads=2,
                            projection_dim=8, **fields)
    return (*train.make_configs(vocab, cfg, 8), vocab)


def caption_groups(recs):
    """The distinct short captions by string in first-occurrence order, and per
    record the index of its own: the grouping of captions that tokenize apart."""
    texts = list(dict.fromkeys(r.short_caption for r in recs))
    return texts, [[texts.index(r.short_caption)] for r in recs]


class TestShortTextGroups:
    """short_retrieval ranks each image against the distinct short captions: its
    n_texts counts them, and its recall at every k is recall_at_k's over them."""

    def check_groups(self, recs, n_groups):
        text_cfg, image_cfg, vocab = short_model(recs)
        params = train.build_model(text_cfg, image_cfg, 0)
        texts, image_to_texts = caption_groups(recs)
        img = image_encoder.embed_images(recs, params, image_cfg)
        S = img @ ev.embed_texts(texts, params, text_cfg, vocab).T
        ks = range(1, len(texts) + 1)
        report = ev.short_retrieval(recs, img, params, text_cfg, vocab, ks=ks)
        assert report.n_texts == len(texts) == n_groups
        gt = RetrievalGroundTruth(image_to_texts)
        assert report.metrics == {f"i2t_r@{k}": ev.recall_at_k(S, gt, k, "i2t") for k in ks}

    def test_duplicates_collapse(self):
        recs = generate_synthetic_corpus(0, 12, 2, 8, pool_size=3)
        n_groups = len(set(r.short_text for r in recs))
        assert n_groups <= 3
        self.check_groups(recs, n_groups)

    def test_long_only_records_get_their_own_groups(self):
        """A record without a short text stands in its first long text, a group of its own."""
        recs = generate_synthetic_corpus(0, 16, 2, 8)
        for rec in recs[:2]:
            rec.short_text = ""
        assert recs[0].long_texts[0] != recs[1].long_texts[0]
        self.check_groups(recs, 2 + len(set(r.short_text for r in recs[2:])))


TRAINED_CFG = train.TrainConfig(batch_size=4, steps=2, warmup_steps=1, limit=16,
                                text_depth=1, text_width=16, text_heads=2,
                                projection_dim=8, k_subcaptions=2)


@pytest.fixture(scope="module")
def trained():
    recs = generate_synthetic_corpus(0, 8, 2, 8)
    vocab = corpus.vocabulary(recs)
    res = train.run_training(recs, vocab, TRAINED_CFG)
    return recs, vocab, res


class TestEmbedAndReports:
    def test_embed_shapes_and_norms(self, trained, monkeypatch):
        recs, vocab, res = trained
        monkeypatch.setattr(transformer, "EMBED_ROWS", 3)
        for kind in ("short", "long_full"):
            ids, img, txt = ev.embed_eval_set(recs, res.params, res.text_cfg,
                                              res.image_cfg, vocab, kind)
            assert ids == [r.id for r in recs]
            assert img.shape == txt.shape == (8, 8)
            np.testing.assert_allclose(np.linalg.norm(img, axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(np.linalg.norm(txt, axis=1), 1.0, atol=1e-9)

    def test_embed_texts_tokenizes_one_batch_at_a_time(self, trained, monkeypatch):
        """Each batch is tokenized as it is encoded, and the features are the
        bytes of tokenizing every text up front."""
        recs, vocab, res = trained
        texts = [r.long_caption for r in recs]
        cfg = res.text_cfg
        seqs = [ev.tokenize(t, cfg.limit, cfg.m, vocab) for t in texts]
        upfront = np.concatenate([
            te.encode_text_graph(*te.stack_trimmed(seqs[i:i + 3]), res.params, cfg,
                                 corners=False)[0].value[:, 0] for i in range(0, 8, 3)])
        tokenized, at_encode = [], []
        tokenize, encode = ev.tokenize, te.encode_text_graph
        monkeypatch.setattr(ev, "tokenize", lambda *a: (tokenized.append(1), tokenize(*a))[1])
        monkeypatch.setattr(te, "encode_text_graph", lambda *a, **kw: (
            at_encode.append(len(tokenized)), encode(*a, **kw))[1])
        monkeypatch.setattr(transformer, "EMBED_ROWS", 3)
        feats = ev.embed_texts(texts, res.params, cfg, vocab)
        assert at_encode == [3, 6, 8]
        assert feats.tobytes() == upfront.tobytes()

    def test_unknown_text_kind(self, trained):
        recs, vocab, res = trained
        with pytest.raises(ValueError, match="unknown text_kind"):
            ev.embed_eval_set(recs, res.params, res.text_cfg, res.image_cfg,
                              vocab, "medium")

    def test_vit_record_without_image_path_is_named(self, trained):
        recs, vocab, res = trained
        vit_cfg = ImageEncoderConfig(mode="vit", projection_dim=8)
        params = {**res.params, **image_encoder.init_params(vit_cfg, 0)}
        with pytest.raises(ValueError, match=f"record {recs[0].id}: vit mode needs image_path"):
            ev.embed_eval_set(recs, params, res.text_cfg, vit_cfg, vocab)

    def test_report_round_trip(self):
        gt = RetrievalGroundTruth.one_to_one(4)
        rep = ev.evaluate_retrieval(np.eye(4), np.eye(4), gt)
        assert rep.metrics["i2t_r@1"] == 1.0 and rep.n_images == 4

    def test_export_embeddings(self, trained, tmp_path, capsys):
        """`cornerclip eval --export-embeddings` saves the ids and the long_full
        image and text features it ranked, and the per-record short captions'."""
        recs, vocab, res = trained
        manifest, path = tmp_path / "corpus.jsonl", tmp_path / "ckpt.bin"
        save_manifest(recs, manifest)
        ckpt.save_checkpoint(path, res.params, res.opt, 2, train.checkpoint_meta(
            TRAINED_CFG, res.text_cfg, res.image_cfg, vocab))
        dump = tmp_path / "emb.npz"
        assert cli.dispatch(["eval", "--corpus", str(manifest), "--checkpoint", str(path),
                             "--export-embeddings", str(dump)]) == 0
        capsys.readouterr()
        ids, img, txt = ev.embed_eval_set(recs, res.params, res.text_cfg,
                                          res.image_cfg, vocab)
        with np.load(dump) as back:
            assert back["ids"].tolist() == ids
            np.testing.assert_array_equal(back["image"], img)
            np.testing.assert_array_equal(back["text"], txt)
            np.testing.assert_array_equal(back["short"], ev.embed_texts(
                [r.short_caption for r in recs], res.params, res.text_cfg, vocab))


class TestEvaluate:
    def test_report_holds_long_short_and_classification(self, trained):
        """The report is the long_full retrieval report, the short-caption one and
        the zero-shot accuracy side by side, under the sweep's column names."""
        recs, vocab, res = trained
        model = (res.params, res.text_cfg, res.image_cfg, vocab)
        _, img, txt = ev.embed_eval_set(recs, *model, "long_full")
        long = ev.evaluate_retrieval(img, txt, RetrievalGroundTruth.one_to_one(len(recs)))
        short = ev.short_retrieval(recs, img, res.params, res.text_cfg, vocab)
        names, labels = ev.classification_task(recs)
        acc = ev.zero_shot_classify(img, labels, ev.class_prototypes(
            names, ev.DEFAULT_TEMPLATES, res.params, res.text_cfg, vocab))
        assert ev.evaluate(recs, *model) == {
            "n_images": 8, "n_texts": 8, "n_short_texts": short.n_texts,
            "long_i2t_r@1": long.metrics["i2t_r@1"], "long_i2t_r@5": long.metrics["i2t_r@5"],
            "long_t2i_r@1": long.metrics["t2i_r@1"], "long_t2i_r@5": long.metrics["t2i_r@5"],
            "short_r@1": short.metrics["i2t_r@1"], "short_r@5": short.metrics["i2t_r@5"],
            "cls_acc@1": acc}

    def test_either_array_may_be_given(self, trained):
        """Given the long_full image features, the text features, both or neither,
        evaluate embeds the rest itself and reports the same."""
        recs, vocab, res = trained
        model = (res.params, res.text_cfg, res.image_cfg, vocab)
        _, img, txt = ev.embed_eval_set(recs, *model, "long_full")
        report = ev.evaluate(recs, *model)
        assert ev.evaluate(recs, *model, image_feats=img) == report
        assert ev.evaluate(recs, *model, text_feats=txt) == report
        assert ev.evaluate(recs, *model, img, txt) == report

    def test_records_without_labels_have_no_classification(self, trained):
        recs, vocab, res = trained
        unlabeled = [dataclasses.replace(r, label=None, attributes=None) for r in recs]
        model = (res.params, res.text_cfg, res.image_cfg, vocab)
        report = ev.evaluate(unlabeled, *model)
        assert "cls_acc@1" not in report
        assert report == {k: v for k, v in ev.evaluate(recs, *model).items()
                          if k != "cls_acc@1"}
        mixed = [dataclasses.replace(recs[0], attributes=None), *recs[1:]]
        with pytest.raises(ValueError, match=f"record {recs[0].id} carries label "
                           f"{recs[0].label} but no attributes to name its class"):
            ev.evaluate(mixed, *model)


class TestShortRetrieval:
    def test_embeds_only_the_deduplicated_short_texts(self, monkeypatch):
        recs = generate_synthetic_corpus(0, 64, 2, 8)
        text_cfg, image_cfg, vocab = short_model(recs)
        params = train.build_model(text_cfg, image_cfg, 0)
        texts, image_to_texts = caption_groups(recs)
        _, img, _ = ev.embed_eval_set(recs, params, text_cfg, image_cfg, vocab, "short")
        S = img @ ev.embed_texts(texts, params, text_cfg, vocab).T
        # R@1 with one paired text per image: the row's first maximum is that text
        expected = sum(int(np.argmax(S[i]) == paired[0])
                       for i, paired in enumerate(image_to_texts)) / len(recs)

        rows = []
        encode = te.encode_text_graph
        monkeypatch.setattr(te, "encode_text_graph", lambda ids, *a, **kw: (
            rows.append(len(ids)), encode(ids, *a, **kw))[1])
        r1 = ev.short_retrieval_r1(recs, params, text_cfg, image_cfg, vocab)
        assert sum(rows) == len(texts) == 16
        assert r1 == expected

    def test_report_ranks_distinct_captions_image_to_text(self):
        """short_retrieval's recall@k is the any-hit oracle's over the distinct
        captions, its R@1 is short_retrieval_r1, and it has no t2i."""
        recs = generate_synthetic_corpus(0, 32, 2, 8, pool_size=3)
        text_cfg, image_cfg, vocab = short_model(recs, use_long_texts=False)
        params = train.build_model(text_cfg, image_cfg, 0)
        texts, image_to_texts = caption_groups(recs)
        img = image_encoder.embed_images(recs, params, image_cfg)
        S = img @ ev.embed_texts(texts, params, text_cfg, vocab).T
        gt = RetrievalGroundTruth(image_to_texts)     # many images per text: no t2i
        with pytest.raises(ValueError, match="^t2i needs the ground truth's text_to_image, "
                                             "which is None$"):
            ev.recall_at_k(S, gt, 1, "t2i")
        report = ev.short_retrieval(recs, img, params, text_cfg, vocab, ks=(1, 2))
        assert (report.task, report.n_images, report.n_texts) == ("short", 32, len(texts))
        assert len(texts) < 32
        assert report.metrics == {f"i2t_r@{k}": oracle_recall(S, gt, k, "i2t") for k in (1, 2)}
        assert report.metrics["i2t_r@1"] == ev.short_retrieval_r1(
            recs, params, text_cfg, image_cfg, vocab)

    def test_captions_that_tokenize_alike_are_one_candidate(self):
        """Captions apart only in case, or in words out of the vocabulary, have
        equal features: as two candidates they would tie, and the tie would
        cost the later one's images R@1 whatever the model."""
        recs = generate_synthetic_corpus(1, 64, 2, 8)
        text_cfg, image_cfg, vocab = short_model(recs)
        params = train.build_model(text_cfg, image_cfg, 0)
        unknown = [dataclasses.replace(r, short_text=f"a photo of a {word}.")
                   for r, word in zip(recs[:2], ("zebra", "giraffe"))]
        plain = [unknown[0], dataclasses.replace(unknown[1], short_text=unknown[0].short_text),
                 *recs[2:]]     # the same images as alike, one caption per group
        alike = [*unknown, *(dataclasses.replace(r, short_text=r.short_text.upper())
                             if i % 2 else r for i, r in enumerate(recs[2:]))]
        assert len(set(r.short_text for r in alike)) > len(set(r.short_text for r in plain))
        img = image_encoder.embed_images(recs, params, image_cfg)      # both lists' images
        reports = [ev.short_retrieval(rs, img, params, text_cfg, vocab, ks=range(1, 65))
                   for rs in (plain, alike)]
        assert reports[0] == reports[1]
        assert reports[1].n_texts == len(caption_groups(plain)[0])

    def test_non_finite_image_features_rejected(self):
        recs = generate_synthetic_corpus(0, 8, 2, 8)
        text_cfg, image_cfg, vocab = short_model(recs, use_long_texts=False)
        params = train.build_model(text_cfg, image_cfg, 0)
        img = np.eye(8)
        img[5] = np.inf                 # inf - inf in the block product
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="image features have non-finite entries"):
                ev.short_retrieval(recs, img, params, text_cfg, vocab)


class TestFlops:
    def vocab(self):
        return Vocabulary.build(["a b c d e f g h i j."])

    @pytest.mark.parametrize("depth,width,heads,m,proj", [
        (1, 8, 2, 0, 4),
        (1, 16, 2, 2, 8),
        (2, 16, 4, 1, 8),
        (2, 32, 4, 2, 16),
        (3, 8, 1, 4, 4),
    ])
    def test_closed_form_matches_instrumented_count(self, depth, width, heads, m, proj):
        vocab = self.vocab()
        cfg = te.TextEncoderConfig(vocab_size=len(vocab), limit=16, m=m,
                                   depth=depth, width=width, heads=heads,
                                   projection_dim=proj)
        params = te.init_params(cfg, 0)
        assert ev.measured_text_flops(cfg, params, vocab) == \
            ev.flops_estimate(cfg, cfg.limit)

    def test_scaling_ratio_between_linear_and_quadratic(self):
        vocab = self.vocab()
        for L in (32, 64, 128, 256):
            cfg = te.TextEncoderConfig(vocab_size=len(vocab), limit=2 * L, m=2,
                                       depth=2, width=64, heads=4,
                                       projection_dim=32)
            ratio = ev.flops_estimate(cfg, 2 * L) / ev.flops_estimate(cfg, L)
            assert 2.0 < ratio < 4.0

    def test_effective_length_capped(self):
        vocab = self.vocab()
        cfg = te.TextEncoderConfig(vocab_size=len(vocab), limit=16, m=2,
                                   depth=1, width=16, heads=2, projection_dim=8)
        with pytest.raises(ValueError, match="exceeds"):
            ev.flops_estimate(cfg, 17)
