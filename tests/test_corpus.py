"""Manifest I/O, corpus statistics, and the synthetic generator."""

import ast
import dataclasses
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from cornerclip import corpus
from cornerclip.corpus import (
    ManifestRecord,
    corpus_stats,
    generate_synthetic_corpus,
    load_manifest,
    save_manifest,
)


def make_record(i=0, **kw):
    defaults = dict(id=f"r{i}", short_text="a cat.", long_texts=["a cat. a dog."],
                    image_feature=[1.0, 0.0])
    defaults.update(kw)
    return ManifestRecord(**defaults)


class TestManifestRecord:
    def test_requires_some_text(self):
        with pytest.raises(ValueError, match="needs short_text or long_texts"):
            ManifestRecord(id="x", image_feature=[1.0])

    @pytest.mark.parametrize("long_texts, index", [([""], 0), (["a cat.", " \n"], 1)])
    def test_blank_long_text_refused_naming_its_index(self, long_texts, index):
        with pytest.raises(ValueError, match=rf"record x: long_texts\[{index}\] is blank"):
            ManifestRecord(id="x", long_texts=long_texts, image_feature=[1.0])

    def test_requires_image_source(self):
        with pytest.raises(ValueError, match="needs image_path or image_feature"):
            ManifestRecord(id="x", short_text="a cat.")

    def test_json_round_trip(self):
        rec = make_record(label=3, attributes=["red", "round"])
        back = ManifestRecord.from_json(rec.to_json())
        assert back.id == rec.id
        assert back.short_text == rec.short_text
        assert back.long_texts == rec.long_texts
        assert back.label == 3
        assert back.attributes == ["red", "round"]
        np.testing.assert_array_equal(back.image_feature, rec.image_feature)

    def test_every_field_round_trips(self):
        """A record with every field set reads back equal, field by field."""
        rec = make_record(image_path="images/r0.npy", label=3, attributes=["red", "round"])
        assert all(getattr(rec, f.name) is not None for f in dataclasses.fields(rec))
        line = rec.to_json()
        assert sorted(json.loads(line)) == sorted(f.name for f in dataclasses.fields(rec))
        back = ManifestRecord.from_json(line)
        for f in dataclasses.fields(rec):
            np.testing.assert_array_equal(getattr(back, f.name), getattr(rec, f.name))
            assert type(getattr(back, f.name)) is type(getattr(rec, f.name)), f.name
        assert back.to_json() == line

    def test_captions_fall_back_to_the_other_kind(self):
        both = make_record(long_texts=["a cat. a mat.", "a dog."])
        assert (both.short_caption, both.long_caption) == ("a cat.", "a cat. a mat.")
        long_only = make_record(short_text="", long_texts=["a dog. a log."])
        assert long_only.short_caption == long_only.long_caption == "a dog. a log."
        short_only = make_record(long_texts=[])
        assert short_only.short_caption == short_only.long_caption == "a cat."

    def test_json_is_one_line(self):
        assert "\n" not in make_record().to_json()


class TestManifestIO:
    def test_save_load_round_trip(self, tmp_path):
        recs = [make_record(i) for i in range(5)]
        path = tmp_path / "m.jsonl"
        save_manifest(recs, path)
        back = load_manifest(path)
        assert [r.id for r in back] == [r.id for r in recs]
        for a, b in zip(back, recs):
            np.testing.assert_array_equal(a.image_feature, b.image_feature)

    def test_bad_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "m.jsonl"
        good = make_record().to_json()
        bad_json = "{not json"
        bad_record = json.dumps({"id": "x"})  # no text, no image
        path.write_text("\n".join([good, bad_json, bad_record, "", make_record(1).to_json()])
                        + "\n")
        with caplog.at_level(logging.WARNING):
            back = load_manifest(path)
        assert len(back) == 2
        assert "skipped 2" in caplog.text

    def test_a_line_without_id_is_skipped_naming_the_key(self, tmp_path, caplog):
        path = tmp_path / "m.jsonl"
        fields = json.loads(make_record().to_json())
        del fields["id"]
        path.write_text(make_record().to_json() + "\n" + json.dumps(fields) + "\n")
        with caplog.at_level(logging.WARNING):
            assert [r.id for r in load_manifest(path)] == ["r0"]
        assert "skipping manifest line 2: 'id'" in caplog.text

    def test_a_repeated_id_is_skipped_naming_both_lines(self, tmp_path, caplog):
        """An id names one record: a later line with an id an earlier record
        already took is skipped, naming the id and both lines."""
        path = tmp_path / "m.jsonl"
        lines = [make_record(0).to_json(), make_record(1).to_json(), "",
                 make_record(0, short_text="a dog.").to_json(), make_record(2).to_json(),
                 make_record(1).to_json()]
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            back = load_manifest(path)
        assert [(r.id, r.short_text) for r in back] == [("r0", "a cat."), ("r1", "a cat."),
                                                        ("r2", "a cat.")]
        assert "skipping manifest line 4: id 'r0' is already on line 1" in caplog.text
        assert "skipping manifest line 6: id 'r1' is already on line 2" in caplog.text
        assert "skipped 2" in caplog.text

    def test_lines_of_the_wrong_type_skipped_naming_the_field(self, tmp_path, caplog):
        path = tmp_path / "m.jsonl"
        good = json.loads(make_record().to_json())
        lines = [json.dumps(good), "[1, 2]",
                 json.dumps({**good, "id": "s", "long_texts": "a cat. a dog."}),
                 json.dumps({**good, "id": "n", "long_texts": ["a cat.", 3]}),
                 json.dumps({**good, "id": "t", "short_text": ["a cat."]})]
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            back = load_manifest(path)
        assert [r.id for r in back] == ["r0"]
        assert "skipped 4" in caplog.text
        assert "line 2: not a JSON object" in caplog.text
        assert "line 3: record s: long_texts must be a list of strings" in caplog.text
        assert "line 4: record n: long_texts must be a list of strings" in caplog.text
        assert "line 5: record t: short_text must be a string" in caplog.text

    @pytest.mark.parametrize("field, value, message", [
        ("id", [1], "id must be a string"),
        ("image_feature", {"x": 1}, "image_feature must be a 1-D list of finite reals"),
        ("image_feature", [[1.0, 2.0]], "image_feature must be a 1-D list of finite reals"),
        ("image_feature", [[1.0], [1.0, 2.0]], "image_feature must be a 1-D list of finite reals"),
        ("image_feature", [1.0, "a"], "image_feature must be a 1-D list of finite reals"),
        ("image_feature", [1.0, float("nan")], "image_feature must be a 1-D list of finite reals"),
        ("image_feature", [float("inf")], "image_feature must be a 1-D list of finite reals"),
        ("label", "zero", "label must be an int"),
        ("label", 1.5, "label must be an int"),
        ("label", True, "label must be an int"),
        ("attributes", "red", "attributes must be a list of strings"),
        ("attributes", ["red", 1], "attributes must be a list of strings"),
        ("image_feature", [], "image_feature must not be empty"),
        ("long_texts", ["a cat.", "  "], "long_texts[1] is blank"),
    ])
    def test_a_field_of_the_wrong_type_skips_its_line(self, tmp_path, caplog, field, value,
                                                      message):
        path = tmp_path / "m.jsonl"
        good = json.loads(make_record(label=0, attributes=["red"]).to_json())
        bad = {**good, "id": "b", field: value}
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with caplog.at_level(logging.WARNING):
            back = load_manifest(path)
        assert [r.id for r in back] == ["r0"]
        assert f"line 2: record {bad['id']}: {message}" in caplog.text


class TestCorpusStats:
    def test_hand_counted(self):
        recs = [
            ManifestRecord(id="a", short_text="a cat.",
                           long_texts=["a cat. a big dog."], image_feature=[1.0]),
            ManifestRecord(id="b", short_text="sun.", image_feature=[1.0]),
        ]
        # texts: "a cat." (2 words + 1 sep), "a cat. a big dog." (5 + 2),
        #        "sun." (1 + 1)
        st = corpus_stats(recs)
        assert st.n_images == 2
        assert st.n_texts == 3
        assert st.avg_subcaptions_per_text == pytest.approx((1 + 2 + 1) / 3)
        assert st.avg_tokens_per_text == pytest.approx((3 + 7 + 2) / 3)

    def test_empty_texts(self):
        recs = [ManifestRecord(id="a", long_texts=["x."], image_feature=[1.0])]
        st = corpus_stats(recs)
        assert st.n_images == 1 and st.n_texts == 1


class TestSyntheticCorpus:
    def test_deterministic_in_seed(self):
        a = generate_synthetic_corpus(7, 16, 3, 8)
        b = generate_synthetic_corpus(7, 16, 3, 8)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]
        c = generate_synthetic_corpus(8, 16, 3, 8)
        assert [r.to_json() for r in a] != [r.to_json() for r in c]

    def test_attribute_tuples_distinct(self):
        recs = generate_synthetic_corpus(0, 24, 2, 8, pool_size=6)
        tuples = [tuple(r.attributes) for r in recs]
        assert len(set(tuples)) == len(tuples)

    def test_feature_is_weighted_sum_direction(self):
        # re-derive one record's feature from the pool vectors it names
        recs = generate_synthetic_corpus(3, 4, 3, 16)
        for rec in recs:
            assert abs(np.linalg.norm(rec.image_feature) - 1) < 1e-12

    def test_short_text_names_first_attribute(self):
        recs = generate_synthetic_corpus(1, 8, 3, 8)
        for rec in recs:
            assert rec.short_text == f"a photo of a {rec.attributes[0]}."

    def test_long_texts_cover_all_attributes(self):
        recs = generate_synthetic_corpus(2, 8, 4, 8)
        for rec in recs:
            assert len(rec.long_texts) == 2
            for t in rec.long_texts:
                for a in rec.attributes:
                    assert a in t
                assert t.count(".") == len(rec.attributes)

    def test_labels_match_salient_attribute(self):
        recs = generate_synthetic_corpus(5, 12, 2, 8)
        # label is the pool index of the first attribute: same label => same word
        by_label = {}
        for rec in recs:
            by_label.setdefault(rec.label, set()).add(rec.attributes[0])
        assert all(len(v) == 1 for v in by_label.values())

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="n must be"):
            generate_synthetic_corpus(0, 1, 2, 8)
        with pytest.raises(ValueError, match="n_attributes"):
            generate_synthetic_corpus(0, 4, 1, 8)
        with pytest.raises(ValueError, match="pool_size"):
            generate_synthetic_corpus(0, 4, 4, 8, pool_size=2)
        for feature_dim in (0, -3):
            with pytest.raises(ValueError, match=f"feature_dim must be >= 1, got {feature_dim}"):
                generate_synthetic_corpus(0, 4, 2, feature_dim)


class TestVocabulary:
    def test_the_benchmark_builds_the_same_vocabulary(self):
        """perfbench/run.py keeps its own copy of the rule: its `vocab_for`, read from
        the source, gives corpus.vocabulary's table on both seed-1 benchmark corpora."""
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
        run = {}
        for node in tree.body:      # its literal constants, TRAIN_N and the rest, and vocab_for
            if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.Constant, ast.Tuple))
                    or isinstance(node, ast.FunctionDef) and node.name == "vocab_for"):
                exec(compile(ast.Module([node], []), "run.py", "exec"), run)
        for seed, n in ((1, run["TRAIN_N"]), (1 + run["EVAL_SEED_OFFSET"], run["EVAL_N"])):
            records = generate_synthetic_corpus(seed, n, run["N_ATTRIBUTES"], run["FEATURE_DIM"])
            assert (run["vocab_for"](records).token_to_id
                    == corpus.vocabulary(records).token_to_id), seed
