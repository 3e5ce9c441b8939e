"""Command-line interface: subcommands, config precedence, exit codes."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from cornerclip import checkpoint as ckpt
from cornerclip import cli, corpus, evaluation, sweep, text_encoder
from cornerclip import train as train_mod
from cornerclip.train import AdamState


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL = ("--batch-size", "4", "--limit", "16", "--text-depth", "1", "--text-width", "16",
         "--text-heads", "2", "--projection-dim", "8")


def trained(capsys, corpus, out_dir, *flags):
    """The final checkpoint of a SMALL run, with `flags` over it, on `corpus`."""
    assert run(capsys, "train", "--corpus", corpus, "--out-dir", str(out_dir), *SMALL,
               *flags)[0] == 0
    return f"{out_dir}/ckpt_final.bin"


@pytest.fixture()
def manifest(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    code, _, _ = run(capsys, "gen-corpus", "--seed", "1", "--n", "8",
                     "--attributes", "2", "--feature-dim", "8",
                     "--out", str(path))
    assert code == 0
    return str(path)


class TestBasicCommands:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["train", "--help"], ["sweep", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 0
            capsys.readouterr()
        assert cli.dispatch(["train", "--help"]) == 0
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mask", "--len", "5", "--corners", "1",
                           "--frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_gen_corpus_and_stats(self, manifest, capsys):
        code, out, _ = run(capsys, "stats", "--corpus", manifest, "--json")
        assert code == 0
        stats = json.loads(out)
        assert stats["n_images"] == 8
        assert stats["n_texts"] == 24  # one short + two long per record

    @pytest.mark.parametrize("flag,raw,message", [
        ("--feature-dim", "0", "feature_dim must be >= 1, got 0"),
        ("--feature-dim", "-3", "feature_dim must be >= 1, got -3"),
        ("--n", "1", "n must be >= 2, got 1"),
        ("--attributes", "1", "n_attributes must be >= 2, got 1"),
        ("--pool-size", "2", "pool_size must be >= n_attributes (4), got 2"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ])
    def test_gen_corpus_setting_out_of_range_is_usage_error(self, tmp_path, capsys,
                                                            flag, raw, message):
        out = tmp_path / "corpus.jsonl"
        code, _, err = run(capsys, "gen-corpus", flag, raw, "--out", str(out))
        assert code == 1
        assert f"usage error: {message}" in err
        assert not out.exists()

    def test_stats_out_failure_prints_no_result(self, manifest, tmp_path, capsys):
        code, out, err = run(capsys, "stats", "--corpus", manifest,
                             "--out", str(tmp_path / "missing" / "s.json"))
        assert code == 2 and out == ""
        assert "No such file or directory" in err

    def test_tokenize(self, capsys):
        code, out, _ = run(capsys, "tokenize", "--text", "a cat.",
                           "--limit", "8", "--corners", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tokens"][:3] == ["[CLS]", "[COR_1]", "[COR_2]"]
        assert payload["true_length"] == 6


class TestMaskCommand:
    def test_golden_grid(self, capsys):
        code, out, _ = run(capsys, "mask", "--len", "6", "--corners", "2")
        assert code == 0
        assert out.strip() == "\n".join([
            "1 0 0 1 1 1",
            "0 1 0 1 1 1",
            "0 0 1 1 1 1",
            "1 0 0 1 1 1",
            "1 0 0 1 1 1",
            "1 0 0 1 1 1",
        ])

    def test_full_mode_all_ones(self, capsys):
        code, out, _ = run(capsys, "mask", "--len", "4", "--corners", "1",
                           "--mode", "full", "--json")
        assert code == 0
        mask = json.loads(out)["mask"]
        assert all(all(v == 1 for v in row) for row in mask)

    def test_too_short_rejected(self, capsys):
        code, _, err = run(capsys, "mask", "--len", "3", "--corners", "2")
        assert code == 1

    def test_negative_corners_rejected(self, capsys):
        code, out, err = run(capsys, "mask", "--len", "5", "--corners", "-1")
        assert code == 1
        assert "usage error: m must be >= 0, got -1" in err
        assert out == ""


@pytest.mark.parametrize("argv,message", [
    (["tokenize", "--text", "a b c", "--corners", "-1"], "m must be >= 0, got -1"),
    (["tokenize", "--text", "a b c", "--limit", "2"], "limit must be >= m + 2 (4), got 2"),
    (["tokenize", "--text", "a b c", "--corners", "9"],
     "m must be <= 8 (the reserved corner ids), got 9"),
    (["flops", "--limit", "16", "--heads", "0"], "heads must be >= 1, got 0"),
    (["flops", "--limit", "16", "--dim", "30", "--heads", "4"],
     "width must be divisible by heads"),
    (["flops", "--limit", "3"], "limit must be >= m + 2 (4), got 3"),
    (["flops", "--limit", "16", "--mlp-ratio", "-1"], "mlp_ratio must be >= 1, got -1"),
    (["flops", "--limit", "16", "--corners", "9"],
     "m must be <= 8 (the reserved corner ids), got 9"),
    (["mask", "--len", "12", "--corners", "9"],
     "m must be <= 8 (the reserved corner ids), got 9"),
], ids=["tokenize-corners", "tokenize-limit", "tokenize-m-max", "flops-heads",
        "flops-width", "flops-limit", "flops-mlp-ratio", "flops-m-max", "mask-m-max"])
def test_out_of_range_shape_setting_is_usage_error(capsys, argv, message):
    """Shape settings of the debug commands are refused as usage errors,
    exit 1, as the same settings of train are."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert f"usage error: {message}" in err
    assert out == ""


def int_flags(command):
    """The flags of a subcommand that take an integer."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.type is int]


# each command's required flags, with values in range
REQUIRED = {"gen-corpus": ["--out", "{tmp}/corpus.jsonl"], "tokenize": ["--text", "a b c"],
            "mask": ["--len", "6", "--corners", "2"], "flops": ["--limit", "16"],
            "sweep": ["--axis", "m_corners", "--values", "2", "--corpus", "{tmp}/missing.jsonl",
                      "--out", "{tmp}/out"]}


@pytest.mark.parametrize("command,flag", [(c, f) for c in REQUIRED for f in int_flags(c)])
def test_minus_one_for_an_integer_flag_is_usage_error(tmp_path, capsys, command, flag):
    """Every integer flag refuses -1 as a setting out of its range, exit 1,
    with nothing printed to stdout or written."""
    argv = [a.format(tmp=tmp_path) for a in REQUIRED[command]]
    code, out, err = run(capsys, command, *argv, flag, "-1")
    assert code == 1 and out == ""
    assert "usage error: " in err and " must be " in err
    assert list(tmp_path.iterdir()) == []


NUMERIC_FIELDS = [f.name for f in dataclasses.fields(train_mod.TrainConfig)
                  if f.type in ("int", "float")]


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_minus_one_for_a_numeric_setting_is_usage_error(tmp_path, capsys, command, field):
    """-1 for any numeric setting is refused by name before the manifest is read,
    so a missing one does not matter, and before the output directory exists. A
    shape field is named as its tower names it."""
    out_dir = tmp_path / "out"
    argv = {"train": ["--out-dir", str(out_dir)],
            "sweep": ["--axis", "m_corners", "--values", "2", "--out", str(out_dir)]}[command]
    code, out, err = run(capsys, command, "--corpus", str(tmp_path / "missing.jsonl"), *argv,
                         "--" + field.replace("_", "-"), "-1")
    assert code == 1 and out == ""
    assert f"usage error: {train_mod.TEXT_SHAPE.get(field, field)} must be " in err
    assert not out_dir.exists()


class TestFlopsCommand:
    def test_matches_library_closed_form(self, capsys):
        code, out, _ = run(capsys, "flops", "--limit", "32", "--depth", "2",
                           "--dim", "64", "--heads", "4", "--corners", "2",
                           "--proj-dim", "32", "--json")
        assert code == 0
        cfg = text_encoder.TextEncoderConfig(
            vocab_size=2, limit=32, m=2, depth=2, width=64, heads=4,
            projection_dim=32)
        assert json.loads(out)["flops"] == evaluation.flops_estimate(cfg, 32)


class TestTrainEvalCommands:
    def test_train_then_eval_and_inspect(self, manifest, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, out, _ = run(capsys, "train", "--corpus", manifest, "--out-dir", out_dir,
                           "--steps", "2", "--warmup-steps", "1", *SMALL, "--json")
        assert code == 0
        assert json.loads(out)["steps"] == 2

        ckpt_path = f"{out_dir}/ckpt_final.bin"
        code, out, _ = run(capsys, "eval", "--corpus", manifest,
                           "--checkpoint", ckpt_path, "--json")
        assert code == 0
        report = json.loads(out)
        assert "long_i2t_r@1" in report and report["n_images"] == 8

        code, out, _ = run(capsys, "inspect", "--checkpoint", ckpt_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["step"] == 2 and payload["m"] == 2 and payload["mask_mode"] == "corner"

    def test_eval_of_an_older_format_checkpoint_names_the_field(self, manifest, tmp_path,
                                                                capsys):
        path = trained(capsys, manifest, tmp_path / "run", "--steps", "1")
        params, (m, v, opt_step), step, meta = ckpt.load_checkpoint(path)
        # the earlier layout: m and mask_mode also at the top level, and two
        # image_config fields that ImageEncoderConfig no longer has
        meta = {**meta, "m": 2, "mask_mode": "corner",
                "image_config": {**meta["image_config"], "trainable_projection": True,
                                 "preset": "from_scratch"}}
        ckpt.save_checkpoint(path, params, AdamState(m=m, v=v, step=opt_step), step, meta)
        code, _, err = run(capsys, "eval", "--corpus", manifest, "--checkpoint", path)
        assert code == 2
        assert ("checkpoint image_config has fields ['preset', 'trainable_projection'] "
                "that the current format does not store there: the checkpoint predates the "
                "current format" in err)

    @pytest.mark.parametrize("section, field, value, rule", [
        ("text_config", "heads", 0, ">= 1, got 0"),
        ("image_config", "mode", "pixels", "one of ('vit', 'precomputed'), got 'pixels'")])
    def test_eval_of_a_checkpoint_with_a_config_out_of_range(self, manifest, tmp_path, capsys,
                                                             section, field, value, rule):
        """A stored tower config out of range is a bad checkpoint, not a bad flag:
        eval exits 2 naming the section, with no usage line."""
        path = trained(capsys, manifest, tmp_path / "run", "--steps", "1")
        params, (m, v, opt_step), step, meta = ckpt.load_checkpoint(path)
        meta = {**meta, section: {**meta[section], field: value}}
        ckpt.save_checkpoint(path, params, AdamState(m=m, v=v, step=opt_step), step, meta)
        code, out, err = run(capsys, "eval", "--corpus", manifest, "--checkpoint", path)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: checkpoint {section}: {field} must be {rule}\n")
        assert "usage" not in err

    def test_labels_without_names_have_no_class(self, tmp_path, capsys, monkeypatch):
        """generate_synthetic_corpus(1, 64, 4, 16) without attributes: its labels
        name no class, so eval reports no cls_acc@1, and the sweep, whose rows
        hold it, refuses the records before a cell runs, saying what they lack.
        A label named two ways is refused by eval, with or without an export,
        before anything is embedded."""
        records = [dataclasses.replace(r, attributes=None)
                   for r in corpus.generate_synthetic_corpus(1, 64, 4, 16)]
        manifest, sweep_dir = str(tmp_path / "m.jsonl"), str(tmp_path / "sweep")
        corpus.save_manifest(records, manifest)
        path = trained(capsys, manifest, tmp_path / "run", "--steps", "1")
        code, out, _ = run(capsys, "eval", "--json", "--corpus", manifest, "--checkpoint", path)
        assert code == 0 and "cls_acc@1" not in json.loads(out)
        code, _, err = run(capsys, "sweep", "--axis", "m_corners", "--values", "2", "--seeds",
                           "1", "--corpus", manifest, "--out", sweep_dir, *SMALL)
        assert code == 2 and not (tmp_path / "sweep").exists()
        assert (f"error: record {records[0].id} carries label {records[0].label} but no "
                "attributes to name its class (attributes[0])") in err

        records[:2] = [dataclasses.replace(r, label=0, attributes=[name])
                       for r, name in zip(records, ("woven", "striped"))]
        corpus.save_manifest(records, manifest)
        monkeypatch.setattr(evaluation, "embed_eval_set", lambda *a, **kw: 1 / 0)
        for export in ((), ("--export-embeddings", str(tmp_path / "emb.npz"))):
            code, _, err = run(capsys, "eval", "--corpus", manifest, "--checkpoint", path, *export)
            assert code == 2 and (f"records {records[0].id} and {records[1].id} both carry "
                                  "label 0 but name it 'woven' and 'striped'") in err

    def test_two_labels_with_one_name_are_refused_before_any_embedding(self, tmp_path,
                                                                      capsys, monkeypatch):
        """Labels 40 and 42, which no other record carries, both named "red": eval,
        with or without an export, and sweep refuse the manifest, naming both records,
        before anything is embedded."""
        records = corpus.generate_synthetic_corpus(1, 64, 4, 16)
        manifest, sweep_dir = str(tmp_path / "m.jsonl"), tmp_path / "sweep"
        corpus.save_manifest(records, manifest)
        path = trained(capsys, manifest, tmp_path / "run", "--steps", "1")
        records[:2] = [dataclasses.replace(r, label=label, attributes=["red"])
                       for r, label in zip(records, (40, 42))]
        corpus.save_manifest(records, manifest)
        message = (f"error: records {records[0].id} and {records[1].id} carry labels 40 and "
                   "42 but both name them 'red'")
        monkeypatch.setattr(evaluation, "embed_texts", lambda *a, **kw: 1 / 0)
        monkeypatch.setattr(evaluation, "embed_eval_set", lambda *a, **kw: 1 / 0)
        for export in ((), ("--export-embeddings", str(tmp_path / "emb.npz"))):
            code, _, err = run(capsys, "eval", "--corpus", manifest, "--checkpoint", path, *export)
            assert code == 2 and message in err
        code, _, err = run(capsys, "sweep", "--axis", "m_corners", "--values", "2", "--seeds",
                           "1", "--corpus", manifest, "--out", str(sweep_dir), *SMALL)
        assert code == 2 and message in err and not sweep_dir.exists()

    def test_short_eval_ranks_each_distinct_caption_once(self, tmp_path, capsys):
        """Records share short captions: eval's short_r@k ranks the distinct ones,
        any-hit and image to text only, as short_retrieval_r1 does."""
        corpus = str(tmp_path / "corpus.jsonl")
        assert run(capsys, "gen-corpus", "--seed", "1", "--n", "16", "--attributes", "2",
                   "--pool-size", "3", "--feature-dim", "8", "--out", corpus)[0] == 0
        path = trained(capsys, corpus, tmp_path / "run", "--steps", "2")
        code, out, _ = run(capsys, "eval", "--corpus", corpus, "--checkpoint", path, "--json")
        assert code == 0
        report = json.loads(out)
        records = cli._records(corpus)
        params, _, meta = ckpt.load_parameters(path)
        text_cfg, image_cfg, vocab = train_mod.model_from_meta(meta)
        img = evaluation.embed_eval_set(records, params, text_cfg, image_cfg, vocab)[1]
        short = evaluation.short_retrieval(records, img, params, text_cfg, vocab)
        assert sorted(k for k in report if k.startswith("short")) == ["short_r@1", "short_r@5"]
        assert report["n_images"] == report["n_texts"] == 16
        assert report["n_short_texts"] == short.n_texts == len({r.short_text for r in records}) < 16
        assert report["short_r@5"] == short.metrics["i2t_r@5"]
        assert report["short_r@1"] == evaluation.short_retrieval_r1(
            records, params, text_cfg, image_cfg, vocab)

    def test_short_eval_encodes_the_records_captions_only_to_export(self, tmp_path, capsys,
                                                                   monkeypatch):
        """eval ranks the distinct short captions, so it encodes the 64 per-record
        ones for an export only, as its `short` array beside the ids and the
        long_full image and text features; the report is the same either way."""
        corpus = str(tmp_path / "corpus.jsonl")
        assert run(capsys, "gen-corpus", "--seed", "1", "--n", "64", "--attributes", "2",
                   "--pool-size", "3", "--feature-dim", "8", "--out", corpus)[0] == 0
        path = trained(capsys, corpus, tmp_path / "run", "--steps", "1")
        records = cli._records(corpus)
        captions = [r.short_caption for r in records]
        assert len(set(captions)) < 64
        encoded, embed_texts = [], evaluation.embed_texts

        def recording(texts, *args, **kwargs):
            encoded.append(list(texts))
            return embed_texts(texts, *args, **kwargs)

        monkeypatch.setattr(evaluation, "embed_texts", recording)
        argv = ("eval", "--corpus", corpus, "--checkpoint", path)
        code, report, _ = run(capsys, *argv)
        assert code == 0 and captions not in encoded
        without = list(encoded)
        encoded.clear()
        dump = tmp_path / "emb.npz"
        assert run(capsys, *argv, "--export-embeddings", str(dump)) == (0, report, "")
        assert encoded == without + [captions]

        monkeypatch.setattr(evaluation, "embed_texts", embed_texts)
        params, _, meta = ckpt.load_parameters(path)
        text_cfg, image_cfg, vocab = train_mod.model_from_meta(meta)
        ids, img, txt = evaluation.embed_eval_set(records, params, text_cfg, image_cfg, vocab)
        with np.load(dump) as saved:
            assert sorted(saved.files) == ["ids", "image", "short", "text"]
            assert saved["ids"].tolist() == ids
            assert saved["image"].tobytes() == img.tobytes()
            assert saved["text"].tobytes() == txt.tobytes()
            assert saved["short"].tobytes() == embed_texts(captions, params, text_cfg,
                                                           vocab).tobytes()

    def test_eval_and_the_sweep_report_through_one_path(self, manifest, tmp_path, capsys):
        """For one trained model, eval prints evaluation.evaluate's report, and a
        sweep cell of the same config and seed holds the same metrics bit for bit."""
        flags = ("--steps", "2", "--seed", "0")
        path = trained(capsys, manifest, tmp_path / "run", *flags)
        code, out, _ = run(capsys, "eval", "--corpus", manifest, "--checkpoint", path,
                           "--json")
        assert code == 0
        report = json.loads(out)
        records, vocab = cli._corpus_vocab(manifest)
        params, _, meta = ckpt.load_parameters(path)
        assert report == evaluation.evaluate(records, params, *train_mod.model_from_meta(meta))

        cfg = cli.resolve_train_config(cli.build_parser().parse_args(
            ["train", "--corpus", manifest, "--out-dir", "u", *flags, *SMALL]))
        spec = sweep.SweepSpec(axis="m_corners", values=[cfg.m], base=cfg, seeds=[cfg.seed])
        row = sweep.run_cell(spec, cfg.m, cfg.seed, records, vocab)
        assert [np.float64(report[k]).tobytes() for k in sweep.METRIC_FIELDS] == \
            [np.float64(row[k]).tobytes() for k in sweep.METRIC_FIELDS]

    def test_a_checkpoint_that_stores_m_max(self, manifest, tmp_path, capsys):
        """The layout whose vocab section also stored m_max, beside the token
        table that is read alone: eval and inspect read it as they read the
        current one, and a resume refuses it as older than the current format."""
        path = trained(capsys, manifest, tmp_path / "run", "--steps", "2")
        params, (m, v, opt_step), step, meta = ckpt.load_checkpoint(path)
        assert meta["vocab"] == {"token_to_id": meta["vocab"]["token_to_id"]}
        old = tmp_path / "old.bin"
        ckpt.save_checkpoint(old, params, AdamState(m=m, v=v, step=opt_step), step,
                             {**meta, "vocab": {**meta["vocab"], "m_max": 8}})
        for command in ("eval", "inspect"):
            outputs = [run(capsys, command, "--checkpoint", str(p), "--json",
                           *(("--corpus", manifest) if command == "eval" else ()))
                       for p in (path, old)]
            assert outputs[0][0] == 0 and outputs[0] == outputs[1], command

        records, vocab = cli._corpus_vocab(manifest)
        args = cli.build_parser().parse_args(["train", "--corpus", manifest, "--out-dir", "u",
                                              "--steps", "4", *SMALL])
        with pytest.raises(ckpt.CheckpointError, match=(
                r"^checkpoint vocab has fields \['m_max'\] that the current format does "
                r"not store there: the checkpoint predates the current format$")):
            train_mod.run_training(records, vocab, cli.resolve_train_config(args),
                                   resume_from=str(old))

    def test_a_checkpoint_of_the_previous_layout(self, manifest, tmp_path, capsys):
        """The layout that also stored the eight shape fields in train_config:
        eval reads it as it reads the current one, inspect shows its sections
        as stored, and a resume refuses it as older than the current format."""
        path = trained(capsys, manifest, tmp_path / "run", "--steps", "2")
        params, (m, v, opt_step), step, meta = ckpt.load_checkpoint(path)
        text, image = meta["text_config"], meta["image_config"]
        assert "m" not in meta["train_config"] and text["m"] == 2
        old_train = {**meta["train_config"], "limit": text["limit"], "m": text["m"],
                     "mask_mode": text["mask_mode"], "text_depth": text["depth"],
                     "text_width": text["width"], "text_heads": text["heads"],
                     "projection_dim": text["projection_dim"], "image_mode": image["mode"]}
        old = tmp_path / "old.bin"
        ckpt.save_checkpoint(old, params, AdamState(m=m, v=v, step=opt_step), step,
                             {**meta, "train_config": old_train})

        reports = [run(capsys, "eval", "--corpus", manifest, "--checkpoint", str(p), "--json")
                   for p in (path, old)]
        assert reports[0][0] == reports[1][0] == 0 and reports[0][1] == reports[1][1]
        for p, train_config in ((path, meta["train_config"]), (old, old_train)):
            code, out, _ = run(capsys, "inspect", "--checkpoint", str(p), "--json")
            shown = json.loads(out)
            assert code == 0 and shown["m"] == 2 and shown["mask_mode"] == "corner"
            assert (shown["train_config"], shown["text_config"], shown["image_config"]) == \
                (train_config, text, image)
        code, out, _ = run(capsys, "inspect", "--checkpoint", str(old))
        assert code == 0 and "train_config: {" in out and '"text_width": 16' in out

        records, vocab = cli._corpus_vocab(manifest)
        args = cli.build_parser().parse_args(["train", "--corpus", manifest, "--out-dir", "u",
                                              "--steps", "4", *SMALL])
        with pytest.raises(ckpt.CheckpointError, match=(
                r"^checkpoint train_config has fields \['image_mode', 'limit', 'm', "
                r"'mask_mode', 'projection_dim', 'text_depth', 'text_heads', 'text_width'\] "
                r"that the current format does not store there: the checkpoint predates "
                r"the current format$")):
            train_mod.run_training(records, vocab, cli.resolve_train_config(args),
                                   resume_from=str(old))

    def test_train_refuses_a_used_out_dir(self, manifest, tmp_path, capsys):
        """A fresh run into a directory that holds a run's metrics or checkpoints
        would cut that run's metrics and leave its checkpoints beside its own
        for a later resume to splice: a usage error naming the directory, with
        nothing written."""
        out_dir = tmp_path / "run"
        assert run(capsys, "train", "--corpus", manifest, "--out-dir", str(out_dir),
                   "--steps", "6", "--checkpoint-every", "2", *SMALL)[0] == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert sorted(before) == ["ckpt_000002.bin", "ckpt_000004.bin", "ckpt_000006.bin",
                                  "ckpt_final.bin", "metrics.jsonl"]
        code, out, err = run(capsys, "train", "--corpus", manifest, "--out-dir", str(out_dir),
                             "--steps", "3", "--lr", "0.01", *SMALL)
        assert code == 1 and out == ""
        assert f"usage error: --out-dir {out_dir} already holds a run" in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

        # either kind of file marks a used directory; any other file does not
        for name, code in (("metrics.jsonl", 1), ("ckpt_000002.bin", 1), ("notes.txt", 0)):
            used = tmp_path / f"has_{name}"
            used.mkdir()
            (used / name).write_text("")
            assert run(capsys, "train", "--corpus", manifest, "--out-dir", str(used),
                       "--steps", "1", *SMALL)[0] == code, name

    def test_feature_width_mismatch_names_the_record(self, tmp_path, capsys):
        def manifest(name, widths):
            path = tmp_path / name
            path.write_text("".join(json.dumps({"id": rid, "short_text": f"a {rid}.",
                                                "image_feature": [1.0] * w}) + "\n"
                                    for rid, w in widths))
            return str(path)

        mixed = manifest("mixed.jsonl", [("a", 1), ("b", 2)])
        small = ("--steps", "1", "--batch-size", "2")
        message = "record b: image_feature has 2 values, expected 1"
        code, _, err = run(capsys, "train", "--corpus", mixed,
                           "--out-dir", str(tmp_path / "x"), *SMALL, *small)
        assert code == 2 and message in err
        narrow = manifest("narrow.jsonl", [("a", 1), ("c", 1)])
        path = trained(capsys, narrow, tmp_path / "run", *small)
        code, _, err = run(capsys, "eval", "--corpus", mixed, "--checkpoint", path)
        assert code == 2 and message in err

    def test_first_record_without_feature_names_the_record(self, tmp_path, capsys):
        path = tmp_path / "first_has_path.jsonl"
        path.write_text(json.dumps({"id": "a", "short_text": "a a.", "image_path": "a.npy"})
                        + "\n" + json.dumps({"id": "b", "short_text": "a b.",
                                             "image_feature": [1.0]}) + "\n")
        code, _, err = run(capsys, "train", "--corpus", str(path), "--steps", "1",
                           "--batch-size", "2", "--out-dir", str(tmp_path / "x"))
        assert code == 2 and "record a: precomputed mode needs image_feature" in err

    def test_eval_missing_checkpoint_is_runtime_error(self, manifest, capsys):
        code, _, err = run(capsys, "eval", "--corpus", manifest,
                           "--checkpoint", "/nonexistent.bin")
        assert code == 2

    def test_train_missing_corpus_is_runtime_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "train", "--corpus", "/nonexistent.jsonl",
                         "--out-dir", str(tmp_path / "x"), "--steps", "1")
        assert code == 2

    def test_train_all_lines_skipped_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "unreadable.jsonl"
        path.write_text('not json\n{"id": "r0"}\n')
        code, _, err = run(capsys, "train", "--corpus", str(path),
                           "--out-dir", str(tmp_path / "x"), "--steps", "1")
        assert code == 2
        assert str(path) in err and "no usable records" in err

    def test_eval_all_lines_skipped_is_runtime_error(self, manifest, tmp_path, capsys):
        ckpt_path = trained(capsys, manifest, tmp_path / "run", "--steps", "1")
        path = tmp_path / "unreadable.jsonl"
        path.write_text('not json\n{"id": "r0"}\n')
        code, _, err = run(capsys, "eval", "--corpus", str(path), "--checkpoint", ckpt_path)
        assert code == 2
        assert f"error: manifest {path} has no usable records" in err


class TestConfigPrecedence:
    def test_print_config_defaults(self, capsys):
        code, out, _ = run(capsys, "train", "--corpus", "unused",
                           "--out-dir", "unused", "--print-config", "--json")
        assert code == 0
        assert json.loads(out)["steps"] == 600

    def test_sweep_prints_its_base_config_without_running(self, manifest, tmp_path, capsys,
                                                          monkeypatch):
        """sweep --print-config prints what train --print-config prints for the same
        flags and exits 0, reading no manifest and creating no --out directory."""
        monkeypatch.setattr(corpus, "load_manifest", lambda *a: 1 / 0)
        flags = ("--steps", "2", "--batch-size", "4", "--print-config")
        out_dir = tmp_path / "sweep"
        for fmt in ((), ("--json",)):
            printed = run(capsys, "train", "--corpus", manifest, "--out-dir", "u", *flags, *fmt)
            assert printed[0] == 0
            assert run(capsys, "sweep", "--axis", "m_corners", "--values", "0", "--seeds", "1",
                       "--corpus", manifest, "--out", str(out_dir), *flags, *fmt) == printed
        assert json.loads(printed[1])["steps"] == 2 and not out_dir.exists()

    def test_file_overrides_defaults_flags_override_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("steps = 50\nlr = 0.005\nuse_long_texts = false\n")
        code, out, _ = run(capsys, "train", "--corpus", "u", "--out-dir", "u",
                           "--config", str(cfg_file), "--lr", "0.001",
                           "--print-config", "--json")
        assert code == 0
        cfg = json.loads(out)
        assert cfg["steps"] == 50            # from file
        assert cfg["lr"] == 0.001            # flag wins
        assert cfg["use_long_texts"] is False

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("m = 4\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg_file))
        code, out, _ = run(capsys, "train", "--corpus", "u", "--out-dir", "u",
                           "--print-config", "--json")
        assert code == 0
        assert json.loads(out)["m"] == 4

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("frobnicate = 1\n")
        code, _, err = run(capsys, "train", "--corpus", "u", "--out-dir", "u",
                           "--config", str(cfg_file), "--print-config")
        assert code == 1
        assert "unknown config field" in err

    @pytest.mark.parametrize("flag,raw,field", [
        ("--freeze-image", "maybe", "boolean for freeze_image"),
        ("--steps", "abc", "int for steps"),
        ("--lr", "fast", "float for lr"),
    ])
    def test_bad_flag_value_names_its_field(self, capsys, flag, raw, field):
        code, _, err = run(capsys, "train", "--corpus", "u", "--out-dir", "u",
                           flag, raw, "--print-config")
        assert code == 1
        assert f"bad {field}: {raw!r}" in err

    @pytest.mark.parametrize("flag,raw,message", [
        ("--checkpoint-every", "-1", "checkpoint_every must be >= 0, got -1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--lr", "nan", "lr must be finite and > 0, got nan"),
        ("--tau-init", "0", "tau_init must be in [0.01, 10.0], got 0.0"),
        ("--steps", "0", "steps must be >= 1, got 0"),
        ("--warmup-steps", "-1", "warmup_steps must be >= 0, got -1"),
        ("--k-subcaptions", "0", "k_subcaptions must be >= 1, got 0"),
        ("--text-heads", "0", "heads must be >= 1, got 0"),
        ("--text-width", "0", "width must be >= 1, got 0"),
        ("--text-depth", "0", "depth must be >= 1, got 0"),
        ("--m", "-1", "m must be >= 0, got -1"),
        ("--m", "9", "m must be <= 8 (the reserved corner ids), got 9"),
        ("--m", "30", "m must be <= 8 (the reserved corner ids), got 30"),
        ("--limit", "3", "limit must be >= m + 2 (4), got 3"),
        ("--text-width", "30", "width must be divisible by heads"),
        ("--projection-dim", "0", "projection_dim must be >= 1, got 0"),
        ("--mask-mode", "none", "mask_mode must be one of ('corner', 'full'), got 'none'"),
        ("--image-mode", "resnet", "mode must be one of ('vit', 'precomputed'), got 'resnet'"),
    ])
    def test_out_of_range_setting_is_usage_error(self, manifest, tmp_path, capsys,
                                                 flag, raw, message):
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--corpus", manifest, "--out-dir", str(out_dir),
                           "--batch-size", "4", flag, raw)
        assert code == 1
        assert f"usage error: {message}" in err
        assert not out_dir.exists()

    def test_malformed_config_line_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg"
        cfg_file.write_text("steps 50\n")
        code, _, _ = run(capsys, "train", "--corpus", "u", "--out-dir", "u",
                         "--config", str(cfg_file), "--print-config")
        assert code == 1


class TestSweepCommand:
    def test_tiny_sweep(self, manifest, tmp_path, capsys):
        out_dir = str(tmp_path / "sweep")
        code, out, _ = run(capsys, "sweep", "--axis", "m_corners",
                           "--values", "0,2", "--seeds", "1",
                           "--corpus", manifest, "--out", out_dir,
                           "--steps", "2", "--warmup-steps", "1", *SMALL, "--json")
        assert code == 0
        assert json.loads(out)["cells"] == 2
        assert (tmp_path / "sweep" / "rows.csv").exists()
        assert (tmp_path / "sweep" / "plot_data_agg.csv").exists()
        assert not (tmp_path / "sweep" / "plot_data.csv").exists()

    def test_failed_cell_exits_2(self, manifest, tmp_path, capsys, monkeypatch):
        run_cell = sweep.run_cell

        def fail_at_12(spec, value, *args):
            if value == 12:
                raise RuntimeError("injected failure of the limit-12 cell")
            return run_cell(spec, value, *args)

        monkeypatch.setattr(sweep, "run_cell", fail_at_12)
        out_dir = tmp_path / "sweep"
        code, out, err = run(capsys, "sweep", "--axis", "token_limit",
                             "--values", "12,16", "--seeds", "1",
                             "--corpus", manifest, "--out", str(out_dir),
                             "--steps", "2", "--warmup-steps", "1", *SMALL, "--json")
        assert code == 2
        assert json.loads(out) == {"cells": 1, "failed": 1, "out_dir": str(out_dir)}
        assert "1 of 2 sweep cells failed" in err
        lines = (out_dir / "failures.jsonl").read_text().splitlines()
        assert len(lines) == 1
        failure = json.loads(lines[0])
        assert (failure["axis"], failure["value"], failure["seed"]) == ("token_limit", 12, 0)
        assert "injected failure of the limit-12 cell" in failure["error"]

    def test_resume_with_a_changed_config_exits_2(self, manifest, tmp_path, capsys):
        out_dir = str(tmp_path / "sweep")
        argv = ["sweep", "--axis", "m_corners", "--values", "2", "--seeds", "1",
                "--corpus", manifest, "--out", out_dir, "--warmup-steps", "1", *SMALL]
        assert run(capsys, *argv, "--steps", "2")[0] == 0
        code, _, err = run(capsys, *argv, "--steps", "3", "--lr", "5e-3", "--values", "1,2")
        assert code == 2
        assert "sweep field 'steps'" in err

    def test_bad_values_is_usage_error(self, manifest, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--axis", "m_corners",
                           "--values", "two", "--corpus", manifest,
                           "--out", str(tmp_path / "s"))
        assert code == 1
        assert "bad --values" in err

    @pytest.mark.parametrize("axis, values, seeds, message", [
        ("m_corners", "2,2", "1", "values must be nonempty and distinct, got [2, 2]"),
        ("m_corners", "2", "0", "seeds must be nonempty and distinct, got []"),
        ("m_corners", "", "1", "values must be nonempty and distinct, got []"),
        ("m_corners", "-1", "1", "values must be nonnegative, got [-1]"),
        ("token_limit", "16,3", "1", "limit must be >= m + 2 (4), got 3"),
        ("m_corners", "2,9", "1", "m must be <= 8 (the reserved corner ids), got 9"),
    ], ids=["repeated-value", "no-seed", "no-value", "negative-value",
            "limit-too-small", "m-beyond-reserved-ids"])
    def test_cells_out_of_range_are_usage_errors(self, manifest, tmp_path, capsys,
                                                 axis, values, seeds, message):
        """Refused before any cell trains, also a value whose cell config is
        out of range while the others are not."""
        out_dir = tmp_path / "sweep"
        code, _, err = run(capsys, "sweep", "--axis", axis, "--values", values,
                           "--seeds", seeds, "--corpus", manifest, "--out", str(out_dir),
                           "--steps", "1", "--warmup-steps", "1", *SMALL)
        assert code == 1
        assert f"usage error: {message}" in err
        assert not out_dir.exists()
