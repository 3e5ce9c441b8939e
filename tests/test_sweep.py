"""Sweep bookkeeping: cell configs, resumable rows.csv, aggregates."""

import csv
import dataclasses
import json
import re
import shutil

import numpy as np
import pytest

from cornerclip import corpus, evaluation, image_encoder, sweep, train
from cornerclip.corpus import generate_synthetic_corpus
from cornerclip.sweep import ROW_FIELDS, SweepSpec
from cornerclip.train import TrainConfig


@pytest.fixture(scope="module")
def tiny_setup():
    recs = generate_synthetic_corpus(0, 8, 2, 8)
    vocab = corpus.vocabulary(recs)
    base = TrainConfig(batch_size=4, steps=2, warmup_steps=1, limit=16,
                       text_depth=1, text_width=16, text_heads=2,
                       projection_dim=8, k_subcaptions=2)
    return recs, vocab, base


class TestSpec:
    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(axis="depth", values=[1])

    def test_empty_values(self):
        with pytest.raises(ValueError, match="values"):
            SweepSpec(axis="m_corners", values=[])

    @pytest.mark.parametrize("values, seeds, field", [
        ([2, 2], [0], "values"), ([1], [], "seeds"), ([1], [0, 0], "seeds"),
    ], ids=["repeated-value", "no-seed", "repeated-seed"])
    def test_repeated_or_missing_cells_refused(self, values, seeds, field):
        """A repeated value or seed would run its cells twice; no seed, no cell."""
        with pytest.raises(ValueError, match=f"{field} must be nonempty and distinct"):
            SweepSpec(axis="m_corners", values=values, seeds=seeds)

    def test_cell_config_overrides(self, tiny_setup):
        _, _, base = tiny_setup
        spec = SweepSpec(axis="k_subcaptions", values=[0, 2], base=base)
        c0 = sweep.cell_config(spec, 0, 7)
        assert c0.k_subcaptions == 1 and not c0.use_long_texts and c0.seed == 7
        c2 = sweep.cell_config(spec, 2, 7)
        assert c2.k_subcaptions == 2 and c2.use_long_texts
        assert base.k_subcaptions == 2  # base untouched

        spec = SweepSpec(axis="m_corners", values=[0], base=base)
        assert sweep.cell_config(spec, 0, 0).m == 0
        spec = SweepSpec(axis="token_limit", values=[24], base=base)
        assert sweep.cell_config(spec, 24, 0).limit == 24


class TestRunCell:
    def test_row_fields_and_ranges(self, tiny_setup):
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="m_corners", values=[2], base=base, seeds=[0])
        row = sweep.run_cell(spec, 2, 0, recs, vocab)
        assert set(row) == set(ROW_FIELDS)
        for key in ("long_i2t_r@1", "long_t2i_r@5", "short_r@1", "cls_acc@1"):
            assert 0.0 <= row[key] <= 1.0
        assert row["flops"] > 0 and row["wall_time_s"] > 0

    def test_embeds_each_image_once(self, tiny_setup, monkeypatch):
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="m_corners", values=[2], base=base, seeds=[0])
        res = train.run_training(recs, vocab, sweep.cell_config(spec, 2, 0))
        short_r1 = evaluation.short_retrieval_r1(recs, res.params, res.text_cfg,
                                                 res.image_cfg, vocab)
        rows = []
        encode = image_encoder.encode_image_graph
        monkeypatch.setattr(image_encoder, "encode_image_graph", lambda x, *a, **kw: (
            rows.append(len(x)), encode(x, *a, **kw))[1])
        row = sweep.run_cell(spec, 2, 0, recs, vocab)
        assert sum(rows) == base.steps * base.batch_size + len(recs)
        assert row["short_r@1"] == short_r1

    def test_frozen_cell_leaves_image_tower_unchanged(self, tiny_setup, monkeypatch):
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="m_corners", values=[2],
                         base=dataclasses.replace(base, freeze_image=True), seeds=[0])
        results = []
        run = sweep.run_training
        monkeypatch.setattr(sweep, "run_training", lambda *a, **kw: (
            results.append(run(*a, **kw)), results[-1])[1])
        sweep.run_cell(spec, 2, 0, recs, vocab)
        res, cfg = results[0], sweep.cell_config(spec, 2, 0)
        init = train.build_model(res.text_cfg, res.image_cfg, cfg.seed, cfg.tau_init)
        img_names = [n for n in init if n.startswith("img.")]
        assert img_names
        for name in img_names:
            np.testing.assert_array_equal(res.params[name].value, init[name].value)
        assert not np.array_equal(res.params["text.proj"].value, init["text.proj"].value)

    def test_frozen_cell_embeds_each_image_once(self, tiny_setup, monkeypatch):
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="m_corners", values=[2],
                         base=dataclasses.replace(base, freeze_image=True), seeds=[0])
        # the row as it was when the cell embedded the images again for evaluation
        run = sweep.run_training
        monkeypatch.setattr(sweep, "run_training", lambda *a, **kw: dataclasses.replace(
            run(*a, **kw), image_features=None))
        before = sweep.run_cell(spec, 2, 0, recs, vocab)
        monkeypatch.setattr(sweep, "run_training", run)
        rows = []
        encode = image_encoder.encode_image_graph
        monkeypatch.setattr(image_encoder, "encode_image_graph", lambda x, *a, **kw: (
            rows.append(len(x)), encode(x, *a, **kw))[1])
        row = sweep.run_cell(spec, 2, 0, recs, vocab)
        assert rows == [len(recs)]      # the 8 records fit one EMBED_ROWS chunk
        del row["wall_time_s"], before["wall_time_s"]
        assert row == before

    def test_rerun_reproduces_metrics(self, tiny_setup):
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="m_corners", values=[1], base=base, seeds=[3])
        a = sweep.run_cell(spec, 1, 3, recs, vocab)
        b = sweep.run_cell(spec, 1, 3, recs, vocab)
        for key in ROW_FIELDS:
            if key != "wall_time_s":
                assert a[key] == b[key], key


class TestRunSweep:
    def test_rows_written_and_resumable(self, tiny_setup, tmp_path):
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="k_subcaptions", values=[0, 2], base=base, seeds=[0, 1])
        out = str(tmp_path / "sweep")
        rows, failures = sweep.run_sweep(spec, recs, vocab, out)
        assert len(rows) == 4 and failures == []
        keys = {(r["axis"], int(r["value"]), int(r["seed"])) for r in rows}
        assert keys == {("k_subcaptions", v, s) for v in (0, 2) for s in (0, 1)}

        # second invocation skips every completed cell and appends nothing
        before = (tmp_path / "sweep" / "rows.csv").read_text()
        rows2, _ = sweep.run_sweep(spec, recs, vocab, out)
        after = (tmp_path / "sweep" / "rows.csv").read_text()
        assert before == after
        assert len(rows2) == 4

    def test_unlabeled_records_refused_before_any_cell(self, tiny_setup, tmp_path,
                                                       monkeypatch):
        """Every row holds cls_acc@1: records without a label stop the sweep
        before a cell trains or a file is written."""
        recs, vocab, base = tiny_setup
        unlabeled = [dataclasses.replace(r, label=None) for r in recs]
        monkeypatch.setattr(sweep, "run_cell", lambda *a: pytest.fail("a cell ran"))
        out = tmp_path / "sweep"
        with pytest.raises(ValueError, match=f"record {recs[0].id} carries no label"):
            sweep.run_sweep(SweepSpec(axis="m_corners", values=[2], base=base, seeds=[0]),
                            unlabeled, vocab, str(out))
        assert not out.exists()

    def test_partial_file_resumes_missing_cells_only(self, tiny_setup, tmp_path):
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="m_corners", values=[0, 2], base=base, seeds=[0])
        first = tmp_path / "first"
        sweep.run_sweep(SweepSpec(axis="m_corners", values=[0], base=base, seeds=[0]),
                        recs, vocab, str(first))
        done = (first / "rows.csv").read_text()
        # a clean file, then a row and a header each cut mid-write: a cut line
        # is dropped, so its cell runs again, and the next row starts a new line
        for i, text in enumerate([done, done + "m_corners,2,0,0.5,0.", "axis,value,se"]):
            out = tmp_path / f"sweep{i}"
            out.mkdir()
            (out / "rows.csv").write_text(text, newline="")
            shutil.copy(first / sweep.CONFIG_FILE, out)
            rows, _ = sweep.run_sweep(spec, recs, vocab, str(out))
            assert sorted((r["value"], r["seed"]) for r in rows) == [("0", "0"), ("2", "0")]
            assert all(list(r) == ROW_FIELDS and None not in r.values() for r in rows)
            if i < 2:
                assert (out / "rows.csv").read_bytes().startswith(done.encode())

    def test_resume_refuses_a_changed_config(self, tiny_setup, tmp_path):
        recs, vocab, base = tiny_setup
        out = tmp_path / "sweep"
        sweep.run_sweep(SweepSpec(axis="m_corners", values=[2], base=base, seeds=[0]),
                        recs, vocab, str(out))
        rows = (out / "rows.csv").read_bytes()
        changed = dataclasses.replace(base, steps=30, lr=5e-3)
        spec = SweepSpec(axis="m_corners", values=[1, 2], base=changed, seeds=[0])
        with pytest.raises(ValueError, match="'steps': the rows in .* have 2, this sweep 30"):
            sweep.run_sweep(spec, recs, vocab, str(out))
        spec = SweepSpec(axis="token_limit", values=[16], base=base, seeds=[0])
        with pytest.raises(ValueError, match="'axis': the rows in .* have 'm_corners'"):
            sweep.run_sweep(spec, recs, vocab, str(out))
        assert (out / "rows.csv").read_bytes() == rows

        # more values and seeds, and a base that differs only in what each cell
        # sets (the seed and the swept setting), resume the same sweep
        per_cell = dataclasses.replace(base, seed=5, m=3)
        spec = SweepSpec(axis="m_corners", values=[2, 0], base=per_cell, seeds=[0, 1])
        got, _ = sweep.run_sweep(spec, recs, vocab, str(out))
        assert [(r["value"], r["seed"]) for r in got] == [("2", "0"), ("2", "1"), ("0", "0"),
                                                          ("0", "1")]
        assert (out / "rows.csv").read_bytes().startswith(rows)

        # rows without a record (written before sweeps kept one) are refused
        (out / sweep.CONFIG_FILE).unlink()
        with pytest.raises(ValueError, match="no sweep_config.json"):
            sweep.run_sweep(spec, recs, vocab, str(out))

    def test_resume_refuses_another_table(self, tiny_setup, tmp_path, monkeypatch):
        """Rows under other columns (an older or newer schema) are refused by
        column name before any cell runs, and rows.csv is left as it was: a
        resume would write rows of ROW_FIELDS under their header."""
        recs, vocab, base = tiny_setup
        spec = SweepSpec(axis="m_corners", values=[0, 2], base=base, seeds=[0])
        out = tmp_path / "sweep"
        fake = {name: 0.5 for name in ROW_FIELDS}
        monkeypatch.setattr(sweep, "run_cell", lambda spec, value, seed, *a: {
            **fake, "axis": spec.axis, "value": value, "seed": seed})
        sweep.run_sweep(SweepSpec(axis="m_corners", values=[0], base=base, seeds=[0]),
                        recs, vocab, str(out))
        row = next(csv.DictReader((out / "rows.csv").read_text().splitlines()))
        monkeypatch.setattr(sweep, "run_cell", lambda *a: pytest.fail("a cell ran"))
        for columns, missing, extra in [
                ([c for c in ROW_FIELDS if c != "cls_acc@1"], "['cls_acc@1']", "[]"),
                ([*ROW_FIELDS, "train_macs"], "[]", "['train_macs']"),
                ([*ROW_FIELDS[3:], *ROW_FIELDS[:3]], "[]", "[]")]:
            text = ",".join(columns) + "\n" + ",".join(row.get(c, "7") for c in columns) + "\n"
            (out / "rows.csv").write_text(text)
            with pytest.raises(ValueError, match=re.escape(
                    f"missing columns {missing}, extra columns {extra}")):
                sweep.run_sweep(spec, recs, vocab, str(out))
            assert (out / "rows.csv").read_text() == text

    def test_failed_cells_are_recorded(self, tiny_setup, tmp_path, monkeypatch):
        recs, vocab, base = tiny_setup
        run_cell = sweep.run_cell

        def fail_at_12(spec, value, *args):
            if value == 12:
                raise RuntimeError("injected failure of the limit-12 cell")
            return run_cell(spec, value, *args)

        monkeypatch.setattr(sweep, "run_cell", fail_at_12)
        spec = SweepSpec(axis="token_limit", values=[12, 16], base=base, seeds=[0])
        out = tmp_path / "sweep"
        recorded = lambda: [json.loads(line)
                            for line in (out / sweep.FAILURES_FILE).read_text().splitlines()]
        rows, failures = sweep.run_sweep(spec, recs, vocab, str(out))
        assert [int(r["value"]) for r in rows] == [16]
        assert [(f["axis"], f["value"], f["seed"]) for f in failures] == [("token_limit", 12, 0)]
        assert "injected failure of the limit-12 cell" in failures[0]["error"]
        assert recorded() == failures

        # a rerun skips the finished cell and retries the failed one
        rows, failures = sweep.run_sweep(spec, recs, vocab, str(out))
        assert [int(r["value"]) for r in rows] == [16]
        assert len(failures) == 1 and recorded() == failures

        # a run without failures clears the file
        spec_ok = SweepSpec(axis="token_limit", values=[16], base=base, seeds=[0])
        assert sweep.run_sweep(spec_ok, recs, vocab, str(out))[1] == []
        assert recorded() == []


class TestPlotData:
    def test_tidy_csv_round_trip_and_aggregates(self, tiny_setup, tmp_path, monkeypatch):
        """run_sweep's rows.csv holds each cell's row, and its plot_data_agg.csv
        the mean and stddev over seeds per value; no other table is written."""
        recs, vocab, base = tiny_setup
        rng = np.random.default_rng(0)
        cells = {}
        for value in (0, 2):
            for seed in (0, 1, 2):
                cells[value, seed] = {
                    "axis": "m_corners", "value": value, "seed": seed,
                    "long_i2t_r@1": float(rng.uniform()), "long_i2t_r@5": 1.0,
                    "long_t2i_r@1": 0.5, "long_t2i_r@5": 1.0,
                    "short_r@1": 0.25, "cls_acc@1": 0.75,
                    "flops": 1000, "wall_time_s": 1.5,
                }
        monkeypatch.setattr(sweep, "run_cell", lambda spec, value, seed, *a: cells[value, seed])
        spec = SweepSpec(axis="m_corners", values=[0, 2], base=base, seeds=[0, 1, 2])
        back, _ = sweep.run_sweep(spec, recs, vocab, str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "failures.jsonl", "plot_data_agg.csv", "rows.csv", "sweep_config.json"]
        assert len(back) == 6
        for got, want in zip(back, cells.values()):
            assert float(got["long_i2t_r@1"]) == pytest.approx(want["long_i2t_r@1"])

        with open(tmp_path / "plot_data_agg.csv") as f:
            assert f.readline().startswith("#")
            agg = list(csv.DictReader(f))
        assert len(agg) == 2
        for a in agg:
            assert int(a["n_seeds"]) == 3
            xs = [r["long_i2t_r@1"] for r in cells.values() if r["value"] == int(a["value"])]
            assert float(a["long_i2t_r@1_mean"]) == pytest.approx(np.mean(xs))
            assert float(a["long_i2t_r@1_std"]) == pytest.approx(np.std(xs))
