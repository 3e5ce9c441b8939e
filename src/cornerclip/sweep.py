"""Sweep harness over sub-caption count, token limit, or corner count.

Each cell (axis value x seed) trains a fresh model and evaluates it. A sweep
owns its directory: rows are appended to rows.csv as cells complete, so an
interrupted sweep resumes from the finished cells, provided its columns, axis
and base config are the ones recorded there. A value out of range is refused
before any cell runs; a cell that raises is recorded with its error in
failures.jsonl and retried by the next run. plot_data_agg.csv reports mean
and stddev over seeds.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, replace

from . import evaluation
from .corpus import ManifestRecord
from .settings import check_settings
from .tokenizer import Vocabulary
from .train import TrainConfig, continue_stream, run_training

log = logging.getLogger(__name__)

AXES = ("k_subcaptions", "token_limit", "m_corners")
FAILURES_FILE = "failures.jsonl"
CONFIG_FILE = "sweep_config.json"      # the axis and base config of the rows beside it

# the columns of a row that `evaluation.evaluate` reports, by its names
METRIC_FIELDS = ["long_i2t_r@1", "long_i2t_r@5", "long_t2i_r@1", "long_t2i_r@5",
                 "short_r@1", "cls_acc@1"]
# "flops" is an estimate, `evaluation.flops_estimate` at the cell's configured
# `limit`: one corner-bearing text forward of that length, not the work the cell
# ran. Training trims PAD, so at limit 16, 32 and 64 the seed-1 default step 1
# ran 42.39 M forward MACs each time while the column read 2.17, 4.21 and 8.70 M.
ROW_FIELDS = ["axis", "value", "seed", *METRIC_FIELDS, "flops", "wall_time_s"]


@dataclass
class SweepSpec:
    axis: str
    values: list[int]
    base: TrainConfig = field(default_factory=TrainConfig)
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])

    def __post_init__(self):
        check_settings(self, [
            ("axis", self.axis in AXES, f"one of {AXES}"),
            ("values", all(v >= 0 for v in self.values), "nonnegative")] + [
            (name, len(set(xs)) == len(xs) > 0, "nonempty and distinct")
            for name, xs in (("values", self.values), ("seeds", self.seeds))])
        for value in self.values:       # a setting out of range raises before any cell runs
            cell_config(self, value, self.seeds[0])


def cell_settings(axis: str, value: int, seed: int) -> dict:
    """The TrainConfig fields that one cell sets over the base config; k_subcaptions 0 is
    the short-only cell: use_long_texts=False, with k_subcaptions 1, which it ignores."""
    swept = {"k_subcaptions": {"k_subcaptions": max(value, 1), "use_long_texts": value > 0},
             "token_limit": {"limit": value}, "m_corners": {"m": value}}[axis]
    return {"seed": seed, **swept}


def cell_config(spec: SweepSpec, value: int, seed: int) -> TrainConfig:
    return replace(spec.base, **cell_settings(spec.axis, value, seed))


def run_cell(spec: SweepSpec, value: int, seed: int,
             records: list[ManifestRecord], vocab: Vocabulary) -> dict:
    """Train + evaluate one cell; rerunning a cell reproduces its row."""
    cfg = cell_config(spec, value, seed)
    t0 = time.perf_counter()
    result = run_training(records, vocab, cfg)
    report = evaluation.evaluate(records, result.params, result.text_cfg, result.image_cfg,
                                 vocab, result.image_features)
    return {
        "axis": spec.axis, "value": value, "seed": seed,
        **{name: report[name] for name in METRIC_FIELDS},
        "flops": evaluation.flops_estimate(result.text_cfg, result.text_cfg.limit),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    }


def run_sweep(spec: SweepSpec, records: list[ManifestRecord], vocab: Vocabulary,
              out_dir: str) -> tuple[list[dict], list[dict]]:
    """All cells of the sweep, into `out_dir`; returns (every row of rows.csv, the
    cells that failed). Cells with a complete row in rows.csv are skipped (a torn
    last row is dropped, so its cell runs again), provided the rows come from a
    sweep of the same table, axis and base config (see `_keep_config`).

    Cells that raise are left out of the rows and written, with their error, to
    failures.jsonl, which each run rewrites; the per-value aggregate of all rows
    goes to plot_data_agg.csv. Every row holds cls_acc@1, so records without a
    class (`ManifestRecord.has_class`), or a label named two ways, are refused
    before any cell runs."""
    evaluation.classification_task(records)
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, "rows.csv")
    kept, f = continue_stream(rows_path, lambda line: True)
    failures = []
    with f:
        _keep_config(spec, out_dir, kept)
        done = {(row["axis"], int(row["value"]), int(row["seed"])) for row in csv.DictReader(kept)}
        writer = csv.DictWriter(f, fieldnames=ROW_FIELDS)
        if not kept:
            writer.writeheader()
        for value in spec.values:
            for seed in spec.seeds:
                key = (spec.axis, value, seed)
                if key in done:
                    log.info("skipping completed cell %s", key)
                    continue
                try:
                    row = run_cell(spec, value, seed, records, vocab)
                except Exception as exc:
                    log.exception("cell %s failed; continuing", key)
                    failures.append({"axis": spec.axis, "value": value, "seed": seed,
                                     "error": f"{type(exc).__name__}: {exc}"})
                    continue
                writer.writerow(row)
                f.flush()
    with open(os.path.join(out_dir, FAILURES_FILE), "w") as f:
        f.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in failures)
    with open(rows_path) as f:
        rows = list(csv.DictReader(f))
    _write_aggregate(rows, os.path.join(out_dir, "plot_data_agg.csv"))
    return rows, failures


def _keep_config(spec: SweepSpec, out_dir, kept: list[str]) -> None:
    """Record the axis and base config of a sweep that starts into `out_dir`;
    refuse to resume its rows (`kept`, the lines of rows.csv) under another table
    than ROW_FIELDS or with a sweep that differs in a field no cell sets."""
    if kept and (header := next(csv.reader(kept[:1]))) != ROW_FIELDS:
        raise ValueError(
            f"the rows in {out_dir} are another table: missing columns "
            f"{[c for c in ROW_FIELDS if c not in header]}, extra columns "
            f"{[c for c in header if c not in ROW_FIELDS]} (or another order); "
            "start the sweep in a new directory")
    path = os.path.join(out_dir, CONFIG_FILE)
    config = {"axis": spec.axis, **asdict(spec.base)}
    if len(kept) < 2:       # no row under the header
        with open(path, "w") as f:
            json.dump(config, f, sort_keys=True)
        return
    if not os.path.exists(path):
        raise ValueError(f"{out_dir} has sweep rows but no {CONFIG_FILE}: an older "
                         "version wrote them; start the sweep in a new directory")
    with open(path) as f:
        stored = json.load(f)
    per_cell = cell_settings(spec.axis, 0, 0)
    for name in {**config, **stored}:
        if name not in per_cell and stored.get(name) != config.get(name):
            raise ValueError(f"sweep field {name!r}: the rows in {out_dir} have "
                             f"{stored.get(name)!r}, this sweep {config.get(name)!r}")


def _write_aggregate(rows: list[dict], path) -> None:
    """Per axis value, the mean and stddev over seeds of each column after the seed."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["axis"], row["value"]), []).append(row)
    with open(path, "w", newline="") as f:
        f.write("# per-axis-value aggregates over seeds: mean and stddev\n")
        writer = csv.writer(f)
        writer.writerow(["axis", "value", "n_seeds",
                         *(f"{c}_{stat}" for c in ROW_FIELDS[3:] for stat in ("mean", "std"))])
        for (axis, value), grp in sorted(groups.items(), key=lambda kv: (kv[0][0], float(kv[0][1]))):
            stats = []
            for c in ROW_FIELDS[3:]:
                xs = [float(r[c]) for r in grp]
                mean = sum(xs) / len(xs)
                stats += [mean, (sum((x - mean) ** 2 for x in xs) / len(xs)) ** 0.5]
            writer.writerow([axis, value, len(grp), *stats])
