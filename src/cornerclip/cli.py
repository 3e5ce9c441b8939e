"""Single command-line entrypoint for corpus, debug, training, and evaluation.

Precedence for train/sweep settings: built-in defaults < config file
(flat key=value lines, default path from $CORNERCLIP_CONFIG) < flags.
Exit codes: 0 success, 1 usage error (a bad flag or config line, or any
settings.SettingError: a setting out of its range or a used train --out-dir),
2 runtime failure (a manifest with fewer records than batch_size too).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import corpus, evaluation, masks, sweep as sweep_mod, text_encoder, train as train_mod
from .settings import SettingError
from .tokenizer import ROLE_CLS, ROLE_CORNER, ROLE_TEXT, Vocabulary, detokenize, tokenize
from .train import TrainConfig

CONFIG_ENV = "CORNERCLIP_CONFIG"


class UsageError(Exception):
    """A bad flag or config line; no ValueError, which argparse's type= would rewrite."""


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(args, payload: dict, text: str | None = None):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text if text is not None else json.dumps(payload, sort_keys=True, indent=2))


def _load_config_file(path) -> dict:
    values = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _coerce(name: str, raw: str):
    ftype = _FIELD_TYPES.get(name)
    if ftype is None:
        raise UsageError(f"unknown config field {name!r}")
    if ftype == "bool":
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise UsageError(f"bad boolean for {name}: {raw!r}")
    try:
        return {"int": int, "float": float}.get(ftype, str)(raw)
    except ValueError:
        raise UsageError(f"bad {ftype} for {name}: {raw!r}") from None


def resolve_train_config(args) -> TrainConfig:
    values = dataclasses.asdict(TrainConfig())
    cfg_path = args.config or os.environ.get(CONFIG_ENV)
    if cfg_path:
        for key, raw in _load_config_file(cfg_path).items():
            values[key] = _coerce(key, raw)
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return TrainConfig(**values)


def _add_train_flags(p: Parser):
    p.add_argument("--config", help=f"flat key=value config file (default ${CONFIG_ENV})")
    p.add_argument("--print-config", action="store_true",
                   help="dump the fully resolved configuration and exit")
    for f in dataclasses.fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                       type=functools.partial(_coerce, f.name), metavar=f.type.upper(),
                       help=f"{f.name} (default {f.default})")


def build_parser() -> Parser:
    parser = Parser(prog="cornerclip", description=__doc__)
    common = Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="print one line of JSON")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    add = functools.partial(sub.add_parser, parents=[common])

    p = add("gen-corpus", help="generate a synthetic manifest")
    p.add_argument("--seed", type=int, default=1, help=(
        "another seed draws other attribute vectors, so its corpus is no held-out set "
        "for a model trained on this seed's; hold out the tail of one larger corpus "
        "instead: the first 256 records of --n 768 are the --n 256 corpus"))
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--attributes", type=int, default=4)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--pool-size", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("stats", help="corpus statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="also write stats to this file")

    p = add("tokenize", help="debug-tokenize a text")
    p.add_argument("--text", required=True)
    p.add_argument("--limit", type=int, default=32)
    p.add_argument("--corners", type=int, default=2)
    p.add_argument("--corpus", help="build the vocabulary from this manifest")

    p = add("mask", help="print a corner attention mask as a 0/1 grid")
    p.add_argument("--len", type=int, required=True, dest="length")
    p.add_argument("--corners", type=int, required=True)
    p.add_argument("--mode", choices=masks.MODES, default="corner")

    p = add("train", help="train on a manifest")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    _add_train_flags(p)

    p = add("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--export-embeddings",
                   help="write the ids and the image, long and short text features (npz)")

    p = add("flops", help="text-encoder FLOPs estimate")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--corners", type=int, default=2)
    p.add_argument("--mlp-ratio", type=int, default=4)
    p.add_argument("--proj-dim", type=int, default=512)

    p = add("sweep", help="axis sweep: fresh train + eval per cell")
    p.add_argument("--axis", choices=list(sweep_mod.AXES), required=True)
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--seeds", type=int, default=3, help="number of repeat seeds")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, dest="out_dir")
    _add_train_flags(p)

    p = add("inspect", help="show checkpoint metadata")
    p.add_argument("--checkpoint", required=True)
    return parser


def _cmd_gen_corpus(args) -> int:
    records = corpus.generate_synthetic_corpus(args.seed, args.n, args.attributes,
                                               args.feature_dim, args.pool_size)
    corpus.save_manifest(records, args.out)
    _emit(args, {"written": len(records), "path": args.out},
          f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    records = corpus.load_manifest(args.corpus)
    stats = dataclasses.asdict(corpus.corpus_stats(records))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(stats, f, sort_keys=True, indent=2)
    _emit(args, stats, "\n".join(f"{k}: {v}" for k, v in stats.items()))
    return 0


def _cmd_tokenize(args) -> int:
    vocab = _corpus_vocab(args.corpus)[1] if args.corpus else Vocabulary.build([args.text])
    seq = tokenize(args.text, args.limit, args.corners, vocab)
    tokens = detokenize(seq, vocab)
    payload = {"tokens": tokens, "ids": seq.ids.tolist(),
               "roles": seq.roles.tolist(), "true_length": seq.true_length}
    _emit(args, payload, " ".join(tokens))
    return 0


def _cmd_mask(args) -> int:
    text_encoder.TextEncoderConfig(vocab_size=0, limit=args.length, m=args.corners)
    roles = np.array([ROLE_CLS] + [ROLE_CORNER] * args.corners
                     + [ROLE_TEXT] * (args.length - args.corners - 1))
    mask = masks.full_mask(roles, args.mode)
    _emit(args, {"mask": mask.tolist()}, masks.format_mask(mask))
    return 0


def _records(path):
    """Manifest records; a manifest with no usable record fails."""
    records = corpus.load_manifest(path)
    if not records:
        raise ValueError(f"manifest {path} has no usable records")
    return records


def _corpus_vocab(path):
    """Manifest records and their vocabulary."""
    records = _records(path)
    return records, corpus.vocabulary(records)


def _cmd_train(args) -> int:
    cfg = resolve_train_config(args)
    train_mod.refuse_used_out_dir(args.out_dir)
    records, vocab = _corpus_vocab(args.corpus)
    result = train_mod.run_training(records, vocab, cfg, out_dir=args.out_dir)
    last = result.metrics[-1]
    _emit(args, {"steps": len(result.metrics), "final": last, "out_dir": args.out_dir},
          f"trained {len(result.metrics)} steps; final loss "
          f"{last['loss_total']:.4f}; artifacts in {args.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    records = _records(args.corpus)
    evaluation.record_classes(records)      # classes it refuses are refused before any embedding
    params, _, meta = ckpt.load_parameters(args.checkpoint)
    text_cfg, image_cfg, vocab = train_mod.model_from_meta(meta)
    ids, img, txt = evaluation.embed_eval_set(records, params, text_cfg, image_cfg, vocab)
    report = evaluation.evaluate(records, params, text_cfg, image_cfg, vocab, img, txt)
    if args.export_embeddings:
        # the per-record short captions; the report ranks the distinct ones
        short = evaluation.embed_texts([r.short_caption for r in records], params,
                                       text_cfg, vocab)
        np.savez(args.export_embeddings, ids=np.array(ids), image=img, text=txt, short=short)
    _emit(args, report, "\n".join(f"{k}: {v}" for k, v in report.items()))
    return 0


def _cmd_flops(args) -> int:
    cfg = text_encoder.TextEncoderConfig(
        vocab_size=2, limit=args.limit, m=args.corners, depth=args.depth, width=args.dim,
        heads=args.heads, mlp_ratio=args.mlp_ratio, projection_dim=args.proj_dim)
    flops = evaluation.flops_estimate(cfg, args.limit)
    _emit(args, {"flops": flops}, str(flops))
    return 0


def _cmd_sweep(args) -> int:
    try:
        values = [int(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --values: {exc}")
    spec = sweep_mod.SweepSpec(axis=args.axis, values=values, base=resolve_train_config(args),
                               seeds=list(range(args.seeds)))
    records, vocab = _corpus_vocab(args.corpus)
    rows, failures = sweep_mod.run_sweep(spec, records, vocab, args.out_dir)
    failed = len(failures)
    _emit(args, {"cells": len(rows), "failed": failed, "out_dir": args.out_dir},
          f"{len(rows)} cells complete, {failed} failed; tables in {args.out_dir}")
    if failed:
        path = os.path.join(args.out_dir, sweep_mod.FAILURES_FILE)
        print(f"error: {failed} of {len(rows) + failed} sweep cells failed; "
              f"errors in {path}", file=sys.stderr)
        return 2
    return 0


def _cmd_inspect(args) -> int:
    params, step, meta = ckpt.load_parameters(args.checkpoint)
    sections = {s: meta[s] for s in ("train_config", "text_config", "image_config")}
    payload = {
        "step": step,
        "n_parameters": int(sum(t.value.size for t in params.values())),
        "arrays": {name: list(t.value.shape) for name, t in sorted(params.items())},
        "m": meta["text_config"]["m"],
        "mask_mode": meta["text_config"]["mask_mode"],
        **sections,
    }
    text = "\n".join([f"step: {step}", f"parameters: {payload['n_parameters']}"]
                     + [f"  {n}: {s}" for n, s in payload["arrays"].items()]
                     + [f"{s}: {json.dumps(v, sort_keys=True)}" for s, v in sections.items()])
    _emit(args, payload, text)
    return 0


_COMMANDS = {
    "gen-corpus": _cmd_gen_corpus,
    "stats": _cmd_stats,
    "tokenize": _cmd_tokenize,
    "mask": _cmd_mask,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "flops": _cmd_flops,
    "sweep": _cmd_sweep,
    "inspect": _cmd_inspect,
}


def dispatch(argv: list[str]) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if getattr(args, "print_config", False):     # a flag of train and of sweep
            values = dataclasses.asdict(resolve_train_config(args))
            _emit(args, values, "\n".join(f"{k} = {v}" for k, v in values.items()))
            return 0
        return _COMMANDS[args.command](args)
    except (UsageError, SettingError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse --help exits 0; propagate its code
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
