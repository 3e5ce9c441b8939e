#!/usr/bin/env python3
"""cornerclip benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 20 --trace 0

Runs one workload in this process and prints a report, then, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured with no
wrapper installed; with --trace 1 they are the per-layer ones, taken by
wrapping the package's public functions from outside (see tracer.py).
Never take end-to-end numbers from a traced run.

The program is imported from src/ next to this directory. All inputs are
generated from --seed; temporary files go under .perfbench_work/ and are
removed at exit. BLAS is pinned to one thread below, before numpy loads.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("train_long", "train_vit_lit", "eval_long")

# Corpus shape of the criterion-6 training config.
TRAIN_N, N_ATTRIBUTES, FEATURE_DIM = 256, 4, 16
EVAL_N = 4096
EVAL_KS = (1, 5)
EVAL_SEED_OFFSET = 1_000_003     # eval corpus seed differs from the training corpus seed
IMAGE_SHAPE = (32, 32, 3)
SETUP_REPS = 5                   # setup_s is the median of these
WARMUP_STEPS = 5                 # per setup; also the determinism reference
CHECKPOINT_EVERY = 50
EVAL_CKPT_STEPS = 5              # training steps behind the eval_long checkpoint
# Work per run is fixed by --seconds through these rates (one 2-core Xeon,
# 1 BLAS thread), so the same seed and --seconds always do the same work.
STEPS_PER_S = {"train_long": 15.0, "train_vit_lit": 14.0}
EVAL_PASSES_PER_S = 1 / 8.0


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import cornerclip  # noqa: F401
        from cornerclip import checkpoint, corpus, evaluation, train  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cornerclip from {SRC}: {exc}")
    if Path(cornerclip.__file__).resolve().parent != SRC / "cornerclip":
        sys.exit(f"perfbench: cornerclip was imported from {cornerclip.__file__}, not {SRC}")


# --------------------------------------------------------------------- helpers

class StepClock(logging.Handler):
    """Step boundaries from the per-step debug record of cornerclip.train.

    train_step logs one record as each step ends; the time between two
    records is one step, including batch assembly and checkpoint stalls.
    """

    def __init__(self, tracer=None):
        super().__init__(logging.DEBUG)
        self.marks = []
        self.tracer = tracer

    def emit(self, record):
        now = time.perf_counter()
        self.marks.append(now)
        if self.tracer is not None:
            self.tracer.boundary(now)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vocab_for(records):
    from cornerclip.tokenizer import Vocabulary
    return Vocabulary.build([r.short_text for r in records]
                            + [t for r in records for t in r.long_texts])


def pixels_for(feature, projection):
    """Deterministic 32x32x3 pixel array carrying a record's feature."""
    return np.tanh(projection @ feature).reshape(IMAGE_SHAPE)


def oracle_recall_count(S, k):
    """Queries (rows) whose diagonal match ranks < k; lower index wins ties."""
    d = np.diagonal(S)[:, None]
    idx = np.arange(S.shape[0])
    ahead = (S > d) | ((S == d) & (idx[None, :] < idx[:, None]))
    return int((ahead.sum(axis=1) < k).sum())


class Checks:
    """Output checks; each failed one counts as one failed operation."""

    def __init__(self):
        self.failures = []
        self.passed = 0

    def expect(self, ok, what):
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok


def check_eval(checks, label, img, txt, report):
    """Recall equals the exhaustive oracle; all embeddings are unit norm."""
    for name, feats in (("image", img), ("text", txt)):
        norms = np.linalg.norm(feats, axis=1)
        checks.expect(np.all(np.abs(norms - 1.0) < 1e-9), f"{label}: {name} embeddings not unit norm")
    S = img @ txt.T
    n = S.shape[0]
    for k in EVAL_KS:
        for direction, mat in (("i2t", S), ("t2i", S.T)):
            want = oracle_recall_count(mat, k) / n
            got = report.metrics[f"{direction}_r@{k}"]
            checks.expect(got == want, f"{label}: {direction} R@{k} = {got}, oracle {want}")


def check_round_trip(checks, label, path, params, opt, step):
    """A checkpoint read back equals the state that was written, bit for bit."""
    from cornerclip import checkpoint
    loaded, (m, v, opt_step), loaded_step, _ = checkpoint.load_checkpoint(path)
    same = (sorted(loaded) == sorted(params) and all(
        loaded[k].value.shape == params[k].value.shape
        and loaded[k].value.tobytes() == params[k].value.tobytes() for k in params)
        and opt_step == opt.step and loaded_step == step and all(
            m[k].tobytes() == opt.m[k].tobytes() and v[k].tobytes() == opt.v[k].tobytes()
            for k in opt.m))
    checks.expect(same, f"{label}: checkpoint round trip is not bit-exact")


# ------------------------------------------------------------------- workloads

class Workload:
    """Set up (SETUP_REPS times), run the measured job, check the outputs."""

    def __init__(self, name, seed, seconds, workdir, tracer, clock):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.workdir, self.tracer, self.clock = workdir, tracer, clock
        self.checks = Checks()
        self.setup_s = []
        self.rep_counts = []      # tracer count deltas per setup repetition
        self.attempted = 0
        self.samples_ms = []
        self.items_per_s = 0.0
        self.peak_rss_mb = None
        self.nodes_per_op = 0
        self.notes = {}

    def run(self):
        for rep in range(SETUP_REPS):
            before = self.tracer.snapshot() if self.tracer else None
            t0 = time.perf_counter()
            self.setup(rep)
            self.setup_s.append(time.perf_counter() - t0)
            if self.tracer:
                after = self.tracer.snapshot()
                self.rep_counts.append({k: after[k] - before[k] for k in after})
        self.notes["setup_s_reps"] = self.setup_s
        self.measure()
        # the checks hold more memory than the program does, so read the peak first
        self.peak_rss_mb = peak_rss_mb()
        self.check()
        if self.tracer:
            self.checks.expect(all(c == self.rep_counts[0] for c in self.rep_counts),
                               f"counts differ across setup repetitions: {self.rep_counts}")
            nodes = set(self.tracer.node_deltas)
            self.checks.expect(len(nodes) == 1, f"graph nodes per step vary: {sorted(nodes)}")


class TrainWorkload(Workload):
    """train_long (the paper's method) and train_vit_lit (locked ViT, short captions)."""

    def config(self, steps, checkpoint_every=0):
        from cornerclip.train import TrainConfig
        if self.name == "train_long":
            return TrainConfig(steps=steps, seed=self.seed, checkpoint_every=checkpoint_every)
        return TrainConfig(steps=steps, seed=self.seed, checkpoint_every=checkpoint_every,
                           image_mode="vit", freeze_image=True, use_long_texts=False)

    def setup(self, rep):
        from cornerclip import corpus, train
        records = corpus.generate_synthetic_corpus(self.seed, TRAIN_N, N_ATTRIBUTES, FEATURE_DIM)
        if self.name == "train_vit_lit":
            rng = np.random.default_rng([self.seed, 7])
            projection = rng.normal(0.0, FEATURE_DIM ** -0.5, size=(int(np.prod(IMAGE_SHAPE)), FEATURE_DIM))
            pixel_dir = self.workdir / "pixels"
            pixel_dir.mkdir(exist_ok=True)
            for rec in records:
                path = pixel_dir / f"{rec.id}.npy"
                np.save(path, pixels_for(rec.image_feature, projection))
                rec.image_path, rec.image_feature = str(path), None
        manifest = self.workdir / "train.jsonl"
        corpus.save_manifest(records, manifest)
        self.records = corpus.load_manifest(manifest)
        self.vocab = vocab_for(self.records)
        warm = train.run_training(self.records, self.vocab, self.config(WARMUP_STEPS))
        if rep == 0:
            self.warmup_streams = []
        self.warmup_streams.append([train.metrics_line(m) for m in warm.metrics])

    def measure(self):
        from cornerclip import train
        steps = max(2 * WARMUP_STEPS, round(self.seconds * STEPS_PER_S[self.name]))
        cfg = self.config(steps, CHECKPOINT_EVERY)
        out_dir = self.workdir / "run"
        first = len(self.clock.marks)
        try:
            self.result = train.run_training(self.records, self.vocab, cfg, out_dir=str(out_dir))
        except FloatingPointError as exc:     # raised by train.gradients on a non-finite loss
            self.result = None
            self.checks.expect(False, f"step {len(self.clock.marks) - first + 1}: {exc}")
        marks = self.clock.marks[first:]
        # the step that raised logged no record, but it was attempted
        self.attempted += len(marks) + (self.result is None)
        if self.result is not None:
            self.checks.expect(len(marks) == steps, f"saw {len(marks)} step records for {steps} steps")
        self.samples_ms = [1000.0 * (b - a) for a, b in zip(marks, marks[1:])]
        if len(marks) >= 2:
            self.items_per_s = cfg.batch_size * (len(marks) - 1) / (marks[-1] - marks[0])
        self.steps, self.out_dir, self.cfg = steps, out_dir, cfg
        if self.tracer:
            self.nodes_per_op = self.tracer.node_deltas[-1] if marks else 0
            if len(marks) >= 2:
                self.notes["trace_op_ms_p50"] = 1000.0 * statistics.median(
                    self.tracer.step_intervals[-(len(marks) - 1):])

    def check(self):
        from cornerclip import evaluation, train
        res = self.result
        if res is None:
            return
        losses = [m["loss_total"] for m in res.metrics]
        lines = [train.metrics_line(m) for m in res.metrics[:WARMUP_STEPS]]
        self.checks.expect(all(lines == warm for warm in self.warmup_streams),
                           "loss stream differs between two runs of the same seed")
        window = max(10, self.steps // 10)
        first, last = np.mean(losses[:window]), np.mean(losses[-window:])
        self.checks.expect(last < first, f"loss did not fall: first {first:.4f}, last {last:.4f}")
        self.notes.update(loss_first_window=float(first), loss_last_window=float(last))

        self.attempted += 1
        check_round_trip(self.checks, "final checkpoint", self.out_dir / "ckpt_final.bin",
                         res.params, res.opt, self.steps)

        # retrieval of the trained model on its training manifest
        self.attempted += 1
        kind = "long_full" if self.cfg.use_long_texts else "short"
        _, img, txt = evaluation.embed_eval_set(self.records, res.params, res.text_cfg,
                                                res.image_cfg, res.vocab, kind)
        gt = evaluation.RetrievalGroundTruth.one_to_one(len(self.records))
        report = evaluation.evaluate_retrieval(img, txt, gt, task=kind)
        names, labels = evaluation.classification_task(self.records)
        protos = evaluation.class_prototypes(names, evaluation.DEFAULT_TEMPLATES,
                                             res.params, res.text_cfg, res.vocab)
        self.notes["train_set_acc"] = evaluation.zero_shot_classify(img, labels, protos)
        self.notes["train_set_i2t_r@1"] = report.metrics["i2t_r@1"]
        check_eval(self.checks, "train-set retrieval", img, txt, report)


class EvalWorkload(Workload):
    """eval_long: the `cornerclip eval` path at N=4096, forward only."""

    def setup(self, rep):
        from cornerclip import corpus, evaluation, train
        train_records = corpus.generate_synthetic_corpus(self.seed, TRAIN_N, N_ATTRIBUTES, FEATURE_DIM)
        vocab = vocab_for(train_records)
        cfg = train.TrainConfig(steps=EVAL_CKPT_STEPS, seed=self.seed)
        ckpt_dir = self.workdir / "ckpt"
        self.trained = train.run_training(train_records, vocab, cfg, out_dir=str(ckpt_dir))
        self.ckpt_path = ckpt_dir / "ckpt_final.bin"
        records = corpus.generate_synthetic_corpus(
            self.seed + EVAL_SEED_OFFSET, EVAL_N, N_ATTRIBUTES, FEATURE_DIM)
        self.manifest = self.workdir / "eval.jsonl"
        corpus.save_manifest(records, self.manifest)
        t = self.trained
        evaluation.embed_eval_set(records[:64], t.params, t.text_cfg, t.image_cfg, t.vocab)

    def one_pass(self):
        from cornerclip import checkpoint, corpus, evaluation, train
        from cornerclip.image_encoder import ImageEncoderConfig
        from cornerclip.text_encoder import TextEncoderConfig
        records = corpus.load_manifest(self.manifest)
        params, _, _, meta = checkpoint.load_checkpoint(self.ckpt_path)
        text_cfg = TextEncoderConfig(**meta["text_config"])
        image_cfg = ImageEncoderConfig(**meta["image_config"])
        vocab = train.vocab_from_meta(meta)
        _, img, txt = evaluation.embed_eval_set(records, params, text_cfg, image_cfg,
                                                vocab, "long_full")
        gt = evaluation.RetrievalGroundTruth.one_to_one(len(records))
        report = evaluation.evaluate_retrieval(img, txt, gt, task="long_full", ks=EVAL_KS)
        names, labels = evaluation.classification_task(records)
        protos = evaluation.class_prototypes(names, evaluation.DEFAULT_TEMPLATES,
                                             params, text_cfg, vocab)
        acc = evaluation.zero_shot_classify(img, labels, protos)
        return len(records), img, txt, report, acc

    def measure(self):
        passes = max(1, round(self.seconds * EVAL_PASSES_PER_S))
        self.outputs = []
        pass_counts = []
        for _ in range(passes):
            before = self.tracer.snapshot() if self.tracer else None
            t0 = time.perf_counter()
            out = self.one_pass()
            self.samples_ms.append(1000.0 * (time.perf_counter() - t0))
            self.outputs.append(out)
            if self.tracer:
                after = self.tracer.snapshot()
                pass_counts.append({k: after[k] - before[k] for k in after})
        n = self.outputs[0][0]
        self.items_per_s = n * passes / (sum(self.samples_ms) / 1000.0)
        if self.tracer:
            self.notes["trace_op_ms_p50"] = statistics.median(self.samples_ms)
            self.nodes_per_op = pass_counts[0]["autodiff.nodes"]
            self.checks.expect(all(c == pass_counts[0] for c in pass_counts),
                               f"counts differ across eval passes: {pass_counts}")

    def check(self):
        first = self.outputs[0]
        check_eval(self.checks, "pass 0", first[1], first[2], first[3])
        for i, (n, img, txt, report, acc) in enumerate(self.outputs):
            self.attempted += 2      # one eval pass, one checkpoint read
            # later passes must reproduce pass 0 exactly, so its oracle check covers them
            self.checks.expect(n == EVAL_N and img.tobytes() == first[1].tobytes()
                               and txt.tobytes() == first[2].tobytes()
                               and report.metrics == first[3].metrics and acc == first[4],
                               f"pass {i}: outputs differ from pass 0")
        self.notes.update(i2t_r1=first[3].metrics["i2t_r@1"], zero_shot_acc=first[4])
        t = self.trained
        check_round_trip(self.checks, "eval checkpoint", self.ckpt_path, t.params, t.opt,
                         EVAL_CKPT_STEPS)


# --------------------------------------------------------------------- results

def environment(seed, workload):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads_runtime": blas_runtime_threads(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": workload,
        "seeds": {"bench": seed, "train_corpus": seed, "train_model": seed,
                  "eval_corpus": seed + EVAL_SEED_OFFSET if workload == "eval_long" else None},
    }


def blas_runtime_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "cornerclip").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def end_to_end(w):
    samples = w.samples_ms
    return {
        "setup_s": (statistics.median(w.setup_s), "s"),
        "op_ms_p50": (percentile(samples, 50) if samples else float("nan"), "ms"),
        "op_ms_p95": (percentile(samples, 95) if samples else float("nan"), "ms"),
        "items_per_s": (w.items_per_s, "1/s"),
        "peak_rss_mb": (w.peak_rss_mb, "MB"),
    }


# Printed, but not in the result line. The host's speed switches between two
# levels every few seconds, so a percentile of the op time lands on one level
# or the other and jumps between runs (IQR/median over ten runs reached 0.23
# for p50 and 0.24 for p95); items_per_s is the mean rate over the same ops
# and stays steadier. concat runs only in the ViT tower, so on the other
# workloads its times are a constant zero. train.steps only helps turn
# totals into per-step figures.
REPORT_ONLY = ("op_ms_p50", "op_ms_p95", "autodiff.concat.fwd_ms", "autodiff.concat.bwd_ms",
               "train.steps")

ALIASES = {
    "train": {"op_ms_p50": "train_step_ms_p50", "op_ms_p95": "train_step_ms_p95",
              "items_per_s": "train_pairs_per_s"},
    "eval": {"op_ms_p50": "eval_pass_ms_p50", "op_ms_p95": "eval_pass_ms_p95",
             "items_per_s": "eval_records_per_s"},
}


def per_layer(w, tr):
    ms = {k: 1000.0 * v for k, v in tr.secs.items()}
    c = tr.count
    out = {}
    for p in tracing.PRIMITIVES + tracing.COMPOSITES:
        out[f"autodiff.{p}.fwd_ms"] = (ms.get(f"autodiff.{p}.fwd", 0.0), "ms")
        out[f"autodiff.{p}.bwd_ms"] = (ms.get(f"autodiff.{p}.bwd", 0.0), "ms")
        out[f"autodiff.{p}.calls"] = (c[f"autodiff.{p}.calls"], "count")
    n_steps = len(tr.node_deltas)
    out.update({
        "autodiff.backward_ms": (ms.get("autodiff.backward", 0.0), "ms"),
        "autodiff.nodes_per_step": (w.nodes_per_op, "count"),
        "autodiff.matmul.macs": (c["autodiff.matmul.macs"], "count"),
        "autodiff.useful_grad_frac": (c["autodiff.useful_grad_elems"] / max(c["autodiff.grad_elems"], 1), "fraction"),
    })
    for key in ("masks.full_mask", "tokenizer.tokenize", "transformer.block_forward",
                "transformer.attention", "text_encoder.encode_text_graph",
                "image_encoder.encode_image_graph", "evaluation.recall_at_k"):
        out[f"{key}.ms"] = (ms.get(key, 0.0), "ms")
        out[f"{key}.calls"] = (c[f"{key}.calls"], "count")
    out["text_encoder.positions"] = (c["text_encoder.positions"], "count")
    out["text_encoder.pad_frac"] = (c["text_encoder.pad_positions"] / max(c["text_encoder.positions"], 1), "fraction")
    for key in ("objective.total_loss", "train.assemble_batch", "train.forward", "train.backward",
                "train.adamw", "train.step", "train.checkpoint_stall", "checkpoint.save",
                "checkpoint.load", "corpus.load_manifest", "evaluation.embed_eval_set",
                "evaluation.class_prototypes", "evaluation.zero_shot_classify"):
        out[f"{key}.ms"] = (ms.get(key, 0.0), "ms")

    def rate(amount, key):
        secs = tr.secs.get(key, 0.0)
        return amount / secs if secs > 0 else 0.0

    phase = sum(ms.get(f"train.step_phase.{p}", 0.0) for p in ("assemble_batch", "forward", "backward", "adamw"))
    stall = ms.get("train.step_phase.checkpoint_stall", 0.0)
    out.update({
        "train.steps": (n_steps, "count"),
        "train.phase_coverage": (phase / (ms.get("train.step", 0.0) - stall) if ms.get("train.step") else 0.0, "fraction"),
        "checkpoint.save.mb_per_s": (rate(c["checkpoint.save.bytes"] / 1e6, "checkpoint.save"), "MB/s"),
        "checkpoint.load.mb_per_s": (rate(c["checkpoint.load.bytes"] / 1e6, "checkpoint.load"), "MB/s"),
        "checkpoint.bytes": (c["checkpoint.bytes"], "bytes"),
        "corpus.load_manifest.records_per_s": (rate(c["corpus.load_manifest.records"], "corpus.load_manifest"), "records/s"),
        "evaluation.embed.records_per_s": (rate(c["evaluation.embed.records"], "evaluation.embed_eval_set"), "records/s"),
        "trace.op_ms_p50": (w.notes.get("trace_op_ms_p50", 0.0), "ms"),
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    import_program()
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    else:
        tracing.assert_untraced()
    clock = StepClock(tr)
    train_logger = logging.getLogger("cornerclip.train")
    train_logger.setLevel(logging.DEBUG)
    train_logger.propagate = False
    train_logger.addHandler(clock)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    kind = EvalWorkload if args.workload == "eval_long" else TrainWorkload
    w = kind(args.workload, args.seed, args.seconds, workdir, tr, clock)
    t0 = time.perf_counter()
    try:
        w.run()
    finally:
        train_logger.removeHandler(clock)
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    wall = time.perf_counter() - t0

    failed = min(len(w.checks.failures), w.attempted)
    alias = ALIASES["eval" if args.workload == "eval_long" else "train"]
    metrics = per_layer(w, tr) if tr is not None else end_to_end(w)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} wall={wall:.1f}s")
    print("env " + json.dumps(environment(args.seed, args.workload), sort_keys=True))
    print("notes " + json.dumps(w.notes, sort_keys=True))
    print(f"checks passed={w.checks.passed} failed={len(w.checks.failures)}")
    for msg in w.checks.failures:
        print(f"  FAILED: {msg}")
    if tr is None:
        for name, (value, unit) in metrics.items():
            label = f"{alias[name]} ({name})" if name in alias else name
            extra = f"  [n={len(w.samples_ms)} samples]" if name.startswith("op_ms") else ""
            print(f"{label} = {value:.6g} {unit}{extra}")
        print(f"failed_frac = {failed / w.attempted:.6g} fraction  [{failed}/{w.attempted} ops]")
    else:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": w.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
