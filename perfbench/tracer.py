"""Outside-in per-layer tracer for the cornerclip package.

The tracer changes no file of the package. It replaces public functions
with timing wrappers at every place they are looked up: in the module that
defines them and in every cornerclip module that imported them by name
(``from .autodiff import matmul`` binds a second name that a wrapper on
``autodiff.matmul`` alone would miss). Backward time per autodiff
primitive is taken by wrapping the ``_backward`` closure of each output
node as it is created.

Attribution rules:
- ``layer_norm`` and ``l2_normalize`` are composites: their time is
  inclusive, and the primitive nodes they build (forward and backward)
  count toward the composite, not toward the primitive.
- every primitive call, composite children included, is one graph node.
- times are totals over the traced run, in milliseconds.
"""

from __future__ import annotations

import ast
import os
import sys
import time
from collections import defaultdict

import numpy as np

PRIMITIVES = ("matmul", "add", "mul", "power", "exp", "log", "tsum", "reshape",
              "transpose", "getitem", "take_rows", "concat", "softmax", "gelu", "clip")
COMPOSITES = ("layer_norm", "l2_normalize")

# (defining module, function, metric key); spans timed inclusively.
SPANS = (
    ("masks", "full_mask", "masks.full_mask"),
    ("tokenizer", "tokenize", "tokenizer.tokenize"),
    ("transformer", "block_forward", "transformer.block_forward"),
    ("transformer", "attention", "transformer.attention"),
    ("text_encoder", "encode_text_graph", "text_encoder.encode_text_graph"),
    ("image_encoder", "encode_image_graph", "image_encoder.encode_image_graph"),
    ("objective", "total_loss", "objective.total_loss"),
    ("train", "run_training", "train.run_training"),
    ("train", "assemble_batch", "train.assemble_batch"),
    ("train", "compute_loss", "train.forward"),
    ("train", "gradients", "train.gradients"),
    ("train", "train_step", "train.train_step"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("corpus", "load_manifest", "corpus.load_manifest"),
    ("evaluation", "embed_eval_set", "evaluation.embed_eval_set"),
    ("evaluation", "recall_at_k", "evaluation.recall_at_k"),
    ("evaluation", "class_prototypes", "evaluation.class_prototypes"),
    ("evaluation", "zero_shot_classify", "evaluation.zero_shot_classify"),
)

# Counts that must repeat exactly when the same work is repeated.
REPEATABLE_COUNTS = ("autodiff.nodes", "autodiff.matmul.macs", "masks.full_mask.calls",
                     "tokenizer.tokenize.calls", "text_encoder.positions")


def _package_modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("cornerclip.") and mod is not None}


def _targets():
    """(defining module name, function name) for every function the tracer wraps."""
    out = [("autodiff", name) for name in PRIMITIVES + COMPOSITES]
    out += [(mod, fn) for mod, fn, _ in SPANS]
    return out


def _imported_names(mods):
    """(module, defining module, name) for each ``from .<defining module> import name``."""
    out = []
    for mod in mods.values():
        with open(mod.__file__) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                out += [(mod, node.module, a.name) for a in node.names if a.asname is None]
    return out


def assert_untraced() -> None:
    """Raise unless every name the tracer wraps is bound to the package's own function."""
    mods = _package_modules()
    imported = _imported_names(mods)
    for defmod, name in _targets():
        original = getattr(mods[defmod], name)
        if (hasattr(original, "__wrapped__")
                or original.__module__ != f"cornerclip.{defmod}"
                or original.__qualname__ != name):
            raise AssertionError(f"cornerclip.{defmod}.{name} is not the original function")
        for mod in (m for m, d, n in imported if (d, n) == (defmod, name)):
            if getattr(mod, name) is not original:
                raise AssertionError(f"{mod.__name__}.{name} is not cornerclip.{defmod}.{name}")
    backward = mods["autodiff"].Tensor.backward
    if hasattr(backward, "__wrapped__") or backward.__qualname__ != "Tensor.backward":
        raise AssertionError("cornerclip.autodiff.Tensor.backward is not the original method")


class Tracer:
    """Aggregated spans and counts; one instance per traced run, single-threaded."""

    def __init__(self):
        self.secs = defaultdict(float)
        self.count = defaultdict(int)
        self._composite = None
        self._in_gradients = False
        self._in_run_training = False
        self._installed = []
        self._mac_ctx = None
        self._macs = None
        self._role_pad = None
        # step accounting between step boundaries (see boundary())
        self._last_boundary = None
        self._phase_open = defaultdict(float)
        self.step_intervals = []
        self.node_deltas = []

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        mods = _package_modules()
        ad = mods["autodiff"]
        self._role_pad = mods["tokenizer"].ROLE_PAD
        for name in PRIMITIVES:
            self._wrap_everywhere(mods, name, self._primitive(getattr(ad, name), name))
        for name in COMPOSITES:
            self._wrap_everywhere(mods, name, self._composite_fn(getattr(ad, name), name))
        for defmod, name, key in SPANS:
            self._wrap_everywhere(mods, name, self._span(getattr(mods[defmod], name), key))
        self._set(ad.Tensor, "backward", self._backward_method(ad.Tensor.backward))
        self._mac_ctx = ad.count_macs()
        self._macs = self._mac_ctx.__enter__()

    def uninstall(self) -> None:
        if self._mac_ctx is not None:
            self._mac_ctx.__exit__(None, None, None)
            self.count["autodiff.matmul.macs"] = self._macs[0]
            self._mac_ctx = None
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _set(self, owner, name, wrapper):
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap_everywhere(self, mods, name, wrapper):
        """Bind `wrapper` wherever the package binds the function it wraps."""
        for mod in mods.values():
            if getattr(mod, name, None) is wrapper.__wrapped__:
                self._set(mod, name, wrapper)

    # -- autodiff -------------------------------------------------------------

    def _timed_backward(self, fn, owner):
        def bw(g):
            t0 = time.perf_counter()
            fn(g)
            self.secs[f"autodiff.{owner}.bwd"] += time.perf_counter() - t0
        return bw

    def _node(self, out, owner):
        self.count["autodiff.nodes"] += 1
        if out._backward is not None:
            out._backward = self._timed_backward(out._backward, owner)
        return out

    def _primitive(self, fn, name):
        def wrapper(*args, **kwargs):
            owner = self._composite
            if owner is not None:
                return self._node(fn(*args, **kwargs), owner)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.secs[f"autodiff.{name}.fwd"] += time.perf_counter() - t0
            self.count[f"autodiff.{name}.calls"] += 1
            return self._node(out, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _composite_fn(self, fn, name):
        def wrapper(*args, **kwargs):
            if self._composite is not None:
                return fn(*args, **kwargs)
            self._composite = name
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._composite = None
            self.secs[f"autodiff.{name}.fwd"] += time.perf_counter() - t0
            self.count[f"autodiff.{name}.calls"] += 1
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _backward_method(self, fn):
        def backward(tensor):
            t0 = time.perf_counter()
            fn(tensor)
            dt = time.perf_counter() - t0
            self.secs["autodiff.backward"] += dt
            if self._in_gradients:
                self.secs["train.backward"] += dt
                self._phase_open["backward"] += dt
        backward.__wrapped__ = fn
        return backward

    # -- module spans -----------------------------------------------------------

    def _span(self, fn, key):
        def wrapper(*args, **kwargs):
            state = self._enter(key)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            self.secs[key] += dt
            self.count[f"{key}.calls"] += 1
            self._exit(key, state, dt, args, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _enter(self, key):
        if key == "train.run_training":
            self._in_run_training = True
            self._last_boundary = None
        elif key == "train.gradients":
            self._in_gradients = True
        elif key == "train.train_step":
            return self.secs["train.gradients"], self.count["autodiff.nodes"]
        return None

    def _exit(self, key, state, dt, args, out):
        if key == "train.run_training":
            self._in_run_training = False
            self._last_boundary = None
        elif key == "train.gradients":
            self._in_gradients = False
            # parameters that received a gradient, against those the step updates
            params, trainable = args[0], out[0]
            for name, tensor in params.items():
                if tensor.grad is not None:
                    self.count["autodiff.grad_elems"] += tensor.value.size
                    if name in trainable:
                        self.count["autodiff.useful_grad_elems"] += tensor.value.size
        elif key == "train.train_step":
            grad_before, nodes_before = state
            adamw = dt - (self.secs["train.gradients"] - grad_before)
            self.secs["train.adamw"] += adamw
            self._phase_open["adamw"] += adamw
            self.node_deltas.append(self.count["autodiff.nodes"] - nodes_before)
        elif key == "train.assemble_batch":
            self._phase_open["assemble_batch"] += dt
        elif key == "train.forward":
            self._phase_open["forward"] += dt
        elif key in ("checkpoint.save", "checkpoint.load"):
            size = os.path.getsize(args[0])
            self.count[f"{key}.bytes"] += size
            self.count["checkpoint.bytes"] = size
            if key == "checkpoint.save" and self._in_run_training:
                self.secs["train.checkpoint_stall"] += dt
                self._phase_open["checkpoint_stall"] += dt
        elif key == "text_encoder.encode_text_graph":
            ids, roles = np.atleast_2d(args[0]), np.atleast_2d(args[1])
            self.count["text_encoder.positions"] += int(ids.size)
            self.count["text_encoder.pad_positions"] += int((roles == self._role_pad).sum())
        elif key == "corpus.load_manifest":
            self.count["corpus.load_manifest.records"] += len(out)
        elif key == "evaluation.embed_eval_set":
            self.count["evaluation.embed.records"] += len(args[0])

    # -- step boundaries --------------------------------------------------------

    def boundary(self, now: float) -> None:
        """A training step ended. Close the interval since the previous one."""
        if self._last_boundary is not None:
            self.step_intervals.append(now - self._last_boundary)
            self.secs["train.step"] += now - self._last_boundary
            for phase, secs in self._phase_open.items():
                self.secs[f"train.step_phase.{phase}"] += secs
        self._phase_open.clear()
        self._last_boundary = now

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Current values of the counts that must repeat exactly (while installed)."""
        snap = {k: self.count[k] for k in REPEATABLE_COUNTS}
        snap["autodiff.matmul.macs"] = self._macs[0]
        return snap
