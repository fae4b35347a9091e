"""Span recorder and outside-in instrumentation of the autojacobin layers.

Nothing inside the package changes. `instrument` replaces every public
module-level function of the layer modules with a wrapper that records one
span per call, and rebinds each name that any autojacobin module bound to
such a function with `from ... import` (cli and trainer do this), so calls
through those names are recorded as well. A wrapper only times the call;
sizes it records are read from the arguments and the result after the span
has ended, and neither is altered.

Spans stay in memory as [id, parent, name, start, end, attrs] lists and are
written out by the caller when the run ends. The program is single-threaded,
so child spans of one parent never overlap and a span's self time is its
duration minus the sum of its direct children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
import uuid

LAYERS = ("matrix_io", "tangent", "network", "variants", "trainer",
          "hamming", "cli", "synth")

ID, PARENT, NAME, START, END, ATTRS = range(6)


class Recorder:
    """Collects spans of one run; all spans share `run_id`."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self._stack: list[list] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        s = [len(self.spans), parent, name, 0.0, None, None]
        self.spans.append(s)
        self._stack.append(s)
        s[START] = time.perf_counter()
        return s

    def close(self, s: list, **attrs) -> None:
        s[END] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not s:
            raise RuntimeError(f"span {s[NAME]} closed out of order")
        if attrs:
            s[ATTRS] = attrs

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["id", "parent", "name", "start", "end", "attrs"],
                "spans": self.spans}


# --- what each wrapper records besides the time -----------------------------
# A probe maps (bound arguments, result) to span attributes. It runs after
# the span has closed, so its cost is outside every recorded duration.

def _file_bytes(a, r):
    return {"bytes": os.path.getsize(a["path"])}


def _columns(key):
    return lambda a, r: {"columns": a[key].shape[1]}


PROBES = {
    "tangent.estimate_all_tangents":
        lambda a, r: {"points": a["X"].shape[1], "ranks": [t.rank for t in r]},
    "tangent.projector": lambda a, r: {"bytes": r.nbytes},
    "network.objective": _columns("batch"),
    "network.gradients": _columns("batch"),
    "trainer.train": lambda a, r: {"iterations": len(r[1].cost_trace)},
    "trainer.wolfe_step": lambda a, r: {"evals": r[1], "fallback": bool(r[2])},
    "hamming.encode": _columns("X"),
    "hamming.build_groundtruth": _columns("queries"),
    "hamming.recall_curve": lambda a, r: {"queries": a["query_codes"].count},
    "hamming.hamming_distances": lambda a, r: {"bytes": a["base"].packed.nbytes},
    "cli.main": lambda a, r: {"command": a["argv"][0]},
}


def _probe_for(name: str):
    if name in PROBES:
        return PROBES[name]
    if name.startswith(("matrix_io.read_", "matrix_io.write_")):
        return _file_bytes
    return None


def _wrap(rec: Recorder, name: str, fn):
    probe = _probe_for(name)
    sig = inspect.signature(fn) if probe else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        s = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            rec.close(s, error=type(e).__name__)
            raise
        rec.close(s)
        if probe is not None:
            s[ATTRS] = probe(sig.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Record spans for every public function of LAYERS while active."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"autojacobin.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrappers[obj] = _wrap(rec, f"{layer}.{attr}", obj)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "autojacobin" and not modname.startswith("autojacobin."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    try:
        yield
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


# --- reading the spans back --------------------------------------------------

class SpanTree:
    """Durations, self times and subtrees of a finished recording."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def subtree(self, root: int) -> list[int]:
        # spans are stored in opening order, so a parent precedes its children
        inside = {root}
        for s in self.spans[root + 1:]:
            if s[PARENT] in inside:
                inside.add(s[ID])
        return sorted(inside)

    def named(self, scope, *names, prefix: bool = False) -> list[list]:
        if prefix:
            return [self.spans[i] for i in scope
                    if self.spans[i][NAME].startswith(names)]
        return [self.spans[i] for i in scope if self.spans[i][NAME] in names]

    def total(self, spans) -> float:
        return sum(self.dur[s[ID]] for s in spans)

    def self_in(self, scope, layers) -> float:
        """Self time of the spans in scope that belong to one of layers."""
        return sum(self.self_time[i] for i in scope
                   if self.spans[i][NAME].split(".", 1)[0] in layers)


def attr_sum(spans, key) -> float:
    return sum((s[ATTRS] or {}).get(key, 0) for s in spans)


# --- per-layer metrics ---------------------------------------------------------

PER_LAYER = {
    "matrix_io.read_s": "s",
    "matrix_io.read_mb": "MB",
    "matrix_io.write_s": "s",
    "matrix_io.write_mb": "MB",
    "tangent.estimate_s": "s",
    "tangent.points": "count",
    "tangent.rank_min": "count",
    "tangent.rank_mean": "count",
    "tangent.rank_max": "count",
    "tangent.projector_s": "s",
    "tangent.projector_mb": "MB",
    "network.objective_calls": "count",
    "network.objective_s": "s",
    "network.gradients_calls": "count",
    "network.gradients_s": "s",
    "network.columns": "count",
    "variants.objective_calls": "count",
    "variants.objective_s": "s",
    "variants.gradients_calls": "count",
    "variants.gradients_s": "s",
    "variants.corrupt_s": "s",
    "trainer.train_s": "s",
    "trainer.self_s": "s",
    "trainer.init_s": "s",
    "trainer.wolfe_calls": "count",
    "trainer.wolfe_s": "s",
    "trainer.iterations": "count",
    "trainer.line_search_evals": "count",
    "trainer.evals_per_iter": "ratio",
    "trainer.fallbacks": "count",
    "trainer.retries": "count",
    "hamming.encode_s": "s",
    "hamming.encode_points": "count",
    "hamming.groundtruth_s": "s",
    "hamming.groundtruth_queries": "count",
    "hamming.recall_curve_s": "s",
    "hamming.recall_curve_queries": "count",
    "hamming.topk_s": "s",
    "hamming.topk_calls": "count",
    "hamming.scanned_mb": "MB",
    "cli.train.self_s": "s",
    "cli.eval.self_s": "s",
    "cli.encode.self_s": "s",
    "synth.generate_s": "s",
    "trace.overhead_train": "ratio",
    "trace.overhead_eval": "ratio",
    "trace.train_self_share": "ratio",
}

_TRAIN_LAYERS = ("cli", "tangent", "network", "trainer")
_VARIANTS = ("autobin", "dautobin", "cautobin")


def layer_metrics(tree: SpanTree, cycle: int, setup: int,
                  train_s: float) -> dict[str, float]:
    """Per-layer totals over the traced cycle span; synth over the setup span.

    train_s is the traced wall time of the cycle's train commands as the
    benchmark measured it. The trace.overhead_* ratios need an untraced
    run and are left to the caller.
    """
    c = tree.subtree(cycle)
    m: dict[str, float] = {}

    for kind in ("read", "write"):
        calls = tree.named(c, f"matrix_io.{kind}_", prefix=True)
        m[f"matrix_io.{kind}_s"] = tree.total(calls)
        m[f"matrix_io.{kind}_mb"] = attr_sum(calls, "bytes") / 1e6

    est = tree.named(c, "tangent.estimate_all_tangents")
    ranks = [r for s in est for r in s[ATTRS]["ranks"]]
    proj = tree.named(c, "tangent.projector")
    m["tangent.estimate_s"] = tree.total(est)
    m["tangent.points"] = attr_sum(est, "points")
    m["tangent.rank_min"] = min(ranks, default=0)
    m["tangent.rank_mean"] = sum(ranks) / len(ranks) if ranks else 0.0
    m["tangent.rank_max"] = max(ranks, default=0)
    m["tangent.projector_s"] = tree.total(proj)
    m["tangent.projector_mb"] = attr_sum(proj, "bytes") / 1e6

    obj = tree.named(c, "network.objective")
    grad = tree.named(c, "network.gradients")
    m["network.objective_calls"] = len(obj)
    m["network.objective_s"] = tree.total(obj)
    m["network.gradients_calls"] = len(grad)
    m["network.gradients_s"] = tree.total(grad)
    m["network.columns"] = attr_sum(obj + grad, "columns")

    vobj = tree.named(c, *(f"variants.{v}_objective" for v in _VARIANTS))
    vgrad = tree.named(c, *(f"variants.{v}_gradients" for v in _VARIANTS))
    m["variants.objective_calls"] = len(vobj)
    m["variants.objective_s"] = tree.total(vobj)
    m["variants.gradients_calls"] = len(vgrad)
    m["variants.gradients_s"] = tree.total(vgrad)
    m["variants.corrupt_s"] = tree.total(tree.named(c, "variants.corrupt_mask"))

    train = tree.named(c, "trainer.train")
    wolfe = tree.named(c, "trainer.wolfe_step")
    iterations = attr_sum(train, "iterations")
    evals = attr_sum(wolfe, "evals")
    m["trainer.train_s"] = tree.total(train)
    m["trainer.self_s"] = tree.self_in(c, ("trainer",))
    m["trainer.init_s"] = tree.total(tree.named(c, "trainer.init_params"))
    m["trainer.wolfe_calls"] = len(wolfe)
    m["trainer.wolfe_s"] = tree.total(wolfe)
    m["trainer.iterations"] = iterations
    m["trainer.line_search_evals"] = evals
    m["trainer.evals_per_iter"] = evals / iterations if iterations else 0.0
    m["trainer.fallbacks"] = sum(1 for s in wolfe if (s[ATTRS] or {}).get("fallback"))
    m["trainer.retries"] = sum(1 for s in wolfe if "error" in (s[ATTRS] or {}))

    enc = tree.named(c, "hamming.encode")
    gt = tree.named(c, "hamming.build_groundtruth")
    rc = tree.named(c, "hamming.recall_curve")
    topk = tree.named(c, "hamming.hamming_topk")
    m["hamming.encode_s"] = tree.total(enc)
    m["hamming.encode_points"] = attr_sum(enc, "columns")
    m["hamming.groundtruth_s"] = tree.total(gt)
    m["hamming.groundtruth_queries"] = attr_sum(gt, "columns")
    m["hamming.recall_curve_s"] = tree.total(rc)
    m["hamming.recall_curve_queries"] = attr_sum(rc, "queries")
    m["hamming.topk_s"] = tree.total(topk)
    m["hamming.topk_calls"] = len(topk)
    # one Hamming scan reads every base code once: queries x code bytes
    m["hamming.scanned_mb"] = attr_sum(
        tree.named(c, "hamming.hamming_distances"), "bytes") / 1e6

    mains = tree.named(c, "cli.main")
    for cmd in ("train", "eval", "encode"):
        m[f"cli.{cmd}.self_s"] = sum(
            tree.self_in(tree.subtree(s[ID]), ("cli",))
            for s in mains if s[ATTRS]["command"] == cmd)

    m["synth.generate_s"] = tree.total(
        tree.named(tree.subtree(setup), "synth.", prefix=True))

    train_mains = [s for s in mains if s[ATTRS]["command"] == "train"]
    covered = sum(tree.self_in(tree.subtree(s[ID]), _TRAIN_LAYERS)
                  for s in train_mains)
    m["trace.train_self_share"] = covered / train_s
    return m
