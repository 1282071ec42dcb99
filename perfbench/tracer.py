"""Step clock and span tracer, installed on mmfusion from outside the package.

Nothing under ``src/`` is edited. Each wrapper replaces the attribute its
caller looks up at call time: a class method (``AdamW.step``,
``TextEncoder.__call__``) or a module global that another module bound by
name at import (``mmfusion.train.backward``, ``mmfusion.model.dropout_channel``).

A span's self time is its duration minus the durations of the spans nested
directly inside it, so the self times of all spans under one root (a training
step, a request, an evaluation pass) add up to the root's wall time.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

import mmfusion.decision
import mmfusion.encoders
import mmfusion.fusion
import mmfusion.layers
import mmfusion.model
import mmfusion.optim
import mmfusion.train

# Op names read from ``node._backward.__qualname__``; anything else is "other".
OPS = ("add", "mul", "scale", "matmul", "bmm", "relu", "log", "clip_min",
       "softmax", "layer_norm", "conv1d", "mean_pool", "max_pool", "tsum",
       "concat", "reshape", "transpose", "narrow", "embedding", "pick",
       "elastic_net_channel")

# fields of a per-root table cell, see Tracer.per_root
SELF, DURATION, CALLS = 0, 1, 2

INTERACTION_PATHS = (mmfusion.fusion.HybridAttentionFusion,
                     mmfusion.fusion.MergedAttentionFusion,
                     mmfusion.fusion.InteractionEncoderFusion,
                     mmfusion.fusion.ConcatLinearFusion)


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, name, make_wrapper):
        original = getattr(owner, name)
        setattr(owner, name, make_wrapper(original))
        self._undo.append((owner, name, original))

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class StepClock:
    """Wall time of each optimizer step, from the batch fetch that starts it
    to the AdamW update that ends it. Two clock reads per step keep it cheap
    enough for the untraced runs."""

    def __init__(self):
        self.steps_ms = []
        self._start = 0.0

    def install(self, patches):
        def on_batch(fn):
            def batches_for(*args, **kwargs):
                self._start = perf_counter()
                return fn(*args, **kwargs)
            return batches_for

        def on_step(fn):
            def step(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.steps_ms.append((perf_counter() - self._start) * 1e3)
                return out
            return step

        patches.replace(mmfusion.model.MultimodalClassifier, "batches_for", on_batch)
        patches.replace(mmfusion.optim.AdamW, "step", on_step)


def reachable(roots):
    """Every tensor that ``backward`` would visit from ``roots``."""
    seen = {}
    stack = list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(p for p in t._parents if p.requires_grad)
    return list(seen.values())


def op_census(interior):
    """Interior-node counts keyed by op name, read from the qualified name
    of each node's backward closure; unknown ops count as "other"."""
    by_qualname = Counter(n._backward.__qualname__ for n in interior)
    census = Counter()
    for qualname, n in by_qualname.items():
        name = qualname.split(".")[0]
        census[name if name in OPS else "other"] += n
    return census


class Tracer:
    """In-memory spans with per-root counters.

    ``spans`` holds (name, root id, self seconds, duration seconds); ``roots``
    holds [kind, duration seconds] per root; ``counts`` maps a root id to a
    Counter of exact per-root counts (graph nodes, grad buffers, ...).
    """

    def __init__(self):
        self.spans = []
        self.roots = []
        self.counts = defaultdict(Counter)
        self._table = None
        self._stack = []   # frames: [name, root id, opens root, child seconds, start]

    # -- spans -------------------------------------------------------------

    def begin(self, name, root_kind=None):
        if root_kind is not None:
            root = len(self.roots)
            self.roots.append([root_kind, 0.0])
        else:
            root = self._current_root()
        self._stack.append([name, root, root_kind is not None, 0.0, perf_counter()])

    def end(self):
        now = perf_counter()
        name, root, opens_root, child, start = self._stack.pop()
        dur = now - start
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((name, root, dur - child, dur))
        if opens_root:
            self.roots[root][1] = dur

    def top(self):
        return self._stack[-1][0] if self._stack else None

    def _current_root(self):
        return self._stack[-1][1] if self._stack else None

    def root_kind(self):
        root = self._current_root()
        return None if root is None else self.roots[root][0]

    def count(self, key, n):
        self.counts[self._current_root()][key] += n

    def span(self, name):
        """Wrapper factory recording one span per call."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end()
            return wrapper
        return make

    # -- installation ------------------------------------------------------

    def install(self, patches):
        span = self.span
        model_cls = mmfusion.model.MultimodalClassifier
        patches.replace(mmfusion.train, "train_epoch", self._epoch)
        patches.replace(model_cls, "batches_for", self._batches_for)
        patches.replace(mmfusion.train, "labels_of", span("data.batch"))
        patches.replace(model_cls, "forward_batch", self._forward)
        patches.replace(mmfusion.encoders.TextEncoder, "__call__", span("encoders.text"))
        patches.replace(mmfusion.encoders.ImageEncoder, "__call__", span("encoders.image"))
        patches.replace(mmfusion.layers.TransformerBlock, "__call__", span("layers.block"))
        patches.replace(mmfusion.model, "dropout_channel", span("fusion.channels"))
        patches.replace(mmfusion.model, "elastic_net_channel", span("fusion.channels"))
        patches.replace(mmfusion.fusion.UnimodalFusionHead, "__call__", span("fusion.heads"))
        for cls in INTERACTION_PATHS:
            patches.replace(cls, "__call__", span("fusion.interaction"))
        patches.replace(mmfusion.decision.BranchClassifier, "__call__", span("decision.branch"))
        patches.replace(mmfusion.model, "cross_entropy", span("decision.loss"))
        patches.replace(mmfusion.model, "combined_loss", span("decision.loss"))
        patches.replace(mmfusion.decision.VotingHead, "__call__", span("decision.vote"))
        patches.replace(mmfusion.train, "backward", self._backward)
        patches.replace(mmfusion.optim.AdamW, "step", self._optim_step)
        patches.replace(mmfusion.train, "compute_metrics", span("metrics.compute"))

    def _epoch(self, fn):
        def train_epoch(*args, **kwargs):
            depth = len(self._stack)
            self.begin("train.epoch")
            try:
                return fn(*args, **kwargs)
            finally:
                # a step that raised leaves its root open
                while len(self._stack) > depth:
                    self.end()
        return train_epoch

    def _batches_for(self, fn):
        inner = self.span("data.batch")(fn)

        def batches_for(*args, **kwargs):
            if self.top() == "train.epoch":
                self.begin("train.step", root_kind="step")
            return inner(*args, **kwargs)
        return batches_for

    def _forward(self, fn):
        inner = self.span("model.forward")(fn)

        def forward_batch(*args, **kwargs):
            preds = inner(*args, **kwargs)
            if self.root_kind() == "request":
                self.begin("trace.census")
                nodes = reachable(p.probs for p in preds.values())
                self.count("graph_nodes_per_request",
                           sum(n._backward is not None for n in nodes))
                self.end()
            return preds
        return forward_batch

    def _backward(self, fn):
        def backward(loss, *args, **kwargs):
            self.begin("trace.census")
            nodes = reachable([loss])
            interior = [n for n in nodes if n._backward is not None]
            self.count("graph_nodes", len(interior))
            for op, n in op_census(interior).items():
                self.count("op." + op, n)
            self.end()
            self.begin("tensor.backward")
            try:
                return fn(loss, *args, **kwargs)
            finally:
                self.end()
                self.begin("trace.census")
                grads = [n.grad for n in nodes if n.grad is not None]
                self.count("grad_buffers", len(grads))
                self.count("grad_bytes", sum(g.nbytes for g in grads))
                self.end()
        return backward

    def _optim_step(self, fn):
        inner = self.span("optim.step")(fn)

        def step(optimizer, *args, **kwargs):
            try:
                return inner(optimizer, *args, **kwargs)
            finally:
                params = [p for g in optimizer.groups for _, p in g["params"]]
                self.count("param_tensors", len(params))
                self.count("param_elems", sum(p.size for p in params))
                if self.top() == "train.step":
                    self.end()
        return step

    # -- aggregation -------------------------------------------------------

    def root_ids(self, kind):
        return [i for i, (k, _) in enumerate(self.roots) if k == kind]

    def per_root(self):
        """{root id: {span name: [self s, duration s, calls]}}, built once
        tracing has ended."""
        if self._table is None:
            self._table = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
            for name, root, self_s, dur in self.spans:
                cell = self._table[root][name]
                cell[SELF] += self_s
                cell[DURATION] += dur
                cell[CALLS] += 1
        return self._table

    def root_median(self, kinds, name, field):
        """Median over roots of the first kind in ``kinds`` under which span
        ``name`` occurs (0 where a root lacks it); None if it never occurs."""
        table = self.per_root()
        for kind in kinds:
            ids = self.root_ids(kind)
            if any(name in table[i] for i in ids):
                return statistics.median(
                    table[i][name][field] if name in table[i] else 0 for i in ids)
        return None

    def count_median(self, kinds, key):
        for kind in kinds:
            ids = self.root_ids(kind)
            if any(key in self.counts[i] for i in ids):
                return statistics.median(self.counts[i][key] for i in ids)
        return None
