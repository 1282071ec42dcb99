"""The benchmark's workloads and the loop that measures them.

Each workload is one process running a closed loop: a single caller waits for
every training step or request before it issues the next one. The workload
seed fixes the synthetic dataset and the model initialisation; nothing else
reaches the program.

* ``train_wide``: interaction fusion, batch 64, 64x64 images (64 patches),
  16-30 token sentences. Matrix products dominate a step, so kernel and
  attention changes show here and graph-overhead changes should not.
* ``infer_checkpoint``: a checkpoint trained and saved during set-up is
  loaded with ``load_into`` and scores a held-out split one sample per
  request, then in batches of 32 as ``mmfusion eval`` does. This is the
  forward-only path: no backward pass and no optimizer. Its set-up trains
  the default ``RunConfig`` (hybrid fusion, batch 8, d=32), where per-node
  interpreter overhead dominates a step, so graph and optimizer changes
  also show in its ``setup_s`` and traced step spans.

There is no separate workload that trains the default ``RunConfig`` in the
measured loop: on a shared 2-vCPU host its throughput and latency figures
spread 23-28% between runs of the same code, past the largest bound a
metric may have (25%).
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

from mmfusion import train as train_mod
from mmfusion.bench import bench_attention, topology_parameter_count
from mmfusion.checkpoint import load_into, save_checkpoint
from mmfusion.data import generate
from mmfusion.model import MultimodalClassifier, RunConfig

from tracer import CALLS, DURATION, OPS, SELF, Patches, StepClock, Tracer

SETUP_REPEATS = 5       # set-ups per run, at least ...
SETUP_SECONDS = 3.0     # ... and until they have taken this long
TAIL_BLOCK = 200        # latencies per p95 block: ten lie beyond its p95
EVAL_BATCH = 32
ROW_SUM_TOL = 1e-5
UNTRACED_SHARE = 0.4     # of a traced run's time, spent measuring the baseline


class Tally:
    """Operations attempted and failed; a failed output check marks one
    operation failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def add(self, n=1):
        self.attempted += n

    def fail(self, reason, n=1):
        self.failed += n
        self.reasons[reason] += n

    def check(self, ok, reason):
        if not ok:
            self.fail(reason)


def bad_rows(probs):
    """Rows that are not finite or do not sum to one within ROW_SUM_TOL."""
    finite = np.isfinite(probs).all(axis=1)
    normalised = np.abs(probs.sum(axis=1) - 1.0) <= ROW_SUM_TOL
    return int(np.sum(~(finite & normalised)))


def same_parameters(a, b):
    pa, pb = dict(a.named_parameters()), dict(b.named_parameters())
    return pa.keys() == pb.keys() and all(
        pa[n].data.dtype == pb[n].data.dtype and np.array_equal(pa[n].data, pb[n].data)
        for n in pa)


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Workload:
    """Shared state: the tally, timings and the optional tracer."""

    # root kinds searched, in order, for a per-layer span (see Tracer.root_median)
    root_order = ()

    def __init__(self, cfg, tmpdir):
        self.cfg = cfg
        self.tmpdir = tmpdir
        self.tally = Tally()
        self.tracer = None
        self.latencies_ms = []      # batch-1 requests, in measured order
        self.samples = 0            # throughput numerator
        self.busy_s = 0.0           # throughput denominator
        self.units = []             # (first, end) latency index and throughput, per unit
        self.generate_s = []
        self.save_ms = []
        self.load_ms = []
        self.checkpoint_bytes = 0
        self.epoch_s = []
        self.final_loss = math.nan
        self.accuracy = math.nan
        self.batch_gap = math.nan

    def timed_unit(self, clock):
        """One unit, recording its slice of the latency series and its
        throughput; a unit that diverged records nothing."""
        first, samples, busy = len(self.latency_series(clock)), self.samples, self.busy_s
        self.unit()
        if self.busy_s > busy:
            self.units.append((first, len(self.latency_series(clock)),
                               (self.samples - samples) / (self.busy_s - busy)))

    def begin(self, kind):
        if self.tracer is not None:
            self.tracer.begin(kind, root_kind=kind)

    def end(self):
        if self.tracer is not None:
            self.tracer.end()

    def load_data(self):
        t0 = perf_counter()
        self.ds = generate(self.cfg.data)
        self.generate_s.append(perf_counter() - t0)
        self.vocab_size = len(self.ds.vocab)

    def train(self, model):
        """``train_model`` with per-epoch wall times from its log callback,
        kept only while untraced."""
        mark = [perf_counter()]

        def log(epoch, breakdown):
            now = perf_counter()
            if self.tracer is None:
                self.epoch_s.append(now - mark[0])
            mark[0] = now

        return train_mod.train_model(model, self.ds, log=log)

    def check_topology(self, model):
        fz, enc = self.cfg.fusion, self.cfg.text_encoder
        expect = topology_parameter_count(fz.topology, enc.d_model, enc.ffn_width)
        self.tally.check(model.interaction_path.parameter_count() == expect,
                         "interaction path parameters != closed form")

    def checkpoint_round_trip(self, model):
        """Save ``model``, load it into a fresh model and check the copy is
        bit-identical; returns the loaded model."""
        path = os.path.join(self.tmpdir, "checkpoint")
        t0 = perf_counter()
        save_checkpoint(model.named_parameters(), path)
        t1 = perf_counter()
        fresh = MultimodalClassifier(self.cfg, vocab_size=self.vocab_size)
        load_into(fresh, path)
        t2 = perf_counter()
        self.save_ms.append((t1 - t0) * 1e3)
        self.load_ms.append((t2 - t1) * 1e3)
        self.checkpoint_bytes = os.path.getsize(os.path.join(path, "weights.bin"))
        self.tally.check(same_parameters(model, fresh), "checkpoint round trip differs")
        return fresh

    def score(self, model, samples):
        """Fused probabilities and metrics report of one batch-32 pass, with
        the row checks."""
        probs, labels = train_mod.evaluate(model, samples, self.vocab_size,
                                           batch_size=EVAL_BATCH)
        self.tally.check(probs.shape == (len(samples), self.cfg.data.n_classes),
                         "probability matrix has the wrong shape")
        bad = bad_rows(probs)
        if bad:
            self.tally.fail("probability rows not finite or not summing to 1", bad)
        report = train_mod.compute_metrics(probs, labels, n_classes=self.cfg.data.n_classes)
        return probs, report

    def serve(self, model, samples):
        """Closed loop of batch-1 requests; returns the stacked probabilities."""
        rows = []
        for s in samples:
            t0 = perf_counter()
            self.begin("request")
            try:
                probs, _ = train_mod.evaluate(model, [s], self.vocab_size, batch_size=1)
            finally:
                self.end()
            self.latencies_ms.append((perf_counter() - t0) * 1e3)
            self.tally.add()
            bad = bad_rows(probs)
            if bad:
                self.tally.fail("request probabilities not finite or not summing to 1")
            rows.append(probs[0])
        return np.stack(rows)

    def evaluation_pass(self, model, samples):
        t0 = perf_counter()
        self.begin("eval")
        try:
            probs, _ = self.score(model, samples)
        finally:
            self.end()
        return probs, perf_counter() - t0

    def bench_rows(self):
        enc, spec = self.cfg.text_encoder, self.cfg.data
        rows = bench_attention(d=enc.d_model, n_heads=enc.n_heads, ffn_width=enc.ffn_width,
                               batch=self.cfg.trainer.batch_size,
                               text_len=spec.sentence_len[1],
                               image_len=(spec.image_size // spec.patch_size) ** 2,
                               seed=self.cfg.seed)
        for r in rows:
            self.tally.check(
                r["parameters"] == topology_parameter_count(r["topology"], enc.d_model,
                                                            enc.ffn_width),
                f"bench_attention {r['topology']} parameters != closed form")
        return rows


class TrainWorkload(Workload):
    """One unit is a full ``train_model`` run from a fresh model, then the
    test-split evaluation and a checkpoint round trip, as ``mmfusion train``
    does. Every unit of a run trains from the same seed, so every unit must
    reproduce the first one's loss history bit for bit."""

    root_order = ("step", "request", "eval")

    def latency_series(self, clock):
        return clock.steps_ms

    def setup(self):
        self.load_data()
        self.train_split = self.ds.split("train")
        self.test = self.ds.split("test")
        self.check_topology(MultimodalClassifier(self.cfg, vocab_size=self.vocab_size))
        self.steps_per_run = self.cfg.trainer.epochs * math.ceil(
            len(self.train_split) / self.cfg.trainer.batch_size)
        self.history = None
        self.model = None

    def unit(self):
        model = MultimodalClassifier(self.cfg, vocab_size=self.vocab_size)
        t0 = perf_counter()
        try:
            history = self.train(model)
        except train_mod.TrainingDiverged as exc:
            self.tally.add(exc.step)
            self.tally.fail("training diverged")
            return
        self.busy_s += perf_counter() - t0
        self.samples += self.cfg.trainer.epochs * len(self.train_split)
        self.tally.add(self.steps_per_run)

        losses = [(b.loss_text, b.loss_interaction, b.loss_image, b.total) for b in history]
        self.tally.check(np.isfinite(losses[-1]).all(), "final loss is not finite")
        if self.history is None:
            self.history = losses
        self.tally.check(losses == self.history, "loss history differs between runs of one seed")
        self.final_loss = losses[-1][3]
        _, report = self.score(model, self.test)
        self.accuracy = report.accuracy
        self.model = self.checkpoint_round_trip(model)

    def probe(self):
        """Traced extras: the last trained model serves the test split one
        request at a time and in one evaluation pass, which gives the batch
        gap and the request and evaluation spans."""
        single = self.serve(self.model, self.test)
        batched, _ = self.evaluation_pass(self.model, self.test)
        self.batch_gap = float(np.max(np.abs(single - batched)))


class InferWorkload(Workload):
    """Set-up trains a short run, saves the checkpoint and loads it into the
    served model. One unit scores the held-out split as batch-1 requests,
    then in evaluation passes of batch 32; every pass must reproduce the
    first one's probabilities bit for bit."""

    root_order = ("request", "eval", "step")
    EVAL_PASSES = 4

    def latency_series(self, clock):
        return self.latencies_ms

    def setup(self):
        self.load_data()
        self.heldout = self.ds.split("test")
        model = MultimodalClassifier(self.cfg, vocab_size=self.vocab_size)
        self.check_topology(model)
        history = self.train(model)
        self.final_loss = history[-1].total
        self.tally.check(math.isfinite(self.final_loss), "set-up final loss is not finite")
        self.served = self.checkpoint_round_trip(model)
        self.single = self.batched = None

    def unit(self):
        single = self.serve(self.served, self.heldout)
        if self.single is None:
            self.single = single
            labels = train_mod.labels_of(self.heldout)
            self.accuracy = train_mod.compute_metrics(
                single, labels, n_classes=self.cfg.data.n_classes).accuracy
        self.tally.check(np.array_equal(single, self.single),
                         "batch-1 probabilities differ between passes")
        for _ in range(self.EVAL_PASSES):
            batched, seconds = self.evaluation_pass(self.served, self.heldout)
            self.tally.add()
            self.busy_s += seconds
            self.samples += len(self.heldout)
            if self.batched is None:
                self.batched = batched
                self.batch_gap = float(np.max(np.abs(single - batched)))
            self.tally.check(np.array_equal(batched, self.batched),
                             "batch-32 probabilities differ between passes")

    def probe(self):
        pass


def train_wide(seed):
    cfg = RunConfig(seed=seed)
    cfg.fusion.topology = "interaction"
    cfg.trainer.batch_size = 64
    cfg.trainer.epochs = 10
    # 80 samples per class: 256 training samples, four full batches per epoch
    cfg.data = dataclasses.replace(cfg.data, seed=seed, image_size=64, sentence_len=(16, 30),
                                   samples_per_class=80, split_ratios=(0.8, 0.0, 0.2))
    return cfg


def infer_checkpoint(seed):
    cfg = RunConfig(seed=seed)
    cfg.trainer.epochs = 5
    # 240 held-out samples scored per pass; 120 training samples for set-up
    cfg.data = dataclasses.replace(cfg.data, seed=seed, samples_per_class=100,
                                   split_ratios=(0.3, 0.1, 0.6))
    return cfg


WORKLOADS = {
    "train_wide": (train_wide, TrainWorkload),
    "infer_checkpoint": (infer_checkpoint, InferWorkload),
}


def repeat_for(unit, seconds, at_least):
    """Run whole units while the next one, taking as long as the last, ends
    within ``seconds``; run at least ``at_least``."""
    deadline = perf_counter() + seconds
    done, last = 0, 0.0
    while done < at_least or perf_counter() + last <= deadline:
        t0 = perf_counter()
        unit()
        last = perf_counter() - t0
        done += 1


def run(name, seed, seconds, traced, tmpdir):
    """Set up, measure, and return (workload, clock, tracer, setup times,
    bench rows, index of the first traced entry in the latency series)."""
    make_cfg, cls = WORKLOADS[name]
    w = cls(make_cfg(seed).require_valid(), tmpdir)
    tracer = Tracer() if traced else None
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        t0 = perf_counter()
        w.setup()
        setup_s.append(perf_counter() - t0)
    if traced:
        patches = Patches()
        tracer.install(patches)    # set-up training feeds the step spans
        w.tracer = tracer
        try:
            w.setup()
        finally:
            patches.restore()
            w.tracer = None

    clock = StepClock()
    patches = Patches()
    clock.install(patches)
    try:
        if not traced:
            w.unit()    # warm-up: first-touch allocations, optimizer state
            repeat_for(lambda: w.timed_unit(clock), seconds, at_least=2)
            return w, clock, None, setup_s, None, None
        repeat_for(w.unit, seconds * UNTRACED_SHARE, at_least=1)
        cut = len(w.latency_series(clock))
        tracer.install(patches)
        w.tracer = tracer
        repeat_for(w.unit, seconds * (1 - UNTRACED_SHARE), at_least=1)
        w.probe()
    finally:
        patches.restore()
        w.tracer = None
    return w, clock, tracer, setup_s, w.bench_rows(), cut


def latency_blocks(w, clock):
    """The timed units' latencies in blocks of consecutive whole units, each
    holding at least TAIL_BLOCK latencies; a short remainder joins the last
    block."""
    lat = w.latency_series(clock)
    blocks, block = [], []
    for first, end, _ in w.units:
        block.extend(lat[first:end])
        if len(block) >= TAIL_BLOCK:
            blocks.append(block)
            block = []
    if blocks:
        blocks[-1].extend(block)
    else:
        blocks.append(block)
    return blocks


def end_to_end(w, clock, setup_s):
    """Each figure but ``peak_rss_mb`` is a median: over set-ups, over timed
    units (throughput) or over latency blocks, so a burst of contention on
    the shared host that spans a few units does not move it."""
    blocks = latency_blocks(w, clock)
    return {
        "setup_s": statistics.median(setup_s),
        "samples_per_s": statistics.median(rate for _, _, rate in w.units),
        "latency_ms_mean": statistics.median(float(np.mean(b)) for b in blocks),
        "latency_ms_p95": statistics.median(percentile(b, 95) for b in blocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(w, clock, tracer, rows, cut):
    """Per-layer metrics of a traced run (units in BENCHMARK.json).

    A ``<layer>_ms`` is the layer's self time per root, median over the
    roots of the first kind in ``root_order`` that contains the layer: a
    training step on train_wide, a batch-1 request on infer_checkpoint, whose
    optimizer, backward and loss figures come from its set-up training.
    ``model.forward_ms`` alone includes nested spans. Counts are medians of
    exact per-root counts; graph nodes are op results recorded on the graph
    (parameters excluded), grad buffers are every reachable tensor holding a
    ``.grad`` after ``backward``. ``trace.overhead_frac`` compares the traced
    and untraced medians of the workload's latency series;
    ``trace.accounted_frac`` is the share of traced step wall time held by
    named layers, the rest being loop self time and the tracer's census.
    """
    order = w.root_order

    def self_ms(name):
        v = tracer.root_median(order, name, SELF)
        return 0.0 if v is None else v * 1e3

    def count(key):
        v = tracer.count_median(order, key)
        return 0 if v is None else v

    lat = w.latency_series(clock)
    untraced, traced = lat[:cut], lat[cut:]

    steps = tracer.root_ids("step")
    table = tracer.per_root()
    step_wall = sum(tracer.roots[i][1] for i in steps)
    layer_self = sum(cell[SELF] for i in steps for n, cell in table[i].items()
                     if n not in ("train.step", "trace.census"))
    epoch_self = sum(self_s for n, _, self_s, _ in tracer.spans if n == "train.epoch")
    step_self = sum(table[i]["train.step"][SELF] for i in steps if "train.step" in table[i])
    step_ms = [tracer.roots[i][1] * 1e3 for i in steps]

    m = {
        "tensor.graph_nodes_per_step": count("graph_nodes"),
        "tensor.backward_ms": self_ms("tensor.backward"),
        "tensor.grad_buffers_per_step": count("grad_buffers"),
        "tensor.grad_bytes_per_step": count("grad_bytes"),
        "tensor.graph_nodes_per_request": count("graph_nodes_per_request"),
        "optim.step_ms": self_ms("optim.step"),
        "optim.param_tensors": count("param_tensors"),
        "optim.param_elems": count("param_elems"),
        "layers.block_ms": self_ms("layers.block"),
        "layers.block_calls_per_step": tracer.root_median(order, "layers.block", CALLS) or 0,
        "encoders.text_ms": self_ms("encoders.text"),
        "encoders.image_ms": self_ms("encoders.image"),
        "fusion.channels_ms": self_ms("fusion.channels"),
        "fusion.heads_ms": self_ms("fusion.heads"),
        "fusion.interaction_ms": self_ms("fusion.interaction"),
        "decision.branch_ms": self_ms("decision.branch"),
        "decision.loss_ms": self_ms("decision.loss"),
        "decision.vote_ms": self_ms("decision.vote"),
        "decision.batch_gap": w.batch_gap,
        "model.forward_ms": (tracer.root_median(order, "model.forward", DURATION) or 0) * 1e3,
        "model.forward_self_ms": self_ms("model.forward"),
        "data.batch_ms": self_ms("data.batch"),
        "data.generate_s": statistics.median(w.generate_s),
        "checkpoint.save_ms": statistics.median(w.save_ms),
        "checkpoint.load_ms": statistics.median(w.load_ms),
        "checkpoint.bytes": w.checkpoint_bytes,
        "metrics.compute_ms": self_ms("metrics.compute"),
        "metrics.accuracy": w.accuracy,
        "train.step_ms_p50": percentile(step_ms, 50),
        "train.step_ms_p95": percentile(step_ms, 95),
        "train.epoch_s_p50": statistics.median(w.epoch_s),
        "train.loop_self_ms": (epoch_self + step_self) / len(steps) * 1e3,
        "train.final_loss": w.final_loss,
        "trace.overhead_frac": percentile(traced, 50) / percentile(untraced, 50) - 1.0,
        "trace.accounted_frac": layer_self / step_wall,
    }
    for op in OPS + ("other",):
        m["tensor.graph_nodes." + op] = count("op." + op)
    for r in rows:
        m[f"bench.{r['topology']}_ms"] = r["median_ms"]
        m[f"bench.{r['topology']}_params"] = r["parameters"]
    # the self times under each step must tile the step's wall time
    tiled = sum(cell[SELF] for i in steps for cell in table[i].values())
    w.tally.check(abs(tiled - step_wall) <= 1e-6 * max(step_wall, 1.0),
                  "span self times do not add up to step wall time")
    return m
