"""Training loop: shuffled minibatches, composite loss, AdamW updates."""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .data import labels_of
from .decision import LossBreakdown
from .metrics import compute_metrics
from .optim import AdamW, param_groups
from .tensor import NonFiniteError, backward, no_grad


class TrainingDiverged(RuntimeError):
    def __init__(self, step, value):
        self.step = step
        super().__init__(f"non-finite loss {value!r} at optimization step {step}")


# glibc mallopt parameters and the values train_model sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20   # glibc's maximum on 64-bit hosts
_TRIM_THRESHOLD_BYTES = 128 << 20


@functools.cache
def _keep_freed_heap_pages():
    """Ask glibc, once per process, to serve step-sized arrays from the heap
    and keep freed heap pages instead of returning them to the OS. Returns
    whether both settings took; does nothing where libc has no ``mallopt``."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):   # no loadable C library (TypeError: Windows)
        return False
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1
    return mmap_set and trim_set


def build_optimizer(model):
    tc = model.cfg.trainer
    groups = param_groups(
        model.named_parameters(),
        {"text_encoder.": tc.lr_text, "image_encoder.": tc.lr_image},
        tc.lr_other)
    return AdamW(groups, weight_decay=tc.weight_decay)


def train_epoch(model, samples, optimizer, vocab_size, shuffle_rng, dropout_rng):
    """One pass over shuffled data; returns the mean LossBreakdown."""
    order = shuffle_rng.permutation(len(samples))
    batch_size = model.cfg.trainer.batch_size
    sums = np.zeros(4)
    n_batches = 0
    for start in range(0, len(samples), batch_size):
        batch = [samples[i] for i in order[start:start + batch_size]]
        text_b, image_b = model.batches_for(batch, vocab_size)
        try:
            preds = model.forward_batch(text_b, image_b, training=True, rng=dropout_rng)
            total, breakdown = model.loss(preds, labels_of(batch))
        except NonFiniteError as exc:
            raise TrainingDiverged(optimizer.step_count + 1, str(exc)) from exc
        if not np.isfinite(breakdown.total):
            raise TrainingDiverged(optimizer.step_count + 1, breakdown.total)
        optimizer.zero_grad()
        backward(total)
        optimizer.step()
        sums += (breakdown.loss_text, breakdown.loss_interaction,
                 breakdown.loss_image, breakdown.total)
        n_batches += 1
    optimizer.zero_grad()
    mean = sums / max(n_batches, 1)
    return LossBreakdown(*mean)


def train_model(model, dataset, log=None):
    """Full training run over the train split; returns per-epoch breakdowns.

    ``backward`` frees each step's graph as it walks it, so every step hands
    its arrays back to the allocator. glibc would return that freed heap top
    to the OS and fault it back in on the next step, so the first call in a
    process raises glibc's mmap and trim thresholds through ``mallopt``
    (``_keep_freed_heap_pages``). Elsewhere it changes nothing.
    """
    _keep_freed_heap_pages()
    cfg = model.cfg
    samples = dataset.split("train")
    optimizer = build_optimizer(model)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    dropout_rng = np.random.default_rng([cfg.seed, 2])
    history = []
    for epoch in range(cfg.trainer.epochs):
        breakdown = train_epoch(model, samples, optimizer,
                                len(dataset.vocab), shuffle_rng, dropout_rng)
        history.append(breakdown)
        if log:
            log(epoch, breakdown)
    return history


def evaluate(model, samples, vocab_size, batch_size=32):
    """Fused probabilities over an evaluation split (inference mode: the
    forward pass runs under ``no_grad`` and builds no graph)."""
    probs = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        text_b, image_b = model.batches_for(chunk, vocab_size)
        with no_grad():
            preds = model.forward_batch(text_b, image_b, training=False)
        fused, _ = model.predict_probs(preds)
        probs.append(fused)
    return np.concatenate(probs, axis=0), labels_of(samples)


def evaluate_metrics(model, samples, vocab_size, n_classes):
    fused, labels = evaluate(model, samples, vocab_size)
    return compute_metrics(fused, labels, n_classes=n_classes)
