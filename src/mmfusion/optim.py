"""AdamW with decoupled weight decay and per-group learning rates, over a
parameter arena.

At construction ``AdamW`` copies every parameter into one flat arena per
dtype, laid out group by group, and points each ``p.data`` at a reshaped
view of its slot. Flat ``m`` and ``v`` buffers of the same dtype sit beside
each arena; ``_m`` and ``_v`` map each parameter name to its view of them.

``step`` gathers an arena's gradients with one ``np.concatenate`` and runs
the update over each group's contiguous span, in slices of at most
``SLICE_ELEMS`` elements, so its temporaries stay small and only the
weights, ``m`` and ``v`` outlive a step. The arithmetic and its dtypes are
those of a per-tensor loop: ``m``, ``v`` and ``lr * update`` in the
parameter dtype, the gradient and the decayed weight in float64.

The weights are updated in place: an array read from ``p.data`` before a
step holds the new values after it. A ``p.data`` rebound to an array of the
same shape and dtype (as ``checkpoint.load_into`` does) is copied into its
slot and re-pointed at the next ``step``; any other rebinding raises
``ValueError`` naming the parameter.
"""

from __future__ import annotations

import numpy as np

SLICE_ELEMS = 8192   # elements per temporary of ``AdamW.step``


class MissingGradientError(RuntimeError):
    """A registered parameter reached the optimizer without a gradient."""


class AdamW:
    """Decoupled-weight-decay Adam.

    ``groups`` is a list of {"params": [(name, Tensor), ...], "lr": float}.
    Decay multiplies parameters by (1 - lr*wd) independently of the moment
    update, so zero-gradient steps still contract weights toward zero. A
    tensor registered twice is rejected with ``ValueError``.
    """

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8, weight_decay=5e-4):
        self.groups = [{"params": list(g["params"]), "lr": float(g["lr"])} for g in groups]
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m, self._v = {}, {}
        self._slots = []     # (name, tensor, view of its arena slot)
        self._arenas = []    # (weights, m, v, tensors in slot order, [(slice, lr)])
        dtypes = dict.fromkeys(p.data.dtype for g in self.groups for _, p in g["params"])
        for dtype in dtypes:
            spans = [([(name, p) for name, p in g["params"] if p.data.dtype == dtype], g["lr"])
                     for g in self.groups]
            size = sum(p.size for members, _ in spans for _, p in members)
            w, m, v = np.empty(size, dtype), np.zeros(size, dtype), np.zeros(size, dtype)
            tensors, chunks, lo = [], [], 0
            for members, lr in spans:
                start = lo
                for name, p in members:
                    if p.data.base is w:    # already placed under another name
                        raise ValueError(f"parameter {name} is registered twice")
                    cut = slice(lo, lo + p.size)
                    view = w[cut].reshape(p.shape)
                    view[...] = p.data
                    p.data = view
                    self._m[name], self._v[name] = m[cut].reshape(p.shape), v[cut].reshape(p.shape)
                    self._slots.append((name, p, view))
                    tensors.append(p)
                    lo += p.size
                chunks += [(slice(a, min(a + SLICE_ELEMS, lo)), lr)
                           for a in range(start, lo, SLICE_ELEMS)]
            self._arenas.append((w, m, v, tensors, chunks))

    def zero_grad(self):
        """Drop the gradient of every registered parameter."""
        for _, p, _ in self._slots:
            p.grad = None

    def step(self):
        """One update over every registered parameter; errors if any gradient
        is missing (zero gradients are fine, absent ones are a bug)."""
        missing = [name for name, p, _ in self._slots if p.grad is None]
        if missing:
            raise MissingGradientError(
                "parameters without gradient: " + ", ".join(sorted(missing)))
        for name, p, view in self._slots:
            if p.data is not view:
                if p.data.shape != view.shape or p.data.dtype != view.dtype:
                    raise ValueError(
                        f"parameter {name} was rebound to a {p.data.dtype} array of shape "
                        f"{p.data.shape}; its optimizer slot holds {view.dtype} {view.shape}")
                view[...] = p.data
                p.data = view
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for w, m_all, v_all, tensors, chunks in self._arenas:
            grads = np.concatenate([p.grad for p in tensors], axis=None)
            for s, lr in chunks:
                grad = grads[s].astype(np.float64)
                m, v = m_all[s], v_all[s]
                m *= self.beta1
                m += (1 - self.beta1) * grad
                v *= self.beta2
                v += (1 - self.beta2) * grad * grad
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                new = w[s].astype(np.float64)
                new -= lr * self.weight_decay * new
                new -= lr * update
                w[s] = new


def param_groups(named_params, rates, default_lr):
    """Split (name, tensor) pairs into AdamW groups by name prefix.

    ``rates`` maps a prefix to a learning rate; the longest matching prefix
    wins, unmatched parameters use ``default_lr``.
    """
    buckets = {}
    for name, p in named_params:
        lr = default_lr
        best = -1
        for prefix, rate in rates.items():
            if name.startswith(prefix) and len(prefix) > best:
                best = len(prefix)
                lr = rate
        buckets.setdefault(lr, []).append((name, p))
    return [{"params": ps, "lr": lr} for lr, ps in buckets.items()]
