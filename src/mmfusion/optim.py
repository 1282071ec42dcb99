"""AdamW with decoupled weight decay and per-group learning rates."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class MissingGradientError(RuntimeError):
    """A registered parameter reached the optimizer without a gradient."""


class AdamW:
    """Decoupled-weight-decay Adam.

    ``groups`` is a list of {"params": [(name, Tensor), ...], "lr": float}.
    Decay multiplies parameters by (1 - lr*wd) independently of the moment
    update, so zero-gradient steps still contract weights toward zero.
    """

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8, weight_decay=5e-4):
        self.groups = []
        for g in groups:
            params = list(g["params"])
            self.groups.append({"params": params, "lr": float(g["lr"])})
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._m = {}
        self._v = {}
        for g in self.groups:
            for name, p in g["params"]:
                self._m[name] = np.zeros_like(p.data)
                self._v[name] = np.zeros_like(p.data)

    def step(self):
        """One update over every registered parameter; errors if any gradient
        is missing (zero gradients are fine, absent ones are a bug)."""
        missing = [name for g in self.groups for name, p in g["params"] if p.grad is None]
        if missing:
            raise MissingGradientError(
                "parameters without gradient: " + ", ".join(sorted(missing)))
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for g in self.groups:
            lr = g["lr"]
            for name, p in g["params"]:
                grad = p.grad.astype(np.float64)
                m = self._m[name]
                v = self._v[name]
                m *= self.beta1
                m += (1 - self.beta1) * grad
                v *= self.beta2
                v += (1 - self.beta2) * grad * grad
                update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                new = p.data.astype(np.float64)
                new -= lr * self.weight_decay * new
                new -= lr * update
                p.data = new.astype(p.data.dtype)


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
