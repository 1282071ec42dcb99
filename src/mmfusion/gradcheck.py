"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from .tensor import GraphError, Tensor, backward


def finite_diff_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of ``f`` at ``x`` and
    central finite differences.

    ``f`` maps a Tensor to a scalar Tensor and must be deterministic. ``x``
    should be float64; error is |analytic - numeric| / (|a| + |n| + 1e-12),
    maximized over coordinates.
    """
    if x.data.dtype != np.float64:
        raise TypeError("finite_diff_check: x must be float64")
    x.grad = None
    out = f(x)
    if out.data.size != 1:
        raise GraphError(f"finite_diff_check: f must be scalar, got shape {out.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = None

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * h)

    rel = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-12)
    return float(rel.max())

