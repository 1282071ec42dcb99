"""Forward-latency and parameter-count comparison of the fusion topologies.

Absolute times are machine-dependent and reported, never asserted; parameter
counts are exact and are checked against closed-form formulas in the tests.
"""

from __future__ import annotations

import time

import numpy as np

from .fusion import TOPOLOGIES, build_interaction_path
from .tensor import Tensor


def topology_parameter_count(topology, d, ffn_width):
    """Closed-form trainable parameter counts.

    A transformer block holds 4 d^2 + 3d attention weights (key projection is
    bias-free), 4d of layer-norm affines, and 2*d*ffn + ffn + d feed-forward
    weights. The one bidirectional cross-attention, shared by the hybrid and
    interaction topologies, holds six bias-free d x d projections. Merged is
    a block; interaction is the cross-attention plus a block; hybrid is the
    image self-attention pool (a block plus a norm), the text conv stack
    (windows 1..3, mixer, norm) and the cross-attention.
    """
    block = 4 * d * d + 3 * d + 4 * d + 2 * d * ffn_width + ffn_width + d
    cross = 6 * d * d
    if topology == "merged":
        return block
    if topology == "interaction":
        return cross + block
    if topology == "hybrid":
        self_pool = block + 2 * d
        text_conv = 6 * d * d + 3 * d + (3 * d * d + d) + 2 * d
        return self_pool + text_conv + cross
    raise ValueError(f"unknown topology {topology!r}")


def bench_attention(d=32, n_heads=2, ffn_width=64, batch=8, text_len=8,
                    image_len=16, repeats=20, warmup=3, seed=0):
    """Median/p95 forward latency per topology after warmup passes.

    Raises if the timer cannot resolve any run (all medians zero), which
    means the workload is too small to measure.
    """
    if repeats < 10:
        raise ValueError(f"bench_attention: repeats must be >= 10, got {repeats}")
    rng = np.random.default_rng(seed)
    text_ctx = Tensor(rng.standard_normal((batch, text_len, d)).astype(np.float32))
    image_ctx = Tensor(rng.standard_normal((batch, image_len, d)).astype(np.float32))
    text_mask = np.ones((batch, text_len), dtype=bool)

    rows = []
    for topology in TOPOLOGIES:
        path = build_interaction_path(topology, d, n_heads, ffn_width,
                                      np.random.default_rng(seed))
        for _ in range(warmup):
            path(text_ctx, text_mask, image_ctx)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            path(text_ctx, text_mask, image_ctx)
            times.append((time.perf_counter() - t0) * 1e3)
        times = np.sort(times)
        rows.append({
            "topology": topology,
            "parameters": path.parameter_count(),
            "median_ms": float(np.median(times)),
            "p95_ms": float(np.percentile(times, 95)),
        })
    if all(r["median_ms"] == 0.0 for r in rows):
        raise RuntimeError("bench_attention: timer resolved no run; increase batch size")
    return rows


# Published full-scale reference points for this comparison (pretrained
# encoders, full datasets). Recorded for context only: neither the parameter
# counts nor the latencies are reproducible at this package's toy scale.
FULL_SCALE_REFERENCE = {
    "parameters_M": {"merged": 14.67, "interaction": 19.89, "hybrid": 22.34},
    "latency_ms": {"merged": 19.36, "interaction": 14.38, "hybrid": 11.25},
    "accuracy_pct": {"merged": 89.67, "interaction": 90.31, "hybrid": 93.14},
    "note": "full-scale reference values, not targets for this implementation",
}
