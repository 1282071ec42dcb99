"""
Regularization channels and the attention fusion paths
======================================================

Each modality's global embedding passes through an inverted-dropout channel
and an elastic-net proximal channel. Context sequences meet in one of three
interaction topologies; the hybrid path (self-attention per modality, then
bidirectional cross-attention) is the default.
"""

import numpy as np

from mmfusion.bench import topology_parameter_count
from mmfusion import tensor as T
from mmfusion.fusion import (HybridAttentionFusion, InteractionEncoderFusion,
                             MergedAttentionFusion, dropout_channel,
                             elastic_net_channel)
from mmfusion.tensor import Tensor

rng = np.random.default_rng(0)
x = Tensor(np.array([2.0, -1.5, 0.75, 3.25]))

# 1. Inverted dropout: inference is the identity; training draws keep-masks
#    scaled by 1/p so the expectation matches the input.
print("inference output is the same object:",
      dropout_channel(x, 0.5, mode="inference") is x)
draws = Tensor(np.tile(x.data, (200_000, 1)))
mc = dropout_channel(draws, 0.5, mode="training",
                     rng=np.random.default_rng(1)).data.mean(axis=0)
print("Monte-Carlo mean vs input:", np.round(mc, 3), "vs", x.data)

# 2. The elastic-net channel soft-thresholds at alpha/2 and shrinks by
#    1/(1+beta): small coordinates go exactly to zero.
v = Tensor(np.array([2.0, 0.3, -1.0, 0.05]))
print("elastic net (alpha=1, beta=0.5):",
      elastic_net_channel(v, 1.0, 0.5).data)

# 3. Why the hybrid path attends over whole sequences: softmax over a single
#    key is forced to 1, so attention over a length-1 key/value sequence
#    reduces exactly to the value projection, and the query and key
#    projections get exactly zero gradient.
queries = Tensor(rng.standard_normal((2, 3, 8)))
single_key = Tensor(rng.standard_normal((2, 1, 8)))
wq, wk, wv = (Tensor(rng.standard_normal((8, 8)), requires_grad=True) for _ in range(3))
read = T.attention(queries, single_key, 2, wq, wk, wv)
value = single_key.data[:, 0] @ wv.data         # [2, 8]: one value row per sample
print("single-key attention equals the value projection exactly:",
      np.array_equal(read.data, np.repeat(value[:, None], 3, axis=1)))
T.backward(T.tsum(read))
print("query and key projection gradients are all zero:",
      not wq.grad.any() and not wk.grad.any(), "| value projection's is not:",
      bool(wv.grad.any()))

# 4. The hybrid path: each modality's pooled vector queries the other
#    modality's pre-pooled sequence.
hybrid = HybridAttentionFusion(8, 2, 16, np.random.default_rng(3))
text_ctx = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
image_ctx = Tensor(rng.standard_normal((2, 4, 8)).astype(np.float32))
mask = np.ones((2, 5), dtype=bool)
print("hybrid interaction feature:", hybrid(text_ctx, mask, image_ctx).shape)

# 5. The three topologies differ in parameter count; closed forms below are
#    asserted exactly in the test suite.
for topology, cls in (("merged", MergedAttentionFusion),
                      ("interaction", InteractionEncoderFusion),
                      ("hybrid", HybridAttentionFusion)):
    built = cls(8, 2, 16, np.random.default_rng(4))
    print(f"{topology:12s} {built.parameter_count():6d} params "
          f"(formula: {topology_parameter_count(topology, 8, 16)})")
