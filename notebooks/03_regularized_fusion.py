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
from mmfusion.fusion import (CrossModalAttention, HybridAttentionFusion,
                             InteractionEncoderFusion, MergedAttentionFusion,
                             dropout_channel, elastic_net_channel)
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

# 3. Cross attention, pooled mode: softmax over a single key is forced to 1,
#    so each direction reduces exactly to a value projection. Modules are
#    built float32; ``astype`` casts this one to match the float64 inputs.
attn = CrossModalAttention(8, 2, np.random.default_rng(2),
                           mode="pooled").astype(np.float64)
t_pool = rng.standard_normal((2, 8))
i_pool = rng.standard_normal((2, 8))
fused = attn(Tensor(t_pool), None, None, Tensor(i_pool), None)
direct = i_pool @ attn.v_image.weight.data + t_pool @ attn.v_text.weight.data
print("pooled-mode output equals value projections exactly:",
      np.array_equal(fused.data, direct))

# 4. Sequence mode attends over the other modality's pre-pooled features.
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
