"""
Dual encoders: weight-shared text transformer and a small ViT
=============================================================

The text encoder uses factorized embeddings and cross-layer weight sharing;
the image encoder flattens patches, prepends a CLS token, and reads the
global embedding off the CLS output.
"""

import numpy as np

from mmfusion.encoders import (EncoderConfig, ImageEncoder, TextBatch,
                               TextEncoder, patchify)
from mmfusion.tensor import Tensor

rng = np.random.default_rng(0)

# 1. Patchify is a pure rearrangement of a [B, H, W, C] batch: patch k is the
#    k-th tile of the grid, row-major, flattened as (row, col, channel).
img = rng.random((8, 8, 1))
patches = patchify(Tensor(img[None]), 4)
print("patch batch:", patches.shape, "| patch 1 is the top-right tile:",
      np.array_equal(patches.data[0, 1], img[0:4, 4:8, :].reshape(-1)))

# 2. Cross-layer sharing keeps the stack's parameter count flat in depth.
cfg2 = EncoderConfig(d_model=32, n_heads=2, n_layers=2, ffn_width=64,
                     embedding_dim=16, share_layers=True, max_len=16)
cfg6 = EncoderConfig(d_model=32, n_heads=2, n_layers=6, ffn_width=64,
                     embedding_dim=16, share_layers=True, max_len=16)
n2 = TextEncoder(cfg2, vocab_size=20, rng=np.random.default_rng(1)).parameter_count()
n6 = TextEncoder(cfg6, vocab_size=20, rng=np.random.default_rng(1)).parameter_count()
print(f"2-layer shared encoder: {n2} params; 6-layer shared encoder: {n6} params")

# 3. The text global embedding ignores padding entirely.
enc = TextEncoder(cfg2, vocab_size=20, rng=np.random.default_rng(2))
ids_short = np.array([[2, 3, 4]])
ids_padded = np.array([[2, 3, 4, 0, 0, 0]])
pooled_short = enc(TextBatch(ids_short, ids_short != 0, 20)).pooled.data
pooled_padded = enc(TextBatch(ids_padded, ids_padded != 0, 20)).pooled.data
print("pad-extension drift:", np.abs(pooled_short - pooled_padded).max())

# 4. The image encoder returns N+1 context rows (patches plus CLS).
ienc = ImageEncoder(cfg2, image_size=8, patch_size=4, channels=1,
                    rng=np.random.default_rng(3))
out = ienc(rng.random((2, 8, 8, 1)))
print("image context:", out.context.shape, "| global (CLS):", out.pooled.shape)
