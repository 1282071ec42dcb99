"""Toy-scale text and image encoders.

The text side follows the two defining ALBERT mechanisms, factorized
embeddings and cross-layer weight sharing; the image side is a small ViT:
flattened patches, a learned CLS token, positional embeddings, transformer
blocks. Both are deterministic given fixed weights (no internal dropout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .fields import bounded, field_problems
from .layers import Linear, TransformerBlock, trunc_normal
from .tensor import Module, Tensor, masked_mean

PAD_ID = 0
UNK_ID = 1


@dataclass
class EncoderConfig:
    d_model: int = bounded(64, lo=1, hi=4096)
    n_heads: int = bounded(2, lo=1, hi=256)
    n_layers: int = bounded(2, lo=1, hi=256)
    ffn_width: int = bounded(128, lo=1, hi=16384)
    embedding_dim: int = bounded(32, lo=1, hi=4096)
    share_layers: bool = True
    max_len: int = bounded(64, lo=1, hi=4096)

    def validate(self):
        problems = field_problems(self)
        if not problems and self.d_model % self.n_heads:
            problems.append(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        return problems


@dataclass
class EncoderOutput:
    """Per-modality contextual sequence plus its global embedding."""
    context: Tensor   # [B, L, d]
    pooled: Tensor    # [B, d]


@dataclass
class TextBatch:
    token_ids: np.ndarray   # [B, D] ints
    pad_mask: np.ndarray    # [B, D] bool, True on real tokens
    vocab_size: int

    def __post_init__(self):
        if self.token_ids.shape != self.pad_mask.shape:
            raise T.ShapeError("TextBatch: token_ids and pad_mask shapes differ")
        if self.token_ids.size and self.token_ids.max() >= self.vocab_size:
            raise T.ShapeError("TextBatch: token id out of vocabulary range")


@dataclass
class ImageBatch:
    pixels: np.ndarray      # [B, H, W, C] floats in [0, 1]


def patchify(x: Tensor, patch: int) -> Tensor:
    """Split [B,H,W,C] into [B, N, patch*patch*C] flattened non-overlapping
    patches.

    Patches are ordered row-major over the patch grid; within a patch the
    layout is (row, col, channel).
    """
    if x.data.ndim != 4:
        raise T.ShapeError(f"patchify: expects [B, H, W, C], got {x.shape}")
    B, H, W, C = x.shape
    if H % patch or W % patch:
        raise T.ShapeError(f"patchify: patch size {patch} does not divide {H}x{W}")
    hp, wp = H // patch, W // patch
    x = T.reshape(x, (B, hp, patch, wp, patch, C))
    x = T.transpose(x, (0, 1, 3, 2, 4, 5))
    return T.reshape(x, (B, hp * wp, patch * patch * C))


ENCODER_INIT_STD = 0.02


class _BlockStack(Module):
    """n_layers transformer applications; one parameter set when shared."""

    def __init__(self, cfg: EncoderConfig, rng):
        super().__init__()
        self.n_layers = cfg.n_layers
        self.share_layers = cfg.share_layers
        if cfg.share_layers:
            self.block = TransformerBlock(cfg.d_model, cfg.n_heads, cfg.ffn_width,
                                          rng, std=ENCODER_INIT_STD)
        else:
            self.blocks = [TransformerBlock(cfg.d_model, cfg.n_heads, cfg.ffn_width, rng,
                                            std=ENCODER_INIT_STD)
                           for _ in range(cfg.n_layers)]

    def __call__(self, x, key_mask=None):
        for i in range(self.n_layers):
            x = (self.block if self.share_layers else self.blocks[i])(x, key_mask)
        return x


class TextEncoder(Module):
    """Factorized embeddings (word + position + segment) projected to model
    width, then a (possibly weight-shared) transformer stack. The global
    embedding is the mean over non-pad positions."""

    def __init__(self, cfg: EncoderConfig, vocab_size: int, rng):
        super().__init__()
        self.cfg = cfg
        E = cfg.embedding_dim
        self.word_emb = Tensor(trunc_normal(rng, (vocab_size, E)), requires_grad=True)
        self.pos_emb = Tensor(trunc_normal(rng, (cfg.max_len, E)), requires_grad=True)
        self.seg_emb = Tensor(np.zeros(E, dtype=np.float32), requires_grad=True)
        self.input_proj = Linear(E, cfg.d_model, rng, std=ENCODER_INIT_STD)
        self.stack = _BlockStack(cfg, rng)

    def __call__(self, batch: TextBatch) -> EncoderOutput:
        ids = batch.token_ids
        B, D = ids.shape
        if D > self.cfg.max_len:
            raise T.ShapeError(
                f"encode_text: sequence length {D} exceeds max_len {self.cfg.max_len}")
        emb = T.embedding(self.word_emb, ids)                    # [B, D, E]
        pos = T.narrow(self.pos_emb, 0, 0, D)                    # [D, E]
        emb = T.add(T.add(emb, pos), self.seg_emb)
        hidden = self.input_proj(emb)                            # [B, D, d]
        context = self.stack(hidden, key_mask=batch.pad_mask)
        pooled = masked_mean(context, batch.pad_mask)
        return EncoderOutput(context=context, pooled=pooled)


class ImageEncoder(Module):
    """Patch projection, learned CLS token, positional embedding, transformer
    stack. The global embedding is the CLS output position."""

    def __init__(self, cfg: EncoderConfig, image_size: int, patch_size: int,
                 channels: int, rng):
        super().__init__()
        if image_size % patch_size:
            raise T.ShapeError(
                f"ImageEncoder: patch size {patch_size} does not divide {image_size}")
        self.cfg = cfg
        self.patch_size = patch_size
        n_patches = (image_size // patch_size) ** 2
        d = cfg.d_model
        self.patch_proj = Linear(patch_size * patch_size * channels, d, rng,
                                 std=ENCODER_INIT_STD)
        self.cls_token = Tensor(trunc_normal(rng, (d,)), requires_grad=True)
        self.pos_emb = Tensor(trunc_normal(rng, (n_patches + 1, d)), requires_grad=True)
        self.stack = _BlockStack(cfg, rng)

    def __call__(self, batch: ImageBatch) -> EncoderOutput:
        pixels = batch.pixels
        if not ((pixels >= 0.0) & (pixels <= 1.0)).all():  # NaN fails both
            raise ValueError("encode_image: pixel values outside [0, 1] or not finite")
        B = pixels.shape[0]
        d = self.cfg.d_model
        dtype = self.cls_token.data.dtype
        patches = patchify(Tensor(pixels.astype(dtype, copy=False)), self.patch_size)
        tokens = self.patch_proj(patches)                        # [B, N, d]
        cls = T.add(Tensor(np.zeros((B, 1, d), dtype=dtype)), self.cls_token)
        seq = T.concat([cls, tokens], axis=1)                    # [B, N+1, d]
        seq = T.add(seq, self.pos_emb)
        context = self.stack(seq)
        pooled = T.reshape(T.narrow(context, 1, 0, 1), (B, d))
        return EncoderOutput(context=context, pooled=pooled)
