"""Regularized feature channels and the attention fusion paths.

Each modality's global embedding runs through two parallel channels, an
inverted-dropout channel and an elastic-net proximal channel (the engine's
``tensor.elastic_net_channel`` node), whose outputs are concatenated and
mixed by a linear+ReLU head (O_T, O_I). The context sequences feed the
hybrid attention path producing the interaction feature O_H: per-modality
intra-modal modeling first (a transformer block for image regions,
multi-window 1-D convolutions for text), then bidirectional
cross-attention in which the pooled vector of one modality queries the whole
pre-pooled sequence of the other (over a single key, softmax is forced to one).

Two alternative fusion topologies are provided for benchmarking: merged
attention (concatenate sequences, then self-attention) and an interaction
encoder (cross-attention first, then self-attention). The hybrid and
interaction topologies share one bidirectional cross-attention module,
``CrossModalAttention``; the merged and interaction topologies share one
merged self-attention tail. ``topology_parameter_count`` is each topology's
closed-form parameter count.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .layers import LayerNorm, Linear, TransformerBlock, trunc_normal
# re-exported: the acceptance gate, mmfusion/__init__ and notebook 03 import it from here
from .tensor import Module, Tensor, elastic_net_channel, masked_mean  # noqa: F401


def dropout_channel(x: Tensor, p: float, mode: str = "training",
                    rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: keep with probability ``p`` and rescale by 1/p during
    training; the inference path is the exact identity."""
    if not 0 < p <= 1:
        raise ValueError(f"dropout_channel: keep probability must be in (0, 1], got {p}")
    if mode == "inference":
        return x
    if mode != "training":
        raise ValueError(f"dropout_channel: unknown mode {mode!r}")
    if rng is None:
        raise ValueError("dropout_channel: training mode needs an rng")
    mask = (rng.random(x.shape) < p).astype(x.data.dtype)     # Bernoulli keep mask
    return T.mul(x, Tensor(mask / p))


class UnimodalFusionHead(Module):
    """concat(channel1, channel2) -> linear -> ReLU, one head per modality."""

    def __init__(self, d_in, d_out, rng):
        super().__init__()
        self.proj = Linear(2 * d_in, d_out, rng)

    def __call__(self, ch1: Tensor, ch2: Tensor) -> Tensor:
        if ch1.shape != ch2.shape:
            raise T.ShapeError(
                f"fuse_unimodal: channel widths differ, {ch1.shape} vs {ch2.shape}")
        return T.relu(self.proj(T.concat([ch1, ch2], axis=-1)))


class SelfAttentionPool(Module):
    """Transformer block over region features, mean over positions, LayerNorm;
    returns (pooled [B, d], updated sequence [B, N, d])."""

    def __init__(self, d, n_heads, ffn_width, rng):
        super().__init__()
        self.block = TransformerBlock(d, n_heads, ffn_width, rng)
        self.norm = LayerNorm(d)

    def __call__(self, seq: Tensor):
        if seq.shape[1] < 1:
            raise T.ShapeError("image_self_attention_pool: empty region sequence")
        updated = self.block(seq)
        return self.norm(T.mean_pool(updated, axis=1)), updated


def _window_key_mask(pad_mask: np.ndarray, window: int) -> np.ndarray:
    """True where a conv window of the given length covers only real tokens.

    Rows with no fully-real window fall back to all-valid so downstream max
    and attention stay well-defined.
    """
    B, D = pad_mask.shape
    steps = D - window + 1
    valid = np.ones((B, steps), dtype=bool)
    for j in range(window):
        valid &= pad_mask[:, j:j + steps]
    hollow = ~valid.any(axis=1)
    valid[hollow] = True
    return valid


class TextConvPool(Module):
    """Phrase modeling with window-1/2/3 convolutions.

    Each window's features are max-pooled over positions, the three pooled
    vectors are concatenated, mixed by a linear map and LayerNorm'd into the
    text global feature. Also exposes the concatenated pre-pooled phrase
    sequence, which the cross-attention stage uses as keys/values.
    """

    WINDOWS = (1, 2, 3)

    def __init__(self, d, rng):
        super().__init__()
        # fan-scaled init: these layers are trained from scratch
        self.conv_w1 = Tensor(trunc_normal(rng, (1 * d, d), std=1.0 / np.sqrt(d)),
                              requires_grad=True)
        self.conv_b1 = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
        self.conv_w2 = Tensor(trunc_normal(rng, (2 * d, d), std=1.0 / np.sqrt(2 * d)),
                              requires_grad=True)
        self.conv_b2 = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
        self.conv_w3 = Tensor(trunc_normal(rng, (3 * d, d), std=1.0 / np.sqrt(3 * d)),
                              requires_grad=True)
        self.conv_b3 = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
        self.mix = Linear(3 * d, d, rng)
        self.norm = LayerNorm(d)

    def __call__(self, seq: Tensor, pad_mask: np.ndarray):
        weights = ((self.conv_w1, self.conv_b1), (self.conv_w2, self.conv_b2),
                   (self.conv_w3, self.conv_b3))
        pooled = []
        phrase_chunks = []
        phrase_masks = []
        for window, (w, b) in zip(self.WINDOWS, weights):
            feats = T.conv1d(seq, w, b, window)          # [B, D-window+1, d]
            valid = _window_key_mask(pad_mask, window)
            gate = np.where(valid[:, :, None], 0.0, -1e9)
            masked = T.add(feats, Tensor(np.broadcast_to(
                gate, feats.shape).astype(feats.data.dtype)))
            pooled.append(T.max_pool(masked, axis=1))    # [B, d]
            phrase_chunks.append(feats)
            phrase_masks.append(valid)
        global_text = self.norm(self.mix(T.concat(pooled, axis=-1)))
        phrase_seq = T.concat(phrase_chunks, axis=1)     # [B, 3D-3, d]
        phrase_mask = np.concatenate(phrase_masks, axis=1)
        return global_text, phrase_seq, phrase_mask


class CrossModalAttention(Module):
    """Bidirectional single-block cross attention: text queries attend over
    image keys/values and image queries over text keys/values.

    ``attend`` works on whole sequences and serves the interaction topology.
    Called directly, the module produces the hybrid interaction feature: each
    modality's pooled vector queries the other modality's pre-pooled
    sequence. Projections are bias-free matrix products.

    Each direction is one ``T.attention`` node fed the query and key/value
    sequences and the projection weights; ``q_from_text``, ``k_image`` and
    the other ``Linear`` modules only hold those weights (their names and
    init order fix the checkpoint layout). The node keeps the sequences and
    weights, which outlive it anyway, and recomputes q/k/v in backward
    instead of keeping them in the graph.
    """

    def __init__(self, d, n_heads, rng):
        super().__init__()
        if d % n_heads:
            raise T.ShapeError(f"cross_modal_attention: width {d} not divisible "
                               f"by {n_heads} heads")
        self.n_heads = n_heads
        self.q_from_text = Linear(d, d, rng, bias=False)
        self.k_image = Linear(d, d, rng, bias=False)
        self.v_image = Linear(d, d, rng, bias=False)
        self.q_from_image = Linear(d, d, rng, bias=False)
        self.k_text = Linear(d, d, rng, bias=False)
        self.v_text = Linear(d, d, rng, bias=False)

    def attend(self, text_query, image_kv, image_query, text_kv, text_mask=None):
        """Both directions over [B, L, d] sequences; ``text_mask`` marks the
        real text keys. Returns (text queries' read of the image, image
        queries' read of the text), shaped like the respective queries."""
        from_image = T.attention(
            text_query, image_kv, self.n_heads, self.q_from_text.weight,
            self.k_image.weight, self.v_image.weight)
        from_text = T.attention(
            image_query, text_kv, self.n_heads, self.q_from_image.weight,
            self.k_text.weight, self.v_text.weight, key_mask=text_mask)
        return from_image, from_text

    def __call__(self, text_pooled, text_seq, text_mask, image_pooled, image_seq):
        if text_pooled.shape[-1] != image_pooled.shape[-1]:
            raise T.ShapeError(
                f"cross_modal_attention: widths differ, {text_pooled.shape} vs "
                f"{image_pooled.shape}")
        B, d = text_pooled.shape
        from_image, from_text = self.attend(
            T.reshape(text_pooled, (B, 1, d)), image_seq,
            T.reshape(image_pooled, (B, 1, d)), text_seq, text_mask)
        return T.add(T.reshape(from_image, (B, d)), T.reshape(from_text, (B, d)))


class HybridAttentionFusion(Module):
    """Fig-style hybrid path: self-attention within each modality, then
    bidirectional cross attention. Consumes encoder context sequences."""

    def __init__(self, d, n_heads, ffn_width, rng):
        super().__init__()
        self.image_pool = SelfAttentionPool(d, n_heads, ffn_width, rng)
        self.text_pool = TextConvPool(d, rng)
        self.cross = CrossModalAttention(d, n_heads, rng)

    def __call__(self, text_ctx: Tensor, text_mask: np.ndarray, image_ctx: Tensor) -> Tensor:
        image_pooled, image_updated = self.image_pool(image_ctx)
        text_pooled, phrase_seq, phrase_mask = self.text_pool(text_ctx, text_mask)
        return self.cross(text_pooled, phrase_seq, phrase_mask, image_pooled, image_updated)


class ConcatLinearFusion(Module):
    """Attention-free interaction path: masked means of both context
    sequences, concatenated and linearly mixed (the ablation baseline)."""

    def __init__(self, d, rng):
        super().__init__()
        self.proj = Linear(2 * d, d, rng)

    def __call__(self, text_ctx, text_mask, image_ctx):
        image_mask = np.ones(image_ctx.shape[:2], dtype=bool)
        pooled = T.concat(
            [masked_mean(text_ctx, text_mask), masked_mean(image_ctx, image_mask)],
            axis=-1)
        return self.proj(pooled)


def _merged_self_attention(block, text_seq, text_mask, image_seq):
    """Self-attention over the concatenated text+image sequence (every image
    position is real), mean-pooled over the real positions."""
    merged = T.concat([text_seq, image_seq], axis=1)
    mask = np.concatenate(
        [text_mask, np.ones(image_seq.shape[:2], dtype=bool)], axis=1)
    return masked_mean(block(merged, key_mask=mask), mask)


class MergedAttentionFusion(Module):
    """Concatenate the two context sequences, run self-attention over the
    merged sequence, mean-pool the real positions."""

    def __init__(self, d, n_heads, ffn_width, rng):
        super().__init__()
        self.block = TransformerBlock(d, n_heads, ffn_width, rng)

    def __call__(self, text_ctx, text_mask, image_ctx):
        return _merged_self_attention(self.block, text_ctx, text_mask, image_ctx)


class InteractionEncoderFusion(Module):
    """Cross-attention between the raw sequences first, then self-attention
    over the concatenated interaction sequence, then pooling."""

    def __init__(self, d, n_heads, ffn_width, rng):
        super().__init__()
        self.cross = CrossModalAttention(d, n_heads, rng)
        self.block = TransformerBlock(d, n_heads, ffn_width, rng)

    def __call__(self, text_ctx, text_mask, image_ctx):
        from_image, from_text = self.cross.attend(
            text_ctx, image_ctx, image_ctx, text_ctx, text_mask)
        return _merged_self_attention(self.block, from_image, text_mask, from_text)


_PATHS = {"hybrid": HybridAttentionFusion, "merged": MergedAttentionFusion,
          "interaction": InteractionEncoderFusion}
TOPOLOGIES = tuple(_PATHS)


def build_interaction_path(topology, d, n_heads, ffn_width, rng):
    if topology not in _PATHS:
        raise ValueError(f"unknown attention topology {topology!r}")
    return _PATHS[topology](d, n_heads, ffn_width, rng)


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
