"""Trainable building blocks: linear maps, layer norm, attention, transformer."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Module, Tensor


def trunc_normal(rng: np.random.Generator, shape, std=0.02):
    """Truncated-normal init at +-2 std, the usual transformer choice."""
    vals = rng.standard_normal(shape) * std
    return np.clip(vals, -2 * std, 2 * std).astype(np.float32)


class Linear(Module):
    """Affine map x @ W + b with W stored [d_in, d_out].

    ``std=None`` initializes at 1/sqrt(d_in) (fan-scaled, the right scale for
    freshly trained layers); encoder stacks pass an explicit 0.02.
    """

    def __init__(self, d_in, d_out, rng, bias=True, std=None):
        super().__init__()
        std = 1.0 / np.sqrt(d_in) if std is None else std
        self.weight = Tensor(trunc_normal(rng, (d_in, d_out), std=std), requires_grad=True)
        self.bias = (Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)
                     if bias else None)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, d):
        super().__init__()
        self.gain = Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class MultiHeadSelfAttention(Module):
    """Self-attention: one ``T.attention`` node takes x and the q/k/v/o
    projection parameters.

    ``q_proj``/``k_proj``/``v_proj``/``o_proj`` only hold the projection
    parameters (their names and init order fix the checkpoint layout); they
    are never called. The node keeps x (or the layer_norm state it is
    rebuilt from) and the weights, which outlive it anyway, and recomputes
    q/k/v and the merged heads that ``o_proj`` maps in backward instead of
    keeping them in the graph.
    """

    def __init__(self, d, n_heads, rng, std=None):
        super().__init__()
        if d % n_heads:
            raise T.ShapeError(f"attention: d_model {d} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.q_proj = Linear(d, d, rng, std=std)
        # a key bias shifts every logit of a query equally and cancels in
        # softmax, leaving a parameter with an identically zero gradient
        self.k_proj = Linear(d, d, rng, bias=False, std=std)
        self.v_proj = Linear(d, d, rng, std=std)
        self.o_proj = Linear(d, d, rng, std=std)

    def __call__(self, x: Tensor, key_mask=None) -> Tensor:
        q, k, v, o = self.q_proj, self.k_proj, self.v_proj, self.o_proj
        return T.attention(x, x, self.n_heads, q.weight, k.weight, v.weight, q.bias, v.bias,
                           key_mask, o.weight, o.bias)


class FeedForward(Module):
    """relu(x @ W1 + b1) @ W2 + b2: one ``T.ffn`` node.

    ``inner``/``outer`` only hold the parameters (their names and init order
    fix the checkpoint layout); they are never called. The node keeps x (or
    the layer_norm state it is rebuilt from) and the weights, and rebuilds
    the [..., width] hidden layer in backward instead of keeping it.
    """

    def __init__(self, d, width, rng, std=None):
        super().__init__()
        self.inner = Linear(d, width, rng, std=std)
        self.outer = Linear(width, d, rng, std=std)

    def __call__(self, x: Tensor) -> Tensor:
        inner, outer = self.inner, self.outer
        return T.ffn(x, inner.weight, inner.bias, outer.weight, outer.bias)


class TransformerBlock(Module):
    """Post-norm block: LN(x + attn(x)) then LN(h + ffn(h))."""

    def __init__(self, d, n_heads, ffn_width, rng, std=None):
        super().__init__()
        self.attn = MultiHeadSelfAttention(d, n_heads, rng, std=std)
        self.norm1 = LayerNorm(d)
        self.ffn = FeedForward(d, ffn_width, rng, std=std)
        self.norm2 = LayerNorm(d)

    def __call__(self, x: Tensor, key_mask=None) -> Tensor:
        h = self.norm1(T.add(x, self.attn(x, key_mask)))
        return self.norm2(T.add(h, self.ffn(h)))
