"""Branch classifiers, the gamma-weighted composite loss, and weighted voting.

The three fused features are classified by independent affine+softmax
branches. Training minimizes (1-gamma)*interaction loss + gamma*(text loss +
image loss); prediction fuses the three branch distributions by a convex
vote, weighted by each branch's confidence on the batch (the default) or
uniformly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import Linear
from .tensor import Module, Tensor

BRANCHES = ("text", "interaction", "image")
VOTE_STRATEGIES = ("confidence", "uniform")

LOG_FLOOR = 1e-12


@dataclass
class BranchPrediction:
    logits: Tensor   # [B, n_cls]
    probs: Tensor    # [B, n_cls], rows on the simplex
    branch: str


@dataclass
class LossBreakdown:
    loss_text: float
    loss_interaction: float
    loss_image: float
    total: float


@dataclass
class VoteWeights:
    weights: dict            # branch name -> weight, nonnegative, sums to 1


class BranchClassifier(Module):
    """Affine map plus row softmax, independent parameters per branch."""

    def __init__(self, d_in, n_classes, branch, rng):
        super().__init__()
        if branch not in BRANCHES:
            raise ValueError(f"unknown branch {branch!r}")
        self.branch = branch
        self.proj = Linear(d_in, n_classes, rng)

    def __call__(self, x: Tensor) -> BranchPrediction:
        logits = self.proj(x)
        return BranchPrediction(logits=logits, probs=T.softmax(logits, axis=-1),
                                branch=self.branch)


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean negative log probability of the true class; the log argument is
    clamped at 1e-12 so confident mistakes stay finite."""
    labels = np.asarray(labels)
    B, n_cls = probs.shape
    if labels.shape != (B,):
        raise T.ShapeError(f"cross_entropy: labels shape {labels.shape} != ({B},)")
    bad = (labels < 0) | (labels >= n_cls)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValueError(
            f"cross_entropy: label {labels[idx]} out of range [0, {n_cls}) at index {idx}")
    picked = T.clip_min(T.pick(probs, labels), LOG_FLOOR)
    return T.scale(T.tsum(T.log(picked)), -1.0 / B)


def combined_loss(loss_text: Tensor, loss_interaction: Tensor, loss_image: Tensor,
                  gamma: float):
    """Eq-style linear combination; returns (total graph tensor, LossBreakdown).

    gamma=0 keeps only the interaction loss; gamma in (0.5, 1] is accepted
    with a warning because it lies outside the studied sweep range.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"combined_loss: gamma must be in [0, 1], got {gamma}")
    if gamma > 0.5:
        warnings.warn(f"gamma={gamma} is outside the studied range [0, 0.5]",
                      stacklevel=2)
    total = T.add(T.scale(loss_interaction, 1.0 - gamma),
                  T.scale(T.add(loss_text, loss_image), gamma))
    lt, lh, li = loss_text.item(), loss_interaction.item(), loss_image.item()
    return total, LossBreakdown(lt, lh, li, (1.0 - gamma) * lh + gamma * (lt + li))


class VotingHead:
    """Convex combination of branch probability rows; holds no parameters.

    confidence: weights proportional to each branch's mean max-probability on
    the current batch. uniform: 1/3 each.
    """

    def __init__(self, strategy="confidence"):
        if strategy not in VOTE_STRATEGIES:
            raise ValueError(f"unknown vote strategy {strategy!r}")
        self.strategy = strategy

    def __call__(self, preds):
        probs = {p.branch: p.probs.data for p in preds}
        if set(probs) != set(BRANCHES):
            raise ValueError(f"weighted_vote: need branches {BRANCHES}, got {sorted(probs)}")
        shapes = {probs[b].shape for b in BRANCHES}
        if len(shapes) != 1:
            raise T.ShapeError(f"weighted_vote: mismatched shapes {sorted(shapes)}")
        if self.strategy == "uniform":
            raw = np.ones(3)
        else:
            raw = np.array([probs[b].max(axis=1).mean() for b in BRANCHES])
        w = raw / raw.sum()
        fused = sum(w[i] * probs[b] for i, b in enumerate(BRANCHES))
        return fused, VoteWeights({b: float(w[i]) for i, b in enumerate(BRANCHES)})


def weighted_vote(preds, strategy="confidence"):
    """Functional form of the vote for callers without a persistent head."""
    return VotingHead(strategy)(preds)
