"""Full classifier assembly: encoders -> channels -> fusion -> branches.

``RunConfig`` gathers every setting in sections. Each field declares its
type and bounds (``fields.bounded``) and a section's ``validate`` adds only
the rules that relate two fields; ``RunConfig.validate`` reports every
problem at once rather than stopping at the first. ``RunConfig.from_dict``
reads the JSON form, where a section names only the fields it changes. The
model can be built multimodal or with a single modality (the unimodal
baselines used in trend comparisons); every branch has the encoder width.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import tensor as T
from .data import MIN_TEXT_WIDTH, SyntheticSpec, make_image_batch, make_text_batch
from .decision import (BRANCHES, VOTE_STRATEGIES, BranchClassifier, LossBreakdown,
                       VotingHead, combined_loss, cross_entropy)
from .encoders import EncoderConfig, ImageEncoder, TextEncoder
from .fields import ConfigError, bounded, field_problems, from_dict
from .fusion import (TOPOLOGIES, ConcatLinearFusion,
                     UnimodalFusionHead, build_interaction_path, dropout_channel,
                     elastic_net_channel, topology_parameter_count)
from .tensor import Module

MODALITIES = ("multimodal", "image", "text")
PARAMETER_BUDGET = 2**26    # its float32 weights, gradients and AdamW moments: 1 GiB


@dataclass
class FusionSettings:
    p: float = bounded(0.9, lo=0, hi=1, lo_open=True, label="keep probability p")
    alpha: float = bounded(0.01, lo=0)      # L1 coefficient
    beta: float = bounded(0.01, lo=0)       # L2 coefficient
    topology: str = bounded("hybrid", choices=TOPOLOGIES)
    use_hybrid_attention: bool = True    # off -> concat+linear interaction path
    use_reg_channels: bool = True        # off -> both channels pass through

    validate = field_problems


@dataclass
class DecisionSettings:
    gamma: float = bounded(0.1, lo=0, hi=1)
    vote: str = bounded("confidence", choices=VOTE_STRATEGIES, label="vote strategy")

    validate = field_problems


@dataclass
class TrainerSettings:
    epochs: int = bounded(25, lo=0, hi=100_000)
    batch_size: int = bounded(8, lo=1, hi=65_536)
    lr_text: float = bounded(1e-5, lo=0)
    lr_image: float = bounded(1e-4, lo=0)
    lr_other: float = bounded(1e-4, lo=0)
    weight_decay: float = bounded(5e-4, lo=0)

    validate = field_problems


@dataclass
class RunConfig:
    text_encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(
        d_model=32, n_heads=2, n_layers=2, ffn_width=64, embedding_dim=16,
        share_layers=True, max_len=32))
    image_encoder: EncoderConfig = field(default_factory=lambda: EncoderConfig(
        d_model=32, n_heads=2, n_layers=2, ffn_width=64, embedding_dim=32,
        share_layers=False, max_len=64))
    fusion: FusionSettings = field(default_factory=FusionSettings)
    decision: DecisionSettings = field(default_factory=DecisionSettings)
    trainer: TrainerSettings = field(default_factory=TrainerSettings)
    data: SyntheticSpec = field(default_factory=SyntheticSpec)
    dataset_path: str | None = None
    modality: str = bounded("multimodal", choices=MODALITIES)
    seed: int = bounded(0, lo=0)

    def validate(self):
        """Every problem of every section (``data`` only when the dataset is
        generated from it), then the top-level fields'. A model that reads
        text needs ``text_encoder.max_len`` positions for the widest padded
        batch that ``data.sentence_len`` allows; that rule reads ``data``
        either way, and a loaded dataset's spec replaces it before the model
        is built."""
        problems = []
        for f in fields(self):
            section = getattr(self, f.name)
            if is_dataclass(section) and (f.name != "data" or self.dataset_path is None):
                problems += [f"{f.name}: {p}" for p in section.validate()]
        if self.text_encoder.d_model != self.image_encoder.d_model:
            problems.append(
                f"encoder widths differ ({self.text_encoder.d_model} vs "
                f"{self.image_encoder.d_model}); fusion requires equal widths")
        text, data = self.text_encoder, self.data
        if self.modality != "image" and not (field_problems(text) or field_problems(data)):
            width = max(MIN_TEXT_WIDTH, data.sentence_len[1])
            if text.max_len < width:
                problems.append(
                    f"text_encoder.max_len {text.max_len} is shorter than the widest "
                    f"text batch, {width} tokens (data.sentence_len {data.sentence_len})")
        sized = (text, self.image_encoder, data, self.fusion, self)    # the count's inputs
        if not any(map(field_problems, sized)) and self.parameter_count() > PARAMETER_BUDGET:
            problems.append(f"the model would hold {self.parameter_count():,} parameters, "
                            f"over the budget of {PARAMETER_BUDGET:,}")
        return problems + field_problems(self)

    def parameter_count(self):
        """Closed-form parameter count of the model built on ``data.vocab_size`` words."""
        text, image, data, fz = self.text_encoder, self.image_encoder, self.data, self.fusion
        d, n = text.d_model, data.n_classes
        patches = (data.image_size // data.patch_size) ** 2
        sides = {   # each encoder and its embedding and input projection parameters
            "text": (text, (data.vocab_size + text.max_len + 1 + d) * text.embedding_dim + d),
            "image": (image, (data.patch_size ** 2 * data.channels + patches + 3)
                      * image.d_model)}
        total = 0
        for enc, inputs in (sides[m] for m in sides if self.modality in (m, "multimodal")):
            blocks = 1 if enc.share_layers else enc.n_layers    # a merged path is one block
            total += inputs + blocks * topology_parameter_count("merged", enc.d_model,
                                                                enc.ffn_width)
            total += 2 * d * d + d + d * n + n      # the side's fusion head and classifier
        if self.modality == "multimodal":            # the interaction path and classifier
            total += d * n + n + (topology_parameter_count(fz.topology, d, text.ffn_width)
                                  if fz.use_hybrid_attention else 2 * d * d + d)
        return total

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise ConfigError(problems)
        return self

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, doc):
        """The default config with the fields ``doc`` names replaced."""
        return from_dict(cls(), doc)


class MultimodalClassifier(Module):
    """The assembled network. Submodules exist only for the configured
    modality, so every registered parameter participates in the loss."""

    def __init__(self, cfg: RunConfig, vocab_size: int):
        super().__init__()
        cfg.require_valid()
        self.cfg = cfg
        self.modality = cfg.modality
        d = cfg.text_encoder.d_model
        rng = np.random.default_rng([cfg.seed, 0])

        spec = cfg.data
        if self.modality in ("multimodal", "text"):
            self.text_encoder = TextEncoder(cfg.text_encoder, vocab_size, rng=rng)
            self.text_head = UnimodalFusionHead(d, d, rng)
            self.text_classifier = BranchClassifier(d, spec.n_classes, "text", rng)
        if self.modality in ("multimodal", "image"):
            self.image_encoder = ImageEncoder(
                cfg.image_encoder, spec.image_size, spec.patch_size,
                channels=spec.channels, rng=rng)
            self.image_head = UnimodalFusionHead(d, d, rng)
            self.image_classifier = BranchClassifier(d, spec.n_classes, "image", rng)
        if self.modality == "multimodal":
            if cfg.fusion.use_hybrid_attention:
                self.interaction_path = build_interaction_path(
                    cfg.fusion.topology, d, cfg.text_encoder.n_heads,
                    cfg.text_encoder.ffn_width, rng)
            else:
                self.interaction_path = ConcatLinearFusion(d, rng)
            self.interaction_classifier = BranchClassifier(
                d, spec.n_classes, "interaction", rng)
            self.vote = VotingHead(cfg.decision.vote)

    def _channels(self, pooled, training, rng):
        fz = self.cfg.fusion
        if not fz.use_reg_channels:
            return pooled, pooled
        mode = "training" if training else "inference"
        ch1 = dropout_channel(pooled, fz.p, mode=mode, rng=rng)
        ch2 = elastic_net_channel(pooled, fz.alpha, fz.beta)
        return ch1, ch2

    def forward_batch(self, text_batch, image_batch, training=False, rng=None):
        """Run every branch for the configured modality; returns
        {branch: BranchPrediction}."""
        preds = {}
        text_out = image_out = None
        if self.modality in ("multimodal", "text"):
            text_out = self.text_encoder(text_batch)
            ch1, ch2 = self._channels(text_out.pooled, training, rng)
            preds["text"] = self.text_classifier(self.text_head(ch1, ch2))
        if self.modality in ("multimodal", "image"):
            image_out = self.image_encoder(image_batch)
            ch1, ch2 = self._channels(image_out.pooled, training, rng)
            preds["image"] = self.image_classifier(self.image_head(ch1, ch2))
        if self.modality == "multimodal":
            patches = T.narrow(image_out.context, 1, 1, image_out.context.shape[1] - 1)
            o_h = self.interaction_path(text_out.context, text_batch.pad_mask, patches)
            preds["interaction"] = self.interaction_classifier(o_h)
        return preds

    def loss(self, preds, labels):
        """Composite training loss for the configured modality."""
        if self.modality == "multimodal":
            lt = cross_entropy(preds["text"].probs, labels)
            lh = cross_entropy(preds["interaction"].probs, labels)
            li = cross_entropy(preds["image"].probs, labels)
            return combined_loss(lt, lh, li, self.cfg.decision.gamma)
        single = cross_entropy(preds[self.modality].probs, labels)
        parts = {"loss_text": 0.0, "loss_interaction": 0.0, "loss_image": 0.0}
        parts[f"loss_{self.modality}"] = single.item()
        return single, LossBreakdown(total=single.item(), **parts)

    def predict_probs(self, preds):
        """Fused class distribution (and vote weights when multimodal)."""
        if self.modality == "multimodal":
            return self.vote([preds[b] for b in BRANCHES])
        return preds[self.modality].probs.data, None

    def batches_for(self, samples, vocab_size):
        text = make_text_batch(samples, vocab_size) \
            if self.modality in ("multimodal", "text") else None
        image = make_image_batch(samples) \
            if self.modality in ("multimodal", "image") else None
        return text, image
