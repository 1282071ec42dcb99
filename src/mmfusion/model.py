"""Full classifier assembly: encoders -> channels -> fusion -> branches.

``RunConfig`` gathers every knob; ``validate`` reports all problems at once
rather than stopping at the first. The model can be built multimodal or with
a single modality (the unimodal baselines used in trend comparisons).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .data import SyntheticSpec, make_image_batch, make_text_batch
from .decision import (BRANCHES, VOTE_STRATEGIES, BranchClassifier, LossBreakdown,
                       VotingHead, combined_loss, cross_entropy)
from .encoders import EncoderConfig, ImageEncoder, TextEncoder
from .fields import type_problems
from .fusion import (ATTENTION_MODES, TOPOLOGIES, ConcatLinearFusion,
                     RegularizationConfig, UnimodalFusionHead,
                     build_interaction_path, dropout_channel, elastic_net_channel)
from .tensor import Module

MODALITIES = ("multimodal", "image", "text")


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


@dataclass
class FusionSettings:
    p: float = 0.9
    alpha: float = 0.01
    beta: float = 0.01
    d_f: int | None = None
    mode: str = "sequence"
    topology: str = "hybrid"
    use_hybrid_attention: bool = True    # off -> concat+linear interaction path
    use_reg_channels: bool = True        # off -> both channels pass through

    def validate(self, d_model):
        problems = type_problems(self)
        if problems:
            return problems
        problems = RegularizationConfig(self.p, self.alpha, self.beta).validate()
        if self.mode not in ATTENTION_MODES:
            problems.append(f"attention mode must be one of {ATTENTION_MODES}, "
                            f"got {self.mode!r}")
        if self.topology not in TOPOLOGIES:
            problems.append(f"topology must be one of {TOPOLOGIES}, got {self.topology!r}")
        if self.d_f is not None and self.d_f != d_model:
            problems.append(
                f"d_f {self.d_f} must equal d_model {d_model}: the interaction "
                f"feature has encoder width and all branch widths must agree")
        return problems


@dataclass
class DecisionSettings:
    gamma: float = 0.1
    vote: str = "confidence"

    def validate(self):
        problems = type_problems(self)
        if problems:
            return problems
        if not 0.0 <= self.gamma <= 1.0:
            problems.append(f"gamma must be in [0, 1], got {self.gamma}")
        if self.vote not in VOTE_STRATEGIES:
            problems.append(f"vote strategy must be one of {VOTE_STRATEGIES}, "
                            f"got {self.vote!r}")
        return problems


@dataclass
class TrainerSettings:
    epochs: int = 25
    batch_size: int = 8
    lr_text: float = 1e-5
    lr_image: float = 1e-4
    lr_other: float = 1e-4
    weight_decay: float = 5e-4

    def validate(self):
        problems = type_problems(self)
        if problems:
            return problems
        if self.epochs < 0:
            problems.append(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("lr_text", "lr_image", "lr_other", "weight_decay"):
            if getattr(self, name) < 0:
                problems.append(f"{name} must be >= 0")
        return problems


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
    modality: str = "multimodal"
    seed: int = 0

    def validate(self):
        problems = []
        problems += [f"text_encoder: {p}" for p in self.text_encoder.validate()]
        problems += [f"image_encoder: {p}" for p in self.image_encoder.validate()]
        if self.text_encoder.d_model != self.image_encoder.d_model:
            problems.append(
                f"encoder widths differ ({self.text_encoder.d_model} vs "
                f"{self.image_encoder.d_model}); fusion requires equal widths")
        problems += [f"fusion: {p}" for p in
                     self.fusion.validate(self.text_encoder.d_model)]
        problems += [f"decision: {p}" for p in self.decision.validate()]
        problems += [f"trainer: {p}" for p in self.trainer.validate()]
        if self.dataset_path is None:
            problems += [f"data: {p}" for p in self.data.validate()]
        own = type_problems(self)
        if not own:
            if self.modality not in MODALITIES:
                own.append(f"modality must be one of {MODALITIES}, got {self.modality!r}")
            if self.seed < 0:
                own.append(f"seed must be >= 0, got {self.seed}")
        return problems + own

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise ConfigError(problems)
        return self

    def to_dict(self):
        doc = asdict(self)
        doc["data"] = self.data.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError([f"a run config must be a JSON object, got {doc!r}"])
        doc = dict(doc)
        problems = []
        kwargs = {}
        sections = {"text_encoder": EncoderConfig, "image_encoder": EncoderConfig,
                    "fusion": FusionSettings, "decision": DecisionSettings,
                    "trainer": TrainerSettings, "data": SyntheticSpec}
        for name, section_cls in sections.items():
            if name not in doc:
                continue
            payload = doc.pop(name)
            if not isinstance(payload, dict):
                problems.append(f"{name}: must be a JSON object, got {payload!r}")
                continue
            payload = dict(payload)
            known = set(section_cls().__dataclass_fields__)
            unknown = set(payload) - known
            if unknown:
                problems.append(f"{name}: unknown fields {sorted(unknown)}")
                for k in unknown:
                    payload.pop(k)
            kwargs[name] = (SyntheticSpec.from_dict(payload) if name == "data"
                            else section_cls(**payload))
        for name in ("dataset_path", "modality", "seed"):
            if name in doc:
                kwargs[name] = doc.pop(name)
        if doc:
            problems.append(f"unknown top-level fields {sorted(doc)}")
        if problems:
            raise ConfigError(problems)
        return cls(**kwargs)


class MultimodalClassifier(Module):
    """The assembled network. Submodules exist only for the configured
    modality, so every registered parameter participates in the loss."""

    def __init__(self, cfg: RunConfig, vocab_size: int):
        super().__init__()
        cfg.require_valid()
        self.cfg = cfg
        self.modality = cfg.modality
        d = cfg.text_encoder.d_model
        self.d_f = cfg.fusion.d_f or d
        rng = np.random.default_rng([cfg.seed, 0])

        spec = cfg.data
        if self.modality in ("multimodal", "text"):
            self.text_encoder = TextEncoder(cfg.text_encoder, vocab_size, rng=rng)
            self.text_head = UnimodalFusionHead(d, self.d_f, rng)
            self.text_classifier = BranchClassifier(self.d_f, spec.n_classes, "text", rng)
        if self.modality in ("multimodal", "image"):
            self.image_encoder = ImageEncoder(
                cfg.image_encoder, spec.image_size, spec.patch_size,
                channels=spec.channels, rng=rng)
            self.image_head = UnimodalFusionHead(d, self.d_f, rng)
            self.image_classifier = BranchClassifier(self.d_f, spec.n_classes, "image", rng)
        if self.modality == "multimodal":
            if cfg.fusion.use_hybrid_attention:
                self.interaction_path = build_interaction_path(
                    cfg.fusion.topology, d, cfg.text_encoder.n_heads,
                    cfg.text_encoder.ffn_width, rng, mode=cfg.fusion.mode)
            else:
                self.interaction_path = ConcatLinearFusion(d, rng)
            self.interaction_classifier = BranchClassifier(
                self.d_f, spec.n_classes, "interaction", rng)
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
        gamma = self.cfg.decision.gamma
        if self.modality == "multimodal":
            lt = cross_entropy(preds["text"].probs, labels)
            lh = cross_entropy(preds["interaction"].probs, labels)
            li = cross_entropy(preds["image"].probs, labels)
            return combined_loss(lt, lh, li, gamma)
        branch = "image" if self.modality == "image" else "text"
        single = cross_entropy(preds[branch].probs, labels)
        parts = {"loss_text": 0.0, "loss_interaction": 0.0, "loss_image": 0.0}
        parts[f"loss_{branch}"] = single.item()
        return single, LossBreakdown(gamma=gamma, total=single.item(), **parts)

    def predict_probs(self, preds):
        """Fused class distribution (and vote weights when multimodal)."""
        if self.modality == "multimodal":
            return self.vote([preds[b] for b in BRANCHES])
        branch = "image" if self.modality == "image" else "text"
        return preds[branch].probs.data, None

    def batches_for(self, samples, vocab_size):
        text = make_text_batch(samples, vocab_size) \
            if self.modality in ("multimodal", "text") else None
        image = make_image_batch(samples, self.cfg.data.patch_size) \
            if self.modality in ("multimodal", "image") else None
        return text, image
