from __future__ import annotations

import dataclasses
import inspect
import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import mmfusion
from mmfusion import decision, encoders, fusion, layers, model
from mmfusion.data import MIN_TEXT_WIDTH, SyntheticSpec
from mmfusion.decision import VOTE_STRATEGIES
from mmfusion.fields import ConfigError, bounded, field_problems
from mmfusion.fusion import TOPOLOGIES
from mmfusion.model import (MODALITIES, DecisionSettings, EncoderConfig,
                            FusionSettings, MultimodalClassifier, RunConfig,
                            TrainerSettings)
from mmfusion.tensor import Module


def leaves(obj, prefix=""):
    """(dotted name, annotation) of every settable field, sections entered."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.type


# Every setting of a run. Adding or dropping one is a design decision: edit
# this list in the same change and say why.
KNOBS = [
    *(f"{enc}.{name}" for enc in ("text_encoder", "image_encoder")
      for name in ("d_model", "n_heads", "n_layers", "ffn_width", "embedding_dim",
                   "share_layers", "max_len")),
    "fusion.p", "fusion.alpha", "fusion.beta", "fusion.topology",
    "fusion.use_hybrid_attention", "fusion.use_reg_channels",
    "decision.gamma", "decision.vote",
    "trainer.epochs", "trainer.batch_size", "trainer.lr_text", "trainer.lr_image",
    "trainer.lr_other", "trainer.weight_decay",
    "data.n_classes", "data.samples_per_class", "data.image_size", "data.patch_size",
    "data.channels", "data.vocab_size", "data.sentence_len",
    "data.image_informativeness", "data.text_informativeness", "data.noise_level",
    "data.seed", "data.split_ratios",
    "modality", "seed",
]


def test_knob_census():
    assert [name for name, _ in leaves(RunConfig())] == KNOBS
    assert len(KNOBS) == 42


# The parameters of every module constructor and initializer. Modules are
# built float32 from shapes and an rng (``Module.astype`` casts); a knob that
# only passes through to children, or that every caller leaves at one value,
# does not belong here. Adding a parameter is a design decision: edit this
# table in the same change and say why.
CONSTRUCTORS = {
    "layers.trunc_normal": ["rng", "shape", "std"],
    "layers.Linear": ["d_in", "d_out", "rng", "bias", "std"],
    "layers.LayerNorm": ["d"],
    "layers.MultiHeadSelfAttention": ["d", "n_heads", "rng", "std"],
    "layers.FeedForward": ["d", "width", "rng", "std"],
    "layers.TransformerBlock": ["d", "n_heads", "ffn_width", "rng", "std"],
    "fusion.UnimodalFusionHead": ["d_in", "d_out", "rng"],
    "fusion.SelfAttentionPool": ["d", "n_heads", "ffn_width", "rng"],
    "fusion.TextConvPool": ["d", "rng"],
    "fusion.CrossModalAttention": ["d", "n_heads", "rng"],
    "fusion.HybridAttentionFusion": ["d", "n_heads", "ffn_width", "rng"],
    "fusion.ConcatLinearFusion": ["d", "rng"],
    "fusion.MergedAttentionFusion": ["d", "n_heads", "ffn_width", "rng"],
    "fusion.InteractionEncoderFusion": ["d", "n_heads", "ffn_width", "rng"],
    "fusion.build_interaction_path": ["topology", "d", "n_heads", "ffn_width", "rng"],
    "encoders._BlockStack": ["cfg", "rng"],
    "encoders.TextEncoder": ["cfg", "vocab_size", "rng"],
    "encoders.ImageEncoder": ["cfg", "image_size", "patch_size", "channels", "rng"],
    "decision.BranchClassifier": ["d_in", "n_classes", "branch", "rng"],
    "model.MultimodalClassifier": ["cfg", "vocab_size"],
}
MODULE_FILES = (layers, fusion, encoders, decision, model)


def test_constructor_census():
    found = {f"{mod.__name__.rsplit('.', 1)[1]}.{name}": obj
             for mod in MODULE_FILES for name, obj in vars(mod).items()
             if inspect.isclass(obj) and issubclass(obj, Module)
             and obj.__module__ == mod.__name__}
    found["layers.trunc_normal"] = layers.trunc_normal
    found["fusion.build_interaction_path"] = fusion.build_interaction_path
    assert sorted(found) == sorted(CONSTRUCTORS)
    for name, obj in found.items():
        assert list(inspect.signature(obj).parameters) == CONSTRUCTORS[name], name


# The package's public names. Removing or adding one is a design decision:
# edit this list in the same change and say why.
PUBLIC_API = [
    "AdamW", "EncoderConfig", "ImageEncoder", "MultimodalClassifier", "RunConfig",
    "SyntheticSpec", "Tensor", "TextEncoder", "backward", "combined_loss",
    "compute_metrics", "cross_entropy", "dropout_channel", "elastic_net_channel",
    "evaluate_metrics", "finite_diff_check", "generate", "load_dataset",
    "patchify", "save_dataset", "train_model", "weighted_vote",
]


def test_public_api_census():
    assert sorted(mmfusion.__all__) == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(mmfusion, name)] == []


unit = st.floats(0, 1)
rate = st.floats(0, 10)


@st.composite
def run_configs(draw):
    heads = draw(st.integers(1, 4))
    d_model = heads * draw(st.integers(1, 8))

    def encoder(shortest_max_len=1):
        return EncoderConfig(
            d_model=d_model, n_heads=heads, n_layers=draw(st.integers(1, 4)),
            ffn_width=draw(st.integers(1, 128)), embedding_dim=draw(st.integers(1, 64)),
            share_layers=draw(st.booleans()),
            max_len=draw(st.integers(shortest_max_len, 128)))

    n_classes = draw(st.integers(2, 8))
    patch = draw(st.integers(1, 8))
    shortest = draw(st.integers(1, 8))
    longest = shortest + draw(st.integers(0, 8))
    data = SyntheticSpec(
        n_classes=n_classes, samples_per_class=draw(st.integers(10, 200)),
        image_size=patch * draw(st.integers(1, 8)), patch_size=patch,
        channels=draw(st.integers(1, 3)), vocab_size=draw(st.integers(n_classes + 6, 99)),
        sentence_len=(shortest, longest),
        image_informativeness=draw(unit), text_informativeness=draw(unit),
        noise_level=draw(unit), seed=draw(st.integers(0, 2**40)),
        split_ratios=draw(st.sampled_from(
            [(0.6, 0.1, 0.3), (0.8, 0.0, 0.2), (0.3, 0.1, 0.6), (0.5, 0.25, 0.25)])))
    # two classes, each unique in one modality, would share one pattern and
    # one keyword: the data spec rejects that family
    assume(not (n_classes == 2 and all(0.5 <= f < 1 for f in (
        data.image_informativeness, data.text_informativeness))))
    return RunConfig(
        # the text encoder has a position for every token of the widest batch
        text_encoder=encoder(max(MIN_TEXT_WIDTH, longest)), image_encoder=encoder(),
        fusion=FusionSettings(
            p=draw(st.floats(0, 1, exclude_min=True)), alpha=draw(rate),
            beta=draw(rate), topology=draw(st.sampled_from(TOPOLOGIES)),
            use_hybrid_attention=draw(st.booleans()),
            use_reg_channels=draw(st.booleans())),
        decision=DecisionSettings(gamma=draw(unit),
                                  vote=draw(st.sampled_from(VOTE_STRATEGIES))),
        trainer=TrainerSettings(
            epochs=draw(st.integers(0, 100)), batch_size=draw(st.integers(1, 64)),
            lr_text=draw(rate), lr_image=draw(rate), lr_other=draw(rate),
            weight_decay=draw(rate)),
        data=data, modality=draw(st.sampled_from(MODALITIES)),
        seed=draw(st.integers(0, 2**40)))


@settings(deadline=None)
@given(run_configs())
def test_json_round_trip(cfg):
    assert cfg.validate() == []
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@settings(deadline=None, max_examples=60)
@given(run_configs())
def test_closed_form_parameter_count_matches_the_built_model(cfg):
    # a generated dataset's vocabulary has exactly data.vocab_size words
    built = MultimodalClassifier(cfg, vocab_size=cfg.data.vocab_size)
    assert cfg.parameter_count() == built.parameter_count()


# JSON values of the wrong type for each annotation
WRONG = {
    "int": ["x", 1.5, True, None, [1]],
    "float": ["0.1", True, None, [0.5], {}, math.inf, -math.inf],
    "bool": [1, "true", None],
    "str": [1, True, None, ["hybrid"]],
    "tuple[int, int]": [5, "x", None, [1], [1, 2, 3], [1.5, 2]],
    "tuple[float, float, float]": [0.5, None, [0.5, 0.5], ["a", 0.5, 0.5]],
}


@settings(deadline=None)
@given(run_configs(), st.sampled_from(list(leaves(RunConfig()))), st.data())
def test_wrongly_typed_field_is_named(cfg, leaf, data):
    name, annotation = leaf
    bad = data.draw(st.sampled_from(WRONG[annotation]))
    doc = json.loads(json.dumps(cfg.to_dict()))
    *path, field = name.split(".")
    section = doc
    for part in path:
        section = section[part]
    section[field] = bad
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(doc).require_valid()
    prefix = f"{path[0]}: " if path else ""
    assert any(p.startswith(f"{prefix}{field} must be") for p in exc.value.problems), \
        exc.value.problems


def test_from_dict_reports_every_unknown_field_and_non_object_section():
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict({"fusion": {"d_f": None}, "trainer": 5, "optimiser": {}})
    assert exc.value.problems == [
        "RunConfig: unknown fields ['optimiser']",
        "fusion: unknown fields ['d_f']",
        "trainer must be a JSON object, got 5",
    ]


@dataclasses.dataclass
class _Example:
    count: int = bounded(1, lo=1)
    share: float = bounded(0.5, lo=0, hi=1, lo_open=True, label="the share")
    pair: tuple[int, int] = bounded((1, 2), lo=0)
    kind: str = bounded("a", choices=("a", "b"))
    note: str = ""


def test_field_problems_reports_types_before_bounds():
    assert field_problems(_Example()) == []
    assert field_problems(_Example(count=0, share=0.0, pair=(-1, 2), kind="c")) == [
        "count must be >= 1, got 0",
        "the share must be in (0, 1], got 0.0",
        "pair must be >= 0, got (-1, 2)",
        "kind must be one of ('a', 'b'), got 'c'",
    ]
    # a type problem hides the bound problems, which could not be compared
    assert field_problems(_Example(count=0, note=3)) == ["note must be a string, got 3"]



@dataclasses.dataclass
class _Sized:
    width: int = bounded(4, lo=1, hi=64)
    span: tuple[int, int] = bounded((1, 2), lo=1, hi=8)


def test_integer_message_names_the_end_it_is_past():
    assert field_problems(_Sized(width=0, span=(2, 9))) == [
        "width must be >= 1, got 0", "span must be <= 8, got (2, 9)"]
    assert field_problems(_Sized(width=2**70, span=(0, 9))) == [
        f"width must be <= 64, got {2**70}", "span must be in [1, 8], got (0, 9)"]
