import os
import tracemalloc
import types

import numpy as np
import numpy.testing as npt
import pytest

from mmfusion import model as model_mod
from mmfusion import tensor as T
from mmfusion import train as train_mod
from mmfusion.data import SyntheticSpec, generate, labels_of
from mmfusion.fusion import TOPOLOGIES
from mmfusion.model import (ConfigError, DecisionSettings, EncoderConfig,
                            FusionSettings, MultimodalClassifier, RunConfig,
                            TrainerSettings)
from mmfusion.train import (TrainingDiverged, build_optimizer, evaluate,
                            evaluate_metrics, train_model)
from mmfusion.tensor import Tensor, backward

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def tiny_cfg(**kw):
    base = dict(
        text_encoder=EncoderConfig(d_model=16, n_heads=2, n_layers=1, ffn_width=32,
                                   embedding_dim=8, share_layers=True, max_len=16),
        image_encoder=EncoderConfig(d_model=16, n_heads=2, n_layers=1, ffn_width=32,
                                    embedding_dim=16, share_layers=False, max_len=32),
        trainer=TrainerSettings(epochs=2, batch_size=8, lr_text=1e-3, lr_image=1e-3,
                                lr_other=1e-3, weight_decay=5e-4),
        data=SyntheticSpec(n_classes=3, samples_per_class=10, image_size=8,
                           patch_size=4, vocab_size=16, sentence_len=(3, 5),
                           noise_level=0.0, seed=0),
        seed=0)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate(SyntheticSpec(n_classes=3, samples_per_class=10, image_size=8,
                                  patch_size=4, vocab_size=16, sentence_len=(3, 5),
                                  noise_level=0.0, seed=0))


class TestAssembly:
    def test_branch_widths_agree(self, tiny_dataset):
        model = MultimodalClassifier(tiny_cfg(), vocab_size=len(tiny_dataset.vocab))
        batch = tiny_dataset.samples[:4]
        tb, ib = model.batches_for(batch, len(tiny_dataset.vocab))
        preds = model.forward_batch(tb, ib)
        assert set(preds) == {"text", "interaction", "image"}
        for p in preds.values():
            assert p.probs.shape == (4, 3)

    def test_validation_collects_every_problem(self):
        cfg = tiny_cfg()
        cfg.text_encoder.d_model = 15        # not divisible by heads
        cfg.fusion.p = 0.0
        cfg.fusion.alpha = -1.0
        cfg.decision.gamma = 2.0
        cfg.modality = "audio"
        problems = cfg.validate()
        assert len(problems) >= 5
        with pytest.raises(ConfigError):
            cfg.require_valid()

    @pytest.mark.parametrize("modality, max_len, longest, ok", [
        ("multimodal", 16, 16, True), ("multimodal", 16, 17, False),
        ("text", 16, 17, False), ("image", 16, 17, True),
        ("text", 2, 2, False),        # text batches are padded to at least 3 tokens
    ])
    def test_text_positions_cover_the_widest_batch(self, modality, max_len, longest, ok):
        cfg = tiny_cfg(modality=modality)
        cfg.text_encoder.max_len = max_len
        cfg.data.sentence_len = (1, longest)
        problems = cfg.validate()
        if ok:
            assert problems == []
        else:
            assert len(problems) == 1 and problems[0].startswith("text_encoder.max_len")

    @pytest.mark.parametrize("n_classes, samples_per_class, image_size, channels, ok", [
        (16, 1024, 128, 1, True),           # 16 x 1024 x 128^2 x 4 bytes: 1 GiB exactly
        (16, 1025, 128, 1, False),
        (4, 1024, 128, 4, True),
        (4, 1024, 128, 5, False),
        (4, 10_000, 1024, 1, False),        # each size in range, 156 GiB of images
        (1000, 10_000, 1024, 16, False),    # every size at its cap
    ])
    def test_images_have_a_size_budget(self, n_classes, samples_per_class, image_size,
                                       channels, ok):
        cfg = RunConfig()
        cfg.data = SyntheticSpec(n_classes=n_classes, samples_per_class=samples_per_class,
                                 image_size=image_size, channels=channels,
                                 vocab_size=n_classes + 6)
        tracemalloc.start()
        try:
            problems = cfg.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024       # the check allocates no dataset
        if ok:
            assert problems == []
        else:
            assert len(problems) == 1 and "over the 1 GiB budget" in problems[0], problems
            assert problems[0].startswith("data: images would take")

    @pytest.mark.parametrize("n_classes, samples_per_class, longest, ok", [
        (4, 4096, 1024, True),          # 2**24 tokens exactly
        (4, 4097, 1024, False),
        (4, 5_000, 4096, False),        # 1-pixel images; 93 s and 672 MB to generate
        (1000, 10_000, 4096, False),    # every size at its cap
    ])
    def test_token_lists_have_a_budget(self, n_classes, samples_per_class, longest, ok):
        cfg = RunConfig()
        cfg.text_encoder.max_len = longest
        cfg.data = SyntheticSpec(n_classes=n_classes, samples_per_class=samples_per_class,
                                 image_size=1, patch_size=1, vocab_size=n_classes + 6,
                                 sentence_len=(1, longest))
        problems = cfg.validate()
        if ok:
            assert problems == []
        else:
            assert len(problems) == 1 and "over the budget of 2**24" in problems[0], problems
            assert problems[0].startswith("data: token lists could hold")

    @pytest.mark.parametrize("modality", ["multimodal", "image", "text"])
    def test_encoders_at_their_size_caps_are_over_the_parameter_budget(self, modality):
        # each size is in range; the model would hold about 1e11 parameters
        caps = dict(d_model=4096, n_heads=256, n_layers=256, ffn_width=16384,
                    embedding_dim=4096, share_layers=False, max_len=4096)
        cfg = RunConfig(text_encoder=EncoderConfig(**caps),
                        image_encoder=EncoderConfig(**caps), modality=modality)
        tracemalloc.start()
        try:
            problems = cfg.validate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024       # the check builds no model
        assert problems == [f"the model would hold {cfg.parameter_count():,} parameters, "
                            f"over the budget of {2**26:,}"]
        assert cfg.parameter_count() > 5 * 10**10

    def test_parameter_budget_is_inclusive(self, monkeypatch):
        cfg = tiny_cfg()
        count = cfg.parameter_count()
        monkeypatch.setattr(model_mod, "PARAMETER_BUDGET", count)
        assert cfg.validate() == []
        monkeypatch.setattr(model_mod, "PARAMETER_BUDGET", count - 1)
        assert cfg.validate() == [f"the model would hold {count:,} parameters, over the "
                                  f"budget of {count - 1:,}"]

    def test_default_config_parameter_count(self):
        cfg = RunConfig()
        assert cfg.parameter_count() == 58_460
        assert MultimodalClassifier(cfg, cfg.data.vocab_size).parameter_count() == 58_460

    def test_unimodal_models_only_build_their_side(self, tiny_dataset):
        img = MultimodalClassifier(tiny_cfg(modality="image"),
                                   vocab_size=len(tiny_dataset.vocab))
        names = [n for n, _ in img.named_parameters()]
        assert not any(n.startswith("text_encoder") for n in names)
        txt = MultimodalClassifier(tiny_cfg(modality="text"),
                                   vocab_size=len(tiny_dataset.vocab))
        names = [n for n, _ in txt.named_parameters()]
        assert not any(n.startswith("image_encoder") for n in names)

    def test_gamma_zero_routes_no_gradient_to_unimodal_classifiers(self, tiny_dataset):
        cfg = tiny_cfg(decision=DecisionSettings(gamma=0.0))
        model = MultimodalClassifier(cfg, vocab_size=len(tiny_dataset.vocab))
        batch = tiny_dataset.samples[:6]
        tb, ib = model.batches_for(batch, len(tiny_dataset.vocab))
        preds = model.forward_batch(tb, ib)
        total, _ = model.loss(preds, labels_of(batch))
        model.zero_grad()
        backward(total)
        for clf in (model.text_classifier, model.image_classifier):
            for _, p in clf.named_parameters():
                assert p.grad is not None
                npt.assert_array_equal(p.grad, np.zeros_like(p.grad))
        assert np.abs(model.interaction_classifier.proj.weight.grad).max() > 0

    def test_topology_variants_forward(self, tiny_dataset):
        for topology in ("merged", "interaction"):
            cfg = tiny_cfg(fusion=FusionSettings(topology=topology))
            model = MultimodalClassifier(cfg, vocab_size=len(tiny_dataset.vocab))
            batch = tiny_dataset.samples[:3]
            tb, ib = model.batches_for(batch, len(tiny_dataset.vocab))
            preds = model.forward_batch(tb, ib)
            assert preds["interaction"].probs.shape == (3, 3)


class TestDtype:
    """Modules are built float32; ``Module.astype`` is the one way to get a
    float64 model."""

    @pytest.mark.parametrize("modality, topology",
                             [("multimodal", t) for t in TOPOLOGIES]
                             + [("image", "hybrid"), ("text", "hybrid")])
    def test_float64_cast_trains_and_casts_back_bit_equal(self, tiny_dataset,
                                                          modality, topology):
        cfg = tiny_cfg(modality=modality, fusion=FusionSettings(topology=topology))
        vocab = len(tiny_dataset.vocab)
        fresh = MultimodalClassifier(cfg, vocab_size=vocab)
        assert {p.dtype for p in fresh.parameters()} == {np.dtype(np.float32)}

        model = MultimodalClassifier(cfg, vocab_size=vocab).astype(np.float64)
        assert {p.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        back = dict(MultimodalClassifier(cfg, vocab_size=vocab).astype(np.float64)
                    .astype(np.float32).named_parameters())
        assert list(back) == [n for n, _ in fresh.named_parameters()]
        for name, p in fresh.named_parameters():
            assert back[name].dtype == np.float32
            npt.assert_array_equal(back[name].data, p.data)

        # one training step, padded text rows and dropout included
        batch = tiny_dataset.split("train")[:8]
        tb, ib = model.batches_for(batch, vocab)
        preds = model.forward_batch(tb, ib, training=True, rng=np.random.default_rng(1))
        total, _ = model.loss(preds, labels_of(batch))
        assert total.dtype == np.float64
        model.zero_grad()
        backward(total)
        build_optimizer(model).step()
        for p in model.parameters():
            assert p.dtype == np.float64 and p.grad.dtype == np.float64


class TestTraining:
    def test_zero_learning_rate_leaves_parameters_unchanged(self, tiny_dataset):
        cfg = tiny_cfg(trainer=TrainerSettings(epochs=1, batch_size=8, lr_text=0.0,
                                               lr_image=0.0, lr_other=0.0,
                                               weight_decay=0.0))
        model = MultimodalClassifier(cfg, vocab_size=len(tiny_dataset.vocab))
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        train_model(model, tiny_dataset)
        for n, p in model.named_parameters():
            npt.assert_array_equal(p.data, before[n])

    def test_smoke_training_reduces_loss(self, tiny_dataset):
        cfg = tiny_cfg(trainer=TrainerSettings(epochs=20, batch_size=8, lr_text=1e-3,
                                               lr_image=1e-3, lr_other=1e-3,
                                               weight_decay=5e-4))
        model = MultimodalClassifier(cfg, vocab_size=len(tiny_dataset.vocab))
        history = train_model(model, tiny_dataset)
        assert history[-1].total < history[0].total

    def test_identical_seeds_identical_histories(self, tiny_dataset):
        def run():
            model = MultimodalClassifier(tiny_cfg(), vocab_size=len(tiny_dataset.vocab))
            return train_model(model, tiny_dataset)

        h1, h2 = run(), run()
        assert [b.total for b in h1] == [b.total for b in h2]

    @pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
    def test_training_without_mallopt_matches(self, tiny_dataset, monkeypatch, libc):
        """Where the allocator call cannot be made, training runs unchanged."""
        def run():
            model = MultimodalClassifier(tiny_cfg(), vocab_size=len(tiny_dataset.vocab))
            return train_model(model, tiny_dataset)

        def cdll(name, *args, **kwargs):
            if libc == "unloadable":
                raise OSError("no C library")
            return types.SimpleNamespace()

        monkeypatch.setattr(train_mod.ctypes, "CDLL", cdll)
        train_mod._keep_freed_heap_pages.cache_clear()
        try:
            patched = run()
            assert train_mod._keep_freed_heap_pages() is False
        finally:
            monkeypatch.undo()
            train_mod._keep_freed_heap_pages.cache_clear()
        assert patched == run()

    def test_nan_parameters_abort_with_step_index(self, tiny_dataset):
        model = MultimodalClassifier(tiny_cfg(), vocab_size=len(tiny_dataset.vocab))
        model.interaction_classifier.proj.weight.data[:] = np.nan
        with pytest.raises(TrainingDiverged, match="step 1"):
            train_model(model, tiny_dataset)

    def test_optimizer_covers_exactly_loss_parameters(self, tiny_dataset):
        model = MultimodalClassifier(tiny_cfg(), vocab_size=len(tiny_dataset.vocab))
        opt = build_optimizer(model)
        opt_names = {n for g in opt.groups for n, _ in g["params"]}
        assert opt_names == {n for n, _ in model.named_parameters()}

    def test_unimodal_training_and_eval(self, tiny_dataset):
        for modality in ("image", "text"):
            cfg = tiny_cfg(modality=modality)
            model = MultimodalClassifier(cfg, vocab_size=len(tiny_dataset.vocab))
            history = train_model(model, tiny_dataset)
            assert len(history) == 2
            report = evaluate_metrics(model, tiny_dataset.split("test"),
                                      len(tiny_dataset.vocab), 3)
            assert 0.0 <= report.accuracy <= 1.0


def interior_nodes(loss):
    """Op results reachable from ``loss`` (parameters and inputs excluded)."""
    seen, stack, count = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            count += t._backward is not None
            stack.extend(t._parents)
    return count


def default_training_step(cfg=None):
    """(model, loss) of one training step of ``cfg`` (the default config),
    before backward."""
    cfg = RunConfig() if cfg is None else cfg
    ds = generate(cfg.data)
    model = MultimodalClassifier(cfg, vocab_size=len(ds.vocab))
    batch = ds.split("train")[:cfg.trainer.batch_size]
    tb, ib = model.batches_for(batch, len(ds.vocab))
    preds = model.forward_batch(tb, ib, training=True, rng=np.random.default_rng(0))
    total, _ = model.loss(preds, labels_of(batch))
    return model, total


def vertices_below(loss):
    """Every vertex ``backward`` visits below the loss tensor."""
    seen, stack = {}, [p for p in loss._parents if p.requires_grad]
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            stack.extend(p for p in v._parents if p.requires_grad)
    return list(seen.values())


def closure_values(fn):
    """Values held by ``fn``'s closure cells, following nested functions."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        yield value
        if isinstance(value, types.FunctionType):
            yield from closure_values(value)


def held_arrays(fn):
    """Every array ``fn``'s closure holds, also inside tuples and lists."""
    stack = list(closure_values(fn))
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            stack.extend(value)


def owner(a):
    """The array that owns ``a``'s memory: ``a``, or the base of a view."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


# op nodes of one default-config training step
DEFAULT_STEP_NODES = 100


class TestGraph:
    def test_default_training_step_graph(self):
        model, total = default_training_step()
        # linear, ffn, masked_mean and attention (its q/k/v/o projections
        # included) each record one node
        assert interior_nodes(total) == DEFAULT_STEP_NODES
        backward(total)
        params = list(model.parameters())
        assert all(p.grad is not None for p in params)
        assert sum(p.grad.size for p in params) == model.parameter_count()

    def test_graph_holds_no_op_results(self):
        """A vertex keeps no data and a closure no operand tensor, so an op
        result that no backward reads dies with its last forward reference."""
        model, total = default_training_step()
        vertices = vertices_below(total)
        params = {id(p) for p in model.parameters()}
        interior = [v for v in vertices if v._backward is not None]
        assert len(interior) + 1 == DEFAULT_STEP_NODES
        assert {id(v) for v in vertices if v._backward is None} <= params
        for v in interior:
            assert not hasattr(v, "data"), v._backward.__qualname__
        for fn in [total._backward] + [v._backward for v in interior]:
            held = [x for x in closure_values(fn) if isinstance(x, Tensor)]
            assert not held, (fn.__qualname__, held)

    def test_memory_census(self, monkeypatch):
        """The arrays the step graph's closures hold, beyond the parameters,
        add up to a pinned byte count, and none is a layer_norm result's
        data: a node fed one keeps the layer_norm's xhat instead. None is a
        feed-forward hidden layer either: at a width no other array of the
        step has, no held array is that wide."""
        ln_results, layer_norm = [], T.layer_norm

        def recording(*args):
            ln_results.append(layer_norm(*args))
            return ln_results[-1]

        def held_beyond_parameters(model, total):
            arrays = [a for v in [total] + vertices_below(total) if v._backward is not None
                      for a in held_arrays(v._backward)]
            params = {id(p.data) for p in model.parameters()}
            return arrays, [a for a in arrays if id(owner(a)) not in params]

        monkeypatch.setattr(T, "layer_norm", recording)
        model, total = default_training_step()
        assert len(ln_results) == 12
        arrays, held = held_beyond_parameters(model, total)
        assert not {id(t.data) for t in ln_results} & {id(a) for a in arrays}
        owners = {id(owner(a)): owner(a) for a in held}
        assert sum(a.nbytes for a in owners.values()) == 322_816

        cfg = RunConfig()
        cfg.text_encoder.ffn_width = cfg.image_encoder.ffn_width = 48
        model, total = default_training_step(cfg)
        assert any(p.shape == (32, 48) for p in model.parameters())
        assert not [a.shape for a in held_beyond_parameters(model, total)[1]
                    if a.shape[-1:] == (48,)]

    def test_bench_tracer_reads_the_graph(self, monkeypatch):
        """The per-layer benchmark's census (``perfbench/tracer.py``, imported
        the way ``perfbench/run.py`` imports it) sees today's counts."""
        monkeypatch.syspath_prepend(PERFBENCH)
        import tracer
        model, total = default_training_step()
        nodes = tracer.reachable([total])
        interior = [n for n in nodes if n._backward is not None]
        assert len(interior) == DEFAULT_STEP_NODES
        assert tracer.op_census(interior) == {
            "add": 20, "clip_min": 3, "concat": 5, "conv1d": 3,
            "elastic_net_channel": 2, "embedding": 1, "layer_norm": 12, "log": 3,
            "max_pool": 3, "mean_pool": 1, "mul": 2, "narrow": 3, "other": 21,
            "pick": 3, "relu": 2, "reshape": 5, "scale": 5, "softmax": 3, "tsum": 3}
        backward(total)
        grads = [n.grad for n in nodes if n.grad is not None]
        params = list(model.parameters())
        assert len(grads) == len(params) == 97
        assert sum(g.nbytes for g in grads) == 233_840
        assert {id(g) for g in grads} == {id(p.grad) for p in params}

    def test_bench_hooks_find_and_restore_every_attribute(self, monkeypatch):
        """The benchmark's hooks (``perfbench/tracer.py``) wrap attributes of
        the package by name: installing them finds every one, and ``restore``
        puts each original back."""
        monkeypatch.syspath_prepend(PERFBENCH)
        import tracer
        patches = tracer.Patches()
        try:
            tracer.Tracer().install(patches)
            tracer.StepClock().install(patches)
            originals = {}
            for owner, name, original in patches._undo:
                originals.setdefault((owner, name), original)
            assert originals
            for (owner, name), original in originals.items():
                assert getattr(owner, name) is not original, (owner, name)
        finally:
            patches.restore()
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is original, (owner, name)

    def test_evaluate_matches_grad_mode_forward_and_builds_no_graph(self, tiny_dataset):
        model = MultimodalClassifier(tiny_cfg(), vocab_size=len(tiny_dataset.vocab))
        samples = tiny_dataset.split("test")
        seen = []
        model.predict_probs = lambda preds: (
            seen.append(preds), MultimodalClassifier.predict_probs(model, preds))[1]
        probs, _ = evaluate(model, samples, len(tiny_dataset.vocab), batch_size=len(samples))
        assert all(not p.probs.requires_grad and p.probs._backward is None
                   for p in seen[0].values())
        tb, ib = model.batches_for(samples, len(tiny_dataset.vocab))
        preds = model.forward_batch(tb, ib)
        assert all(p.probs.requires_grad for p in preds.values())
        assert np.array_equal(probs, MultimodalClassifier.predict_probs(model, preds)[0])
