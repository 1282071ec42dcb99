"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured numbers (run with ``pytest -v -s`` to see them inline)."""

import csv
import json
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

from mmfusion import tensor as T
from mmfusion.bench import bench_attention, topology_parameter_count, \
    FULL_SCALE_REFERENCE
from mmfusion.checkpoint import load_checkpoint, save_checkpoint
from mmfusion.cli import main
from mmfusion.data import SyntheticSpec, generate, labels_of, load_dataset, \
    save_dataset
from mmfusion.decision import BranchPrediction, combined_loss, weighted_vote
from mmfusion.fusion import dropout_channel, elastic_net_channel
from mmfusion.gradcheck import finite_diff_check
from mmfusion.metrics import compute_metrics
from mmfusion.model import (DecisionSettings, EncoderConfig, FusionSettings,
                            MultimodalClassifier, RunConfig, TrainerSettings)
from mmfusion.tensor import Tensor, backward
from mmfusion.train import evaluate_metrics, train_model


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def probe(rng, shape):
    return Tensor(rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------

def _op_cases(rng):
    """(name, f, x) triples: f is scalar-valued, x the checked tensor.

    Every random constant is hoisted out of the lambdas so f is a pure,
    deterministic function of x; inputs stay away from kinks where relevant.
    """
    x34 = rng.standard_normal((3, 4))
    w34 = probe(rng, (3, 4))
    other = t64(rng.standard_normal((3, 4)))
    m43 = t64(rng.standard_normal((4, 3)))
    b334 = t64(rng.standard_normal((3, 3, 4)))
    w33 = probe(rng, (3, 3))
    w334 = probe(rng, (3, 3, 4))
    w4 = probe(rng, (4,))
    w3 = probe(rng, (3,))
    w38 = probe(rng, (3, 8))
    w43 = probe(rng, (4, 3))
    w32 = probe(rng, (3, 2))
    w224 = probe(rng, (2, 2, 4))
    w233 = probe(rng, (2, 3, 3))
    gain = t64(rng.standard_normal(4))
    bias_ln = t64(rng.standard_normal(4))
    conv_w = t64(rng.standard_normal((8, 3)))
    conv_b = t64(rng.standard_normal(3))
    ids = np.array([[0, 2], [1, 2]])
    cases = [
        ("add", lambda v: T.tsum(T.mul(T.add(v, other), w34)), t64(x34, True)),
        ("add_bias", lambda v: T.tsum(T.mul(T.add(other, v), w34)),
         t64(rng.standard_normal(4), True)),
        ("mul", lambda v: T.tsum(T.mul(T.mul(v, other), w34)), t64(x34, True)),
        ("scale", lambda v: T.tsum(T.mul(T.scale(v, -1.7), w34)), t64(x34, True)),
        ("matmul", lambda v: T.tsum(T.mul(T.matmul(v, m43), w33)), t64(x34, True)),
        ("bmm", lambda v: T.tsum(T.mul(T.bmm(v, b334), w334)),
         t64(rng.standard_normal((3, 3, 3)), True)),
        ("relu", lambda v: T.tsum(T.mul(T.relu(v), w34)),
         t64(np.where(np.abs(x34) < 1e-3, 0.1, x34), True)),
        ("log", lambda v: T.tsum(T.mul(T.log(v), w34)),
         t64(np.abs(x34) + 0.5, True)),
        ("clip_min", lambda v: T.tsum(T.mul(T.clip_min(v, 0.0), w34)),
         t64(np.where(np.abs(x34) < 1e-3, 0.1, x34), True)),
        ("softmax", lambda v: T.tsum(T.mul(T.softmax(v, axis=1), w34)),
         t64(x34, True)),
        ("layer_norm", lambda v: T.tsum(T.mul(T.layer_norm(v, gain, bias_ln), w34)),
         t64(x34, True)),
        ("conv1d", lambda v: T.tsum(T.mul(T.conv1d(v, conv_w, conv_b, 2), w233)),
         t64(rng.standard_normal((2, 4, 4)), True)),
        ("mean_pool", lambda v: T.tsum(T.mul(T.mean_pool(v, 0), w4)),
         t64(x34, True)),
        ("max_pool", lambda v: T.tsum(T.mul(T.max_pool(v, 1), w3)),
         t64(x34 + np.arange(4) * 3.0, True)),   # spread avoids argmax flips
        ("tsum_axis", lambda v: T.tsum(T.mul(T.tsum(v, 1), w3)), t64(x34, True)),
        ("concat", lambda v: T.tsum(T.mul(T.concat([v, other], 1), w38)),
         t64(x34, True)),
        ("reshape", lambda v: T.tsum(T.mul(T.reshape(v, (4, 3)), w43)),
         t64(x34, True)),
        ("transpose", lambda v: T.tsum(T.mul(T.transpose(v, (1, 0)), w43)),
         t64(x34, True)),
        ("narrow", lambda v: T.tsum(T.mul(T.narrow(v, 1, 1, 2), w32)),
         t64(x34, True)),
        ("embedding", lambda v: T.tsum(T.mul(T.embedding(v, ids), w224)),
         t64(rng.standard_normal((3, 4)), True)),
        ("pick", lambda v: T.tsum(T.pick(v, np.array([1, 3, 0]))), t64(x34, True)),
        ("elastic_net", lambda v: T.tsum(T.mul(elastic_net_channel(v, 0.4, 0.3), w34)),
         t64(np.where(np.abs(np.abs(x34) - 0.2) < 1e-3, 1.0, x34), True)),
    ]
    return cases


def _tiny_multimodal(dtype=np.float64):
    spec = SyntheticSpec(n_classes=3, samples_per_class=4, image_size=4, patch_size=2,
                         vocab_size=12, sentence_len=(3, 4), noise_level=0.0, seed=3)
    ds = generate(spec)
    cfg = RunConfig(
        text_encoder=EncoderConfig(d_model=8, n_heads=2, n_layers=1, ffn_width=16,
                                   embedding_dim=8, share_layers=True, max_len=8),
        image_encoder=EncoderConfig(d_model=8, n_heads=2, n_layers=1, ffn_width=16,
                                    embedding_dim=8, share_layers=False, max_len=8),
        fusion=FusionSettings(p=1.0, alpha=0.02, beta=0.1),
        data=spec, seed=3)
    model = MultimodalClassifier(cfg, vocab_size=len(ds.vocab)).astype(dtype)
    return model, ds


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    worst_op = ("", 0.0)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for name, f, x in _op_cases(rng):
            err = finite_diff_check(f, x, h=1e-5)
            if err > worst_op[1]:
                worst_op = (f"{name}@seed{seed}", err)
            assert err < 1e-4, f"{name} seed {seed}: {err}"

    model, ds = _tiny_multimodal()
    # production init is ~0.02-scale; attention-projection gradients then sit
    # at the central-difference noise floor. O(1) weights keep the check
    # about the composition's differentiation, which is what matters here.
    reseed = np.random.default_rng(99)
    for _name, p in model.named_parameters():
        p.data = reseed.standard_normal(p.shape) * 0.4
    batch = ds.split("train")[:3]
    tb, ib = model.batches_for(batch, len(ds.vocab))
    labels = labels_of(batch)

    def forward():
        preds = model.forward_batch(tb, ib, training=False)
        total, _ = model.loss(preds, labels)
        return total

    worst_param = ("", 0.0)
    for pname, p in model.named_parameters():
        err = finite_diff_check(lambda _v, f=forward: f(), p, h=1e-5)
        if err > worst_param[1]:
            worst_param = (pname, err)
        assert err < 1e-3, f"end-to-end {pname}: {err}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: ops worst {worst_op[0]}={worst_op[1]:.2e}, "
          f"end-to-end worst {worst_param[0]}={worst_param[1]:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: elastic-net oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_elastic_net_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    x = rng.uniform(-4.0, 4.0, n)
    alpha = rng.uniform(0.0, 3.0, n)
    beta = rng.uniform(0.0, 3.0, n)

    lo = -np.abs(x) - 1.0
    hi = np.abs(x) + 1.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        f1 = (m1 - x) ** 2 + alpha * np.abs(m1) + beta * m1 * m1
        f2 = (m2 - x) ** 2 + alpha * np.abs(m2) + beta * m2 * m2
        left = f1 < f2
        hi = np.where(left, m2, hi)
        lo = np.where(left, lo, m1)
    numeric = (lo + hi) / 2

    got = elastic_net_channel(t64(x), 0.0, 0.0)  # warm the path
    worst = 0.0
    for i in range(0, n, 2000):
        sl = slice(i, i + 2000)
        # alpha/beta vary per element: apply elementwise via scalar calls on
        # chunked uniform coefficients would change semantics, so evaluate
        # the closed form directly per chunk
        out = np.array([
            elastic_net_channel(t64([x[j]]), alpha[j], beta[j]).data[0]
            for j in range(sl.start, sl.stop)])
        worst = max(worst, float(np.abs(out - numeric[sl]).max()))
    elapsed = time.perf_counter() - started
    assert worst < 1e-6, worst
    assert elapsed < 10.0, f"elastic-net oracle took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: max |closed-form - ternary minimizer| = "
          f"{worst:.2e} over {n} triples, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: dropout contract
# ---------------------------------------------------------------------------

def test_criterion_3_dropout_contract():
    x = t64([2.0, -1.5, 0.75, 3.25])
    for p in (0.3, 0.5, 0.9):
        out = dropout_channel(x, p, mode="inference")
        assert out is x  # exact identity, not a copy

    # the channel is elementwise, so one tiled batch yields 1e5 independent
    # draws per element in a single training-mode pass
    draws = 100_000
    worst = 0.0
    for p in (0.3, 0.5, 0.9):
        rng = np.random.default_rng([1, int(p * 10)])
        tiled = Tensor(np.tile(x.data, (draws, 1)))
        out = dropout_channel(tiled, p, mode="training", rng=rng)
        mean = out.data.mean(axis=0)
        rel = np.abs(mean - x.data) / np.abs(x.data)
        worst = max(worst, float(rel.max()))
        assert rel.max() < 0.01, f"p={p}: {rel.max()}"
    print(f"\nACCEPTANCE 3 PASS: inference identity exact; worst Monte-Carlo "
          f"relative deviation {worst:.4f} at {draws} draws")


# ---------------------------------------------------------------------------
# criterion 4: loss structure
# ---------------------------------------------------------------------------

def test_criterion_4_loss_structure():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        lt, lh, li = (float(v) for v in rng.uniform(0.01, 3.0, 3))
        gammas = rng.uniform(0.0, 0.5, 3)
        gammas.sort()
        vals = []
        for g in gammas:
            total, bd = combined_loss(t64([lt]), t64([lh]), t64([li]), float(g))
            assert bd.total == (1 - g) * lh + g * (lt + li)
            vals.append(total.item())
        # affine check: value at middle gamma interpolates the endpoints
        g0, g1, g2 = gammas
        if g2 > g0:
            lam = (g1 - g0) / (g2 - g0)
            interp = (1 - lam) * vals[0] + lam * vals[2]
            worst = max(worst, abs(vals[1] - interp))
    assert worst < 1e-12, worst

    total, bd = combined_loss(t64([0.9]), t64([1.7]), t64([0.2]), 0.0)
    assert total.item() == 1.7 and bd.total == 1.7

    model, ds = _tiny_multimodal(dtype=np.float32)
    model.cfg.decision.gamma = 0.0
    batch = ds.split("train")[:6]
    tb, ib = model.batches_for(batch, len(ds.vocab))
    preds = model.forward_batch(tb, ib)
    total, _ = model.loss(preds, labels_of(batch))
    model.zero_grad()
    backward(total)
    for clf in (model.text_classifier, model.image_classifier):
        for _, p in clf.named_parameters():
            npt.assert_array_equal(p.grad, np.zeros_like(p.grad))
    assert np.abs(model.interaction_classifier.proj.weight.grad).max() > 0
    print(f"\nACCEPTANCE 4 PASS: affinity deviation {worst:.2e}; gamma=0 total "
          f"== interaction loss; unimodal classifier gradients identically zero")


# ---------------------------------------------------------------------------
# criterion 5: voting invariants
# ---------------------------------------------------------------------------

def _pred(probs, branch):
    probs = np.asarray(probs, dtype=np.float64)
    return BranchPrediction(logits=Tensor(probs), probs=Tensor(probs), branch=branch)


def test_criterion_5_voting_invariants():
    rng = np.random.default_rng(11)
    for _ in range(10):
        batch = 1000
        preds = []
        for b in ("text", "interaction", "image"):
            raw = rng.random((batch, 5)) + 1e-12
            preds.append(_pred(raw / raw.sum(axis=1, keepdims=True), b))
        for strategy in ("confidence", "uniform"):
            fused, w = weighted_vote(preds, strategy)
            assert np.all(fused >= 0)
            npt.assert_allclose(fused.sum(axis=1), np.ones(batch), atol=1e-9)
            assert abs(sum(w.weights.values()) - 1.0) < 1e-9

    # exhaustive unanimous-argmax agreement, 3-class simplex grid step 0.05
    step = 0.05
    n = int(round(1 / step))
    pts = np.array([(i * step, j * step, 1.0 - i * step - j * step)
                    for i in range(n + 1) for j in range(n + 1 - i)])
    arg = np.argmax(pts, axis=1)
    checked = 0
    for c in range(3):
        members = pts[arg == c]
        k = len(members)
        ii, jj, kk = np.meshgrid(np.arange(k), np.arange(k), np.arange(k),
                                 indexing="ij")
        a = members[ii.ravel()]
        b = members[jj.ravel()]
        d = members[kk.ravel()]
        for strategy in ("confidence", "uniform"):
            for start in range(0, len(a), 200_000):
                sl = slice(start, start + 200_000)
                fused, _ = weighted_vote(
                    [_pred(a[sl], "text"), _pred(b[sl], "interaction"),
                     _pred(d[sl], "image")], strategy)
                assert np.all(np.argmax(fused, axis=1) == c), f"class {c} {strategy}"
            checked += len(a)
    print(f"\nACCEPTANCE 5 PASS: simplex validity on 1e4+ random triples; "
          f"unanimity preserved on {checked} exhaustive grid triples")


# ---------------------------------------------------------------------------
# criteria 6 & 7: accuracy orderings on the synthetic task
# ---------------------------------------------------------------------------

def _toy_encoders(max_len_text=20):
    return (EncoderConfig(d_model=32, n_heads=2, n_layers=1, ffn_width=64,
                          embedding_dim=16, share_layers=True, max_len=max_len_text),
            EncoderConfig(d_model=32, n_heads=2, n_layers=1, ffn_width=64,
                          embedding_dim=32, share_layers=False, max_len=64))


def _toy_trainer(epochs):
    # uniform desk-scale learning rate: the grouped full-scale defaults are
    # tuned for pretrained encoders and undertrain from-scratch baselines
    return TrainerSettings(epochs=epochs, batch_size=8, lr_text=1e-3, lr_image=1e-3,
                           lr_other=1e-3, weight_decay=5e-4)


def _train_and_score(cfg, ds):
    model = MultimodalClassifier(cfg, vocab_size=len(ds.vocab))
    train_model(model, ds)
    report = evaluate_metrics(model, ds.split("test"), len(ds.vocab),
                              ds.n_classes)
    return report.accuracy


def test_criterion_6_multimodal_beats_unimodal():
    started = time.perf_counter()
    spec = SyntheticSpec(n_classes=4, samples_per_class=60, image_size=32,
                         patch_size=8, vocab_size=32, sentence_len=(4, 8),
                         image_informativeness=0.5, text_informativeness=0.5,
                         noise_level=0.05, seed=0)
    ds = generate(spec)
    assert ds.self_check["bimodal_rule_accuracy"] == 1.0
    assert ds.self_check["image_rule_accuracy"] <= 0.75
    assert ds.self_check["text_rule_accuracy"] <= 0.75

    text_enc, image_enc = _toy_encoders()
    means = {}
    for modality in ("multimodal", "image", "text"):
        accs = []
        for seed in (0, 1, 2):
            cfg = RunConfig(text_encoder=text_enc, image_encoder=image_enc,
                            trainer=_toy_trainer(30), data=spec,
                            modality=modality, seed=seed)
            accs.append(_train_and_score(cfg, ds))
        means[modality] = float(np.mean(accs))
    elapsed = time.perf_counter() - started
    margin_image = (means["multimodal"] - means["image"]) * 100
    margin_text = (means["multimodal"] - means["text"]) * 100
    assert margin_image >= 5.0, means
    assert margin_text >= 5.0, means
    assert elapsed < 600.0, f"trend runs took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 6 PASS: multimodal {means['multimodal']:.3f} vs image "
          f"{means['image']:.3f} (+{margin_image:.1f}pt) and text "
          f"{means['text']:.3f} (+{margin_text:.1f}pt), 3 seeds, {elapsed:.0f}s")


def test_criterion_7_all_modules_beat_no_modules():
    started = time.perf_counter()
    spec = SyntheticSpec(n_classes=6, samples_per_class=24, image_size=32,
                         patch_size=8, vocab_size=40, sentence_len=(8, 14),
                         noise_level=0.1, seed=0)
    ds = generate(spec)
    text_enc, image_enc = _toy_encoders()

    def mean_acc(all_on):
        accs = []
        for seed in (0, 1, 2):
            cfg = RunConfig(
                text_encoder=text_enc, image_encoder=image_enc,
                fusion=FusionSettings(use_hybrid_attention=all_on,
                                      use_reg_channels=all_on),
                decision=DecisionSettings(gamma=0.1 if all_on else 0.0),
                trainer=_toy_trainer(50), data=spec, seed=seed)
            accs.append(_train_and_score(cfg, ds))
        return float(np.mean(accs))

    on = mean_acc(True)
    off = mean_acc(False)
    elapsed = time.perf_counter() - started
    assert on >= off, (on, off)
    print(f"\nACCEPTANCE 7 PASS: all-modules {on:.3f} >= no-modules {off:.3f} "
          f"over 3 seeds ({elapsed:.0f}s); the full-scale 1.34pt gap is not a target")


# ---------------------------------------------------------------------------
# criterion 8: gamma sweep artifact
# ---------------------------------------------------------------------------

def test_criterion_8_gamma_sweep_artifact(tmp_path):
    config = {
        "text_encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_width": 32,
                         "embedding_dim": 8, "share_layers": True, "max_len": 16},
        "image_encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_width": 32,
                          "embedding_dim": 16, "share_layers": False, "max_len": 32},
        "trainer": {"epochs": 2, "batch_size": 8, "lr_text": 1e-3, "lr_image": 1e-3,
                    "lr_other": 1e-3, "weight_decay": 5e-4},
        "data": {"n_classes": 3, "samples_per_class": 10, "image_size": 8,
                 "patch_size": 4, "vocab_size": 16, "sentence_len": [3, 5],
                 "noise_level": 0.0, "seed": 0},
        "seed": 0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = str(tmp_path / "sweep")
    assert main(["gamma-sweep", "--config", str(cfg_path), "--out", out]) == 0
    with open(os.path.join(out, "gamma_sweep.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["gamma"]) for r in rows] == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    for r in rows:
        assert r["error"] == ""
        assert 0.0 <= float(r["accuracy"]) <= 1.0
        assert 0.0 <= float(r["macro_F1"]) <= 1.0
    print("\nACCEPTANCE 8 PASS: full gamma grid executed, well-formed 6-row CSV; "
          "no winner asserted at toy scale")


# ---------------------------------------------------------------------------
# criterion 9: metrics oracle
# ---------------------------------------------------------------------------

def test_criterion_9_metrics_oracle():
    rng = np.random.default_rng(17)
    for trial in range(200):
        n_cls = int(rng.integers(2, 7))
        n = int(rng.integers(5, 80))
        labels = rng.integers(0, n_cls, n)
        pred = rng.integers(0, n_cls, n)
        raw = rng.random((n, n_cls)) * 0.5
        raw[np.arange(n), pred] += 1.0
        probs = raw / raw.sum(axis=1, keepdims=True)
        report = compute_metrics(probs, labels, n_classes=n_cls)

        m = [[0] * n_cls for _ in range(n_cls)]
        for p_i, t_i in zip(pred, labels):
            m[t_i][p_i] += 1
        assert report.confusion.tolist() == m
        correct = sum(m[i][i] for i in range(n_cls))
        assert abs(report.accuracy - correct / n) < 1e-9
        precision, recall = [], []
        for c in range(n_cls):
            pc = sum(m[r][c] for r in range(n_cls))
            tc = sum(m[c])
            precision.append(m[c][c] / pc if pc else 0.0)
            recall.append(m[c][c] / tc if tc else 0.0)
        assert np.allclose(report.per_class_precision, precision, atol=1e-9)
        assert np.allclose(report.per_class_recall, recall, atol=1e-9)
        mp, mr = float(np.mean(precision)), float(np.mean(recall))
        f1 = 0.0 if mp + mr == 0 else 2 * mp * mr / (mp + mr)
        assert abs(report.macro_f1 - f1) < 1e-9
    print("\nACCEPTANCE 9 PASS: confusion/accuracy exact and P/R/F1 within 1e-9 "
          "of brute-force recounts on 200 random prediction sets")


# ---------------------------------------------------------------------------
# criterion 10: topology bench
# ---------------------------------------------------------------------------

def test_criterion_10_topology_bench():
    d, heads, ffn = 32, 2, 64
    rows = bench_attention(d=d, n_heads=heads, ffn_width=ffn, batch=8,
                           repeats=12, seed=0)
    by_name = {r["topology"]: r for r in rows}
    for topology in ("hybrid", "merged", "interaction"):
        expect = topology_parameter_count(topology, d, ffn)
        assert by_name[topology]["parameters"] == expect, topology
        assert by_name[topology]["median_ms"] > 0.0
    # full-scale numbers are recorded as reference, never asserted as targets
    assert FULL_SCALE_REFERENCE["latency_ms"]["hybrid"] == 11.25
    assert FULL_SCALE_REFERENCE["parameters_M"] == {
        "merged": 14.67, "interaction": 19.89, "hybrid": 22.34}
    print(f"\nACCEPTANCE 10 PASS: parameter counts exact "
          f"({ {k: v['parameters'] for k, v in by_name.items()} }), medians "
          f"nonzero; full-scale values documented as non-reproducible reference")


# ---------------------------------------------------------------------------
# criterion 11: train determinism through the CLI
# ---------------------------------------------------------------------------

def test_criterion_11_train_determinism(tmp_path):
    config = {
        "trainer": {"epochs": 3, "batch_size": 8, "lr_text": 1e-3, "lr_image": 1e-3,
                    "lr_other": 1e-3, "weight_decay": 5e-4},
        "data": {"n_classes": 3, "samples_per_class": 12, "image_size": 8,
                 "patch_size": 4, "vocab_size": 16, "sentence_len": [3, 5],
                 "noise_level": 0.1, "seed": 1},
        "text_encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_width": 32,
                         "embedding_dim": 8, "share_layers": True, "max_len": 16},
        "image_encoder": {"d_model": 16, "n_heads": 2, "n_layers": 1, "ffn_width": 32,
                          "embedding_dim": 16, "share_layers": False, "max_len": 32},
        "seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert main(["train", "--config", str(cfg_path), "--out", out]) == 0
        outs.append(out)
    h1 = open(os.path.join(outs[0], "loss_history.csv"), "rb").read()
    h2 = open(os.path.join(outs[1], "loss_history.csv"), "rb").read()
    assert h1 == h2
    print("\nACCEPTANCE 11 PASS: two seeded `train` invocations produced "
          "byte-identical loss histories")


# ---------------------------------------------------------------------------
# criterion 12: serialization round-trips
# ---------------------------------------------------------------------------

def test_criterion_12_serialization_round_trips(tmp_path):
    spec = SyntheticSpec(n_classes=3, samples_per_class=8, image_size=8,
                         patch_size=4, vocab_size=16, sentence_len=(3, 5),
                         noise_level=0.2, seed=9)
    ds = generate(spec)
    ds_dir = tmp_path / "ds"
    save_dataset(ds, ds_dir)
    back = load_dataset(ds_dir)
    assert back.spec == ds.spec and back.vocab == ds.vocab
    for a, b in zip(ds.samples, back.samples):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.tokens == b.tokens and a.label == b.label and a.split == b.split

    # saving the reloaded dataset reproduces the files byte-for-byte
    ds_dir2 = tmp_path / "ds2"
    save_dataset(back, ds_dir2)
    assert (ds_dir / "images.bin").read_bytes() == (ds_dir2 / "images.bin").read_bytes()
    assert (ds_dir / "dataset.json").read_bytes() == (ds_dir2 / "dataset.json").read_bytes()

    model, _ = _tiny_multimodal(dtype=np.float32)
    ck1 = tmp_path / "ck1"
    save_checkpoint(model.named_parameters(), ck1)
    loaded = load_checkpoint(ck1)
    for name, p in model.named_parameters():
        assert loaded[name].tobytes() == p.data.tobytes(), name
    ck2 = tmp_path / "ck2"
    for name, p in model.named_parameters():
        p.data = loaded[name]
    save_checkpoint(model.named_parameters(), ck2)
    assert (ck1 / "weights.bin").read_bytes() == (ck2 / "weights.bin").read_bytes()
    assert (ck1 / "manifest.json").read_bytes() == (ck2 / "manifest.json").read_bytes()
    print("\nACCEPTANCE 12 PASS: dataset and checkpoint round-trips bit-exact")
