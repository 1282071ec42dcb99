import numpy as np
import numpy.testing as npt
import pytest

from mmfusion import tensor as T
from mmfusion.decision import (BranchClassifier, BranchPrediction, combined_loss,
                               cross_entropy, weighted_vote)
from mmfusion.tensor import Tensor, backward


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def make_pred(probs, branch):
    probs = np.asarray(probs, dtype=np.float64)
    return BranchPrediction(logits=Tensor(np.log(np.maximum(probs, 1e-12))),
                            probs=Tensor(probs), branch=branch)


class TestBranchClassifier:
    def test_zero_weights_give_uniform_distribution(self):
        clf = BranchClassifier(3, 4, "text", np.random.default_rng(0)).astype(np.float64)
        for p in clf.parameters():
            p.data = np.zeros_like(p.data)
        out = clf(t64(np.random.default_rng(1).standard_normal((2, 3))))
        npt.assert_allclose(out.probs.data, np.full((2, 4), 0.25), atol=1e-12)

    def test_argmax_preserved_by_softmax(self):
        clf = BranchClassifier(3, 5, "image", np.random.default_rng(2)).astype(np.float64)
        x = t64(np.random.default_rng(3).standard_normal((6, 3)))
        out = clf(x)
        npt.assert_array_equal(np.argmax(out.probs.data, axis=1),
                               np.argmax(out.logits.data, axis=1))

    def test_probs_match_exp_sum_oracle(self):
        clf = BranchClassifier(3, 4, "interaction",
                               np.random.default_rng(4)).astype(np.float64)
        x = t64(np.random.default_rng(5).standard_normal((3, 3)))
        out = clf(x)
        e = np.exp(out.logits.data)
        npt.assert_allclose(out.probs.data, e / e.sum(axis=1, keepdims=True), atol=1e-7)

    def test_width_mismatch(self):
        clf = BranchClassifier(3, 4, "text", np.random.default_rng(6))
        with pytest.raises(T.ShapeError):
            clf(Tensor(np.zeros((2, 5), dtype=np.float32)))


class TestCrossEntropy:
    def test_uniform_probs_give_log_n(self):
        probs = t64(np.full((3, 4), 0.25))
        out = cross_entropy(probs, np.array([0, 1, 3]))
        npt.assert_allclose(out.item(), np.log(4.0), atol=1e-12)
        npt.assert_allclose(out.item(), 1.3863, atol=1e-4)

    def test_perfect_prediction_is_zero(self):
        probs = t64([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, np.array([0, 1])).item() == 0.0

    def test_batch_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(7)
        raw = rng.random((5, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 5)
        per_sample = [-np.log(probs[i, labels[i]]) for i in range(5)]
        out = cross_entropy(t64(probs), labels)
        npt.assert_allclose(out.item(), np.mean(per_sample), atol=1e-12)

    def test_nonnegative_and_zero_iff_certain(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            raw = rng.random((4, 3)) + 1e-3
            probs = raw / raw.sum(axis=1, keepdims=True)
            labels = rng.integers(0, 3, 4)
            assert cross_entropy(t64(probs), labels).item() > 0.0

    def test_label_out_of_range_names_index(self):
        probs = t64(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError, match="index 1"):
            cross_entropy(probs, np.array([0, 3]))


class TestCombinedLoss:
    def test_gamma_zero_keeps_only_interaction(self):
        lt, lh, li = t64([0.7]), t64([1.3]), t64([0.4])
        total, breakdown = combined_loss(lt, lh, li, 0.0)
        assert total.item() == lh.item()
        assert breakdown.total == breakdown.loss_interaction

    def test_arithmetic_case(self):
        total, bd = combined_loss(t64([1.0]), t64([1.0]), t64([1.0]), 0.5)
        npt.assert_allclose(total.item(), 1.5, atol=1e-15)

    def test_affine_in_gamma(self):
        rng = np.random.default_rng(9)
        lt, lh, li = (float(v) for v in rng.random(3))
        vals = {}
        for g in (0.0, 0.25, 0.5):
            total, _ = combined_loss(t64([lt]), t64([lh]), t64([li]), g)
            vals[g] = total.item()
        interpolated = (vals[0.0] + vals[0.5]) / 2
        assert abs(vals[0.25] - interpolated) < 1e-12

    def test_gamma_routing_of_gradients(self):
        lt = t64([0.7], requires_grad=True)
        lh = t64([1.3], requires_grad=True)
        li = t64([0.4], requires_grad=True)
        total, _ = combined_loss(lt, lh, li, 0.0)
        backward(total)
        npt.assert_array_equal(lt.grad, [0.0])
        npt.assert_array_equal(li.grad, [0.0])
        npt.assert_array_equal(lh.grad, [1.0])

    def test_range_validation_and_warning(self):
        one = t64([1.0])
        with pytest.raises(ValueError):
            combined_loss(one, one, one, -0.1)
        with pytest.raises(ValueError):
            combined_loss(one, one, one, 1.5)
        with pytest.warns(UserWarning, match="outside the studied range"):
            combined_loss(one, one, one, 0.8)


class TestWeightedVote:
    def test_identical_branches_fixed_point(self):
        probs = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        preds = [make_pred(probs, b) for b in ("text", "interaction", "image")]
        for strategy in ("confidence", "uniform"):
            fused, w = weighted_vote(preds, strategy)
            npt.assert_allclose(fused, probs, atol=1e-12)
            npt.assert_allclose(sum(w.weights.values()), 1.0, atol=1e-9)

    def test_two_thirds_majority(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        preds = [make_pred(a, "text"), make_pred(a, "interaction"), make_pred(b, "image")]
        fused, _ = weighted_vote(preds, "uniform")
        assert np.argmax(fused[0]) == 0
        npt.assert_allclose(fused[0], [2 / 3, 1 / 3], atol=1e-12)

    def test_unanimous_argmax_agreement_small_grid(self):
        # exhaustive over a coarse simplex grid: unanimity must survive fusion
        pts = []
        step = 0.25
        n = int(round(1 / step))
        for i in range(n + 1):
            for j in range(n + 1 - i):
                pts.append((i * step, j * step, 1 - i * step - j * step))
        pts = np.array(pts)
        arg = np.argmax(pts, axis=1)
        for strategy in ("confidence", "uniform"):
            for c in range(3):
                members = pts[arg == c]
                for x in members:
                    for y in members:
                        for z in members:
                            preds = [make_pred(x[None], "text"),
                                     make_pred(y[None], "interaction"),
                                     make_pred(z[None], "image")]
                            fused, _ = weighted_vote(preds, strategy)
                            assert np.argmax(fused[0]) == c

    def test_fused_rows_stay_on_simplex(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            preds = []
            for b in ("text", "interaction", "image"):
                raw = rng.random((4, 5)) + 1e-9
                preds.append(make_pred(raw / raw.sum(axis=1, keepdims=True), b))
            fused, _ = weighted_vote(preds, "confidence")
            assert np.all(fused >= 0)
            npt.assert_allclose(fused.sum(axis=1), np.ones(4), atol=1e-9)

    def test_mismatched_shapes_error(self):
        preds = [make_pred(np.full((1, 2), 0.5), "text"),
                 make_pred(np.full((2, 2), 0.5), "interaction"),
                 make_pred(np.full((1, 2), 0.5), "image")]
        with pytest.raises(T.ShapeError):
            weighted_vote(preds, "uniform")


def test_loss_breakdown_combine_formula():
    _, bd = combined_loss(t64([0.5]), t64([2.0]), t64([0.25]), 0.2)
    npt.assert_allclose(bd.total, 0.8 * 2.0 + 0.2 * 0.75, atol=1e-15)


def test_positive_logit_scaling_preserves_every_branch_argmax():
    rng = np.random.default_rng(11)
    clf = BranchClassifier(4, 5, "text", rng).astype(np.float64)
    x = t64(rng.standard_normal((8, 4)))
    base = clf(x)
    for c in (0.1, 3.0, 250.0):
        scaled = T.softmax(T.scale(base.logits, c), axis=-1)
        npt.assert_array_equal(np.argmax(scaled.data, axis=1),
                               np.argmax(base.probs.data, axis=1))
