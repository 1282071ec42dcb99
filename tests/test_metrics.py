import csv

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from mmfusion.metrics import compute_metrics, save_metrics


def brute_force_counts(pred, labels, n_cls):
    """Independent recount with plain python loops."""
    m = [[0] * n_cls for _ in range(n_cls)]
    for p, t in zip(pred, labels):
        m[t][p] += 1
    correct = sum(m[i][i] for i in range(n_cls))
    precision, recall = [], []
    for c in range(n_cls):
        pred_c = sum(m[r][c] for r in range(n_cls))
        true_c = sum(m[c])
        precision.append(m[c][c] / pred_c if pred_c else 0.0)
        recall.append(m[c][c] / true_c if true_c else 0.0)
    return np.array(m), correct / len(labels), precision, recall


def per_threshold_curve(scores, positive):
    """One class's PR curve recounted from scratch at every distinct score,
    highest first."""
    points = []
    for t in np.unique(scores)[::-1]:
        flagged = scores >= t
        tp = int(np.sum(flagged & positive))
        fp = int(np.sum(flagged & ~positive))
        fn = int(np.sum(~flagged & positive))
        prec = tp / (tp + fp) if tp + fp else 1.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        points.append((float(t), float(prec), float(rec)))
    return points


def probs_for(pred, n_cls, rng):
    """Random rows whose argmax is the requested prediction."""
    raw = rng.random((len(pred), n_cls)) * 0.5
    raw[np.arange(len(pred)), pred] += 1.0
    return raw / raw.sum(axis=1, keepdims=True)


def test_perfect_predictions():
    labels = np.array([0, 1, 2, 0, 1, 2])
    probs = np.eye(3)[labels] * 0.9 + 0.1 / 3
    report = compute_metrics(probs, labels)
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0


def test_known_two_class_confusion():
    # confusion [[3,1],[1,3]]: accuracy .75, both precisions .75
    labels = np.array([0] * 4 + [1] * 4)
    pred = np.array([0, 0, 0, 1, 1, 1, 1, 0])
    probs = np.zeros((8, 2))
    probs[np.arange(8), pred] = 1.0
    report = compute_metrics(probs, labels)
    npt.assert_array_equal(report.confusion, [[3, 1], [1, 3]])
    assert report.accuracy == 0.75
    npt.assert_allclose(report.per_class_precision, [0.75, 0.75])


def test_matches_brute_force_recount_on_random_sets():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n_cls = int(rng.integers(2, 6))
        n = int(rng.integers(10, 60))
        labels = rng.integers(0, n_cls, n)
        pred = rng.integers(0, n_cls, n)
        probs = probs_for(pred, n_cls, rng)
        report = compute_metrics(probs, labels, n_classes=n_cls)
        m, acc, precision, recall = brute_force_counts(pred, labels, n_cls)
        npt.assert_array_equal(report.confusion, m)
        assert abs(report.accuracy - acc) < 1e-9
        # degenerate classes are zeroed in the report and in the oracle alike
        npt.assert_allclose(report.per_class_precision, precision, atol=1e-9)
        npt.assert_allclose(report.per_class_recall, recall, atol=1e-9)
        mp, mr = np.mean(precision), np.mean(recall)
        f1 = 0.0 if mp + mr == 0 else 2 * mp * mr / (mp + mr)
        assert abs(report.macro_f1 - f1) < 1e-9


def test_confusion_entries_sum_to_sample_count():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, 40)
    pred = rng.integers(0, 3, 40)
    report = compute_metrics(probs_for(pred, 3, rng), labels, n_classes=3)
    assert report.confusion.sum() == 40


def test_absent_class_flagged_degenerate():
    labels = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 1])
    probs = np.zeros((4, 3))
    probs[np.arange(4), pred] = 1.0
    report = compute_metrics(probs, labels, n_classes=3)
    assert report.degenerate_classes == [2]
    assert report.per_class_precision[2] == 0.0


def test_argmax_tie_breaks_to_lowest_index():
    probs = np.array([[0.5, 0.5]])
    report = compute_metrics(probs, np.array([0]), n_classes=2)
    assert report.accuracy == 1.0


def test_pr_curve_precision_recall_bounds_and_monotone_recall():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, 50)
    pred = rng.integers(0, 3, 50)
    report = compute_metrics(probs_for(pred, 3, rng), labels, n_classes=3)
    for c, points in report.pr_curves.items():
        recalls = [r for _, _, r in points]
        assert all(0 <= p <= 1 and 0 <= r <= 1 for _, p, r in points)
        # thresholds descend, so recall is nondecreasing
        assert all(r2 >= r1 - 1e-12 for r1, r2 in zip(recalls, recalls[1:]))


def test_empty_evaluation_set_rejected():
    with pytest.raises(ValueError):
        compute_metrics(np.zeros((0, 3)), np.zeros(0, dtype=int))


def test_save_metrics_writes_json_and_csv(tmp_path):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 30)
    report = compute_metrics(probs_for(rng.integers(0, 3, 30), 3, rng), labels, 3)
    save_metrics(report, tmp_path)
    assert (tmp_path / "metrics.json").exists()
    with open(tmp_path / "pr_curve.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "threshold", "precision", "recall"]
    assert len(rows) > 1


@st.composite
def scored_sets(draw):
    """Score matrices in float32 or float64 whose entries often tie, with
    labels drawn from a subset of the classes, so some classes are absent."""
    n_cls = draw(st.integers(2, 5))
    n = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    entries = st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]) | st.floats(0, 1, width=32)
    probs = draw(hnp.arrays(dtype, (n, n_cls), elements=entries))
    present = draw(st.lists(st.integers(0, n_cls - 1), min_size=1, unique=True))
    labels = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)))
    return probs, labels, n_cls


@settings(deadline=None, max_examples=200)
@given(scored_sets())
def test_equals_per_threshold_recount(case):
    probs, labels, n_cls = case
    report = compute_metrics(probs, labels, n_classes=n_cls)
    m, _, precision, recall = brute_force_counts(np.argmax(probs, axis=1), labels, n_cls)
    assert report.per_class_precision == precision
    assert report.per_class_recall == recall
    assert report.degenerate_classes == [
        c for c in range(n_cls) if m[:, c].sum() == 0 and m[c].sum() == 0]
    assert report.pr_curves == {c: per_threshold_curve(probs[:, c], labels == c)
                                for c in range(n_cls)}


@pytest.mark.parametrize("labels", [[-1, 1], [0, 2]])
def test_labels_outside_the_classes_rejected(labels):
    with pytest.raises(ValueError, match="labels must lie in"):
        compute_metrics(np.eye(2), np.array(labels), n_classes=2)
