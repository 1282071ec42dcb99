"""Classification metrics: confusion matrix, macro precision/recall/F1, and
one-vs-rest precision-recall curves."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np


@dataclass
class MetricsReport:
    accuracy: float
    per_class_precision: list
    per_class_recall: list
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray                  # [n_cls, n_cls], rows = true class
    pr_curves: dict                        # class -> list of (threshold, p, r)
    degenerate_classes: list = field(default_factory=list)

    def to_dict(self):
        """Every field in order but ``pr_curves``, which pr_curve.csv holds."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "pr_curves"}
        doc["confusion"] = self.confusion.tolist()
        return doc


def confusion_matrix(pred, labels, n_classes):
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (labels, pred), 1)
    return m


def compute_metrics(fused_probs, labels, n_classes=None) -> MetricsReport:
    """Score argmax predictions (ties break to the lowest class index) and
    trace each class's one-vs-rest PR curve.

    A class absent from both predictions and labels gets precision and recall
    0 and is listed under ``degenerate_classes``. A curve has one point per
    distinct score, in descending order: flagging every sample that scores at
    least that much gives precision tp / flagged and recall tp / positives
    (0 for a class without positives). Scores are assumed finite.
    """
    fused_probs = np.asarray(fused_probs)
    labels = np.asarray(labels)
    if fused_probs.ndim != 2 or len(labels) != len(fused_probs):
        raise ValueError("compute_metrics: probs must be [N, n_cls] aligned with labels")
    if len(labels) == 0:
        raise ValueError("compute_metrics: empty evaluation set")
    n_cls = n_classes or fused_probs.shape[1]
    if labels.min() < 0 or labels.max() >= n_cls:
        raise ValueError(f"compute_metrics: labels must lie in [0, {n_cls})")
    m = confusion_matrix(np.argmax(fused_probs, axis=1), labels, n_cls)

    accuracy = float(np.trace(m) / m.sum())
    tp, pred_c, true_c = np.diag(m), m.sum(axis=0), m.sum(axis=1)
    precision = (tp / np.maximum(pred_c, 1)).tolist()
    recall = (tp / np.maximum(true_c, 1)).tolist()
    degenerate = np.flatnonzero((pred_c == 0) & (true_c == 0)).tolist()
    macro_p = float(np.mean(precision))
    macro_r = float(np.mean(recall))
    macro_f1 = 0.0 if macro_p + macro_r == 0 else 2 * macro_p * macro_r / (macro_p + macro_r)

    curves = {}
    for c in range(n_cls):
        order = np.argsort(-fused_probs[:, c], kind="stable")
        scores = fused_probs[order, c]
        last = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
        hits = np.cumsum(labels[order] == c)[last]     # hits[-1]: every positive
        curves[c] = list(zip(scores[last].tolist(), (hits / (last + 1)).tolist(),
                             (hits / max(hits[-1], 1)).tolist()))

    return MetricsReport(accuracy=accuracy, per_class_precision=precision,
                         per_class_recall=recall, macro_precision=macro_p,
                         macro_recall=macro_r, macro_f1=float(macro_f1),
                         confusion=m, pr_curves=curves,
                         degenerate_classes=degenerate)


def save_metrics(report: MetricsReport, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(report.to_dict(), fh, indent=1)
    with open(os.path.join(out_dir, "pr_curve.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "threshold", "precision", "recall"])
        for c, points in report.pr_curves.items():
            for t, p, r in points:
                writer.writerow([c, f"{t:.10g}", f"{p:.10g}", f"{r:.10g}"])
