"""Classification metrics: accuracy, macro precision/F1, macro one-vs-rest
AUC (Mann-Whitney with half credit for ties), and the confusion matrix."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedMetricError(ValueError):
    """Metric is undefined for the given label set (e.g. a missing class)."""


@dataclass
class MetricsReport:
    acc: float
    auc_macro: float
    f1_macro: float
    precision_macro: float
    confusion: np.ndarray
    n: int


def confusion_matrix(pred_labels, true_labels, k: int) -> np.ndarray:
    """Entry (i, j) counts samples with true class i predicted as j."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    if pred.size and (pred.min() < 0 or pred.max() >= k or true.min() < 0 or true.max() >= k):
        raise ValueError(f"labels out of range [0, {k})")
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (true, pred), 1)
    return cm


def accuracy(confusion: np.ndarray) -> float:
    n = int(confusion.sum())
    return float(np.trace(confusion)) / n if n else 0.0


def _precision_recall(confusion: np.ndarray):
    """Per-class precision and recall; 0 for a class never predicted (its
    precision) or never true (its recall)."""
    tp = np.diag(confusion)
    predicted, actual = confusion.sum(axis=0), confusion.sum(axis=1)
    return (np.divide(tp, predicted, out=np.zeros(len(tp)), where=predicted > 0),
            np.divide(tp, actual, out=np.zeros(len(tp)), where=actual > 0))


def precision_macro(confusion: np.ndarray) -> float:
    return float(np.mean(_precision_recall(confusion)[0]))


def f1_macro(confusion: np.ndarray) -> float:
    return _f1_macro(*_precision_recall(confusion))


def _f1_macro(p, r) -> float:
    """The mean per-class F1 of per-class precision ``p`` and recall ``r``."""
    s = p + r
    return float(np.mean(np.divide(2 * p * r, s, out=np.zeros_like(s), where=s > 0)))


def roc_auc_binary(scores, binary_labels) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 P(tie)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(binary_labels, dtype=np.int64)
    npos = int((y == 1).sum())
    nneg = int((y == 0).sum())
    if npos == 0 or nneg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    # tie-averaged 1-based ranks: a run of c equal scores at sorted
    # positions last-c .. last-1 ranks 0.5 * ((last - c) + (last - 1)) + 1.
    # Tied scores share one rank, so the sort need not be stable.
    order = np.argsort(s)
    ss = s[order]
    bounds = np.concatenate(([0], np.flatnonzero(ss[1:] != ss[:-1]) + 1, [len(ss)]))
    last, counts = bounds[1:], np.diff(bounds)
    ranks = np.repeat(0.5 * (2 * last - counts - 1) + 1.0, counts)  # in sorted order
    rank_sum = ranks[y[order] == 1].sum()
    return float((rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg))


def roc_auc_ovr_macro(probs, labels) -> float:
    """Unweighted mean of one-vs-rest binary AUCs."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    k = p.shape[1]
    aucs = []
    for c in range(k):
        pos = (y == c).astype(np.int64)
        if pos.sum() == 0 or pos.sum() == len(y):
            raise UndefinedMetricError(f"class {c} missing from labels, AUC undefined")
        aucs.append(roc_auc_binary(p[:, c], pos))
    return float(np.mean(aucs))


def report(probs, labels, k: int, strict_auc: bool = True) -> MetricsReport:
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    pred = p.argmax(axis=1)
    cm = confusion_matrix(pred, y, k)
    try:
        auc = roc_auc_ovr_macro(p, y)
    except UndefinedMetricError:
        if strict_auc:
            raise
        auc = float("nan")
    precision, recall = _precision_recall(cm)
    return MetricsReport(
        acc=accuracy(cm),
        auc_macro=auc,
        f1_macro=_f1_macro(precision, recall),
        precision_macro=float(np.mean(precision)),
        confusion=cm,
        n=len(y),
    )
