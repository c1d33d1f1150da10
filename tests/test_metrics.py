import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesionformer.metrics import (MetricsReport, UndefinedMetricError,
                                  accuracy, confusion_matrix, f1_macro,
                                  precision_macro, report, roc_auc_binary,
                                  roc_auc_ovr_macro)


def brute_force_auc(scores, labels):
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        y = [0, 1, 2, 1, 0]
        cm = confusion_matrix(y, y, 3)
        assert np.array_equal(cm, np.diag([2, 2, 1]))

    def test_constant_predictor_fills_one_column(self):
        cm = confusion_matrix([0, 0, 0], [0, 1, 2], 3)
        assert cm[:, 0].sum() == 3 and cm[:, 1:].sum() == 0

    def test_matches_brute_force(self, rng):
        true = rng.integers(0, 4, size=50)
        pred = rng.integers(0, 4, size=50)
        cm = confusion_matrix(pred, true, 4)
        ref = np.zeros((4, 4), dtype=int)
        for t, p in zip(true, pred):
            ref[t, p] += 1
        assert np.array_equal(cm, ref)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)


class TestDerivedMetrics:
    def test_diagonal_confusion_scores_one(self):
        cm = np.diag([3, 4, 5])
        assert accuracy(cm) == 1.0
        assert precision_macro(cm) == 1.0
        assert f1_macro(cm) == 1.0

    def test_symmetric_two_class(self):
        cm = np.array([[1, 1], [1, 1]])
        assert accuracy(cm) == 0.5
        assert precision_macro(cm) == 0.5
        assert f1_macro(cm) == 0.5

    def test_matches_brute_force(self, rng):
        cm = rng.integers(0, 10, size=(3, 3))
        precs, f1s = [], []
        for j in range(3):
            tp = cm[j, j]
            fp = cm[:, j].sum() - tp
            fn = cm[j, :].sum() - tp
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            precs.append(p)
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        assert abs(precision_macro(cm) - np.mean(precs)) < 1e-12
        assert abs(f1_macro(cm) - np.mean(f1s)) < 1e-12

    def test_zero_predicted_class_contributes_zero_precision(self):
        cm = np.array([[2, 0], [1, 0]])
        assert precision_macro(cm) == pytest.approx((2 / 3) / 2)


class TestBinaryAuc:
    def test_perfect_separation(self):
        assert roc_auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc_binary([0.5, 0.5, 0.5], [0, 1, 1]) == 0.5

    @pytest.mark.parametrize("n, signed_zeros", [(2, False), (20, False), (200, False),
                                                 (20, True)])
    def test_matches_pairwise_brute_force(self, rng, n, signed_zeros):
        checked = 0
        for _ in range(10):
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            if signed_zeros:  # -0.0 (positives) and +0.0 (negatives) tie
                scores = np.where(scores < 0.5, np.where(labels == 1, -0.0, 0.0), scores)
                assert np.signbit(scores).any() and (scores == 0).sum() > np.signbit(scores).sum()
            checked += 1
            got = roc_auc_binary(scores, labels)
            assert abs(got - brute_force_auc(scores, labels)) < 1e-12
        assert checked

    def test_degenerate_labels_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc_binary([0.1, 0.2], [1, 1])

    def test_antisymmetry_under_negation(self, rng):
        scores = rng.random(30)
        labels = np.r_[np.zeros(15, int), np.ones(15, int)]
        assert roc_auc_binary(scores, labels) + roc_auc_binary(-scores, labels) == 1.0

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariance_under_monotone_transforms(self, seed):
        r = np.random.default_rng(seed)
        scores = r.random(15)
        labels = np.r_[np.zeros(7, int), np.ones(8, int)]
        base = roc_auc_binary(scores, labels)
        assert abs(roc_auc_binary(np.exp(scores), labels) - base) < 1e-12
        assert abs(roc_auc_binary(3.0 * scores + 2.0, labels) - base) < 1e-12


class TestMacroAuc:
    def test_one_hot_match_is_one(self):
        probs = np.eye(3)[[0, 1, 2, 0]]
        assert roc_auc_ovr_macro(probs, [0, 1, 2, 0]) == 1.0

    def test_uniform_probs_are_chance(self):
        probs = np.full((6, 3), 1 / 3)
        assert roc_auc_ovr_macro(probs, [0, 0, 1, 1, 2, 2]) == 0.5

    def test_matches_brute_force(self, rng):
        probs = rng.random((30, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=30)
        if len(np.unique(labels)) < 3:
            labels[:3] = [0, 1, 2]
        ref = np.mean([brute_force_auc(probs[:, c], (labels == c).astype(int))
                       for c in range(3)])
        assert abs(roc_auc_ovr_macro(probs, labels) - ref) < 1e-12

    def test_missing_class_named_in_error(self):
        probs = np.full((4, 3), 1 / 3)
        with pytest.raises(UndefinedMetricError, match="class 2"):
            roc_auc_ovr_macro(probs, [0, 0, 1, 1])


class TestReport:
    def test_fields_and_invariants(self, rng):
        probs = rng.random((20, 3))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]
        rep = report(probs, labels, 3)
        assert rep.confusion.sum() == rep.n == 20
        assert rep.acc == np.trace(rep.confusion) / rep.n
        for v in (rep.acc, rep.auc_macro, rep.f1_macro, rep.precision_macro):
            assert 0.0 <= v <= 1.0

    def test_non_strict_auc_handles_missing_class(self):
        probs = np.full((2, 3), 1 / 3)
        rep = report(probs, [0, 1], 3, strict_auc=False)
        assert np.isnan(rep.auc_macro)
