"""Unit tests for the loss functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy, softmax


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)

    def test_numerically_stable_for_large_logits(self):
        probs = softmax(np.array([[1e5, 0.0, -1e5]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_has_near_zero_loss(self):
        criterion = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]])
        targets = np.array([0, 1])
        assert criterion.forward(logits, targets) < 1e-6

    def test_uniform_prediction_loss_is_log_k(self):
        criterion = SoftmaxCrossEntropy()
        logits = np.zeros((4, 5))
        targets = np.array([0, 1, 2, 3])
        assert criterion.forward(logits, targets) == pytest.approx(np.log(5), rel=1e-6)

    def test_gradient_matches_numerical(self, rng):
        criterion = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 4))
        targets = np.array([1, 0, 3])
        criterion.forward(logits, targets)
        analytic = criterion.backward()
        numeric = np.zeros_like(logits)
        eps = 1e-6
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                plus, minus = logits.copy(), logits.copy()
                plus[i, j] += eps
                minus[i, j] -= eps
                numeric[i, j] = (
                    SoftmaxCrossEntropy().forward(plus, targets)
                    - SoftmaxCrossEntropy().forward(minus, targets)
                ) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_rejects_mismatched_shapes(self):
        criterion = SoftmaxCrossEntropy()
        with pytest.raises(ValueError):
            criterion.forward(np.zeros((3, 4)), np.zeros(2, dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()

