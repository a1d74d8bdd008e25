"""Unit tests for the SGD optimiser."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import make_mlp
from repro.nn.optim import SGD
from repro.nn.serialization import flatten_params


def _train_steps(model, optimiser, x, y, steps):
    criterion = SoftmaxCrossEntropy()
    losses = []
    for _ in range(steps):
        optimiser.zero_grad()
        logits = model.forward(x, training=True)
        losses.append(criterion.forward(logits, y))
        model.backward(criterion.backward())
        optimiser.step()
    return losses


class TestSGD:
    def test_invalid_hyperparameters(self):
        model = make_mlp(4, (), 2, seed=0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, weight_decay=-0.1)

    def test_loss_decreases_on_separable_data(self, rng):
        model = make_mlp(2, (8,), 2, seed=0)
        x = np.concatenate([rng.normal(-2, 0.5, size=(20, 2)), rng.normal(2, 0.5, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        losses = _train_steps(model, SGD(model, lr=0.1), x, y, steps=30)
        assert losses[-1] < losses[0] * 0.5

    def test_step_changes_parameters(self, rng):
        model = make_mlp(3, (4,), 2, seed=0)
        before = flatten_params(model).copy()
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        _train_steps(model, SGD(model, lr=0.05), x, y, steps=1)
        assert not np.allclose(flatten_params(model), before)

    def test_momentum_accelerates_descent(self, rng):
        x = np.concatenate([rng.normal(-1, 0.3, size=(20, 2)), rng.normal(1, 0.3, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        plain = make_mlp(2, (8,), 2, seed=0)
        with_momentum = make_mlp(2, (8,), 2, seed=0)
        plain_losses = _train_steps(plain, SGD(plain, lr=0.05), x, y, steps=25)
        momentum_losses = _train_steps(
            with_momentum, SGD(with_momentum, lr=0.05, momentum=0.9), x, y, steps=25
        )
        assert momentum_losses[-1] < plain_losses[-1]

    def test_weight_decay_shrinks_weights(self, rng):
        model = make_mlp(3, (), 2, seed=0)
        optimiser = SGD(model, lr=0.1, weight_decay=0.5)
        x = np.zeros((4, 3))
        y = np.array([0, 1, 0, 1])
        norm_before = np.linalg.norm(flatten_params(model))
        _train_steps(model, optimiser, x, y, steps=10)
        # With zero inputs the only drive on the weights is the decay term.
        weights_only = [layer.params["W"] for layer in model.layers if "W" in layer.params]
        norm_after = np.linalg.norm(np.concatenate([w.ravel() for w in weights_only]))
        assert norm_after < norm_before

    def test_step_matches_per_parameter_rule(self, rng):
        # The flat-buffer step must equal, bit for bit, the rule applied to
        # each parameter array on its own: g += wd·θ; v = m·v + g; θ -= lr·v.
        model = make_mlp(4, (5,), 3, seed=0)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        slots = [(layer, name) for layer in model.layers for name in sorted(layer.params)]
        theta = [layer.params[name].copy() for layer, name in slots]
        velocity = [np.zeros_like(param) for param in theta]
        optimiser = SGD(model, lr=0.1, momentum=0.9, weight_decay=0.01)
        criterion = SoftmaxCrossEntropy()
        for _ in range(3):
            optimiser.zero_grad()
            criterion.forward(model.forward(x, training=True), y)
            model.backward(criterion.backward())
            for i, (layer, name) in enumerate(slots):
                grad = layer.grads[name] + 0.01 * theta[i]
                velocity[i] = 0.9 * velocity[i] + grad
                theta[i] = theta[i] - 0.1 * velocity[i]
            optimiser.step()
            for i, (layer, name) in enumerate(slots):
                np.testing.assert_array_equal(layer.params[name], theta[i])
