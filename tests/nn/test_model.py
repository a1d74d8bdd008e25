"""Unit tests for model containers and factories."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.femnist import SyntheticFEMNIST
from repro.experiments.runner import build_model_factory
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig, local_train, local_train_batched
from repro.nn.layers import BatchedFlatten, Flatten, Linear, ReLU
from repro.nn.model import (
    BatchedSequential,
    Sequential,
    make_lenet,
    make_mlp,
    make_text_head,
)
from repro.nn.serialization import flatten_params, parameter_count, unflatten_params


class TestSequential:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_forward_backward_roundtrip(self, rng):
        # A model's backward writes its parameter gradients and returns no
        # input gradient, which nothing reads; a layer's backward still does.
        model = make_mlp(6, (8,), 3, seed=0)
        x = rng.normal(size=(4, 6))
        out = model.forward(x)
        assert out.shape == (4, 3)
        assert model.backward(np.ones_like(out)) is None
        np.testing.assert_array_equal(model.layers[-1].grads["b"], np.full(3, 4.0))
        assert all(layer.grads["W"].any() for layer in model.layers if layer.params)

    def test_predict_and_predict_proba(self, rng):
        model = make_mlp(4, (), 3, seed=0)
        x = rng.normal(size=(5, 4))
        probs = model.predict_proba(x)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-9)
        assert model.predict(x).shape == (5,)


class TestFactories:
    def test_same_seed_gives_identical_models(self):
        a = flatten_params(make_mlp(10, (8,), 4, seed=7))
        b = flatten_params(make_mlp(10, (8,), 4, seed=7))
        np.testing.assert_allclose(a, b)

    def test_different_seed_gives_different_models(self):
        a = flatten_params(make_mlp(10, (8,), 4, seed=7))
        b = flatten_params(make_mlp(10, (8,), 4, seed=8))
        assert not np.allclose(a, b)

    def test_mlp_without_hidden_layers_is_linear(self):
        model = make_mlp(6, (), 3, seed=0)
        assert len([l for l in model.layers if isinstance(l, Linear)]) == 1
        assert not any(isinstance(l, ReLU) for l in model.layers)

    def test_lenet_forward_shape(self, rng):
        model = make_lenet(image_size=16, num_classes=7, seed=0)
        out = model.forward(rng.normal(size=(2, 1, 16, 16)))
        assert out.shape == (2, 7)

    def test_lenet_rejects_bad_image_size(self):
        with pytest.raises(ValueError):
            make_lenet(image_size=10)

    def test_text_head_forward_shape(self, rng):
        model = make_text_head(embedding_dim=12, hidden=16, num_classes=2, seed=0)
        out = model.forward(rng.normal(size=(3, 12)))
        assert out.shape == (3, 2)

    def test_parameter_count_positive(self):
        assert parameter_count(make_mlp(4, (5,), 2, seed=0)) == 4 * 5 + 5 + 5 * 2 + 2


def _runner_mlp():
    """The experiment runner's MLP: its layers repacked behind a ``Flatten``."""
    scenario = Scenario(model="mlp", image_size=8, num_classes=3, hidden=(5,))
    return build_model_factory(scenario, SyntheticFEMNIST(num_classes=3, image_size=8))()


#: name -> (factory, per-sample input shape, classes)
SERIAL_MODELS = {
    "mlp": (lambda: make_mlp(6, (5, 4), 3, seed=0), (6,), 3),
    "lenet": (
        lambda: make_lenet(image_size=8, num_classes=3, conv_channels=(2, 3), fc_width=8),
        (1, 8, 8),
        3,
    ),
    "text": (lambda: make_text_head(embedding_dim=6, hidden=5, num_classes=2), (6,), 2),
    "runner": (_runner_mlp, (8, 8), 3),
}


def _assert_views_of_buffers(model):
    """Every layer array is its canonical slice of the model's buffers.

    Canonical means layer order, then sorted name, each parameter reshaped
    from the next run of the buffers' last axis.  Comparing array interfaces
    checks the data pointer, shape and strides at once.
    """
    lead = model.params.shape[:-1]
    offset = 0
    for layer in model.layers:
        for name in sorted(layer.params):
            shape = layer.params[name].shape
            end = offset + math.prod(shape[len(lead):])
            for arrays, buffer in ((layer.params, model.params), (layer.grads, model.grads)):
                expected = buffer[..., offset:end].reshape(shape)
                assert arrays[name].__array_interface__ == expected.__array_interface__
            offset = end
    assert offset == model.params.shape[-1] == model.grads.shape[-1]


def _dataset(rng, n, input_shape, classes):
    return Dataset(x=rng.normal(size=(n, *input_shape)), y=rng.integers(0, classes, size=n))


class TestFlatBuffers:
    @pytest.mark.parametrize("kind", sorted(SERIAL_MODELS))
    def test_serial_layers_stay_views_of_the_buffers(self, kind, rng):
        factory, input_shape, classes = SERIAL_MODELS[kind]
        model = factory()
        assert model.params.shape == model.grads.shape == (parameter_count(model),)
        _assert_views_of_buffers(model)
        model.backward(np.ones_like(model.forward(rng.normal(size=(3, *input_shape)))))
        assert model.grads.any()
        model.zero_grad()
        assert not model.grads.any()
        _assert_views_of_buffers(model)
        vector = rng.normal(size=parameter_count(model))
        unflatten_params(model, vector)
        np.testing.assert_array_equal(model.params, vector)
        _assert_views_of_buffers(model)
        config = LocalTrainingConfig(epochs=1, batch_size=4, lr=0.05, momentum=0.5)
        update, _ = local_train(
            model, vector, _dataset(rng, 6, input_shape, classes), config, rng
        )
        np.testing.assert_array_equal(update, model.params - vector)
        _assert_views_of_buffers(model)

    def test_repacked_layers_leave_the_source_model(self):
        # The runner builds Sequential([Flatten(), *mlp.layers]): the new
        # model copies the layers' values into a buffer of its own.
        mlp = make_mlp(64, (5,), 3, seed=0)
        model = Sequential([Flatten(), *mlp.layers])
        np.testing.assert_array_equal(model.params, flatten_params(mlp))
        assert not np.shares_memory(model.params, mlp.params)
        _assert_views_of_buffers(model)

    def test_batched_layers_and_views_stay_views_of_the_planes(self, rng):
        template = make_lenet(image_size=8, num_classes=3, conv_channels=(2, 3), fc_width=8)
        dim = parameter_count(template)
        batched = BatchedSequential.from_template(template, 4)
        assert batched.params.shape == batched.grads.shape == (4, dim)
        view = batched.view(1, 3)
        assert np.shares_memory(view.params, batched.params[1:3])
        assert np.shares_memory(view.grads, batched.grads[1:3])
        for model in (batched, view):
            _assert_views_of_buffers(model)
        batched.load_global(flatten_params(template))
        np.testing.assert_array_equal(batched.params, np.tile(flatten_params(template), (4, 1)))
        batched.zero_grad()
        config = LocalTrainingConfig(epochs=1, batch_size=4, lr=0.05, momentum=0.5)
        updates, _ = local_train_batched(
            view, flatten_params(template),
            [_dataset(rng, n, (1, 8, 8), 3) for n in (6, 5)], config,
            [np.random.default_rng(c) for c in range(2)],
        )
        np.testing.assert_array_equal(updates, batched.params[1:3] - flatten_params(template))
        for model in (batched, view):
            _assert_views_of_buffers(model)


def _no_input_gradient(*_args):
    raise AssertionError("input gradient computed below the first weight layer")


class TestBackwardStopsAtTheFirstWeightLayer:
    # name -> layer classes below the model's first weight layer, whose
    # backward (serial and batched) must never run.
    BELOW = {"runner": (Flatten, BatchedFlatten), "lenet": ()}

    @pytest.mark.parametrize("kind", sorted(BELOW))
    def test_trainers_compute_no_input_gradient(self, kind, rng, monkeypatch):
        factory, input_shape, classes = SERIAL_MODELS[kind]
        global_params = flatten_params(factory())
        datasets = [_dataset(rng, n, input_shape, classes) for n in (7, 5)]
        config = LocalTrainingConfig(epochs=2, batch_size=4, lr=0.05)
        for cls in self.BELOW[kind]:
            monkeypatch.setattr(cls, "backward", _no_input_gradient)
        serial = factory()
        batched = BatchedSequential.from_template(serial, len(datasets))
        for model in (serial, batched):
            # The first weight layer's own input gradient is not computed
            # either; batched views copy the patched layer.
            first = next(layer for layer in model.layers if layer.params)
            monkeypatch.setattr(first, "backward", _no_input_gradient)
        updates, _ = local_train_batched(
            batched, global_params, datasets, config,
            [np.random.default_rng(c) for c in range(len(datasets))],
        )
        for c, data in enumerate(datasets):
            update, _ = local_train(
                serial, global_params, data, config, np.random.default_rng(c)
            )
            np.testing.assert_array_equal(update, updates[c])
