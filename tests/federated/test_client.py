"""Unit tests for local client training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.federated.client import (
    LocalTrainingConfig,
    evaluate_model,
    local_train,
    train_epochs,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.nn.serialization import flatten_params


class TestLocalTrainingConfig:
    def test_defaults_valid(self):
        config = LocalTrainingConfig()
        assert config.epochs >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"proximal_mu": -1.0},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            LocalTrainingConfig(**kwargs)


class TestLocalTrain:
    def test_update_has_parameter_dimension(self, image_model_factory, small_federation, rng):
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        update, loss = local_train(
            model, global_params, small_federation.client(0).train,
            LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05), rng,
        )
        assert update.shape == global_params.shape
        assert np.isfinite(loss)
        assert np.abs(update).sum() > 0

    def test_empty_dataset_returns_zero_update(self, image_model_factory, rng):
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        empty = Dataset(np.zeros((0, 1, 12, 12)), np.zeros(0, dtype=np.int64))
        update, loss = local_train(
            model, global_params, empty, LocalTrainingConfig(), rng
        )
        assert np.allclose(update, 0.0)
        assert loss == 0.0

    def test_training_reduces_local_loss(self, image_model_factory, small_federation):
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        config = LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05)
        data = small_federation.client(1).train
        _, first_loss = local_train(model, global_params, data, config,
                                    np.random.default_rng(0))
        many = LocalTrainingConfig(epochs=6, batch_size=8, lr=0.05)
        _, later_loss = local_train(model, global_params, data, many,
                                    np.random.default_rng(0))
        assert later_loss < first_loss

    def test_update_improves_local_accuracy(self, image_model_factory, small_federation, rng):
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        data = small_federation.client(2).train
        before = evaluate_model(model, global_params, data)
        update, _ = local_train(
            model, global_params, data, LocalTrainingConfig(epochs=8, batch_size=8, lr=0.05), rng
        )
        after = evaluate_model(model, global_params + update, data)
        assert after >= before

    def test_proximal_term_shrinks_update(self, image_model_factory, small_federation):
        data = small_federation.client(0).train
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        free_update, _ = local_train(
            model, global_params, data,
            LocalTrainingConfig(epochs=3, batch_size=8, lr=0.05, proximal_mu=0.0),
            np.random.default_rng(1),
        )
        prox_update, _ = local_train(
            model, global_params, data,
            LocalTrainingConfig(epochs=3, batch_size=8, lr=0.05, proximal_mu=5.0),
            np.random.default_rng(1),
        )
        assert np.linalg.norm(prox_update) < np.linalg.norm(free_update)

    def test_does_not_modify_global_vector(self, image_model_factory, small_federation, rng):
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        snapshot = global_params.copy()
        local_train(model, global_params, small_federation.client(0).train,
                    LocalTrainingConfig(), rng)
        np.testing.assert_allclose(global_params, snapshot)


class TestTrainEpochs:
    def test_evaluates_the_loss_in_the_last_epoch_only(
        self, image_model_factory, small_federation, monkeypatch
    ):
        # The returned losses are those of the last epoch run step by step,
        # every batch's loss evaluated; earlier epochs evaluate none.
        data = small_federation.client(0).train
        evaluated = []
        loss = SoftmaxCrossEntropy.loss
        monkeypatch.setattr(
            SoftmaxCrossEntropy, "loss", lambda self: evaluated.append(1) or loss(self)
        )
        model = image_model_factory()
        losses = train_epochs(
            model, data, SGD(model, lr=0.05, momentum=0.9), 3, 8, np.random.default_rng(0)
        )
        assert len(evaluated) == len(losses) == -(-len(data) // 8)

        reference = image_model_factory()
        optimiser = SGD(reference, lr=0.05, momentum=0.9)
        rng = np.random.default_rng(0)
        train_epochs(reference, data, optimiser, 2, 8, rng)
        criterion = SoftmaxCrossEntropy()
        expected = []
        for batch_x, batch_y in data.batches(8, rng=rng):
            expected.append(criterion.forward(reference.forward(batch_x, training=True), batch_y))
            reference.backward(criterion.backward())
            optimiser.step()
        assert losses == expected
        np.testing.assert_array_equal(model.params, reference.params)


class TestEvaluateModel:
    def test_perfectly_memorised_data(self, image_model_factory, small_federation):
        model = image_model_factory()
        global_params = flatten_params(image_model_factory())
        data = small_federation.client(0).train
        update, _ = local_train(
            model, global_params, data,
            LocalTrainingConfig(epochs=20, batch_size=8, lr=0.08),
            np.random.default_rng(0),
        )
        accuracy = evaluate_model(model, global_params + update, data)
        assert accuracy > 0.8

    def test_empty_dataset_scores_zero(self, image_model_factory):
        model = image_model_factory()
        params = flatten_params(model)
        empty = Dataset(np.zeros((0, 1, 12, 12)), np.zeros(0, dtype=np.int64))
        assert evaluate_model(model, params, empty) == 0.0
