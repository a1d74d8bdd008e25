"""Bitwise equivalence of the client-stacked kernels against their serial
counterparts.

Every test here asserts ``assert_array_equal`` — not ``allclose``.  The whole
point of the batched execution path is that stacking clients into a leading
array dimension changes *nothing* about each client's arithmetic (see the
batched-kernel notes in :mod:`repro.nn.layers`), and these tests are the
ground truth for that claim at the kernel level; the federated-level pinned
tests in ``tests/federated/test_batched.py`` build on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.federated.client import (
    LocalTrainingConfig,
    _plan_step_runs,
    local_train,
    local_train_batched,
)
from repro.nn.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    batch_layer,
    has_batched_counterpart,
    slice_clients,
)
from repro.nn.losses import BatchedSoftmaxCrossEntropy, SoftmaxCrossEntropy
from repro.nn.model import (
    BatchedSequential,
    make_lenet,
    make_mlp,
    supports_batching,
)
from repro.nn.optim import SGD, BatchedSGD
from repro.nn.serialization import flatten_params, unflatten_params

CLIENTS = 5


class TestBatchedLinear:
    def test_bitwise_equals_serial(self, rng):
        def factory():
            return Linear(7, 4, rng=np.random.default_rng(0))

        batched = batch_layer(factory(), CLIENTS)
        batched.params["W"][...] = rng.normal(size=(CLIENTS, 7, 4))
        batched.params["b"][...] = rng.normal(size=(CLIENTS, 4))
        x = rng.normal(size=(CLIENTS, 6, 7))
        grad = rng.normal(size=(CLIENTS, 6, 4))

        out_b = batched.forward(x, training=True)
        gx_b = batched.backward(grad)
        for c in range(CLIENTS):
            layer = factory()
            layer.params["W"][...] = batched.params["W"][c]
            layer.params["b"][...] = batched.params["b"][c]
            layer.zero_grad()
            np.testing.assert_array_equal(layer.forward(x[c], training=True), out_b[c])
            np.testing.assert_array_equal(layer.backward(grad[c]), gx_b[c])
            np.testing.assert_array_equal(layer.grads["W"], batched.grads["W"][c])
            np.testing.assert_array_equal(layer.grads["b"], batched.grads["b"][c])


class TestBatchedConv2d:
    def test_bitwise_equals_serial(self, rng):
        def factory():
            return Conv2d(2, 3, kernel_size=3, padding=1, rng=np.random.default_rng(0))

        batched = batch_layer(factory(), CLIENTS)
        batched.params["W"][...] = rng.normal(size=batched.params["W"].shape)
        batched.params["b"][...] = rng.normal(size=batched.params["b"].shape)
        x = rng.normal(size=(CLIENTS, 4, 2, 8, 8))
        out_b = batched.forward(x, training=True)
        grad = rng.normal(size=out_b.shape)
        gx_b = batched.backward(grad)
        for c in range(CLIENTS):
            layer = factory()
            layer.params["W"][...] = batched.params["W"][c]
            layer.params["b"][...] = batched.params["b"][c]
            layer.zero_grad()
            np.testing.assert_array_equal(layer.forward(x[c], training=True), out_b[c])
            np.testing.assert_array_equal(layer.backward(grad[c]), gx_b[c])
            np.testing.assert_array_equal(layer.grads["W"], batched.grads["W"][c])
            np.testing.assert_array_equal(layer.grads["b"], batched.grads["b"][c])


class TestBatchedPoolFlattenLoss:
    def test_maxpool_bitwise_equals_serial(self, rng):
        batched = batch_layer(MaxPool2d(2), CLIENTS)
        x = rng.normal(size=(CLIENTS, 3, 2, 7, 5))  # non-divisible dims
        out_b = batched.forward(x, training=True)
        grad = rng.normal(size=out_b.shape)
        gx_b = batched.backward(grad)
        for c in range(CLIENTS):
            pool = MaxPool2d(2)
            np.testing.assert_array_equal(pool.forward(x[c], training=True), out_b[c])
            np.testing.assert_array_equal(pool.backward(grad[c]), gx_b[c])

    def test_flatten_roundtrip(self, rng):
        batched = batch_layer(Flatten(), CLIENTS)
        x = rng.normal(size=(CLIENTS, 3, 2, 4, 4))
        out = batched.forward(x, training=True)
        assert out.shape == (CLIENTS, 3, 32)
        np.testing.assert_array_equal(batched.backward(out), x)

    def test_loss_bitwise_equals_serial(self, rng):
        logits = rng.normal(size=(CLIENTS, 6, 4))
        targets = rng.integers(0, 4, size=(CLIENTS, 6))
        batched = BatchedSoftmaxCrossEntropy()
        losses = batched.forward(logits, targets)
        grads = batched.backward()
        for c in range(CLIENTS):
            serial = SoftmaxCrossEntropy()
            assert serial.forward(logits[c], targets[c]) == losses[c]
            np.testing.assert_array_equal(serial.backward(), grads[c])


class TestBatchedSGD:
    @pytest.mark.parametrize("momentum,weight_decay", [(0.0, 0.0), (0.9, 0.0), (0.5, 0.01)])
    def test_step_bitwise_equals_serial(self, rng, momentum, weight_decay):
        template = make_mlp(5, (4,), 3, seed=1)
        batched = BatchedSequential.from_template(template, CLIENTS)
        batched.params[...] = rng.normal(size=batched.params.shape)
        serial_models = []
        for c in range(CLIENTS):
            model = make_mlp(5, (4,), 3, seed=1)
            unflatten_params(model, batched.params[c])
            serial_models.append(model)

        opt_b = BatchedSGD(batched, lr=0.1, momentum=momentum, weight_decay=weight_decay)
        opts = [
            SGD(m, lr=0.1, momentum=momentum, weight_decay=weight_decay)
            for m in serial_models
        ]
        x = rng.normal(size=(CLIENTS, 6, 5))
        y = rng.integers(0, 3, size=(CLIENTS, 6))
        criterion_b = BatchedSoftmaxCrossEntropy()
        for _step in range(3):
            logits = batched.forward(x, training=True)
            criterion_b.forward(logits, y)
            batched.backward(criterion_b.backward())
            opt_b.step()
            for c, model in enumerate(serial_models):
                opts[c].zero_grad()
                criterion = SoftmaxCrossEntropy()
                criterion.forward(model.forward(x[c], training=True), y[c])
                model.backward(criterion.backward())
                opts[c].step()
        for c, model in enumerate(serial_models):
            np.testing.assert_array_equal(model.params, batched.params[c])

    def test_zero_grad_before_step_keeps_stepping(self, rng):
        # zero_grad() used to rebind the gradient arrays away from the ones
        # BatchedSGD steps, which froze the model.  Batched backward
        # overwrites the gradients, so zeroing first must change nothing.
        template = make_mlp(5, (4,), 3, seed=1)
        x = rng.normal(size=(2, 6, 5))
        y = rng.integers(0, 3, size=(2, 6))
        results = []
        for zero_first in (False, True):
            batched = BatchedSequential.from_template(template, 2)
            batched.load_global(flatten_params(template))
            before = flatten_params(batched)
            opt = BatchedSGD(batched, lr=0.1)
            criterion = BatchedSoftmaxCrossEntropy()
            for _step in range(2):
                if zero_first:
                    opt.zero_grad()
                criterion.forward(batched.forward(x, training=True), y)
                batched.backward(criterion.backward())
                opt.step()
            after = flatten_params(batched)
            assert not np.array_equal(after, before)
            results.append(after)
        np.testing.assert_array_equal(results[1], results[0])

    def test_requires_batched_model(self):
        with pytest.raises(ValueError, match="client-stacked"):
            BatchedSGD(make_mlp(4, (3,), 2, seed=0), lr=0.1)


class TestBatchingSupport:
    def test_dropout_has_no_batched_counterpart(self):
        assert not has_batched_counterpart(Dropout(0.5, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError, match="no batched counterpart"):
            batch_layer(Dropout(0.5, rng=np.random.default_rng(0)), CLIENTS)

    def test_supports_batching(self):
        assert supports_batching(make_mlp(4, (3,), 2, seed=0))
        assert supports_batching(make_lenet(image_size=8, num_classes=3, seed=0))
        assert not supports_batching(make_mlp(4, (3,), 2, seed=0, dropout=0.5))


class TestSliceClients:
    def test_views_share_storage(self, rng):
        batched = batch_layer(Linear(4, 3, rng=np.random.default_rng(0)), CLIENTS)
        batched.params["W"][...] = rng.normal(size=batched.params["W"].shape)
        view = slice_clients(batched, 1, 4)
        assert view.num_clients == 3
        np.testing.assert_array_equal(view.params["W"], batched.params["W"][1:4])
        view.params["W"] += 1.0  # in-place math lands in the parent planes
        np.testing.assert_array_equal(view.params["W"], batched.params["W"][1:4])

    def test_model_view_trains_parent_rows_only(self, rng):
        template = make_mlp(5, (4,), 3, seed=1)
        batched = BatchedSequential.from_template(template, CLIENTS)
        batched.load_global(flatten_params(template))
        before = flatten_params(batched)
        sub = batched.view(1, 3)
        opt = BatchedSGD(batched, lr=0.1)
        criterion = BatchedSoftmaxCrossEntropy()
        x = rng.normal(size=(2, 6, 5))
        y = rng.integers(0, 3, size=(2, 6))
        criterion.forward(sub.forward(x, training=True), y)
        sub.backward(criterion.backward())
        opt.step_slice(1, 3)
        after = flatten_params(batched)
        assert not np.array_equal(after[1:3], before[1:3])
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[3:], before[3:])
        # views are cached per range
        assert batched.view(1, 3) is sub
        assert batched.view(0, CLIENTS) is batched

    def test_invalid_ranges_rejected(self):
        batched = batch_layer(Linear(4, 3, rng=np.random.default_rng(0)), CLIENTS)
        for a, b in [(-1, 2), (2, 2), (0, CLIENTS + 1)]:
            with pytest.raises(ValueError):
                slice_clients(batched, a, b)


class TestPlanStepRuns:
    def test_uniform_sizes_one_run_per_step(self):
        runs = _plan_step_runs([10, 10, 10], batch_size=4)
        assert runs == [
            (0, [(0, 3, 4)]),
            (4, [(0, 3, 4)]),
            (8, [(0, 3, 2)]),
        ]

    def test_ragged_sizes_split_into_runs(self):
        runs = _plan_step_runs([10, 7, 7, 3], batch_size=4)
        assert runs == [
            (0, [(0, 3, 4), (3, 4, 3)]),
            (4, [(0, 1, 4), (1, 3, 3)]),
            (8, [(0, 1, 2)]),
        ]

    def test_covers_every_sample_exactly_once(self):
        sizes = [17, 13, 8, 8, 5, 1]
        runs = _plan_step_runs(sizes, batch_size=4)
        seen = [0] * len(sizes)
        for _start, step_runs in runs:
            for a, b, size in step_runs:
                for c in range(a, b):
                    seen[c] += size
        assert seen == sizes


class TestLocalTrainBatched:
    def _datasets(self, rng, sizes, dim=6, classes=3):
        from repro.data.dataset import Dataset

        return [
            Dataset(
                x=rng.normal(size=(n, dim)),
                y=rng.integers(0, classes, size=n),
            )
            for n in sizes
        ]

    def test_bitwise_equals_serial_ragged(self, rng):
        template = make_mlp(6, (5,), 3, seed=2)
        global_params = flatten_params(template)
        sizes = [11, 8, 8, 3]
        datasets = self._datasets(rng, sizes)
        config = LocalTrainingConfig(
            epochs=2, batch_size=4, lr=0.05, momentum=0.9, weight_decay=0.01
        )
        batched = BatchedSequential.from_template(template, len(sizes))
        updates, losses = local_train_batched(
            batched, global_params, datasets, config,
            [np.random.default_rng(100 + c) for c in range(len(sizes))],
        )
        for c, data in enumerate(datasets):
            update, loss = local_train(
                make_mlp(6, (5,), 3, seed=2), global_params, data, config,
                np.random.default_rng(100 + c),
            )
            np.testing.assert_array_equal(updates[c], update)
            assert losses[c] == loss

    def test_proximal_and_drift_bitwise_equals_serial(self, rng):
        template = make_mlp(6, (5,), 3, seed=2)
        global_params = flatten_params(template)
        sizes = [9, 6]
        datasets = self._datasets(rng, sizes)
        config = LocalTrainingConfig(epochs=1, batch_size=4, lr=0.05, proximal_mu=0.1)
        drift = rng.normal(size=(len(sizes), global_params.shape[0]))
        batched = BatchedSequential.from_template(template, len(sizes))
        updates, _ = local_train_batched(
            batched, global_params, datasets, config,
            [np.random.default_rng(7 + c) for c in range(len(sizes))],
            drift_corrections=drift,
        )
        for c, data in enumerate(datasets):
            update, _ = local_train(
                make_mlp(6, (5,), 3, seed=2), global_params, data, config,
                np.random.default_rng(7 + c), drift_correction=drift[c],
            )
            np.testing.assert_array_equal(updates[c], update)

    def test_rejects_bad_inputs(self, rng):
        template = make_mlp(6, (5,), 3, seed=2)
        global_params = flatten_params(template)
        batched = BatchedSequential.from_template(template, 2)
        data = self._datasets(rng, [4, 8])  # increasing size: wrong order
        config = LocalTrainingConfig(batch_size=4)
        rngs = [np.random.default_rng(c) for c in range(2)]
        with pytest.raises(ValueError, match="non-increasing"):
            local_train_batched(batched, global_params, data, config, rngs)
        empty = self._datasets(rng, [4, 0])
        with pytest.raises(ValueError, match="non-empty"):
            local_train_batched(batched, global_params, empty, config, rngs)
        with pytest.raises(ValueError, match="sized for"):
            local_train_batched(
                batched, global_params, self._datasets(rng, [4]), config, rngs[:1]
            )
