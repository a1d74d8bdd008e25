"""Federated-level pinned tests for the cross-client batched backend.

The kernel-level ground truth lives in ``tests/nn/test_batched_kernels.py``.
One level up, a seeded ``backend="batched"`` run produces the
**bit-identical** :class:`TrainingHistory` of the serial backend; the
invariant matrix (``test_invariant_matrix.py``) holds that for each
defense, FedDC's drift and CollaPois's driver-side bookkeeping.  The tests
here pin every fallback path (unbatchable model, singleton groups, empty
client data): each degrades to the serial task path rather than diverging.
"""

from __future__ import annotations

import numpy as np

from repro.federated.algorithms.fedavg import FedAvg
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine import build_round_plan, make_backend
from repro.federated.engine.batched import BatchedBackend
from repro.federated.population import ClientPopulation
from repro.federated.server import FederatedServer, ServerConfig
from repro.nn.layers import Flatten
from repro.nn.model import BatchedSequential, Sequential, make_mlp


def _make_server(federation, factory, backend, rounds=4, sample_rate=0.5):
    config = ServerConfig(
        rounds=rounds,
        participation=("uniform", {"sample_rate": sample_rate}),
        seed=2,
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
    )
    return FederatedServer(federation, factory, FedAvg(), config, backend=backend)


def _history_fingerprint(history):
    return [
        (
            r.round_idx,
            tuple(r.sampled_clients),
            tuple(r.compromised_sampled),
            r.mean_benign_loss,
            r.update_norm,
        )
        for r in history.records
    ]


def _assert_identical_runs(reference, other):
    reference.run()
    other.run()
    other.close()
    np.testing.assert_array_equal(reference.global_params, other.global_params)
    assert _history_fingerprint(reference.history) == _history_fingerprint(other.history)


class TestBatchedFallbacks:
    def test_dropout_model_falls_back_to_serial_path(
        self, small_federation, femnist_generator
    ):
        # Dropout has no batched counterpart, so the whole model is
        # unbatchable; the runner must serve every task serially and still
        # match the serial backend exactly.
        size = femnist_generator.image_size

        def factory():
            mlp = make_mlp(
                size * size, (24,), femnist_generator.num_classes, seed=5, dropout=0.2
            )
            return Sequential([Flatten(), *mlp.layers])

        reference = _make_server(small_federation, factory, "serial", rounds=2)
        other = _make_server(small_federation, factory, "batched", rounds=2)
        _assert_identical_runs(reference, other)
        assert other.backend._get_runner().batched_task_count == 0

    def test_singleton_groups_take_plain_task_path(
        self, small_federation, image_model_factory
    ):
        # A round with one benign client has nothing to stack.
        plan = build_round_plan(0, [3], set(), seed=2, attack_active=False)
        reference = _make_server(small_federation, image_model_factory, "serial")
        server = _make_server(small_federation, image_model_factory, "batched")
        (expected,) = reference.backend.iter_updates(plan, reference.global_params)
        (update,) = server.backend.iter_updates(plan, server.global_params)
        assert server.backend._get_runner().batched_task_count == 0
        np.testing.assert_array_equal(update.update, expected.update)
        assert (update.slot, update.loss, update.num_examples) == (
            expected.slot, expected.loss, expected.num_examples,
        )

    def test_one_stack_serves_every_group_size(
        self, small_federation, image_model_factory, monkeypatch
    ):
        # A smaller group trains on a row-prefix view of the stack; only a
        # larger group rebuilds it, so memory does not grow with the number
        # of distinct cohort sizes a run sees.
        built = []
        from_template = BatchedSequential.from_template.__func__

        def counting(cls, template, num_clients):
            built.append(num_clients)
            return from_template(cls, template, num_clients)

        monkeypatch.setattr(BatchedSequential, "from_template", classmethod(counting))
        reference = _make_server(small_federation, image_model_factory, "serial")
        server = _make_server(small_federation, image_model_factory, "batched")
        cohorts = [[0, 1, 2], [0, 1, 2, 3, 4, 5], [1, 3, 5, 7], [2, 6], [0, 2, 4, 6, 7]]
        for round_idx, cohort in enumerate(cohorts):
            plan = build_round_plan(round_idx, cohort, set(), seed=2, attack_active=False)
            expected = reference.backend.iter_updates(plan, reference.global_params)
            got = server.backend.iter_updates(plan, server.global_params)
            for want, have in zip(expected, got, strict=True):
                np.testing.assert_array_equal(have.update, want.update)
                assert have.loss == want.loss
        assert built == [3, 6]

    def test_batched_task_count_counts_stacked_clients(
        self, small_federation, image_model_factory
    ):
        server = _make_server(
            small_federation, image_model_factory, "batched", rounds=2, sample_rate=1.0
        )
        server.run()
        counted = server.backend._get_runner().batched_task_count
        sampled = sum(len(r.sampled_clients) for r in server.history.records)
        assert counted == sampled > 0

    def test_empty_client_data_yields_zero_update(self, femnist_generator):
        class OneEmptyClient(ClientPopulation):
            """Two samples of every class per client, none for client 1."""

            def class_counts(self, client_id):
                return np.full(self.num_classes, 0 if client_id == 1 else 2, dtype=np.int64)

        federation = OneEmptyClient(
            femnist_generator, num_clients=4, samples_per_client=10, alpha=0.5, seed=0,
            cache_size=4,
        )
        assert len(federation.client(1).train) == 0
        size = femnist_generator.image_size

        def factory():
            mlp = make_mlp(size * size, (16,), femnist_generator.num_classes, seed=5)
            return Sequential([Flatten(), *mlp.layers])

        reference = _make_server(federation, factory, "serial", rounds=2, sample_rate=1.0)
        other = _make_server(federation, factory, "batched", rounds=2, sample_rate=1.0)
        _assert_identical_runs(reference, other)


class TestBatchedConstruction:
    def test_registry_constructs_batched(self):
        assert isinstance(make_backend("batched"), BatchedBackend)

    def test_capability_flags(self):
        backend = BatchedBackend()
        assert backend.batched_execution
