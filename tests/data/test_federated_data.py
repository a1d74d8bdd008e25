"""The eager federation: one global partition, every client built up front."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import train_test_val_split
from repro.data.femnist import SyntheticFEMNIST
from repro.data.partition import dirichlet_label_partition, partition_sizes
from repro.data.sentiment import SyntheticSentiment
from repro.experiments.runner import build_dataset
from repro.experiments.scenario import Scenario
from repro.federated.population import ClientPopulation, EagerPopulation


def _reference_federation(generator, num_clients, samples_per_client, alpha, seed):
    """The eager builder's loop before the federation became a population.

    Kept as the reference :class:`EagerPopulation` must reproduce byte for
    byte.  Returns every client's ``(train, test, val)`` and the partition's
    class-count rows, in cid order.
    """
    rng = np.random.default_rng(seed)
    sizes = partition_sizes(num_clients * samples_per_client, num_clients, rng, imbalance=0.3)
    counts = dirichlet_label_partition(sizes, generator.num_classes, alpha, rng)
    splits = []
    for cid in range(num_clients):
        data = generator.sample_client(counts[cid], client_seed=seed * 100003 + cid)
        split_rng = np.random.default_rng(seed * 7919 + cid)
        splits.append(train_test_val_split(data, rng=split_rng))
    return splits, [np.asarray(row, dtype=np.int64) for row in counts]


_GENERATORS = {
    "femnist": SyntheticFEMNIST(num_classes=5, image_size=9, seed=4),
    "sentiment": SyntheticSentiment(num_classes=2, vocab_size=40, embedding_dim=6, seed=4),
}

#: (num_clients, samples_per_client, alpha): one client, strong and weak
#: label skew, and a mean size under the 8-sample floor, so sizes differ.
_GEOMETRIES = [(1, 20, 0.5), (6, 24, 0.05), (5, 30, 50.0), (7, 4, 0.3)]


class TestMatchesReferenceBuilder:
    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    @pytest.mark.parametrize("seed", range(20))
    def test_every_client_byte_for_byte(self, name, seed):
        generator = _GENERATORS[name]
        for num_clients, samples_per_client, alpha in _GEOMETRIES:
            fed = EagerPopulation(generator, num_clients, samples_per_client, alpha, seed=seed)
            assert fed.materializations == num_clients
            splits, counts = _reference_federation(
                generator, num_clients, samples_per_client, alpha, seed
            )
            for cid in range(num_clients):
                client = fed.client(cid)
                assert client.client_id == cid
                for got, want in zip((client.train, client.test, client.val), splits[cid],
                                     strict=True):
                    assert got.x.dtype == want.x.dtype and got.y.dtype == want.y.dtype
                    np.testing.assert_array_equal(got.x.view(np.uint64), want.x.view(np.uint64))
                    np.testing.assert_array_equal(got.y, want.y)
                assert client.class_counts.dtype == counts[cid].dtype
                np.testing.assert_array_equal(client.class_counts, counts[cid])
            np.testing.assert_array_equal(fed.label_distributions(), np.stack(counts))
            assert fed.materializations == num_clients

    def test_a_run_builds_no_client_again(self):
        scenario = Scenario(
            num_clients=8,
            samples_per_client=12,
            num_classes=4,
            image_size=8,
            hidden=(8,),
            rounds=2,
            sample_rate=0.5,
            attack="collapois",
            compromised_fraction=0.25,
            trojan_epochs=1,
            eval_every=1,
            max_test_samples=4,
        )
        dataset, generator = build_dataset(scenario)
        assert isinstance(dataset, EagerPopulation)
        assert dataset.materializations == 8
        scenario.run(prebuilt_data=(dataset, generator))
        assert dataset.materializations == 8


class TestEagerPopulation:
    def test_client_count_and_metadata(self, small_federation):
        assert isinstance(small_federation, ClientPopulation)
        assert small_federation.num_clients == 8
        assert small_federation.num_classes == 5
        assert small_federation.alpha == 0.3
        assert small_federation.client(0).train.x.shape[1:] == (1, 12, 12)

    def test_every_client_has_all_three_splits(self, small_federation):
        for c in range(small_federation.num_clients):
            client = small_federation.client(c)
            assert len(client.train) > 0
            assert client.num_samples == len(client.train) + len(client.test) + len(client.val)

    def test_class_counts_match_generated_labels(self, small_federation):
        for c in range(small_federation.num_clients):
            client = small_federation.client(c)
            labels = np.concatenate([client.train.y, client.test.y, client.val.y])
            observed = np.bincount(labels, minlength=small_federation.num_classes)
            np.testing.assert_array_equal(observed, client.class_counts)

    def test_out_of_range_ids_raise(self, small_federation):
        # A negative id must not wrap round to the last client: it would hand
        # an attacker configured with compromised_ids=[-1] client N-1's data.
        for cid in (-1, small_federation.num_clients):
            with pytest.raises(IndexError):
                small_federation.client(cid)

    def test_auxiliary_dataset_sources(self, small_federation):
        compromised = [0, 2]
        val_only = small_federation.auxiliary_dataset(compromised, source="val")
        everything = small_federation.auxiliary_dataset(compromised, source="all")
        expected_val = sum(len(small_federation.client(c).val) for c in compromised)
        expected_all = sum(small_federation.client(c).num_samples for c in compromised)
        assert len(val_only) == expected_val
        assert len(everything) == expected_all
        first = small_federation.client(0)
        np.testing.assert_array_equal(everything.y[: len(first.train)], first.train.y)

    def test_auxiliary_requires_clients(self, small_federation):
        with pytest.raises(ValueError):
            small_federation.auxiliary_dataset([])

    def test_auxiliary_invalid_source(self, small_federation):
        with pytest.raises(ValueError):
            small_federation.auxiliary_dataset([0], source="test-only")

    def test_auxiliary_class_counts_consistent(self, small_federation):
        counts = small_federation.auxiliary_class_counts([0, 1], source="all")
        expected = small_federation.client(0).class_counts + small_federation.client(1).class_counts
        np.testing.assert_array_equal(counts, expected)

    def test_seed_reproducibility(self, femnist_generator):
        a = EagerPopulation(femnist_generator, 4, 20, alpha=0.5, seed=3)
        b = EagerPopulation(femnist_generator, 4, 20, alpha=0.5, seed=3)
        for c in range(a.num_clients):
            np.testing.assert_allclose(a.client(c).train.x, b.client(c).train.x)
            np.testing.assert_array_equal(a.client(c).class_counts, b.client(c).class_counts)

    def test_invalid_arguments(self, femnist_generator):
        with pytest.raises(ValueError):
            EagerPopulation(femnist_generator, 0, 20, alpha=0.5)
        with pytest.raises(ValueError):
            EagerPopulation(femnist_generator, 4, 0, alpha=0.5)

    def test_alpha_controls_skew(self, femnist_generator):
        skewed = EagerPopulation(femnist_generator, 12, 30, alpha=0.05, seed=1)
        uniform = EagerPopulation(femnist_generator, 12, 30, alpha=50.0, seed=1)

        def mean_entropy(fed):
            entropies = []
            for c in range(fed.num_clients):
                counts = fed.client(c).class_counts
                dist = counts / max(1, counts.sum())
                nonzero = dist[dist > 0]
                entropies.append(-(nonzero * np.log(nonzero)).sum())
            return float(np.mean(entropies))

        assert mean_entropy(skewed) < mean_entropy(uniform)
