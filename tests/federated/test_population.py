"""Lazy client populations: determinism, laziness, LRU cache behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.scenario import Scenario
from repro.federated.engine import RoundHook
from repro.federated.population import (
    ClientPopulation,
    EagerPopulation,
    SyntheticPopulation,
)
from repro.registry import POPULATIONS


def _pop(**kwargs):
    defaults = dict(
        dataset="femnist",
        num_clients=200,
        samples_per_client=16,
        alpha=0.4,
        seed=9,
        cache_size=4,
        eval_clients=8,
    )
    defaults.update(kwargs)
    return SyntheticPopulation(**defaults)


def _assert_same_client(a, b):
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    for split in ("train", "test", "val"):
        np.testing.assert_array_equal(getattr(a, split).x, getattr(b, split).x)
        np.testing.assert_array_equal(getattr(a, split).y, getattr(b, split).y)


class TestLaziness:
    def test_construction_materializes_nothing(self):
        pop = _pop()
        assert pop.materializations == 0
        assert pop.cache_info()["size"] == 0

    def test_label_distributions_is_metadata_only(self):
        pop = _pop()
        dist = pop.label_distributions()
        assert dist.shape == (200, pop.num_classes)
        assert pop.materializations == 0  # class_counts never builds arrays
        assert (dist.sum(axis=1) >= 8).all()  # min_samples floor

    def test_only_touched_clients_materialize(self):
        pop = _pop()
        for cid in (3, 7, 3, 7):
            pop.client(cid)
        assert pop.materializations == 2

    def test_out_of_range_cid_raises(self):
        pop = _pop()
        with pytest.raises(IndexError):
            pop.client(200)
        with pytest.raises(IndexError):
            pop.client(-1)

    @pytest.mark.parametrize("cid", [-1, 5])
    @pytest.mark.parametrize("kind", ["eager", "synthetic"])
    def test_out_of_range_class_counts_raises(self, kind, cid):
        # The same range check as client(): an eager -1 must not wrap round
        # to the last client, and a synthetic id past the end must not draw
        # counts for a client that does not exist.
        if kind == "eager":
            pop = EagerPopulation("femnist", num_clients=5, samples_per_client=8, alpha=0.5)
        else:
            pop = _pop(num_clients=5)
        with pytest.raises(IndexError, match=r"outside population \[0, 5\)"):
            pop.class_counts(cid)


class TestDeterminism:
    def test_client_is_pure_in_seed_and_cid(self):
        a, b = _pop(), _pop()
        _assert_same_client(a.client(17), b.client(17))

    def test_different_seeds_differ(self):
        a, b = _pop(seed=9), _pop(seed=10)
        assert not np.array_equal(a.client(0).train.x, b.client(0).train.x)

    def test_class_counts_match_materialized_client(self):
        pop = _pop()
        np.testing.assert_array_equal(pop.class_counts(5), pop.client(5).class_counts)

    def test_eval_client_ids_deterministic_and_capped(self):
        a, b = _pop(), _pop()
        ids = a.eval_client_ids()
        assert ids == b.eval_client_ids()
        assert len(ids) == 8 and ids == sorted(ids)
        assert all(0 <= c < 200 for c in ids)

    def test_eval_cap_above_population_returns_everyone(self):
        pop = _pop(num_clients=6, eval_clients=32)
        assert pop.eval_client_ids() == list(range(6))


class TestLRUCache:
    def test_eviction_caps_cache_size(self):
        pop = _pop(cache_size=4)
        for cid in range(10):
            pop.client(cid)
        assert pop.cache_info()["size"] == 4
        assert pop.materializations == 10

    def test_eviction_then_rematerialization_is_bit_identical(self):
        # The load-bearing guarantee: an evicted client rebuilt later is the
        # same client, so cache pressure can never change results.
        small = _pop(cache_size=2)
        never_evicted = _pop(cache_size=64)
        reference = {cid: never_evicted.client(cid) for cid in range(8)}
        for cid in range(8):  # fills and churns the 2-slot cache
            small.client(cid)
        for cid in range(8):  # every hit below re-materialises
            _assert_same_client(small.client(cid), reference[cid])
        assert small.materializations > 8

    def test_recently_used_survives_eviction(self):
        pop = _pop(cache_size=2)
        pop.client(0)
        pop.client(1)
        pop.client(0)  # refresh 0: LRU order is now [1, 0]
        pop.client(2)  # evicts 1
        before = pop.materializations
        pop.client(0)
        assert pop.materializations == before  # still cached


class TestRegistryIntegration:
    def test_population_family_is_registered(self):
        assert "synthetic" in POPULATIONS.names()
        pop = POPULATIONS.create("synthetic:num_clients=10,cache_size=2")
        assert isinstance(pop, ClientPopulation)
        assert pop.num_clients == 10

    def test_generator_instance_is_accepted(self, femnist_generator):
        pop = SyntheticPopulation(dataset=femnist_generator, num_clients=10)
        assert pop.generator is femnist_generator
        assert pop.num_classes == femnist_generator.num_classes

    def test_auxiliary_dataset_pools_lazy_clients(self):
        pop = _pop(num_clients=12)
        aux = pop.auxiliary_dataset([1, 2], source="val")
        assert len(aux) == len(pop.client(1).val) + len(pop.client(2).val)
        counts = pop.auxiliary_class_counts([1, 2])
        assert counts.shape == (pop.num_classes,)


class _MaterializationProbe(RoundHook):
    """Per round: (sampled clients, materialisations the round caused)."""

    def __init__(self) -> None:
        self.rounds: list[tuple[int, int]] = []
        self._before = 0

    def on_round_start(self, server, plan) -> None:
        self._before = server.dataset.materializations

    def on_round_end(self, server, plan, record) -> None:
        self.rounds.append((len(plan), server.dataset.materializations - self._before))


class TestOneMaterializationPerTrainedClient:
    """A round looks a client's data up once, where the client trains.

    The driver trains every client on serial and batched, so each sampled
    client materialises once per round (21 of them, well past the 16-slot
    cache); distributed workers train on their own copy of the population,
    so the driver materialises none.
    """

    @pytest.mark.parametrize("backend", ["serial", "batched", "distributed"])
    def test_materializations_per_round(self, backend):
        scenario = Scenario(
            dataset="femnist",
            hidden=(32,),
            num_clients=200,
            samples_per_client=12,
            population="synthetic:cache_size=16",
            sample_rate=0.1,
            attack="none",
            rounds=2,
            backend=backend,
            backend_workers=1 if backend == "distributed" else None,
        )
        probe = _MaterializationProbe()
        scenario.run(hooks=[probe])
        assert len(probe.rounds) == 2
        for sampled, materialized in probe.rounds:
            assert sampled > 16  # more than the cache holds
            assert materialized == (0 if backend == "distributed" else sampled)
