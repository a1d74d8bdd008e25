"""Bit-identity of sharded aggregation at benchmark sizes.

* ``test_sharded_fold_latency_scaling`` — one full round fold (accumulate
  × 32 clients + finalize), plain single fold vs. a 4-shard worker-pool
  fold, across ``param_dim`` 1e5–1e6; the two results must be identical at
  every size.
* ``test_sharded_round_end_to_end`` — full federated rounds through the
  server with ``num_shards=4`` vs ``num_shards=1``; history bit-identity is
  the assertion.

Fold latency is not measured here: it depends on the host's cores, and
``perfbench/`` is the perf record.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import AggregationContext, MeanAggregator
from repro.experiments.runner import run_experiment
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine.plan import ClientUpdate
from repro.federated.engine.sharding import ShardedAggregator

NUM_CLIENTS = 32
NUM_SHARDS = 4
PARAM_DIMS = (100_000, 300_000, 1_000_000)


def _synthetic_updates(param_dim: int) -> list[ClientUpdate]:
    rng = np.random.default_rng(11)
    return [
        ClientUpdate(client_id=slot, slot=slot, update=rng.normal(size=param_dim))
        for slot in range(NUM_CLIENTS)
    ]


def _fold_round(aggregator, updates, param_dim):
    ctx = AggregationContext(rng=np.random.default_rng(0))
    state = aggregator.begin_round(ctx)
    for update in updates:
        aggregator.accumulate(state, update)
    return aggregator.finalize(state, np.zeros(param_dim), ctx)


def test_sharded_fold_latency_scaling():
    """The sharded fold must stay bit-identical to the single fold."""
    for param_dim in PARAM_DIMS:
        updates = _synthetic_updates(param_dim)
        plain_out = _fold_round(MeanAggregator(), updates, param_dim)
        sharded = ShardedAggregator(MeanAggregator(), NUM_SHARDS)
        try:
            sharded_out = _fold_round(sharded, updates, param_dim)
        finally:
            sharded.close()
        np.testing.assert_array_equal(sharded_out, plain_out)


def test_sharded_round_end_to_end():
    """num_shards=4 vs 1 through the real server; histories bit-identical."""
    config = Scenario(
        dataset="femnist",
        num_clients=16,
        samples_per_client=32,
        num_classes=6,
        image_size=16,
        alpha=0.3,
        rounds=4,
        sample_rate=1.0,
        attack="none",
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        seed=3,
    )
    histories = {
        shards: run_experiment(config.with_overrides(num_shards=shards)).history
        for shards in (1, NUM_SHARDS)
    }
    reference = histories[1].series("update_norm")
    assert histories[NUM_SHARDS].series("update_norm") == reference, (
        "sharded run diverged from the unsharded reference"
    )
