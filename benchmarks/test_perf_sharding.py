"""Performance benches for sharded aggregation.

* ``test_sharded_fold_latency_scaling`` — wall clock of one full round fold
  (accumulate × 32 clients + finalize), plain single fold vs. a 4-shard
  worker-pool fold, across ``param_dim`` 1e5–1e6.  Bit-identity of the two
  paths is asserted at every size; the speedups are recorded, not asserted,
  because they depend on the host's cores (``perfbench/`` is the perf gate).
* ``test_sharded_round_end_to_end`` — full federated rounds through the
  server with ``num_shards=4`` vs ``num_shards=1``; history bit-identity is
  the assertion, the latency table is recorded for the perf trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.defenses.base import AggregationContext, MeanAggregator
from repro.experiments.results import format_table
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


def _best_of(fn, repeats=5):
    best = float("inf")
    out = None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_sharded_fold_latency_scaling(benchmark):
    """Sharded fold must stay bit-identical and scale with shard workers."""

    def sweep():
        rows = []
        for param_dim in PARAM_DIMS:
            updates = _synthetic_updates(param_dim)
            plain_s, plain_out = _best_of(
                lambda updates=updates, param_dim=param_dim: _fold_round(
                    MeanAggregator(), updates, param_dim
                )
            )
            sharded = ShardedAggregator(MeanAggregator(), NUM_SHARDS)
            try:
                sharded_s, sharded_out = _best_of(
                    lambda updates=updates, param_dim=param_dim: _fold_round(
                        sharded, updates, param_dim
                    )
                )
            finally:
                sharded.close()
            np.testing.assert_array_equal(sharded_out, plain_out)
            rows.append(
                {
                    "param_dim": param_dim,
                    "plain_ms": round(plain_s * 1e3, 2),
                    "sharded_ms": round(sharded_s * 1e3, 2),
                    "speedup": round(plain_s / sharded_s, 2),
                }
            )
        return rows

    rows = run_once(benchmark, sweep)
    print(
        f"\nStreaming-mean round fold — {NUM_CLIENTS} clients, "
        f"{NUM_SHARDS} shard workers, {os.cpu_count()} cpus"
    )
    print(format_table(rows))
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["param_dim"] = PARAM_DIMS[-1]
    benchmark.extra_info["num_shards"] = NUM_SHARDS
    benchmark.extra_info["cpu_count"] = os.cpu_count()


def test_sharded_round_end_to_end(benchmark):
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

    def sweep():
        rows = []
        histories = {}
        for shards in (1, NUM_SHARDS):
            scenario = config.with_overrides(num_shards=shards)
            start = time.perf_counter()
            result = run_experiment(scenario)
            elapsed = time.perf_counter() - start
            histories[shards] = result.history
            rows.append({"num_shards": shards, "seconds": round(elapsed, 3)})
        return rows, histories

    rows, histories = run_once(benchmark, sweep)
    reference = histories[1].series("update_norm")
    assert histories[NUM_SHARDS].series("update_norm") == reference, (
        "sharded run diverged from the unsharded reference"
    )

    print(f"\nEnd-to-end round latency — num_shards 1 vs {NUM_SHARDS}")
    print(format_table(rows))
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["cpu_count"] = os.cpu_count()
