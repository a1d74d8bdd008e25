"""Round-latency benches for the distributed execution backend.

``test_distributed_round_latency`` runs the same seeded federated workload
— full participation, a ≥1e5-parameter MLP so the update vectors crossing
the wire are benchmark-sized — through the serial and distributed (2 local
socket workers) backends, asserting history bit-identity across both and
recording per-backend round latency into the BENCH
trajectory.  Wall-clock *assertions* are deliberately absent: the
distributed backend pays two interpreter spawns plus per-round parameter
broadcasts, which only amortise on real multi-host/multi-core hardware,
and shared CI runners are too noisy to gate on.  The numbers are recorded
so the trajectory shows when the break-even point moves.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import run_once
from repro.experiments.results import format_table
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig

NUM_WORKERS = 2
#: 256·384 + 384 + 384·10 + 10 = 102,538 parameters — above the 1e5 floor.
HIDDEN = (384,)
PARAM_DIM = 256 * HIDDEN[0] + HIDDEN[0] + HIDDEN[0] * 10 + 10

BACKENDS = (
    ("serial", {}),
    ("distributed", {"backend_workers": NUM_WORKERS}),
)


def _scenario() -> Scenario:
    return Scenario(
        dataset="femnist",
        num_clients=12,
        samples_per_client=16,
        num_classes=10,
        image_size=16,
        hidden=HIDDEN,
        rounds=2,
        sample_rate=1.0,
        attack="none",
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        seed=9,
        max_test_samples=8,
    )


def test_distributed_round_latency(benchmark):
    """serial vs 2-worker distributed; histories bit-identical."""
    base = _scenario()
    assert PARAM_DIM >= 100_000

    def sweep():
        rows = []
        histories = {}
        for name, overrides in BACKENDS:
            scenario = base.with_overrides(backend=name, **overrides)
            start = time.perf_counter()
            result = scenario.run()
            elapsed = time.perf_counter() - start
            histories[name] = result.history.to_dict()["records"]
            rows.append(
                {
                    "backend": name,
                    "seconds": round(elapsed, 3),
                    "s_per_round": round(elapsed / base.rounds, 3),
                }
            )
        return rows, histories

    rows, histories = run_once(benchmark, sweep)
    for name, _overrides in BACKENDS[1:]:
        assert histories[name] == histories["serial"], (
            f"{name} backend diverged from serial at param_dim={PARAM_DIM}"
        )

    print(
        f"\nRound latency — {base.num_clients} clients, param_dim={PARAM_DIM}, "
        f"{NUM_WORKERS} workers, {os.cpu_count()} cpus"
    )
    print(format_table(rows))
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["param_dim"] = PARAM_DIM
    benchmark.extra_info["num_workers"] = NUM_WORKERS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
