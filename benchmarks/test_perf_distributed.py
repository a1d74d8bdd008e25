"""Bit-identity of the distributed execution backend at a 1e5-parameter model.

``test_distributed_round_latency`` runs the same seeded federated workload
— full participation, a ≥1e5-parameter MLP so the update vectors crossing
the wire are benchmark-sized — through the serial and distributed (2 local
socket workers) backends and asserts the histories are identical.  Round
latency is not measured here: the ``secagg-distributed`` workload in
``perfbench/`` times this backend, spawn and wire included.
"""

from __future__ import annotations

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


def test_distributed_round_latency():
    """serial vs 2-worker distributed; histories bit-identical."""
    base = _scenario()
    assert PARAM_DIM >= 100_000

    histories = {
        name: base.with_overrides(backend=name, **overrides).run().history.to_dict()["records"]
        for name, overrides in BACKENDS
    }
    for name, _overrides in BACKENDS[1:]:
        assert histories[name] == histories["serial"], (
            f"{name} backend diverged from serial at param_dim={PARAM_DIM}"
        )
