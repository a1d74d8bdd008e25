"""Overhead of pairwise-masked secure aggregation.

Runs the same seeded federated workload (full participation, a
≥1e5-parameter MLP) with secure aggregation off and on, asserting the
histories are bit-identical — masking is pure obfuscation, never a numeric
change — and that masking adds no payload bytes to the communication
ledger.  Each participant expands one seeded RNG stream of param_dim words
per neighbour on the round's SecAgg+ ring, k = min(n − 1, 2⌈log₂ n⌉) of
them, and the sealed aggregator expands them again to unmask: 2·n·k
streams per round, O(n · log n · param_dim) words, all in NumPy (here each
of the 12 participants masks with k = 8 of the 11 others).  Its wall-clock
cost is measured by the ``secagg-distributed`` workload in ``perfbench/``.
"""

from __future__ import annotations

from repro.experiments.results import format_table
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig

#: 256·384 + 384 + 384·10 + 10 = 102,538 parameters — above the 1e5 floor.
HIDDEN = (384,)
PARAM_DIM = 256 * HIDDEN[0] + HIDDEN[0] + HIDDEN[0] * 10 + 10


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


def test_secagg_masking_overhead():
    """plaintext vs masked mean aggregation; histories bit-identical."""
    base = _scenario()
    assert PARAM_DIM >= 100_000

    rows = []
    histories = {}
    ledgers = {}
    for label, secagg in (("plaintext", False), ("secagg", True)):
        result = base.with_overrides(secure_aggregation=secagg).run()
        histories[label] = result.history.to_dict()["records"]
        ledgers[label] = result.ledger.totals()
        rows.append({"mode": label, "ledger_bytes": ledgers[label]["bytes"]})
    assert histories["secagg"] == histories["plaintext"], (
        f"masking changed the history at param_dim={PARAM_DIM}"
    )
    # Masking adds zero wire volume: same frames, same payload bytes (the
    # only delta is the 'masked' flag in each update frame's JSON envelope).
    assert ledgers["secagg"]["payload_bytes"] == ledgers["plaintext"]["payload_bytes"]

    print(f"\nSecagg ledger — {base.num_clients} clients, param_dim={PARAM_DIM}")
    print(format_table(rows))
