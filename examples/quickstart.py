#!/usr/bin/env python
"""Quickstart: run CollaPois against a small non-IID federation.

The experiment is a declarative :class:`~repro.experiments.scenario.Scenario`
stored in ``examples/scenarios/collapois_quickstart.json`` — this script
loads it, runs it, and reports the population-level and client-level impact
of the backdoor.  The exact same run is available without Python:

    python -m repro run examples/scenarios/collapois_quickstart.json

Run with:  python examples/quickstart.py [backend]

``backend`` selects the client execution backend (``serial`` by default;
``thread``, ``batched`` or ``distributed`` parallelise local training across
clients with bit-identical results — see examples/parallel_backends.py).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import Scenario
from repro.experiments.results import format_table
from repro.metrics.client_level import top_k_metrics

SCENARIO = Path(__file__).parent / "scenarios" / "collapois_quickstart.json"


def main() -> None:
    backend = sys.argv[1] if len(sys.argv) > 1 else "serial"
    scenario = Scenario.load(SCENARIO).with_overrides(backend=backend)

    print("Running CollaPois against a 24-client non-IID federation ...")
    attacked = scenario.run()
    print("Running the clean baseline (no attack) ...")
    clean = scenario.with_overrides(attack="none").run()

    rows = [
        {
            "run": "clean",
            "benign_accuracy": clean.benign_accuracy,
            "attack_success_rate": clean.attack_success_rate,
        },
        {
            "run": "collapois",
            "benign_accuracy": attacked.benign_accuracy,
            "attack_success_rate": attacked.attack_success_rate,
        },
    ]
    print()
    print(format_table(rows))
    print()
    print(f"Compromised clients: {attacked.compromised_ids}")
    for k in (1.0, 25.0, 50.0):
        metrics = top_k_metrics(attacked.evaluation, k)
        print(
            f"Top-{k:>4.0f}% most affected benign clients: "
            f"Attack SR = {metrics['attack_success_rate']:.2f}, "
            f"Benign AC = {metrics['benign_accuracy']:.2f} "
            f"({metrics['num_clients']} clients)"
        )
    attack = attacked.extras["attack"]
    server = attacked.extras["server"]
    print(
        "\nDistance from the final global model to the Trojaned model X: "
        f"{attack.distance_to_trojan(server.global_params):.3f}"
    )


if __name__ == "__main__":
    main()
