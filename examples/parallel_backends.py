#!/usr/bin/env python
"""Execution-engine tour: client execution backends + round hooks.

Runs the same seeded federated experiment on the serial, batched and
distributed backends, verifies the training histories are bit-identical
(the engine's determinism guarantee), reports wall-clock timings, and shows
a custom round hook streaming per-round telemetry.  Exits non-zero when any
backend's history differs from serial.

Run with:  python examples/parallel_backends.py
"""

from __future__ import annotations

import sys
import time

from repro.experiments import Scenario, run_experiment
from repro.federated.engine import RoundHook
from repro.registry import BACKENDS


class ProgressHook(RoundHook):
    """Minimal observer: one line per round, straight from the pipeline."""

    def on_round_end(self, server, plan, record) -> None:
        print(
            f"  round {record.round_idx:>2}: {len(plan.sampled_clients)} clients "
            f"({len(plan.compromised_sampled)} compromised), "
            f"mean benign loss {record.mean_benign_loss:.3f}, "
            f"update norm {record.update_norm:.3f}"
        )


def main() -> int:
    config = Scenario(
        dataset="femnist",
        num_clients=20,
        samples_per_client=32,
        num_classes=6,
        image_size=16,
        alpha=0.3,
        rounds=6,
        sample_rate=1.0,          # every client participates -> lots of parallel work
        attack="collapois",
        compromised_fraction=0.1,
        trojan_epochs=4,
        seed=3,
    )

    # "distributed" runs socket worker processes forked from this one (about
    # 0.015 s to start both, then a per-round parameter broadcast: the price
    # of the multi-host story — see README).
    backends = ["serial", "batched", "distributed"]
    print(f"Registered backends: {', '.join(BACKENDS.names())}")

    histories = {}
    for backend in backends:
        print(f"\n=== backend: {backend} ===")
        start = time.perf_counter()
        overrides = {"backend": backend}
        if backend == "distributed":
            overrides["backend_workers"] = 2
        result = run_experiment(
            config.with_overrides(**overrides),
            hooks=[ProgressHook()] if backend == "serial" else None,
        )
        elapsed = time.perf_counter() - start
        histories[backend] = result.history
        print(f"{backend}: {elapsed:.2f}s for {config.rounds} rounds")

    reference = histories["serial"].to_dict()
    diverged = []
    for backend, history in histories.items():
        identical = history.to_dict() == reference
        print(f"history[{backend}] bit-identical to serial: {identical}")
        if not identical:
            diverged.append(backend)
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
