"""Bit-identity of the cross-client batched backend at Fig-8 model sizes.

Runs full-participation federations through the serial and
``backend="batched"`` execution paths — the Sentiment text head (the
figure's headline setting, where the model is all small GEMMs) and the
FEMNIST MLP — and asserts the two histories are identical, so a regression
in the batched math can never hide at benchmark scale.  Wall clock is not
measured here: the ``krum-sentiment-batched`` workload in ``perfbench/``
is the perf record of this backend.
"""

from __future__ import annotations

from repro.experiments.runner import build_dataset, run_experiment
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig


def _fig8_scenario(dataset: str) -> Scenario:
    """Full-participation clean run at the Fig-8 bench scale."""
    return Scenario(
        dataset=dataset,
        num_clients=24,
        samples_per_client=36,
        num_classes=6,
        image_size=16,
        alpha=0.2,
        hidden=(64,),
        rounds=8,
        sample_rate=1.0,
        attack="none",
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        max_test_samples=None,
        seed=7,
    )


def _assert_batched_matches_serial(scenario: Scenario) -> None:
    data = build_dataset(scenario)  # one federation shared by both backends
    histories = {
        backend: run_experiment(
            scenario.with_overrides(backend=backend), prebuilt_data=data
        ).history
        for backend in ("serial", "batched")
    }
    assert histories["batched"].series("update_norm") == histories["serial"].series(
        "update_norm"
    ), "batched backend diverged from serial"


def test_batched_throughput_fig8_sentiment():
    """Fig 8's Sentiment text head (all small GEMMs): where stacking pays most."""
    _assert_batched_matches_serial(_fig8_scenario("sentiment"))


def test_batched_throughput_fig8_femnist():
    """The FEMNIST MLP carries bigger GEMMs per client."""
    _assert_batched_matches_serial(_fig8_scenario("femnist"))
