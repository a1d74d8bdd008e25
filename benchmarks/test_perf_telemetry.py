"""Cost of run telemetry: ~zero disabled, <5% of round latency enabled.

Runs the same seeded federated workload (full participation, a
≥1e5-parameter MLP) with telemetry off and on, asserting the histories are
bit-identical — telemetry is strictly out-of-band observation — and that
the enabled run's median wall time stays within 5% (plus a small absolute
slack for timer noise) of the disabled run.  Each mode runs several times
and the medians are compared, because a single run's wall time on a shared
CI machine is too noisy to gate a single-digit-percent bound on.

The enabled run's whole-run phase breakdown
(:func:`repro.telemetry.render.phase_totals`) is printed next to the
medians, so a blown budget says *where* the time went, not just how much
there was.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.experiments.results import format_table
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig
from repro.telemetry import phase_totals

#: 256·384 + 384 + 384·10 + 10 = 102,538 parameters — above the 1e5 floor.
HIDDEN = (384,)
PARAM_DIM = 256 * HIDDEN[0] + HIDDEN[0] + HIDDEN[0] * 10 + 10

#: Runs per mode; medians over these are what the 5% bound compares.
REPEATS = 3

#: Absolute slack (seconds) on top of the 5% relative bound: sub-second
#: workloads on shared runners jitter by tens of milliseconds for reasons
#: unrelated to the code under test.
ABS_SLACK_S = 0.25


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


def test_telemetry_overhead():
    """telemetry off vs on: identical histories, <5% median latency cost."""
    base = _scenario()
    assert PARAM_DIM >= 100_000

    times = {"off": [], "on": []}
    histories = {}
    last_result = {}
    # Alternate modes so drift (cache warmup, cpu frequency) hits both.
    for _ in range(REPEATS):
        for label, enabled in (("off", False), ("on", True)):
            scenario = base.with_overrides(telemetry=enabled)
            start = time.perf_counter()
            result = scenario.run()
            times[label].append(time.perf_counter() - start)
            histories[label] = result.history.to_dict()["records"]
            last_result[label] = result
    assert histories["on"] == histories["off"], (
        f"telemetry changed the history at param_dim={PARAM_DIM}"
    )
    # Disabled runs must not even allocate telemetry state: the feature's
    # entire disabled-mode footprint is one None check per span site.
    assert last_result["off"].telemetry is None
    assert last_result["off"].extras["server"].telemetry is None
    assert last_result["on"].telemetry is not None

    off_median = statistics.median(times["off"])
    on_median = statistics.median(times["on"])
    overhead = on_median / off_median - 1.0
    assert on_median <= off_median * 1.05 + ABS_SLACK_S, (
        f"telemetry overhead {overhead:+.1%} exceeds the 5% budget "
        f"(off={off_median:.3f}s on={on_median:.3f}s)"
    )

    phases = phase_totals(last_result["on"].telemetry)
    rows = [
        {
            "mode": label,
            "median_s": round(statistics.median(times[label]), 3),
            "s_per_round": round(statistics.median(times[label]) / base.rounds, 3),
        }
        for label in ("off", "on")
    ]
    print(
        f"\nTelemetry overhead — {base.num_clients} clients, "
        f"param_dim={PARAM_DIM}, {REPEATS} repeats, {os.cpu_count()} cpus"
    )
    print(format_table(rows))
    print(f"overhead: {overhead:+.1%}; phases: {phases}")
