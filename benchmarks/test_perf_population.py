"""Peak memory of lazy client populations at large scale.

Runs a 1e5-client federated round loop over a lazy
:class:`~repro.federated.population.SyntheticPopulation` — under plain
``uniform`` participation and under ``buffered_async`` with churn +
stragglers — measuring peak traced memory with ``tracemalloc``, and
compares against materialising an *eager* federation of just 2,000 clients.
The lazy run must peak below the far smaller eager build: that is the
O(sampled clients) memory claim of the population subsystem, pinned as an
inequality so it cannot silently regress.
"""

from __future__ import annotations

import tracemalloc

from repro.data.femnist import SyntheticFEMNIST
from repro.experiments.results import format_table
from repro.experiments.scenario import Scenario
from repro.federated.client import LocalTrainingConfig
from repro.federated.population import EagerPopulation

LAZY_CLIENTS = 100_000
EAGER_CLIENTS = 2_000


def _scenario(**overrides) -> Scenario:
    base = dict(
        dataset="femnist",
        num_clients=LAZY_CLIENTS,
        samples_per_client=16,
        num_classes=6,
        image_size=12,
        hidden=(24,),
        rounds=2,
        attack="none",
        population="synthetic:cache_size=64,eval_clients=8",
        local=LocalTrainingConfig(epochs=1, batch_size=8, lr=0.05),
        seed=11,
        max_test_samples=8,
        eval_every=None,
    )
    base.update(overrides)
    return Scenario(**base)


def _traced(fn):
    """Run ``fn``, returning (result, peak_traced_bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _eager_build():
    generator = SyntheticFEMNIST(num_classes=6, image_size=12, seed=11)
    return EagerPopulation(
        generator,
        num_clients=EAGER_CLIENTS,
        samples_per_client=16,
        alpha=0.5,
        seed=11,
    )


def test_population_memory_is_o_sampled():
    """1e5 lazy clients must peak below an eager build of 2e3 clients."""
    peaks = {}
    dataset, peaks["eager_build"] = _traced(_eager_build)
    del dataset
    rows = [
        {
            "mode": f"eager build ({EAGER_CLIENTS} clients)",
            "clients": EAGER_CLIENTS,
            "peak_mb": round(peaks["eager_build"] / 1e6, 1),
        }
    ]

    runs = {
        "lazy uniform": _scenario(
            participation="uniform:sample_rate=0.0003,min_clients=8",
        ),
        "lazy buffered_async": _scenario(
            participation=(
                "tiered:sample_rate=0.0003,min_clients=8,"
                "availability=0.8,dropout_rate=0.001"
            ),
            aggregation_mode="buffered_async:buffer_size=6",
        ),
    }
    for label, scenario in runs.items():
        result, peaks[label] = _traced(scenario.run)
        cache = result.extras["dataset"].cache_info()
        rows.append(
            {
                "mode": f"{label} ({LAZY_CLIENTS} clients)",
                "clients": LAZY_CLIENTS,
                "peak_mb": round(peaks[label] / 1e6, 1),
                "materialized": cache["materializations"],
            }
        )
        del result

    # The acceptance pin: a full 1e5-client *training run* (two rounds,
    # evaluation included) stays under the memory of merely *building* a
    # 50×-smaller eager federation.
    assert peaks["lazy uniform"] < peaks["eager_build"], (
        f"lazy run peaked at {peaks['lazy uniform']} bytes ≥ eager build's "
        f"{peaks['eager_build']} at {EAGER_CLIENTS} clients"
    )
    assert peaks["lazy buffered_async"] < peaks["eager_build"]

    print(f"\nPopulation memory — lazy {LAZY_CLIENTS} vs eager {EAGER_CLIENTS} clients")
    print(format_table(rows))
