"""Performance bench for the update fold.

``test_streaming_mean_peak_memory`` — peak traced allocations of the
accumulate/finalize fold protocol vs. a matrix ``aggregate`` call for the
mean aggregator at a large ``param_dim``.  The matrix call needs the full
``(clients, param_dim)`` stack; the fold holds one running vector plus the
update in flight, so its peak should be a small multiple of ``param_dim``
regardless of the client count.  Memory accounting is deterministic, so
this assertion also runs on CI.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.defenses.base import AggregationContext, MeanAggregator
from repro.experiments.results import format_table
from repro.federated.engine.plan import ClientUpdate

NUM_CLIENTS = 32
PARAM_DIM = 100_000  # buffered stack: 32 * 100k * 8 B ≈ 25.6 MB


def _iter_synthetic_updates():
    """Yield one round of synthetic client updates without retaining them."""
    for slot in range(NUM_CLIENTS):
        vector = np.random.default_rng(slot).normal(size=PARAM_DIM)
        yield ClientUpdate(client_id=slot, slot=slot, update=vector)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_streaming_mean_peak_memory():
    """Streaming aggregation must not materialise the round matrix."""
    global_params = np.zeros(PARAM_DIM)

    def buffered():
        ctx = AggregationContext(rng=np.random.default_rng(0))
        stacked = np.stack([u.update for u in _iter_synthetic_updates()])
        return MeanAggregator()(stacked, global_params, ctx)

    def streaming():
        ctx = AggregationContext(rng=np.random.default_rng(0))
        aggregator = MeanAggregator()
        state = aggregator.begin_round(ctx)
        for update in _iter_synthetic_updates():
            aggregator.accumulate(state, update)
        return aggregator.finalize(state, global_params, ctx)

    buffered_out, buffered_peak = _traced_peak(buffered)
    streaming_out, streaming_peak = _traced_peak(streaming)

    np.testing.assert_array_equal(streaming_out, buffered_out)

    rows = [
        {"path": "buffered", "peak_mib": buffered_peak / 2**20},
        {"path": "streaming", "peak_mib": streaming_peak / 2**20},
    ]
    print(
        f"\nMean aggregation peak memory — {NUM_CLIENTS} clients, "
        f"param_dim={PARAM_DIM}"
    )
    print(format_table(rows, floatfmt=".1f"))

    matrix_bytes = NUM_CLIENTS * PARAM_DIM * 8
    assert buffered_peak > matrix_bytes, "buffered path should hold the full stack"
    # Streaming holds the running sum + the update in flight (+ generator
    # scratch): a handful of param_dim vectors, nowhere near the matrix.
    assert streaming_peak < buffered_peak / 4, (
        f"streaming peak {streaming_peak / 2**20:.1f} MiB should be well under "
        f"the buffered {buffered_peak / 2**20:.1f} MiB"
    )
