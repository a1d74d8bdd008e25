"""TelemetryHook: harvest engine observables into the metrics registry.

The spans are recorded at explicit instrumentation points (they need to
wrap code); the *metrics* side mostly reads counters the engine already
maintains — the coordinator's ``redispatch_count``, the batched runner's
``batched_task_count``, the population's ``cache_info()``, the
buffered-async carry bookkeeping on each round record — so one hook at
``on_round_end`` is the natural choke point.  The hook does not implement
``on_updates_collected``, so registering it never makes the server retain
the round's updates: telemetry stays out of band.
"""

from __future__ import annotations

from repro.federated.engine.hooks import RoundHook


class TelemetryHook(RoundHook):
    """Snapshot engine observables into the run's metrics once per round."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry

    def on_round_end(self, server, plan, record) -> None:
        metrics = self.telemetry.metrics
        metrics.counter("rounds_total").inc()
        metrics.counter("clients_sampled_total").inc(len(plan.sampled_clients))

        backend = server.backend
        redispatch = getattr(backend, "redispatch_count", None)
        if redispatch is not None:
            metrics.gauge("distributed.redispatch_total").set(int(redispatch))
        # Only the batched backend has a stacked runner (``_runner``).
        batched = getattr(getattr(backend, "_runner", None), "batched_task_count", None)
        if batched is not None:
            metrics.gauge("batched.stacked_task_total").set(int(batched))

        for key, value in server.dataset.cache_info().items():
            metrics.gauge(f"population.cache_{key}").set(value)

        buffered = record.extras.get("buffered_async")
        if buffered:
            metrics.counter("buffered_async.folded_total").inc(buffered["folded"])
            metrics.counter("buffered_async.carried_out_total").inc(
                buffered["carried_out"]
            )
