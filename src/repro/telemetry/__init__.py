"""Out-of-band run telemetry: span tracing, metrics, worker-side profiling.

The package answers "where does a round's wall-clock go?" without ever
touching what a run computes: spans and metrics are recorded with the
monotonic clock, consume no RNG draws, and live entirely outside
:class:`~repro.federated.history.TrainingHistory` — histories with
telemetry on are bit-identical to telemetry off, per seed, on every
execution backend (pinned in ``tests/federated/test_telemetry.py``).

Three layers:

* :class:`~repro.telemetry.trace.SpanTracer` — nested monotonic-clock spans
  (``round``, ``dispatch``, ``client_train``, ``secagg_mask``/``unmask``,
  ``aggregate``, ``evaluate``) recorded at explicit
  instrumentation points in the server and every backend, each guarded by
  :func:`maybe_span` (defined in the engine, re-exported here);
* :class:`~repro.telemetry.metrics.MetricsRegistry` — counters, gauges and
  histograms wired to existing engine observables (redispatch counts,
  batched-task counts, population cache occupancy, coordinator queue
  depths) by :class:`~repro.telemetry.hook.TelemetryHook`;
* worker-side profiling over the wire — distributed workers time their own
  context-build/train/mask phases and attach a compact ``telemetry`` blob
  to every ``UPDATE`` frame (protocol v4); the coordinator merges those
  into the driver's trace and estimates a per-link clock offset.

Everything is bundled per run in :class:`~repro.telemetry.core.RunTelemetry`,
serialised into ``ExperimentResult.to_dict()["telemetry"]``, and rendered by
``python -m repro trace results.json``.
"""

from repro.federated.engine.backends import maybe_span
from repro.telemetry.core import RunTelemetry
from repro.telemetry.hook import TelemetryHook
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.render import (
    clock_offset_rows,
    context_build_rows,
    metric_rows,
    phase_rows,
    phase_totals,
    render_trace,
    slowest_task_rows,
)
from repro.telemetry.trace import Span, SpanTracer

__all__ = [
    "MetricsRegistry",
    "RunTelemetry",
    "Span",
    "SpanTracer",
    "TelemetryHook",
    "clock_offset_rows",
    "context_build_rows",
    "maybe_span",
    "metric_rows",
    "phase_rows",
    "phase_totals",
    "render_trace",
    "slowest_task_rows",
]
