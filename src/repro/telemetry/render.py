"""Turn a serialised telemetry dict into the ``repro trace`` report.

Input is the plain-dict form :meth:`~repro.telemetry.core.RunTelemetry.
to_dict` produces (the ``telemetry`` key of a ``repro run --out`` results
file) — rendering works on saved JSON from any process, so the functions
here take dicts, not live tracer objects.
"""

from __future__ import annotations

from repro.experiments.results import format_table

#: Phases that carry a ``round`` attribute but describe per-task work; the
#: slowest-task list draws from these.
_TASK_PHASE = "client_train"


def _finished_spans(telemetry: dict) -> list[dict]:
    return [s for s in telemetry.get("spans", []) if s.get("end") is not None]


def _where(attrs: dict) -> str:
    """Human label for where a task span executed."""
    worker = attrs.get("worker")
    if worker is not None:
        return f"worker:{worker}"
    if attrs.get("batched"):
        return f"driver (stack of {attrs.get('clients', '?')})"
    return "driver"


def phase_rows(telemetry: dict) -> list[dict]:
    """Per-round phase breakdown: one row per (round, span name)."""
    totals: dict[tuple, dict] = {}
    for span in _finished_spans(telemetry):
        round_idx = span.get("attrs", {}).get("round", "")
        key = (round_idx, span["name"])
        entry = totals.setdefault(key, {"count": 0, "total": 0.0})
        entry["count"] += 1
        entry["total"] += span["end"] - span["start"]
    rows = []
    for (round_idx, name), entry in sorted(
        totals.items(), key=lambda item: (str(item[0][0]), -item[1]["total"])
    ):
        rows.append(
            {
                "round": round_idx,
                "phase": name,
                "count": entry["count"],
                "total_s": round(entry["total"], 4),
                "mean_s": round(entry["total"] / entry["count"], 4),
            }
        )
    return rows


def phase_totals(telemetry: dict) -> dict[str, float]:
    """Whole-run seconds per phase name (the BENCH distillation shape)."""
    totals: dict[str, float] = {}
    for span in _finished_spans(telemetry):
        totals[span["name"]] = totals.get(span["name"], 0.0) + (
            span["end"] - span["start"]
        )
    return {name: round(seconds, 4) for name, seconds in sorted(totals.items())}


def slowest_task_rows(telemetry: dict, top: int = 10) -> list[dict]:
    """The ``top`` longest client-training spans, slowest first."""
    tasks = [
        span for span in _finished_spans(telemetry) if span["name"] == _TASK_PHASE
    ]
    tasks.sort(key=lambda s: s["end"] - s["start"], reverse=True)
    rows = []
    for span in tasks[:top]:
        attrs = span.get("attrs", {})
        client = attrs.get("client")
        if client is None:
            client = f"{attrs.get('clients', '?')} stacked"
        rows.append(
            {
                "round": attrs.get("round", ""),
                "client": client,
                "where": _where(attrs),
                "seconds": round(span["end"] - span["start"], 4),
            }
        )
    return rows


def metric_rows(telemetry: dict) -> list[dict]:
    """One row per metric instrument, histogram summaries flattened."""
    rows = []
    for name, data in sorted(telemetry.get("metrics", {}).items()):
        kind = data.get("type", "?")
        if kind == "histogram":
            mean = data.get("mean")
            value = (
                f"count={data.get('count')} mean={mean:.4f} "
                f"min={data.get('min'):.4f} max={data.get('max'):.4f}"
                if data.get("count")
                else "count=0"
            )
        else:
            value = str(data.get("value"))
        rows.append({"metric": name, "type": kind, "value": value})
    return rows


def clock_offset_rows(telemetry: dict) -> list[dict]:
    """Per-link clock-offset estimates (driver clock minus worker clock)."""
    return [
        {"link": link, "offset_s": round(offset, 6)}
        for link, offset in sorted(telemetry.get("clock_offsets", {}).items())
    ]


def context_build_rows(telemetry: dict) -> list[dict]:
    """Each distributed worker's own context-build time, in trace order.

    A worker reports it on the first update after a build, as the
    ``context_build_s`` attribute of that task's ``client_train`` span.
    """
    return [
        {
            "where": _where(span["attrs"]),
            "round": span["attrs"].get("round", ""),
            "context_build_s": span["attrs"]["context_build_s"],
        }
        for span in _finished_spans(telemetry)
        if span["name"] == _TASK_PHASE and "context_build_s" in span.get("attrs", {})
    ]


def render_trace(telemetry: dict, top: int = 10) -> str:
    """The full plain-text report ``repro trace`` prints."""
    sections = ["Per-round phase breakdown:", format_table(phase_rows(telemetry))]
    tasks = slowest_task_rows(telemetry, top=top)
    if tasks:
        sections += [f"\nSlowest {len(tasks)} client-training task(s):",
                     format_table(tasks)]
    builds = context_build_rows(telemetry)
    if builds:
        sections += ["\nWorker context builds (worker-measured):", format_table(builds)]
    metrics = metric_rows(telemetry)
    if metrics:
        sections += ["\nMetrics:", format_table(metrics)]
    offsets = clock_offset_rows(telemetry)
    if offsets:
        sections += ["\nWorker clock offsets (driver - worker, min over frames):",
                     format_table(offsets)]
    return "\n".join(sections)
