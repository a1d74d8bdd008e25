"""Tests for trace rendering: the dict-in, text-out ``repro trace`` layer."""

from __future__ import annotations

from repro.telemetry import (
    clock_offset_rows,
    context_build_rows,
    metric_rows,
    phase_rows,
    phase_totals,
    render_trace,
    slowest_task_rows,
)


def _span(name, start, end, *, parent=None, **attrs):
    return {
        "id": 0, "name": name, "start": start, "end": end,
        "parent": parent, "attrs": attrs,
    }


def _sample_telemetry() -> dict:
    return {
        "version": 1,
        "spans": [
            _span("round", 0.0, 1.0, round=0),
            _span("client_train", 0.1, 0.5, round=0, client=2),
            _span("client_train", 0.1, 0.3, round=0, client=5),
            _span(
                "client_train", 0.2, 0.9, round=0, client=1,
                worker=1234, wire=True, context_build_s=0.042,
            ),
            _span("client_train", 0.1, 0.2, round=1, clients=8, batched=True),
            _span("aggregate", 0.9, 1.0, round=0),
            # Still-open spans must be ignored everywhere, never crash.
            _span("round", 1.0, None, round=1),
        ],
        "metrics": {
            "rounds_total": {"type": "counter", "value": 2},
            "shard.fold_busy_s": {
                "type": "histogram", "count": 4, "total": 2.0,
                "min": 0.25, "max": 1.0, "mean": 0.5,
            },
            "population.cache_size": {"type": "gauge", "value": 16},
            "empty_hist": {
                "type": "histogram", "count": 0, "total": 0.0,
                "min": None, "max": None, "mean": None,
            },
        },
        "clock_offsets": {"worker:1234": -13294.123456789},
    }


class TestPhaseRows:
    def test_groups_by_round_and_phase(self):
        rows = phase_rows(_sample_telemetry())
        by_key = {(r["round"], r["phase"]): r for r in rows}
        train0 = by_key[(0, "client_train")]
        assert train0["count"] == 3
        assert train0["total_s"] == round(0.4 + 0.2 + 0.7, 4)
        assert by_key[(0, "round")]["total_s"] == 1.0
        # The open round-1 span contributes nothing.
        assert (1, "round") not in by_key

    def test_within_a_round_phases_sort_by_total_descending(self):
        rows = [r for r in phase_rows(_sample_telemetry()) if r["round"] == 0]
        totals = [r["total_s"] for r in rows]
        assert totals == sorted(totals, reverse=True)


class TestPhaseTotals:
    def test_whole_run_seconds_per_phase(self):
        totals = phase_totals(_sample_telemetry())
        assert totals["round"] == 1.0
        assert totals["aggregate"] == round(0.1, 4)
        assert totals["client_train"] == round(0.4 + 0.2 + 0.7 + 0.1, 4)
        assert list(totals) == sorted(totals)


class TestSlowestTaskRows:
    def test_sorted_by_duration_and_labelled_by_execution_site(self):
        rows = slowest_task_rows(_sample_telemetry(), top=10)
        assert [r["seconds"] for r in rows] == sorted(
            (r["seconds"] for r in rows), reverse=True
        )
        where = {r["where"] for r in rows}
        assert "worker:1234" in where
        assert "driver" in where
        assert "driver (stack of 8)" in where
        stacked = next(r for r in rows if r["where"] == "driver (stack of 8)")
        assert stacked["client"] == "8 stacked"

    def test_top_limits_the_row_count(self):
        assert len(slowest_task_rows(_sample_telemetry(), top=2)) == 2


class TestMetricAndOffsetRows:
    def test_metric_rows_flatten_histograms(self):
        rows = {r["metric"]: r for r in metric_rows(_sample_telemetry())}
        assert rows["rounds_total"]["value"] == "2"
        assert "count=4" in rows["shard.fold_busy_s"]["value"]
        assert "mean=0.5000" in rows["shard.fold_busy_s"]["value"]
        assert rows["empty_hist"]["value"] == "count=0"

    def test_clock_offset_rows(self):
        (row,) = clock_offset_rows(_sample_telemetry())
        assert row["link"] == "worker:1234"
        assert row["offset_s"] == round(-13294.123456789, 6)


    def test_context_build_rows_list_each_worker_reported_build(self):
        assert context_build_rows(_sample_telemetry()) == [
            {"where": "worker:1234", "round": 0, "context_build_s": 0.042}
        ]


class TestRenderTrace:
    def test_report_contains_every_section(self):
        report = render_trace(_sample_telemetry(), top=3)
        assert "Per-round phase breakdown:" in report
        assert "Slowest 3 client-training task(s):" in report
        assert "Metrics:" in report
        assert "Worker clock offsets" in report
        assert "Worker context builds" in report
        assert "client_train" in report

    def test_sections_without_data_are_omitted(self):
        report = render_trace(
            {"version": 1, "spans": [_span("round", 0.0, 1.0, round=0)],
             "metrics": {}, "clock_offsets": {}}
        )
        assert "Per-round phase breakdown:" in report
        assert "Slowest" not in report
        assert "Metrics:" not in report
        assert "clock offsets" not in report
        assert "context builds" not in report
