"""Distill a pytest-benchmark JSON report into the repo's perf trajectory.

CI runs the benchmark suites with ``--benchmark-json=bench_raw.json``; this
script reduces that (large, machine-specific) report to the small record the
repo tracks per PR — one ``(op, median, param_dim)`` row per benchmark —
and writes ``BENCH_<pr>.json``, which the workflow uploads as an artifact::

    python benchmarks/record.py bench_raw.json --pr 4

``compare`` mode diffs a fresh report against the latest committed
``BENCH_<pr>.json`` and prints a per-benchmark delta table, so the recorded
perf trajectory is actually *read* every CI run, not just appended to::

    python benchmarks/record.py compare bench_raw.json

Regressions above the threshold (default 25%) print a ``WARNING`` but never
fail the run — medians from shared CI runners are too noisy to gate on; the
warning is the prompt for a human (or the next PR) to look.

``param_dim`` is taken from each benchmark's ``extra_info`` when the suite
records one (the perf benches tag themselves); benches without a parameter
dimension record ``null``.  Medians are in seconds, as reported by
pytest-benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def distill(raw: dict) -> list[dict]:
    """Reduce a pytest-benchmark report to (op, median, param_dim) rows.

    Benchmarks that tag ``extra_info["ledger_bytes"]`` (runs carrying a
    communication ledger) keep that total in the distilled record, so the
    perf trajectory tracks wire volume alongside wall time.  Benchmarks
    that tag ``extra_info["phases"]`` (telemetry-instrumented runs — a
    whole-run seconds-per-phase dict from
    :func:`repro.telemetry.render.phase_totals`) keep the phase breakdown,
    so the trajectory records *where* a benchmark's time went, not just how
    much there was.
    """
    records = []
    for bench in raw.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        record = {
            "op": bench["name"],
            "median": bench["stats"]["median"],
            "param_dim": extra.get("param_dim"),
        }
        if extra.get("ledger_bytes") is not None:
            record["ledger_bytes"] = extra["ledger_bytes"]
        if extra.get("phases") is not None:
            record["phases"] = extra["phases"]
        records.append(record)
    return sorted(records, key=lambda r: r["op"])


def latest_committed_record(root: Path) -> tuple[int, dict] | None:
    """Load the highest-numbered ``BENCH_<pr>.json`` under ``root``."""
    best: tuple[int, Path] | None = None
    for path in root.glob("BENCH_*.json"):
        stem = path.stem.removeprefix("BENCH_")
        if stem.isdigit() and (best is None or int(stem) > best[0]):
            best = (int(stem), path)
    if best is None:
        return None
    return best[0], json.loads(best[1].read_text())


def compare(
    fresh: list[dict], baseline: list[dict], threshold: float
) -> tuple[list[dict], list[str]]:
    """Diff fresh benchmark rows against a baseline record.

    Returns the delta rows (one per fresh benchmark, sorted by op) and the
    list of over-threshold regression descriptions.
    """
    base_by_op = {row["op"]: row for row in baseline}
    rows = []
    regressions = []
    for row in fresh:
        base = base_by_op.get(row["op"])
        entry = {
            "op": row["op"],
            "baseline_s": None if base is None else round(base["median"], 6),
            "median_s": round(row["median"], 6),
            "delta": "new",
        }
        if base is not None and base["median"] > 0:
            ratio = row["median"] / base["median"] - 1.0
            entry["delta"] = f"{ratio:+.1%}"
            if ratio > threshold:
                regressions.append(f"{row['op']}: {ratio:+.1%} vs baseline")
        rows.append(entry)
    for op in sorted(set(base_by_op) - {row["op"] for row in fresh}):
        rows.append(
            {"op": op, "baseline_s": round(base_by_op[op]["median"], 6),
             "median_s": None, "delta": "removed"}
        )
    return sorted(rows, key=lambda r: r["op"]), regressions


def _format_rows(rows: list[dict]) -> str:
    columns = ["op", "baseline_s", "median_s", "delta"]
    table = [[("" if row[c] is None else str(row[c])) for c in columns] for row in rows]
    widths = [max(len(c), *(len(line[i]) for line in table)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))]
    lines.extend("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)) for line in table)
    return "\n".join(lines)


def main_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="record.py compare",
        description="Diff a fresh pytest-benchmark report against the latest "
        "committed BENCH_<pr>.json (warn on regressions, never fail)",
    )
    parser.add_argument("report", type=Path, help="pytest-benchmark --benchmark-json output")
    parser.add_argument(
        "--against",
        type=Path,
        default=None,
        help="baseline BENCH_<pr>.json (default: highest-numbered committed one)",
    )
    parser.add_argument(
        "--warn-pct",
        type=float,
        default=25.0,
        help="slowdown percentage that triggers a warning (default 25)",
    )
    args = parser.parse_args(argv)
    threshold = args.warn_pct / 100.0

    fresh = distill(json.loads(args.report.read_text()))
    if args.against is not None:
        label = str(args.against)
        if not args.against.exists():
            print(f"baseline {label} does not exist; nothing to compare, skipping")
            return 0
        baseline = json.loads(args.against.read_text())
    else:
        found = latest_committed_record(Path(__file__).resolve().parent.parent)
        if found is None:
            print("no committed BENCH_<pr>.json to compare against; skipping")
            return 0
        label = f"BENCH_{found[0]}.json"
        baseline = found[1]

    baseline_records = baseline.get("records") or []
    if not baseline_records:
        print(f"baseline {label} records no benchmarks; nothing to compare, skipping")
        return 0

    rows, regressions = compare(fresh, baseline_records, threshold)
    print(f"Benchmark deltas vs {label} "
          f"(baseline cpu_count={baseline.get('cpu_count')}):")
    print(_format_rows(rows))
    for regression in regressions:
        print(f"WARNING: perf regression {regression}")
    if not regressions:
        print(f"No regressions above {threshold:.0%}.")
    # Deliberately non-fatal: shared-runner medians are too noisy to gate on.
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    parser = argparse.ArgumentParser(
        description="Distill a pytest-benchmark JSON report to BENCH_<pr>.json"
    )
    parser.add_argument("report", type=Path, help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--pr", type=int, required=True, help="PR number for the record")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path (default BENCH_<pr>.json next to the report's cwd)",
    )
    args = parser.parse_args(argv)

    raw = json.loads(args.report.read_text())
    records = distill(raw)
    if not records:
        print(f"error: no benchmarks found in {args.report}", file=sys.stderr)
        return 2
    machine_info = raw.get("machine_info", {})
    cpu = machine_info.get("cpu")
    payload = {
        "pr": args.pr,
        "cpu_count": cpu.get("count") if isinstance(cpu, dict) else None,
        "machine": machine_info.get("machine"),
        "records": records,
    }
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {out} ({len(records)} records)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
