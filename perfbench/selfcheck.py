"""Quick self-check of the benchmark at a tiny size (about half a minute).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --tiny`` untraced
and traced, each in a fresh process, and checks that:

* the last line is the result object with exactly the keys ``correct``,
  ``attempted``, ``failed`` and ``metrics``,
  ``correct`` true and at least one repetition attempted;
* the untraced run reports every declared end-to-end metric and the traced
  run every declared per-layer metric, each with its declared unit;
* both runs of the seed produce the same output fingerprint, i.e. tracing
  does not change what the program computes.

Exits non-zero and names the first broken expectation otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def run_tiny(command: list[str], workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED), "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    output = next(json.loads(line)["output"] for line in lines if line.startswith('{"output"'))
    return json.loads(lines[-1]), output


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{label}: correct={result['correct']} attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics {got} != declared {expected}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: {name} value {metric['value']!r} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        untraced, plain_output = run_tiny(spec["command"], workload, 0)
        check_metrics(untraced, spec["end_to_end"], f"{workload} untraced")
        traced, traced_output = run_tiny(spec["command"], workload, 1)
        check_metrics(traced, spec["per_layer"], f"{workload} traced")
        if traced_output != plain_output:
            raise AssertionError(
                f"{workload}: traced output {traced_output} != untraced {plain_output}"
            )
        print(f"ok {workload}: {plain_output['history'][:16]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
