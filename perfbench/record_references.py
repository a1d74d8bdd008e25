"""Record the per-seed reference outputs the benchmark checks runs against.

Usage (from the repository root)::

    python3 perfbench/record_references.py --seeds 0-63

Runs every workload once per seed and writes ``references.json``: for each
workload and seed, the sha256 of the ``TrainingHistory`` and the final
attack success rate and benign accuracy, with the host key (numpy version
and BLAS kernel config) they were recorded under.  Re-record only when a
change is meant to alter results; a benchmark run on a host with another
key checks that its repetitions replay each other instead.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # sets the BLAS thread pin before numpy loads
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    run.prepare_program()
    recorded: dict = {"host": run.host_key(), "workloads": {}}
    for name, workload in WORKLOADS.items():
        outputs = recorded["workloads"][name] = {}
        for seed in seeds:
            rep, _ = run.run_once(workload.scenario(seed), False, run.calibrate())
            problem = run.check_output(rep, None, workload.rounds)
            if problem is not None:
                print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                return 1
            outputs[str(seed)] = rep["output"]
            print(f"{name} seed {seed}: {rep['output']}", flush=True)
    run.REFERENCES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
