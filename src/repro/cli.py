"""``python -m repro`` — run scenarios and sweeps without writing Python.

Seven subcommands::

    python -m repro list [family]        # registered components + params
    python -m repro run scenario.json    # run one scenario
    python -m repro sweep suite.json     # run a sweep suite
    python -m repro ledger results.json  # communication-ledger summary table
    python -m repro trace results.json   # telemetry phase-breakdown report
    python -m repro worker --listen :0   # standalone distributed worker
    python -m repro lint [paths]         # project-specific static analysis

``run`` accepts ``--set key=value`` overrides of any scenario field (values
parsed as literals, component fields accept spec strings like
``--set defense=krum:multi=3``; e.g. ``--set backend=batched``,
``--set rounds=4``, ``--set secure_aggregation=true``,
``--set telemetry=true``) and ``--out results.json`` to write the full
:class:`~repro.experiments.results.ExperimentResult` as JSON — the file
reloads losslessly via ``ExperimentResult.load()`` and re-running the
embedded scenario reproduces the history bit-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.defenses.base import Aggregator
from repro.experiments.results import format_table
from repro.experiments.scenario import Scenario
from repro.experiments.suite import Suite
from repro.registry import BACKENDS, DEFENSES, Registry, parse_literal


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or not key:
            raise SystemExit(f"error: malformed --set {pair!r}; expected key=value")
        overrides[key.strip()] = parse_literal(value)
    return overrides


def _cmd_list(args: argparse.Namespace) -> int:
    if args.family is None:
        rows = [
            {
                "family": family,
                "components": ", ".join(Registry.family(family).names()),
            }
            for family in Registry.families()
        ]
        print(format_table(rows))
        return 0
    registry = Registry.family(args.family)
    rows = []
    for name in registry.names():
        params = ", ".join(str(p) for p in registry.describe(name))
        row = {registry.family: name, "params": params or "(none)"}
        if registry is DEFENSES:
            # Aggregation capabilities: whether the defense folds each update
            # into O(param_dim) state (it overrides _fold) or buffers the
            # round, and whether it runs under secure aggregation
            # (server-blind = its math never inspects an individual update).
            component = registry.get(name)
            streaming = component._fold is not Aggregator._fold
            caps = ["streaming" if streaming else "buffered"]
            if not getattr(component, "requires_plaintext_updates", False):
                caps.append("server-blind")
            row["caps"] = ", ".join(caps)
        elif registry is BACKENDS:
            # Execution capabilities: does client work run in separate
            # processes, can the workers live on other hosts, do clients
            # train as one stacked model.
            component = registry.get(name)
            caps = []
            if getattr(component, "process_isolation", False):
                caps.append("processes")
            if getattr(component, "distributed", False):
                caps.append("multi-host")
            if getattr(component, "batched_execution", False):
                caps.append("batched")
            row["caps"] = ", ".join(caps) or "(none)"
        rows.append(row)
    print(format_table(rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = Scenario.load(args.scenario)
    overrides = _parse_overrides(args.overrides)
    if overrides:
        scenario = scenario.with_overrides(**overrides)
    label = scenario.name or Path(args.scenario).stem
    print(f"Running scenario {label!r} ({scenario.rounds} rounds, "
          f"{scenario.num_clients} clients, backend={scenario.backend}) ...")
    result = scenario.run()
    print(format_table([{"scenario": label, **result.summary()}]))
    if args.out is not None:
        # The full ExperimentResult round-trip: the written file reloads
        # losslessly via ExperimentResult.load()/from_dict().
        result.save(args.out)
        print(f"Wrote {args.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    suite = Suite.load(args.suite)
    label = suite.name or Path(args.suite).stem
    print(f"Running suite {label!r}: {len(suite)} cells ...")
    cell_fields = sorted({key for cell in suite.cells for key in cell})
    cells = suite.run(backend=args.backend, backend_workers=args.workers)
    rows = Suite.cell_rows(cells, *cell_fields)
    print(format_table(rows))
    if args.out is not None:
        # ``results`` carries the full per-cell ExperimentResult payloads in
        # grid order; each reloads losslessly via ExperimentResult.from_dict.
        payload = {
            "suite": suite.to_dict(),
            "rows": rows,
            "results": [cell.result.to_dict() for cell in cells],
        }
        args.out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"Wrote {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the lint stack is pure stdlib but irrelevant to runs.
    from repro.lint.base import Project
    from repro.lint.baseline import DEFAULT_BASELINE, load_baseline, write_baseline
    from repro.lint.engine import (
        lint_project,
        render_json,
        render_text,
        resolve_checkers,
        run_lint,
    )

    if args.list:
        rows = []
        for checker in resolve_checkers():
            for rule, text in sorted(checker.rules.items()):
                rows.append({"checker": checker.name, "rule": rule, "what": text})
        print(format_table(rows))
        return 0
    paths = args.paths or [Path(__file__).resolve().parent]
    if args.write_baseline:
        # Regenerate from the *unsuppressed* findings, so stale baseline
        # entries drop out; reasons already recorded are carried over.
        target = args.baseline if args.baseline is not None else DEFAULT_BASELINE
        project = Project.collect(paths)
        checkers = resolve_checkers(args.select or None, args.ignore or None)
        report = lint_project(project, checkers, baseline=None)
        reasons = load_baseline(target) if Path(target).exists() else {}
        count = write_baseline(target, report.findings, reasons)
        print(f"Wrote {count} suppression(s) to {target}")
        return 0
    report = run_lint(
        paths,
        select=args.select or None,
        ignore=args.ignore or None,
        baseline_path=args.baseline,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code


def _cmd_ledger(args: argparse.Namespace) -> int:
    """Summarise the communication ledger of a saved results JSON."""
    from repro.federated.engine.ledger import CommunicationLedger

    data = json.loads(Path(args.results).read_text())
    # Accept a bare ledger dict too (e.g. extracted by other tooling).
    ledger_data = data.get("ledger") if "ledger" in data else data
    if not isinstance(ledger_data, dict) or "entries" not in ledger_data:
        print(
            f"error: {args.results} carries no communication ledger "
            "(re-run with a version that records one)",
            file=sys.stderr,
        )
        return 2
    ledger = CommunicationLedger.from_dict(ledger_data)
    rows = [
        {
            "round": row["round"],
            "channel": row["channel"],
            "dir": row["direction"],
            "links": row["links"],
            "frames": row["frames"],
            "header_B": row["header_bytes"],
            "payload_B": row["payload_bytes"],
        }
        for row in ledger.round_rows()
    ]
    print(format_table(rows))
    totals = ledger.totals()
    print(
        f"total: {totals['frames']} frames, {totals['bytes']} bytes "
        f"({totals['header_bytes']} header + {totals['payload_bytes']} payload)"
    )
    # Known channels a ledger may carry; a results file without one (e.g. a
    # serial run has no 'wire' frames) renders fine — note the absence so
    # the reader doesn't mistake it for zero traffic.
    recorded = {row["channel"] for row in rows}
    notes = {
        "model": "no logical client-server traffic was metered",
        "wire": "recorded only by backend='distributed'",
    }
    for channel, why in notes.items():
        if channel not in recorded:
            print(f"(channel '{channel}' absent — {why})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render the telemetry trace of a saved results JSON."""
    from repro.telemetry import render_trace

    data = json.loads(Path(args.results).read_text())
    # Accept a bare RunTelemetry dict too (e.g. extracted by other tooling).
    telemetry = data.get("telemetry") if "telemetry" in data else data
    if not isinstance(telemetry, dict) or "spans" not in telemetry:
        print(
            f"error: {args.results} carries no telemetry "
            "(re-run with --set telemetry=true)",
            file=sys.stderr,
        )
        return 2
    print(render_trace(telemetry, top=args.top))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    # Imported lazily: the worker pulls in the whole experiments stack.
    from repro.federated.engine.distributed.worker import run_worker

    code = run_worker(listen=args.listen, once=args.once)
    if args.once:
        # A one-session worker's coordinator reaps it as soon as it exits;
        # interpreter finalization would only delay that.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run CollaPois reproduction scenarios from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list registered components of a family"
    )
    list_parser.add_argument(
        "family",
        nargs="?",
        help="component family (defenses, attacks, datasets, models, "
        "algorithms, triggers, backends, checkers); omit to list families",
    )
    list_parser.set_defaults(func=_cmd_list)

    run_parser = sub.add_parser("run", help="run one scenario JSON file")
    run_parser.add_argument("scenario", type=Path, help="path to a scenario JSON")
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario field (repeatable); values are parsed as "
        "literals, component fields accept spec strings",
    )
    run_parser.add_argument("--out", type=Path, help="write results as JSON")
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser("sweep", help="run a sweep-suite JSON file")
    sweep_parser.add_argument("suite", type=Path, help="path to a suite JSON")
    sweep_parser.add_argument(
        "--backend", help="override the client-execution backend for every cell"
    )
    sweep_parser.add_argument(
        "--workers", type=int, help="worker cap for the distributed backend"
    )
    sweep_parser.add_argument("--out", type=Path, help="write results as JSON")
    sweep_parser.set_defaults(func=_cmd_sweep)

    ledger_parser = sub.add_parser(
        "ledger",
        help="summarise the communication ledger of a results JSON",
        description="Render the per-round frame/byte table of the "
        "communication ledger embedded in a `repro run --out` results file "
        "(channel 'model' = logical client-server traffic on any backend; "
        "'wire' = actual coordinator-worker frames of backend='distributed').",
    )
    ledger_parser.add_argument(
        "results", type=Path, help="path to a results JSON with a ledger"
    )
    ledger_parser.set_defaults(func=_cmd_ledger)

    trace_parser = sub.add_parser(
        "trace",
        help="render the telemetry trace of a results JSON",
        description="Render the per-round phase breakdown, slowest "
        "client-training tasks, engine metrics and worker clock offsets of "
        "the telemetry embedded in a `repro run --set telemetry=true --out "
        "results.json` file (also accepts a bare telemetry dict).",
    )
    trace_parser.add_argument(
        "results", type=Path, help="path to a results JSON with telemetry"
    )
    trace_parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many slowest client-training tasks to list (default 10)",
    )
    trace_parser.set_defaults(func=_cmd_trace)

    worker_parser = sub.add_parser(
        "worker",
        help="start a standalone distributed-execution worker",
        description="Start a worker process for backend='distributed'. The "
        "worker listens for a coordinator, prints 'REPRO-WORKER LISTENING "
        "<host> <port>' on stdout once bound, and serves coordinators until "
        "interrupted. Point a run at it with "
        "backend=\"distributed:connect='host:port'\".",
    )
    worker_parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="address to bind (default 127.0.0.1:0 = loopback, ephemeral port)",
    )
    worker_parser.add_argument(
        "--once",
        action="store_true",
        help="exit after serving one coordinator (what spawned workers use)",
    )
    worker_parser.set_defaults(func=_cmd_worker)

    lint_parser = sub.add_parser(
        "lint",
        help="run the project-specific static analysis",
        description="Run the repo's own lint checkers (seed discipline, "
        "backend shared-state, fold determinism, wire-protocol versioning, "
        "registry completeness) over Python sources. With no paths, lints "
        "the installed repro package. Exit status: 0 clean, 1 findings, "
        "2 usage error.",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    lint_parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="CHECKER",
        help="run only these checkers (repeatable; accepts registry specs "
        "like \"rng-discipline:allow=('repro/legacy/*',)\")",
    )
    lint_parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CHECKER",
        help="skip these checkers (repeatable)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    lint_parser.add_argument(
        "--baseline",
        type=Path,
        help="baseline file of suppressed findings (default: the baseline "
        "committed with the package)",
    )
    lint_parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit",
    )
    lint_parser.add_argument(
        "--list",
        action="store_true",
        help="list the available checkers and their rules",
    )
    lint_parser.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
