"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload krum-sentiment-batched --seed 1 --seconds 32 --trace 0

The run repeats the workload's run entry (``run_experiment``) with the
scenario built from ``--seed`` until ``--seconds`` have passed and the
workload's minimum repetition count is met.  Every repetition's history
is checked against the per-seed reference in ``references.json`` (or,
for a seed without one, against the run's first repetition); a mismatch
or an exception counts as a failed repetition.

``--trace 0`` reports the end-to-end metrics, measured with only the two
clock wrappers of :data:`layers.CLOCK_BOUNDARIES` installed.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones; the difference of their median totals is
``trace.overhead_s``.

Times are reported at a fixed reference host speed.  The shared 2-vCPU
host this benchmark was written on runs the same code up to ~1.5x slower
in phases lasting seconds, differently on each CPU (CPU time slows as
much as wall time, so it is the host, not scheduling).  The benchmark
pins itself, and so the distributed workers it spawns, to one CPU, times
a fixed calibration kernel (:func:`calibrate`, Python, small-matrix and
short-call numpy work like the program's) there between repetitions and before each
round and closing evaluation, and multiplies each stretch of a repetition
by ``CALIBRATION_REF_S`` over the kernel's time around that stretch; the
calibrations' own time is not counted.  Short stretches track the host's
short phases, which one factor per repetition would average away.  The
kernel is benchmark code, so a change to the program moves the
program's times and leaves the factor alone.  The factors and an
unscaled median are printed for people.  On one CPU the distributed
workers train one after the other, so ``secagg-distributed`` rounds
measure the summed work of driver and workers, not their overlap.

Lines before the last are for people: the run manifest (what ran where),
the tail percentile used, and in a traced run the per-layer table.  The
last line is the result object.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads per workload process.  The benchmark process and the distributed
#: workers must fit the host's cores together, and the model GEMMs here
#: are small enough that extra BLAS threads mostly add run-to-run spread.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import CLOCK_BOUNDARIES, LAYER_BOUNDARIES, Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"
#: The run entry whose fresh-interpreter import is the cold start.
RUN_ENTRY = "repro.experiments.runner"
IMPORT_SAMPLES = 10
#: Seconds the calibration kernel takes on the reference host (a 2-vCPU
#: Intel Xeon VM in its fast phase); every reported time is scaled to it.
CALIBRATION_REF_S = 0.0026
#: Kernel timings per calibration; their median is the calibration.
CALIBRATION_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_round_s": "s",
    "round_p50_s": "s",
    "round_tail_s": "s",
    "client_updates_per_s": "1/s",
    "final_eval_s": "s",
    "total_s": "s",
    "import_s": "s",
    "peak_rss_mb": "MB",
}

#: Every layer is reported on every workload; a layer the workload does
#: not use reads 0 there.
PER_LAYER_UNITS = {
    "runner.build_dataset_s": "s",
    "attack.setup_s": "s",
    "attack.compute_update_s": "s",
    "attack.compute_update_calls": "count",
    "client.benign_update_s": "s",
    "client.benign_update_calls": "count",
    "worker.train_s": "s",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.optim_step_s": "s",
    "batched.run_s": "s",
    "batched.stacked_share": "ratio",
    "population.client_s": "s",
    "population.materializations": "count",
    "population.hit_ratio": "ratio",
    "defense.accumulate_s": "s",
    "defense.finalize_s": "s",
    "defense.updates_folded": "count",
    "secagg.mask_s": "s",
    "secagg.unmask_s": "s",
    "distributed.spawn_s": "s",
    "wire.send_s": "s",
    "wire.recv_s": "s",
    "wire.bytes_per_round": "B",
    "wire.frames_per_round": "count",
    "distributed.redispatch_count": "count",
    "eval.evaluate_clients_s": "s",
    "eval.clients_evaluated": "count",
    "server.round_self_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


# -- set-up --------------------------------------------------------------------


def prepare_program() -> None:
    """Make ``src`` importable here and in every child, and compile it once.

    Compiling up front keeps the first run's ``import_s`` comparable with
    later runs, which find the bytecode already written.
    """
    sys.path.insert(0, str(SRC))
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    compileall.compile_dir(str(SRC / "repro"), quiet=1)


def measure_import() -> float:
    """Seconds a fresh interpreter takes to import the run entry (cold start)."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {RUN_ENTRY}; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        check=True, capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    return float(out.stdout.split()[-1])


_CALIBRATION_DATA: list = []


def _calibration_kernel() -> None:
    """A fixed mix of interpreter, small-matrix and many-small-array work.

    The matrix loop is like a training step; the generator loop is like
    materialising and evaluating a client, many short numpy calls, which
    a host's slow phases slow more than they slow arithmetic.
    """
    import numpy

    if not _CALIBRATION_DATA:
        rng = numpy.random.default_rng(0)
        _CALIBRATION_DATA.extend(
            (rng.standard_normal((32, 256)), rng.standard_normal((256, 64)))
        )
    x, w = _CALIBRATION_DATA
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 61] = counts.get(i % 61, 0) + i
    for _ in range(30):
        h = numpy.maximum(x @ w, 0.0)
        w = w - 1e-4 * (x.T @ h)
    for i in range(20):
        rng = numpy.random.default_rng(i)
        a = rng.standard_normal((8, 64))
        labels = rng.integers(0, 10, 8)
        predicted = numpy.argmax(a @ w[:, :10][:64], axis=1)
        counts[i] = int((predicted == labels).sum()) + int((a[labels > 3] > 0).sum())


def calibrate() -> float:
    """Median seconds of the calibration kernel now, on this process's CPU."""
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        _calibration_kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], check=True, capture_output=True, text=True, timeout=30, cwd=ROOT
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def blas_runtime() -> dict:
    """The BLAS numpy loaded: vendor, build config with its CPU kernel, threads.

    The config string names the kernel set OpenBLAS picked for this CPU;
    two hosts with different kernels may round differently, so it keys the
    recorded references.
    """
    import numpy

    info: dict = {"vendor": None, "config": None, "threads": None}
    try:
        info["vendor"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info.update(config=config().decode().strip(), threads=threads())
                return info
    return info


def host_key() -> str:
    """What a recorded reference output depends on besides the program."""
    import numpy

    return f"numpy {numpy.__version__}; {blas_runtime()['config']}"


def manifest(workload, seed: int, args) -> dict:
    """What ran where: revision, toolchain, BLAS, CPUs and the workload seed."""
    import numpy
    import scipy

    blas = blas_runtime()
    blas.update(threads_pinned=BLAS_THREADS,
                env={var: os.environ.get(var) for var in _BLAS_ENV})
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if revision else None
    scenario = workload.scenario(seed, tiny=args.tiny)
    workers = scenario.backend_workers or 0
    return {
        "git_revision": revision,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "processes": 1 + workers,
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "scenario_sha256": hashlib.sha256(scenario.to_json().encode()).hexdigest()[:16],
    }


# -- one repetition ----------------------------------------------------------------


def fingerprint(result) -> dict:
    """The output a correct program must reproduce bit for bit per seed."""
    history = json.dumps(result.history.to_dict(), sort_keys=True)
    return {
        "history": hashlib.sha256(history.encode()).hexdigest(),
        "attack_success_rate": float(result.evaluation.mean_attack_success_rate),
        "benign_accuracy": float(result.evaluation.mean_benign_accuracy),
    }


def run_once(scenario, traced: bool, calibration: float) -> tuple[dict, float]:
    """One call of the run entry, timed at the clock or at every layer boundary.

    ``calibration`` is the kernel's time just before the call.  The kernel
    is timed again before every round and the closing evaluation (outside
    their spans) and after the call.  Each stretch of the call between two
    calibrations is scaled by the mean of the two, and the calibrations'
    own time is left out.  Returns the repetition, its times at the
    reference speed, and the last calibration.
    """
    from repro.experiments.runner import run_experiment

    recorder = Recorder(checkpoint=calibrate)
    recorder.install(LAYER_BOUNDARIES if traced else CLOCK_BOUNDARIES)
    try:
        start = time.perf_counter()
        result = run_experiment(scenario)
        end = time.perf_counter()
    finally:
        recorder.uninstall()
    after = calibrate()
    points = [(start, start, calibration), *recorder.checkpoints, (end, end, after)]
    stretches = [(lo, hi, CALIBRATION_REF_S / statistics.mean((before, later)))
                 for (_, lo, before), (hi, _, later) in itertools.pairwise(points)]

    def clock(t: float) -> float:
        """Reference-speed seconds from ``start`` to ``t``, calibrations left out."""
        return sum(max(0.0, min(t, hi) - lo) * factor for lo, hi, factor in stretches)

    rounds = [(s, e) for layer, s, e in recorder.top_level if layer == "server.round"]
    evals = [(s, e) for layer, s, e in recorder.top_level
             if layer == "eval.evaluate_clients" and s >= rounds[-1][1]]
    history = result.history
    run_s = sum(hi - lo for lo, hi, _ in stretches)
    rep = {
        "total_s": clock(end),
        "setup_s": clock(rounds[0][0]),
        "round_s": [clock(e) - clock(s) for s, e in rounds],
        "final_eval_s": clock(evals[-1][1]) - clock(evals[-1][0]),
        "updates": sum(len(r.sampled_clients) for r in history.records),
        "rounds": len(history),
        "output": fingerprint(result),
        # The repetition's mean host-speed factor.
        "scale": clock(end) / run_s,
    }
    if traced:
        layers = layer_metrics(recorder, result, run_s)
        rep["layers"] = {name: value * rep["scale"] if name.endswith("_s") else value
                         for name, value in layers.items()}
        rep["table"] = {k: list(v) for k, v in recorder.layers.items()}
    return rep, after


def layer_metrics(recorder: Recorder, result, run_s: float) -> dict:
    """Per-layer numbers of one traced repetition, in seconds as measured.

    ``run_s`` is the run entry's wall time less the calibrations in it.
    """
    server = result.extras["server"]
    dataset = result.extras["dataset"]
    records = result.history.records
    benign_tasks = sum(len(r.sampled_clients) - len(r.compromised_sampled) for r in records)
    runner = getattr(server.backend, "_runner", None)
    stacked = getattr(runner, "batched_task_count", 0) or 0
    cache_info = getattr(dataset, "cache_info", None)
    materializations = cache_info()["materializations"] if callable(cache_info) else 0
    lookups = recorder.calls("population.client")
    wire_rows = [r for r in result.ledger.round_rows()
                 if r["channel"] == "wire" and r["round"] >= 0]
    worker_train = worker_mask = 0.0
    for span in (result.telemetry or {}).get("spans", []):
        attrs = span.get("attrs", {})
        if span["name"] == "client_train" and attrs.get("wire"):
            worker_train += span["end"] - span["start"]
            worker_mask += float(attrs.get("mask_s") or 0.0)
    top_level = sum(e - s for _layer, s, e in recorder.top_level)
    rounds = len(records)
    return {
        "runner.build_dataset_s": recorder.busy("runner.build_dataset"),
        "attack.setup_s": recorder.busy("attack.setup"),
        "attack.compute_update_s": recorder.busy("attack.compute_update"),
        "attack.compute_update_calls": recorder.calls("attack.compute_update"),
        "client.benign_update_s": recorder.busy("client.benign_update"),
        "client.benign_update_calls": recorder.calls("client.benign_update"),
        "worker.train_s": worker_train,
        "nn.forward_s": recorder.busy("nn.forward"),
        "nn.backward_s": recorder.busy("nn.backward"),
        "nn.optim_step_s": recorder.busy("nn.optim_step"),
        "batched.run_s": recorder.busy("batched.run"),
        "batched.stacked_share": stacked / benign_tasks if benign_tasks else 0.0,
        "population.client_s": recorder.busy("population.client"),
        "population.materializations": materializations,
        # An eager dataset has no cache, so no lookup hits one.
        "population.hit_ratio": 1.0 - materializations / lookups if lookups else 0.0,
        "defense.accumulate_s": recorder.busy("defense.accumulate"),
        "defense.finalize_s": recorder.busy("defense.finalize"),
        "defense.updates_folded": recorder.tallies["defense.updates_folded"],
        "secagg.mask_s": recorder.busy("secagg.mask") + worker_mask,
        "secagg.unmask_s": recorder.self_time("secagg.unmask"),
        "distributed.spawn_s": recorder.busy("distributed.spawn"),
        "wire.send_s": recorder.busy("wire.send"),
        "wire.recv_s": recorder.busy("wire.recv"),
        "wire.bytes_per_round": sum(
            r["header_bytes"] + r["payload_bytes"] for r in wire_rows) / rounds,
        "wire.frames_per_round": sum(r["frames"] for r in wire_rows) / rounds,
        "distributed.redispatch_count": getattr(server.backend, "redispatch_count", 0),
        "eval.evaluate_clients_s": recorder.busy("eval.evaluate_clients"),
        "eval.clients_evaluated": (
            recorder.calls("eval.evaluate_clients") * len(result.evaluation.client_ids)
        ),
        "server.round_self_s": recorder.self_time("server.round"),
        "trace.unaccounted_s": run_s - top_level,
    }


def check_output(rep: dict, expected: dict | None, rounds: int) -> str | None:
    """Why this repetition's output is wrong, or ``None`` when it is right."""
    out = rep["output"]
    if rep["rounds"] != rounds:
        return f"ran {rep['rounds']} rounds, expected {rounds}"
    for key in ("attack_success_rate", "benign_accuracy"):
        if not (math.isfinite(out[key]) and 0.0 <= out[key] <= 1.0):
            return f"{key}={out[key]!r} is not a rate"
    if expected is not None and out != expected:
        return f"output {out} differs from reference {expected}"
    return None


# -- a run ------------------------------------------------------------------------


def load_reference(workload: str, seed: int) -> dict | None:
    """The recorded output for this seed, if one was recorded on a like host."""
    if not REFERENCES.exists():
        return None
    recorded = json.loads(REFERENCES.read_text())
    if recorded["host"] != host_key():
        return None
    return recorded["workloads"].get(workload, {}).get(str(seed))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def run(workload, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Repeat the workload, check every output, and keep the timed repetitions.

    The first repetition warms the process (lazy imports, allocator, page
    cache) and is checked but not timed.  A traced run then alternates
    untraced and traced repetitions, so both see the same machine state.
    An untraced run takes its ``import_s`` samples between repetitions,
    spread over the run rather than bunched at its start.  A calibration
    is taken between every two scaled timings (see :func:`run_once`); an
    import sample is scaled by the mean of the two around it.
    """
    scenario = workload.scenario(seed, tiny=tiny)
    traced_scenario = scenario.with_overrides(telemetry=True)
    reference = None if tiny else load_reference(workload.name, seed)
    # A seed without a recorded reference is held to its first output:
    # every repetition, traced or not, must replay it bit for bit.
    expected = reference
    reps: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    min_reps = 1 if trace else workload.min_reps
    import_samples: list[float] = []

    def import_due() -> float:
        """When the next ``import_s`` sample is due: evenly over the run."""
        return deadline - seconds + len(import_samples) * seconds / IMPORT_SAMPLES
    # Left free, the scheduler moves processes between CPUs whose speeds
    # differ from moment to moment, and a calibration taken on one no longer
    # describes the timing next to it.  So the run is pinned to one CPU;
    # distributed workers inherit the pin when they are spawned.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not trace:
        measure_import()  # discarded: reads the package into the page cache
    calibration = calibrate()

    def sample_import() -> None:
        nonlocal calibration
        before = calibration
        raw = measure_import()
        calibration = calibrate()
        import_samples.append(raw * CALIBRATION_REF_S / statistics.mean((before, calibration)))

    def short() -> bool:
        return len(reps) < min_reps or (trace and not traced)

    # A repetition starts only if one as long as the last ends by the deadline.
    last_rep_s = 0.0
    while (time.perf_counter() + last_rep_s < deadline
           or (short() and attempted <= 3 * min_reps + 2)):
        use_trace = trace and attempted % 2 == 0 and attempted > 0
        attempted += 1
        gc.collect()
        started = time.perf_counter()
        try:
            rep, calibration = run_once(
                traced_scenario if use_trace else scenario, use_trace, calibration)
        except Exception:
            failed += 1
            problems.append(traceback.format_exc())
            continue
        finally:
            last_rep_s = time.perf_counter() - started
        problem = check_output(rep, expected, scenario.rounds)
        if problem is not None:
            failed += 1
            problems.append(problem)
        else:
            expected = rep["output"]
            if attempted > 1:
                (traced if use_trace else reps).append(rep)
        if (not trace and len(import_samples) < IMPORT_SAMPLES
                and time.perf_counter() >= import_due()):
            sample_import()
    while not trace and len(import_samples) < IMPORT_SAMPLES:
        sample_import()
    if short():
        raise RuntimeError("too few repetitions succeeded:\n" + "\n".join(problems))
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": reps,
        "traced": traced,
        "reference": reference is not None,
        "output": expected,
        "import_samples": import_samples,
    }


def end_to_end(outcome: dict, workload, tiny: bool) -> tuple[dict, dict]:
    """Summarise the timed (rescaled) repetitions into the end-to-end metrics.

    Every figure taken once per repetition -- set-up, the first round, the
    median of the later rounds, the closing evaluation, the total, the
    update rate -- and the ``import_s`` samples are reduced to their median
    over the run.  ``round_tail_s`` is a percentile of rounds 1.. pooled
    over the run.
    """
    reps = outcome["reps"]
    later_rounds = [t for rep in reps for t in rep["round_s"][1:]]
    tail_p, floor = workload.tail_percentile(tiny)

    def median(key) -> float:
        return statistics.median(key(rep) for rep in reps)

    values = {
        "setup_s": median(lambda rep: rep["setup_s"]),
        "first_round_s": median(lambda rep: rep["round_s"][0]),
        "round_p50_s": median(lambda rep: statistics.median(rep["round_s"][1:])),
        "round_tail_s": percentile(later_rounds, tail_p),
        "client_updates_per_s": median(lambda rep: rep["updates"] / sum(rep["round_s"])),
        "final_eval_s": median(lambda rep: rep["final_eval_s"]),
        "total_s": median(lambda rep: rep["total_s"]),
        "import_s": statistics.median(outcome["import_samples"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = {
        "percentile": tail_p,
        "samples": len(later_rounds),
        "beyond": sum(t > values["round_tail_s"] for t in later_rounds),
        "guaranteed_samples": floor,
    }
    return values, tail


def per_layer(outcome: dict) -> tuple[dict, dict]:
    traced = outcome["traced"]
    values = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    values["trace.overhead_s"] = (
        statistics.median(rep["total_s"] for rep in traced)
        - statistics.median(rep["total_s"] for rep in outcome["reps"])
    )
    table: dict[str, list] = {}
    for rep in traced:
        for layer, (calls, busy, self_s) in rep["table"].items():
            row = table.setdefault(layer, [[], [], []])
            row[0].append(calls)
            row[1].append(busy)
            row[2].append(self_s)
    table = {layer: [statistics.median(col) for col in cols] for layer, cols in table.items()}
    return values, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size: a few tiny rounds, no reference check")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    prepare_program()
    print(json.dumps({"manifest": manifest(workload, args.seed, args)}))

    outcome = run(workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    for problem in outcome["problems"]:
        print(f"failed repetition: {problem}", file=sys.stderr)
    print(json.dumps({"output": outcome["output"]}))
    print(f"repetitions: {len(outcome['reps'])} untraced, {len(outcome['traced'])} traced; "
          f"outputs checked against {'the recorded reference' if outcome['reference'] else 'the first repetition'}; "
          f"error_rate {outcome['failed'] / outcome['attempted']:.3f} "
          f"({outcome['failed']} of {outcome['attempted']} failed)")
    factors = [rep["scale"] for rep in outcome["reps"] + outcome["traced"]]
    print(f"host-speed factors applied: median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}-{max(factors):.3f}; unscaled total_s median "
          f"{statistics.median(r['total_s'] / r['scale'] for r in outcome['reps'] or outcome['traced']):.4f}")
    if args.trace:
        values, table = per_layer(outcome)
        print(f"{'layer':<28}{'calls':>10}{'busy_s':>12}{'self_s':>12}")
        for layer in sorted(table):
            calls, busy, self_s = table[layer]
            print(f"{layer:<28}{calls:>10.0f}{busy:>12.6f}{self_s:>12.6f}")
        units = PER_LAYER_UNITS
    else:
        values, tail = end_to_end(outcome, workload, args.tiny)
        print(f"round_tail_s is p{tail['percentile']} of {tail['samples']} rounds "
              f"({tail['beyond']} beyond it; at least {tail['guaranteed_samples']} "
              "rounds in every run)")
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
