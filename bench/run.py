"""Run one workload of the bellchain benchmark and print its metrics.

    python3 bench/run.py --workload small_chains --seed 1 --seconds 28 --trace 0

Each op is an in-process ``bellchain.cli.main([...])`` call, made only
after the previous one returned (a closed loop with one client), with
its artifacts written under ``.bench_run/`` in the checkout.  Passes over
the workload's ops repeat until ``--seconds`` have passed, so the last
pass may run over.  Outputs are checked after the passes, untimed.

The last stdout line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones).  The line before it is a report with
provenance, every per-command timing with its percentile, every layer
metric, and the failures.  ``--trace 1`` alternates untraced and traced passes and
writes the spans to ``.bench_run/spans_<workload>_seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# End-to-end metrics of the result line.  The raw wall_s, the
# per-command times and error_rate are in the report line only: some
# workloads do not run a command, error_rate is 0 when all is well, and
# on a shared host raw times drift with the host's speed further than
# the largest regression bound allowed (see reference.py).
RESULT_METRICS = (
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Pass:
    traced: bool
    wall: float
    wall_norm: float | None  # drift-corrected wall, untraced passes only
    op_seconds: list[float]
    outcomes: list[tuple[int | str, str]]  # exit code (or exception) and captured output
    artifacts: list[dict[str, bytes]]
    tracer: object | None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def _pin_environment() -> int:
    """One client, no sweep workers, BLAS threads at most the usable cores."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    os.environ.pop("BELLCHAIN_WORKERS", None)
    return nproc


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import bellchain
        import bellchain.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import bellchain from {SRC}: {exc}") from None
    if not Path(bellchain.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: bellchain was imported from {bellchain.__file__}, not {SRC}")
    return bellchain.cli


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Fresh interpreter to `import bellchain.cli` plus input generation."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"bench: set-up probe exited with {probe.returncode}")
    return samples


def _call(cli, argv: list[str]) -> tuple[int | str, str]:
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed op, not a failed benchmark
        code = traceback.format_exc(limit=-2)
    return code, sink.getvalue()[-400:] if code != 0 else ""


def _run_pass(cli, ops: list[workloads.Op], out_dir: Path, tracer) -> Pass:
    """One pass; untraced, the reference kernel is timed before it and after each op."""
    import reference  # imports numpy, so not at the top: the set-up probe skips it

    out_dir.mkdir()
    op_seconds, outcomes = [], []
    kernel_seconds = [reference.seconds()] if tracer is None else []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            argv = op.argv(out_dir)
            began = time.perf_counter()
            outcomes.append(_call(cli, argv))
            op_seconds.append(time.perf_counter() - began)
            if tracer is None:
                kernel_seconds.append(reference.seconds())
    finally:
        if tracer is not None:
            tracer.uninstall()
    files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    shutil.rmtree(out_dir)
    artifacts = [{name: data for name, data in files.items() if op.owns(name)} for op in ops]
    wall_norm = None if tracer is not None else reference.normalized(op_seconds, kernel_seconds)
    return Pass(tracer is not None, sum(op_seconds), wall_norm, op_seconds, outcomes, artifacts, tracer)


def _measure(cli, ops, seconds: int, traced_too: bool, out_root: Path, tracer_class) -> list[Pass]:
    """Rounds of passes (untraced, then traced with --trace 1) until time is up.

    The last round may run past ``seconds``: a workload whose pass takes
    most of the budget still gets a second pass to take a median over.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        for traced in (False, True) if traced_too else (False,):
            tracer = tracer_class() if traced else None
            passes.append(_run_pass(cli, ops, out_root / f"pass{len(passes)}", tracer))
        if time.perf_counter() - start >= seconds:
            return passes


def _failures(ops, passes: list[Pass], check) -> list[tuple[int, str, str]]:
    """(pass, op, reason) for every failed op attempt.

    An attempt fails on a nonzero exit, on artifact bytes that differ
    from the first pass, or when the first pass's artifacts of that op
    fail their output check.
    """
    first = passes[0]
    problems = [
        check(op, first.artifacts[i]) if first.outcomes[i][0] == 0 else ["no checked artifacts"]
        for i, op in enumerate(ops)
    ]
    failed = []
    for index, result in enumerate(passes):
        for i, op in enumerate(ops):
            code, output = result.outcomes[i]
            if code != 0:
                failed.append((index, op.name, f"exit {code}: {output}".strip()))
            elif result.artifacts[i] != first.artifacts[i]:
                failed.append((index, op.name, "artifact bytes differ from the first pass"))
            elif problems[i]:
                failed.append((index, op.name, "; ".join(problems[i])[:400]))
    return failed


def _summary(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        percentile = math.floor(100 * (n - 10) / n)
        out["tail"] = {"percentile": percentile, "value": ordered[math.ceil(percentile * n / 100) - 1]}
    return out


def _command_seconds(ops, result: Pass) -> dict[str, float]:
    totals: dict[str, float] = {}
    for op, seconds in zip(ops, result.op_seconds):
        key = op.command.replace("-", "_") + "_s"
        totals[key] = totals.get(key, 0.0) + seconds
    return totals


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _layer_metrics(workload: str, passes: list[Pass], tracer_module) -> dict[str, dict]:
    """Medians over the traced passes; counts are exact and repeat in every pass."""
    traced = [p for p in passes if p.traced]
    per_pass = [tracer_module.layer_metrics(p.tracer, workload) for p in traced]
    metrics = {}
    for name, unit, source, _ in tracer_module.LAYER_METRICS:
        values = [values[name] for values in per_pass]
        if None in values:
            gone = [span for span in source[1:] if span in traced[0].tracer.missing]
            reason = traced[0].tracer.missing[gone[0]] if gone else f"no calls on {workload}"
            metrics[name] = {"value": None, "unit": unit, "missing": reason}
        else:
            median = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = {"value": median(values), "unit": unit}
    artifact_bytes = [sum(len(data) for files in p.artifacts for data in files.values()) for p in traced]
    metrics["cli.artifact_bytes"] = {"value": statistics.median_low(artifact_bytes), "unit": "bytes"}
    # passes alternate untraced, traced: compare each traced pass with the one before it
    overhead = [t.wall - u.wall for u, t in zip(passes[0::2], passes[1::2])]
    metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("bench: --seconds must be at least 1")
    nproc = _pin_environment()
    if args.probe:
        _import_program()
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    cli = _import_program()
    import bellchain
    import numpy
    import scipy

    import checks
    import tracer

    ops = workloads.build(args.workload, args.seed)
    setup = [] if args.trace else _setup_seconds(args)
    RUN_DIR.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix="artifacts_", dir=RUN_DIR))
    try:
        passes = _measure(cli, ops, args.seconds, bool(args.trace), out_root, tracer.Tracer)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = _failures(ops, passes, checks.check)
    attempted = len(ops) * len(passes)

    untraced = [p for p in passes if not p.traced]
    samples: dict[str, list[float]] = {
        "wall_s": [p.wall for p in untraced],
        "wall_norm_s": [p.wall_norm for p in untraced],
    }
    for result in untraced:
        for key, seconds in _command_seconds(ops, result).items():
            samples.setdefault(key, []).append(seconds)
    if setup:
        samples["setup_s"] = setup
    measured = {key: statistics.median(values) for key, values in samples.items()}
    measured["peak_rss_mb"] = peak_rss_mb

    layers = {}
    if args.trace:
        layers = _layer_metrics(args.workload, passes, tracer)
        metrics = {name: value for name, value in layers.items() if name not in tracer.REPORT_ONLY}
        RUN_DIR.joinpath(f"spans_{args.workload}_seed{args.seed}.json").write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "span_fields": ["name", "start", "end", "parent"],
                    "passes": [
                        {"pass": i, "spans": p.tracer.spans, "counters": dict(p.tracer.counters)}
                        for i, p in enumerate(passes)
                        if p.traced
                    ],
                }
            )
        )
    else:
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in RESULT_METRICS}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(passes) - len(untraced),
        "ops_per_pass": [" ".join(op.argv(Path("OUT"))) for op in ops],
        "timings_s": {key: _summary(values) for key, values in samples.items()},
        "layers": layers,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failed),
        "error_rate": len(failed) / attempted,
        "failures": [{"pass": p, "op": name, "reason": reason} for p, name, reason in failed[:20]],
        "provenance": {
            "git_commit": _git_commit(),
            "bellchain_file": bellchain.__file__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": nproc,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
