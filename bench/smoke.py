"""Smoke test of the benchmark itself (about a minute on two cores).

    python3 bench/smoke.py

Runs each workload once at minimal length and small_chains once traced,
then checks that every metric named in BENCHMARK.json is printed with
its unit, that the report line carries every per-command or per-layer
metric, that no op fails, and that the recorded spans nest.  Last, it
checks that the benchmark refuses to run, without printing a result,
in a directory that holds only BENCHMARK.json and the benchmark.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 1


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=900)


def _report_names(workload: str, trace: int) -> set[str]:
    """Metrics the report line must carry besides those of the result."""
    if trace:
        return {name for name, *_ in tracer.LAYER_METRICS} | {"cli.artifact_bytes", "trace.overhead_s"}
    commands = {op.command.replace("-", "_") for op in workloads.build(workload, SEED)}
    return {"wall_s", "wall_norm_s", "setup_s"} | {f"{command}_s" for command in commands}


def _check_result(done: subprocess.CompletedProcess, workload: str, trace: int, expected: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr[-400:]}"]
    *_, report_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    problems = []
    reported = set(report["layers"] if trace else report["timings_s"])
    if reported != _report_names(workload, trace):
        problems.append(f"report metrics differ: {sorted(reported ^ _report_names(workload, trace))}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    printed = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    if printed != expected:
        problems.append(f"metrics {printed} != BENCHMARK.json {expected}")
    every_metric = report["layers"] if trace else result["metrics"]
    missing = {name: m["missing"] for name, m in every_metric.items() if m["value"] is None}
    if missing:
        problems.append(f"missing layers {missing}")
    if not result["correct"] or result["failed"] or report["error_rate"] != 0:
        problems.append(f"failures {report['failures']}")
    if result["attempted"] < 1 or report["attempted"] != result["attempted"]:
        problems.append(f"attempted {result['attempted']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = 0
    runs = [(name, 0, end_to_end) for name in workloads.WORKLOADS] + [("small_chains", 1, per_layer)]
    for workload, trace, expected in runs:
        problems = _check_result(_run(ROOT, workload, trace), workload, trace, expected)
        if trace and not problems:
            spans_file = ROOT / ".bench_run" / f"spans_{workload}_seed{SEED}.json"
            for traced_pass in json.loads(spans_file.read_text())["passes"]:
                problems += tracer.nesting_problems(traced_pass["spans"])[:5]
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok'}  {workload} --trace {trace}")
        for problem in problems:
            print(f"      {problem}")

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare_", dir=ROOT / ".bench_run"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, "small_chains", 0)
        refused = done.returncode != 0 and not done.stdout.strip()
    finally:
        shutil.rmtree(bare)
    failures += not refused
    print(f"{'ok' if refused else 'FAIL'}  refuses to run without the program (exit {done.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
