"""Benchmark of the isingmarket CLI: seeded inputs, three workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk_fit --seed 1 --seconds 15 --trace 0

The benchmark generates its inputs from the seed, then times the workload in
fresh interpreters that call ``isingmarket.cli.main`` in-process (see
``worker.py``), with BLAS_THREADS BLAS threads.  It checks every output
against references it computes itself and prints, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

- ``pass_s``: median, over rounds, of the mean wall time of a warm pass in
  the round; a round is one pass on each variant of the workload's data (one
  for desk_fit and mc_noise, three ticker blocks for maxent_exact), so every
  block weighs the same (quartiles and round count on the detail line);
- ``setup_s``: median, over SETUP_PROBES fresh interpreters, of the time from
  launch until the workload's first step returns;
- ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the passes;
- ``success_rate``: 1 - error_rate, the share of steps that exited 0 and
  passed their output checks (a rate that is never 0 while anything works).

With ``--trace 1`` they are the per-layer metrics BENCHMARK.json lists,
computed in ``layers.py``.  Earlier lines carry the machine and the per-run
detail; the same record is kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
# One BLAS thread: on a shared 2-core machine two threads made the exact fit
# slower and less steady (N=18 fit 10.8 s with one thread, 12.2 s with two).
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark itself could not run the workload."""


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": model,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": BLAS_THREADS, "git_commit": commit}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def launch(args: list[str], run_dir: Path, deadline: float, wait_ready: bool):
    """Start a worker; return (seconds until READY or None, READY payload, exit code)."""
    command = [sys.executable, str(WORKER), *args]
    with open(run_dir / "worker.stderr", "a") as stderr:
        began = perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, text=True,
                                env=worker_env(), cwd=ROOT)
        watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready_s = payload = None
            if wait_ready:
                for line in proc.stdout:
                    if line.startswith("READY "):
                        ready_s = perf_counter() - began
                        payload = json.loads(line[6:])
                        break
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if perf_counter() >= deadline:
        raise BenchError("worker passed the run's time limit")
    return ready_s, payload, code


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def account(passes: list[dict], content_errors: dict[str, list[str]]) -> tuple[int, int, dict]:
    """(attempted, failed, reasons): a step fails a pass when it exits non-zero, when
    its outputs differ from the first pass of its variant, or when its content
    checks fail."""
    reference: dict[int, dict] = {}
    attempted = failed = 0
    reasons: dict[str, str] = {}
    for number, record in enumerate(passes):
        first = reference.setdefault(record["variant"], record["digests"])
        for step, code in record["codes"].items():
            attempted += 1
            why = None
            if code != 0:
                why = f"exit {code}: {record['errors'].get(step, '')[-300:]}"
            elif record["digests"][step] != first[step]:
                why = "artifacts differ from the first pass of this variant"
            elif step in content_errors:
                why = "; ".join(content_errors[step])
            if why:
                failed += 1
                reasons.setdefault(step, f"pass {number}: {why}")
    return attempted, failed, reasons


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    run_dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        market = gen.generate_market(seed)
        ohlc = workloads.write_inputs(workload, run_dir, market)
        plan = workloads.plan(workload, run_dir, seed, ohlc)
        plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
        plan_path.write_text(json.dumps(plan))
        common = [str(plan_path), str(result_path)]
        tail = [str(seconds), "1" if trace else "0"]

        if plan["prep"]:
            _, _, code = launch([*common, "prep", *tail], run_dir, deadline, wait_ready=False)
            if code != 0:
                raise BenchError(f"input preparation failed: {_stderr(run_dir)}")

        setup_s, import_s, first_errors = [], [], []
        for probe in range(SETUP_PROBES):
            phase = "main" if probe == SETUP_PROBES - 1 else "probe"
            ready_s, payload, code = launch([*common, phase, *tail], run_dir, deadline,
                                            wait_ready=True)
            if ready_s is None:
                raise BenchError(f"worker never finished its first step: {_stderr(run_dir)}")
            setup_s.append(ready_s)
            import_s.append(payload["import_s"])
            if payload["code"] != 0:
                first_errors.append(f"exit {payload['code']}: {payload['error'][-300:]}")
            if code != 0 or (phase == "main" and not result_path.exists()):
                raise BenchError(f"worker exited {code}: {_stderr(run_dir)}")
        result = json.loads(result_path.read_text())
        if Path(result["program"]) != SRC / "isingmarket":
            raise BenchError(f"worker imported the program from {result['program']}")

        content_errors = workloads.check(workload, run_dir, market)
        attempted, failed, reasons = account(result["passes"], content_errors)
        attempted += SETUP_PROBES
        failed += len(first_errors)
        if first_errors:
            reasons.setdefault("setup", first_errors[0])
        timed = [p["seconds"] for p in result["passes"] if p["kind"] == "timed"]
        rounds = round_means(timed, len(plan["variants"]))
        detail = {
            "workload": workload, "seed": seed, "trace": trace,
            "pass_s": {"median": statistics.median(rounds), "quartiles": quartiles(rounds),
                       "rounds": len(rounds), "values": timed},
            "setup_s": {"median": statistics.median(setup_s), "values": setup_s},
            "import_s": import_s,
            "step_s": [p["step_s"] for p in result["passes"]],
            "failures": reasons,
            "blas_threads": result["blas_threads"],
            "versions": result["versions"],
        }
        if trace:
            traced = [p for p in result["passes"] if p["kind"] == "traced"]
            traced_rounds = round_means([p["seconds"] for p in traced], len(plan["variants"]))
            slowdown = statistics.median(traced_rounds) / statistics.median(rounds)
            metrics = per_layer(traced, slowdown, import_s)
            detail["shares"] = {key: statistics.median(p["shares"][key] for p in traced)
                                for key in traced[0]["shares"]}
        else:
            metrics = {
                "pass_s": {"value": statistics.median(rounds), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
                "success_rate": {"value": 1.0 - failed / attempted, "unit": "fraction"},
            }
        detail["machine"] = machine()
        return {"detail": detail,
                "summary": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                            "metrics": metrics}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def round_means(seconds: list[float], variants: int) -> list[float]:
    """Mean pass time of each whole round; the worker runs the variants in turn."""
    return [statistics.fmean(seconds[i:i + variants]) for i in range(0, len(seconds), variants)]


def per_layer(traced: list[dict], slowdown: float, import_s: list[float]) -> dict:
    """Every per-layer metric BENCHMARK.json lists, by name and unit."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        if name == "cli.import_s":
            value = statistics.median(import_s)
        elif name == "trace.overhead_pct":
            value = 100.0 * (slowdown - 1.0)
        elif name.startswith("cli.step_s."):  # steps of other workloads read 0
            value = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def _stderr(run_dir: Path) -> str:
    path = run_dir / "worker.stderr"
    return path.read_text()[-2000:] if path.exists() else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "isingmarket" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'isingmarket' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC / "isingmarket", quiet=1)  # as an install would
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(outcome, indent=1))
    print("detail:", json.dumps(outcome["detail"]))
    print(json.dumps(outcome["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
