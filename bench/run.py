#!/usr/bin/env python3
"""p3poly benchmark: one seeded workload, timed, with every output checked.

    python3 bench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` a separate traced run
reports per-layer counts and times instead.  A run record (input
fingerprint, versions, thread pins) and, for traced runs, the spans are
written under ``.bench_out/``.  See ``bench/README.md`` for the workloads
and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
WORKLOADS = ("cli-session", "verdict-stream", "state-audit", "polytope-scan")
# One client, one thread: BLAS/OpenMP pools are pinned in every process started here.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5
OP_STRIDE = 48 * 10**6  # first op of each library worker; a multiple of every cycle
PROBLEMS_KEPT = 20
WORKER_TIMEOUT_S = 165
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "fraction",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".iterations_mean"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "fraction"
    return "ops/s"


def environment() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def start_process(argv, env) -> subprocess.Popen:
    # A session of its own, so that a timed-out worker's CLI children can be stopped too.
    return subprocess.Popen(
        argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, start_new_session=True
    )


def stop(proc: subprocess.Popen) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def time_to_ready(argv, env, ready_line: bool) -> float:
    """Seconds from process start to its ready line (or to its exit), at reference speed."""
    factor = speed.reference_factor()
    start = time.perf_counter()
    proc = start_process(argv, env)
    try:
        if ready_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=WORKER_TIMEOUT_S)
        else:
            proc.communicate(timeout=WORKER_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            line = '{"ready": true}' if proc.returncode == 0 else ""
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"set-up probe {argv} timed out")
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"set-up probe {argv} exited {proc.returncode}")
    return elapsed * factor


def run_worker(argv, env) -> tuple[float, dict]:
    """Start the workload process; return its set-up time (at reference speed) and result."""
    factor = speed.reference_factor()
    start = time.perf_counter()
    proc = start_process(argv, env)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("workload process timed out")
    lines = [line for line in (ready + rest).splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}")
    return setup * factor, json.loads(lines[-1])


def latency_metrics(latencies_ms: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies_ms) * 1e3 / sum(latencies_ms),
        "op_p50_ms": median(latencies_ms),
        "op_p90_ms": quantiles(latencies_ms, n=10, method="inclusive")[8],
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unavailable"


def bench(args) -> dict:
    if not (ROOT / "src" / "p3poly" / "__init__.py").is_file():
        raise BenchError(f"no p3poly sources under {ROOT / 'src'}; run from a source checkout")
    # Every process of the run shares one CPU, so that the calibration kernel
    # times the CPU that runs the ops (the two vCPUs here differ in speed).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment()
    python = sys.executable
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("runs", "spans", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"

    def worker(seconds, *extra):
        return [
            python, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace), "--workdir", str(workdir),
            "--spans", str(OUT / "spans" / f"{tag}.json"), *extra,
        ]

    cli = args.workload == "cli-session"
    setups = []
    raw = {}
    try:
        if args.trace:
            results = [run_worker(worker(args.seconds), env)[1]]
        elif cli:
            # Set-up of a command-line op is one bare interpreter start with the import;
            # the first start is untimed and writes the .pyc files users would find.
            probe = [python, "-c", "import p3poly"]
            setups = [time_to_ready(probe, env, ready_line=False) for _ in range(SETUP_SAMPLES + 1)][1:]
            results = [run_worker(worker(args.seconds), env)[1]]
        else:
            # A process's speed varies more than its speed over time does, so the
            # op time is shared among several processes, each also a set-up sample.
            time_to_ready(worker(0, "--setup-only"), env, ready_line=True)
            results = []
            for k in range(SETUP_SAMPLES):
                setup, result = run_worker(
                    worker(args.seconds / SETUP_SAMPLES, "--first-op", str(k * OP_STRIDE)), env
                )
                setups.append(setup)
                results.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in results[0]["layers"].items()}
    else:
        raw_ms = [x * 1e3 for r in results for x in r["latencies_s"]]
        scaled_ms = [
            x * 1e3 for r in results for x in speed.rescale(r["latencies_s"], r["kernels_ms"])
        ]
        values = {
            "setup_s": median(setups),
            **latency_metrics(scaled_ms),
            "ok_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        raw = latency_metrics(raw_ms)
        raw["kernel_ms_median"] = median(k for r in results for k in r["kernels_ms"])
    line = {
        # Failures on malformed input are counted, but only a wrong answer to
        # well-formed input makes the run incorrect.
        "correct": all(r["wrong"] == 0 and r["warmup_wrong"] == 0 for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_fingerprint": results[0]["fingerprint"],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "p3poly": results[0]["p3poly"],
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "setup_samples_s": setups,
        "unscaled_wall_clock": raw,
        "problems": [p for r in results for p in r["problems"]][:PROBLEMS_KEPT],
        "warmup_problems": [p for r in results for p in r["warmup_problems"]][:PROBLEMS_KEPT],
        "result": line,
    }
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        line = bench(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
