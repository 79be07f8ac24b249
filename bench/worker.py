"""Workload process started by run.py: set up, warm up, run the loop, check outputs.

It prints a JSON line ``{"ready": true}`` as soon as set-up is done (run.py
times set-up from process start to that line) and one JSON result line at
the end.  Nothing else goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import p3poly
import speed
from tracing import Tracer
from workloads import LIBRARY, CliSession

# Traced runs execute a fixed number of ops so that every count repeats
# exactly under one seed; each is a whole number of cycles.
TRACE_OPS = {"polytope-scan": 48, "state-audit": 512, "verdict-stream": 8}
PROBLEMS_KEPT = 20


class Loop:
    """A closed loop over ``run_op``: latencies of the timed ops and their verdicts."""

    def __init__(self, workload, run_op) -> None:
        self.workload = workload
        self.run_op = run_op
        self.latencies: list[float] = []
        self.kernels_ms: list[float] = []
        self.failed = 0
        self.wrong = 0  # failures on well-formed input
        self.problems: list[str] = []

    def run(
        self, seconds: float = 0.0, count: int | None = None, min_ops: int = 0, first: int = 0
    ) -> "Loop":
        """Run whole cycles from op ``first`` until ``count`` ops, or ``min_ops`` ops and
        ``seconds`` of op time, have passed."""
        done = 0
        busy = 0.0
        cycle = self.workload.cycle
        while True:
            busy += self.step(first + done)
            done += 1
            if done % cycle == 0 and (
                done >= count if count is not None else done >= min_ops and busy >= seconds
            ):
                return self

    def step(self, i: int) -> float:
        """Run and check op ``i``; return its latency in seconds."""
        self.kernels_ms.append(speed.kernel_ms())
        start = time.perf_counter()
        try:
            out, found = self.run_op(i), None
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out, found = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        if found is None:
            try:
                found = self.workload.check(i, out)
            except Exception as exc:  # output too malformed for the oracle to read
                found = [f"oracle could not read the output: {exc!r}"]
        if found:
            self.failed += 1
            self.wrong += not self.workload.malformed(i)
            if len(self.problems) < PROBLEMS_KEPT:
                self.problems.append(f"op {i}: {'; '.join(found)}")
        return elapsed

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def summary(self) -> dict:
        return {
            "latencies_s": self.latencies,
            "kernels_ms": self.kernels_ms,
            "attempted": len(self.latencies),
            "failed": self.failed,
            "wrong": self.wrong,
            "problems": self.problems,
        }


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_library(args) -> dict:
    workload = LIBRARY[args.workload](args.seed)
    emit({"ready": True})
    if args.setup_only:
        return {}
    result = {"fingerprint": workload.fingerprint()}
    # One untimed op, so lazy set-up finishes before timing.
    warm = Loop(workload, workload.op)
    warm.step(0)
    result.update(warmup_problems=warm.problems, warmup_wrong=warm.wrong)
    if not args.trace:
        loop = Loop(workload, workload.op).run(seconds=args.seconds, first=args.first_op)
        result.update(loop.summary(), peak_rss_mb=peak_rss_mb(resource.RUSAGE_SELF))
        return result
    count = TRACE_OPS[args.workload]
    plain = Loop(workload, workload.op).run(count=count)
    tracer = Tracer()
    tracer.install()

    def traced_op(i):
        tracer.op_id = i
        return workload.op(i)

    traced = Loop(workload, traced_op).run(count=count)
    return traced_result(args, tracer, plain, traced, result, startup_ms=0.0)


def run_cli(args, workdir: Path) -> dict:
    workload = CliSession(args.seed, workdir, sys.executable, dict(os.environ))
    problems = workload.prepare()
    if problems:
        raise RuntimeError("; ".join(problems))
    result = {"fingerprint": workload.fingerprint()}
    # One untimed deck first, so the .pyc files exist as they do for users.
    warm = Loop(workload, workload.op).run(count=workload.cycle)
    result.update(warmup_problems=warm.problems, warmup_wrong=warm.wrong)
    if not args.trace:
        # At least two decks: with one, the 90th percentile sits on the edge
        # between start-up-bound and solver-bound entries.
        loop = Loop(workload, workload.op).run(seconds=args.seconds, min_ops=2 * workload.cycle)
        result.update(loop.summary(), peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN))
        return result
    plain = Loop(workload, workload.op_inprocess).run(count=workload.cycle)
    tracer = Tracer()
    tracer.install()

    def traced_op(i):
        tracer.op_id = i
        return workload.op_inprocess(i, tracer)

    traced = Loop(workload, traced_op).run(count=workload.cycle)
    # Subprocess op time minus in-process cli.main time, per op of the deck.
    startup_ms = (sum(warm.latencies) - sum(plain.latencies)) / workload.cycle * 1e3
    return traced_result(args, tracer, plain, traced, result, startup_ms)


def traced_result(args, tracer, plain, traced, result, startup_ms) -> dict:
    metrics = tracer.layer_metrics()
    metrics["cli.startup_ms"] = startup_ms
    metrics["trace.overhead_ops_per_s"] = plain.ops_per_s - traced.ops_per_s
    tracer.dump(Path(args.spans))
    result.update(
        attempted=len(plain.latencies) + len(traced.latencies),
        failed=plain.failed + traced.failed,
        wrong=plain.wrong + traced.wrong,
        problems=(plain.problems + traced.problems)[:PROBLEMS_KEPT],
        layers=metrics,
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first-op", type=int, default=0, help="index of the first timed op")
    parser.add_argument("--workdir", help="scratch directory for cli-session files")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()
    if args.workload == CliSession.name:
        result = run_cli(args, Path(args.workdir))
    else:
        result = run_library(args)
    if result:
        result["numpy"] = np.__version__
        result["p3poly"] = p3poly.__version__
        emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
