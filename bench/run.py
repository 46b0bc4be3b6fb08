"""gridmapf benchmark: four workloads, end-to-end metrics or a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload sweep4 --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: the next op starts
when the previous one and its checks are done.  The library is imported
from ``src/`` of the same checkout.  Set-up (input generation, compiles
done during set-up, warm-up) runs three times and reports its median.
Then whole rounds of ops run until ``--seconds`` have passed; the last
round is finished.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs every round untraced and traced on the same
items and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object; the lines before it list
the same metrics for people.  Spans and results go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import Speedometer, Wallclock
from tracing import SPAN_NAMES, Tracer, bind

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("sweep4", "planted2d", "pipeline", "team")
SETUP_REPEATS = 3
SHOWN_FAILURES = 5


class Run:
    """Samples and failures of the ops run so far."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.op_seconds = 0.0
        self.solve_ms: list[float] = []
        self.verify_ms: list[float] = []

    def ops_per_s(self) -> float:
        return self.completed / self.op_seconds

    def pool(self, mark: tuple[int, int]) -> None:
        """Replace the latency samples taken since ``mark`` by their mean."""
        for samples, start in ((self.solve_ms, mark[0]), (self.verify_ms, mark[1])):
            if len(samples) > start:
                samples[start:] = [statistics.fmean(samples[start:])]


def run_op(workload, item, tracer, timer):
    """Solve then verify one item; returns (answer, verdict, error, t_solve, t_verify)."""
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    if tracer:
        tracer.op += 1
    answer = verdict = error = solve_s = verify_s = None
    mark = timer.mark()
    try:
        with span("op"):
            with span("solve"):
                answer = workload.solve(item)
            solve_s = timer.since(mark)
            mark = timer.mark()
            with span("verify"):
                verdict = workload.verify(item, answer)
            verify_s = timer.since(mark)
    except Exception as e:  # a library exception fails the op, not the benchmark
        error = traceback.format_exception_only(type(e), e)[-1].strip()
        if solve_s is None:
            solve_s = timer.since(mark)
    return answer, verdict, error, solve_s, verify_s


def record(run: Run, workload, item, outcome, timed: bool) -> None:
    answer, verdict, error, solve_s, verify_s = outcome
    run.attempted += 1
    raised = error is not None
    if not raised:
        try:
            error = workload.check(item, answer, verdict)
        except Exception as e:  # a malformed answer can break a check
            error = "check raised " + traceback.format_exception_only(type(e), e)[-1].strip()
    if error is not None:
        run.failed += 1
        if run.failed <= SHOWN_FAILURES:
            print(f"FAIL {workload.name}: {error}", file=sys.stderr)
    if not timed:
        return
    run.op_seconds += solve_s + (verify_s or 0.0)
    run.completed += not raised
    run.solve_ms.append(solve_s * 1e3)
    if verify_s is not None and verdict is not None:
        run.verify_ms.append(verify_s * 1e3)


def measure(workload, seconds: float, modes, timer) -> None:
    """Whole rounds from the start of the items until ``seconds`` have passed.

    ``modes`` is a list of (tracer or None, lib, counts, Run).  Every mode
    runs every round, on the same items, in an order that alternates from
    round to round, so a traced run compares traced and untraced ops on the
    same inputs under the same drift of the machine's speed.  At least one
    round runs.
    """
    start = perf_counter()
    pos = 0
    rounds = 0
    while True:
        items = workload.items[pos:pos + workload.round_size]
        pos = (pos + workload.round_size) % len(workload.items)
        for tracer, lib, counts, run in modes[:: -1 if rounds % 2 else 1]:
            workload.lib = lib
            workload.counts = counts
            workload.count_work = tracer is not None
            mark = len(run.solve_ms), len(run.verify_ms)
            for item in items:
                record(run, workload, item, run_op(workload, item, tracer, timer), timed=True)
            if workload.pooled_latency:
                run.pool(mark)
        rounds += 1
        if perf_counter() - start >= seconds:
            return


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    With fewer than twenty-one samples that percentile would not lie above
    the median, so the upper median is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return 100.0 * (index + 1) / n, ordered[index]


def end_to_end(run: Run, setup_times: list[float], factor: float) -> tuple[dict, list[str]]:
    """Gated metrics (times in reference seconds, see ``speed``); the rest as notes."""
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (run.ops_per_s(), "1/s"),
        "solve_ms_p50": (statistics.median(run.solve_ms), "ms"),
        "verify_ms_p50": (statistics.median(run.verify_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = []
    for phase, samples in (("solve", run.solve_ms), ("verify", run.verify_ms)):
        pct, value = tail(samples)
        notes.append(f"{phase}_ms_tail {value:.6g} ms (p{pct:.4g} of {len(samples)} samples)")
    notes.append(f"reference seconds per second, median over the run: {factor:.4g}")
    return metrics, notes


def per_layer(tracer: Tracer, c: Counter, untraced: Run, traced: Run) -> dict:
    busy, calls, total = tracer.self_times()
    ops = calls["op"]
    op_time = total["op"]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.s"] = (busy.get(name, 0.0) / ops, "s")
        metrics[f"{name}.share"] = (busy.get(name, 0.0) / op_time, "share")
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "calls/op")
    glue = busy["op"] + busy["solve"] + busy["verify"]
    metrics["harness.share"] = (glue / op_time, "share")
    metrics["twodir.visited_cells"] = (c["visited"] / ops, "cells/op")
    metrics["checks.parked_agents"] = (c["parked"] / ops, "agents/op")
    metrics["twodir.path_cells_per_visited"] = (
        c["path_cells"] / c["visited"] if c["visited"] else 0.0, "ratio")
    metrics["oracle.team_assignments"] = (c["team_assignments"] / ops, "count/op")
    metrics["oracle.witness_steps"] = (c["witness_steps"] / ops, "steps/op")
    metrics["oracle.yes_share"] = (c["yes"] / c["decisions"] if c["decisions"] else 0.0, "share")
    metrics["reduction.grid_cells"] = (c["grid_cells"], "cells")
    metrics["reduction.free_cells"] = (c["free_cells"], "cells")
    metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s(), "1/s")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
    metrics["trace.overhead"] = (untraced.ops_per_s() / traced.ops_per_s() - 1.0, "share")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gridmapf" / "__init__.py").is_file():
        print(f"error: no library sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    run = Run()
    setup_times = []
    speedo = None if args.trace else Speedometer()
    timer = speedo or Wallclock()
    with speedo or contextlib.nullcontext():
        for _ in range(1 if args.trace else SETUP_REPEATS):
            mark = timer.mark()
            workload = WORKLOADS[args.workload](args.seed)
            warm = [(item, run_op(workload, item, None, timer)) for item in workload.warmup]
            setup_times.append(timer.since(mark))
            for item, outcome in warm:
                record(run, workload, item, outcome, timed=False)
        if args.trace:
            tracer = Tracer()
            untraced, traced = Run(), Run()
            modes = [
                (None, workload.lib, Counter(), untraced),
                (tracer, bind(tracer), Counter(), traced),
            ]
            measure(workload, args.seconds, modes, timer)
        else:
            measure(workload, args.seconds, [(None, workload.lib, workload.counts, run)], timer)

    if args.trace:
        for part in (untraced, traced):
            run.attempted += part.attempted
            run.failed += part.failed
        metrics = per_layer(tracer, modes[1][2], untraced, traced)
        notes = []
        tracer.write(OUT / f"{args.workload}.spans.jsonl")
    else:
        metrics, notes = end_to_end(run, setup_times, speedo.factor())

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(f"{args.workload} fail_share {run.failed / run.attempted:.6g} share "
          f"({run.failed} of {run.attempted} ops)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    kind = "trace" if args.trace else "e2e"
    (OUT / f"BENCH_{args.workload}_{kind}.json").write_text(
        json.dumps({"seed": args.seed, "seconds": args.seconds, "notes": notes, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
