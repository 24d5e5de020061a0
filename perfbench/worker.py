"""Runs one workload in its own process and prints its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--setup-only]

Run from the root of a checkout; qbc is imported from its `src`. The
untraced mode runs a plan sized to about S seconds on the reference
machine and times every op. The traced mode runs a fixed one-cycle plan
three times: once to warm up, once untraced and once with every qbc
layer wrapped by the tracer, and reports the layer metrics.
`--setup-only` stops before the first op, so the caller can time
set-up alone.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
TAIL_BEYOND = 10  # the tail has this many ops beyond it, or a tenth of the ops if fewer
DEADLINE_FACTOR = 2.5  # stop starting units after this many times --seconds,
DEADLINE_MAX_S = 90.0  # or after this long, so a run ends well within 180 s
TRACE_CYCLES = 1


class Window:
    """Times each call made inside it; in the traced run it also
    switches span recording on for the call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.total = 0.0
        self.last = math.nan

    @contextlib.contextmanager
    def __call__(self):
        self.last = math.nan
        if self.tracer is not None:
            self.tracer.current = -1
            self.tracer.active = True
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.last = time.perf_counter() - start
            self.total += self.last
            if self.tracer is not None:
                self.tracer.active = False


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest op that still has TAIL_BEYOND
    ops beyond it, or a tenth of the ops when that is fewer; so the tail
    is never below p90, and one stray slow op in a short run is not it."""
    ordered = sorted(times)
    n = len(ordered)
    idx = n - 1 - min(TAIL_BEYOND, n // 10)
    return ordered[idx], 100.0 * (idx + 1) / n


def run_units(units, window, deadline=None) -> list:
    results = []
    for unit in units:
        if deadline is not None and time.monotonic() > deadline:
            break
        results.extend(unit(window))
    return results


def summarize(results) -> dict:
    times = [r.seconds for r in results if r.ok]
    failed = len(results) - len(times)
    errors = sorted({r.error for r in results if not r.ok})
    return {"attempted": len(results), "failed": failed, "times": times, "errors": errors[:5]}


def timed_metrics(results, window) -> dict:
    s = summarize(results)
    times = s.pop("times")
    tail_s, tail_pct = tail(times) if times else (math.nan, math.nan)
    s.update({
        "ops": len(times),
        "ops_per_s": len(times) / window.total if window.total > 0 else 0.0,
        "op_s_p50": statistics.median(times) if times else math.nan,
        "op_s_tail": tail_s,
        "tail_percentile": tail_pct,
        "fail_frac": s["failed"] / s["attempted"] if s["attempted"] else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return s


def timed_run(units, seconds: float) -> dict:
    window = Window()
    deadline = time.monotonic() + min(DEADLINE_FACTOR * seconds, DEADLINE_MAX_S)
    return timed_metrics(run_units(units, window, deadline), window)


def traced_run(plan, package):
    """Run the plan once to warm up, once untraced and once with the
    tracer installed, each time on fresh but identical inputs, so that
    both measured passes start warm. Returns (summary with metrics, tracer)."""
    from tracer import Tracer

    warm = run_units(plan(), Window())
    untraced = Window()
    first = run_units(plan(), untraced)
    tracer = Tracer().install(package)
    traced = Window(tracer)
    try:
        second = run_units(plan(), traced)
    finally:
        tracer.uninstall()
    out = summarize(warm + first + second)
    del out["times"]
    out["metrics"] = tracer.layer_metrics(traced.total, untraced.total)
    return out, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import qbc
    from workloads import WORKLOADS

    if not Path(qbc.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"qbc imported from {qbc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    cycles = TRACE_CYCLES if args.trace else max(1, round(args.seconds / cls.nominal_cycle_s))
    workdir = Path("perfbench", ".work", args.workload)  # relative: paths appear in outputs

    def plan():
        workload = cls(args.seed, workdir, cycles)
        workload.setup()
        return workload.units()

    out = {"cycles": cycles, "numpy": np.__version__}
    if args.trace:
        summary, tracer = traced_run(plan, qbc)
        out.update(summary)
        runs = root / "perfbench" / ".runs"
        runs.mkdir(exist_ok=True)
        spans = runs / f"spans-{args.workload}.csv.gz"
        tracer.write_spans(spans)
        out["spans_file"] = spans.relative_to(root).as_posix()
    else:
        units = plan()
        out["ready"] = time.monotonic()
        if not args.setup_only:
            out.update(timed_run(units, args.seconds))

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
