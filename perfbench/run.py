"""qbc benchmark: one workload, one fresh worker process, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. With --trace 0 it
prints the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it list every metric with its unit. The full result,
with the environment it ran in, is also written under perfbench/.runs/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("trials-n64", "exact-laws", "regression-small", "privacy-mc")
# set-up-only processes run before and again after the measuring one, so
# the set-up samples span the run; setup_s is the median of all of them
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def run_worker(root: Path, args, deadline: float, *extra) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (start time, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start), check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return start, json.loads(lines[-1])


def probe_setups(root: Path, args, deadline: float) -> list[float]:
    """Set-up times of SETUP_PROBES workers that stop before the first op."""
    setups = []
    for _ in range(SETUP_PROBES):
        start, probe = run_worker(root, args, deadline, "--setup-only")
        setups.append(probe["ready"] - start)
    return setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "qbc" / "__init__.py").is_file():
        print("error: run from the root of a qbc checkout (src/qbc not found)", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else probe_setups(root, args, deadline)
        start, result = run_worker(root, args, deadline)
        if not args.trace:
            setups += [result["ready"] - start] + probe_setups(root, args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["metrics"]
        units = metric_units("per_layer")
    else:
        result["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
        values = result
        units = metric_units("end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": result.pop("numpy"), "git_sha": git_sha(root),
    }
    summary = {"env": env, **result}
    out_dir = HERE / ".runs"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"ops {result['ops']} of {result['attempted']} attempted, "
              f"fail_frac {result['fail_frac']:.6g}, tail at p{result['tail_percentile']:.1f}")
    for key, m in metrics.items():
        print(f"{key:32s} {m['value']:>16.6g} {m['unit']}")
    for err in result["errors"]:
        print(f"failed op: {err}")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
