"""Check that every speed record `BENCH_*.json` in the working directory
parses and carries what a reader of it needs.

Each record must hold a label, the parent commit, the command and its
workloads; each workload a summary; and each summary metric a numeric
median for both the parent and the change. Prints one line per record;
exits 1 with one `error:` line at the first problem.

    python3 ci/check_speed_records.py
"""
import glob
import json
import sys


def fail(message):
    sys.exit(f"error: {message}")


def main() -> None:
    for path in sorted(glob.glob("BENCH_*.json")):
        try:
            with open(path) as f:
                record = json.load(f)
        except json.JSONDecodeError as exc:
            fail(f"{path} does not parse: {exc}")
        for key in ("label", "parent_sha", "command", "workloads"):
            if key not in record:
                fail(f"{path} lacks {key!r}")
        for workload, entry in record["workloads"].items():
            summary = entry.get("summary") or fail(f"{path}: {workload} has no summary")
            for metric, row in summary.items():
                for side in ("parent", "change"):
                    median = row.get(side, {}).get("median")
                    if not isinstance(median, (int, float)):
                        fail(f"{path}: {workload} {metric} lacks a {side} median")
        print(f"{path}: {len(record['workloads'])} workloads")


if __name__ == "__main__":
    main()
