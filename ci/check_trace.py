"""Check the last line of a traced seed-0 exact-laws perfbench run.

Every listed layer metric must read non-zero, the seed-0 counts that no
refactor may move must equal their pinned values, and the run must be
correct. Exits 1 with one `error:` line otherwise.

    python3 perfbench/run.py --workload exact-laws --seed 0 --seconds 1 --trace 1 \\
        | tail -n 1 > trace.json
    python3 ci/check_trace.py trace.json
"""
import json
import sys

KEYS = ("protocol.bookkeeping_s", "protocol.rounds", "protocol.qubits_sent",
        "ledger.calls", "oracles.calls", "oracles.table_builds",
        "statevector.gate_calls", "counting.workcheck_s")
# seed-0 counts that no refactor may move
EXACT = {"protocol.rounds": 381, "protocol.qubits_sent": 6096, "ledger.calls": 3429,
         "oracles.calls": 4318, "oracles.table_builds": 261,
         "statevector.gate_calls": 4699}


def main(path: str) -> None:
    with open(path) as f:
        run = json.load(f)
    zero = [key for key in KEYS if run["metrics"][key]["value"] == 0]
    moved = {key: run["metrics"][key]["value"] for key, value in EXACT.items()
             if run["metrics"][key]["value"] != value}
    if zero or moved or not run["correct"]:
        sys.exit(f"error: correct is {run['correct']}; these read 0: {zero}; "
                 f"these differ from {EXACT}: {moved}")
    print("traced layers:", {key: run["metrics"][key]["value"] for key in KEYS})


if __name__ == "__main__":
    main(sys.argv[1])
