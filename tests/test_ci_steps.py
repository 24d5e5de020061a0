"""Checks that stand in for CI steps that cannot run everywhere.

The workflow's matrix tests Python 3.10 and 3.11. Where only a newer
interpreter is at hand, parsing every source file with the 3.10 grammar
still catches syntax that 3.10 lacks (`except*`, PEP 695 type
parameters, ...). It checks grammar only, not library calls.

The mutant step (`ci/mutants.py`) runs the whole suite once per mutant,
so it stays out of tier-1; tier-1 checks only that each mutant's old
text occurs exactly once, so a refactor cannot turn a mutant into a
no-op.

The traced-count step (`ci/check_trace.py`) needs a traced perfbench
run; here it reads hand-written traces, one holding the pinned seed-0
values and three broken ones.
"""
import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOPS = ("src", "tests", "perfbench", "ci")


def test_every_source_parses_with_the_python_3_10_grammar():
    sources = sorted(p for top in TOPS for p in (ROOT / top).rglob("*.py"))
    assert {p.relative_to(ROOT).parts[0] for p in sources} == set(TOPS)
    failed = []
    for path in sources:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failed, failed


def test_every_mutant_old_text_occurs_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "ci" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.text_problems() == []


# the seed-0 traced exact-laws values that the CI step pins
PINNED_TRACE = {"protocol.rounds": 381, "protocol.qubits_sent": 6096, "ledger.calls": 3429,
                "oracles.calls": 4318, "oracles.table_builds": 261,
                "statevector.gate_calls": 4699, "protocol.bookkeeping_s": 0.01,
                "counting.workcheck_s": 0.002}


def check_trace(tmp_path, metrics, correct=True):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"correct": correct, "metrics": {
        key: {"value": value} for key, value in metrics.items()}}))
    return subprocess.run([sys.executable, str(ROOT / "ci" / "check_trace.py"), str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_check_trace_passes_the_pinned_trace(tmp_path):
    done = check_trace(tmp_path, PINNED_TRACE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("traced layers:")


@pytest.mark.parametrize("key,value,correct", [
    ("protocol.rounds", 380, True),
    ("counting.workcheck_s", 0, True),
    (None, None, False),
])
def test_check_trace_refuses_a_broken_trace(tmp_path, key, value, correct):
    metrics = dict(PINNED_TRACE)
    if key is not None:
        metrics[key] = value
    done = check_trace(tmp_path, metrics, correct)
    assert done.returncode != 0
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
