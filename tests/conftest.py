"""Shared pytest wiring.

The acceptance tests register one line each; the terminal summary
prints the collected checklist after the run so the pass/fail status
of every criterion is visible regardless of output capture.

The pytest setting `pythonpath = ["src"]` reaches only the pytest
process, so the checkout's src is also prepended to PYTHONPATH for the
tests that start `python -m qbc.cli` in a child process.
"""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
