"""Smoke test for the study script under scripts/."""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_blindness_study_runs_and_reports_zero_deviation():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "scripts/blindness_study.py", "--n", "4", "--t", "2",
         "--instances", "2"],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    worst = re.findall(r"worst (?:client|server)-blinded deviation: (\S+)", proc.stdout)
    assert len(worst) == 2, proc.stdout
    assert all(float(w) <= 1e-9 for w in worst)
