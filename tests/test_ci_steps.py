"""Checks that stand in for CI steps that cannot run everywhere.

The workflow's matrix tests Python 3.10 and 3.11. Where only a newer
interpreter is at hand, parsing every source file with the 3.10 grammar
still catches syntax that 3.10 lacks (`except*`, PEP 695 type
parameters, ...). It checks grammar only, not library calls.

The mutant step (`ci/mutants.py`) runs the whole suite once per mutant,
so it stays out of tier-1; tier-1 checks only that each mutant's old
text occurs exactly once, so a refactor cannot turn a mutant into a
no-op.
"""
import ast
import importlib.util
from pathlib import Path

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
