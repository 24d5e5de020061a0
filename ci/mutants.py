"""Run the tier-1 suite against a list of hand-written mutants.

Each mutant is one exact text edit to one file under src/. For each, the
checkout (without .git and caches) is copied to a temporary directory,
the edit is applied there, and `python -m pytest -x -q` runs in the copy,
without the one test that checks this list's old texts against the
files. A mutant is killed when the suite fails and survives when it
passes.

Most mutants must be killed, each by the test it names (`killed_by`,
the node id of the suite's first failure), so a mutant whose new text
stops making its fault, or that another test catches first, is
reported. A few are named survivors: gaps the suite is known to have,
each with the ROADMAP item that should close it. The suite first runs
on an unmutated copy, since a suite that fails anyway would count every
mutant as killed. The script exits non-zero when that run fails, when
an old text does not occur exactly once in its file, when a `killed_by`
names no test in its file, when a mutant that must be killed survives
or first fails another test, or when a named survivor is killed (so the
list is updated once its gap is closed).

    python ci/mutants.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# the tier-1 test that reads MUTANTS; a mutated copy fails it by construction
TEXT_CHECK = "tests/test_ci_steps.py::test_every_mutant_old_text_occurs_once"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".benchmarks", ".work", ".runs", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killed_by: str | None = None  # the node id of the first test that fails
    survives_until: str | None = None  # the ROADMAP item that should kill a named survivor


PROTOCOL, ORACLES = "src/qbc/protocol.py", "src/qbc/oracles.py"
COUNTING, STATEVECTOR = "src/qbc/counting.py", "src/qbc/statevector.py"
# the test files that killed_by node ids name
T_ACCEPTANCE = "tests/test_acceptance.py::"
T_PROTOCOL = "tests/test_protocol.py::"
T_COUNTING = "tests/test_counting.py::"
T_ORACLES = "tests/test_oracles.py::"
T_CLI = "tests/test_experiment_cli.py::"
T_CONDITIONING = "tests/test_conditioning.py::"

MUTANTS = [
    Mutant("client-skips-second-uy", PROTOCOL,
           '            apply_correlation_gate(state, self.o1, work, self.mode)\n'
           '            apply_data_oracle(state, work, y, self.ledger, "Uy")\n',
           '            apply_correlation_gate(state, self.o1, work, self.mode)\n',
           killed_by=T_ACCEPTANCE + "test_criterion_01_qubit_count_baseline_and_blind_server"),
    Mutant("client-pads-on-the-carrier", PROTOCOL,
           'apply_phase_pad(state, pad, work, self.ledger, "Ug")',
           'apply_phase_pad(state, pad, self.o1, self.ledger, "Ug")',
           killed_by=T_ACCEPTANCE + "test_criterion_05_blindness_preserves_statistics"),
    Mutant("blind-server-drops-pad", PROTOCOL,
           "        sim.one_trip(state, g_table)\n", "        sim.one_trip(state)\n",
           killed_by=T_ACCEPTANCE + "test_criterion_03_oracle_call_budget"),
    Mutant("blind-server-server-pads", PROTOCOL,
           "        sim.one_trip(state, g_table)\n",
           "        sim.one_trip(state)\n"
           '        apply_phase_pad(state, g_table, sim.o1 + 1, sim.ledger, "Ug")\n',
           killed_by=T_PROTOCOL
           + "test_blind_server_returns_the_padded_product_phase_to_the_server[4]"),
    Mutant("hop-counts-n-qubits", PROTOCOL,
           "self.ledger.quantum_qubits_sent += self.n + 1",
           "self.ledger.quantum_qubits_sent += self.n",
           killed_by=T_ACCEPTANCE + "test_criterion_01_qubit_count_baseline_and_blind_server"),
    Mutant("ux2-skips-z-basis-reset", ORACLES,
           "    apply_data_oracle(state, o1, np.logical_and(x, np.logical_not(basis)), "
           'ledger, "Ux")\n', "",
           killed_by=T_ACCEPTANCE + "test_criterion_02_qubit_count_blind_client"),
    Mutant("round-end-skips-holder-check", PROTOCOL,
           "        self._hops.clear()\n        self.require_owner(SERVER)\n",
           "        self._hops.clear()\n",
           killed_by=T_PROTOCOL + "test_end_round_requires_registers_back_home"),
    Mutant("transfer-skips-holder-check", PROTOCOL,
           "        self.require_owner(src)\n", "",
           killed_by=T_PROTOCOL + "test_transfer_requires_current_owner"),
    Mutant("counting-skips-work-check", COUNTING,
           "if leak > WORK_LEAK_ATOL:", "if False:",
           killed_by=T_COUNTING + "test_work_check_trips_on_leaky_oracle"),
    Mutant("ux4-skips-carrier-reset-check", ORACLES,
           "if state.probability(o1, 1) > 1e-12:", "if False:",
           killed_by=T_ORACLES + "test_ux4_detects_mismatched_unload"),
    Mutant("ux2-skips-scratch-clear-check", ORACLES,
           '    _require_clear(state, oa, "scratch qubit oa")\n', "",
           killed_by=T_ORACLES + "test_ux2_requires_clear_scratch"),
    Mutant("blind-client-reuses-first-pad", PROTOCOL,
           "r_bits, h_bits = draw_r(), draw_h()",
           "r_bits, h_bits = draw_r(), pads[0] if pads else draw_h()",
           killed_by=T_CLI + "test_run_output_bytes_are_pinned[blind-client-4-2]"),
    Mutant("blind-client-applies-first-basis", PROTOCOL,
           "padded_table(r_bits, sim.n)", "padded_table(bases[0], sim.n)",
           killed_by=T_PROTOCOL + "test_blind_client_applies_each_rounds_recorded_draws"),
    Mutant("blind-client-applies-first-pad", PROTOCOL,
           "padded_table(h_bits, sim.n)", "padded_table(pads[0], sim.n)",
           killed_by=T_PROTOCOL + "test_blind_client_applies_each_rounds_recorded_draws"),
    Mutant("blind-client-pads-client-work-qubit", PROTOCOL,
           "apply_ux3(state, ht, oa, ledger)", "apply_ux3(state, ht, sim.o1 + 1, ledger)",
           survives_until="item 4"),
    Mutant("multiparty-last-client-pads", PROTOCOL,
           "if pad is not None and src == SERVER:  # client 1",
           "if pad is not None and client == self.clients[-1][0]:",
           killed_by=T_PROTOCOL + "test_multiparty_client2_view_does_not_depend_on_client1_bits"),
    Mutant("swap-skips-pre-check", STATEVECTOR,
           "        _plan(self.num_qubits, 0, (a, b), tuple(controls), self.index_width)\n", "",
           killed_by=T_COUNTING + "test_round_rejects_non_diagonal_gate_on_index[<lambda>2]"),
    Mutant("table-rule-skips-index-width-1", STATEVECTOR,
           "if self.index_width and len(pred)", "if self.index_width > 1 and len(pred)",
           killed_by=T_COUNTING + "test_round_rejects_a_table_of_half_the_index[1]"),
    Mutant("index-rule-exempts-qubit-0", STATEVECTOR,
           "if 0 <= t < index_width:", "if 1 <= t < index_width:",
           killed_by=T_COUNTING + "test_round_rejects_non_diagonal_gate_on_index[<lambda>0]"),
    Mutant("ux2-resets-with-x-and-basis", ORACLES,
           "np.logical_and(x, np.logical_not(basis))", "np.logical_and(x, basis)",
           killed_by=T_ACCEPTANCE + "test_criterion_02_qubit_count_blind_client"),
    Mutant("ux4-unloads-with-x-and-not-basis", ORACLES,
           "np.logical_and(x, basis), ledger", "np.logical_and(x, np.logical_not(basis)), ledger",
           killed_by=T_ACCEPTANCE + "test_criterion_02_qubit_count_blind_client"),
    Mutant("work-check-skips-first-work-value", COUNTING,
           "[:, 1:]", "[:, 2:]",
           killed_by=T_CONDITIONING + "test_readouts_match_mask_reference[0]"),
]


def text_problems(root: Path = ROOT) -> list[str]:
    """Mutants whose old text does not occur exactly once in its file,
    that do not name exactly one of killed_by and survives_until, or
    whose killed_by names no test that its file defines."""
    problems = []
    for m in MUTANTS:
        count = (root / m.path).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.path}")
        if (m.killed_by is None) == (m.survives_until is None):
            problems.append(f"{m.name}: needs exactly one of killed_by and survives_until")
        elif m.killed_by is not None:
            path, _, test = m.killed_by.partition("::")
            test_file = root / path
            test = test.split("::")[-1].split("[")[0]
            if not test_file.is_file() or f"def {test}(" not in test_file.read_text():
                problems.append(f"{m.name}: {m.killed_by} names no test in {path}")
    return problems


def run(m: Mutant | None) -> tuple[str | None, float]:
    """Run the suite on a copy of the checkout with one mutant applied, or
    none; (the first failure's node id, or the last output line if no
    test failed, or None if it passed, and the seconds it took)."""
    with tempfile.TemporaryDirectory(prefix="qbc-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if m is not None:
            target = copy / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--deselect", TEXT_CHECK],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        seconds = time.perf_counter() - start
        if done.returncode == 0:
            return None, seconds
        lines = done.stdout.splitlines()
        failures = [line.split(" - ")[0].split(" ", 1)[1] for line in lines
                    if line.startswith(("FAILED ", "ERROR "))]
        return (failures or lines[-1:] or [f"exit {done.returncode}"])[0], seconds


def main() -> int:
    problems = text_problems()
    if problems:
        print("\n".join(f"error: {p}" for p in problems), file=sys.stderr)
        return 1
    start = time.perf_counter()
    failure, seconds = run(None)  # else every mutant would count as killed
    if failure:
        print(f"error: the suite fails without a mutant: {failure}", file=sys.stderr)
        return 1
    print(f"ok   no mutant: passed in {seconds:.1f} s", flush=True)
    for m in MUTANTS:
        failure, seconds = run(m)
        verdict = f"killed by {failure}" if failure else "survived"
        if m.survives_until:
            verdict += f" (expected to survive until {m.survives_until})"
        elif failure != m.killed_by:
            verdict += f" (expected to be killed by {m.killed_by})"
        ok = failure == m.killed_by
        print(f"{'ok  ' if ok else 'FAIL'} {m.name}: {verdict} in {seconds:.1f} s", flush=True)
        if not ok:
            problems.append(m.name)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s")
    if problems:
        print(f"error: unexpected outcome for {', '.join(problems)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
