"""Tests of the benchmark itself: span arithmetic, failure accounting,
seeded inputs and the exit status outside a checkout.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import qbc  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import NO_PARENT, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


class SmallExact(workloads.ExactLaws):
    num_values, t = 4, 3


class SmallTrials(workloads.TrialsN64):
    num_values, t = 4, 2


class SmallRegression(workloads.RegressionSmall):
    num_values, planes, t = 4, 3, 3


class SmallPrivacy(workloads.PrivacyMC):
    num_values, t, trials = 16, 3, 2000


def run_plan(cls, tmp_path, seed=3, cycles=1):
    wl = cls(seed, tmp_path, cycles)
    wl.setup()
    return worker.run_units(wl.units(), worker.Window())


# -- span arithmetic -----------------------------------------------------------


def test_self_times_on_synthetic_tree():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- d [5, 9]
    spans = [[0, NO_PARENT, 0.0, 10.0], [1, 0, 1.0, 4.0], [2, 1, 2.0, 3.0], [3, 0, 5.0, 9.0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_and_unattributed_sum_to_wall():
    tracer = Tracer()
    top = tracer._name_id("cli", "main")
    mid = tracer._name_id("experiment", "run_experiment")
    leaf = tracer._name_id("statevector", "StateVector.h")
    tracer.spans[:] = [
        [top, NO_PARENT, 0.0, 10.0],
        [mid, 0, 1.0, 9.0],
        [leaf, 1, 2.0, 5.0],
        [leaf, 1, 6.0, 7.0],
        [top, NO_PARENT, 11.0, 12.0],
    ]
    m = tracer.layer_metrics(traced_wall=12.5, untraced_wall=10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["experiment.self_s"] == pytest.approx(4.0)
    assert m["statevector.self_s"] == pytest.approx(4.0)
    assert m["trace.unattributed_s"] == pytest.approx(1.5)
    assert m["trace.overhead_ratio"] == pytest.approx(1.25)
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers + m["trace.unattributed_s"] == pytest.approx(12.5)


# -- failed ops ------------------------------------------------------------------


def test_clean_small_plans_pass(tmp_path):
    for cls in (SmallExact, SmallTrials, SmallRegression, SmallPrivacy):
        results = run_plan(cls, tmp_path / cls.name, cycles=2)
        assert results and all(r.ok for r in results), [r.error for r in results]


def test_corrupted_law_is_a_failed_op(tmp_path, monkeypatch):
    real = qbc.run_qbc_baseline

    def corrupted(*args, **kwargs):
        run = real(*args, **kwargs)
        run.distribution = run.distribution.copy()
        run.distribution[0] += 1e-6
        run.distribution[1] -= 1e-6
        return run

    monkeypatch.setattr(qbc, "run_qbc_baseline", corrupted)
    results = run_plan(SmallExact, tmp_path, cycles=2)
    assert len(results) == 6
    failed = [r for r in results if not r.ok]
    assert len(failed) == 2 and all("law" in r.error for r in failed)
    assert all(math.isfinite(r.seconds) for r in results)


def test_wrong_ledger_is_a_failed_op(tmp_path, monkeypatch):
    real = qbc.experiment.run_protocol

    def miscounted(cfg, x, ys, rng):
        run = real(cfg, x, ys, rng)
        if cfg.protocol == "blind-server":
            run.ledger.quantum_qubits_sent += 1
        return run

    monkeypatch.setattr(qbc.experiment, "run_protocol", miscounted)
    results = run_plan(SmallTrials, tmp_path, cycles=2)
    assert len(results) == 8
    failed = [r for r in results if not r.ok]
    assert len(failed) == 2 and all("ledger" in r.error for r in failed)


def test_raising_op_is_a_failed_op(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise qbc.InvariantViolation("injected")

    monkeypatch.setattr(qbc.bitplane, "run_blind_client", broken)
    results = run_plan(SmallRegression, tmp_path, cycles=2)
    assert [r.ok for r in results] == [True, False, True, False]
    assert "injected" in results[1].error


# -- recorded digests ------------------------------------------------------------


def test_missing_digest_fails_at_the_default_seed(tmp_path):
    # the small attacks differ from the recorded ones; the overlap table does not
    attack, worst, overlap = run_plan(SmallPrivacy, tmp_path, seed=workloads.DEFAULT_SEED)
    assert "no recorded digest" in attack.error and "no recorded digest" in worst.error
    assert overlap.ok


def test_recorded_digests_pass_and_catch_a_changed_output(monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded outputs name relative input paths

    def plan():
        wl = workloads.PrivacyMC(workloads.DEFAULT_SEED, Path("perfbench", ".work", "privacy-mc"), 1)
        wl.setup()
        return worker.run_units(wl.units(), worker.Window())

    assert [r.error for r in plan()] == ["", "", ""]
    monkeypatch.setattr(workloads, "scrub_timing", lambda text: text + " ")
    assert all("differs from its recorded digest" in r.error for r in plan())


def test_trial_digests_do_not_depend_on_the_trial_count():
    record = {"outcome_j": 3, "elapsed_s": 0.25}
    payload = {"config": {"n": 64, "trials": 2}, "records": [record, dict(record, elapsed_s=9.0)]}
    argv = ["run", "--n", "64", "--trials", "2", "--seed", "0"]
    parts = workloads.TrialsN64.digest_parts(argv, payload)
    assert parts == {
        "run --n 64 --seed 0 config": '{"n": 64}',
        "run --n 64 --seed 0 trial 0": '{"outcome_j": 3}',
        "run --n 64 --seed 0 trial 1": '{"outcome_j": 3}',
    }


# -- seeded inputs ---------------------------------------------------------------


def input_files(cls, seed, workdir) -> dict:
    cls(seed, workdir, 1).setup()
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("cls", [workloads.TrialsN64, workloads.PrivacyMC])
def test_same_seed_same_input_files(cls, tmp_path):
    a = input_files(cls, 11, tmp_path / "a")
    b = input_files(cls, 11, tmp_path / "b")
    c = input_files(cls, 12, tmp_path / "c")
    assert a and a == b
    assert a != c


def test_same_seed_same_instances(tmp_path):
    def instances(seed):
        wl = workloads.ExactLaws(seed, tmp_path, 2)
        wl.setup()
        return [(v, x.tobytes(), y.tobytes()) for v, x, y, _ in wl.instances]

    assert instances(4) == instances(4)
    assert instances(4) != instances(5)


@pytest.mark.parametrize("cls", [SmallExact, SmallTrials, SmallRegression, SmallPrivacy])
def test_traced_counts_repeat_and_time_adds_up(cls, tmp_path):
    def traced():
        def plan():
            wl = cls(3, tmp_path, 1)
            wl.setup()
            return wl.units()

        summary, _ = worker.traced_run(plan, qbc)
        assert summary["failed"] == 0, summary["errors"]
        return summary["metrics"]

    a, b = traced(), traced()
    assert {k: a[k] for k in COUNT_METRICS} == {k: b[k] for k in COUNT_METRICS}
    assert set(m["name"] for m in SPEC["per_layer"]) <= set(a)
    layers = math.fsum(v for k, v in a.items() if k.endswith(".self_s"))
    assert a["trace.unattributed_s"] >= 0
    assert layers + a["trace.unattributed_s"] == pytest.approx(a["trace.traced_wall_s"])


def test_tracer_restores_every_namespace():
    before = (qbc.protocol.apply_data_oracle, qbc.oracles.apply_data_oracle,
              qbc.counting.apply_gate, qbc.StateVector.h)
    tracer = Tracer().install(qbc)
    assert qbc.protocol.apply_data_oracle is qbc.oracles.apply_data_oracle
    assert qbc.counting.apply_gate is qbc.statevector.apply_gate
    assert qbc.protocol.apply_data_oracle is not before[0]
    tracer.uninstall()
    after = (qbc.protocol.apply_data_oracle, qbc.oracles.apply_data_oracle,
             qbc.counting.apply_gate, qbc.StateVector.h)
    assert after == before


def test_tail_has_ten_ops_beyond_it():
    times = [float(i) for i in range(1, 201)]
    assert worker.tail(times) == (190.0, pytest.approx(95.0))


def test_tail_has_a_tenth_of_the_ops_beyond_it_in_short_runs():
    assert worker.tail([float(i) for i in range(1, 25)]) == (22.0, pytest.approx(100 * 22 / 24))
    assert worker.tail([float(i) for i in range(1, 13)]) == (11.0, pytest.approx(100 * 11 / 12))
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


# -- outside a checkout ------------------------------------------------------------


def test_run_fails_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "exact-laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
