"""Experiment harness and command line front end."""
import hashlib
import itertools
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from qbc.cli import main
from qbc.experiment import (
    DEFAULT_MAX_QUBITS,
    CapExceeded,
    ExperimentConfig,
    check_cap,
    derive_rng,
    load_inputs,
    max_qubits,
    privacy_table_overlap,
    privacy_table_recovery,
    qubit_budget,
    records_to_csv,
    records_to_json,
    run_experiment,
)
from qbc.ledger import VARIANTS, ChannelLedger
from qbc.oracles import CorrelationMode, random_bits
from qbc.protocol import (
    ProtocolSim,
    index_width_for,
    run_blind_client,
    run_blind_server,
    run_multiparty,
    run_qbc_baseline,
)
from qbc.statevector import GateError


def cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qbc.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def scrub_timing(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "elapsed_s" not in line)


# -- the package surface ----------------------------------------------------------


def test_star_import_binds_exactly_all():
    import qbc

    namespace = {}
    exec("from qbc import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(qbc.__all__)
    assert qbc.__all__ == sorted(qbc.__all__)
    assert not [name for name in qbc.__all__
                if name.startswith("_") or isinstance(getattr(qbc, name), types.ModuleType)]


# -- config and seeds -------------------------------------------------------------


def test_config_validation_matrix():
    ok = dict(protocol="baseline", num_values=4, t=2, random_inputs=True)
    ExperimentConfig(**ok)
    cases = [
        dict(ok, protocol="nope"),
        dict(ok, num_values=0),
        dict(ok, t=0),
        dict(ok, trials=0),
        dict(ok, x_path="x.txt"),  # files and random together
        dict(ok, random_inputs=False),  # neither source
        dict(protocol="baseline", num_values=4, t=2, x_path="x.txt", random_inputs=False),
        dict(ok, redundancy_m=0),
        dict(ok, redundancy_m=2, protocol="multiparty"),
        dict(ok, redundancy_m=2, mode=CorrelationMode.XOR),
        dict(ok, redundancy_m=2, redundancy_rule="bogus"),
        dict(ok, redundancy_rule="bogus"),  # checked even with one slot per index
        dict(ok, protocol="blind-server", mode=CorrelationMode.XOR),  # product means only
        dict(ok, protocol="blind-client", mode=CorrelationMode.XOR),
        dict(ok, protocol="multiparty", mode=CorrelationMode.XOR),
        dict(ok, protocol="multiparty", num_clients=1),
        dict(ok, seed=-1),  # numpy's seed sequence would reject it in the first trial
        dict(ok, mode="and"),  # a mode name, not a CorrelationMode
    ]
    for bad in cases:
        with pytest.raises((GateError, ValueError)):
            ExperimentConfig(**bad)
    for flag, bad in (("--redundancy-rule", dict(redundancy_rule="bogus")),
                      ("--seed", dict(seed=-1)), ("--mode", dict(mode="and")),
                      ("--redundancy-m", dict(redundancy_m=2, protocol="multiparty")),
                      ("--protocol", dict(redundancy_m=2, protocol="multiparty")),
                      ("--redundancy-m", dict(redundancy_m=2, mode=CorrelationMode.XOR)),
                      ("--mode", dict(redundancy_m=2, mode=CorrelationMode.XOR))):
        with pytest.raises(GateError, match=flag):
            ExperimentConfig(**dict(ok, **bad))


def test_config_widths_account_for_redundancy():
    cfg = ExperimentConfig(protocol="baseline", num_values=3, t=2,
                           random_inputs=True, redundancy_m=3)
    assert cfg.effective_num_values == 9
    assert cfg.index_width == 4
    assert cfg.as_dict()["redundancy_m"] == 3


def test_derive_rng_streams_are_stable_and_distinct():
    a = derive_rng(7, 0).integers(0, 1 << 30, size=8)
    b = derive_rng(7, 0).integers(0, 1 << 30, size=8)
    c = derive_rng(7, 1).integers(0, 1 << 30, size=8)
    d = derive_rng(8, 0).integers(0, 1 << 30, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_qubit_budgets():
    assert qubit_budget("baseline", 3, 4) == 9
    assert qubit_budget("blind-server", 3, 4) == 9
    assert qubit_budget("blind-client", 3, 4) == 10
    assert qubit_budget("multiparty", 3, 4, num_clients=3) == 11
    with pytest.raises(GateError):
        qubit_budget("nope", 3, 4)
    # the cap counts the state a run simulates: the probe every round runs
    # on, block_qubits wide, plus the readout register
    two_party = {"baseline": run_qbc_baseline, "blind-server": run_blind_server,
                 "blind-client": run_blind_client}
    rng = np.random.default_rng(4)
    t = 2
    for variant, m in [(v, 1) for v in two_party] + [("multiparty", 2), ("multiparty", 3)]:
        x, *ys = (random_bits(5, rng) for _ in range(m + 1))
        sim = ProtocolSim(variant, x, ys)
        assert qubit_budget(variant, sim.n, t, m) == sim.block_qubits + t
        widths = set()
        hook = lambda _, state: widths.add(state.num_qubits)
        if variant == "multiparty":
            run_multiparty(x, ys, t, rng=rng, round_hook=hook)
        else:
            two_party[variant](x, ys[0], t, rng=rng, round_hook=hook)
        assert widths == {sim.block_qubits}, (variant, m)


def test_cap_enforcement(monkeypatch):
    monkeypatch.delenv("QBC_MAX_QUBITS", raising=False)
    assert max_qubits() == DEFAULT_MAX_QUBITS
    monkeypatch.setenv("QBC_MAX_QUBITS", "12")
    assert max_qubits() == 12
    with pytest.raises(CapExceeded) as err:
        check_cap("baseline", 8, 6)
    assert err.value.required == 16
    assert err.value.available == 12
    assert "QBC_MAX_QUBITS" in str(err.value)
    assert check_cap("baseline", 4, 6) == 12


# -- input loading ------------------------------------------------------------------


def test_load_inputs_random_is_trial_independent():
    cfg = ExperimentConfig(protocol="baseline", num_values=8, t=2,
                           trials=5, seed=3, random_inputs=True)
    x1, ys1 = load_inputs(cfg)
    x2, ys2 = load_inputs(cfg)
    assert np.array_equal(x1, x2) and np.array_equal(ys1[0], ys2[0])
    assert len(ys1) == 1


def test_load_inputs_from_files(tmp_path):
    # a file holds exactly the vectors its command reads: one x, and one
    # y per client
    xf, y1f, yf = tmp_path / "x.txt", tmp_path / "y1.txt", tmp_path / "y.txt"
    xf.write_text("1010\n")
    y1f.write_text("1100\n")
    yf.write_text("1100\n0110\n")
    cfg = ExperimentConfig(protocol="baseline", num_values=4, t=2,
                           x_path=str(xf), y_path=str(y1f))
    x, ys = load_inputs(cfg)
    assert x.tolist() == [1, 0, 1, 0]
    assert len(ys) == 1 and ys[0].tolist() == [1, 1, 0, 0]
    extra = ExperimentConfig(protocol="baseline", num_values=4, t=2,
                             x_path=str(xf), y_path=str(yf))
    with pytest.raises(GateError, match="--y-file .* reads exactly 1"):
        load_inputs(extra)
    multi = ExperimentConfig(protocol="multiparty", num_values=4, t=2,
                             num_clients=2, x_path=str(xf), y_path=str(yf))
    _, ys = load_inputs(multi)
    assert len(ys) == 2
    short = ExperimentConfig(protocol="multiparty", num_values=4, t=2,
                             num_clients=3, x_path=str(xf), y_path=str(yf))
    with pytest.raises(GateError, match="--y-file .* reads exactly 3"):
        load_inputs(short)


# -- experiment records ---------------------------------------------------------------


def test_run_experiment_deterministic_records():
    cfg = ExperimentConfig(protocol="baseline", num_values=4, t=4,
                           trials=3, seed=11, random_inputs=True)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert [r["outcome_j"] for r in first] == [r["outcome_j"] for r in second]
    assert [r["estimate"] for r in first] == [r["estimate"] for r in second]
    for r in first:
        assert r["abs_error"] == abs(r["estimate"] - r["truth"])
        assert r["recovered_estimate"] is None
        assert r["ledger"]["grover_rounds"] == 15
        assert "transcript" not in r


def test_run_experiment_transcript_toggle():
    cfg = ExperimentConfig(protocol="blind-server", num_values=4, t=2, seed=1,
                           random_inputs=True, include_transcript=True)
    rec = run_experiment(cfg)[0]
    assert rec["transcript"][0] == "round,from,to,qubits,oracle_calls"
    assert len(rec["transcript"]) == 1 + 2 * 3
    assert rec["recovered_estimate"] is not None
    assert rec["abs_error"] == abs(rec["recovered_estimate"] - rec["truth"])


def test_run_experiment_redundant_decode_exact(tmp_path):
    xf, yf = tmp_path / "x.txt", tmp_path / "y.txt"
    xf.write_text("11\n")
    yf.write_text("11\n")
    cfg = ExperimentConfig(protocol="baseline", num_values=2, t=4,
                           x_path=str(xf), y_path=str(yf), redundancy_m=2)
    rec = run_experiment(cfg)[0]
    # the widened instance marks 2 of 4 cells: estimate 1/2 on the grid,
    # decoding doubles it back to the true mean 1
    assert rec["estimate"] == pytest.approx(0.5, abs=1e-12)
    assert rec["recovered_estimate"] == pytest.approx(1.0, abs=1e-12)
    assert rec["truth"] == 1.0
    assert rec["abs_error"] < 1e-12


def test_run_redundant_sampled_estimate_is_reported_as_is(capsys):
    # a sampled estimate can rescale past [0, 1]; it is reported like any
    # other estimate instead of failing the exact-mean consistency check
    argv = ["run", "--n", "6", "--t", "4", "--seed", "5", "--trials", "3", "--random-inputs",
            "--redundancy-m", "3", "--redundancy-rule", "hide-among-ones"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    records = json.loads(captured.out)["records"]
    assert len(records) == 3
    assert min(r["recovered_estimate"] for r in records) < 0
    for r in records:
        assert r["abs_error"] == abs(r["recovered_estimate"] - r["truth"])


def test_records_serialization_round_trip():
    cfg = ExperimentConfig(protocol="baseline", num_values=4, t=3,
                           trials=2, seed=5, random_inputs=True)
    records = run_experiment(cfg)
    payload = json.loads(records_to_json(cfg, records))
    assert payload["config"]["protocol"] == "baseline"
    assert len(payload["records"]) == 2
    assert payload["records"][0]["outcome_j"] == records[0]["outcome_j"]
    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == "run_id,estimate,recovered_estimate,truth,server_view_truth,abs_error,outcome_j"
    row = lines[1].split(",")
    assert len(row) == 7
    assert row[2] == ""  # no recovered estimate on the baseline
    assert float(row[1]) == records[0]["estimate"]


def test_privacy_tables_shape():
    table = privacy_table_overlap([(4, 2, 2)], np.random.default_rng(0), trials=20_000)
    lines = table.strip().split("\n")
    assert lines[0] == "N,d,t,d0,formula,mc,trials,z_score"
    assert len(lines) == 1 + 3  # d0 in 0..2
    d0_2 = lines[3].split(",")
    assert float(d0_2[4]) == pytest.approx(1 / 6, abs=1e-9)
    assert abs(float(d0_2[7])) < 5.0
    rec = privacy_table_recovery([(4, 2, 1), (2, 2, 1), (1030, 10, 3)]).strip().split("\n")
    assert rec[1] == "4,2,,1,0.5000000000,0.1250000000,0,0.0000"
    assert rec[2] == "2,2,,1,2.0000000000,0.5000000000,0,0.0000"
    # the model denominator C(10, 3) * 2^1020 is too large to convert to a float
    assert rec[3] == "1030,10,,3,0.0000000000,0.0000000000,0,0.0000"


# -- CLI ---------------------------------------------------------------------------


def test_cli_run_json_and_reproducibility(tmp_path):
    args = ["run", "--protocol", "blind-server", "--n", "6", "--t", "3",
            "--trials", "2", "--seed", "9", "--random-inputs"]
    a = cli(*args, "--out", str(tmp_path / "a.json"))
    b = cli(*args, "--out", str(tmp_path / "b.json"))
    assert a.returncode == 0 and b.returncode == 0
    text_a = (tmp_path / "a.json").read_text()
    text_b = (tmp_path / "b.json").read_text()
    assert scrub_timing(text_a) == scrub_timing(text_b)
    payload = json.loads(text_a)
    assert payload["config"]["protocol"] == "blind-server"
    rec = payload["records"][0]
    assert 0.0 <= rec["estimate"] <= 1.0
    assert rec["ledger"]["oracle_calls"]["Ug"] == 14


def test_cli_run_csv_format():
    res = cli("run", "--n", "4", "--t", "2", "--random-inputs", "--format", "csv")
    assert res.returncode == 0
    assert res.stdout.startswith("run_id,estimate,")


def test_cli_exit_codes():
    # no input source: configuration error
    res = cli("run", "--n", "4", "--t", "2")
    assert res.returncode == 2
    assert "error:" in res.stderr
    # missing file: OS error
    res = cli("run", "--n", "4", "--t", "2", "--x-file", "/nonexistent/x",
              "--y-file", "/nonexistent/y")
    assert res.returncode == 2
    # over the simulator cap
    res = cli("run", "--n", "256", "--t", "16", "--random-inputs")
    assert res.returncode == 3
    assert "cap" in res.stderr
    # cap override comes from the environment
    res = cli("run", "--n", "4", "--t", "2", "--random-inputs",
              env_extra={"QBC_MAX_QUBITS": "3"})
    assert res.returncode == 3


def test_cli_attack_payload():
    res = cli("attack", "--strategy", "plus-probe", "--n", "8", "--t", "3",
              "--seed", "4", "--random-inputs")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["strategy"] == "plus-probe"
    assert payload["hamming_to_truth"] == 0
    assert len(payload["truth"]) == 8
    assert payload["carrier_distinguishability"]["helstrom_success"] == pytest.approx(
        0.8535533905932737
    )


def test_cli_privacy_recovery_default_grid():
    res = cli("privacy", "--kind", "recovery")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "N,d,t,d0,formula,mc,trials,z_score"
    assert len(lines) == 1 + 3 + 4 + 5  # N=4,6,8 with counts 0..N/2


def test_cli_regression_payload():
    res = cli("regression", "--n", "4", "--planes", "3", "--t", "5", "--seeds", "3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["n"] == 4 and payload["planes"] == 3
    assert len(payload["rows"]) == 3
    assert 0.0 <= payload["fraction_within_bound"] <= 1.0


def test_cli_ledger_check_passes_in_process(capsys):
    assert main(["ledger-check", "--max-n", "3", "--max-t", "2", "--m", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_match"] is True
    assert len(payload["rows"]) == 4 * 2 * 2  # variants x N in {2,3} x t in {1,2}


def test_cli_ledger_check_mismatch_exits_4(monkeypatch, capsys):
    def wrong(variant, n, t, **kwargs):
        return ChannelLedger(quantum_qubits_sent=-1)

    monkeypatch.setattr("qbc.cli.expected_ledger", wrong)
    code = main(["ledger-check", "--max-n", "2", "--max-t", "1", "--m", "2"])
    captured = capsys.readouterr()
    assert code == 4
    assert "deviates" in captured.err
    payload = json.loads(captured.out)
    assert payload["all_match"] is False


def test_cli_ledger_check_ignores_the_seed(capsys):
    # a ledger counts rounds, qubits and oracle calls, which depend on
    # neither the data nor the draws
    outputs = []
    for seed in ("0", "5"):
        assert main(["ledger-check", "--max-n", "3", "--max-t", "2", "--m", "3",
                     "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_ledger_check_refuses_an_over_cap_sweep_before_any_row(monkeypatch, capsys):
    # baseline N=2 reaches the cap at t=20, after rows t=1..19 that fit it
    ran = []
    monkeypatch.delenv("QBC_MAX_QUBITS", raising=False)
    monkeypatch.setattr("qbc.cli.run_experiment", lambda cfg: ran.append(cfg))
    assert main(["ledger-check", "--max-n", "3", "--max-t", "64"]) == 3
    captured = capsys.readouterr()
    assert ran == [] and captured.out == ""
    assert captured.err == ("error: simulation needs 23 qubits but the cap is 22; "
                            "raise QBC_MAX_QUBITS to override\n")


def test_cli_ledger_check_rows_are_run_trials(capsys):
    assert main(["ledger-check", "--max-n", "3", "--max-t", "2", "--m", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == len(VARIANTS) * 2 * 2
    for row in rows:
        assert main(["run", "--protocol", row["variant"], "--n", str(row["n_values"]),
                     "--t", str(row["t"]), "--m", "3", "--random-inputs"]) == 0
        (record,) = json.loads(capsys.readouterr().out)["records"]
        assert row["measured"] == record["ledger"]


def test_cli_grid_parsing_in_process(capsys):
    assert main(["privacy", "--kind", "overlap", "--grid", "4,2,2",
                 "--trials", "5000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("N,d,t,d0,")
    assert main(["privacy", "--kind", "overlap", "--grid", "4,2"]) == 2
    assert main(["privacy", "--kind", "overlap", "--grid", " ; "]) == 2


def single_error_line(err: str) -> str:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


@pytest.mark.parametrize("argv", [
    ["privacy", "--kind", "overlap", "--trials", "0"],
    ["regression", "--n", "4", "--planes", "3", "--t", "3", "--seeds", "0"],
    ["regression", "--n", "4", "--planes", "3", "--seeds", "1", "--t", "0"],
    ["attack", "--strategy", "plus-probe", "--n", "8", "--t", "3",
     "--random-inputs", "--trials", "-5"],
    ["attack", "--strategy", "plus-probe", "--n", "8", "--random-inputs", "--t", "0"],
    ["attack", "--strategy", "blind-server-worst", "--n", "8", "--random-inputs", "--t", "0"],
    ["ledger-check", "--max-t", "0", "--max-n", "1"],
    ["ledger-check", "--max-t", "0"],
    ["ledger-check", "--m", "1"],
    ["privacy", "--kind", "overlap", "--grid", "8,4,0"],
    ["privacy", "--kind", "overlap", "--grid", "4,2,2;8,4,-1"],
    ["run", "--protocol", "multiparty", "--n", "4", "--t", "2", "--random-inputs", "--m", "1"],
    ["run", "--protocol", "multiparty", "--n", "4", "--t", "2", "--random-inputs", "--m", "0"],
    ["run", "--protocol", "multiparty", "--n", "4", "--t", "2", "--random-inputs", "--m", "-3"],
    ["regression", "--n", "4", "--t", "3", "--seeds", "1", "--planes", "64"],
    ["regression", "--n", "4", "--t", "3", "--seeds", "1", "--planes", "0"],
    ["regression", "--n", "4", "--t", "3", "--seeds", "1", "--planes", "-1"],
    ["run", "--n", "4", "--t", "2", "--random-inputs", "--seed", "-1"],
    ["attack", "--strategy", "plus-probe", "--n", "8", "--t", "3", "--random-inputs",
     "--seed", "-1"],
    ["privacy", "--kind", "overlap", "--seed", "-1"],
    ["regression", "--n", "4", "--planes", "3", "--t", "3", "--seeds", "1", "--seed", "-1"],
    ["ledger-check", "--seed", "-1"],
    ["privacy", "--kind", "overlap", "--grid", "0,0,2"],
    ["privacy", "--kind", "recovery", "--grid", "0,0,0"],
    ["privacy", "--kind", "recovery", "--grid", "2000,2000,1000"],  # C(2000, 1000) > float max
    ["attack", "--strategy", "plus-probe", "--t", "3", "--random-inputs", "--n", "-2"],
    ["run", "--t", "2", "--random-inputs", "--n", "0"],
    ["run", "--n", "4", "--random-inputs", "--t", "0"],
    ["run", "--n", "4", "--t", "2", "--random-inputs", "--trials", "0"],
    ["run", "--n", "4", "--t", "2", "--random-inputs", "--redundancy-m", "0"],
    ["regression", "--planes", "3", "--t", "3", "--seeds", "1", "--n", "0"],
    ["attack", "--strategy", "biased-index", "--n", "8", "--t", "2", "--focus", "99"],
    ["attack", "--strategy", "biased-index", "--n", "8", "--t", "2", "--focus-prob", "2"],
    ["privacy", "--kind", "recovery", "--grid", "4,5,1"],  # d_x > N
    ["privacy", "--kind", "overlap", "--grid", "4,5,2"],  # d_y > N
])
def test_cli_rejects_bad_counts(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in single_error_line(captured.err)


@pytest.mark.parametrize("argv,flag", [
    (["run", "--t", "2", "--random-inputs"], "--n"),  # a required flag is missing
    (["run", "--n", "4", "--t", "2", "--random-inputs", "--protocol", "nope"], "--protocol"),
    (["run", "--t", "2", "--random-inputs", "--n", "x"], "--n"),
])
def test_cli_parser_errors_take_the_one_error_path(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in single_error_line(captured.err)  # no usage block


RUN_SMALL = ["run", "--n", "4", "--t", "2"]
PROBE_SMALL = ["attack", "--strategy", "plus-probe", "--n", "8", "--t", "2", "--random-inputs"]
WORST_SMALL = ["attack", "--strategy", "blind-server-worst", "--n", "8", "--t", "2",
               "--random-inputs"]


@pytest.mark.parametrize("argv,flags", [
    (RUN_SMALL + ["--random-inputs", "--transcript", "--format", "csv"],
     ("--transcript", "--format")),
    (RUN_SMALL + ["--random-inputs", "--x-file", "a"], ("--x-file", "--random-inputs")),
    (RUN_SMALL, ("--x-file", "--y-file", "--random-inputs")),  # neither source
    (RUN_SMALL + ["--x-file", "a"], ("--x-file", "--y-file")),
    (RUN_SMALL + ["--y-file", "a"], ("--x-file", "--y-file")),
    *[(RUN_SMALL + ["--random-inputs", "--mode", "xor", "--protocol", variant], ("--mode",))
      for variant in ("blind-server", "blind-client", "multiparty")],
    # biased-index reads no y, so a y source is refused, not ignored
    (["attack", "--strategy", "biased-index", "--n", "8", "--t", "3", "--y-file", "two.txt",
      "--random-inputs", "--trials", "10"], ("--y-file",)),
    (["attack", "--strategy", "biased-index", "--n", "8", "--t", "3", "--random-inputs"],
     ("--random-inputs",)),
    # the focus flags are biased-index's own; the y-reading strategies refuse them
    (PROBE_SMALL + ["--focus", "3"], ("--focus",)),
    (PROBE_SMALL + ["--focus", "0"], ("--focus",)),  # the default value, given explicitly
    (PROBE_SMALL + ["--focus", "99", "--focus-prob", "7"], ("--focus",)),
    (WORST_SMALL + ["--focus-prob", "0.5"], ("--focus-prob",)),
    # redundant encoding is a two-party, product-mean construction
    (RUN_SMALL + ["--random-inputs", "--redundancy-m", "2", "--mode", "xor"],
     ("--redundancy-m", "--mode")),
    (RUN_SMALL + ["--random-inputs", "--redundancy-m", "2", "--protocol", "multiparty"],
     ("--redundancy-m", "--protocol")),
    # the recovery table is exact, so it refuses a Monte Carlo trial count
    (["privacy", "--kind", "recovery", "--trials", "7", "--seed", "3"], ("--trials", "--kind")),
])
def test_cli_flag_combinations_name_their_flags(argv, flags, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = single_error_line(captured.err)
    assert all(flag in line for flag in flags), line


@pytest.mark.parametrize("argv", [
    ["run", "--n", "4", "--t", "2", "--random-inputs"],
    ["privacy", "--kind", "recovery"],
])
def test_cli_out_write_error_names_out(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = single_error_line(captured.err)
    assert "--out" in line and str(out) in line


SMALL_CAP = 8


def first_over_cap(budget) -> int:
    """The smallest k >= 1 whose qubit budget(k) exceeds SMALL_CAP."""
    return next(k for k in itertools.count(1) if budget(k) > SMALL_CAP)


def values_for_width(width: int) -> int:
    """The smallest N > 1 whose index register is `width` qubits wide."""
    num = (1 << (width - 1)) + 1
    assert index_width_for(num) == width
    return num


def over_cap_argvs():
    """One argv per capped subcommand and variant, sized one qubit (or
    one readout round) over SMALL_CAP, so the cap refuses it before any
    state of that size is allocated."""
    t = 2
    for variant in VARIANTS:
        width = first_over_cap(lambda w: qubit_budget(variant, w, t, 3))
        yield ["run", "--protocol", variant, "--n", str(values_for_width(width)),
               "--t", str(t), "--m", "3", "--random-inputs"]
    probe_n = values_for_width(first_over_cap(lambda w: qubit_budget("baseline", w, t)))
    for strategy in ("plus-probe", "blind-server-worst"):
        yield ["attack", "--strategy", strategy, "--n", str(probe_n), "--t", str(t),
               "--random-inputs"]
    # the biased-index state is the index register alone, whatever --t says
    yield ["attack", "--strategy", "biased-index", "--n",
           str(values_for_width(first_over_cap(lambda w: w))), "--t", "1"]
    for variant in ("baseline", "blind-client"):
        width = first_over_cap(lambda w: qubit_budget(variant, w, t))
        yield ["regression", "--variant", variant, "--n", str(values_for_width(width)),
               "--planes", "2", "--t", str(t), "--seeds", "1"]
    # a valid first row does not hide an over-cap row behind it
    yield ["privacy", "--kind", "overlap", "--trials", "1", "--grid", f"4,2,2;{probe_n},1,{t}"]
    # the recovery row's 2^(N - d_x) is capped like an index register alone
    yield ["privacy", "--kind", "recovery", "--grid",
           f"4,2,1;{values_for_width(first_over_cap(lambda w: w))},0,0"]
    # the sweep's first row (N=2, t=1) is under the cap; the baseline row at t=max_t is not
    max_t = first_over_cap(lambda k: qubit_budget("baseline", 1, k))
    yield ["ledger-check", "--max-n", "2", "--max-t", str(max_t)]


@pytest.mark.parametrize("argv", list(over_cap_argvs()), ids=lambda a: " ".join(a[:3]))
def test_every_capped_subcommand_exits_3_over_the_cap(argv, monkeypatch, capsys):
    monkeypatch.setenv("QBC_MAX_QUBITS", str(SMALL_CAP))
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "QBC_MAX_QUBITS" in single_error_line(captured.err)


@pytest.mark.parametrize("raw", ["abc", "-3", "0"])
def test_cli_rejects_bad_qubit_cap(raw, monkeypatch, capsys):
    monkeypatch.setenv("QBC_MAX_QUBITS", raw)
    assert main(["run", "--n", "4", "--t", "2", "--random-inputs"]) == 2
    assert "QBC_MAX_QUBITS" in single_error_line(capsys.readouterr().err)


def test_cli_rejects_non_utf8_input_file(tmp_path, capsys):
    x_file = tmp_path / "x.bin"
    x_file.write_bytes(b"\xff\xfe01\n")
    y_file = tmp_path / "y.txt"
    y_file.write_text("0101\n")
    argv = ["run", "--n", "4", "--t", "2", "--x-file", str(x_file), "--y-file", str(y_file)]
    assert main(argv) == 2
    assert str(x_file) in single_error_line(capsys.readouterr().err)


# -- pinned output bytes ------------------------------------------------------------

def stdout_digest(capsys) -> str:
    """sha256 of the captured stdout with the elapsed_s lines removed."""
    kept = "".join(line + "\n" for line in capsys.readouterr().out.splitlines()
                   if "elapsed_s" not in line)
    return hashlib.sha256(kept.encode()).hexdigest()


# sha256 of `qbc run --protocol P --n N --t T --seed 3 --trials 2 --m 3
# --random-inputs --transcript` stdout with the elapsed_s lines removed
RUN_DIGESTS = {
    ("baseline", 4, 2): "9089117a56c2d032a81b054cf149def131076cfc9b5fc083c000566fc699ce2b",
    ("baseline", 16, 4): "98e97a1defa912fabcb4d913fbbd0028d05dd1e7e0457c3cc846afa993cf0b7c",
    ("blind-server", 4, 2): "aa2ab229ac552565cf467bcc023110b545fb2858a2ea62d614e433e26846cbf8",
    ("blind-server", 16, 4): "fda6d49a62043eecaad0c31ad95c3765aaff05ff601b3cafb31b75abd261a5ad",
    ("blind-client", 4, 2): "9e7a260f32f4d0edb72c5f2b03a3ab5a49c0911db088edf741e9f28bec2b9379",
    ("blind-client", 16, 4): "f5fea3dd95637b9204ccb5c67937d462d4b29f36718d7d083524ee8496ef0a39",
    ("multiparty", 4, 2): "915c689e5e1c69f7360b2bd98920515ba733a8e952784c9f4cc78a998ddf2631",
    ("multiparty", 16, 4): "bc21e589bef6873a7540972c26990b882a8af59194ac90c1690e1f0e2bfb5bbe",
}


@pytest.mark.parametrize("protocol,n,t", sorted(RUN_DIGESTS))
def test_run_output_bytes_are_pinned(protocol, n, t, capsys):
    argv = ["run", "--protocol", protocol, "--n", str(n), "--t", str(t), "--seed", "3",
            "--trials", "2", "--m", "3", "--random-inputs", "--transcript"]
    assert main(argv) == 0
    assert stdout_digest(capsys) == RUN_DIGESTS[(protocol, n, t)]


# sha256 of `qbc run` stdout with the elapsed_s lines removed, without
# --transcript, as JSON and as CSV, under redundant encoding and the XOR
# mode, and with input files (read from the test's working directory)
RUN_VARIANT_DIGESTS = {
    "run --protocol baseline --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs":
        "05ecb58e5dd9d3424b2bc7d85e94f51bb65d53a09b8cf8b17f3b57894c4dda92",
    "run --protocol baseline --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "a3ecde2fb4b35476acb6008f9de6b22715f6c7c21e1471af721390851627f149",
    "run --protocol baseline --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs":
        "82ae7807d3d7c1795cb3c2ad733eb8cdaf113a06e9a19083f51a971989472a67",
    "run --protocol baseline --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "c979a27580be68e98a2890408f7238215b76053778ccbe90a599c7b71db42990",
    "run --protocol blind-server --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs":
        "78addfa5103b789aced7d74d01f8e660c19d7c1d310f1b06299c6693d2cb308c",
    "run --protocol blind-server --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "df1cb56836df29a23c9a1fbe24ebda17fa8a49b85238242bc7cf4b1ab3105364",
    "run --protocol blind-server --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs":
        "c7e9806f1de63c5ef6e471d98bee911de582e1699b9ef8336bd46c9971f146e0",
    "run --protocol blind-server --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "bb0a4d6d84b87a0358bf418862bee1326ddbf69b5cb37d939858acfb2a0a0439",
    "run --protocol blind-client --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs":
        "a4230f6a075ad92175cee987839926515c31d262eee5f4b5486944ff1af16d93",
    "run --protocol blind-client --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "8f8d349e6ff37a48a3f56e8d713020c6e8366579232537e4f4f30f410a44c28a",
    "run --protocol blind-client --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs":
        "451652644255dd997d619b85d2232bf73368df9cf854e119e0013d010542a7cb",
    "run --protocol blind-client --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "ad0eb0dc77c60ac5b1728b95d028e18aa0400bb3298e79cdd9b7678586dd8912",
    "run --protocol multiparty --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs":
        "052ce17e7090750670d39cf25bed0eaa7838343233ee2ed3f9a7d4bc05a5a110",
    "run --protocol multiparty --n 4 --t 2 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "53605595d67e9fc194f475370a9597d9e2bdd159603efb9d888cdf8388465aa3",
    "run --protocol multiparty --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs":
        "a98ad6e86c098a02c63f11a1b594fec74a1adcdfd0fd23a40756ada4427cd42a",
    "run --protocol multiparty --n 16 --t 4 --seed 3 --trials 2 --m 3 --random-inputs --format csv":
        "9901b51cadb4c5da856f0ada303c9e66e8755d16ceff7303f674c537a0dcd645",
    "run --protocol baseline --n 6 --t 4 --seed 5 --trials 3 --random-inputs --redundancy-m 3 --redundancy-rule hide-among-zeros":
        "2641cfc7a1bd37c0214faae16ed315b295073d2613a92f01bcb0eb4453beea94",
    "run --protocol baseline --n 6 --t 4 --seed 5 --trials 3 --random-inputs --redundancy-m 3 --redundancy-rule hide-among-ones":
        "5ca5c933673cd5b734c4e01507c8621ec719b9bac067c835a44ac364f771bbc7",
    "run --protocol blind-server --n 6 --t 4 --seed 5 --trials 3 --random-inputs --redundancy-m 3 --redundancy-rule hide-among-zeros":
        "54356bf0f10c9a217f5be6d5b9ec8999ff5874586032fc588762b9265be3a29c",
    "run --protocol blind-server --n 6 --t 4 --seed 5 --trials 3 --random-inputs --redundancy-m 3 --redundancy-rule hide-among-ones":
        "4b6c958774bf0de96d7d9ab307b05a3b6e43f4e7e1262848501eff394e3954ea",
    "run --protocol blind-server --n 6 --t 4 --seed 5 --trials 3 --random-inputs --redundancy-m 3 --redundancy-rule hide-among-ones --format csv":
        "80f2f75060160cc301df846a10ee0c6c053c873ee1c43e204fb6dbf6912a5f9c",
    "run --mode xor --n 16 --t 4 --seed 3 --trials 2 --random-inputs":
        "f4dc2c18d75d2fa03ecec70763403a1b1ae3e57729d0026e1c61144f0a270804",
    "run --mode xor --n 16 --t 4 --seed 3 --trials 2 --random-inputs --format csv":
        "01588eb21d488706d5e74300d28172b93f07efa0b64045a434893e1593aea57c",
    "run --protocol multiparty --n 6 --t 3 --seed 1 --trials 2 --x-file x.txt --y-file y.txt":
        "1612aad92b7dcff2e6674862f287a172ad221d3d0c5e400078311430aac3aa77",
}
RUN_FILE_INPUTS = {"x.txt": "101101\n", "y.txt": "110100\n011011\n"}


@pytest.mark.parametrize("command", sorted(RUN_VARIANT_DIGESTS))
def test_run_variant_output_bytes_are_pinned(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in RUN_FILE_INPUTS.items():
        (tmp_path / name).write_text(text)
    assert main(command.split()) == 0
    assert stdout_digest(capsys) == RUN_VARIANT_DIGESTS[command]


# sha256 of each subcommand's stdout with the elapsed_s lines removed
SUBCOMMAND_DIGESTS = {
    # plus-probe at t <= 6 runs live statevector probes; at t = 7 its 127
    # rounds are drawn classically
    "attack --strategy plus-probe --n 8 --t 3 --seed 2 --random-inputs --trials 50":
        "20b5420b7607aa28d9eff59de6eb25c8d1b600f1a2a7b7eb2ddf0671900f16d7",
    "attack --strategy plus-probe --n 16 --t 7 --seed 2 --random-inputs --trials 20":
        "5a88940e8e35a43c1a8eaa818d60bdb6138b146bd77ee39389bc159259e0abfb",
    "attack --strategy blind-server-worst --n 16 --t 3 --seed 2 --random-inputs --trials 50":
        "c0297e01bc4fce6c12b88a7137ecabe749388e7ee28380c3a4ed4031510ce4d0",
    "attack --strategy biased-index --n 8 --t 2 --seed 2 --trials 30 --focus 3":
        "2bc9aa11d0c4c665d1f4a485c174eb8159ec7ffddaf857f668374ab7b39df716",
    "privacy --kind overlap --trials 200 --seed 2":
        "5e470080014d5c023641cab26f9993c3656db119e3acf5077c136ad685e16368",
    "privacy --kind recovery":
        "5397a56174a337c41f0fd059e3dc172b15765b39c5e41434d420794ccaeb7caf",
    "regression --n 4 --planes 3 --t 4 --seeds 2 --seed 2":
        "4a805794ea06ecbe5c02428284acf85a6c9ede46f90e97dbce2397b826c82276",
    "regression --n 4 --planes 2 --t 3 --seeds 2 --seed 2 --variant blind-client":
        "ded02274acae33cece1ef49aae3092f93b1d6e09f02700d184a41d6c9e7259bd",
    "ledger-check --max-n 4 --max-t 2 --m 3 --seed 2":
        "529e48096a2eac95df56d87643d656ae833d45705f190b93142ecbbf5d3dfaac",
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_DIGESTS))
def test_subcommand_output_bytes_are_pinned(command, capsys):
    assert main(command.split()) == 0
    assert stdout_digest(capsys) == SUBCOMMAND_DIGESTS[command]
