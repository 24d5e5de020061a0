"""End-to-end protocol runs: channel ledgers, ownership, transcripts,
blindness of the readout statistics, and estimator truth."""
import hashlib
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbc.oracles
import qbc.protocol
from qbc.counting import phase_estimation_distribution
from qbc.ledger import ChannelLedger, expected_ledger
from qbc.oracles import CorrelationMode, padded_table, random_bits
from qbc.protocol import (
    SERVER,
    OwnershipError,
    ProtocolSim,
    client_name,
    index_width_for,
    parity_fraction,
    run_blind_client,
    run_blind_server,
    run_multiparty,
    run_qbc_baseline,
    transcript_lines,
)
from qbc.statevector import DensityMatrix, GateError, trace_distance


def tv_distance(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def ledgers_equal(got: ChannelLedger, want: ChannelLedger) -> bool:
    return (
        got.quantum_qubits_sent == want.quantum_qubits_sent
        and got.classical_bits_sent == want.classical_bits_sent
        and got.oracle_calls == want.oracle_calls
        and got.grover_rounds == want.grover_rounds
    )


def all_pairs(num: int):
    for xi in range(1 << num):
        for yi in range(1 << num):
            x = [(xi >> k) & 1 for k in range(num)]
            y = [(yi >> k) & 1 for k in range(num)]
            yield x, y


def capture_hops(monkeypatch, on_hop):
    """Call on_hop(sim, dst, state) after each transfer of the index
    register and carrier, with the state as dst receives it."""
    held = []
    trip, transfer = ProtocolSim.trip, ProtocolSim.transfer

    def spy_trip(self, state, pad=None):
        held[:] = [state]
        trip(self, state, pad)

    def spy_transfer(self, src, dst):
        transfer(self, src, dst)
        on_hop(self, dst, held[0])

    monkeypatch.setattr(ProtocolSim, "trip", spy_trip)
    monkeypatch.setattr(ProtocolSim, "transfer", spy_transfer)


# -- predicate tables ----------------------------------------------------------


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("variant,fixed,per_round", [
    ("baseline", 2, 0),                 # x, y
    ("blind-server", 3, 0),             # x, y, g
    ("blind-server-per-round", 3, 1),   # x, y, g; a new g from round 2 on
    ("blind-client", 2, 2),             # x, y; r and h each round
    ("multiparty-padded", 5, 0),        # x, three ys, g
    ("multiparty-unpadded", 3, 0),      # x, two ys
])
def test_tables_built_once_per_vector_and_round(monkeypatch, variant, fixed, per_round, exact):
    # the oracles take tables, so a table rebuilt per gate shows up here
    real, built = qbc.oracles.padded_table, []

    def counting(bits, width):
        built.append(width)
        return real(bits, width)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qbc" and getattr(module, "padded_table", None) is real:
            monkeypatch.setattr(module, "padded_table", counting)
    rng = np.random.default_rng(31)
    x, y, *ys = (random_bits(6, rng) for _ in range(5))
    t = 3
    runs = {
        "baseline": lambda: run_qbc_baseline(x, y, t, rng=rng, return_distribution=exact),
        "blind-server": lambda: run_blind_server(x, y, t, rng=rng, return_distribution=exact),
        "blind-server-per-round": lambda: run_blind_server(
            x, y, t, rng=rng, pad_per_round=True, return_distribution=exact),
        "blind-client": lambda: run_blind_client(x, y, t, rng=rng, return_distribution=exact),
        "multiparty-padded": lambda: run_multiparty(x, ys, t, rng=rng, return_distribution=exact),
        "multiparty-unpadded": lambda: run_multiparty(
            x, ys[:2], t, rng=rng, pad_first_client=False, return_distribution=exact),
    }
    run = runs[variant]()
    rounds = run.ledger.grover_rounds
    assert rounds == (1 << t) - 1
    assert len(built) == fixed + per_round * (rounds - (variant == "blind-server-per-round"))
    assert set(built) == {3}


# -- basic runs -----------------------------------------------------------------


def test_baseline_exact_instance():
    # half the padded space marked: theta on the t-grid, deterministic
    rng = np.random.default_rng(0)
    run = run_qbc_baseline([1, 1, 0, 0], [1, 1, 1, 1], 4, rng=rng)
    assert run.truth == 0.5
    assert run.estimate == pytest.approx(0.5, abs=1e-12)
    assert run.result.j in (4, 12)
    assert run.abs_error < 1e-12


def test_baseline_xor_mode_truth():
    rng = np.random.default_rng(1)
    run = run_qbc_baseline([1, 0, 1, 0], [0, 0, 1, 1], 3, mode=CorrelationMode.XOR, rng=rng)
    assert run.truth == 0.5
    assert run.mode == "xor"
    assert run.estimate == pytest.approx(0.5, abs=1e-12)


def test_baseline_scales_for_non_power_of_two():
    # N=3, sum x_i y_i = 2: marked fraction on the padded space is 2/4
    rng = np.random.default_rng(2)
    run = run_qbc_baseline([1, 1, 0], [1, 1, 1], 3, rng=rng)
    assert run.index_width == 2
    assert run.truth == pytest.approx(2 / 3)
    assert run.estimate == pytest.approx(2 / 3, abs=1e-12)


def test_length_mismatch_rejected():
    with pytest.raises(GateError):
        run_qbc_baseline([1, 0], [1, 0, 1], 2, rng=np.random.default_rng(0))


def test_sampling_without_rng_rejected():
    with pytest.raises(GateError, match="rng"):
        run_qbc_baseline([1, 0], [1, 1], 2)


def test_distribution_mode_skips_sampling():
    run = run_qbc_baseline([1, 0], [1, 1], 3, return_distribution=True)
    assert run.result is None and run.estimate is None
    assert run.distribution.shape == (8,)
    assert abs(run.distribution.sum() - 1.0) < 1e-9


def test_same_seed_reproduces_run():
    a = run_qbc_baseline([1, 0, 1, 1], [0, 1, 1, 1], 5, rng=np.random.default_rng(33))
    b = run_qbc_baseline([1, 0, 1, 1], [0, 1, 1, 1], 5, rng=np.random.default_rng(33))
    assert a.result.j == b.result.j
    assert a.estimate == b.estimate


def test_round_hook_called_once_per_round():
    seen = []
    run_qbc_baseline(
        [1, 0], [1, 1], 3,
        return_distribution=True,
        round_hook=lambda r, state: seen.append(r),
    )
    assert seen == list(range(1, 8))


# -- ledgers ---------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_baseline_ledger_grid(n, t):
    rng = np.random.default_rng(n * 10 + t)
    num = 1 << n
    run = run_qbc_baseline(random_bits(num, rng), random_bits(num, rng), t, rng=rng)
    assert ledgers_equal(run.ledger, expected_ledger("baseline", n, t))
    assert run.ledger.quantum_qubits_sent == 2 * (n + 1) * ((1 << t) - 1)


@pytest.mark.parametrize("n,t", [(1, 2), (2, 3), (3, 2), (2, 4)])
def test_blind_server_ledger_grid(n, t):
    rng = np.random.default_rng(n + t)
    num = 1 << n
    run = run_blind_server(random_bits(num, rng), random_bits(num, rng), t, rng=rng)
    assert ledgers_equal(run.ledger, expected_ledger("blind-server", n, t))


@pytest.mark.parametrize("n,t", [(1, 2), (2, 3), (3, 2)])
def test_blind_client_ledger_grid(n, t):
    rng = np.random.default_rng(n + t)
    num = 1 << n
    run = run_blind_client(random_bits(num, rng), random_bits(num, rng), t, rng=rng)
    assert ledgers_equal(run.ledger, expected_ledger("blind-client", n, t))
    rounds = (1 << t) - 1
    assert run.ledger.quantum_qubits_sent == 4 * (n + 1) * rounds
    assert run.ledger.classical_bits_sent == 0


@pytest.mark.parametrize("m", [2, 3])
def test_multiparty_ledger(m):
    rng = np.random.default_rng(m)
    num, t = 8, 3
    n = index_width_for(num)
    ys = [random_bits(num, rng) for _ in range(m)]
    run = run_multiparty(random_bits(num, rng), ys, t, rng=rng)
    assert ledgers_equal(run.ledger, expected_ledger("multiparty", n, t, num_clients=m))
    assert run.ledger.quantum_qubits_sent == (m + 1) * (n + 1) * ((1 << t) - 1)
    assert run.ledger.oracle_calls["Uy"] == 2 * m * ((1 << t) - 1)


def test_blind_server_disclosure_adds_classical_bits():
    rng = np.random.default_rng(4)
    x, y = random_bits(8, rng), random_bits(8, rng)
    plain = run_blind_server(x, y, 2, rng=np.random.default_rng(5))
    told = run_blind_server(x, y, 2, rng=np.random.default_rng(5), disclose_pad_sum=True)
    assert told.ledger.classical_bits_sent == plain.ledger.classical_bits_sent + math.ceil(
        math.log2(9)
    )


def test_expected_ledger_validation():
    with pytest.raises(ValueError):
        expected_ledger("bogus", 2, 2)
    with pytest.raises(ValueError):
        expected_ledger("multiparty", 2, 2, num_clients=1)
    with pytest.raises(ValueError):
        expected_ledger("blind-server", 2, 2, disclose_pad_sum=True)  # needs num_values


# -- ownership and transcript ------------------------------------------------------


# a two-value baseline execution: the carried block, index qubit 0 and
# carrier 1, starts with the server; work qubit 2 stays with the client


def test_transfer_requires_current_owner():
    sim = ProtocolSim("baseline", [1, 0], [[1, 1]])
    sim.begin_round()
    with pytest.raises(OwnershipError):
        sim.transfer(client_name(1), SERVER)
    assert sim.holder == SERVER
    assert sim.ledger.quantum_qubits_sent == 0
    sim.transfer(SERVER, client_name(1))
    assert sim.holder == client_name(1)
    assert sim.ledger.quantum_qubits_sent == 2
    sim.transfer(client_name(1), SERVER)
    sim.end_round()
    # the refused transfer left no hop in the round's rows
    assert sim.transcript == [(1, SERVER, client_name(1), 2, 0),
                              (1, client_name(1), SERVER, 2, 0)]


def test_require_owner_names_the_holder():
    sim = ProtocolSim("baseline", [1, 0], [[1, 1]])
    sim.transfer(SERVER, client_name(1))
    with pytest.raises(OwnershipError, match="held by client1"):
        sim.require_owner(SERVER)


def test_end_round_requires_registers_back_home():
    sim = ProtocolSim("baseline", [1, 0], [[1, 1]])
    sim.begin_round()
    sim.transfer(SERVER, client_name(1))
    with pytest.raises(OwnershipError):
        sim.end_round()


def test_transcript_field_order_and_counts():
    rng = np.random.default_rng(8)
    t = 3
    run = run_qbc_baseline(random_bits(4, rng), random_bits(4, rng), t, rng=rng)
    lines = transcript_lines(run)
    assert lines[0] == "round,from,to,qubits,oracle_calls"
    rounds = (1 << t) - 1
    assert len(lines) == 1 + 2 * rounds  # two hops per round
    first = lines[1].split(",")
    assert first == ["1", "server", "client1", "3", "4"]
    back = lines[2].split(",")
    assert back == ["1", "client1", "server", "3", "4"]
    total_sent = sum(int(line.split(",")[3]) for line in lines[1:])
    assert total_sent == run.ledger.quantum_qubits_sent


@pytest.mark.parametrize("run_one,clients,trips", [
    (lambda x, ys, t, rng: run_qbc_baseline(x, ys[0], t, rng=rng), 1, 1),
    (lambda x, ys, t, rng: run_blind_server(x, ys[0], t, rng=rng), 1, 1),
    (lambda x, ys, t, rng: run_blind_client(x, ys[0], t, rng=rng), 1, 2),
    (lambda x, ys, t, rng: run_multiparty(x, ys[:2], t, rng=rng), 2, 1),
    (lambda x, ys, t, rng: run_multiparty(x, ys, t, rng=rng), 3, 1),
], ids=["baseline", "blind-server", "blind-client", "multiparty-m2", "multiparty-m3"])
def test_multiparty_transcript_chains_through_clients(run_one, clients, trips):
    # every round trip carries the index register and o1 from the server
    # through clients 1..m and back; blind-client makes two per round, and
    # its scratch qubit oa stays with the server, so every hop is n+1 qubits
    rng = np.random.default_rng(9)
    t, rounds = 2, 3
    run = run_one(random_bits(4, rng), [random_bits(4, rng) for _ in range(3)], t, rng)
    chain = [SERVER] + [client_name(k) for k in range(1, clients + 1)] + [SERVER]
    route = list(zip(chain, chain[1:])) * trips
    rows = [line.split(",") for line in transcript_lines(run)[1:]]
    assert [(int(r[0]), r[1], r[2]) for r in rows] == [
        (k, src, dst) for k in range(1, rounds + 1) for src, dst in route
    ]
    assert {int(r[3]) for r in rows} == {run.index_width + 1}
    calls = {}
    for r in rows:
        calls.setdefault(int(r[0]), set()).add(int(r[4]))
    assert all(len(c) == 1 for c in calls.values())  # one round total on every row
    per_round, rest = divmod(run.ledger.oracle_total(), rounds)  # every round makes the same calls
    assert rest == 0 and [c.pop() for c in calls.values()] == [per_round] * rounds


# -- blind-server ------------------------------------------------------------------


def test_blind_server_pad_respects_support_rule():
    rng = np.random.default_rng(10)
    for _ in range(10):
        x, y = random_bits(8, rng), random_bits(8, rng)
        run = run_blind_server(x, y, 2, rng=rng)
        assert not np.any(run.pads["g"] & y)


def test_blind_server_recovery_subtracts_pad_mean():
    rng = np.random.default_rng(11)
    x = [1, 1, 1, 1]
    y = [1, 1, 0, 0]
    g = [0, 0, 1, 1]
    run = run_blind_server(x, y, 4, rng=rng, pad_bits=g)
    # padded marked fraction (2+2)/4 = 1: deterministic j = 2^(t-1)
    assert run.estimate == pytest.approx(1.0, abs=1e-12)
    assert run.recovered_estimate == pytest.approx(0.5, abs=1e-12)
    assert run.truth == 0.5
    assert run.server_view_truth == 1.0


def test_blind_server_forced_pad_validation():
    rng = np.random.default_rng(12)
    with pytest.raises(GateError, match="length"):
        run_blind_server([1, 0], [1, 0], 2, rng=rng, pad_bits=[1])
    with pytest.raises(GateError, match="zero wherever"):
        run_blind_server([1, 0], [1, 0], 2, rng=rng, pad_bits=[1, 0])
    with pytest.raises(GateError, match="incompatible"):
        run_blind_server([1, 0], [0, 0], 2, rng=rng, pad_bits=[0, 1], pad_per_round=True)
    with pytest.raises(GateError, match="rng"):
        run_blind_server([1, 0], [1, 0], 2)


@pytest.mark.parametrize("num", [4, 5, 8])
def test_blind_server_returns_the_padded_product_phase_to_the_server(monkeypatch, num):
    # round 1's block as the server receives it back, with x still on o1:
    # sum_i (-1)^(x_i y_i XOR g_i) |i>|x_i>|0...> / sqrt(2^n), so the
    # server never holds the bare product phase; padding indices read +1
    returned = []

    def on_hop(sim, dst, state):
        if dst == SERVER and sim.round_index == 1:
            returned.append((sim, state.amps.copy()))

    capture_hops(monkeypatch, on_hop)
    rng = np.random.default_rng([26, num])
    for _ in range(3):
        x, y = random_bits(num, rng), random_bits(num, rng)
        for g in (np.zeros(num, np.uint8), 1 - y, random_bits(num, rng) & (1 - y)):
            returned.clear()
            run_blind_server(x, y, 1, pad_bits=g, return_distribution=True)
            ((sim, amps),) = returned
            size, below_o1 = 1 << sim.n, sim.block_qubits - sim.o1 - 1
            want = np.zeros_like(amps)
            for i in range(size):
                xi, phase = (int(x[i]), int((x[i] & y[i]) ^ g[i])) if i < num else (0, 0)
                want[((i << 1) | xi) << below_o1] = (-1) ** phase / math.sqrt(size)
            assert np.max(np.abs(amps - want)) < 1e-12, (x, y, g)


def test_blind_server_per_round_pads_are_recorded_per_round():
    rng = np.random.default_rng(13)
    t = 3
    run = run_blind_server([0, 0, 0, 0], [1, 0, 0, 1], t, rng=rng, pad_per_round=True)
    pads = run.pads["g"]
    assert len(pads) == (1 << t) - 1
    assert any(not np.array_equal(pads[0], p) for p in pads[1:])
    means = [float(np.sum(p)) / 4 for p in pads]
    assert run.recovered_estimate == pytest.approx(run.estimate - float(np.mean(means)))


# -- blindness of the readout ------------------------------------------------------


def test_blind_client_distribution_equals_baseline_exhaustive_n2():
    rng = np.random.default_rng(14)
    t = 3
    for x, y in all_pairs(2):
        base = run_qbc_baseline(x, y, t, return_distribution=True)
        blind = run_blind_client(x, y, t, rng=rng, return_distribution=True)
        assert tv_distance(base.distribution, blind.distribution) <= 1e-9, (x, y)


def test_blind_client_distribution_equals_baseline_random_n8():
    rng = np.random.default_rng(15)
    for _ in range(5):
        x, y = random_bits(8, rng), random_bits(8, rng)
        base = run_qbc_baseline(x, y, 4, return_distribution=True)
        blind = run_blind_client(x, y, 4, rng=rng, return_distribution=True)
        assert tv_distance(base.distribution, blind.distribution) <= 1e-9


def test_blind_client_forced_degenerate_draws_match_baseline():
    # all-Z bases with zero pads reduce to the plain pipeline
    for x, y in [([1, 0, 1, 1], [1, 1, 0, 1]), ([0, 0, 1, 0], [1, 0, 1, 0])]:
        base = run_qbc_baseline(x, y, 3, return_distribution=True)
        blind = run_blind_client(
            x, y, 3, force_basis=[0, 0, 0, 0], force_pad=[0, 0, 0, 0],
            return_distribution=True,
        )
        assert tv_distance(base.distribution, blind.distribution) <= 1e-12
        allx = run_blind_client(
            x, y, 3, force_basis=[1, 1, 1, 1], force_pad=[1, 0, 1, 1],
            return_distribution=True,
        )
        assert tv_distance(base.distribution, allx.distribution) <= 1e-9


def test_blind_server_distribution_matches_padded_instance():
    rng = np.random.default_rng(16)
    t = 4
    for _ in range(5):
        x, y = random_bits(8, rng), random_bits(8, rng)
        run = run_blind_server(x, y, t, rng=rng, return_distribution=True)
        g = run.pads["g"]
        padded = (x & y) ^ g
        base = run_qbc_baseline(np.ones(8, dtype=np.uint8), padded, t, return_distribution=True)
        assert tv_distance(run.distribution, base.distribution) <= 1e-9


def test_blind_server_zero_pad_matches_baseline_directly():
    x, y = [1, 0, 1, 1], [1, 1, 0, 1]
    base = run_qbc_baseline(x, y, 4, return_distribution=True)
    run = run_blind_server(x, y, 4, pad_bits=[0, 0, 0, 0], return_distribution=True)
    assert tv_distance(base.distribution, run.distribution) <= 1e-9


def test_blind_client_work_qubits_clear_after_every_round():
    # index register back to a bare superposition state is checked by the
    # counting layer; here the carrier and scratch stay strictly cold
    leaks = []

    def hook(r, state):
        leaks.append(max(state.probability(q, 1) for q in (3, 5)))  # o1, oa at n=3

    run_blind_client(
        [1, 0, 1, 1, 0, 1, 0, 0], [1, 1, 0, 1, 0, 0, 1, 1], 4,
        rng=np.random.default_rng(17), return_distribution=True, round_hook=hook,
    )
    assert len(leaks) == 15
    assert max(leaks) < 1e-12


def test_blind_client_applies_each_rounds_recorded_draws(monkeypatch):
    # round r's basis table goes to ux1 and its pad table to ux3, each
    # built from the bits run.pads records for round r
    applied = {"basis": [], "h": []}
    ux1, ux3 = qbc.protocol.apply_ux1, qbc.protocol.apply_ux3

    def spy_ux1(state, o1, x, basis, ledger=None):
        applied["basis"].append(basis.copy())
        return ux1(state, o1, x, basis, ledger)

    def spy_ux3(state, pad, ancilla, ledger=None):
        applied["h"].append(pad.copy())
        return ux3(state, pad, ancilla, ledger)

    monkeypatch.setattr(qbc.protocol, "apply_ux1", spy_ux1)
    monkeypatch.setattr(qbc.protocol, "apply_ux3", spy_ux3)
    rng = np.random.default_rng(27)
    num, t = 6, 3
    run = run_blind_client(random_bits(num, rng), random_bits(num, rng), t, rng=rng,
                           return_distribution=True)
    for key in ("basis", "h"):
        assert len(applied[key]) == len(run.pads[key]) == (1 << t) - 1
        for r, (table, bits) in enumerate(zip(applied[key], run.pads[key])):
            assert np.array_equal(table, padded_table(bits, run.index_width)), (key, r)


def test_blind_client_records_each_rounds_draws_as_bit_arrays():
    rng = np.random.default_rng(23)
    num, t = 8, 3
    run = run_blind_client(random_bits(num, rng), random_bits(num, rng), t, rng=rng,
                           return_distribution=True)
    for key in ("basis", "h"):
        draws = run.pads[key]
        assert len(draws) == (1 << t) - 1
        for bits in draws:
            assert isinstance(bits, np.ndarray)
            assert bits.dtype == np.uint8 and bits.shape == (num,)


FIXED_DRAW_NUM = 8
FIXED_DRAW_SLOTS = {
    "blind-server pad_bits": lambda x, y, bits, **kw: run_blind_server(x, y, 2, pad_bits=bits, **kw),
    "multiparty pad_bits": lambda x, y, bits, **kw: run_multiparty(x, [y, y], 2, pad_bits=bits, **kw),
    "blind-client force_basis": lambda x, y, bits, **kw: run_blind_client(
        x, y, 2, force_basis=bits, force_pad=np.zeros(FIXED_DRAW_NUM, np.uint8), **kw),
    "blind-client force_pad": lambda x, y, bits, **kw: run_blind_client(
        x, y, 2, force_basis=np.zeros(FIXED_DRAW_NUM, np.uint8), force_pad=bits, **kw),
}


@pytest.mark.parametrize("slot", list(FIXED_DRAW_SLOTS))
@pytest.mark.parametrize("length", [1, FIXED_DRAW_NUM - 1, FIXED_DRAW_NUM + 1])
def test_fixed_draws_of_the_wrong_length_fail_before_any_round(slot, length):
    rng = np.random.default_rng(24)
    x, y = random_bits(FIXED_DRAW_NUM, rng), random_bits(FIXED_DRAW_NUM, rng)
    rounds = []
    with pytest.raises(GateError, match=f"{slot.split()[-1]} length"):
        FIXED_DRAW_SLOTS[slot](x, y, np.zeros(length, np.uint8), return_distribution=True,
                               round_hook=lambda r, state: rounds.append(r))
    assert rounds == []


NO_RNG_NUM = 6
NO_RNG_RUNS = {
    "baseline": lambda x, y, **kw: run_qbc_baseline(x, y, 2, **kw),
    "blind-server": lambda x, y, **kw: run_blind_server(x, y, 2, **kw),
    "blind-server pad_bits": lambda x, y, **kw: run_blind_server(x, y, 2, pad_bits=1 - y, **kw),
    "blind-client": lambda x, y, **kw: run_blind_client(x, y, 2, **kw),
    "blind-client forced": lambda x, y, **kw: run_blind_client(
        x, y, 2, force_basis=y, force_pad=x, **kw),
    "multiparty": lambda x, y, **kw: run_multiparty(x, [y, x], 2, **kw),
    "multiparty pad_bits": lambda x, y, **kw: run_multiparty(x, [y, x], 2, pad_bits=y, **kw),
    "multiparty unpadded": lambda x, y, **kw: run_multiparty(
        x, [y, x], 2, pad_first_client=False, **kw),
}


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
@pytest.mark.parametrize("setup,draw", [
    ("baseline", None),
    ("blind-server", "pad_bits"),
    ("blind-server pad_bits", None),
    ("blind-client", "force_basis"),
    ("blind-client forced", None),
    ("multiparty", "pad_bits"),
    ("multiparty pad_bits", None),
    ("multiparty unpadded", None),
])
def test_runs_without_an_rng_fail_before_any_round_or_need_none(setup, draw, exact):
    # a run needs an rng for the first draw it is not given, and then for
    # the readout sample; an exact-law run with every draw fixed needs none
    rng = np.random.default_rng(25)
    x, y = random_bits(NO_RNG_NUM, rng), random_bits(NO_RNG_NUM, rng)
    rounds = []

    def go():
        return NO_RNG_RUNS[setup](x, y, return_distribution=exact,
                                  round_hook=lambda r, state: rounds.append(r))

    if draw is None and exact:
        assert go().distribution.sum() == pytest.approx(1.0)
        assert rounds == [1, 2, 3]
        return
    need = "sample the readout" if draw is None else f"draw {draw}"
    with pytest.raises(GateError, match=f"need an rng to {need}"):
        go()
    assert rounds == []


# -- multiparty ---------------------------------------------------------------------


def test_parity_fraction_matches_brute_force():
    rng = np.random.default_rng(18)
    x = random_bits(8, rng)
    ys = [random_bits(8, rng) for _ in range(3)]
    want = np.mean([(x[i] & ys[0][i]) ^ (x[i] & ys[1][i]) ^ (x[i] & ys[2][i]) for i in range(8)])
    assert parity_fraction(x, ys) == pytest.approx(float(want))


def test_multiparty_estimates_parity_mean():
    rng = np.random.default_rng(19)
    x = [1, 1, 1, 1]
    ys = [[1, 1, 0, 0], [0, 1, 0, 0]]  # parity = [1, 0, 0, 0]
    run = run_multiparty(x, ys, 4, rng=rng, pad_first_client=False)
    assert run.truth == 0.25
    dist = run_multiparty(x, ys, 4, pad_first_client=False, return_distribution=True).distribution
    # theta for fraction 1/4 is on the t=4 grid within its mirror pair
    top = np.argsort(dist)[-2:]
    est = math.sin(math.pi * max(top) / 16) ** 2
    assert est == pytest.approx(0.25, abs=0.06)


def test_multiparty_pad_shifts_server_view_only():
    rng = np.random.default_rng(20)
    x = [1, 1, 1, 1]
    ys = [[1, 0, 0, 0], [0, 0, 0, 1]]
    g = [0, 1, 1, 0]
    run = run_multiparty(x, ys, 3, rng=rng, pad_bits=g)
    assert run.truth == 0.5
    assert run.server_view_truth == 1.0  # parity ^ g = all ones
    assert run.recovered_estimate is None
    assert run.estimate == pytest.approx(1.0, abs=1e-12)


def test_multiparty_client2_view_does_not_depend_on_client1_bits(monkeypatch):
    # m=3, client 1 pads. Client 2's view is the index register and o1 as
    # it receives them in round 1; averaged over every pad g it is the
    # same for two y_1 whose products with x differ.
    x, y2, y3 = [1, 1, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1]
    views = []

    def on_hop(sim, dst, state):
        if dst == client_name(2):
            views.append(state.reduced_density(list(range(sim.o1 + 1))).mat)

    capture_hops(monkeypatch, on_hop)

    def view(y1, pads) -> DensityMatrix:
        views.clear()
        for g in pads:
            run_multiparty(x, [y1, y2, y3], 1, pad_bits=g, return_distribution=True)
        assert len(views) == len(pads)  # one round each
        return DensityMatrix(np.mean(views, axis=0))

    every_g = [list(g) for g in itertools.product((0, 1), repeat=len(x))]
    y1a, y1b = [1, 0, 0, 1], [0, 1, 1, 1]
    assert trace_distance(view(y1a, every_g), view(y1b, every_g)) < 1e-12
    # a single pad hides nothing: the two views are orthogonal pure states
    assert trace_distance(view(y1a, every_g[:1]), view(y1b, every_g[:1])) == pytest.approx(1.0)


def test_multiparty_validation():
    rng = np.random.default_rng(21)
    with pytest.raises(GateError, match="two clients"):
        run_multiparty([1, 0], [[1, 0]], 2, rng=rng)
    with pytest.raises(GateError, match="length"):
        run_multiparty([1, 0], [[1, 0], [1]], 2, rng=rng)
    with pytest.raises(GateError, match="rng"):
        run_multiparty([1, 0], [[1, 0], [0, 1]], 2)


def test_multiparty_unpadded_run_reports_single_truth():
    rng = np.random.default_rng(22)
    run = run_multiparty([1, 0, 1, 0], [[1, 1, 0, 0], [1, 0, 1, 0]], 2,
                         rng=rng, pad_first_client=False)
    assert run.server_view_truth == run.truth
    assert run.pads == {}


def test_multiparty_rejects_pad_bits_without_a_padding_client():
    rounds = []
    with pytest.raises(GateError, match="pad_bits.*pad_first_client"):
        run_multiparty([1, 0, 1, 1], [[1, 1, 0, 1], [0, 1, 1, 1]], 2, pad_first_client=False,
                       pad_bits=[1, 0, 0, 1], return_distribution=True,
                       round_hook=lambda r, state: rounds.append(r))
    assert rounds == []


# -- pinned run artefacts --------------------------------------------------------------

# sha256 of each variant's sampled run on seeded inputs: its ledger,
# transcript lines, pads, readout outcome j and the rng state after the
# run, so a refactor of the driver that moves any of them shows here
ARTEFACT_DIGESTS = {
    ("baseline", 5, 3): "472d6a3f0e73867c44bba7bec2887575df3914e44c90b6c0381ed83cad57c96f",
    ("baseline", 8, 4): "345096410c6318586ef00c9c7c76463b9cdeab2e45b337153246884f3304be6c",
    ("baseline", 16, 3): "5d82b5598ce7bebe733b409f5f34c6fb6ef9150083ea41ddf0429c54be3bea41",
    ("blind-server", 5, 3): "4d3774cf0a73570bfa1a46cbe948532fbdd81e4bfca9826b12539f5a3c7b2000",
    ("blind-server", 8, 4): "222d3410641fc9274de2afa34b501859ad65c290d4e25f98120ed4a995091df0",
    ("blind-server", 16, 3): "05e6b578125e952e940e687e45a2227d52d62a5481e922ea88e1278bcfbf4974",
    ("blind-client", 5, 3): "24f384a877a5106f0a363eeeccde24acacfca98197b55104e48db7fc85140abe",
    ("blind-client", 8, 4): "b320008609978ef64f6609bc77f0990cfd5cd53d33e8c12827c521e9789a8f03",
    ("blind-client", 16, 3): "9d1a58f1ed99ae7d632558df75f3455409f21b9f8da21eac82ea54bad42e6cc0",
    ("multiparty", 5, 3): "c8555e616673a6180d3f44c2d302d543c27d1f6df168465589bf6f53108ff3e6",
    ("multiparty", 8, 4): "e5b1998a7d6a1fd5f978595c645415a0c3978c6be8ab13c9394d794af392ac6f",
    ("multiparty", 16, 3): "df03fd3b062dc7ceec18eb615c40ecef77aab7e9be7afb8bcfe7e828d2306f51",
}


@pytest.mark.parametrize("variant,num,t", sorted(ARTEFACT_DIGESTS))
def test_run_artefacts_are_pinned(variant, num, t):
    rng = np.random.default_rng([num, t])
    x, y, y2 = (random_bits(num, rng) for _ in range(3))
    if variant == "baseline":
        run = run_qbc_baseline(x, y, t, rng=rng)
    elif variant == "blind-server":
        run = run_blind_server(x, y, t, rng=rng)
    elif variant == "blind-client":
        run = run_blind_client(x, y, t, rng=rng)
    else:
        run = run_multiparty(x, [y, y2], t, rng=rng)
    payload = {
        "ledger": run.ledger.as_dict(),
        "transcript": transcript_lines(run),
        "pads": {k: np.asarray(v).tolist() for k, v in run.pads.items()},
        "j": run.result.j,
        "rng": rng.bit_generator.state,
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == ARTEFACT_DIGESTS[(variant, num, t)]


# -- property checks -----------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_ledger_closed_forms_property(n, t, seed):
    rng = np.random.default_rng(seed)
    num = 1 << n
    run = run_qbc_baseline(random_bits(num, rng), random_bits(num, rng), t, rng=rng)
    rounds = (1 << t) - 1
    assert run.ledger.quantum_qubits_sent == 2 * (n + 1) * rounds
    assert run.ledger.oracle_calls == {"Ux": 2 * rounds, "Uy": 2 * rounds}
    assert run.ledger.classical_bits_sent == t
    assert run.ledger.grover_rounds == rounds


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_blindness_property_small_instances(seed):
    rng = np.random.default_rng(seed)
    num = int(rng.integers(2, 5))
    x, y = random_bits(num, rng), random_bits(num, rng)
    base = run_qbc_baseline(x, y, 3, return_distribution=True)
    blind = run_blind_client(x, y, 3, rng=rng, return_distribution=True)
    assert tv_distance(base.distribution, blind.distribution) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["baseline", "blind-server", "blind-client", "multiparty"]),
       st.integers(1, 16), st.integers(1, 5), st.booleans(), st.integers(0, 2**31 - 1))
def test_every_variant_law_is_the_counting_law_of_its_joint_bits(variant, num, t, forced, seed):
    # an independent check of every variant's exact law: the analytic
    # phase-estimation law of the count the server's readout estimates
    rng = np.random.default_rng(seed)
    x, y = random_bits(num, rng), random_bits(num, rng)
    m, padded = 1, True
    if variant == "baseline":
        run = run_qbc_baseline(x, y, t, return_distribution=True)
        count = int(np.sum(x & y))
    elif variant == "blind-server":
        g = random_bits(num, rng) & (1 - y) if forced else None
        run = run_blind_server(x, y, t, rng=rng, pad_bits=g, return_distribution=True)
        count = int(np.sum(x & y)) + int(np.sum(run.pads["g"]))
        if forced:
            assert np.array_equal(run.pads["g"], g)
    elif variant == "blind-client":
        r, h = (random_bits(num, rng), random_bits(num, rng)) if forced else (None, None)
        run = run_blind_client(x, y, t, rng=rng, force_basis=r, force_pad=h,
                               return_distribution=True)
        count = int(np.sum(x & y))
    else:
        m = int(rng.integers(2, 4))
        ys = [random_bits(num, rng) for _ in range(m)]
        padded = forced or bool(rng.integers(0, 2))
        g = random_bits(num, rng) if forced else None
        run = run_multiparty(x, ys, t, rng=rng, pad_first_client=padded, pad_bits=g,
                             return_distribution=True)
        parity = np.bitwise_xor.reduce([x & yk for yk in ys])
        count = int(np.sum(parity ^ run.pads["g"])) if padded else int(np.sum(parity))
    n = index_width_for(num)
    law = phase_estimation_distribution(count, 1 << n, t)
    assert tv_distance(run.distribution, law) <= 1e-12
    want = expected_ledger(variant, n, t, num_clients=m, pad_first_client=padded)
    if variant in ("baseline", "blind-server"):
        want.classical_bits_sent -= t  # an exact-law run measures nothing
    assert ledgers_equal(run.ledger, want)


@pytest.mark.parametrize("variant", [
    "baseline", "blind-server", "blind-client", "multiparty-2", "multiparty-2-padded",
    "multiparty-3", "multiparty-3-padded",
])
def test_large_index_law_keeps_its_digits(variant):
    # the diffusion mean over 2**12 index branches must not lose digits
    # to its summation order, in every variant
    num, t = 4096, 8
    rng = np.random.default_rng(4096)
    x, y = random_bits(num, rng), random_bits(num, rng)
    if variant == "baseline":
        run = run_qbc_baseline(x, y, t, return_distribution=True)
        count = int(np.sum(x & y))
    elif variant == "blind-server":
        run = run_blind_server(x, y, t, rng=rng, return_distribution=True)
        count = int(np.sum(x & y)) + int(np.sum(run.pads["g"]))
    elif variant == "blind-client":
        run = run_blind_client(x, y, t, rng=rng, return_distribution=True)
        count = int(np.sum(x & y))
    else:
        m, padded = int(variant.split("-")[1]), variant.endswith("padded")
        ys = [y] + [random_bits(num, rng) for _ in range(m - 1)]
        run = run_multiparty(x, ys, t, rng=rng, pad_first_client=padded,
                             return_distribution=True)
        parity = np.bitwise_xor.reduce([x & yk for yk in ys])
        count = int(np.sum(parity ^ run.pads["g"])) if padded else int(np.sum(parity))
    law = phase_estimation_distribution(count, num, t)
    assert tv_distance(run.distribution, law) <= 5e-14
