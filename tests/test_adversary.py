"""Attack strategies and privacy quantities.

The closed forms under test (recovery probability, overlap distribution,
occupancy) are checked against independent brute-force enumerations
written below, not against the library's own formulas.
"""
import hashlib
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbc.adversary import (
    MC_BLOCK_VALUES,
    RedundancyRule,
    attack_biased_index,
    attack_blind_server_worst_case,
    attack_plus_probe,
    biased_index_state,
    blind_client_carrier_state,
    blind_client_distinguishability,
    holevo_quantity,
    occupancy_pmf,
    overlap_mc_pmf,
    overlap_pmf,
    pr_exact_recovery,
    pr_hamming_overlap,
    redundant_decode,
    redundant_encode,
    uniformity_accept_probability,
    verify_index_uniformity,
)
from qbc.oracles import as_bits, random_bits
from qbc.statevector import GateError, StateVector


# -- enumeration oracles (independent of the library's closed forms) -----------


def enumerate_recovery_probability(x, count: int) -> Fraction:
    """Uniform-guess success over every y consistent with the disclosed
    overlap count: 1 / #candidates, counted by full enumeration."""
    x = as_bits(x)
    num = len(x)
    candidates = 0
    for bits in itertools.product((0, 1), repeat=num):
        if sum(a & b for a, b in zip(x, bits)) == count:
            candidates += 1
    return Fraction(1, candidates)


def enumerate_overlap_pmf(num: int, d_y: int, k: int) -> list[Fraction]:
    """Distribution of |S ∩ supp(y)| over all k-subsets S, enumerated."""
    support = set(range(d_y))
    total = 0
    hist = [0] * (d_y + 1)
    for subset in itertools.combinations(range(num), k):
        hist[len(support.intersection(subset))] += 1
        total += 1
    return [Fraction(h, total) for h in hist]


def enumerate_occupancy_pmf(rounds: int, num: int) -> list[Fraction]:
    """Distinct-cells-hit distribution over all num^rounds draw sequences."""
    hist = [0] * (num + 1)
    for seq in itertools.product(range(num), repeat=rounds):
        hist[len(set(seq))] += 1
    total = num**rounds
    return [Fraction(h, total) for h in hist]


# -- plus-probe ----------------------------------------------------------------


def test_probe_learns_one_true_bit_per_round():
    rng = np.random.default_rng(100)
    y = [1, 0, 1, 1, 0, 0, 1, 0]
    report = attack_plus_probe(y, 3, rng, quantum=True)
    assert report.strategy == "plus-probe"
    assert report.hamming_to_truth == 0
    assert report.known_positions == sum(c != "?" for c in report.guessed)
    for i, c in enumerate(report.guessed):
        if c != "?":
            assert int(c) == y[i]


@pytest.mark.parametrize("y", [[0, 0], [1, 0], [0, 1], [1, 1], [1, 0, 1, 1]])
def test_probe_round_outcome_deterministic_given_index(y):
    # the carrier X-measurement must never disagree with y at the read index
    rng = np.random.default_rng(101)
    from qbc.adversary import _probe_round_quantum

    for _ in range(40):
        j, bit = _probe_round_quantum(y, rng)
        assert bit == y[j]


# sha256 of five live probes per (N, seed), each (j, bit), and the next
# rng draw after them: the probe's outcomes and its use of the rng
PROBE_DIGEST = "f3cb9af860bafaeb2670effe0760670ba350943c15ac8623e763ed3eae5ac81f"


def test_live_probe_outcomes_and_rng_stream_are_pinned():
    from qbc.adversary import _probe_round_quantum

    rows = []
    for num in (2, 3, 5, 8, 16, 33):
        for seed in range(20):
            rng = np.random.default_rng([num, seed])
            y = random_bits(num, rng)
            probes = [list(_probe_round_quantum(y, rng)) for _ in range(5)]
            rows.append([num, seed, probes, int(rng.integers(1 << 62))])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == PROBE_DIGEST


def test_live_probe_runs_the_client_block_through_the_round_trip(monkeypatch):
    # each live probe is one `ProtocolSim.trip` of a baseline run whose x
    # is all zero, so it gets the trip's ownership checks and ledger
    import qbc.protocol

    sims = []
    real = qbc.protocol.ProtocolSim.trip

    def trip(self, state, pad=None):
        sims.append((self, state.num_qubits))
        return real(self, state, pad)

    monkeypatch.setattr(qbc.protocol.ProtocolSim, "trip", trip)
    attack_plus_probe([1, 0, 1, 1, 0], 2, np.random.default_rng(5), quantum=True)
    assert len(sims) == 3
    for sim, width in sims:
        assert width == sim.block_qubits
        assert sim.variant == "baseline" and not sim.x_table.any()
        assert sim.ledger.oracle_calls == {"Uy": 2}
        assert sim.ledger.quantum_qubits_sent == 2 * (3 + 1)


def test_probe_full_budget_recovers_everything_eventually():
    rng = np.random.default_rng(102)
    y = [1, 0, 1, 1]
    report = attack_plus_probe(y, 6, rng)  # 63 rounds over 4 cells
    assert report.known_positions == 4
    assert report.guessed == "1011"
    assert report.hamming_to_truth == 0


def test_probe_classical_path_matches_quantum_statistics():
    y = [1, 1, 0, 0]
    q = attack_plus_probe(y, 3, np.random.default_rng(103), quantum=True)
    c = attack_plus_probe(y, 3, np.random.default_rng(103), quantum=False)
    assert q.distance_pmf == c.distance_pmf
    assert q.hamming_to_truth == 0 and c.hamming_to_truth == 0


def test_probe_fill_unknown_completes_the_guess():
    rng = np.random.default_rng(104)
    report = attack_plus_probe([1, 0, 1, 0, 1, 0, 1, 0], 1, rng, fill_unknown=True)
    assert "?" not in report.guessed
    assert len(report.guessed) == 8


def test_occupancy_pmf_matches_enumeration():
    got = occupancy_pmf(3, 4)
    want = enumerate_occupancy_pmf(3, 4)
    assert got.shape == (5,)
    for g, w in zip(got, want):
        assert g == pytest.approx(float(w), abs=1e-12)


def test_occupancy_pmf_edge_cases():
    assert occupancy_pmf(0, 5)[0] == 1.0
    one = occupancy_pmf(1, 5)
    assert one[1] == 1.0
    with pytest.raises(GateError):
        occupancy_pmf(2, 0)


def test_probe_learned_set_mc_within_bands():
    rng = np.random.default_rng(105)
    trials = 100_000
    report = attack_plus_probe([1, 0, 1, 1, 0, 0, 1, 0], 3, rng, trials=trials)
    assert report.trials == trials
    for d, p in report.distance_pmf.items():
        mc = report.mc_pmf.get(d, 0.0)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(mc - p) <= 3 * sigma + 1e-12, (d, p, mc)


# -- index uniformity check ------------------------------------------------------


def test_uniform_preparation_always_accepted():
    rng = np.random.default_rng(106)
    sv = StateVector(4)
    for q in range(3):
        sv.h(q)
    assert uniformity_accept_probability(sv, range(3)) == pytest.approx(1.0, abs=1e-12)
    assert all(verify_index_uniformity(sv, range(3), rng) for _ in range(50))


def test_biased_preparation_reject_rate():
    state = biased_index_state(2, 0, 0.9)
    accept = uniformity_accept_probability(state, range(2))
    amp = (math.sqrt(0.9) + math.sqrt(3 * 0.1)) / 2.0
    assert accept == pytest.approx(amp * amp, abs=1e-12)
    assert 1.0 - accept == pytest.approx(0.4402, abs=5e-5)


def test_attack_biased_index_report():
    rng = np.random.default_rng(107)
    payload = attack_biased_index(2, 0, 0.9, rng, trials=4000)
    assert payload["strategy"] == "biased-index"
    assert payload["uniform_prob"] == 0.25
    assert payload["reject_probability"] == pytest.approx(0.44019237886466844, abs=1e-12)
    p = payload["reject_probability"]
    sigma = math.sqrt(p * (1 - p) / 4000)
    assert abs(payload["mc_reject_rate"] - p) <= 4 * sigma


def test_fully_focused_state_rejects_almost_surely():
    state = biased_index_state(3, 5, 1.0)
    # |5> has overlap 1/8 with |+++>
    assert uniformity_accept_probability(state, range(3)) == pytest.approx(1 / 8, abs=1e-12)


def test_biased_state_validation():
    with pytest.raises(GateError):
        biased_index_state(2, 4, 0.5)
    with pytest.raises(GateError):
        biased_index_state(2, 0, 1.5)


# -- Holevo bound ------------------------------------------------------------------


@pytest.mark.parametrize("num", [2, 4, 8])
def test_holevo_equals_log2_n(num):
    rng = np.random.default_rng(num)
    y = random_bits(num, rng)
    assert holevo_quantity(y) == pytest.approx(math.log2(num), abs=1e-9)


def test_holevo_insensitive_to_y():
    for y in ([0, 0, 0, 0], [1, 1, 1, 1], [1, 0, 1, 0]):
        assert holevo_quantity(y) == pytest.approx(2.0, abs=1e-9)


def test_holevo_requires_power_of_two():
    with pytest.raises(GateError):
        holevo_quantity([1, 0, 1])
    with pytest.raises(GateError):
        holevo_quantity([1])


# -- recovery probability -----------------------------------------------------------


@pytest.mark.parametrize(
    "num,d_x,count",
    [(4, 2, 1), (6, 3, 2), (8, 4, 0), (8, 5, 5), (10, 4, 2), (10, 10, 3)],
)
def test_recovery_model_matches_enumeration(num, d_x, count):
    x = [1] * d_x + [0] * (num - d_x)
    printed, model = pr_exact_recovery(num, d_x, count)
    oracle = enumerate_recovery_probability(x, count)
    assert model == pytest.approx(float(oracle), abs=1e-15)
    assert 0.0 <= model <= 1.0


def test_recovery_printed_form_exceeds_one():
    printed, model = pr_exact_recovery(2, 2, 1)
    assert printed == 2.0
    assert model == 0.5
    assert model == pytest.approx(float(enumerate_recovery_probability([1, 1], 1)))
    # a denominator too large for a float still gives the correctly rounded value
    assert pr_exact_recovery(1030, 10, 3)[1] == 1 / (120 * 2**1020) > 0.0


def test_recovery_validation():
    with pytest.raises(GateError):
        pr_exact_recovery(4, 2, 3)
    with pytest.raises(GateError):
        pr_exact_recovery(4, 5, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_recovery_model_in_unit_interval(num, data):
    d_x = data.draw(st.integers(0, num))
    count = data.draw(st.integers(0, d_x))
    printed, model = pr_exact_recovery(num, d_x, count)
    assert 0.0 < model <= 1.0


# -- overlap distribution -------------------------------------------------------------


@pytest.mark.parametrize("num,d_y,t", [(4, 2, 2), (6, 3, 2), (8, 4, 2), (8, 2, 3)])
def test_overlap_pmf_matches_enumeration(num, d_y, t):
    k = min((1 << t) - 1, d_y)
    got = overlap_pmf(num, d_y, t)
    want = enumerate_overlap_pmf(num, d_y, k)
    assert got.shape == (d_y + 1,)
    for g, w in zip(got, want):
        assert g == pytest.approx(float(w), abs=1e-12)


def test_overlap_spot_value_one_sixth():
    formula, _ = pr_hamming_overlap(4, 2, 2, 2)
    assert formula == pytest.approx(1 / 6, abs=1e-12)


def test_overlap_pmf_normalization_and_mc():
    rng = np.random.default_rng(108)
    trials = 100_000
    for num, d_y, t in [(8, 4, 2), (16, 8, 3)]:
        pmf = overlap_pmf(num, d_y, t)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        mc = overlap_mc_pmf(num, d_y, t, rng, trials)
        for d0 in range(d_y + 1):
            sigma = math.sqrt(max(pmf[d0] * (1 - pmf[d0]), 1e-12) / trials)
            assert abs(mc[d0] - pmf[d0]) <= 4 * sigma, (num, d_y, t, d0)


def test_overlap_validation():
    with pytest.raises(GateError):
        overlap_pmf(4, 5, 2)
    with pytest.raises(GateError):
        pr_hamming_overlap(4, 2, 2, 3)


def test_pr_hamming_overlap_without_rng_has_nan_mc():
    formula, mc = pr_hamming_overlap(8, 4, 2, 1)
    assert math.isnan(mc)
    assert 0 <= formula <= 1


# -- worst-case attack on the server-blinded variant -----------------------------------


def test_worst_case_certifies_only_true_zeros():
    rng = np.random.default_rng(109)
    for _ in range(20):
        y = random_bits(8, rng)
        report = attack_blind_server_worst_case(y, 3, rng)
        assert report.hamming_to_truth == 0
        for i, c in enumerate(report.guessed):
            if c != "?":
                assert c == "0" and y[i] == 0


def test_worst_case_distance_pmf_is_overlap_law():
    rng = np.random.default_rng(110)
    y = [1, 1, 1, 1, 0, 0, 0, 0]
    report = attack_blind_server_worst_case(y, 2, rng, trials=50_000)
    pmf = overlap_pmf(8, 4, 2)
    for d, p in report.distance_pmf.items():
        assert p == pytest.approx(pmf[d], abs=1e-12)
        mc = report.mc_pmf.get(d, 0.0)
        sigma = math.sqrt(p * (1 - p) / 50_000)
        assert abs(mc - p) <= 4 * sigma


def test_privacy_report_as_dict_shape():
    rng = np.random.default_rng(111)
    payload = attack_plus_probe([1, 0, 1, 0], 2, rng, trials=100).as_dict()
    assert set(payload) == {
        "strategy", "guessed", "hamming_to_truth", "known_positions",
        "distance_pmf", "mc_pmf", "trials",
    }
    assert all(isinstance(k, str) for k in payload["distance_pmf"])
    assert list(payload["distance_pmf"]) == sorted(payload["distance_pmf"], key=int)


# -- carrier distinguishability ----------------------------------------------------------


def test_carrier_states_and_distinguishability():
    rho0 = blind_client_carrier_state(0)
    rho1 = blind_client_carrier_state(1)
    # mixture of |x><x| and H|x><x|H
    assert rho0.mat[0, 0] == pytest.approx(0.75)
    assert rho1.mat[1, 1] == pytest.approx(0.75)
    report = blind_client_distinguishability()
    assert report["trace_distance"] == pytest.approx(1 / math.sqrt(2), abs=1e-10)
    assert report["helstrom_success"] == pytest.approx(0.8535533905932737, abs=1e-12)
    with pytest.raises(GateError):
        blind_client_carrier_state(2)


# -- redundant encoding --------------------------------------------------------------


@pytest.mark.parametrize("copies", [2, 3, 4])
@pytest.mark.parametrize("rule", [RedundancyRule.HIDE_AMONG_ZEROS, RedundancyRule.HIDE_AMONG_ONES])
def test_redundant_round_trip_exact(copies, rule):
    rng = np.random.default_rng(112)
    for _ in range(10):
        x, y = random_bits(6, rng), random_bits(6, rng)
        x_wide, y_wide, enc = redundant_encode(x, y, copies, rule, rng)
        assert enc.copies == copies and enc.rule is rule
        raw = Fraction(int(np.sum(x_wide & y_wide)), 6 * copies)
        decoded = redundant_decode(raw, copies, rule, sum_x=int(np.sum(x)), num_values=6)
        assert decoded == Fraction(int(np.sum(np.asarray(x) & np.asarray(y))), 6)


def test_redundant_encode_hides_exactly_one_slot():
    rng = np.random.default_rng(113)
    x, y = [1, 0, 1], [1, 1, 0]
    x_wide, y_wide, enc = redundant_encode(x, y, 3, RedundancyRule.HIDE_AMONG_ZEROS, rng)
    assert x_wide.tolist() == [1, 1, 1, 0, 0, 0, 1, 1, 1]
    for i in range(3):
        block = y_wide[3 * i : 3 * (i + 1)]
        assert block.sum() == y[i]
        if y[i]:
            assert block[enc.slots[i]] == 1


def test_redundant_ones_rule_fills_off_slots():
    rng = np.random.default_rng(114)
    _, y_wide, enc = redundant_encode([1, 1], [0, 1], 2, RedundancyRule.HIDE_AMONG_ONES, rng)
    for i, yi in enumerate((0, 1)):
        block = y_wide[2 * i : 2 * (i + 1)]
        assert block[enc.slots[i]] == yi
        assert block[1 - enc.slots[i]] == 1


def test_redundant_literal_fill_is_not_decodable_blind():
    # the documented variant scales the fill by y_i, collapsing to the
    # zeros rule; decoding it with the ones rule then misreports the mean
    rng = np.random.default_rng(115)
    x, y = [1, 1, 1, 1], [1, 0, 1, 0]
    x_wide, y_wide, _ = redundant_encode(
        x, y, 2, RedundancyRule.HIDE_AMONG_ONES, rng, literal_zero_fill=True
    )
    raw = Fraction(int(np.sum(x_wide & y_wide)), 8)
    decoded = redundant_decode(raw, 2, RedundancyRule.HIDE_AMONG_ONES, sum_x=4, num_values=4)
    assert decoded != Fraction(1, 2)


def test_redundant_decode_validation():
    with pytest.raises(GateError, match="sum_x"):
        redundant_decode(0.5, 2, RedundancyRule.HIDE_AMONG_ONES)
    with pytest.raises(GateError, match="outside"):
        redundant_decode(0.9, 3, RedundancyRule.HIDE_AMONG_ZEROS)
    with pytest.raises(GateError):
        redundant_encode([1, 0], [1], 2, RedundancyRule.HIDE_AMONG_ZEROS,
                         np.random.default_rng(0))
    with pytest.raises(GateError):
        redundant_encode([1], [1], 1, RedundancyRule.HIDE_AMONG_ZEROS,
                         np.random.default_rng(0))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.integers(0, 1), min_size=2, max_size=6),
    st.integers(0, 2**31 - 1),
)
def test_redundant_round_trip_property(copies, y, seed):
    rng = np.random.default_rng(seed)
    num = len(y)
    x = random_bits(num, rng)
    x_wide, y_wide, _ = redundant_encode(x, y, copies, RedundancyRule.HIDE_AMONG_ZEROS, rng)
    raw = Fraction(int(np.sum(x_wide & y_wide)), num * copies)
    decoded = redundant_decode(raw, copies, RedundancyRule.HIDE_AMONG_ZEROS)
    assert decoded == Fraction(int(np.sum(np.asarray(x) & np.asarray(y, dtype=np.uint8))), num)


@pytest.mark.parametrize("num", [3, 5, 6])
def test_probe_learned_set_counts_only_data_cells(num):
    # the probe draws over the padded span 2**n; cells at or past N hold
    # no data, so they never add a known position
    size, rounds, trials = 1 << (num - 1).bit_length(), 4, 40_000
    hist = [0] * (num + 1)
    for seq in itertools.product(range(size), repeat=rounds):
        hist[len({j for j in seq if j < num})] += 1
    want = {d: h / size**rounds for d, h in enumerate(hist) if h}
    report = attack_plus_probe(([1, 0] * num)[:num], 3, np.random.default_rng(106), rounds=rounds,
                               quantum=False, trials=trials)
    assert report.distance_pmf.keys() == want.keys()
    for d, p in want.items():
        assert report.distance_pmf[d] == pytest.approx(p, abs=1e-12)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(report.mc_pmf.get(d, 0.0) - p) <= 3 * sigma + 1e-12, (d, p)
    assert report.known_positions <= num


@pytest.mark.parametrize("call", [
    lambda rng: attack_plus_probe([1, 0, 1], 2, rng, trials=-1),
    lambda rng: attack_blind_server_worst_case([1, 0, 1], 2, rng, trials=-1),
    lambda rng: attack_biased_index(2, 1, 0.5, rng, trials=0),
    lambda rng: overlap_mc_pmf(8, 3, 2, rng, trials=0),
    lambda rng: pr_hamming_overlap(8, 3, 2, 1, rng, trials=-5),
], ids=["plus-probe", "blind-server-worst", "biased-index", "overlap-mc", "hamming-overlap"])
def test_monte_carlo_trial_counts_are_checked(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GateError, match="trials"):
            call(np.random.default_rng(107))


# -- Monte Carlo in bounded blocks ---------------------------------------------


def test_blocked_monte_carlo_matches_one_shot_draws():
    # the library draws in row blocks; a single (trials, cols) draw written
    # here must give the same pmfs and leave the rng in the same state
    y = np.array([1, 0, 1, 1, 0, 0, 1, 0])
    t, rounds = 3, 7
    rows = MC_BLOCK_VALUES // rounds
    trials = 2 * rows + 3
    assert trials % rows != 0
    rng = np.random.default_rng(41)
    report = attack_plus_probe(y, t, rng, quantum=False, trials=trials)
    ref = np.random.default_rng(41)
    for _ in range(rounds):
        ref.integers(0, 8)  # the showcase attack's classical rounds
    draws = np.sort(ref.integers(0, 8, size=(trials, rounds)), axis=1)
    counts = (np.diff(draws, axis=1) != 0).sum(axis=1) + 1
    pmf = np.bincount(counts, minlength=9) / trials
    assert report.mc_pmf == {d: float(p) for d, p in enumerate(pmf) if p > 0}
    assert rng.random() == ref.random()

    num, d_y = 32, 11
    rows = MC_BLOCK_VALUES // num
    trials = 2 * rows + 5
    assert trials % rows != 0
    rng = np.random.default_rng(42)
    mc = overlap_mc_pmf(num, d_y, 3, rng, trials)
    ref = np.random.default_rng(42)
    picks = np.argpartition(ref.random((trials, num)), 6, axis=1)[:, :7]
    want = np.bincount(np.sum(picks < d_y, axis=1), minlength=d_y + 1) / trials
    assert np.array_equal(mc, want)
    assert rng.random() == ref.random()
