"""Phase oracles, pads, and the basis-hiding pipeline.

The pipeline tests enumerate branches exhaustively: for every
(x_i, y_i, basis bit, pad bit) combination the net effect on branch i
must be exactly the product phase (-1)**(x_i y_i) with all work qubits
back in |0>.
"""
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbc.counting import CountingConfig, counting_distribution
from qbc.ledger import ChannelLedger
from qbc.oracles import (
    CorrelationMode,
    GateError,
    apply_correlation_gate,
    apply_data_oracle,
    apply_phase_pad,
    apply_ux1,
    apply_ux2,
    apply_ux3,
    apply_ux4,
    as_bits,
    bits_from_string,
    blind_server_pad,
    load_bitstrings,
    padded_table,
    random_bits,
)
from qbc.protocol import run_qbc_baseline
from qbc.statevector import StateVector

RNG = np.random.default_rng(513)


def uniform_index_state(n: int, extra: int) -> StateVector:
    sv = StateVector(n + extra)
    for q in range(n):
        sv.h(q)
    return sv


def apply_blind_client_round(sv, index, o1, o2, oa, x, y, r_bits, h_bits, ledger=None):
    """One full uncontrolled channel round of the client-blinded variant,
    on the tables the protocol driver builds from the bits."""
    xt, yt, rt, ht = (padded_table(bits, len(index)) for bits in (x, y, r_bits, h_bits))
    apply_ux1(sv, o1, xt, rt, ledger=ledger)
    apply_data_oracle(sv, o2, yt, ledger=ledger, name="Uy")
    apply_correlation_gate(sv, o1, o2, CorrelationMode.AND)
    apply_data_oracle(sv, o2, yt, ledger=ledger, name="Uy")
    apply_ux2(sv, o1, oa, xt, rt, xt & (1 - rt), ledger=ledger)
    apply_ux3(sv, ht, oa, ledger=ledger)
    apply_data_oracle(sv, o2, yt, ledger=ledger, name="Uy")
    apply_correlation_gate(sv, o1, o2, CorrelationMode.AND)
    apply_data_oracle(sv, o2, yt, ledger=ledger, name="Uy")
    apply_ux4(sv, o1, oa, xt & rt, rt, ht, ledger=ledger)
    return sv


# -- bit vectors ---------------------------------------------------------------


def test_as_bits_accepts_lists_and_arrays():
    assert as_bits([0, 1, 1]).dtype == np.uint8
    assert list(as_bits(np.array([1, 0]))) == [1, 0]


def test_as_bits_rejects_non_binary():
    with pytest.raises(GateError):
        as_bits([0, 2])
    with pytest.raises(GateError):
        as_bits([[0, 1]])


@pytest.mark.parametrize("bad", [0.5, 0.9, 1.5, np.nan, np.inf, -np.inf])
def test_as_bits_rejects_fractions_and_non_finite_without_a_warning(bad):
    # a cast before the check read 0.5 and 0.9 as 0 and warned on nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GateError):
            as_bits([1, bad, 0])
    with pytest.raises(GateError):
        run_qbc_baseline([bad, 1, 0.9, 1], [1, 1, 1, 1], 3, return_distribution=True)


def test_as_bits_accepts_bools_and_integral_floats():
    assert list(as_bits([True, False])) == [1, 0]
    assert list(as_bits(np.array([0.0, 1.0]))) == [0, 1]
    assert as_bits([0.0, 1.0]).dtype == np.uint8


def test_bits_from_string():
    assert list(bits_from_string("0110")) == [0, 1, 1, 0]
    with pytest.raises(GateError):
        bits_from_string("01a0")


def test_padded_table_extends_with_zeros():
    table = padded_table([1, 0, 1], 2)
    assert list(table) == [1, 0, 1, 0]
    with pytest.raises(GateError):
        padded_table([1] * 5, 2)


def test_load_bitstrings_reports_line_numbers(tmp_path):
    good = tmp_path / "vectors.txt"
    good.write_text("0101\n\n1100\n")
    rows = load_bitstrings(good)
    assert len(rows) == 2

    bad_char = tmp_path / "badchar.txt"
    bad_char.write_text("0101\n01x1\n")
    with pytest.raises(GateError, match="line 2"):
        load_bitstrings(bad_char)

    bad_width = tmp_path / "badwidth.txt"
    bad_width.write_text("0101\n011\n")
    with pytest.raises(GateError, match="line 2"):
        load_bitstrings(bad_width)

    with pytest.raises(GateError, match="line 1"):
        load_bitstrings(good, expect_width=6)

    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(GateError, match="no bit vectors"):
        load_bitstrings(empty)


# -- data oracle and correlation gate -------------------------------------------


def test_data_oracle_xors_bit_per_index():
    data = [1, 0, 1, 1]
    sv = uniform_index_state(2, 1)
    apply_data_oracle(sv, 2, data)
    vals = sv.register_values([0, 1])
    target = sv.bit_values(2)
    nz = np.abs(sv.amps) > 1e-12
    assert np.all(target[nz] == np.array(data)[vals[nz]])


def test_data_oracle_is_self_inverse():
    sv = uniform_index_state(3, 1)
    ref = sv.amps.copy()
    data = random_bits(8, RNG)
    apply_data_oracle(sv, 3, data)
    apply_data_oracle(sv, 3, data)
    assert np.allclose(sv.amps, ref, atol=1e-10)


def test_data_oracle_zero_pads_short_vectors():
    # 3 data bits on a 2-qubit index: index 3 behaves as a fixed 0
    sv = uniform_index_state(2, 1)
    apply_data_oracle(sv, 2, padded_table([1, 1, 1], 2))
    vals = sv.register_values([0, 1])
    target = sv.bit_values(2)
    nz = np.abs(sv.amps) > 1e-12
    assert np.all(target[nz & (vals == 3)] == 0)
    assert np.all(target[nz & (vals < 3)] == 1)


def test_data_oracle_counts_named_calls():
    led = ChannelLedger()
    sv = uniform_index_state(1, 1)
    apply_data_oracle(sv, 1, [1, 0], ledger=led, name="Uy")
    apply_data_oracle(sv, 1, [1, 0], ledger=led, name="Uy")
    assert led.oracle_calls == {"Uy": 2}


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("b", [0, 1])
def test_correlation_gate_and_phase(a, b):
    sv = StateVector(2)
    if a:
        sv.x(0)
    if b:
        sv.x(1)
    ref = sv.amps.copy()
    apply_correlation_gate(sv, 0, 1, CorrelationMode.AND)
    assert np.allclose(sv.amps, ref * (-1) ** (a & b), atol=1e-12)


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("b", [0, 1])
def test_correlation_gate_xor_phase(a, b):
    sv = StateVector(2)
    if a:
        sv.x(0)
    if b:
        sv.x(1)
    ref = sv.amps.copy()
    apply_correlation_gate(sv, 0, 1, CorrelationMode.XOR)
    assert np.allclose(sv.amps, ref * (-1) ** (a ^ b), atol=1e-12)


def test_correlation_gate_rejects_same_qubit():
    sv = StateVector(2)
    sv.h(0)
    sv.x(1)
    ref = sv.amps.copy()
    for mode in CorrelationMode:
        with pytest.raises(GateError, match="name a qubit twice"):
            apply_correlation_gate(sv, 1, 1, mode)
        assert np.array_equal(sv.amps, ref), mode


@pytest.mark.parametrize("bad_len", [3, 5, 8])
@pytest.mark.parametrize("call,slots", [
    (lambda sv, t: apply_data_oracle(sv, 2, t[0]), 1),
    (lambda sv, t: apply_phase_pad(sv, t[0], 2), 1),
    (lambda sv, t: apply_ux1(sv, 2, t[0], t[1]), 2),
    (lambda sv, t: apply_ux2(sv, 2, 3, t[0], t[1], t[2]), 3),
    (lambda sv, t: apply_ux3(sv, t[0], 3), 1),
    (lambda sv, t: apply_ux4(sv, 2, 3, t[0], t[1], t[2]), 3),
], ids=["data", "pad", "ux1", "ux2", "ux3", "ux4"])
def test_oracles_reject_wrong_table_length_without_touching_the_state(call, slots, bad_len):
    # on the probe of a round (2 index qubits, work qubits 2 and 3), each
    # table slot in turn, then all of them, get a length other than 2**2
    for bad in [[slot] for slot in range(slots)] + [list(range(slots))]:
        tables = [np.ones(bad_len if s in bad else 4, dtype=np.uint8) for s in range(slots)]
        seen = []

        def oracle(probe):
            seen.append(probe.amps.copy())
            try:
                call(probe, tables)
            finally:
                seen.append(probe.amps.copy())

        with pytest.raises(GateError):
            counting_distribution(CountingConfig(2, 1, oracle, work_qubits=2))
        assert len(seen) == 2 and np.array_equal(seen[0], seen[1]), bad


# -- pads -----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=32), st.integers(0, 2**31 - 1))
def test_blind_server_pad_avoids_support(y, seed):
    rng = np.random.default_rng(seed)
    g = blind_server_pad(y, rng)
    assert not np.any(g & np.array(y, dtype=np.uint8))
    # one uniform draw per index, masked: the stream a plain random_bits draw takes
    same = np.random.default_rng(seed)
    assert np.array_equal(g, random_bits(len(y), same) & (1 - np.array(y, dtype=np.uint8)))
    assert rng.bit_generator.state == same.bit_generator.state


def test_phase_pad_imprints_sign_and_clears_ancilla():
    pad = [0, 1, 1, 0]
    sv = uniform_index_state(2, 1)
    ref = sv.amps.copy()
    apply_phase_pad(sv, pad, 2)
    assert sv.probability(2, 1) < 1e-14
    vals = sv.register_values([0, 1])
    signs = np.where(np.array(pad + [0] * 4)[vals % 4] == 1, -1.0, 1.0)[: len(ref)]
    assert np.allclose(sv.amps, ref * signs, atol=1e-12)


def test_phase_pad_counts_two_oracle_calls():
    led = ChannelLedger()
    sv = uniform_index_state(1, 1)
    apply_phase_pad(sv, [1, 0], 1, ledger=led, name="Ug")
    assert led.oracle_calls == {"Ug": 2}


def test_blind_server_composite_phase_is_product_plus_pad():
    # branch-wise (-1)**(x_i y_i + g_i) on random instances
    rng = np.random.default_rng(42)
    for num in (4, 8, 16):
        n = max(1, (num - 1).bit_length())
        x = random_bits(num, rng)
        y = random_bits(num, rng)
        g = blind_server_pad(y, rng)
        index = list(range(n))
        o1, o2, o3 = n, n + 1, n + 2
        sv = uniform_index_state(n, 3)
        ref = sv.amps.copy()
        apply_data_oracle(sv, o1, x)
        apply_data_oracle(sv, o2, y)
        apply_correlation_gate(sv, o1, o2, CorrelationMode.AND)
        apply_data_oracle(sv, o2, y)
        apply_phase_pad(sv, g, o3)
        apply_data_oracle(sv, o1, x)
        table = np.zeros(1 << n, dtype=np.int64)
        table[:num] = (x & y) ^ g
        signs = np.where(table[sv.register_values(index)] == 1, -1.0, 1.0)
        assert np.allclose(sv.amps, ref * signs, atol=1e-10)


# -- basis-hiding pipeline -------------------------------------------------------


def test_ux1_encodes_z_or_hadamard_basis():
    # one index qubit, two branches: R=[0,1], x=[1,1]
    sv = uniform_index_state(1, 1)
    apply_ux1(sv, 1, [1, 1], [0, 1])
    s = 1 / np.sqrt(2)
    # branch 0: |1> on o1; branch 1: H|1> = (|0> - |1>)/sqrt(2)
    expect = np.array([0.0, s, s * s, -s * s])
    assert np.allclose(sv.amps, expect, atol=1e-12)


def test_ux1_reversed_gate_list_is_inverse():
    rng = np.random.default_rng(9)
    num = 8
    n = 3
    x = random_bits(num, rng)
    r = random_bits(num, rng)
    sv = uniform_index_state(n, 1)
    ref = sv.amps.copy()
    apply_ux1(sv, n, x, r)
    # reversed list: the indexed H, then the data oracle
    sv.h(n, pred=r)
    apply_data_oracle(sv, n, x)
    assert np.allclose(sv.amps, ref, atol=1e-10)


def test_ux2_requires_clear_scratch():
    sv = uniform_index_state(1, 2)
    sv.x(2)  # dirty oa
    with pytest.raises(GateError, match="scratch"):
        apply_ux2(sv, 1, 2, [1, 1], [0, 0], [1, 1])


def test_ux4_detects_mismatched_unload():
    # claiming the wrong x at unload time must trip the reset check
    sv = uniform_index_state(1, 2)
    apply_ux1(sv, 1, [1, 1], [0, 0])
    from qbc.statevector import InvariantViolation

    with pytest.raises(InvariantViolation):
        # x=[1,1] was loaded in the Z basis; ux2 was skipped so o1 is
        # still hot, and the masked unload of x=[0,0] cannot clear it
        apply_ux4(sv, 1, 2, [0, 0], [0, 0], [0, 0])


def test_pipeline_branch_table_exhaustive_n2():
    # every (x, y, R, h) over two indices: 4^4 = 256 cases
    n = 1
    index = [0]
    o1, o2, oa = 1, 2, 3
    for x, y, r, h in itertools.product(itertools.product((0, 1), repeat=2), repeat=4):
        sv = uniform_index_state(n, 3)
        ref = sv.amps.copy()
        apply_blind_client_round(sv, index, o1, o2, oa, list(x), list(y), list(r), list(h))
        xy = np.array([x[0] & y[0], x[1] & y[1]])
        signs = np.where(xy[sv.register_values(index)] == 1, -1.0, 1.0)
        assert np.allclose(sv.amps, ref * signs, atol=1e-10), (x, y, r, h)
        assert sv.probability(o1, 1) < 1e-12
        assert sv.probability(o2, 1) < 1e-12
        assert sv.probability(oa, 1) < 1e-12


def test_pipeline_random_instances_n8():
    rng = np.random.default_rng(77)
    n = 3
    index = [0, 1, 2]
    o1, o2, oa = 3, 4, 5
    for _ in range(200):
        x = random_bits(8, rng)
        y = random_bits(8, rng)
        r = random_bits(8, rng)
        h = random_bits(8, rng)
        sv = uniform_index_state(n, 3)
        ref = sv.amps.copy()
        apply_blind_client_round(sv, index, o1, o2, oa, x, y, r, h)
        signs = np.where((x & y)[sv.register_values(index)] == 1, -1.0, 1.0)
        assert np.allclose(sv.amps, ref * signs, atol=1e-10)
        assert sv.probability(o1, 1) < 1e-12
        assert sv.probability(oa, 1) < 1e-12


def test_pipeline_repeats_with_fresh_draws_stay_exact():
    # two rounds with different (R, h) square the phase away
    rng = np.random.default_rng(5)
    x = random_bits(4, rng)
    y = random_bits(4, rng)
    sv = uniform_index_state(2, 3)
    ref = sv.amps.copy()
    for _ in range(2):
        r = random_bits(4, rng)
        h = random_bits(4, rng)
        apply_blind_client_round(sv, [0, 1], 2, 3, 4, x, y, r, h)
    assert np.allclose(sv.amps, ref, atol=1e-10)


def test_pipeline_ledger_counts_per_round():
    led = ChannelLedger()
    rng = np.random.default_rng(2)
    x, y = random_bits(4, rng), random_bits(4, rng)
    sv = uniform_index_state(2, 3)
    apply_blind_client_round(
        sv, [0, 1], 2, 3, 4, x, y, random_bits(4, rng), random_bits(4, rng), ledger=led
    )
    assert led.oracle_calls == {
        "Ux": 5,
        "Uy": 4,
        "Uh": 4,
        "UX1": 1,
        "UX2": 1,
        "UX3": 1,
        "UX4": 1,
    }


def test_per_copy_carrier_matches_analytic_mixture():
    # o1 as handed over, averaged over the basis draw, for x_i = 0 vs 1
    from qbc.adversary import blind_client_carrier_state
    from qbc.statevector import trace_distance

    sims = []
    for x_bit in (0, 1):
        mats = []
        for r_bit in (0, 1):
            sv = StateVector(2)  # 1 index qubit, branch 0 only
            apply_ux1(sv, 1, [x_bit, x_bit], [r_bit, r_bit])
            mats.append(sv.reduced_density([1]).mat)
        sims.append(0.5 * mats[0] + 0.5 * mats[1])
    from qbc.statevector import DensityMatrix

    rho0, rho1 = DensityMatrix(sims[0]), DensityMatrix(sims[1])
    assert np.allclose(rho0.mat, blind_client_carrier_state(0).mat, atol=1e-12)
    assert np.allclose(rho1.mat, blind_client_carrier_state(1).mat, atol=1e-12)
    assert abs(trace_distance(rho0, rho1) - 1 / np.sqrt(2)) < 1e-10
