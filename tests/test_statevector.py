"""Simulator core: gate algebra, measurement, density-matrix reductions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbc.statevector import (
    DensityMatrix,
    GateError,
    GateSpec,
    InvariantViolation,
    StateVector,
    apply_gate,
    qft_gates,
    trace_distance,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20240811)


def random_state(num_qubits: int, rng=RNG) -> StateVector:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits, amps)


def random_gate(num_qubits: int, rng=RNG) -> GateSpec:
    kind = rng.choice(["h", "x", "z", "cz", "cnot", "swap", "phase", "reflect0"])
    qubits = list(rng.permutation(num_qubits))
    if kind in ("h", "x", "z"):
        return GateSpec(kind, (qubits[0],), tuple(qubits[1 : 1 + rng.integers(0, 2)]))
    if kind == "phase":
        return GateSpec(kind, (qubits[0],), (), float(rng.uniform(0, 2 * math.pi)))
    if kind in ("cz", "swap"):
        return GateSpec(kind, (qubits[0], qubits[1]))
    if kind == "cnot":
        return GateSpec(kind, (qubits[0],), (qubits[1],))
    width = int(rng.integers(1, num_qubits + 1))
    return GateSpec("reflect0", tuple(qubits[:width]))


# -- construction and read-out ----------------------------------------------


def test_initial_state_is_all_zeros():
    sv = StateVector(3)
    assert sv.amps[0] == 1.0
    assert np.sum(np.abs(sv.amps[1:])) == 0.0


def test_bad_sizes_rejected():
    with pytest.raises(GateError):
        StateVector(0)
    with pytest.raises(GateError):
        StateVector(2, np.ones(5))


def test_qubit_zero_is_most_significant():
    sv = StateVector(2)
    sv.x(0)
    # |10> is basis index 2
    assert sv.amps[2] == 1.0
    assert sv.bit_values(0)[2] == 1
    assert sv.bit_values(1)[2] == 0


def test_register_values_big_endian():
    sv = StateVector(3)
    vals = sv.register_values([0, 1, 2])
    assert list(vals) == list(range(8))
    swapped = sv.register_values([2, 0])
    # qubit 2 is now the high bit of a 2-bit register
    assert swapped[0b001] == 0b10
    assert swapped[0b100] == 0b01


def test_register_values_rejects_duplicates():
    sv = StateVector(2)
    with pytest.raises(GateError):
        sv.register_values([0, 0])


def test_gatespec_rejects_unknown_kind():
    with pytest.raises(GateError):
        GateSpec("toffoli", (0, 1, 2))


# -- gate algebra -------------------------------------------------------------


def test_hadamard_splits_amplitude():
    sv = StateVector(1)
    sv.h(0)
    assert np.allclose(sv.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_x_flips():
    sv = StateVector(1)
    sv.x(0)
    assert sv.amps[1] == 1.0


def test_z_phases_one_component():
    sv = StateVector(1)
    sv.h(0)
    sv.z(0)
    assert np.allclose(sv.amps, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_cz_phases_only_the_11_component():
    sv = StateVector(2)
    sv.h(0)
    sv.h(1)
    sv.cz(0, 1)
    expected = np.array([1, 1, 1, -1]) / 2.0
    assert np.allclose(sv.amps, expected)


def test_cnot_entangles():
    sv = StateVector(2)
    sv.h(0)
    sv.cnot(0, 1)
    bell = np.zeros(4)
    bell[0b00] = bell[0b11] = 1 / math.sqrt(2)
    assert np.allclose(sv.amps, bell)


def test_swap_exchanges_qubits():
    sv = StateVector(2)
    sv.x(0)
    sv.swap(0, 1)
    assert sv.amps[0b01] == 1.0


def test_controlled_gate_leaves_control_zero_branch_alone():
    sv = StateVector(2)
    sv.h(0)
    sv.x(1, controls=(0,))
    bell = np.zeros(4)
    bell[0b00] = bell[0b11] = 1 / math.sqrt(2)
    assert np.allclose(sv.amps, bell)


def test_predicate_table_gates_by_index_value():
    # flip the work qubit only where table[i] == 1
    sv = StateVector(3)
    sv.h(0)
    sv.h(1)
    sv.x(2, pred=np.array([0, 1, 0, 1]))
    vals = sv.register_values([0, 1])
    work = sv.bit_values(2)
    nz = np.abs(sv.amps) > 1e-12
    assert np.all(work[nz] == np.array([0, 1, 0, 1])[vals[nz]])


def test_predicate_table_length_checked():
    sv = StateVector(3)
    with pytest.raises(GateError):
        sv.x(2, pred=np.array([0, 1, 0]))


def test_operand_overlap_rejected():
    sv = StateVector(3)
    with pytest.raises(GateError):
        sv.x(0, controls=(0,))
    with pytest.raises(GateError):
        sv.cz(1, 1)
    with pytest.raises(GateError):
        sv.cnot(2, 2)
    with pytest.raises(GateError):
        sv.swap(0, 0)
    with pytest.raises(GateError):
        sv.reflect_about_zero([0, 1], controls=(1,))
    with pytest.raises(GateError):
        sv.z(0, controls=(0,))
    with pytest.raises(GateError):
        sv.cz(0, 1, controls=(0,))
    with pytest.raises(GateError):
        sv.phase(0.3, 0, controls=(0,))


def test_probability_takes_only_a_bit_value():
    sv = StateVector(1)
    sv.h(0)
    for value in (-1, 2, 0.5):
        with pytest.raises(GateError):
            sv.probability(0, value)
    assert sv.probability(0, 0) == sv.probability(0, 1) == pytest.approx(0.5)


def test_reflect_about_zero_flips_all_but_zero():
    sv = StateVector(2)
    sv.h(0)
    sv.h(1)
    sv.reflect_about_zero([0, 1])
    assert np.allclose(sv.amps, np.array([1, -1, -1, -1]) / 2.0)


def test_phase_gate_rotates_one_branch():
    sv = StateVector(1)
    sv.h(0)
    sv.phase(math.pi / 2, 0)
    assert np.allclose(sv.amps[1], 1j / math.sqrt(2))


@pytest.mark.parametrize("kind,nq", [
    ("h", 1), ("x", 1), ("z", 1), ("cz", 2), ("cnot", 2), ("swap", 2), ("reflect0", 3),
])
def test_self_inverse_gates_square_to_identity(kind, nq):
    sv = random_state(max(nq, 3))
    before = sv.amps.copy()
    if kind in ("h", "x", "z"):
        spec = GateSpec(kind, (0,))
    elif kind == "cnot":
        spec = GateSpec(kind, (1,), (0,))
    elif kind == "reflect0":
        spec = GateSpec(kind, (0, 1, 2))
    else:
        spec = GateSpec(kind, (0, 1))
    apply_gate(sv, spec)
    apply_gate(sv, spec)
    assert np.allclose(sv.amps, before, atol=1e-10)


def test_gate_inverse_round_trips():
    sv = random_state(3)
    before = sv.amps.copy()
    g = GateSpec("phase", (1,), (0,), 0.7321)
    apply_gate(sv, g)
    apply_gate(sv, g.inverse())
    assert np.allclose(sv.amps, before, atol=1e-10)


def test_norm_preserved_over_random_sequences():
    # 1000 random short sequences on up to 7 qubits
    rng = np.random.default_rng(7)
    for _ in range(1000):
        nq = int(rng.integers(2, 8))
        sv = random_state(nq, rng)
        for _ in range(int(rng.integers(1, 8))):
            apply_gate(sv, random_gate(nq, rng))
        assert abs(sv.norm() - 1.0) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_norm_preserved_property(nq, seed):
    rng = np.random.default_rng(seed)
    sv = random_state(nq, rng)
    for _ in range(10):
        apply_gate(sv, random_gate(nq, rng))
    assert abs(sv.norm() - 1.0) < 1e-9


# -- Fourier transform ---------------------------------------------------------


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_iqft_inverts_qft(width):
    sv = random_state(width)
    before = sv.amps.copy()
    for g in qft_gates(range(width)):
        apply_gate(sv, g)
    for g in qft_gates(range(width), inverse=True):
        apply_gate(sv, g)
    assert np.allclose(sv.amps, before, atol=1e-10)


def test_qft_of_zero_is_uniform():
    sv = StateVector(3)
    apply_gate(sv, GateSpec("qft", (0, 1, 2)))
    assert np.allclose(sv.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-10)


def test_qft_matches_dft_matrix():
    width = 4
    sv = random_state(width)
    before = sv.amps.copy()
    apply_gate(sv, GateSpec("qft", tuple(range(width))))
    size = 1 << width
    dft = np.exp(2j * math.pi * np.outer(np.arange(size), np.arange(size)) / size)
    assert np.allclose(sv.amps, dft @ before / math.sqrt(size), atol=1e-10)


def test_controlled_qft_acts_only_on_control_one_branch():
    sv = StateVector(3)
    sv.h(0)
    apply_gate(sv, GateSpec("qft", (1, 2), (0,)))
    # control-0 branch untouched, control-1 branch uniform over qubits 1,2
    assert np.isclose(sv.amps[0b000], 1 / math.sqrt(2))
    hot = [0b100, 0b101, 0b110, 0b111]
    assert np.allclose(sv.amps[hot], 1 / math.sqrt(8), atol=1e-10)


# -- measurement ----------------------------------------------------------------


def test_measure_deterministic_branches():
    rng = np.random.default_rng(0)
    sv = StateVector(2)
    assert sv.measure(0, rng) == 0
    sv.x(1)
    assert sv.measure(1, rng) == 1


def test_measure_collapses_and_renormalizes():
    rng = np.random.default_rng(3)
    sv = StateVector(2)
    sv.h(0)
    sv.cnot(0, 1)
    first = sv.measure(0, rng)
    assert abs(sv.norm() - 1.0) < 1e-12
    assert sv.measure(1, rng) == first


def test_measure_zero_probability_branch_raises():
    sv = StateVector(1)
    sv.amps[:] = [0.0, 0.0]  # invalid state on purpose
    with pytest.raises(InvariantViolation):
        sv.measure(0, np.random.default_rng(0))


def test_outcome_distribution_matches_empirical_frequency():
    # binomial check on one qubit, 1e5 trials, 3 sigma
    rng = np.random.default_rng(11)
    base = random_state(3)
    p1 = base.outcome_distribution([1])[1]
    trials = 100_000
    hits = sum(base.copy().measure(1, rng) for _ in range(trials))
    sigma = math.sqrt(p1 * (1 - p1) / trials)
    assert abs(hits / trials - p1) < 3 * sigma


def test_outcome_distribution_sums_to_one():
    sv = random_state(4)
    dist = sv.outcome_distribution([0, 2, 3])
    assert dist.shape == (8,)
    assert abs(dist.sum() - 1.0) < 1e-9


# -- density matrices -----------------------------------------------------------


def test_reduced_density_of_product_state():
    sv = StateVector(2)
    sv.h(0)  # |+> (x) |0>
    rho = sv.reduced_density([0])
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(rho.mat, plus, atol=1e-10)
    rho1 = sv.reduced_density([1])
    assert np.allclose(rho1.mat, [[1, 0], [0, 0]], atol=1e-10)


def test_reduced_density_of_bell_half_is_maximally_mixed():
    sv = StateVector(2)
    sv.h(0)
    sv.cnot(0, 1)
    rho = sv.reduced_density([0])
    assert np.allclose(rho.mat, np.eye(2) / 2, atol=1e-10)
    assert abs(von_neumann_entropy(rho) - 1.0) < 1e-9


def test_reduced_density_respects_keep_order():
    sv = StateVector(2)
    sv.x(1)  # |01>
    rho = sv.reduced_density([1, 0])
    # listed order makes qubit 1 the high bit: state reads |10>
    assert np.isclose(rho.mat[2, 2].real, 1.0)


def test_density_matrix_validation():
    with pytest.raises(GateError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not hermitian
    with pytest.raises(GateError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(GateError):
        DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue


def test_entropy_of_pure_state_is_zero():
    sv = random_state(3)
    rho = sv.reduced_density([0, 1, 2])
    assert von_neumann_entropy(rho) < 1e-9


def test_trace_distance_basics():
    zero = DensityMatrix(np.array([[1, 0], [0, 0]], dtype=complex))
    one = DensityMatrix(np.array([[0, 0], [0, 1]], dtype=complex))
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12
    assert trace_distance(zero, zero) < 1e-12
    mixed = DensityMatrix(np.eye(2, dtype=complex) / 2)
    assert abs(trace_distance(zero, mixed) - 0.5) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
def test_reduced_density_is_valid_density_matrix(nq, seed):
    sv = random_state(nq, np.random.default_rng(seed))
    keep = list(range(nq - 1))
    rho = sv.reduced_density(keep)  # DensityMatrix validates on construction
    assert rho.dim == 1 << len(keep)
