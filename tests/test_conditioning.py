"""Conditioned gates, probabilities, measurement and the work-leak check
against a reference that selects components through full-length
`bit_values` / `register_values` masks."""
import numpy as np
import pytest

from qbc.counting import CountingConfig, _Probe, work_leakage
from qbc.statevector import H_MAT, X_MAT, GateError, StateVector

SEEDS = range(40)


def random_state(nq: int, rng) -> StateVector:
    amps = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
    return StateVector(nq, amps / np.linalg.norm(amps))


def mask_of(sv: StateVector, qubits, k=0, table=None) -> np.ndarray:
    """Components where every listed qubit is 1 and table[i] holds for the
    value i of the index register [0, k)."""
    mask = np.ones(1 << sv.num_qubits, dtype=bool)
    for q in qubits:
        mask &= sv.bit_values(q) == 1
    if table is not None:
        mask &= np.asarray(table, dtype=bool)[sv.register_values(list(range(k)))]
    return mask


def ref_1q(sv, u, target, controls, k, table) -> np.ndarray:
    amps = sv.amps.copy()
    i0 = np.flatnonzero(mask_of(sv, controls, k, table) & (sv.bit_values(target) == 0))
    i1 = i0 | (1 << (sv.num_qubits - 1 - target))
    amps[i0] = u[0, 0] * sv.amps[i0] + u[0, 1] * sv.amps[i1]
    amps[i1] = u[1, 0] * sv.amps[i0] + u[1, 1] * sv.amps[i1]
    return amps


def ref_scale(sv, factor, qubits, k, table) -> np.ndarray:
    amps = sv.amps.copy()
    amps[mask_of(sv, qubits, k, table)] *= factor
    return amps


def ref_reflect(sv, register, controls) -> np.ndarray:
    nonzero = np.zeros(1 << sv.num_qubits, dtype=bool)
    for q in register:
        nonzero |= sv.bit_values(q) == 1
    amps = sv.amps.copy()
    amps[nonzero & mask_of(sv, controls)] *= -1.0
    return amps


def random_condition(nq: int, rng):
    """A predicate over [0, k) (or none, k = 0), a target at or above k,
    and controls drawn from the other qubits at or above k."""
    k = int(rng.integers(0, nq - 1)) if rng.random() < 0.7 else 0
    table = rng.integers(0, 2, 1 << k) if k or rng.random() < 0.5 else None
    free = [int(q) for q in rng.permutation(np.arange(k, nq))]
    target, rest = free[0], free[1:]
    controls = tuple(rest[: int(rng.integers(0, len(rest) + 1))])
    return k, table, target, controls


@pytest.mark.parametrize("seed", SEEDS)
def test_gates_match_mask_reference(seed):
    rng = np.random.default_rng(seed)
    nq = int(rng.integers(3, 7))
    sv = random_state(nq, rng)
    for _ in range(12):
        k, table, target, controls = random_condition(nq, rng)
        kind = rng.choice(["h", "x", "z", "phase", "cz", "cnot", "reflect0"])
        if kind in ("h", "x"):
            u = H_MAT if kind == "h" else X_MAT
            want = ref_1q(sv, u, target, controls, k, table)
            getattr(sv, kind)(target, controls, table)
        elif kind == "z":
            want = ref_scale(sv, -1.0, controls + (target,), k, table)
            sv.z(target, controls, table)
        elif kind == "phase":
            angle = float(rng.uniform(0, 2 * np.pi))
            want = ref_scale(sv, np.exp(1j * angle), controls + (target,), k, table)
            sv.phase(angle, target, controls, table)
        elif kind == "cz":
            if not controls:
                continue
            other, rest = controls[0], controls[1:]
            want = ref_scale(sv, -1.0, rest + (target, other), k, table)
            sv.cz(target, other, rest, table)
        elif kind == "cnot":
            if not controls:
                continue
            control, rest = controls[0], controls[1:]
            want = ref_1q(sv, X_MAT, target, rest + (control,), 0, None)
            sv.cnot(control, target, rest)
        else:
            order = [int(q) for q in rng.permutation(nq)]
            width = int(rng.integers(0, nq + 1))
            register, others = order[:width], order[width:]
            controls = tuple(others[: int(rng.integers(0, len(others) + 1))])
            want = ref_reflect(sv, register, controls)
            sv.reflect_about_zero(register, controls)
        assert np.allclose(sv.amps, want, atol=1e-12, rtol=0), kind


@pytest.mark.parametrize("predicated", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_x_swap_and_h_kernel_match_mask_reference_bitwise(seed, predicated):
    # X only moves amplitudes and H forms r*a0 +- r*a1, so both agree
    # with the reference's u[0, 0]*a0 + u[0, 1]*a1 value for value
    rng = np.random.default_rng(1000 + seed)
    nq = int(rng.integers(3, 7))
    sv = random_state(nq, rng)
    for _ in range(6):
        k = int(rng.integers(1, nq)) if predicated else 0
        table = rng.integers(0, 2, 1 << k) if predicated else None
        free = [int(q) for q in rng.permutation(np.arange(k, nq))]
        target, rest = free[0], free[1:]
        controls = tuple(rest[: int(rng.integers(0, len(rest) + 1))])
        for kind, u in (("x", X_MAT), ("h", H_MAT)):
            want = ref_1q(sv, u, target, controls, k, table)
            getattr(sv, kind)(target, controls, table)
            assert np.array_equal(sv.amps, want), kind


@pytest.mark.parametrize("predicated", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_diagonal_gates_and_reflection_match_mask_reference_bitwise(seed, predicated):
    # sign flips are exact and a phase is one scalar multiply, as in the
    # reference, so the results agree value for value
    rng = np.random.default_rng(2000 + seed)
    nq = int(rng.integers(3, 7))
    sv = random_state(nq, rng)
    for _ in range(6):
        k = int(rng.integers(1, nq - 1)) if predicated else 0
        table = rng.integers(0, 2, 1 << k) if predicated else None
        free = [int(q) for q in rng.permutation(np.arange(k, nq))]
        target, other, rest = free[0], free[1], free[2:]
        controls = tuple(rest[: int(rng.integers(0, len(rest) + 1))])
        angle = float(rng.uniform(0, 2 * np.pi))
        want = ref_scale(sv, -1.0, controls + (target,), k, table)
        sv.z(target, controls, table)
        assert np.array_equal(sv.amps, want), "z"
        want = ref_scale(sv, np.exp(1j * angle), controls + (target,), k, table)
        sv.phase(angle, target, controls, table)
        assert np.array_equal(sv.amps, want), "phase"
        want = ref_scale(sv, -1.0, controls + (target, other), k, table)
        sv.cz(target, other, controls, table)
        assert np.array_equal(sv.amps, want), "cz"
        order = [int(q) for q in rng.permutation(nq)]
        width = int(rng.integers(0, nq + 1))
        register, others = order[:width], order[width:]
        controls = tuple(others[: int(rng.integers(0, len(others) + 1))])
        want = ref_reflect(sv, register, controls)
        sv.reflect_about_zero(register, controls)
        assert np.array_equal(sv.amps, want), "reflect0"


@pytest.mark.parametrize("seed", SEEDS)
def test_readouts_match_mask_reference(seed):
    rng = np.random.default_rng(seed)
    nq = int(rng.integers(3, 7))
    sv = random_state(nq, rng)
    for q in range(nq):
        for value in (0, 1):
            want = np.sum(np.abs(sv.amps[sv.bit_values(q) == value]) ** 2)
            assert abs(sv.probability(q, value) - want) < 1e-12
    for n in range(nq + 1):
        for w in range(nq - n + 1):
            hot = np.zeros(1 << nq, dtype=bool)
            for q in range(n, n + w):
                hot |= sv.bit_values(q) == 1
            want = np.sum(np.abs(sv.amps[hot]) ** 2)
            assert abs(work_leakage(sv, list(range(n, n + w))) - want) < 1e-12
    qubit = int(rng.integers(0, nq))
    p1 = np.sum(np.abs(sv.amps[sv.bit_values(qubit) == 1]) ** 2)
    draw = np.random.default_rng(seed + 100).random()
    outcome = 1 if draw < p1 else 0
    want = np.where(sv.bit_values(qubit) == outcome, sv.amps, 0.0)
    want /= np.sqrt(p1 if outcome else 1.0 - p1)
    assert sv.measure(qubit, np.random.default_rng(seed + 100)) == outcome
    assert np.allclose(sv.amps, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("call", [
    lambda sv: sv.x(3, pred=[0, 1, 0]),
    lambda sv: sv.x(3, pred=[1] * 32),
    lambda sv: sv.h(3, controls=(1,), pred=[0, 1, 1, 1]),
    lambda sv: sv.z(0, pred=[0, 1, 1, 1]),
    lambda sv: sv.phase(0.3, 2, controls=(0,), pred=[1, 1]),
    lambda sv: work_leakage(sv, [1, 3]),
    lambda sv: work_leakage(sv, [3, 4]),
    lambda sv: sv.apply_1q(np.eye(2, dtype=complex), 3),
    lambda sv: sv.x(3, controls=(3,)),
    lambda sv: sv.h(1, pred=[0, 1, 1, 1]),
    lambda sv: sv.z(0, controls=(0,)),
    lambda sv: sv.cz(0, 1, controls=(0,)),
    lambda sv: sv.phase(0.3, 0, controls=(0,)),
    lambda sv: sv.swap(0, 1, controls=(0,)),
], ids=["table-not-power-of-two", "table-wider-than-state", "control-in-reg",
        "target-in-reg", "phase-control-in-reg", "leak-gap", "leak-past-end",
        "not-h-or-x", "target-is-control", "h-target-in-reg", "z-target-is-control",
        "cz-target-is-control", "phase-target-is-control", "swap-target-is-control"])
def test_malformed_conditions_rejected_without_touching_the_state(call):
    sv = random_state(4, np.random.default_rng(9))
    before = sv.amps.copy()
    with pytest.raises(GateError):
        call(sv)
    assert np.array_equal(sv.amps, before)


def random_probe(rng) -> _Probe:
    """A 4-qubit round probe: index qubits 0, 1 and work qubits 2, 3."""
    probe = _Probe(CountingConfig(2, 1, lambda state: None, 2))
    probe.amps[:] = random_state(4, rng).amps
    return probe


def random_state_4(rng) -> StateVector:
    return random_state(4, rng)


@pytest.mark.parametrize("valid,bad,make", [
    (lambda sv: sv.x(3, pred=[0, 1]), lambda sv: sv.x(3, pred=[0, 1, 0]), random_state_4),
    (lambda sv: sv.h(3, controls=(1,)), lambda sv: sv.h(3, controls=(1,), pred=[0, 1, 1, 1]),
     random_state_4),
    (lambda sv: sv.z(0, controls=(1,)), lambda sv: sv.z(1, controls=(1,)), random_state_4),
    (lambda sv: sv.cz(0, 1), lambda sv: sv.cz(0, 1, controls=(0,)), random_state_4),
    (lambda sv: sv.x(1), lambda sv: sv.x(1), random_probe),
    (lambda sv: sv.x(3, pred=[0, 1]), lambda sv: sv.x(3, pred=[0, 1]), random_probe),
], ids=["table-length", "control-in-reg", "target-is-control", "cz-target-is-control",
        "probe-index-target", "probe-table-span"])
def test_a_cached_plan_does_not_pass_a_malformed_call(valid, bad, make):
    # a valid call on as many qubits first caches a plan that shares the
    # bad call's operands in part (for the table-length and probe rows,
    # in full: only the per-call table step can reject those)
    valid(StateVector(4))
    sv = make(np.random.default_rng(9))
    before = sv.amps.copy()
    with pytest.raises(GateError):
        bad(sv)
    assert np.array_equal(sv.amps, before)
