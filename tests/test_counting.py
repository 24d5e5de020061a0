"""Phase estimation over the Grover iterate: exact distributions,
mirror symmetry, determinism on eigenphase instances, work hygiene, and
the lazy-readout layer against dense controlled-circuit references: one
on phase tables, one on each protocol variant's own gates."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbc.counting
import qbc.protocol
from qbc.counting import (
    CountingConfig,
    counting_distribution,
    estimate_from_outcome,
    phase_estimation_distribution,
    run_counting,
    work_leakage,
)
from qbc.oracles import CorrelationMode, apply_phase_pad, padded_table, random_bits
from qbc.protocol import (
    run_blind_client,
    run_blind_server,
    run_multiparty,
    run_qbc_baseline,
    transcript_lines,
)
from qbc.statevector import GateError, GateSpec, InvariantViolation, StateVector, apply_gate


def counting_cfg_for_table(n: int, t: int, table) -> CountingConfig:
    """Plain marked-set counting: phase (-1)**table[i] via one work qubit."""
    table = padded_table(table, n)

    def oracle(state):
        apply_phase_pad(state, table, n)

    return CountingConfig(n, t, oracle, work_qubits=1)


def dense_counting_state(n: int, t: int, tables) -> StateVector:
    """Reference state of the full controlled circuit: index qubits
    [0, n), readout [n, n+t). Round k multiplies branch i by
    (-1)**tables[k][i] and applies the diffusion, both controlled by the
    readout qubit whose power it belongs to (largest power first); the
    inverse QFT gates prepare the readout."""
    index = tuple(range(n))
    readout = tuple(range(n, n + t))
    sv = StateVector(n + t)
    for q in index + readout:
        sv.h(q)
    rounds = iter(tables)
    for pos, ctrl in enumerate(readout):
        for _ in range(1 << (t - 1 - pos)):
            sv.z(ctrl, pred=padded_table(next(rounds), n))
            hs = [GateSpec("h", (q,), (ctrl,)) for q in index]
            for gate in hs + [GateSpec("reflect0", index, (ctrl,))] + hs:
                apply_gate(sv, gate)
    assert next(rounds, None) is None
    apply_gate(sv, GateSpec("iqft", readout))
    return sv


def dense_counting_law(n: int, t: int, tables) -> np.ndarray:
    return dense_counting_state(n, t, tables).outcome_distribution(range(n, n + t))


def tv_distance(p, q) -> float:
    return 0.5 * float(np.sum(np.abs(p - q)))


def theta_for(count: int, num_values: int) -> float:
    return 2.0 * math.asin(math.sqrt(count / num_values))


def nearest_mirror_set(theta: float, t: int) -> set:
    """The two grid points straddling 2^t theta / 2pi, plus mirrors."""
    size = 1 << t
    j = size * theta / (2 * math.pi)
    picks = {int(math.floor(j)) % size, int(math.ceil(j)) % size}
    return picks | {(size - p) % size for p in picks}


# -- outcome arithmetic --------------------------------------------------------


def test_estimate_from_outcome_fields():
    res = estimate_from_outcome(8, 5)
    assert res.j == 8
    assert math.isclose(res.theta_hat, 2 * math.pi * 8 / 32)
    assert math.isclose(res.estimate, math.sin(math.pi * 8 / 32) ** 2)
    assert res.std_bound == 2.0 ** (-4)
    assert res.grover_applications == 31


def test_estimate_from_outcome_validation():
    with pytest.raises(ValueError):
        estimate_from_outcome(0, 0)
    with pytest.raises(ValueError):
        estimate_from_outcome(16, 4)
    with pytest.raises(ValueError):
        estimate_from_outcome(-1, 4)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.data())
def test_mirror_outcomes_share_estimate(t, data):
    j = data.draw(st.integers(1, (1 << t) - 1))
    a = estimate_from_outcome(j, t)
    b = estimate_from_outcome(((1 << t) - j) % (1 << t), t)
    assert math.isclose(a.estimate, b.estimate, abs_tol=1e-12)


# -- exact distributions --------------------------------------------------------


@pytest.mark.parametrize("count,n,t", [(0, 2, 3), (4, 2, 3), (0, 3, 4), (8, 3, 4)])
def test_eigenphase_instances_are_deterministic(count, n, t):
    dist = counting_distribution(counting_cfg_for_table(n, t, [1] * count + [0] * ((1 << n) - count)))
    j_expect = 0 if count == 0 else 1 << (t - 1)
    assert abs(dist[j_expect] - 1.0) < 1e-10


def test_half_marked_instance_is_deterministic():
    # theta = pi/2 sits exactly on the grid for every t >= 2
    dist = counting_distribution(counting_cfg_for_table(3, 4, [1, 0, 1, 0, 1, 0, 1, 0]))
    hot = np.flatnonzero(dist > 1e-10)
    assert set(hot) == {4, 12}  # 2^t/4 and its mirror
    assert abs(dist.sum() - 1.0) < 1e-10


def test_mirror_symmetry_of_distribution():
    for count in (1, 3, 5):
        dist = counting_distribution(counting_cfg_for_table(3, 5, [1] * count + [0] * (8 - count)))
        size = 1 << 5
        for j in range(1, size):
            assert abs(dist[j] - dist[size - j]) < 1e-10


def test_simulated_distribution_matches_analytic_kernel():
    for count, n, t in [(1, 2, 4), (3, 3, 4), (5, 3, 5), (2, 4, 3)]:
        num = 1 << n
        dist = counting_distribution(
            counting_cfg_for_table(n, t, [1] * count + [0] * (num - count))
        )
        ana = phase_estimation_distribution(count, num, t)
        assert np.allclose(dist, ana, atol=1e-9), (count, n, t)


def test_nearest_mirror_mass_bound_on_random_instances():
    rng = np.random.default_rng(123)
    floor = 8 / math.pi**2
    for _ in range(50):
        count = int(rng.integers(0, 17))
        dist = counting_distribution(counting_cfg_for_table(4, 6, [1] * count + [0] * (16 - count)))
        mass = sum(dist[j] for j in nearest_mirror_set(theta_for(count, 16), 6))
        assert mass >= floor - 1e-9, (count, mass)


def test_rms_error_scales_with_half_t():
    # weighted RMS of (estimate - truth) decays like 2^(-t/2); the
    # kernel's 1/delta^2 tails rule out a 2^(-t) rate
    for count, num in [(3, 8), (5, 8), (7, 16)]:
        truth = count / num
        n = (num - 1).bit_length()
        rms_by_t = {}
        for t in (4, 5, 6, 7):
            dist = counting_distribution(
                counting_cfg_for_table(n, t, [1] * count + [0] * (num - count))
            )
            est = np.sin(np.pi * np.arange(1 << t) / (1 << t)) ** 2
            rms_by_t[t] = math.sqrt(float(np.sum(dist * (est - truth) ** 2)))
            assert rms_by_t[t] <= math.pi * 2.0 ** (-t / 2)
        assert rms_by_t[7] < rms_by_t[4]


# -- lazy readout vs the dense controlled circuit ---------------------------------


@pytest.mark.parametrize("n,t", [(1, 2), (2, 3), (3, 4), (2, 5)])
def test_varying_oracle_matches_dense_reference(n, t):
    # a fresh phase table on every call: each readout branch must see
    # exactly the rounds its bits select, in the global round order
    rng = np.random.default_rng(100 * n + t)
    tables = [random_bits(1 << n, rng) for _ in range((1 << t) - 1)]
    calls = iter(tables)

    def oracle(state):
        apply_phase_pad(state, next(calls), n)

    dist = counting_distribution(CountingConfig(n, t, oracle, work_qubits=1))
    assert next(calls, None) is None
    assert tv_distance(dist, dense_counting_law(n, t, tables)) <= 1e-12


def test_sampled_outcomes_match_dense_reference():
    # the same rng stream gives the same outcome as measuring the
    # readout qubits of the dense state one by one, top bit first
    table = [1, 0, 1, 1, 0, 0, 0, 0]
    dense = dense_counting_state(3, 5, [table] * 31)
    outcomes = set()
    for seed in range(40):
        sv = dense.copy()
        rng = np.random.default_rng(seed)
        j = 0
        for q in range(3, 8):
            j = (j << 1) | sv.measure(q, rng)
        res = run_counting(counting_cfg_for_table(3, 5, table), np.random.default_rng(seed))
        assert res.j == j
        outcomes.add(j)
    assert len(outcomes) > 2


def test_per_round_pads_match_dense_reference():
    # pad_per_round redraws g every round, so a power-snapshot readout
    # (branch r gets rounds 1..r) would move this law
    rng = np.random.default_rng(7)
    x, y = random_bits(8, rng), random_bits(8, rng)
    run = run_blind_server(x, y, 4, rng=rng, pad_per_round=True, return_distribution=True)
    tables = [(x & y) ^ g for g in run.pads["g"]]
    assert len(tables) == 15
    assert tv_distance(run.distribution, dense_counting_law(3, 4, tables)) <= 1e-12


def test_iterates_per_readout_bit_largest_power_first():
    # every round runs on the same (n+w)-qubit probe; readout bit pos
    # takes the next 2^(t-1-pos) rounds in order, largest power first
    n, t = 3, 3
    rng = np.random.default_rng(11)
    tables = [random_bits(1 << n, rng) for _ in range((1 << t) - 1)]
    calls, widths = iter(tables), []

    def oracle(state):
        widths.append(state.num_qubits)
        apply_phase_pad(state, next(calls), n)

    dist = counting_distribution(CountingConfig(n, t, oracle, work_qubits=1))
    assert widths == [n + 1] * len(tables)
    assert tv_distance(dist, dense_counting_law(n, t, tables)) <= 1e-12
    # the law tells the schedule apart: the smallest power first, or each
    # block's rounds in reverse, would move it
    smallest_first = tables[3:] + tables[1:3] + tables[:1]
    reversed_blocks = tables[3::-1] + tables[5:3:-1] + tables[6:]
    for other in (smallest_first, reversed_blocks):
        assert tv_distance(dist, dense_counting_law(n, t, other)) > 1e-3


class _ReadoutControlled(StateVector):
    """A full index + work + readout state whose two gate kernels add the
    current readout qubit, when one is set, to every gate's controls."""

    control = None

    def _with_control(self, controls) -> tuple:
        return tuple(controls) + (() if self.control is None else (self.control,))

    def apply_1q(self, u, target, controls=(), pred=None):
        return super().apply_1q(u, target, self._with_control(controls), pred)

    def _scale(self, factor, targets, controls, pred):
        return super()._scale(factor, targets, self._with_control(controls), pred)


def dense_protocol_law(cfg: CountingConfig) -> np.ndarray:
    """The readout law of a run's own gates on the full circuit: index
    qubits [0, n), the work qubits, then the readout. Each round is
    `cfg.oracle` controlled by the readout qubit of its power, largest
    power first, then the diffusion under the same control; the inverse
    QFT gates prepare the readout. No probe, no reset of the work qubits
    and no diagonal assumption."""
    index = tuple(range(cfg.index_width))
    readout = tuple(range(cfg.block_qubits, cfg.block_qubits + cfg.precision))
    sv = _ReadoutControlled(cfg.block_qubits + cfg.precision)
    for q in index + readout:
        sv.h(q)
    for pos, ctrl in enumerate(readout):
        sv.control = ctrl
        for _ in range(1 << (cfg.precision - 1 - pos)):
            cfg.oracle(sv)
            # 2|u><u| - I = H (2|0><0| - I) H: negate everything, then
            # negate |0..0> back, as the |1..1> component between X layers
            for q in index:
                sv.h(q)
            sv._scale(-1.0, (), (), None)
            for q in index:
                sv.x(q)
            sv._scale(-1.0, index, (), None)
            for q in index:
                sv.x(q)
                sv.h(q)
    sv.control = None
    apply_gate(sv, GateSpec("iqft", readout))
    return sv.outcome_distribution(readout)


# each set-up runs a variant on (x, ys, forced bits, t, rng); ys holds
# three client vectors, and `forced` fixes a pad or basis draw
PROTOCOL_SETUPS = {
    "baseline-and": lambda x, ys, f, t, rng: run_qbc_baseline(
        x, ys[0], t, return_distribution=True),
    "baseline-xor": lambda x, ys, f, t, rng: run_qbc_baseline(
        x, ys[0], t, CorrelationMode.XOR, return_distribution=True),
    "blind-server": lambda x, ys, f, t, rng: run_blind_server(
        x, ys[0], t, rng, return_distribution=True),
    "blind-server-forced": lambda x, ys, f, t, rng: run_blind_server(
        x, ys[0], t, rng, pad_bits=f & (1 - ys[0]), return_distribution=True),
    "blind-server-per-round": lambda x, ys, f, t, rng: run_blind_server(
        x, ys[0], t, rng, pad_per_round=True, return_distribution=True),
    "blind-client": lambda x, ys, f, t, rng: run_blind_client(
        x, ys[0], t, rng, return_distribution=True),
    "blind-client-forced": lambda x, ys, f, t, rng: run_blind_client(
        x, ys[0], t, rng, force_basis=f, force_pad=ys[1], return_distribution=True),
    "multiparty-m3-padded": lambda x, ys, f, t, rng: run_multiparty(
        x, ys, t, rng, return_distribution=True),
    "multiparty-m3-forced": lambda x, ys, f, t, rng: run_multiparty(
        x, ys, t, rng, pad_bits=f, return_distribution=True),
    "multiparty-m2-unpadded": lambda x, ys, f, t, rng: run_multiparty(
        x, ys[:2], t, rng, pad_first_client=False, return_distribution=True),
}
PROTOCOL_SIZES = [(num, t) for num in (2, 3, 5, 8) for t in (1, 2, 3, 4)] + [
    (16, 3), (33, 2), (64, 3)]


@pytest.mark.parametrize("setup", sorted(PROTOCOL_SETUPS))
def test_every_variant_matches_its_gates_on_the_dense_circuit(monkeypatch, setup):
    # the same run twice from one seed, once with the lazy readout and once
    # on the dense circuit: equal laws, ledgers, transcripts and draws
    for num, t in PROTOCOL_SIZES:
        def run():
            rng = np.random.default_rng([num, t])
            x, f, *ys = (random_bits(num, rng) for _ in range(5))
            return PROTOCOL_SETUPS[setup](x, ys, f, t, rng)

        lazy = run()
        with monkeypatch.context() as patch:
            patch.setattr(qbc.protocol, "counting_distribution", dense_protocol_law)
            dense = run()
        assert tv_distance(lazy.distribution, dense.distribution) <= 1e-12, (num, t)
        assert lazy.ledger.as_dict() == dense.ledger.as_dict()
        assert transcript_lines(lazy) == transcript_lines(dense)
        assert repr(lazy.pads) == repr(dense.pads)


@pytest.mark.parametrize("gate", [
    lambda s: s.h(0),
    lambda s: s.x(1),
    lambda s: s.swap(0, 2),  # its first cnot would target work qubit 2
    lambda s: s.cnot(2, 1),
])
def test_round_rejects_non_diagonal_gate_on_index(gate):
    gate(StateVector(3))  # allowed on a plain state of the probe's width, and its plan cached
    seen = []

    def oracle(probe):
        seen.append(probe.amps.copy())
        try:
            gate(probe)
        finally:
            seen.append(probe.amps.copy())

    with pytest.raises(GateError, match="non-diagonal gate to index qubit"):
        counting_distribution(CountingConfig(2, 2, oracle, work_qubits=1))
    assert len(seen) == 2 and np.array_equal(seen[0], seen[1])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_round_rejects_a_table_of_half_the_index(n):
    # on a plain state a 2**(n-1)-entry table reads the top n-1 qubits
    # (none for n = 1: a 1-entry table reads no qubit); in a round every
    # table must span the whole n-qubit index register
    half = np.ones(1 << (n - 1), dtype=np.uint8)
    apply_phase_pad(StateVector(n + 1), half, n)
    seen = []

    def oracle(probe):
        seen.append(probe.amps.copy())
        try:
            apply_phase_pad(probe, half, n)
        finally:
            seen.append(probe.amps.copy())

    with pytest.raises(GateError, match="does not fit"):
        counting_distribution(CountingConfig(n, 2, oracle, work_qubits=1))
    assert len(seen) == 2 and np.array_equal(seen[0], seen[1])


def test_round_allows_diagonal_index_gates_and_index_controls():
    # z(0), cz(0, 1) and the reflection about |00> multiply index value i
    # by (-1)**[0, 1, 0, 1][i]; the index-controlled work gates undo
    # themselves
    n, t = 2, 4

    def oracle(state):
        state.x(2, controls=(0,))
        state.cnot(1, 2)
        state.h(2, pred=[0, 1, 1, 0])
        state.z(0)
        state.cz(0, 1)
        state.reflect_about_zero([0, 1])
        state.h(2, pred=[0, 1, 1, 0])
        state.cnot(1, 2)
        state.x(2, controls=(0,))

    dist = counting_distribution(CountingConfig(n, t, oracle, work_qubits=1))
    want = dense_counting_law(n, t, [[0, 1, 0, 1]] * ((1 << t) - 1))
    assert tv_distance(dist, want) <= 1e-12


def test_one_work_check_per_iterate(monkeypatch):
    checks = []
    real = qbc.counting.work_leakage

    def counted(state, work_reg):
        checks.append(tuple(work_reg))
        return real(state, work_reg)

    monkeypatch.setattr(qbc.counting, "work_leakage", counted)
    cfg = counting_cfg_for_table(1, 3, [1, 0])
    counting_distribution(cfg)
    assert checks == [cfg.work_reg] * ((1 << 3) - 1)
    assert cfg.work_reg == (1,)


def test_work_check_trips_on_leaky_oracle():
    def leaky(state):
        state.x(1)  # leaves the work qubit hot

    cfg = CountingConfig(1, 2, leaky, work_qubits=1)
    with pytest.raises(InvariantViolation, match="leak"):
        counting_distribution(cfg)


def test_work_leakage_measures_hot_mass():
    sv = StateVector(2)
    sv.h(1)
    assert abs(work_leakage(sv, [1]) - 0.5) < 1e-12
    assert work_leakage(sv, []) == 0.0


def test_run_counting_measures_big_endian():
    rng = np.random.default_rng(6)
    res = run_counting(counting_cfg_for_table(2, 4, [1, 1, 1, 1]), rng)
    assert res.j == 8  # 2^(t-1), read MSB first
    assert math.isclose(res.estimate, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        CountingConfig(0, 3, lambda s: None)
    with pytest.raises(ValueError):
        CountingConfig(2, 0, lambda s: None)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(2, 5), st.data())
def test_distribution_normalized_and_estimates_in_range(n, t, data):
    num = 1 << n
    count = data.draw(st.integers(0, num))
    dist = counting_distribution(counting_cfg_for_table(n, t, [1] * count + [0] * (num - count)))
    assert abs(dist.sum() - 1.0) < 1e-9
    for j in range(1 << t):
        assert 0.0 <= estimate_from_outcome(j, t).estimate <= 1.0
