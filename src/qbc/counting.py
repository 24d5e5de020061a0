"""Quantum counting: phase estimation over a Grover iterate.

The Grover iterate G composes a caller-supplied phase oracle with the
diffusion about the uniform index state. Powers of G are realized by
repeating the iterate, never by exponentiating a matrix, so a protocol
can hop qubits between parties once per iterate and the communication
ledger counts real channel uses: 2**t - 1 iterates in all.

Block layout: index qubits [0, n), work qubits [n, n+w). Readout qubits
act only as controls until the final Fourier transform, so they are
added lazily. Readout qubit `pos` selects G**(2**(t-1-pos)); it joins as
a new least significant qubit when its block of 2**(t-1-pos) iterates
starts. Those iterates run once, uncontrolled, on a copy of the current
state, and that copy becomes the half where the new readout bit is 1:

    state <- (|0> state + |1> G**(2**(t-1-pos)) state) / sqrt(2)

Every readout branch thus receives exactly the iterates its bits select,
in the order a controlled circuit applies them, so an oracle whose
phases change from call to call is simulated exactly, and each
iterate's side effects (random draws, channel bookkeeping) happen once.
After the last block the readout qubits [n+w, n+w+t) read big-endian as
the power r in sum_r |r> G**r |psi> / sqrt(2**t). The inverse Fourier
transform over that axis is an FFT, after which the register reads as
the integer j with theta_hat = 2*pi*j / 2**t.

The oracle is called with the copy it acts on: an (n+w+pos)-qubit state
with the index and work qubits in place and the readout qubits joined
so far trailing. Its work qubits must be clear after every iterate.
The largest array is the final one of 2**(n+w+t) amplitudes, so a qubit
cap on n+w+t still bounds memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statevector import (
    GateError,
    GateSpec,
    InvariantViolation,
    StateVector,
    WORK_LEAK_ATOL,
    apply_gate,
)

Oracle = Callable[[StateVector], None]


@dataclass
class CountingConfig:
    index_width: int
    precision: int
    oracle: Oracle
    work_qubits: int = 0

    def __post_init__(self):
        if self.index_width < 1:
            raise ValueError("index register needs at least one qubit")
        if self.precision < 1:
            raise ValueError("readout register needs at least one qubit")

    @property
    def index_reg(self) -> tuple:
        return tuple(range(self.index_width))

    @property
    def work_reg(self) -> tuple:
        return tuple(range(self.index_width, self.block_qubits))

    @property
    def block_qubits(self) -> int:
        """Qubits the oracle acts on: the index register and the work qubits."""
        return self.index_width + self.work_qubits


@dataclass
class EstimateResult:
    j: int
    theta_hat: float
    estimate: float
    std_bound: float
    grover_applications: int


def estimate_from_outcome(j: int, t: int) -> EstimateResult:
    if t < 1:
        raise ValueError("t must be at least 1")
    if not 0 <= j < (1 << t):
        raise ValueError(f"outcome {j} out of range for a {t}-bit readout")
    theta_hat = 2.0 * math.pi * j / (1 << t)
    estimate = math.sin(math.pi * j / (1 << t)) ** 2
    return EstimateResult(
        j=j,
        theta_hat=theta_hat,
        estimate=estimate,
        std_bound=2.0 ** (-t + 1),
        grover_applications=(1 << t) - 1,
    )


def diffusion_gates(index_reg) -> list[GateSpec]:
    hs = [GateSpec("h", (q,)) for q in index_reg]
    return hs + [GateSpec("reflect0", tuple(index_reg))] + hs


def work_leakage(state: StateVector, work_reg) -> float:
    """Total probability mass on components with any work qubit set; the
    work register is a run of consecutive qubits [n, n+w)."""
    if not work_reg:
        return 0.0
    n, w = work_reg[0], len(work_reg)
    if tuple(work_reg) != tuple(range(n, n + w)) or n + w > state.num_qubits:
        raise GateError("work register must be consecutive qubits of the state")
    hot = state.amps.reshape(1 << n, 1 << w, -1)[:, 1:, :]
    return float(np.sum(np.abs(hot) ** 2))


def _grover_iterate(cfg: CountingConfig, state: StateVector):
    """One oracle call and diffusion, then a check that the work qubits
    carry no residual excitation."""
    cfg.oracle(state)
    for gate in diffusion_gates(cfg.index_reg):
        apply_gate(state, gate)
    leak = work_leakage(state, cfg.work_reg)
    if leak > WORK_LEAK_ATOL:
        raise InvariantViolation(
            f"work qubits leaked {leak:.3e} probability after a Grover iterate"
        )


def _powers(cfg: CountingConfig, state: StateVector | None) -> np.ndarray:
    """Amplitudes of sum_r |r> G**r |psi> / sqrt(2**t) from the uniform
    index state, as a (block, readout) array: one readout block at a
    time, each a branch copy that runs its iterates once."""
    if state is None:
        state = StateVector(cfg.block_qubits)
    elif state.num_qubits != cfg.block_qubits:
        raise ValueError("state size does not match the counting configuration")
    for q in cfg.index_reg:
        state.h(q)
    amps = state.amps
    for pos in range(cfg.precision):
        branch = StateVector(cfg.block_qubits + pos, amps)
        for _ in range(1 << (cfg.precision - 1 - pos)):
            _grover_iterate(cfg, branch)
        amps = np.stack([amps, branch.amps], axis=-1).ravel()
        amps /= math.sqrt(2)
    return amps.reshape(-1, 1 << cfg.precision)


def counting_distribution(cfg: CountingConfig, state: StateVector | None = None) -> np.ndarray:
    """Exact readout distribution of the counting circuit, starting from
    the uniform index state on `state` (the block, all |0> by default):
    the inverse Fourier transform of the readout axis is an FFT."""
    spectrum = np.fft.fft(_powers(cfg, state), axis=1)
    return np.sum(np.abs(spectrum) ** 2, axis=0) / (1 << cfg.precision)


def run_counting(
    cfg: CountingConfig, rng: np.random.Generator, state: StateVector | None = None
) -> EstimateResult:
    """Simulate the counting circuit once and measure the readout, most
    significant bit first. The outcome depends only on the readout law,
    so it is measured on a t-qubit state with amplitudes sqrt(law)."""
    readout = StateVector(cfg.precision, np.sqrt(counting_distribution(cfg, state)))
    j = 0
    for q in range(cfg.precision):
        j = (j << 1) | readout.measure(q, rng)
    return estimate_from_outcome(j, cfg.precision)


def phase_estimation_distribution(count: int, num_values: int, t: int) -> np.ndarray:
    """Analytic readout distribution for counting `count` marked values
    among `num_values`: the uniform state splits evenly onto the two
    conjugate eigenphases of the iterate, each spread by the kernel
    sin^2(2^t pi d) / (4^t sin^2(pi d)) around its phase."""
    if not 0 <= count <= num_values:
        raise ValueError("marked count out of range")
    size = 1 << t
    theta = 2.0 * math.asin(math.sqrt(count / num_values))
    phi = theta / (2.0 * math.pi)
    js = np.arange(size)

    def kernel(delta: np.ndarray) -> np.ndarray:
        num = np.sin(size * np.pi * delta) ** 2
        den = (size**2) * np.sin(np.pi * delta) ** 2
        out = np.divide(num, den, out=np.ones_like(delta), where=np.abs(den) > 1e-300)
        exact = np.isclose(np.mod(delta, 1.0), 0.0, atol=1e-12) | np.isclose(
            np.mod(delta, 1.0), 1.0, atol=1e-12
        )
        out[exact] = 1.0
        return out

    if count in (0, num_values):
        dist = kernel(phi - js / size)
    else:
        dist = 0.5 * kernel(phi - js / size) + 0.5 * kernel(-phi - js / size)
    return dist / dist.sum()
