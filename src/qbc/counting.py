"""Quantum counting: phase estimation over a Grover iterate.

The Grover iterate G composes a caller-supplied phase oracle with the
diffusion 2|u><u| - I about the uniform index state |u>. Powers of G are
realized by repeating the iterate, never by exponentiating a matrix, so
a protocol can hop qubits between parties once per iterate and the
communication ledger counts real channel uses: 2**t - 1 iterates in all.

Each oracle call (a round) runs once, gate by gate, on a probe: a
StateVector of the block, index qubits [0, n) and work qubits [n, n+w),
reset to |u> with clear work qubits. The probe's `index_width` is n, so
the state's own operand checks raise GateError, before it changes, on a
non-diagonal gate (h, x, cnot, swap, all through `apply_1q`) that
targets an index qubit (in `_plan`), and on a predicate table of other
than 2**n entries (in `_rows`), so every table spans the whole index
register. The work check, `work_leakage`, reads the same layout: every
qubit past the index register is a work qubit, and after the round each
must be clear. The round is thus a diagonal d(i) on the index register
for every readout branch at once, and d is sqrt(2**n) times the probe's
work-0 column.

Readout qubits act only as controls until the final Fourier transform,
so they are added lazily. The readout branches are a (2**pos, 2**n)
array M, one row per value of the readout bits joined so far, so the
index axis is the contiguous one and numpy sums it pairwise.
Readout qubit `pos` selects G**(2**(t-1-pos)) and joins as the new
least significant bit when its block of iterates starts. The block runs
on a copy B of M, each iterate as B <- d * B, then B <- 2 mean(B) - B
over the index axis, and

    M <- (|0> M + |1> G**(2**(t-1-pos)) M) / sqrt(2)

Every readout branch thus receives exactly the iterates its bits select,
in the order a controlled circuit applies them, so an oracle whose
phases change from call to call is simulated exactly, and each
iterate's side effects (random draws, channel bookkeeping) happen once.
The final M holds sum_r |r> G**r |u> / sqrt(2**t); an FFT over r is the
inverse Fourier transform, after which the register reads as the
integer j with theta_hat = 2*pi*j / 2**t. The largest array, M with
2**(n+t) amplitudes, stays within a qubit cap on n+w+t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .statevector import InvariantViolation, StateVector, WORK_LEAK_ATOL

# Unused here: perfbench's test_tracer_restores_every_namespace asserts
# that qbc.counting.apply_gate is qbc.statevector.apply_gate.
from .statevector import apply_gate  # noqa: F401

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


def work_leakage(probe: StateVector) -> float:
    """Total probability mass on components with any work qubit set. The
    work qubits are those past the probe's `index_width`; with none, the
    mass is 0."""
    hot = probe.amps.reshape(1 << probe.index_width, -1)[:, 1:]
    return float(np.sum(np.abs(hot) ** 2))


def _powers(cfg: CountingConfig) -> np.ndarray:
    """Amplitudes of sum_r |r> G**r |u> / sqrt(2**t) as a (readout,
    index) array: one readout block at a time, each a copy of the
    branches that takes its iterates once."""
    probe = StateVector(cfg.block_qubits)
    probe.index_width = cfg.index_width
    size, step = 1 << cfg.index_width, 1 << cfg.work_qubits  # amps[i * step]: index i, work clear
    branches = np.full((1, size), 1.0 / math.sqrt(size), dtype=complex)
    for pos in range(cfg.precision):
        block = branches.copy()
        for _ in range(1 << (cfg.precision - 1 - pos)):
            probe.amps[:] = 0.0
            probe.amps[::step] = 1.0 / math.sqrt(size)
            cfg.oracle(probe)
            leak = work_leakage(probe)
            if leak > WORK_LEAK_ATOL:
                raise InvariantViolation(
                    f"work qubits leaked {leak:.3e} probability after a Grover iterate"
                )
            block *= probe.amps[::step] * math.sqrt(size)
            block = 2.0 * block.mean(axis=1, keepdims=True) - block
        branches = np.stack([branches, block], axis=1).reshape(-1, size) / math.sqrt(2)
    return branches


def counting_distribution(cfg: CountingConfig) -> np.ndarray:
    """Exact readout distribution of the counting circuit from the
    uniform index state: the inverse Fourier transform of the readout
    axis is an FFT."""
    spectrum = np.fft.fft(_powers(cfg), axis=0)
    return np.sum(np.abs(spectrum) ** 2, axis=1) / (1 << cfg.precision)


def run_counting(cfg: CountingConfig, rng: np.random.Generator) -> EstimateResult:
    """Simulate the counting circuit once and measure the readout, most
    significant bit first. The outcome depends only on the readout law,
    so it is measured on a t-qubit state with amplitudes sqrt(law)."""
    readout = StateVector(cfg.precision, np.sqrt(counting_distribution(cfg)))
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
