"""Dense statevector simulator over labeled qubits.

Qubit 0 is the most significant bit of the basis index, so a register
occupying qubits [0, k) reads big-endian off the top of the state index.
Gate application mutates the state in place and returns it, which keeps
long circuits cheap; callers that need the old state copy() first.

Every gate accepts an optional tuple of control qubits (the gate acts
only on components where all controls are 1) and, where it makes sense,
a classical predicate table. A table of 2**k entries is its own index
register: it reads the top k qubits, and the gate acts only on
components whose register value i has table[i] == 1. One helper,
`_select`, turns both into a view of the amplitudes and a key into it,
so no gate builds an array over all basis states. `bit_values` and
`register_values` are read-outs kept for the tests and the adversary's
uniformity check.

The non-diagonal gates (h, x, cnot, swap) share one kernel, `apply_1q`,
on the target's halves a0, a1: X swaps them without arithmetic, and H
forms r*a0 +- r*a1 from the two shared products (r = 1/sqrt(2)), equal to
the matrix product entry for entry. A predicated kernel works on a copy
of the predicated rows and writes it back once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
WORK_LEAK_ATOL = 1e-10
EIG_FLOOR = 1e-12


class GateError(ValueError):
    """Malformed gate: bad qubit index, overlapping operands, bad table."""


class InvariantViolation(RuntimeError):
    """A simulation invariant failed (leaked work qubit, bad ownership...)."""


H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_R = H_MAT[0, 0]

_SELF_INVERSE = {"h", "x", "z", "cz", "cnot", "swap", "reflect0"}
_KINDS = _SELF_INVERSE | {"phase", "qft", "iqft"}


@dataclass(frozen=True)
class GateSpec:
    """One gate in a circuit list.

    kind is one of h, x, z, cz, cnot, swap, phase, reflect0, qft, iqft.
    cnot takes its control in `controls` like any other controlled gate;
    phase rotates |1> of the single target by exp(i*angle).
    """

    kind: str
    targets: tuple
    controls: tuple = ()
    angle: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GateError(f"unknown gate kind {self.kind!r}")

    def inverse(self) -> "GateSpec":
        if self.kind == "phase":
            return GateSpec("phase", self.targets, self.controls, -self.angle)
        if self.kind == "qft":
            return GateSpec("iqft", self.targets, self.controls)
        if self.kind == "iqft":
            return GateSpec("qft", self.targets, self.controls)
        return self


class StateVector:
    """State of `num_qubits` qubits as a dense complex amplitude vector."""

    def __init__(self, num_qubits: int, amps: np.ndarray | None = None):
        if num_qubits < 1:
            raise GateError("need at least one qubit")
        self.num_qubits = num_qubits
        dim = 1 << num_qubits
        if amps is None:
            self.amps = np.zeros(dim, dtype=complex)
            self.amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=complex)
            if amps.shape != (dim,):
                raise GateError(f"amplitude vector must have shape ({dim},)")
            self.amps = amps.copy()

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def _check_qubit(self, q: int):
        if not 0 <= q < self.num_qubits:
            raise GateError(f"qubit {q} out of range for {self.num_qubits} qubits")

    def bit_values(self, qubit: int) -> np.ndarray:
        """0/1 value of `qubit` in every basis state, as an int array."""
        self._check_qubit(qubit)
        shift = self.num_qubits - 1 - qubit
        return (np.arange(1 << self.num_qubits) >> shift) & 1

    def register_values(self, qubits) -> np.ndarray:
        """Big-endian integer value of the listed qubits per basis state."""
        if len(set(qubits)) != len(qubits):
            raise GateError("duplicate qubit in register")
        vals = np.zeros(1 << self.num_qubits, dtype=np.int64)
        width = len(qubits)
        for pos, q in enumerate(qubits):
            vals |= self.bit_values(q) << (width - 1 - pos)
        return vals

    def _select(self, controls=(), pred=None):
        """A (2**k, 2, ..., 2) view of the amplitudes and a key list, one
        entry per axis, that selects the components passing the controls
        and the predicate. Axis 0 is the index register [0, k) that a
        2**k-entry table reads (k = 0 without one); qubit q >= k is axis
        q - k + 1."""
        k, rows = 0, slice(None)
        if pred is not None:
            table = np.asarray(pred)
            k = table.size.bit_length() - 1
            if not 0 <= k <= self.num_qubits or table.shape != (1 << k,):
                raise GateError(f"predicate table of shape {table.shape} is not 2**k "
                                f"entries for a k of at most {self.num_qubits} qubits")
            rows = table.nonzero()[0]
        view = self.amps.reshape((1 << k,) + (2,) * (self.num_qubits - k))
        key = [rows] + [slice(None)] * (self.num_qubits - k)
        for c in controls:
            self._check_qubit(c)
            if c < k:
                raise GateError(f"control {c} lies inside the predicated index register")
            key[c - k + 1] = 1
        return view, key

    # -- single-qubit and diagonal gates ---------------------------------

    def apply_1q(self, u: np.ndarray, target: int, controls=(), pred=None):
        """Apply H_MAT or X_MAT to `target`, restricted by controls/predicate."""
        self._check_qubit(target)
        view, key = self._select(controls, pred)
        axis = target + view.ndim - self.num_qubits
        if axis < 1 or target in controls:
            raise GateError("target overlaps controls or index register")
        rows, key[0] = key[0], slice(None)
        block = view if pred is None else view[rows]  # a copy of the predicated rows
        k0, k1 = (tuple(key[:axis] + [b] + key[axis + 1:]) for b in (0, 1))
        a0, a1 = block[k0], block[k1]  # views: form both halves before writing
        if u is X_MAT:
            n0, n1 = a1, a0.copy()
        elif u is H_MAT:
            r0, r1 = _R * a0, _R * a1
            n0, n1 = r0 + r1, r0 - r1
        else:
            raise GateError("apply_1q takes H_MAT or X_MAT")
        block[k0], block[k1] = n0, n1
        if pred is not None:
            view[rows] = block
        return self

    def h(self, target, controls=(), pred=None):
        return self.apply_1q(H_MAT, target, controls, pred)

    def x(self, target, controls=(), pred=None):
        return self.apply_1q(X_MAT, target, controls, pred)

    def z(self, target, controls=(), pred=None):
        view, key = self._select(tuple(controls) + (target,), pred)
        view[tuple(key)] *= -1.0
        return self

    def phase(self, angle: float, target: int, controls=(), pred=None):
        """Multiply the |1> component of `target` by exp(i*angle)."""
        view, key = self._select(tuple(controls) + (target,), pred)
        view[tuple(key)] *= np.exp(1j * angle)
        return self

    def cz(self, a: int, b: int, controls=(), pred=None):
        if a == b:
            raise GateError("cz needs two distinct qubits")
        view, key = self._select(tuple(controls) + (a, b), pred)
        view[tuple(key)] *= -1.0
        return self

    def cnot(self, control: int, target: int, controls=()):
        if control == target:
            raise GateError("cnot needs distinct control and target")
        return self.apply_1q(X_MAT, target, tuple(controls) + (control,))

    def swap(self, a: int, b: int, controls=()):
        if a == b:
            raise GateError("swap needs two distinct qubits")
        self.cnot(a, b, controls)
        self.cnot(b, a, controls)
        self.cnot(a, b, controls)
        return self

    def reflect_about_zero(self, register, controls=()):
        """2|0..0><0..0| - I on `register`: flip the sign of every
        component whose register value is nonzero, by negating the
        controlled slice and then its register-zero sub-slice again."""
        if len(set(register)) != len(register):
            raise GateError("duplicate qubit in register")
        if set(register) & set(controls):
            raise GateError("register overlaps controls")
        view, key = self._select(controls)
        zero = list(key)
        for q in register:
            self._check_qubit(q)
            zero[q + 1] = 0
        view[tuple(key)] *= -1.0
        view[tuple(zero)] *= -1.0
        return self

    # -- measurement and read-out ----------------------------------------

    def probability(self, qubit: int, value: int = 1) -> float:
        self._check_qubit(qubit)
        half = self.amps.reshape(1 << qubit, 2, -1)[:, value]
        return float(np.sum(np.abs(half) ** 2))

    def measure(self, qubit: int, rng: np.random.Generator) -> int:
        """Projective Z measurement; collapses and renormalizes in place."""
        p1 = self.probability(qubit, 1)
        p0 = self.probability(qubit, 0)
        if abs(p0 + p1 - 1.0) > NORM_ATOL * 100:
            raise InvariantViolation(f"measuring an unnormalized state (norm^2={p0 + p1:.3e})")
        outcome = 1 if rng.random() < p1 else 0
        self.amps.reshape(1 << qubit, 2, -1)[:, 1 - outcome] = 0.0
        p = p1 if outcome == 1 else p0
        if p <= 0.0:
            raise InvariantViolation("measured a zero-probability branch")
        self.amps /= math.sqrt(p)
        return outcome

    def outcome_distribution(self, qubits) -> np.ndarray:
        """Exact joint distribution of the listed qubits, big-endian."""
        vals = self.register_values(qubits)
        probs = np.abs(self.amps) ** 2
        return np.bincount(vals, weights=probs, minlength=1 << len(qubits))

    def reduced_density(self, keep) -> "DensityMatrix":
        """Partial trace keeping the listed qubits, in the listed order."""
        if len(set(keep)) != len(keep):
            raise GateError("duplicate qubit in keep list")
        for q in keep:
            self._check_qubit(q)
        rest = [q for q in range(self.num_qubits) if q not in set(keep)]
        tensor = self.amps.reshape((2,) * self.num_qubits)
        perm = list(keep) + rest
        a = tensor.transpose(perm).reshape(1 << len(keep), -1)
        return DensityMatrix(a @ a.conj().T)


@dataclass
class DensityMatrix:
    """Validated density matrix (hermitian, unit trace, PSD)."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise GateError("density matrix must be square")
        if not np.allclose(m, m.conj().T, atol=1e-10):
            raise GateError("density matrix must be hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise GateError("density matrix must have unit trace")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise GateError("density matrix must be positive semidefinite")
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy in bits; eigenvalues below a small floor are dropped."""
    eigs = np.linalg.eigvalsh(rho.mat)
    eigs = eigs[eigs > EIG_FLOOR]
    return float(-np.sum(eigs * np.log2(eigs)))


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    if rho.dim != sigma.dim:
        raise GateError("trace distance needs equal dimensions")
    eigs = np.linalg.eigvalsh(rho.mat - sigma.mat)
    return float(0.5 * np.sum(np.abs(eigs)))


# -- composite gates ------------------------------------------------------


def qft_gates(register, inverse: bool = False) -> list[GateSpec]:
    """Fourier transform on `register` (big-endian) as elementary gates:
    Hadamards, controlled phases, and a final swap reversal."""
    reg = list(register)
    ops: list[GateSpec] = []
    for a in range(len(reg)):
        ops.append(GateSpec("h", (reg[a],)))
        for b in range(a + 1, len(reg)):
            ops.append(GateSpec("phase", (reg[a],), (reg[b],), math.pi / (1 << (b - a))))
    for a in range(len(reg) // 2):
        ops.append(GateSpec("swap", (reg[a], reg[len(reg) - 1 - a])))
    if inverse:
        ops = [g.inverse() for g in reversed(ops)]
    return ops


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Dispatch a GateSpec onto the state. qft/iqft expand to their
    gate decomposition, inheriting any controls."""
    k = gate.kind
    if k == "h":
        return state.h(gate.targets[0], gate.controls)
    if k == "x":
        return state.x(gate.targets[0], gate.controls)
    if k == "z":
        return state.z(gate.targets[0], gate.controls)
    if k == "phase":
        return state.phase(gate.angle, gate.targets[0], gate.controls)
    if k == "cz":
        return state.cz(gate.targets[0], gate.targets[1], gate.controls)
    if k == "cnot":
        return state.cnot(gate.controls[0], gate.targets[0], gate.controls[1:])
    if k == "swap":
        return state.swap(gate.targets[0], gate.targets[1], gate.controls)
    if k == "reflect0":
        return state.reflect_about_zero(gate.targets, gate.controls)
    if k in ("qft", "iqft"):
        for g in qft_gates(gate.targets, inverse=(k == "iqft")):
            apply_gate(state, GateSpec(g.kind, g.targets, g.controls + gate.controls, g.angle))
        return state
    raise GateError(f"unknown gate kind {k!r}")

