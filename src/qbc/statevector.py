"""Dense statevector simulator over labeled qubits.

Qubit 0 is the most significant bit of the basis index, so a register
occupying qubits [0, k) reads big-endian off the top of the state index.
Gate application mutates the state in place and returns it, which keeps
long circuits cheap; callers that need the old state copy() first.

Every gate accepts an optional tuple of control qubits (the gate acts
only on components where all controls are 1) and, where it makes sense,
a classical predicate table. A table of 2**k entries is its own index
register: it reads the top k qubits, and the gate acts only on
components whose register value i has table[i] == 1. A gate's
operands are checked, and its view shape and keys built, once per
distinct operand set by the cached `_plan`; each call then does only the
table step, `_rows` (the table's shape check and its nonzero rows,
since tables change from round to round), and the numpy work, so no gate
builds an array over all basis states. On the counting probe, whose
`index_width` is nonzero, the same two steps enforce a round's rules:
`_plan` refuses a non-diagonal gate on an index qubit, and `_rows` a
table that does not span the index register. `bit_values` and
`register_values` are read-outs kept for the tests and the adversary's
uniformity check.

The non-diagonal gates (h, x, cnot, swap) share one kernel, `apply_1q`,
on the target's halves a0, a1: X is one assignment from the
target-reversed view, and H forms r*a0 +- r*a1 from the two shared
products (r = 1/sqrt(2)), equal to the matrix product entry for entry.
A predicated kernel works on a copy of the predicated rows and writes
it back once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class _Plan(NamedTuple):
    """Where a gate acts in a view of the amplitudes. Axis 0 is the index
    register [0, k) that a 2**k-entry table reads (k = 0 without one).
    Every target and control q >= k has an axis of length 2 of its own,
    and each run of the other qubits between them shares one axis. Each
    key selects every row on axis 0 and the components whose controls
    are 1: `on` leaves the targets free, `zero` and `ones` fix every
    target to 0 or 1, and `flip` reverses every target axis."""

    shape: tuple
    on: tuple
    zero: tuple
    ones: tuple
    flip: tuple


@functools.lru_cache(maxsize=4096)
def _plan(num_qubits: int, k: int, targets: tuple, controls: tuple,
          index_width: int = 0) -> _Plan:
    """Check a gate's operands and build its keys, once per distinct
    operand set. Raises GateError, and caches nothing, on a target among
    the leading `index_width` qubits (a round's index register, which a
    non-diagonal gate may not act on), a qubit out of range, a qubit
    named twice among the targets and controls, or a target or control
    inside the predicated register."""
    for t in targets:
        if 0 <= t < index_width:
            raise GateError(f"a round may not apply a non-diagonal gate to index qubit {t}")
    operands = targets + controls
    for q in operands:
        if not 0 <= q < num_qubits:
            raise GateError(f"qubit {q} out of range for {num_qubits} qubits")
        if q < k:
            raise GateError(f"qubit {q} lies inside the predicated index register")
    if len(set(operands)) != len(operands):
        raise GateError(f"targets {targets} and controls {controls} name a qubit twice")
    shape, axes, last = [1 << k], {}, k
    for q in sorted(operands):
        if q > last:
            shape.append(1 << (q - last))
        axes[q] = len(shape)
        shape.append(2)
        last = q + 1
    if num_qubits > last:
        shape.append(1 << (num_qubits - last))
    on = [slice(None)] * len(shape)
    for c in controls:
        on[axes[c]] = 1

    def fixed(value) -> tuple:
        key = list(on)
        for t in targets:
            key[axes[t]] = value
        return tuple(key)

    return _Plan(tuple(shape), tuple(on), fixed(0), fixed(1), fixed(slice(None, None, -1)))


class StateVector:
    """State of `num_qubits` qubits as a dense complex amplitude vector."""

    index_width = 0  # set only on the counting probe; 0 leaves the round rules vacuous

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

    def _rows(self, pred):
        """The width k of a predicate table and the rows it selects: k = 0
        and all rows (a slice) without one. Tables change from round to
        round, so this step runs on every call."""
        if pred is None:
            return 0, slice(None)
        if self.index_width and len(pred) != 1 << self.index_width:
            raise GateError(f"table of length {len(pred)} does not fit "
                            f"a {1 << self.index_width}-value index")
        table = np.asarray(pred)
        k = table.size.bit_length() - 1
        if not 0 <= k <= self.num_qubits or table.shape != (1 << k,):
            raise GateError(f"predicate table of shape {table.shape} is not 2**k "
                            f"entries for a k of at most {self.num_qubits} qubits")
        return k, table.nonzero()[0]

    # -- single-qubit and diagonal gates ---------------------------------

    def apply_1q(self, u: np.ndarray, target: int, controls=(), pred=None):
        """Apply H_MAT or X_MAT to `target`, restricted by controls/predicate."""
        k, rows = self._rows(pred)
        plan = _plan(self.num_qubits, k, (target,), tuple(controls), self.index_width)
        if u is not X_MAT and u is not H_MAT:
            raise GateError("apply_1q takes H_MAT or X_MAT")
        view = self.amps.reshape(plan.shape)
        block = view[rows]  # a copy of the predicated rows, or the whole view
        if u is X_MAT:
            view[(rows,) + plan.on[1:]] = block[plan.flip]
            return self
        products = _R * block
        r0, r1 = products[plan.zero], products[plan.ones]
        np.add(r0, r1, out=block[plan.zero])
        np.subtract(r0, r1, out=block[plan.ones])
        if pred is not None:
            view[rows] = block
        return self

    def h(self, target, controls=(), pred=None):
        return self.apply_1q(H_MAT, target, controls, pred)

    def x(self, target, controls=(), pred=None):
        return self.apply_1q(X_MAT, target, controls, pred)

    def _scale(self, factor, targets, controls, pred):
        """Multiply the components where every target and control is 1
        (and the table holds) by `factor`."""
        k, rows = self._rows(pred)
        plan = _plan(self.num_qubits, k, targets, tuple(controls))
        view, key = self.amps.reshape(plan.shape), (rows,) + plan.ones[1:]
        selected = view[key]  # a copy when predicated
        selected *= factor
        if pred is not None:
            view[key] = selected
        return self

    def z(self, target, controls=(), pred=None):
        return self._scale(-1.0, (target,), controls, pred)

    def phase(self, angle: float, target: int, controls=(), pred=None):
        """Multiply the |1> component of `target` by exp(i*angle)."""
        return self._scale(np.exp(1j * angle), (target,), controls, pred)

    def cz(self, a: int, b: int, controls=(), pred=None):
        return self._scale(-1.0, (a, b), controls, pred)

    def cnot(self, control: int, target: int, controls=()):
        return self.apply_1q(X_MAT, target, tuple(controls) + (control,))

    def swap(self, a: int, b: int, controls=()):
        # both targets are checked before the first cnot, so a refused swap changes nothing
        _plan(self.num_qubits, 0, (a, b), tuple(controls), self.index_width)
        self.cnot(a, b, controls)
        self.cnot(b, a, controls)
        self.cnot(a, b, controls)
        return self

    def reflect_about_zero(self, register, controls=()):
        """2|0..0><0..0| - I on `register`: flip the sign of every
        component whose register value is nonzero, by negating the
        controlled slice and then its register-zero sub-slice again."""
        plan = _plan(self.num_qubits, 0, tuple(register), tuple(controls))
        view = self.amps.reshape(plan.shape)
        view[plan.on] *= -1.0
        view[plan.zero] *= -1.0
        return self

    # -- measurement and read-out ----------------------------------------

    def probability(self, qubit: int, value: int = 1) -> float:
        self._check_qubit(qubit)
        if value not in (0, 1):
            raise GateError(f"a qubit's value is 0 or 1, not {value!r}")
        half = self.amps.reshape(1 << qubit, 2, -1)[:, int(value)]
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

