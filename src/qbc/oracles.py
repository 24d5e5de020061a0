"""Phase-oracle building blocks over an index register and work qubits.

The data oracle XORs a classical bit table into a work qubit, indexed by
the index register: |i>|b> -> |i>|b xor table_i>. A table of 2**k
entries reads the top k qubits, so it names its own register. Composing
two data oracles with a correlation gate between the work qubits
imprints the product (or XOR) of the two parties' bits as a phase on
branch i. Pads and per-round basis bits support the blinded protocol
variants. The one constrained pad, `blind_server_pad`, is zero on the
owner's support; every other pad is uniform `random_bits`.

Oracles take padded tables; the driver builds them, and ux2 and ux4
build from x and the basis table the one product each unloads with.
`padded_table`, the one table builder, checks a bit vector and zero-pads
it to the 2**index_width span, so indices past the data length behave
as fixed 0 bits. Bits are fixed for a run and pads and bases for a
round, so a table is built once per run or round, not once per gate. An
oracle checks only that the tables of one call agree in length, before
it touches the state; the state checks that a length fits its qubits.
"""
from __future__ import annotations

import enum
from pathlib import Path

import numpy as np

from .statevector import GateError, InvariantViolation, StateVector


class CorrelationMode(enum.Enum):
    AND = "and"
    XOR = "xor"


# -- classical bit vectors ------------------------------------------------


def as_bits(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise GateError("bit vector must be one-dimensional")
    # checked before the cast, which would truncate 0.5 to 0 and warn on nan
    if arr.dtype.kind not in "biuf" or not np.all((arr == 0) | (arr == 1)):
        raise GateError("bit vector entries must be 0 or 1")
    return arr.astype(np.uint8)


def bits_from_string(text: str) -> np.ndarray:
    try:
        return as_bits([int(c) for c in text.strip()])
    except ValueError:
        raise GateError(f"invalid bitstring {text!r}") from None


def random_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=n).astype(np.uint8)


def load_bitstrings(path, expect_width: int | None = None) -> list[np.ndarray]:
    """Read one bit vector per line of ASCII 0/1 characters.

    Lines must agree on width (and match expect_width when given);
    violations report the offending line number.
    """
    rows: list[np.ndarray] = []
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError:
        raise GateError(f"{path}: not a text file of 0/1 characters") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if set(line) - {"0", "1"}:
            raise GateError(f"{path}: line {lineno}: expected only 0/1 characters")
        bits = bits_from_string(line)
        width = expect_width if expect_width is not None else (len(rows[0]) if rows else None)
        if width is not None and len(bits) != width:
            raise GateError(
                f"{path}: line {lineno}: width {len(bits)} does not match expected {width}"
            )
        rows.append(bits)
    if not rows:
        raise GateError(f"{path}: no bit vectors found")
    return rows


def padded_table(bits, index_width: int) -> np.ndarray:
    """Zero-pad a bit vector to the 2**index_width predicate table."""
    bits = as_bits(bits)
    size = 1 << index_width
    if len(bits) > size:
        raise GateError(f"{len(bits)} bits do not fit a {index_width}-qubit index register")
    table = np.zeros(size, dtype=np.uint8)
    table[: len(bits)] = bits
    return table


# -- oracles ---------------------------------------------------------------


def _count(ledger, name: str):
    if ledger is not None:
        ledger.count_oracle(name)


def _check_tables(*tables):
    if len({len(table) for table in tables}) > 1:
        raise GateError(f"tables of lengths {[len(t) for t in tables]} do not share one index")


def apply_data_oracle(state, target, table, ledger=None, name="Ux"):
    """|i>|b> -> |i>|b xor table_i> on `target`. Self-inverse."""
    state.x(target, pred=table)
    _count(ledger, name)
    return state


def apply_correlation_gate(state, o1, o2, mode: CorrelationMode):
    """Phase (-1)**(a AND b) or (-1)**(a XOR b) of the two work qubits.
    Both gates refuse o1 == o2 before the state changes."""
    if mode is CorrelationMode.AND:
        state.cz(o1, o2)
    elif mode is CorrelationMode.XOR:
        state.cnot(o1, o2)
        state.z(o2)
        state.cnot(o1, o2)
    else:
        raise GateError(f"unknown correlation mode {mode!r}")
    return state


def blind_server_pad(y, rng: np.random.Generator) -> np.ndarray:
    """The blind-server pad g: uniform bits, zeroed wherever the pad
    owner's bit y_i is 1, so padded products never wrap mod 2 and the
    pad mean can be subtracted exactly."""
    y = as_bits(y)
    return random_bits(len(y), rng) & (1 - y)


def apply_phase_pad(state, pad, ancilla, ledger=None, name="Ug"):
    """Multiply branch i by (-1)**pad_i for a pad table, via XOR onto
    `ancilla`, a Z, and an uncompute. The ancilla returns to |0>."""
    apply_data_oracle(state, ancilla, pad, ledger, name)
    state.z(ancilla)
    apply_data_oracle(state, ancilla, pad, ledger, name)
    return state


# -- basis-hiding pipeline (server side of the client-blinded variant) ----


def apply_ux1(state, o1, x, basis, ledger=None):
    """Encode x_i into o1, per-branch in the Z or X basis: branch i
    carries |x_i> where basis bit is 0 and H|x_i> where it is 1."""
    _check_tables(x, basis)
    apply_data_oracle(state, o1, x, ledger, "Ux")
    state.h(o1, pred=basis)
    _count(ledger, "UX1")
    return state


def _require_clear(state, qubit, what: str):
    if state.probability(qubit, 1) > 1e-12:
        raise GateError(f"{what} must be |0> at entry")


def apply_ux2(state, o1, oa, x, basis, ledger=None):
    """Extract the product phase out of the X-basis branches and clear
    the Z-basis ones.

    On branches with basis bit 1, o1 arrived as H|x_i xor y_i|; mapping it
    through H and X turns the CZ against |x_i> (held on oa) into exactly
    the phase (-1)**(x_i y_i), after which the encoding is restored.
    Z-basis branches already carry that phase from the counterpart's
    correlation gate, so o1 is reset to |0> there with the x AND NOT r
    table, which this stage builds from the two tables it is given (the
    owner knows x and the basis draw). Without that reset the
    counterpart's second pass would imprint the product phase a second
    time on those branches and cancel it.
    """
    _check_tables(x, basis)
    _require_clear(state, oa, "scratch qubit oa")
    apply_data_oracle(state, oa, x, ledger, "Ux")
    state.h(o1, pred=basis)
    state.x(o1, pred=basis)
    state.cz(o1, oa, pred=basis)
    state.x(o1, pred=basis)
    state.h(o1, pred=basis)
    apply_data_oracle(state, oa, x, ledger, "Ux")
    apply_data_oracle(state, o1, np.logical_and(x, np.logical_not(basis)), ledger, "Ux")
    _count(ledger, "UX2")
    return state


def apply_ux3(state, pad, ancilla, ledger=None):
    """Random phase pad (-1)**h_i hiding the product phase from the
    counterpart between the two correlation rounds."""
    apply_phase_pad(state, pad, ancilla, ledger, "Uh")
    _count(ledger, "UX3")
    return state


def apply_ux4(state, o1, oa, x, basis, pad, ledger=None):
    """Remove the pad and reset o1 to |0> using the known encoding.

    Only X-basis branches still hold data in o1 by this point (the
    counterpart's second pass stripped their y-phase; Z-basis branches
    were cleared during the phase extraction), so the final unload uses
    the x AND r table, which this stage builds from x and the basis.
    """
    _check_tables(x, basis, pad)
    apply_phase_pad(state, pad, oa, ledger, "Uh")
    state.h(o1, pred=basis)
    apply_data_oracle(state, o1, np.logical_and(x, basis), ledger, "Ux")
    _count(ledger, "UX4")
    if state.probability(o1, 1) > 1e-12:
        raise InvariantViolation(
            "o1 failed to reset; input state did not match the recorded encoding"
        )
    return state
