"""Phase-oracle building blocks over an index register and work qubits.

The data oracle XORs a classical bit table into a work qubit, indexed by
the index register: |i>|b> -> |i>|b xor table_i>. Composing two data
oracles with a correlation gate between the work qubits imprints the
product (or XOR) of the two parties' bits as a phase on branch i. Pads
and per-round basis bits support the blinded protocol variants. The one
constrained pad, `blind_server_pad`, is zero on the owner's support;
every other pad is uniform `random_bits`.

Oracles take padded tables; the driver builds them. `padded_table`, the
one table builder, checks a bit vector and zero-pads it to the
2**len(index_reg) span, so indices past the data length behave as fixed
0 bits. Bits are fixed for a run and pads and bases for a round, so a
table is built once per run or round, not once per gate. An oracle
checks only each table's length, before it touches the state.
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
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise GateError("bit vector must be one-dimensional")
    if not np.all((arr == 0) | (arr == 1)):
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


def _count(ledger, name: str, k: int = 1):
    if ledger is not None:
        ledger.count_oracle(name, k)


def _check_tables(index_reg, *tables):
    size = 1 << len(index_reg)
    for table in tables:
        if len(table) != size:
            raise GateError(f"table of length {len(table)} does not fit a {size}-value index")


def apply_data_oracle(state, index_reg, target, table, ledger=None, name="Ux"):
    """|i>|b> -> |i>|b xor table_i> on `target`. Self-inverse."""
    state.x(target, index_reg=index_reg, pred=table)
    _count(ledger, name)
    return state


def apply_correlation_gate(state, o1, o2, mode: CorrelationMode):
    """Phase (-1)**(a AND b) or (-1)**(a XOR b) of the two work qubits."""
    if o1 == o2:
        raise GateError("correlation gate needs two distinct work qubits")
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


def apply_phase_pad(state, index_reg, pad, ancilla, ledger=None, name="Ug"):
    """Multiply branch i by (-1)**pad_i for a pad table, via XOR onto
    `ancilla`, a Z, and an uncompute. The ancilla returns to |0>."""
    apply_data_oracle(state, index_reg, ancilla, pad, ledger, name)
    state.z(ancilla)
    apply_data_oracle(state, index_reg, ancilla, pad, ledger, name)
    return state


# -- basis-hiding pipeline (server side of the client-blinded variant) ----


def apply_ux1(state, index_reg, o1, x, basis, ledger=None):
    """Encode x_i into o1, per-branch in the Z or X basis: branch i
    carries |x_i> where basis bit is 0 and H|x_i> where it is 1."""
    _check_tables(index_reg, x, basis)
    apply_data_oracle(state, index_reg, o1, x, ledger, "Ux")
    state.h(o1, index_reg=index_reg, pred=basis)
    _count(ledger, "UX1")
    return state


def _require_clear(state, qubit, what: str):
    if state.probability(qubit, 1) > 1e-12:
        raise GateError(f"{what} must be |0> at entry")


def apply_ux2(state, index_reg, o1, oa, x, basis, x_off_basis, ledger=None):
    """Extract the product phase out of the X-basis branches and clear
    the Z-basis ones.

    On branches with basis bit 1, o1 arrived as H|x_i xor y_i|; mapping it
    through H and X turns the CZ against |x_i> (held on oa) into exactly
    the phase (-1)**(x_i y_i), after which the encoding is restored.
    Z-basis branches already carry that phase from the counterpart's
    correlation gate, so o1 is reset to |0> there with the x AND NOT r
    table (the owner knows x and the basis draw). Without that reset the
    counterpart's second pass would imprint the product phase a second
    time on those branches and cancel it.
    """
    _check_tables(index_reg, x, basis, x_off_basis)
    _require_clear(state, oa, "scratch qubit oa")
    apply_data_oracle(state, index_reg, oa, x, ledger, "Ux")
    state.h(o1, index_reg=index_reg, pred=basis)
    state.x(o1, index_reg=index_reg, pred=basis)
    state.cz(o1, oa, index_reg=index_reg, pred=basis)
    state.x(o1, index_reg=index_reg, pred=basis)
    state.h(o1, index_reg=index_reg, pred=basis)
    apply_data_oracle(state, index_reg, oa, x, ledger, "Ux")
    apply_data_oracle(state, index_reg, o1, x_off_basis, ledger, "Ux")
    _count(ledger, "UX2")
    return state


def apply_ux3(state, index_reg, pad, ancilla, ledger=None):
    """Random phase pad (-1)**h_i hiding the product phase from the
    counterpart between the two correlation rounds."""
    apply_phase_pad(state, index_reg, pad, ancilla, ledger, "Uh")
    _count(ledger, "UX3")
    return state


def apply_ux4(state, index_reg, o1, oa, x_on_basis, basis, pad, ledger=None):
    """Remove the pad and reset o1 to |0> using the known encoding.

    Only X-basis branches still hold data in o1 by this point (the
    counterpart's second pass stripped their y-phase; Z-basis branches
    were cleared during the phase extraction), so the final unload uses
    the x AND r table.
    """
    _check_tables(index_reg, x_on_basis, basis, pad)
    apply_phase_pad(state, index_reg, pad, oa, ledger, "Uh")
    state.h(o1, index_reg=index_reg, pred=basis)
    apply_data_oracle(state, index_reg, o1, x_on_basis, ledger, "Ux")
    _count(ledger, "UX4")
    if state.probability(o1, 1) > 1e-12:
        raise InvariantViolation(
            "o1 failed to reset; input state did not match the recorded encoding"
        )
    return state
