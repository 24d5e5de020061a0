"""Two-party and cascaded estimation protocols with channel accounting.

Every variant runs the same round trip once per Grover iterate. One
round of the baseline protocol:

    server encodes its bits into the carrier qubit o1,
    sends index register + o1 to the client          (n+1 qubits),
    client applies its data oracle, the correlation gate, uncomputes,
    sends index register + o1 back                   (n+1 qubits),
    server uncomputes; the counting layer applies the diffusion.

A variant supplies its work-qubit owners (`work_owners`) and a closure
of party steps, which moves the index register and carrier with `hop`;
it keeps only those steps and its own pad rules. One private driver
converts the inputs to bits; computes their joint bits (x XOR y in XOR
mode, else the parity of the per-client products x AND y_k) and the
truth from them; checks every caller-fixed pad or basis draw against
the data length before any round runs; lays out index qubits [0, n),
o1 at n and the work qubits after it; keeps the ownership map, ledger
and transcript; frames each round (begin, the server's hold on the
carrier, the steps, end, the round hook); and samples the counting
readout or returns its law.
The round counter is the ledger's `grover_rounds`, and a round's
transcript rows are the ones appended since the round began.

The oracles take padded tables, built when their bits are drawn: the
driver builds those of x, of each client's y and of a fixed pad g once
per run, a redrawn blind-server pad's each round, and the blind-client
step its basis, pad, x AND r and x AND NOT r tables each round.

The counting layer runs each round once on a probe of the index + work
block (see `qbc.counting`), so the parties' gates act on exactly the
qubits they hold. Every qubit a party operates on is checked against
the ownership map, and violations abort the run. A
`round_hook(round_index, state)` receives the probe after the round:
the uniform index register carrying the round's phases, and the work
qubits, which must be clear again.

Blinded variants:

    blind-server: the client pads the phase with bits g drawn once per
    execution, zero wherever its own bit is 1, so the server's measured
    mean targets (sum x_i y_i + sum g_i)/N and the client recovers the
    true mean by subtracting mean(g).

    blind-client: the server encodes each branch in a random Z or X
    basis, extracts the product phase with a scratch qubit, and pads
    rounds with fresh random phases, so the client only ever sees o1
    states whose best single-copy distinguishability is fixed.

    multiparty: the carrier hops server -> client 1 -> ... -> client m
    -> server, accumulating the parity of all per-client products. The
    first client may pad; the padded parity mean is what the server
    then estimates (a pad over a parity cannot be subtracted out
    without per-index knowledge, so both truths are reported).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .counting import CountingConfig, EstimateResult, counting_distribution, run_counting
from .ledger import ChannelLedger
from .oracles import (
    CorrelationMode,
    apply_correlation_gate,
    apply_data_oracle,
    apply_phase_pad,
    apply_ux1,
    apply_ux2,
    apply_ux3,
    apply_ux4,
    as_bits,
    blind_server_pad,
    padded_table,
    random_bits,
)
from .statevector import GateError, InvariantViolation

SERVER = "server"


def client_name(k: int = 1) -> str:
    return f"client{k}"


class OwnershipError(InvariantViolation):
    """A party applied a gate to a qubit it does not currently hold."""


@dataclass
class TranscriptEntry:
    round_index: int
    src: str
    dst: str
    qubits: int
    oracle_calls: int = 0

    def line(self) -> str:
        return f"{self.round_index},{self.src},{self.dst},{self.qubits},{self.oracle_calls}"


def index_width_for(num_values: int) -> int:
    if num_values < 1:
        raise GateError("need at least one data value")
    return max(1, (num_values - 1).bit_length())


class ProtocolSim:
    """Ownership map, ledger, and transcript of one execution."""

    def __init__(self, owners: dict, ledger: ChannelLedger, server_home):
        self.owners = dict(owners)
        self.ledger = ledger
        self.transcript: list[TranscriptEntry] = []
        self.server_home = list(server_home)
        self._round_start = 0
        self._round_call_base = 0

    @property
    def round_index(self) -> int:
        return self.ledger.grover_rounds

    def begin_round(self):
        self.ledger.grover_rounds += 1
        self._round_start = len(self.transcript)
        self._round_call_base = self.ledger.oracle_total()

    def end_round(self):
        calls = self.ledger.oracle_total() - self._round_call_base
        for entry in self.transcript[self._round_start:]:
            entry.oracle_calls = calls
        self.require_owner(SERVER, self.server_home)

    def require_owner(self, party: str, qubits):
        for q in qubits:
            holder = self.owners.get(q)
            if holder != party:
                raise OwnershipError(
                    f"round {self.round_index}: {party} acted on qubit {q} held by {holder}"
                )

    def transfer(self, qubits, src: str, dst: str):
        self.require_owner(src, qubits)
        for q in qubits:
            self.owners[q] = dst
        self.ledger.quantum_qubits_sent += len(qubits)
        self.transcript.append(TranscriptEntry(self.round_index, src, dst, len(qubits)))


@dataclass
class ProtocolRun:
    variant: str
    num_values: int
    index_width: int
    t: int
    mode: str
    result: EstimateResult | None
    estimate: float | None
    recovered_estimate: float | None
    truth: float
    server_view_truth: float
    ledger: ChannelLedger
    transcript: list[TranscriptEntry]
    pads: dict = field(default_factory=dict)
    distribution: np.ndarray | None = None

    @property
    def abs_error(self) -> float | None:
        if self.estimate is None:
            return None
        best = self.recovered_estimate if self.recovered_estimate is not None else self.estimate
        return abs(best - self.truth)


def transcript_lines(run: ProtocolRun) -> list[str]:
    return ["round,from,to,qubits,oracle_calls"] + [e.line() for e in run.transcript]


def work_owners(variant: str, num_clients: int = 1) -> list[str]:
    """Holders of a variant's work qubits n+1, n+2, ... after the carrier
    o1 = n. Runs and the qubit budget both size themselves from it."""
    client = client_name(1)
    if variant == "baseline":
        return [client]
    if variant == "blind-server":
        return [client, client]
    if variant == "blind-client":
        return [client, SERVER]
    if variant == "multiparty":
        return [client_name(k) for k in range(1, num_clients + 1)]
    raise GateError(f"unknown protocol {variant!r}")


class _Execution:
    """One protocol execution: the inputs as bits, their joint bits and
    truth, the layout, ledger, ProtocolSim and data tables of a variant,
    and the round frame that every variant shares."""

    def __init__(self, variant: str, x, ys, mode: CorrelationMode = CorrelationMode.AND):
        self.x = x = as_bits(x)
        self.ys = ys = [as_bits(y) for y in ys]
        self.variant = variant
        self.num_values = len(x)
        self.mode = mode
        self.n = n = index_width_for(len(x))
        if any(len(y) != len(x) for y in ys):
            raise GateError("client vectors must match the server length")
        if mode is CorrelationMode.XOR:
            self.joint = x ^ ys[0]
        else:  # the parity of the per-client products; x AND y for one client
            self.joint = np.zeros_like(x)
            for y in ys:
                self.joint ^= x & y
        self.truth = float(np.sum(self.joint)) / len(x)
        self.x_table = padded_table(x, n)
        self.y_tables = [padded_table(y, n) for y in ys]
        holders = work_owners(variant, len(ys))
        self.index = list(range(n))
        self.o1 = n
        self.carried = self.index + [n]
        self.work = list(range(n + 1, n + 1 + len(holders)))
        owners = {q: SERVER for q in range(n + 1)}
        owners.update(zip(self.work, holders))
        self.ledger = ChannelLedger()
        self.sim = ProtocolSim(owners, self.ledger, self.index)

    def fixed_draw(self, bits, name: str):
        """A caller-fixed pad or basis draw as bits, or None to leave it to
        the rng; checked against the data length before any round runs."""
        if bits is None:
            return None
        bits = as_bits(bits)
        if len(bits) != self.num_values:
            raise GateError(f"{name} length must match the data length {self.num_values}")
        return bits

    def hop(self, src: str, dst: str, *work: int):
        """Send the index register and carrier from src to dst, which then
        acts on them and on the work qubits named."""
        self.sim.transfer(self.carried, src, dst)
        self.sim.require_owner(dst, self.carried + list(work))

    def correlate(self, state, k: int, target: int):
        """Client k's step (from 1): its data oracle on its work qubit,
        the correlation gate onto the carrier, and the oracle again."""
        y = self.y_tables[k - 1]
        apply_data_oracle(state, self.index, target, y, self.ledger, "Uy")
        apply_correlation_gate(state, self.o1, target, self.mode)
        apply_data_oracle(state, self.index, target, y, self.ledger, "Uy")

    def run(self, steps, t, rng, return_distribution, round_hook, result_bits):
        """Count over the rounds `steps` makes, then return the exact
        readout law or sample it and send result_bits to the client."""
        sim = self.sim

        def grover_round(state):
            sim.begin_round()
            sim.require_owner(SERVER, self.carried)
            steps(state)
            sim.end_round()
            if round_hook is not None:
                round_hook(sim.round_index, state)

        cfg = CountingConfig(self.n, t, grover_round, work_qubits=1 + len(self.work))
        result = estimate = dist = None
        if return_distribution:
            dist = counting_distribution(cfg)
        elif rng is None:
            raise GateError("need an rng to sample the readout")
        else:
            result = run_counting(cfg, rng)
            self.ledger.classical_bits_sent += result_bits
            estimate = result.estimate * ((1 << self.n) / self.num_values)
        return ProtocolRun(
            variant=self.variant,
            num_values=self.num_values,
            index_width=self.n,
            t=t,
            mode=self.mode.value,
            result=result,
            estimate=estimate,
            recovered_estimate=None,
            truth=self.truth,
            server_view_truth=self.truth,
            ledger=self.ledger,
            transcript=sim.transcript,
            distribution=dist,
        )


def run_qbc_baseline(
    x,
    y,
    t: int,
    mode: CorrelationMode = CorrelationMode.AND,
    rng: np.random.Generator | None = None,
    return_distribution: bool = False,
    round_hook=None,
) -> ProtocolRun:
    """Plain two-party estimation of the product (or XOR) mean."""
    ex = _Execution("baseline", x, [y], mode=mode)
    index, o1, ledger, xt = ex.index, ex.o1, ex.ledger, ex.x_table
    (o2,) = ex.work
    client = client_name(1)

    def steps(state):
        apply_data_oracle(state, index, o1, xt, ledger, "Ux")
        ex.hop(SERVER, client, o2)
        ex.correlate(state, 1, o2)
        ex.hop(client, SERVER)
        apply_data_oracle(state, index, o1, xt, ledger, "Ux")

    return ex.run(steps, t, rng, return_distribution, round_hook, t)


def run_blind_server(
    x,
    y,
    t: int,
    rng: np.random.Generator | None = None,
    pad_bits=None,
    pad_per_round: bool = False,
    disclose_pad_sum: bool = False,
    return_distribution: bool = False,
    round_hook=None,
) -> ProtocolRun:
    """Product-mean estimation where the client pads the phase so the
    server never sees the bare overlap. The pad is drawn once per
    execution: a per-round redraw changes the counted set between
    iterates and breaks exact recovery. pad_per_round=True enables that
    regime anyway so the resulting estimator bias can be studied; the
    recovery then subtracts the average pad mean."""
    ex = _Execution("blind-server", x, [y])
    num, (y,) = ex.num_values, ex.ys
    g = ex.fixed_draw(pad_bits, "pad_bits")
    if g is None:
        if rng is None:
            raise GateError("need an rng to draw the pad")
        g = blind_server_pad(y, rng)
    elif pad_per_round:
        raise GateError("a forced pad and per-round redraws are incompatible")
    elif np.any(g & y):
        raise GateError("pad must be zero wherever the client bit is 1")
    pads_used: list[np.ndarray] = [g]
    g_table = padded_table(g, ex.n)
    index, o1, ledger, xt = ex.index, ex.o1, ex.ledger, ex.x_table
    o2, o3 = ex.work
    client = client_name(1)

    def steps(state):
        nonlocal g_table
        if pad_per_round and ex.sim.round_index > 1:
            pads_used.append(blind_server_pad(y, rng))
            g_table = padded_table(pads_used[-1], ex.n)
        apply_data_oracle(state, index, o1, xt, ledger, "Ux")
        ex.hop(SERVER, client, o2, o3)
        ex.correlate(state, 1, o2)
        apply_phase_pad(state, index, g_table, o3, ledger, "Ug")
        ex.hop(client, SERVER)
        apply_data_oracle(state, index, o1, xt, ledger, "Ux")

    run = ex.run(steps, t, rng, return_distribution, round_hook, t)
    pad_mean = float(np.mean([np.sum(p) for p in pads_used])) / num
    if disclose_pad_sum:
        ledger.classical_bits_sent += math.ceil(math.log2(num + 1))
    if run.estimate is not None:
        run.recovered_estimate = run.estimate - pad_mean
    run.server_view_truth = run.truth + pad_mean
    run.pads = {"g": pads_used if pad_per_round else pads_used[0]}
    return run


def run_blind_client(
    x,
    y,
    t: int,
    rng: np.random.Generator | None = None,
    force_basis=None,
    force_pad=None,
    return_distribution: bool = False,
    round_hook=None,
) -> ProtocolRun:
    """Product-mean estimation where the server hides its bits behind
    per-round random basis choices and phase pads. Bases and pads are
    redrawn every round; the pipeline restores the exact baseline branch
    phases each round, so the readout statistics match the baseline."""
    ex = _Execution("blind-client", x, [y])
    num, x = ex.num_values, ex.x
    fixed_r = ex.fixed_draw(force_basis, "force_basis")
    fixed_h = ex.fixed_draw(force_pad, "force_pad")
    if (fixed_r is None or fixed_h is None) and rng is None:
        raise GateError("need an rng to draw bases and pads")
    bases: list[np.ndarray] = []
    pads: list[np.ndarray] = []
    index, o1, ledger, xt = ex.index, ex.o1, ex.ledger, ex.x_table
    o2, oa = ex.work
    client = client_name(1)

    def steps(state):
        r_bits = fixed_r if fixed_r is not None else random_bits(num, rng)
        h_bits = fixed_h if fixed_h is not None else random_bits(num, rng)
        bases.append(r_bits)
        pads.append(h_bits)
        rt, ht = padded_table(r_bits, ex.n), padded_table(h_bits, ex.n)
        x_on, x_off = padded_table(x & r_bits, ex.n), padded_table(x & (1 - r_bits), ex.n)
        apply_ux1(state, index, o1, xt, rt, ledger)
        ex.hop(SERVER, client, o2)
        ex.correlate(state, 1, o2)
        ex.hop(client, SERVER, oa)
        apply_ux2(state, index, o1, oa, xt, rt, x_off, ledger)
        apply_ux3(state, index, ht, oa, ledger)
        ex.hop(SERVER, client, o2)
        ex.correlate(state, 1, o2)
        ex.hop(client, SERVER, oa)
        apply_ux4(state, index, o1, oa, x_on, rt, ht, ledger)

    run = ex.run(steps, t, rng, return_distribution, round_hook, 0)
    run.pads = {"basis": bases, "h": pads}
    return run


def parity_fraction(x, ys) -> float:
    """Classical oracle for the cascade: the mean over indices of the
    parity of the per-client products."""
    return _Execution("multiparty", x, ys).truth


def run_multiparty(
    x,
    ys,
    t: int,
    rng: np.random.Generator | None = None,
    pad_first_client: bool = True,
    pad_bits=None,
    return_distribution: bool = False,
    round_hook=None,
) -> ProtocolRun:
    """Cascaded estimation of the parity-of-products mean across m
    clients. Each client holds its own work qubit; only the index
    register and the carrier hop along the chain."""
    if len(ys) < 2:
        raise GateError("cascade needs at least two clients")
    ex = _Execution("multiparty", x, ys)
    g = ex.fixed_draw(pad_bits, "pad_bits") if pad_first_client else None
    if pad_first_client and g is None:
        if rng is None:
            raise GateError("need an rng to draw the pad")
        g = random_bits(ex.num_values, rng)
    g_table = None if g is None else padded_table(g, ex.n)
    index, o1, ledger, xt = ex.index, ex.o1, ex.ledger, ex.x_table

    def steps(state):
        apply_data_oracle(state, index, o1, xt, ledger, "Ux")
        holder = SERVER
        for k, work in enumerate(ex.work, start=1):
            party = client_name(k)
            ex.hop(holder, party, work)
            holder = party
            ex.correlate(state, k, work)
            if k == 1 and g_table is not None:
                apply_phase_pad(state, index, g_table, work, ledger, "Ug")
        ex.hop(holder, SERVER)
        apply_data_oracle(state, index, o1, xt, ledger, "Ux")

    run = ex.run(steps, t, rng, return_distribution, round_hook, 0)
    if g is not None:
        run.server_view_truth = float(np.sum(ex.joint ^ g)) / ex.num_values
        run.pads = {"g": g}
    return run
