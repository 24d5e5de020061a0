"""Two-party and cascaded estimation protocols with channel accounting.

Every variant runs the same round trip once per Grover iterate. One
round of the baseline protocol:

    server encodes its bits into the carrier qubit o1,
    sends index register + o1 to the client          (n+1 qubits),
    client applies its data oracle, the correlation gate, uncomputes,
    sends index register + o1 back                   (n+1 qubits),
    server uncomputes; the counting layer applies the diffusion.

Every client does the same: its data oracle, the correlation gate and
the oracle again, on its one work qubit. So a variant supplies its
work-qubit owners (`work_owners`) and the server's own gates around
`trip`, the one round trip: server -> client 1 -> ... -> client m ->
server, with client 1 applying the variant's pad table, if any, on the
same work qubit; it keeps only those gates and its own pad rules.
Baseline, blind-server and multiparty share one round, `one_trip`: Ux,
the trip, Ux. `ProtocolSim` is the one execution object. It converts
the inputs to bits; computes their joint bits (x XOR y in XOR mode, else
the parity of the per-client products x AND y_k) and the truth from
them; lays out index qubits [0, n), o1 at n, one work qubit per client
in visiting order and then blind-client's server scratch oa; keeps the
run's rng, the block's holder, ledger and transcript; gives every pad or
basis draw by one rule (`draw`: the caller's fixed bits, checked against
the data length, else the variant's own draw or uniform bits from the
rng, which must then be there), checked before any round runs; frames
each round (begin, the server's hold on the carrier, the steps, end, the
round hook); and samples the counting readout or returns its law.
The round counter is the ledger's `grover_rounds`. `transfer` notes
each hop of the round under way, and `end_round` writes them as
transcript rows, once the round's oracle-call count is known.

The oracles take padded tables, built when their bits are drawn: the
driver builds those of x, of each client's y and of a fixed pad g once
per run, a redrawn blind-server pad's each round, and the blind-client
step its basis and pad tables each round.

The counting layer runs each round once on a probe of the index + work
block (see `qbc.counting`), `block_qubits` wide. The index register and
o1 travel as one carried block, whose holder is checked at each hop, at
round start and at round end; each work qubit stays with its party from
`work_owners`. Gates are not checked against the party that applies
them (ROADMAP.md item 4). A
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
    """A party sent or needed the carried block while another held it."""


def index_width_for(num_values: int) -> int:
    if num_values < 1:
        raise GateError("need at least one data value")
    return max(1, (num_values - 1).bit_length())


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
    transcript: list[tuple]  # (round, src, dst, qubits, oracle_calls) per hop
    pads: dict = field(default_factory=dict)
    distribution: np.ndarray | None = None

    @property
    def best_estimate(self) -> float | None:
        """The pad-corrected estimate where there is one, else the raw one."""
        return self.estimate if self.recovered_estimate is None else self.recovered_estimate

    @property
    def abs_error(self) -> float | None:
        return None if self.estimate is None else abs(self.best_estimate - self.truth)


def transcript_lines(run: ProtocolRun) -> list[str]:
    return ["round,from,to,qubits,oracle_calls"] + [
        ",".join(map(str, row)) for row in run.transcript
    ]


def work_owners(variant: str, num_clients: int = 1) -> list[str]:
    """Holders of a variant's work qubits n+1, n+2, ... after the carrier
    o1 = n: one per client, in visiting order, then blind-client's server
    scratch. Runs and the qubit budget both size themselves from it."""
    client = client_name(1)
    if variant in ("baseline", "blind-server"):
        return [client]
    if variant == "blind-client":
        return [client, SERVER]
    if variant == "multiparty":
        return [client_name(k) for k in range(1, num_clients + 1)]
    raise GateError(f"unknown protocol {variant!r}")


class ProtocolSim:
    """One protocol execution: the inputs as bits, their joint bits and
    truth, the data tables, the layout, the rng, the block's holder,
    ledger and transcript, and the draws, round frame, round trip and
    readout that every variant shares."""

    def __init__(self, variant: str, x, ys, mode: CorrelationMode = CorrelationMode.AND,
                 rng: np.random.Generator | None = None):
        x = as_bits(x)
        self.ys = ys = [as_bits(y) for y in ys]
        self.variant = variant
        self.num_values = len(x)
        self.mode = mode
        self.rng = rng
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
        holders = work_owners(variant, len(ys))
        self.o1 = n
        self.block_qubits = n + 1 + len(holders)
        self.holder = SERVER  # of the carried block: the index register and o1
        # (name, work qubit, y table) of each client, in visiting order
        self.clients = [(holder, q, padded_table(y, n))
                        for q, holder, y in zip(range(n + 1, self.block_qubits), holders, ys)]
        self.ledger = ChannelLedger()
        self.transcript: list[tuple] = []
        self._hops: list[tuple] = []  # (src, dst, qubits) of the round under way
        self._round_call_base = 0

    @property
    def round_index(self) -> int:
        return self.ledger.grover_rounds

    def begin_round(self):
        self.ledger.grover_rounds += 1
        self._round_call_base = self.ledger.oracle_total()

    def end_round(self):
        calls = self.ledger.oracle_total() - self._round_call_base
        self.transcript += [(self.round_index, *hop, calls) for hop in self._hops]
        self._hops.clear()
        self.require_owner(SERVER)

    def require_owner(self, party: str):
        if self.holder != party:
            raise OwnershipError(f"round {self.round_index}: {party} needs the index "
                                 f"register and o1, held by {self.holder}")

    def transfer(self, src: str, dst: str):
        self.require_owner(src)
        self.holder = dst
        self.ledger.quantum_qubits_sent += self.n + 1
        self._hops.append((src, dst, self.n + 1))

    def draw(self, fixed, name: str, make=None):
        """The source of the pad or basis draw `name`: a function giving
        the caller-fixed bits, or else make(), or else uniform bits from
        the rng. Checked when called, so before any round runs: a fixed
        draw against the data length, otherwise the presence of an rng."""
        if fixed is not None:
            bits = as_bits(fixed)
            if len(bits) != self.num_values:
                raise GateError(f"{name} length must match the data length {self.num_values}")
            return lambda: bits
        if self.rng is None:
            raise GateError(f"need an rng to draw {name}")
        return make or (lambda: random_bits(self.num_values, self.rng))

    def trip(self, state, pad=None):
        """Send the index register and carrier from the server through
        clients 1..m and back. Each client runs its Uy, the correlation
        gate and Uy on its work qubit; client 1 then applies the pad
        table, if given, on the same qubit."""
        src = SERVER
        for client, work, y in self.clients:
            self.transfer(src, client)
            apply_data_oracle(state, work, y, self.ledger, "Uy")
            apply_correlation_gate(state, self.o1, work, self.mode)
            apply_data_oracle(state, work, y, self.ledger, "Uy")
            if pad is not None and src == SERVER:  # client 1
                apply_phase_pad(state, pad, work, self.ledger, "Ug")
            src = client
        self.transfer(src, SERVER)

    def one_trip(self, state, pad=None):
        """The single-trip round of baseline, blind-server and multiparty:
        the server encodes x into the carrier, one trip with the pad
        table, if given, and the server uncomputes x."""
        apply_data_oracle(state, self.o1, self.x_table, self.ledger, "Ux")
        self.trip(state, pad)
        apply_data_oracle(state, self.o1, self.x_table, self.ledger, "Ux")

    def run(self, steps, t, return_distribution, round_hook, result_bits):
        """Count over the rounds `steps` makes, then return the exact
        readout law or sample it and send result_bits to the client."""

        def grover_round(state):
            self.begin_round()
            self.require_owner(SERVER)
            steps(state)
            self.end_round()
            if round_hook is not None:
                round_hook(self.round_index, state)

        cfg = CountingConfig(self.n, t, grover_round, work_qubits=self.block_qubits - self.n)
        result = estimate = dist = None
        if return_distribution:
            dist = counting_distribution(cfg)
        elif self.rng is None:
            raise GateError("need an rng to sample the readout")
        else:
            result = run_counting(cfg, self.rng)
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
            transcript=self.transcript,
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
    sim = ProtocolSim("baseline", x, [y], mode, rng)
    return sim.run(sim.one_trip, t, return_distribution, round_hook, t)


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
    sim = ProtocolSim("blind-server", x, [y], rng=rng)
    num, (y,) = sim.num_values, sim.ys
    draw_g = sim.draw(pad_bits, "pad_bits", lambda: blind_server_pad(y, rng))
    g = draw_g()
    if pad_bits is not None and pad_per_round:
        raise GateError("a forced pad and per-round redraws are incompatible")
    if np.any(g & y):
        raise GateError("pad must be zero wherever the client bit is 1")
    pads_used: list[np.ndarray] = [g]
    g_table = padded_table(g, sim.n)

    def steps(state):
        nonlocal g_table
        if pad_per_round and sim.round_index > 1:
            pads_used.append(draw_g())
            g_table = padded_table(pads_used[-1], sim.n)
        sim.one_trip(state, g_table)

    run = sim.run(steps, t, return_distribution, round_hook, t)
    pad_mean = float(np.mean([np.sum(p) for p in pads_used])) / num
    if disclose_pad_sum:
        sim.ledger.classical_bits_sent += math.ceil(math.log2(num + 1))
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
    sim = ProtocolSim("blind-client", x, [y], rng=rng)
    draw_r = sim.draw(force_basis, "force_basis")
    draw_h = sim.draw(force_pad, "force_pad")
    bases: list[np.ndarray] = []
    pads: list[np.ndarray] = []
    # the server's scratch oa is the block's last qubit, after client 1's
    o1, oa, ledger, xt = sim.o1, sim.block_qubits - 1, sim.ledger, sim.x_table

    def steps(state):
        r_bits, h_bits = draw_r(), draw_h()
        bases.append(r_bits)
        pads.append(h_bits)
        rt, ht = padded_table(r_bits, sim.n), padded_table(h_bits, sim.n)
        apply_ux1(state, o1, xt, rt, ledger)
        sim.trip(state)
        apply_ux2(state, o1, oa, xt, rt, ledger)
        apply_ux3(state, ht, oa, ledger)
        sim.trip(state)
        apply_ux4(state, o1, oa, xt, rt, ht, ledger)

    run = sim.run(steps, t, return_distribution, round_hook, 0)
    run.pads = {"basis": bases, "h": pads}
    return run


def parity_fraction(x, ys) -> float:
    """Classical oracle for the cascade: the mean over indices of the
    parity of the per-client products."""
    return ProtocolSim("multiparty", x, ys).truth


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
    if pad_bits is not None and not pad_first_client:
        raise GateError("pad_bits needs pad_first_client=True")
    sim = ProtocolSim("multiparty", x, ys, rng=rng)
    g = sim.draw(pad_bits, "pad_bits")() if pad_first_client else None
    g_table = None if g is None else padded_table(g, sim.n)
    run = sim.run(lambda state: sim.one_trip(state, g_table), t, return_distribution,
                  round_hook, 0)
    if g is not None:
        run.server_view_truth = float(np.sum(sim.joint ^ g)) / sim.num_values
        run.pads = {"g": g}
    return run
