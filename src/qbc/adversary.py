"""Attack strategies and privacy quantities for the estimation protocols.

Covers the probe attack a curious counterpart can mount on the carrier
qubit, the X-basis uniformity check that catches biased index
preparation, the Holevo bound of the probe ensemble, closed-form
recovery/overlap probabilities with Monte Carlo validation, per-copy
distinguishability of the basis-hidden carrier, and the redundant
encoding that dilutes per-index hits.

Conventions: bit vectors are 0/1 arrays; supp(v) is the set of indices
with bit 1; probability vectors are indexed by the integer statistic
they describe.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .oracles import as_bits, blind_server_pad
from .protocol import ProtocolSim, index_width_for
from .statevector import (
    DensityMatrix,
    GateError,
    StateVector,
    trace_distance,
    von_neumann_entropy,
)


class AttackStrategy(enum.Enum):
    PLUS_PROBE = "plus-probe"
    BIASED_INDEX = "biased-index"
    BLIND_SERVER_WORST = "blind-server-worst"


@dataclass
class PrivacyReport:
    """One showcase guess plus the distribution of the attack's summary
    statistic (learned-set size for the probe, support overlap for the
    worst-case server) compared formula vs Monte Carlo."""

    strategy: str
    guessed: str
    hamming_to_truth: int
    known_positions: int
    distance_pmf: dict[int, float] = field(default_factory=dict)
    mc_pmf: dict[int, float] = field(default_factory=dict)
    trials: int = 0

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "guessed": self.guessed,
            "hamming_to_truth": self.hamming_to_truth,
            "known_positions": self.known_positions,
            "distance_pmf": {str(k): v for k, v in sorted(self.distance_pmf.items())},
            "mc_pmf": {str(k): v for k, v in sorted(self.mc_pmf.items())},
            "trials": self.trials,
        }


MC_BLOCK_VALUES = 1 << 16  # a block and its temporaries trace about 2 MB at N = 128


def _row_blocks(trials: int, cols: int):
    """Row counts of consecutive Monte Carlo blocks of about
    MC_BLOCK_VALUES draws each, covering `trials` rows of `cols` draws.
    Drawing block by block consumes the rng exactly as one
    (trials, cols) draw would, so results do not depend on the block."""
    rows = max(1, MC_BLOCK_VALUES // max(1, cols))
    for start in range(0, trials, rows):
        yield min(rows, trials - start)


# -- probe attack on the carrier qubit --------------------------------------


def _probe_round_quantum(y, rng) -> tuple[int, int]:
    """One live probe: a uniform index and a |+> carrier through the
    honest client's block (the round trip of a baseline run whose x is
    all zero), then Z on the index and X on the carrier."""
    sim = ProtocolSim("baseline", np.zeros(len(y), dtype=np.uint8), [y])
    sv = StateVector(len(sim.owners))
    for q in sim.carried:
        sv.h(q)
    sim.trip(sv)
    j = 0
    for q in range(sim.n):
        j = (j << 1) | sv.measure(q, rng)
    sv.h(sim.o1)
    return j, sv.measure(sim.o1, rng)


def attack_plus_probe(
    y,
    t: int,
    rng: np.random.Generator,
    rounds: int | None = None,
    quantum: bool | None = None,
    trials: int = 0,
    fill_unknown: bool = False,
) -> PrivacyReport:
    """Curious-party probe: send |+> on the carrier instead of data, read
    the counterpart's bit of the measured index in the X basis. Learns
    exactly one (j, y_j) per round.

    The X outcome is deterministic given j, so rounds beyond a small
    budget are simulated classically (uniform j, exact bit); quantum=True
    forces the statevector path, quantum=False the classical one. With
    trials > 0 the learned-set-size distribution over that many
    executions is reported against the occupancy formula. Both count
    only the N data cells of the padded 2**n index span.
    """
    y = as_bits(y)
    n = index_width_for(len(y))
    size = 1 << n
    if trials < 0:
        raise GateError(f"trials must be non-negative, got {trials}")
    if rounds is None:
        rounds = (1 << t) - 1
    use_quantum = quantum if quantum is not None else rounds <= 64
    learned: dict[int, int] = {}
    for _ in range(rounds):
        if use_quantum:
            j, bit = _probe_round_quantum(y, rng)
        else:
            j = int(rng.integers(0, size))
            bit = int(y[j]) if j < len(y) else 0
        if j < len(y):
            learned[j] = bit
    guess_chars = []
    hamming = 0
    for i in range(len(y)):
        if i in learned:
            guess_chars.append(str(learned[i]))
            hamming += int(learned[i] != y[i])
        elif fill_unknown:
            b = int(rng.integers(0, 2))
            guess_chars.append(str(b))
            hamming += int(b != y[i])
        else:
            guess_chars.append("?")
    report = PrivacyReport(
        strategy=AttackStrategy.PLUS_PROBE.value,
        guessed="".join(guess_chars),
        hamming_to_truth=hamming,
        known_positions=len(learned),
        distance_pmf={d: p for d, p in enumerate(_hits_pmf(rounds, len(y), size)) if p > 0},
        trials=trials,
    )
    if trials > 0:
        num = len(y)
        hist = np.zeros(num + 1, dtype=np.int64)
        for rows in _row_blocks(trials, rounds):
            draws = np.sort(rng.integers(0, size, size=(rows, rounds)), axis=1)
            np.minimum(draws, num, out=draws)  # the padding cells merge into one, num
            real_last = (draws[:, -1:] < num).sum(axis=1)
            counts = (np.diff(draws, axis=1) != 0).sum(axis=1) + real_last
            hist += np.bincount(counts, minlength=num + 1)
        report.mc_pmf = {d: float(p) for d, p in enumerate(hist / trials) if p > 0}
    return report


def occupancy_pmf(rounds: int, num_values: int) -> np.ndarray:
    """Distribution of the number of distinct cells hit by `rounds`
    uniform draws over `num_values` cells."""
    return _hits_pmf(rounds, num_values, num_values)


def _hits_pmf(rounds: int, num_values: int, cells: int) -> np.ndarray:
    """Distribution of the number of distinct cells among the first
    `num_values` hit by `rounds` uniform draws over `cells` cells; the
    probe draws over the padded index span, whose extra cells hold no
    data."""
    if num_values < 1 or rounds < 0:
        raise GateError("need a positive cell count and non-negative rounds")
    p = np.zeros(num_values + 1)
    p[0] = 1.0
    for _ in range(rounds):
        nxt = np.zeros_like(p)
        d = np.arange(num_values + 1)
        nxt += p * (d + cells - num_values) / cells
        nxt[1:] += p[:-1] * (num_values - d[:-1]) / cells
        p = nxt
    return p


# -- index-uniformity verification ------------------------------------------


def uniformity_accept_probability(state: StateVector, index) -> float:
    """Exact probability that X-basis measurements on the index register
    all read +."""
    probe = state.copy()
    for q in index:
        probe.h(q)
    values = probe.register_values(list(index))
    return float(np.sum(np.abs(probe.amps[values == 0]) ** 2))


def verify_index_uniformity(state: StateVector, index, rng: np.random.Generator) -> bool:
    """Sampled X-basis check of a received index register: accept iff
    every qubit reads +. The uniform superposition always accepts;
    amplitude-biased preparations reject with the complement of the
    |<+..+|psi>|^2 overlap."""
    probe = state.copy()
    accepted = True
    for q in index:
        probe.h(q)
        if probe.measure(q, rng) != 0:
            accepted = False
    return accepted


def biased_index_state(index_width: int, focus: int, focus_prob: float) -> StateVector:
    """Index register with `focus_prob` weight on one basis state and the
    rest spread uniformly, the amplitude-amplification preparation a
    cheating sender would use."""
    size = 1 << index_width
    if not 0 <= focus < size:
        raise GateError("focus index out of range")
    if not 0.0 <= focus_prob <= 1.0:
        raise GateError("focus probability must lie in [0, 1]")
    amps = np.full(size, math.sqrt((1.0 - focus_prob) / (size - 1)) if size > 1 else 0.0,
                   dtype=np.complex128)
    amps[focus] = math.sqrt(focus_prob)
    return StateVector(index_width, amps)


def attack_biased_index(
    index_width: int,
    focus: int,
    focus_prob: float,
    rng: np.random.Generator,
    trials: int = 1000,
) -> dict:
    """Amplitude-biased index preparation vs the X-basis check: reports
    the sampling advantage on the focus index and the exact and
    empirical detection rates."""
    if trials < 1:
        raise GateError(f"trials must be at least 1, got {trials}")
    state = biased_index_state(index_width, focus, focus_prob)
    accept = uniformity_accept_probability(state, range(index_width))
    rejected = sum(
        not verify_index_uniformity(state, range(index_width), rng) for _ in range(trials)
    )
    return {
        "strategy": AttackStrategy.BIASED_INDEX.value,
        "focus": focus,
        "focus_prob": focus_prob,
        "uniform_prob": 1.0 / (1 << index_width),
        "accept_probability": accept,
        "reject_probability": 1.0 - accept,
        "mc_reject_rate": rejected / trials,
        "trials": trials,
    }


# -- ensemble information bounds ---------------------------------------------


def holevo_quantity(y) -> float:
    """Holevo bound of the probe ensemble {|i>|a_i>, 1/N}: the carrier
    returns as (|0> + (-1)^{y_i}|1>)/sqrt(2) tagged by the measured index,
    so the ensemble average is block-pure and the bound is log2 N.

    Built by purifying against an index copy and tracing it out; N must
    be a power of two.
    """
    y = as_bits(y)
    num = len(y)
    if num < 2 or num & (num - 1):
        raise GateError("ensemble construction needs N a power of two, N >= 2")
    n = index_width_for(num)
    index = list(range(n))
    copy = list(range(n, 2 * n))
    o1 = 2 * n
    sv = StateVector(2 * n + 1)
    for q in index:
        sv.h(q)
    for a, b in zip(index, copy):
        sv.cnot(a, b)
    sv.h(o1)
    sv.z(o1, pred=y)
    rho = sv.reduced_density(index + [o1])
    avg_entropy = 0.0
    for yi in y:
        carrier = StateVector(1)
        carrier.h(0)
        if yi:
            carrier.z(0)
        avg_entropy += von_neumann_entropy(carrier.reduced_density([0]))
    avg_entropy /= num
    return von_neumann_entropy(rho) - avg_entropy


# -- recovery and overlap probabilities ---------------------------------------


def pr_exact_recovery(num_values: int, d_x: int, count: int) -> tuple[float, float]:
    """Chance that a party knowing only its own support size d_x and the
    revealed overlap count guesses the counterpart's full vector.

    Returns (printed_value, model_value): the printed closed form
    C(d_x, count) / 2^(N - d_x) exceeds 1 on some inputs and is reported
    for documentation only; the combinatorial model value
    1 / (C(d_x, count) * 2^(N - d_x)) is the actual uniform-guess
    probability over consistent candidates and always lies in [0, 1].
    """
    if not 0 <= count <= d_x <= num_values:
        raise GateError("need 0 <= count <= d_x <= N")
    comb = math.comb(d_x, count)
    free = 1 << (num_values - d_x)
    printed = comb / free
    model = 1 / (comb * free)  # int division: exact rounding, 0.0 past the float range
    return printed, model


def overlap_pmf(num_values: int, d_y: int, t: int) -> np.ndarray:
    """Distribution of |sampled set ∩ supp(y)| when k = min(2^t - 1, d_y)
    distinct indices are drawn uniformly; hypergeometric in d_0."""
    if not 0 <= d_y <= num_values:
        raise GateError("need 0 <= d_y <= N")
    k = min((1 << t) - 1, d_y)
    if k > num_values:
        raise GateError("cannot draw more distinct indices than exist")
    pmf = np.zeros(d_y + 1)
    denom = math.comb(num_values, k)
    for d0 in range(d_y + 1):
        if d0 <= k and k - d0 <= num_values - d_y:
            pmf[d0] = math.comb(d_y, d0) * math.comb(num_values - d_y, k - d0) / denom
    return pmf


def overlap_mc_pmf(
    num_values: int, d_y: int, t: int, rng: np.random.Generator, trials: int = 100_000
) -> np.ndarray:
    """Monte Carlo companion of overlap_pmf: k distinct uniform indices
    per trial, overlap counted against supp(y) = the first d_y cells
    (exchangeability makes the support's position irrelevant)."""
    k = min((1 << t) - 1, d_y)
    if k > num_values:
        raise GateError("cannot draw more distinct indices than exist")
    if trials < 1:
        raise GateError(f"trials must be at least 1, got {trials}")
    pmf = np.zeros(d_y + 1)
    if k == 0:
        pmf[0] = 1.0
        return pmf
    counts = np.zeros(d_y + 1, dtype=np.int64)
    for rows in _row_blocks(trials, num_values):
        scores = rng.random((rows, num_values))
        picks = np.argpartition(scores, k - 1, axis=1)[:, :k]
        counts += np.bincount(np.sum(picks < d_y, axis=1), minlength=d_y + 1)
    return counts / trials


def pr_hamming_overlap(
    num_values: int,
    d_y: int,
    t: int,
    d_0: int,
    rng: np.random.Generator | None = None,
    trials: int = 100_000,
) -> tuple[float, float]:
    """(formula, monte-carlo) probability that the sampled index set
    overlaps supp(y) in exactly d_0 positions; the MC slot is nan when no
    rng is supplied."""
    if not 0 <= d_0 <= d_y:
        raise GateError("need 0 <= d_0 <= d_y")
    formula = float(overlap_pmf(num_values, d_y, t)[d_0])
    mc = float("nan")
    if rng is not None:
        mc = float(overlap_mc_pmf(num_values, d_y, t, rng, trials)[d_0])
    return formula, mc


def attack_blind_server_worst_case(
    y,
    t: int,
    rng: np.random.Generator,
    trials: int = 0,
) -> PrivacyReport:
    """Worst case against the server-blinded variant: the dishonest
    party fixes its own bits to all-ones, so each extracted phase bit is
    y_j xor g_j. A 0 certifies y_j = 0 (the pad rule zeroes g on the
    counterpart's support); a 1 stays ambiguous. Per execution at most
    k = min(2^t - 1, d_y) informative support hits occur; the overlap
    distribution is the hypergeometric of overlap_pmf."""
    y = as_bits(y)
    num = len(y)
    d_y = int(np.sum(y))
    k = min((1 << t) - 1, d_y)
    if trials < 0:
        raise GateError(f"trials must be non-negative, got {trials}")
    pads = blind_server_pad(y, rng)
    sampled = rng.choice(num, size=min((1 << t) - 1, num), replace=False)
    guess_chars = ["?"] * num
    for j in sampled:
        bit = int(y[j] ^ pads[j])
        guess_chars[j] = "0" if bit == 0 else "?"
    known = sum(c != "?" for c in guess_chars)
    hamming = sum(1 for i, c in enumerate(guess_chars) if c != "?" and int(c) != y[i])
    report = PrivacyReport(
        strategy=AttackStrategy.BLIND_SERVER_WORST.value,
        guessed="".join(guess_chars),
        hamming_to_truth=hamming,
        known_positions=known,
        distance_pmf={d: float(p) for d, p in enumerate(overlap_pmf(num, d_y, t)) if p > 0},
        trials=trials,
    )
    if trials > 0:
        mc = overlap_mc_pmf(num, d_y, t, rng, trials)
        report.mc_pmf = {d: float(p) for d, p in enumerate(mc) if p > 0}
    return report


# -- per-copy distinguishability ----------------------------------------------


def blind_client_carrier_state(x_bit: int) -> DensityMatrix:
    """Carrier state a counterpart sees per copy under random basis
    encoding: equal mixture of |x> and H|x>."""
    if x_bit not in (0, 1):
        raise GateError("x_bit must be 0 or 1")
    z = np.zeros((2, 2), dtype=np.complex128)
    z[x_bit, x_bit] = 1.0
    plus = np.array([1.0, 1.0 - 2.0 * x_bit], dtype=np.complex128) / math.sqrt(2.0)
    return DensityMatrix(0.5 * z + 0.5 * np.outer(plus, plus.conj()))


def blind_client_distinguishability() -> dict:
    """Trace distance and Helstrom bound for telling x=0 from x=1 on a
    single basis-hidden copy."""
    rho0 = blind_client_carrier_state(0)
    rho1 = blind_client_carrier_state(1)
    td = trace_distance(rho0, rho1)
    return {
        "trace_distance": td,
        "helstrom_success": 0.5 * (1.0 + td),
    }


# -- redundant encoding --------------------------------------------------------


class RedundancyRule(enum.Enum):
    HIDE_AMONG_ZEROS = "hide-among-zeros"
    HIDE_AMONG_ONES = "hide-among-ones"


@dataclass(frozen=True)
class RedundantEncoding:
    copies: int
    rule: RedundancyRule
    slots: np.ndarray  # per-index hidden slot in [0, copies)


def redundant_encode(
    x,
    y,
    copies: int,
    rule: RedundancyRule,
    rng: np.random.Generator,
    literal_zero_fill: bool = False,
) -> tuple[np.ndarray, np.ndarray, RedundantEncoding]:
    """Spread each index over `copies` slots: the owner of x replicates
    its bit; the owner of y hides its bit in one secret slot per index.

    HIDE_AMONG_ZEROS fills the other slots with 0 (raw mean = mean/M);
    HIDE_AMONG_ONES fills them with 1, which shifts the raw mean by
    (M-1)/M of the x-mean. literal_zero_fill applies the shifted rule's
    printed variant that also scales the off-slot fill by y_i; it is
    exposed for documentation because its raw mean is not decodable
    without knowing y.
    """
    x = as_bits(x)
    y = as_bits(y)
    if len(x) != len(y):
        raise GateError("x and y must have equal length")
    if copies < 2:
        raise GateError("need at least two slots per index")
    slots = rng.integers(0, copies, size=len(x))
    x_wide = np.repeat(x, copies)
    y_wide = np.zeros(len(y) * copies, dtype=np.uint8)
    for i, (yi, j) in enumerate(zip(y, slots)):
        base = i * copies
        if rule is RedundancyRule.HIDE_AMONG_ZEROS:
            y_wide[base + j] = yi
        else:
            fills = yi if literal_zero_fill else 1
            y_wide[base : base + copies] = fills
            y_wide[base + j] = yi
    return x_wide, y_wide, RedundantEncoding(copies, rule, slots)


def redundant_rescale(raw_mean, copies: int, rule: RedundancyRule, sum_x=None, num_values=None):
    """Map a widened-instance mean back to the scale of the true one,
    unchecked, so a sampled estimate may land outside [0, 1]. Works on
    floats or Fractions; HIDE_AMONG_ONES needs the x-owner's sum_x and N
    to remove the fill shift."""
    if rule is RedundancyRule.HIDE_AMONG_ZEROS:
        return raw_mean * copies
    if sum_x is None or num_values is None:
        raise GateError("hide-among-ones decoding needs sum_x and the vector length")
    if isinstance(raw_mean, Fraction):
        shift = Fraction(sum_x, num_values)
    else:
        shift = sum_x / num_values
    return raw_mean * copies - (copies - 1) * shift


def redundant_decode(raw_mean, copies: int, rule: RedundancyRule, sum_x=None, num_values=None):
    """Invert an exact widened-instance mean back to the true one, which
    must lie in [0, 1]."""
    value = redundant_rescale(raw_mean, copies, rule, sum_x, num_values)
    if not -1e-9 <= float(value) <= 1.0 + 1e-9:
        raise GateError(f"decoded mean {float(value)} outside [0, 1]; inputs inconsistent")
    return value
