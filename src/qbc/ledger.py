"""Channel accounting for protocol runs.

Everything here is exact integer bookkeeping: qubits sent over the
quantum channel, classical bits, named oracle invocations, and Grover
rounds. expected_ledger() gives the closed-form counts a run must hit,
derived per variant from one channel round trip per Grover iterate of
n+1 qubits per hop (n index qubits plus the carrier work qubit).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field


@dataclass
class ChannelLedger:
    quantum_qubits_sent: int = 0
    classical_bits_sent: int = 0
    oracle_calls: dict = field(default_factory=dict)
    grover_rounds: int = 0

    def count_oracle(self, name: str):
        self.oracle_calls[name] = self.oracle_calls.get(name, 0) + 1

    def oracle_total(self, *names) -> int:
        if not names:
            return sum(self.oracle_calls.values())
        return sum(self.oracle_calls.get(n, 0) for n in names)

    def as_dict(self) -> dict:
        out = asdict(self)
        out["oracle_calls"] = dict(sorted(self.oracle_calls.items()))
        return out


VARIANTS = ("baseline", "blind-server", "blind-client", "multiparty")


def expected_ledger(
    variant: str,
    index_width: int,
    t: int,
    num_clients: int = 1,
    pad_first_client: bool = True,
    disclose_pad_sum: bool = False,
    num_values: int | None = None,
) -> ChannelLedger:
    """Exact expected channel usage for one protocol execution."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    n = index_width
    rounds = (1 << t) - 1
    led = ChannelLedger(grover_rounds=rounds)
    if variant == "baseline":
        led.quantum_qubits_sent = 2 * (n + 1) * rounds
        led.classical_bits_sent = t
        led.oracle_calls = {"Ux": 2 * rounds, "Uy": 2 * rounds}
    elif variant == "blind-server":
        led.quantum_qubits_sent = 2 * (n + 1) * rounds
        led.classical_bits_sent = t
        if disclose_pad_sum:
            if num_values is None:
                raise ValueError("pad-sum disclosure size needs num_values")
            led.classical_bits_sent += math.ceil(math.log2(num_values + 1))
        led.oracle_calls = {"Ux": 2 * rounds, "Uy": 2 * rounds, "Ug": 2 * rounds}
    elif variant == "blind-client":
        led.quantum_qubits_sent = 4 * (n + 1) * rounds
        led.classical_bits_sent = 0
        led.oracle_calls = {
            "Ux": 5 * rounds,
            "Uy": 4 * rounds,
            "Uh": 4 * rounds,
            "UX1": rounds,
            "UX2": rounds,
            "UX3": rounds,
            "UX4": rounds,
        }
    else:
        m = num_clients
        if m < 2:
            raise ValueError("cascade needs at least two clients")
        led.quantum_qubits_sent = (m + 1) * (n + 1) * rounds
        led.classical_bits_sent = 0
        led.oracle_calls = {"Ux": 2 * rounds, "Uy": 2 * m * rounds}
        if pad_first_client:
            led.oracle_calls["Ug"] = 2 * rounds
    return led
