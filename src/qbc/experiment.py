"""Batch experiment harness: config validation, per-trial seed
derivation, the simulator size cap, and table/record emission.

Per-trial generators come from numpy's SeedSequence fed with
[master_seed, trial_index], so trials are independent, reproducible,
and order-insensitive. Randomly generated input vectors use a dedicated
stream index so they stay fixed across all trials of a run.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .adversary import (
    RedundancyRule,
    overlap_mc_pmf,
    overlap_pmf,
    pr_exact_recovery,
    redundant_encode,
    redundant_rescale,
)
from .ledger import VARIANTS
from .oracles import CorrelationMode, load_bitstrings, random_bits
from .protocol import (
    ProtocolRun,
    index_width_for,
    run_blind_client,
    run_blind_server,
    run_multiparty,
    run_qbc_baseline,
    transcript_lines,
    work_owners,
)
from .statevector import GateError

DEFAULT_MAX_QUBITS = 22
INPUT_STREAM = 1 << 32  # trial indices stay below this


class CapExceeded(RuntimeError):
    def __init__(self, required: int, available: int):
        super().__init__(
            f"simulation needs {required} qubits but the cap is {available}; "
            "raise QBC_MAX_QUBITS to override"
        )
        self.required = required
        self.available = available


def max_qubits() -> int:
    raw = os.environ.get("QBC_MAX_QUBITS", "").strip()
    if not raw:
        return DEFAULT_MAX_QUBITS
    if not raw.isdecimal() or int(raw) < 1:
        raise GateError(f"QBC_MAX_QUBITS must be a positive integer, got {raw!r}")
    return int(raw)


def qubit_budget(protocol: str, index_width: int, t: int, num_clients: int = 1) -> int:
    """Index, readout, carrier and work qubits of one execution."""
    return index_width + t + 1 + len(work_owners(protocol, num_clients))


def check_cap(protocol: str, index_width: int, t: int, num_clients: int = 1) -> int:
    needed = qubit_budget(protocol, index_width, t, num_clients)
    cap = max_qubits()
    if needed > cap:
        raise CapExceeded(needed, cap)
    return needed


def check_index_cap(index_width: int):
    """The cap on a state that is an index register alone."""
    if index_width > max_qubits():
        raise CapExceeded(index_width, max_qubits())


def require_at_least(flag: str, value: int, least: int):
    if value < least:
        raise GateError(f"{flag} must be at least {least}, got {value}")


def derive_rng(master_seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, stream]))


@dataclass
class ExperimentConfig:
    protocol: str
    num_values: int
    t: int
    trials: int = 1
    seed: int = 0
    mode: CorrelationMode = CorrelationMode.AND
    num_clients: int = 2
    x_path: str | None = None
    y_path: str | None = None
    random_inputs: bool = False
    include_transcript: bool = False
    redundancy_m: int = 1
    redundancy_rule: str = RedundancyRule.HIDE_AMONG_ZEROS.value

    def __post_init__(self):
        if self.protocol not in VARIANTS:
            raise GateError(f"unknown protocol {self.protocol!r}; choose from {VARIANTS}")
        for flag, value in (("--n", self.num_values), ("--t", self.t), ("--trials", self.trials),
                            ("--redundancy-m", self.redundancy_m)):
            require_at_least(flag, value, 1)
        require_at_least("--seed", self.seed, 0)
        if not isinstance(self.mode, CorrelationMode):
            raise GateError(f"--mode must be a CorrelationMode, got {self.mode!r}")
        if self.protocol == "multiparty":
            require_at_least("--m", self.num_clients, 2)
        files_given = self.x_path is not None or self.y_path is not None
        if files_given == self.random_inputs:
            raise GateError("give --x-file and --y-file, or --random-inputs, not both")
        if files_given and (self.x_path is None or self.y_path is None):
            raise GateError("--x-file and --y-file must both be given")
        if self.mode is not CorrelationMode.AND and self.protocol != "baseline":
            raise GateError(f"--mode {self.mode.value} needs --protocol baseline")
        rules = [rule.value for rule in RedundancyRule]
        if self.redundancy_rule not in rules:
            raise GateError(f"--redundancy-rule must be one of {rules}, "
                            f"got {self.redundancy_rule!r}")
        if self.redundancy_m > 1:
            if self.protocol == "multiparty":
                raise GateError("--redundancy-m needs a two-party --protocol; "
                                "redundant encoding is a two-party construction")
            if self.mode is not CorrelationMode.AND:
                raise GateError(f"--redundancy-m decodes product means only, "
                                f"not --mode {self.mode.value}")

    @property
    def effective_num_values(self) -> int:
        return self.num_values * self.redundancy_m

    @property
    def index_width(self) -> int:
        return index_width_for(self.effective_num_values)

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "include_transcript"}
        d["mode"] = self.mode.value
        return d


def read_input_file(flag: str, path, count: int, width: int) -> list[np.ndarray]:
    """The bit vectors of an input file, which must hold exactly the
    `count` vectors of `width` bits that its command reads."""
    try:
        rows = load_bitstrings(path, expect_width=width)
    except OSError as exc:
        raise GateError(f"{flag} {path}: {exc.strerror or exc}") from None
    except GateError as exc:  # load_bitstrings names the path
        raise GateError(f"{flag} {exc}") from None
    if len(rows) != count:
        raise GateError(f"{flag} {path} holds {len(rows)} vectors; this command reads "
                        f"exactly {count}")
    return rows


def load_inputs(cfg: ExperimentConfig) -> tuple[np.ndarray, list[np.ndarray]]:
    """The x vector and the per-client y vectors for a config."""
    count = cfg.num_clients if cfg.protocol == "multiparty" else 1
    if cfg.random_inputs:
        rng = derive_rng(cfg.seed, INPUT_STREAM)
        x = random_bits(cfg.num_values, rng)
        return x, [random_bits(cfg.num_values, rng) for _ in range(count)]
    (x,) = read_input_file("--x-file", cfg.x_path, 1, cfg.num_values)
    return x, read_input_file("--y-file", cfg.y_path, count, cfg.num_values)


def run_protocol(cfg: ExperimentConfig, x, ys, rng) -> ProtocolRun:
    if cfg.protocol == "baseline":
        return run_qbc_baseline(x, ys[0], cfg.t, cfg.mode, rng)
    if cfg.protocol == "blind-server":
        return run_blind_server(x, ys[0], cfg.t, rng)
    if cfg.protocol == "blind-client":
        return run_blind_client(x, ys[0], cfg.t, rng)
    return run_multiparty(x, ys, cfg.t, rng)


def run_experiment(cfg: ExperimentConfig) -> list[dict]:
    """One JSON-ready record per trial."""
    check_cap(cfg.protocol, cfg.index_width, cfg.t, cfg.num_clients)
    x, ys = load_inputs(cfg)
    rule = RedundancyRule(cfg.redundancy_rule)
    records = []
    for trial in range(cfg.trials):
        rng = derive_rng(cfg.seed, trial)
        start = time.perf_counter()
        run_x, run_ys = x, ys
        if cfg.redundancy_m > 1:
            run_x, y_wide, _ = redundant_encode(x, ys[0], cfg.redundancy_m, rule, rng)
            run_ys = [y_wide]
        run = run_protocol(cfg, run_x, run_ys, rng)
        if cfg.redundancy_m > 1:  # decode the widened instance back to the true mean
            run.recovered_estimate = float(redundant_rescale(
                run.best_estimate, cfg.redundancy_m, rule, int(np.sum(x)), cfg.num_values))
            run.truth = float(np.sum(x & ys[0])) / cfg.num_values
        record = {
            "run_id": trial,
            "estimate": run.estimate,
            "recovered_estimate": run.recovered_estimate,
            "truth": run.truth,
            "server_view_truth": run.server_view_truth,
            "abs_error": run.abs_error,
            "outcome_j": run.result.j,
            "ledger": run.ledger.as_dict(),
            "elapsed_s": time.perf_counter() - start,
        }
        if cfg.include_transcript:
            record["transcript"] = transcript_lines(run)
        records.append(record)
    return records


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def records_to_json(cfg: ExperimentConfig, records: list[dict]) -> str:
    return _json({"config": cfg.as_dict(), "records": records})


CSV_COLUMNS = ("run_id", "estimate", "recovered_estimate", "truth", "server_view_truth",
               "abs_error", "outcome_j")


def records_to_csv(records: list[dict]) -> str:
    rows = [CSV_COLUMNS] + [["" if r[c] is None else repr(r[c]) for c in CSV_COLUMNS]
                            for r in records]
    return "".join(",".join(row) + "\n" for row in rows)


PRIVACY_HEADER = "N,d,t,d0,formula,mc,trials,z_score"


def privacy_table_overlap(grid, rng, trials: int = 100_000) -> str:
    """CSV of overlap probabilities, formula vs Monte Carlo, over rows of
    (N, d_y, t). One MC batch per row serves every d_0."""
    lines = [PRIVACY_HEADER]
    for num_values, d_y, t in grid:
        try:
            formula = overlap_pmf(num_values, d_y, t)
        except GateError as exc:
            raise GateError(f"--grid row '{num_values},{d_y},{t}': {exc}") from None
        mc = overlap_mc_pmf(num_values, d_y, t, rng, trials)
        for d0 in range(d_y + 1):
            sigma = math.sqrt(max(formula[d0] * (1 - formula[d0]), 0.0) / trials)
            z = 0.0 if sigma == 0 else (mc[d0] - formula[d0]) / sigma
            lines.append(
                f"{num_values},{d_y},{t},{d0},{formula[d0]:.10f},{mc[d0]:.10f},{trials},{z:.4f}"
            )
    return "\n".join(lines) + "\n"


def privacy_table_recovery(grid) -> str:
    """CSV of exact-recovery probabilities over rows of (N, d_x, count):
    the printed closed form next to the combinatorial model value (exact,
    so the trials and z-score columns are zero)."""
    lines = [PRIVACY_HEADER]
    for num_values, d_x, count in grid:
        row = f"--grid row '{num_values},{d_x},{count}'"
        try:
            printed, model = pr_exact_recovery(num_values, d_x, count)
        except GateError as exc:
            raise GateError(f"{row}: {exc}") from None
        except OverflowError as exc:
            raise GateError(f"{row}: the printed value is past the float range") from exc
        lines.append(f"{num_values},{d_x},,{count},{printed:.10f},{model:.10f},0,0.0000")
    return "\n".join(lines) + "\n"
