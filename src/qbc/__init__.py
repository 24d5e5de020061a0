"""Statevector simulation of blind distributed inner-product estimation.

A server holding x and one or more clients holding y estimate
mean(x_i y_i) by phase estimation on a Grover iterate whose oracle is
assembled jointly, one channel round trip per application. Blinded
variants hide each party's bits from the other; the adversary module
quantifies what cheating strategies still learn.
"""
from types import ModuleType as _ModuleType

from .adversary import (
    AttackStrategy,
    PrivacyReport,
    RedundancyRule,
    RedundantEncoding,
    attack_biased_index,
    attack_blind_server_worst_case,
    attack_plus_probe,
    biased_index_state,
    blind_client_carrier_state,
    blind_client_distinguishability,
    holevo_quantity,
    occupancy_pmf,
    overlap_mc_pmf,
    overlap_pmf,
    pr_exact_recovery,
    pr_hamming_overlap,
    redundant_decode,
    redundant_encode,
    uniformity_accept_probability,
    verify_index_uniformity,
)
from .bitplane import (
    BitPlaneDecomposition,
    RegressionResult,
    decompose_bitplanes,
    regression_demo,
    regression_error_bound,
)
from .counting import (
    CountingConfig,
    EstimateResult,
    counting_distribution,
    estimate_from_outcome,
    phase_estimation_distribution,
    run_counting,
)
from .experiment import (
    CapExceeded,
    ExperimentConfig,
    check_cap,
    derive_rng,
    max_qubits,
    privacy_table_overlap,
    privacy_table_recovery,
    qubit_budget,
    run_experiment,
)
from .ledger import VARIANTS, ChannelLedger, expected_ledger
from .oracles import (
    CorrelationMode,
    apply_correlation_gate,
    apply_data_oracle,
    apply_phase_pad,
    as_bits,
    bits_from_string,
    blind_server_pad,
    load_bitstrings,
    random_bits,
)
from .protocol import (
    OwnershipError,
    ProtocolRun,
    ProtocolSim,
    client_name,
    index_width_for,
    parity_fraction,
    run_blind_client,
    run_blind_server,
    run_multiparty,
    run_qbc_baseline,
    transcript_lines,
)
from .statevector import (
    DensityMatrix,
    GateError,
    InvariantViolation,
    StateVector,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"

# every name the imports above bind, less the submodules they load
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
