"""Exact simulation of engineered XY chains that nest and shuttle Bell pairs.

An alternating pattern of YY and XX bonds at perfect-transfer strengths
turns a single product state into concentric Bell pairs after a quarter
period.  This package provides the sparse Pauli machinery, exact
propagators, the pairing schedule, its verification (also on 2N x 2N
Majorana covariances, without a state), extraction and GHZ protocols,
and field robustness sweeps.  The package runs on numpy alone; only
``bellchain.oracle``, a dense ``expm`` evolution that serves the
benchmark's output checks (``bench/checks.py``) and that the package
itself never imports, needs scipy.
"""

from .analysis import (
    REFERENCE_FIELD_RATIOS,
    SweepResult,
    concurrence,
    field_sweep,
    purity,
    reference_point_fidelity,
    state_fidelity,
    sweep_summary,
    sweep_to_csv,
)
from .chain import (
    ChainSpec,
    HamiltonianTerms,
    Pattern,
    build_hamiltonian,
    load_chain_config,
    matryoshka_couplings,
    perfect_transfer_couplings,
    save_chain_config,
)
from .errors import (
    BellchainError,
    ConvergenceError,
    DimensionMismatchError,
    PairNotPureError,
    ValidationError,
)
from .evolve import Propagator, heisenberg_evolve, matryoshka_time
from .fermion import verify_free_fermion
from .matryoshka import (
    BellLabel,
    FluxMatch,
    InitialState,
    MatryoshkaSchedule,
    PairReport,
    VerificationReport,
    bell_product_amplitudes,
    bell_schedule,
    bell_state,
    closest_bell,
    flux_check,
    ideal_matryoshka_state,
    mirror_pair_sign,
    verify_matryoshka,
)
from .pauli import (
    DensityMatrix,
    PauliString,
    StateVector,
    bit_label,
    gate_apply,
    reduced_density,
)
from .protocols import (
    ChainClass,
    ConveyorRecord,
    ExtractionResult,
    GhzResult,
    conveyor_run,
    extract_pair,
    ghz_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "BellLabel",
    "BellchainError",
    "ChainClass",
    "ChainSpec",
    "ConvergenceError",
    "ConveyorRecord",
    "DensityMatrix",
    "DimensionMismatchError",
    "ExtractionResult",
    "FluxMatch",
    "GhzResult",
    "HamiltonianTerms",
    "InitialState",
    "MatryoshkaSchedule",
    "PairNotPureError",
    "PairReport",
    "Pattern",
    "PauliString",
    "Propagator",
    "REFERENCE_FIELD_RATIOS",
    "StateVector",
    "SweepResult",
    "ValidationError",
    "VerificationReport",
    "bell_product_amplitudes",
    "bell_schedule",
    "bell_state",
    "bit_label",
    "build_hamiltonian",
    "closest_bell",
    "concurrence",
    "conveyor_run",
    "extract_pair",
    "field_sweep",
    "flux_check",
    "gate_apply",
    "ghz_protocol",
    "heisenberg_evolve",
    "ideal_matryoshka_state",
    "load_chain_config",
    "matryoshka_couplings",
    "matryoshka_time",
    "mirror_pair_sign",
    "perfect_transfer_couplings",
    "purity",
    "reduced_density",
    "reference_point_fidelity",
    "save_chain_config",
    "state_fidelity",
    "sweep_summary",
    "sweep_to_csv",
    "verify_free_fermion",
    "verify_matryoshka",
    "__version__",
]
