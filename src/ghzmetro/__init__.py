"""Exact metrology of GHZ-diagonal bound-entangled states.

Construction of the binomial GHZ-diagonal families, their quantum Fisher
information for z-axis phase estimation (three mutually checking routes),
partial-transpose certificates across arbitrary qubit cuts, the
Hilbert-Schmidt bound on multi-setting correlation Bell inequalities, and a
seeded Monte Carlo phase-estimation loop against the Cramer-Rao bound.
"""

__version__ = "0.1.0"

from .errors import (
    CrossCheckError,
    DomainError,
    FisherSingularityError,
    GhzmetroError,
    LikelihoodDegeneracyError,
    SizeLimitError,
)
from .states import (
    GhzDiagonalState,
    binom_normalizer,
    build_rho_nk,
    build_rho_nkm,
    canonical_index,
    dense_limit,
    ghz_basis_vector,
    ghz_state,
    is_band_symmetric,
    maximally_mixed_state,
    min_ones,
    sector_eigenvalues,
    to_dense,
    weight,
)
from .ptranspose import (
    CutStatus,
    OmegaSet,
    PtSpectrum,
    QubitSubset,
    cut_classification,
    min_pt_eigenvalue,
    omega_set,
    ppt_single_qubit_certificate,
    pt_dense_oracle,
    pt_spectrum,
    transpose_partner,
)
from .qfi import (
    PhaseGenerator,
    QfiReport,
    asymptotic_report,
    family_report,
    nk_limit_ratio,
    qfi_closed_nk,
    qfi_from_dense,
    qfi_ghz_diagonal,
    qfi_lower_bound_nk,
    qfi_lower_bound_nkm,
    qfi_spectral,
    s_factor,
    scaled_k,
    separability_test,
)
from .bell import (
    CorrelationTensorSummary,
    DetectionRow,
    brute_force_tensor,
    correlation_summary,
    detection_comparison,
    hs_norm_sq,
    hs_norm_sq_exact,
    pauli_expectation,
)
from .estimation import (
    RNG_ALGORITHM,
    EstimationRun,
    GlobalParity,
    SectorParity,
    classical_fisher,
    classical_fisher_fd,
    evolve,
    evolved_dense,
    get_model,
    outcome_distribution,
    run_monte_carlo,
)
