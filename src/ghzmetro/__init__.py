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
    BandState,
    GhzDiagonalState,
    binom_normalizer,
    build_rho_nk,
    build_rho_nkm,
    canonical_index,
    ghz_state,
    maximally_mixed_state,
    min_ones,
    to_dense,
    weight,
)
from .ptranspose import (
    CutStatus,
    PtSpectrum,
    QubitSubset,
    cut_classification,
    omega_set,
    ppt_single_qubit_certificate,
    pt_dense_oracle,
    pt_spectrum,
)
from .qfi import (
    PhaseGenerator,
    QfiReport,
    family_report,
    qfi_closed_nk,
    qfi_from_dense,
    qfi_ghz_diagonal,
    qfi_lower_bound_nk,
    qfi_lower_bound_nkm,
    qfi_spectral,
    s_factor,
    scaled_k,
)
from .bell import (
    CorrelationTensorSummary,
    DetectionRow,
    brute_force_tensor,
    detection_comparison,
    hs_norm_sq,
    hs_norm_sq_exact,
)
from .estimation import (
    RNG_ALGORITHM,
    EstimationRun,
    GlobalParity,
    SectorParity,
    classical_fisher,
    get_model,
    run_monte_carlo,
)
