"""Exact metrology of GHZ-diagonal bound-entangled states.

Construction of the binomial GHZ-diagonal families, their quantum Fisher
information for z-axis phase estimation, partial-transpose certificates
across arbitrary qubit cuts, the Hilbert-Schmidt bound on multi-setting
correlation Bell inequalities, and a seeded Monte Carlo phase-estimation
loop against the Cramer-Rao bound.  The independent oracles that check the
exact routes live in ``oracles``.
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
    weight,
)
from .ptranspose import (
    CutStatus,
    QubitSubset,
    cut_classification,
    omega_set,
    ppt_single_qubit_certificate,
)
from .qfi import (
    QfiReport,
    family_report,
    qfi_closed_nk,
    qfi_ghz_diagonal,
    qfi_lower_bound_nk,
    qfi_lower_bound_nkm,
    s_factor,
    scaled_k,
)
from .bell import (
    DetectionRow,
    detection_comparison,
    hs_norm_sq,
)
from .oracles import (
    CorrelationTensorSummary,
    PhaseGenerator,
    PtSpectrum,
    brute_force_tensor,
    hs_norm_sq_exact,
    pt_dense_oracle,
    pt_spectrum,
    qfi_from_dense,
    qfi_spectral,
    to_dense,
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
