"""Exact metrology of GHZ-diagonal bound-entangled states.

Construction of the binomial GHZ-diagonal families, their quantum Fisher
information for z-axis phase estimation, partial-transpose certificates
across arbitrary qubit cuts, the Hilbert-Schmidt bound on multi-setting
correlation Bell inequalities, and a seeded Monte Carlo phase-estimation
loop against the Cramer-Rao bound.  The independent oracles that check the
exact routes live in ``oracles``.  The ``oracles`` and ``estimation`` names
are imported on first use: ``oracles`` needs numpy, and only ``estimate``
needs ``estimation``.
"""

import importlib
import types

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

# Lazy exports (PEP 562): only --oracle loads oracles and numpy, and only estimate
# loads estimation, so a command that prints exact rationals imports neither.
_LAZY = {
    "oracles": ("CorrelationTensorSummary", "PhaseGenerator", "PtSpectrum",
                "brute_force_tensor", "hs_norm_sq_exact", "pt_dense_oracle",
                "pt_spectrum", "qfi_from_dense", "qfi_spectral", "to_dense"),
    "estimation": ("RNG_ALGORITHM", "EstimationRun", "GlobalParity", "SectorParity",
                   "classical_fisher", "get_model", "run_monte_carlo"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}
# a star import reads the lazy names too, so it loads numpy
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)}
                 | set(_LAZY_MODULE))


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULE))
