"""Exact metrology of GHZ-diagonal bound-entangled states.

Construction of the binomial GHZ-diagonal families, their quantum Fisher
information for z-axis phase estimation, partial-transpose certificates
across arbitrary qubit cuts, the Hilbert-Schmidt bound on multi-setting
correlation Bell inequalities, and a seeded Monte Carlo phase-estimation
loop against the Cramer-Rao bound.  The independent oracles that check the
exact routes live in ``oracles``.  Every export is imported on first use
(PEP 562) from the module that ``_EXPORTS`` lists it under: ``import
ghzmetro`` loads no submodule, ``oracles`` alone needs numpy, and each
command of the CLI loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each module, to the names the package exports from it.
_EXPORTS = {
    "errors": ("CrossCheckError", "DomainError", "GhzmetroError", "LikelihoodDegeneracyError",
               "SizeLimitError"),
    "states": ("BandState", "GhzDiagonalState", "binom_normalizer", "build_rho_nk",
               "build_rho_nkm", "canonical_index", "ghz_state", "maximally_mixed_state",
               "min_ones", "weight"),
    "ptranspose": ("CutStatus", "QubitSubset", "cut_classification",
                   "ppt_single_qubit_certificate"),
    "qfi": ("QfiReport", "family_report", "qfi_closed_nk", "qfi_ghz_diagonal",
            "qfi_lower_bound_nk", "qfi_lower_bound_nkm", "s_factor", "scaled_k"),
    "bell": ("DetectionRow", "detection_comparison", "hs_norm_sq"),
    "oracles": ("CorrelationTensorSummary", "PhaseGenerator", "brute_force_tensor",
                "hs_norm_sq_exact", "pt_dense_oracle", "pt_spectrum", "qfi_from_dense",
                "qfi_spectral", "to_dense"),
    "estimation": ("RNG_ALGORITHM", "EstimationRun", "GlobalParity", "SectorParity",
                   "classical_fisher", "get_model", "run_monte_carlo"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
# a star import reads every name, so it loads numpy
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
