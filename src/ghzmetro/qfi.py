"""Quantum Fisher information for phase rotations generated by half the total sigma_z.

Three routes to the same number, used as mutual oracles:

* ``qfi_spectral`` — the generic spectral formula on an eigendecomposition,
  2 sum_{a,b} (p_a - p_b)^2 / (p_a + p_b) |<a|Z|b>|^2 (dense, float);
* ``qfi_ghz_diagonal`` — the GHZ-diagonal closed form
  sum_i w_i^2 (lambda_i^+ - lambda_i^-)^2 / (lambda_i^+ + lambda_i^-) (exact);
* ``qfi_closed_nk`` — the binomial-family closed form
  lam * sum_{j<k} (n-2j)^2 C(n,j) (exact).

Alongside live the family lower bounds, the separability threshold F_Q <= n,
and scan-report helpers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

import numpy as np

from .errors import CrossCheckError, DomainError
from .states import (
    GhzDiagonalState,
    _check_family,
    binom_normalizer,
    weight,
)

NORM_TOL = 1e-10  # unit-trace and nonnegativity tolerance of a decomposition
SUPPORT_TOL = 1e-12  # pairs with p_a + p_b at or below this are off the support


@dataclass(frozen=True)
class PhaseGenerator:
    """Diagonal generator (sigma_z^(1) + ... + sigma_z^(n)) / 2.

    Entry r of the diagonal is (zeros(r) - ones(r)) / 2, so the matrix
    element between the two projectors of sector i is w_i / 2.
    """

    n: int

    def diagonal(self) -> np.ndarray:
        dim = 1 << self.n
        counts = np.array([r.bit_count() for r in range(dim)])
        return (self.n - 2 * counts) / 2.0


def qfi_spectral(
    eigenvalues: Sequence[float], eigenvectors: np.ndarray, generator: PhaseGenerator
) -> float:
    """Spectral-formula QFI from an eigendecomposition of a unit-trace state.

    Pairs with p_a + p_b below ``SUPPORT_TOL`` are skipped (the formula is
    restricted to the support, where it is finite).  The decomposition is
    validated: eigenvalues must sum to 1 and be nonnegative to ``NORM_TOL``,
    the eigenvector columns orthonormal to 1e-10.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    v = np.asarray(eigenvectors)
    if abs(lam.sum() - 1.0) > NORM_TOL:
        raise DomainError(f"eigenvalues sum to {lam.sum()}, not 1")
    if lam.min() < -NORM_TOL:
        raise DomainError(f"negative eigenvalue {lam.min()} beyond tolerance")
    lam = np.clip(lam, 0.0, None)
    gram = v.conj().T @ v
    if np.max(np.abs(gram - np.eye(len(lam)))) > 1e-10:
        raise DomainError("eigenvector columns are not orthonormal to 1e-10")
    z = generator.diagonal()
    zmat = v.conj().T @ (z[:, None] * v)
    num = (lam[:, None] - lam[None, :]) ** 2
    den = lam[:, None] + lam[None, :]
    mask = den > SUPPORT_TOL
    return float(2.0 * np.sum(num[mask] / den[mask] * np.abs(zmat[mask]) ** 2))


def qfi_from_dense(rho: np.ndarray, generator: PhaseGenerator) -> float:
    """Convenience wrapper: eigendecompose a dense state and apply the formula."""
    lam, v = np.linalg.eigh(rho)
    return qfi_spectral(lam, v, generator)


def qfi_ghz_diagonal(state: GhzDiagonalState) -> Fraction:
    """Exact QFI of a GHZ-diagonal state; empty sectors contribute nothing."""
    total = Fraction(0)
    for i in state.coherence_support():
        d = state.sector_diff(i)
        w = weight(state.n, i)
        total += w * w * d * d / state.sector_sum(i)
    return total


def qfi_closed_nk(n: int, k: int) -> Fraction:
    """Exact QFI of the (n, k) family without building the state."""
    _check_family(n, k)
    lam = binom_normalizer(n, k)
    return lam * sum((n - 2 * j) ** 2 * comb(n, j) for j in range(k))


def qfi_lower_bound_nk(n: int, k: int) -> Fraction:
    """Exact lower bound (n - 2k)^2 * k / (n + 1) on the family QFI."""
    _check_family(n, k)
    return Fraction((n - 2 * k) ** 2 * k, n + 1)


def s_factor(n: int, k: int) -> Fraction:
    """Binomial-ratio factor sum_{j<k} C(n,j) / sum_{j<=k} C(n,j); >= k/(n+1)."""
    _check_family(n, k)
    head = sum(comb(n, j) for j in range(k))
    return Fraction(head, head + comb(n, k))


def qfi_lower_bound_nkm(n: int, k: int, m: int) -> Fraction:
    """Lower bound on the wider-mixing family QFI, taken literally:

    (n-2k)^2 * k(k+1)...(k+m) / [ m * (n-k)(n-k-1)...(n-k-m) ].
    """
    if m < 1:
        raise DomainError(f"mixing width must be >= 1 for this bound, got m = {m}")
    _check_family(n, k)
    if 2 * (k + m) > n:
        raise DomainError(f"need k + m <= n/2, got k = {k}, m = {m}, n = {n}")
    num = (n - 2 * k) ** 2
    for t in range(k, k + m + 1):
        num *= t
    den = m
    for t in range(n - k - m, n - k + 1):
        den *= t
    return Fraction(num, den)


def separability_test(f_q, n: int) -> str:
    """Strict witness: any separable n-qubit state has QFI <= n.

    Returns "entangled" when f_q > n; otherwise "inconclusive" (the test
    never certifies separability).
    """
    return "entangled" if f_q > n else "inconclusive"


def scaled_k(a: Fraction, n: int) -> int:
    """k(n) = round(a*n), half-up, clipped into [1, ceil(n/2) - 1]."""
    if not 0 < a < Fraction(1, 2):
        raise DomainError(f"need 0 < a < 1/2, got a = {a}")
    k = int(Fraction(a) * n + Fraction(1, 2))  # floor of a*n + 1/2
    hi = (n + 1) // 2 - 1
    if hi < 1:
        raise DomainError(f"no valid k for n = {n}")
    return min(max(k, 1), hi)


@dataclass(frozen=True)
class QfiReport:
    """QFI of one family member together with its bounds and scalings.

    ``ratio_limit_form`` divides by a(1-2a)n^2 (the advertised limiting
    normalization); ``ratio_bound_form`` divides by a(1-2a)^2 n^2, which is
    what the finite-n lower bound actually scales as.  Both are reported and
    neither is asserted; only ``lower_bound <= f_q`` is a theorem here.
    """

    n: int
    k: int
    f_q: Fraction
    snl_ratio: Fraction
    lower_bound: Fraction
    s_nk: Fraction
    m: Optional[int] = None
    a: Optional[Fraction] = None
    mixed_lower_bound: Optional[Fraction] = None
    ratio_limit_form: Optional[Fraction] = None
    ratio_bound_form: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        def enc(x):
            return None if x is None else {"exact": str(x), "float": float(x)}

        return {
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "a": None if self.a is None else str(self.a),
            "f_q": enc(self.f_q),
            "snl_ratio": enc(self.snl_ratio),
            "lower_bound": enc(self.lower_bound),
            "mixed_lower_bound": enc(self.mixed_lower_bound),
            "s_nk": enc(self.s_nk),
            "ratio_limit_form": enc(self.ratio_limit_form),
            "ratio_bound_form": enc(self.ratio_bound_form),
        }


def family_report(
    n: int, k: int, m: Optional[int] = None, a: Optional[Fraction] = None
) -> QfiReport:
    """Assemble the full report for one (n, k[, m]) family member."""
    if m is not None and m >= 1:
        from .states import build_rho_nkm  # local import avoids cycle at module load

        f_q = qfi_ghz_diagonal(build_rho_nkm(n, k, m))
        mixed_bound = qfi_lower_bound_nkm(n, k, m)
    else:
        f_q = qfi_closed_nk(n, k)
        mixed_bound = None
    ratio_limit = ratio_bound = None
    if a is not None:
        a = Fraction(a)
        scale = a * (1 - 2 * a) * n * n
        ratio_limit = f_q / scale
        ratio_bound = f_q / (scale * (1 - 2 * a))
    return QfiReport(
        n=n,
        k=k,
        m=m,
        a=a,
        f_q=f_q,
        snl_ratio=f_q / n,
        lower_bound=qfi_lower_bound_nk(n, k),
        s_nk=s_factor(n, k),
        mixed_lower_bound=mixed_bound,
        ratio_limit_form=ratio_limit,
        ratio_bound_form=ratio_bound,
    )


def asymptotic_report(n: int, a: Fraction) -> QfiReport:
    """Report for the linear scan k(n) = round(a*n); checks only the bound."""
    a = Fraction(a)
    k = scaled_k(a, n)
    report = family_report(n, k, a=a)
    if report.f_q < report.lower_bound:
        raise CrossCheckError(
            f"QFI {report.f_q} below its lower bound {report.lower_bound} "
            f"at n = {n}, k = {k}"
        )
    return report


def nk_limit_ratio(n: int, k: int) -> Fraction:
    """Exact QFI over its large-n limit n*k for fixed k; below 1 at finite n."""
    return qfi_closed_nk(n, k) / (n * k)
