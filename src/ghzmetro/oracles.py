"""Independent oracles of the exact routes, their size caps and the ``--oracle`` checks.

Each quantity the library computes in closed form is re-derived here another
way: on the dense matrix ``to_dense`` (spectral QFI, reshape transposition,
3^n Pauli traces) or sector by sector in integers (``pt_spectrum``, a list
of integers over ``2 * state.den``, and the 2^n-mask scan
``hs_norm_sq_exact``), each reading the rows ``(i, s, d)`` of ``sectors()``
as they are and calling none of the routes it checks.  Each oracle refuses
a state above the cap of its cost class before it allocates anything:
``BRUTE_CAP`` = 6 qubits for 3^n traces, ``DENSE_LIMIT`` = 12 for dense
matrices and mask scans, ``SECTOR_LIST_LIMIT`` = 20 for listing sectors.
``check_qfi``, ``check_ppt`` and ``check_bell`` re-derive what a CLI
command printed.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CrossCheckError, DomainError, SizeLimitError
from .ptranspose import CertificateResult, CutStatus, QubitSubset
from .qfi import QfiReport
from .states import SECTOR_LIST_LIMIT, SectorState, _Record, build_rho_nkm, canonical_index

BRUTE_CAP = 6  # qubit cap of the 3^n dense-trace enumeration
DENSE_LIMIT = 12  # qubit cap of every dense matrix and of the 2^n-mask scan
NORM_TOL = 1e-10  # unit-trace and nonnegativity tolerance of a spectrum
SUPPORT_TOL = 1e-12  # pairs with p_a + p_b at or below this are off the support
ZERO_TOL = 1e-12  # brute-force elements at or below this are reported as zero
ORACLE_TOL = 1e-9  # largest deviation an ``--oracle`` check lets pass
EIGVEC_BLOCK = 256  # eigenvectors per block of the spectral QFI sum


def _check_size(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise SizeLimitError(f"{what} needs n <= {cap}, got n = {n}")


# -- dense substrate -----------------------------------------------------------


def to_dense(state: SectorState) -> np.ndarray:
    """Dense real-symmetric realization of the state (diagonal-antidiagonal)."""
    _check_size("dense computation", state.n, DENSE_LIMIT)
    dim = 1 << state.n
    rho = np.zeros((dim, dim))
    half = 2 * state.den
    for i, s, d in state.sectors():
        j = dim - 1 - i
        rho[i, i] = rho[j, j] = s / half
        rho[i, j] = rho[j, i] = d / half
    return rho


# -- quantum Fisher information ------------------------------------------------


class PhaseGenerator(_Record):
    """Diagonal generator (sigma_z^(1) + ... + sigma_z^(n)) / 2.

    Entry r of the diagonal is (zeros(r) - ones(r)) / 2, so the matrix
    element between the two projectors of sector i is w_i / 2.
    """

    n: int

    def diagonal(self) -> np.ndarray:
        _check_size("dense computation", self.n, DENSE_LIMIT)
        dim = 1 << self.n
        counts = np.array([r.bit_count() for r in range(dim)])
        return (self.n - 2 * counts) / 2.0


def qfi_from_dense(rho: np.ndarray, generator: PhaseGenerator) -> float:
    """Spectral-formula QFI of a dense unit-trace state,
    2 sum_{a,b} (p_a - p_b)^2 / (p_a + p_b) |<a|Z|b>|^2.

    Pairs with p_a + p_b below ``SUPPORT_TOL`` are skipped (the formula is
    restricted to the support, where it is finite).  The eigenvalues of
    ``rho`` must sum to 1 and be nonnegative to ``NORM_TOL``.  The sum runs
    over ``EIGVEC_BLOCK`` eigenvectors <a| at a time: no temporary is dim x dim.
    """
    if np.shape(rho) != (1 << generator.n,) * 2:
        raise DomainError("generator size does not match state")
    lam, v = np.linalg.eigh(rho)
    if abs(lam.sum() - 1.0) > NORM_TOL:
        raise DomainError(f"eigenvalues sum to {lam.sum()}, not 1")
    if lam.min() < -NORM_TOL:
        raise DomainError(f"negative eigenvalue {lam.min()} beyond tolerance")
    lam = np.clip(lam, 0.0, None)
    z = generator.diagonal()
    total = 0.0
    for start in range(0, len(lam), EIGVEC_BLOCK):
        block = slice(start, start + EIGVEC_BLOCK)
        bras = v[:, block].conj().T
        zmat = (bras * z) @ v
        num = (lam[block, None] - lam[None, :]) ** 2
        den = lam[block, None] + lam[None, :]
        mask = den > SUPPORT_TOL
        total += np.sum(num[mask] / den[mask] * np.abs(zmat[mask]) ** 2)
    return float(2.0 * total)


# -- partial transposition -----------------------------------------------------


def pt_spectrum(state: SectorState, subset: QubitSubset) -> list[int]:
    """Spectrum of the state transposed over ``subset`` in integers over
    ``2 * state.den``, no dense matrix built: entries 2i and 2i + 1 are
    s_i + d_j and s_i - d_j, with j the partner of sector i under ``subset``."""
    if subset.n != state.n:
        raise DomainError("subset size does not match state")
    _check_size("listing the sectors one by one", state.n, SECTOR_LIST_LIMIT)
    rows = [(0, 0)] * (1 << (state.n - 1))
    for i, s, d in state.sectors():
        rows[i] = (s, d)
    spectrum: list[int] = []
    for i, (s, _) in enumerate(rows):
        d = rows[canonical_index(i ^ subset.mask, state.n)][1]
        spectrum += (s + d, s - d)
    return spectrum


def pt_dense_oracle(state: SectorState, subset: QubitSubset) -> np.ndarray:
    """Element-wise partial transposition of the dense realization."""
    if subset.n != state.n:
        raise DomainError("subset size does not match state")
    rho = to_dense(state)
    return partial_transpose_dense(rho, state.n, subset.mask)


def partial_transpose_dense(rho: np.ndarray, n: int, mask: int) -> np.ndarray:
    """Transpose the qubits marked in ``mask`` of a 2^n x 2^n matrix."""
    t = rho.reshape((2,) * (2 * n))
    for axis in range(n):
        if mask >> (n - 1 - axis) & 1:
            t = np.swapaxes(t, axis, n + axis)
    return t.reshape(rho.shape)


# -- full-correlation tensor ---------------------------------------------------

AXIS_X, AXIS_Y, AXIS_Z = 1, 2, 3

PAULI = {
    AXIS_X: np.array([[0, 1], [1, 0]], dtype=complex),
    AXIS_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    AXIS_Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def hs_norm_sq_exact(state: SectorState) -> Fraction:
    """Hilbert-Schmidt square by the exact 2^n-mask scan; oracle for the Bell row's norm.
    The axial term Tr[Z^(x n) rho] sums s_i/(2 den) at |i> and at |i_bar>."""
    _check_size("exact mask scan", state.n, DENSE_LIMIT)
    support, axial = [], 0
    for i, s, d in state.sectors():
        axial += s * ((-1) ** i.bit_count() + (-1) ** (state.n - i.bit_count()))
        if d:
            support.append((i, d))
    total = 0
    for y in range(1 << state.n):
        if y.bit_count() & 1:
            continue
        t = sum(-d if (y & i).bit_count() & 1 else d for i, d in support)
        total += t * t
    return Fraction(total, state.den ** 2) + Fraction(axial, 2 * state.den) ** 2


def brute_force_tensor(state: SectorState) -> dict[tuple[int, ...], float]:
    """Full 3^n dense-trace enumeration; the oracle for the fast paths.  Returns
    every full correlation above ``ZERO_TOL``, keyed by its axes."""
    n = state.n
    _check_size("brute-force tensor", n, BRUTE_CAP)
    elements = {}
    rho_t = to_dense(state).T.copy()
    for axes in product((AXIS_X, AXIS_Y, AXIS_Z), repeat=n):
        op = PAULI[axes[0]]
        for a in axes[1:]:
            op = np.kron(op, PAULI[a])
        t = float(np.sum(op * rho_t).real)  # Tr[op @ rho]
        if abs(t) > ZERO_TOL:
            elements[axes] = t
    return elements


# -- checks of printed results -------------------------------------------------


def _within_tolerance(deviation: float, oracle: str) -> float:
    if deviation > ORACLE_TOL:
        raise CrossCheckError(f"{oracle} deviates by {deviation}")
    return deviation


def check_qfi(report: QfiReport) -> float:
    """Deviation of the dense spectral QFI from the reported family QFI."""
    state = build_rho_nkm(report.n, report.k, report.m or 0)
    spectral = qfi_from_dense(to_dense(state), PhaseGenerator(state.n))
    return _within_tolerance(abs(spectral - float(report.f_q)), "spectral QFI oracle")


def check_ppt(state: SectorState, cert: CertificateResult, table: list[CutStatus]) -> float:
    """Re-derive a PPT report; returns the largest exact-vs-dense eigenvalue deviation.

    Each cut row is checked at its witness mask, or at the first subset
    ``(1 << m) - 1`` of a PPT row: the exact spectrum there must match the
    dense transposition, and the sign of its exact minimum the printed
    verdict.  The certificate must agree with the n single-qubit spectra.
    The dense cap is checked first, so nothing is listed above it.
    """
    _check_size("dense computation", state.n, DENSE_LIMIT)
    half = 2 * state.den
    deviation = 0.0
    for row in table:
        mask = (1 << row.cut_size) - 1 if row.witness_mask is None else row.witness_mask
        subset = QubitSubset(state.n, mask)
        spectrum = pt_spectrum(state, subset)
        if (min(spectrum) >= 0) != (row.status == "PPT"):
            raise CrossCheckError(f"cut {row.cut_size} is reported {row.status}, but "
                                  f"the spectrum at mask {mask:#b} has minimum "
                                  f"{Fraction(min(spectrum), half)}")
        dense = sorted(np.linalg.eigvalsh(pt_dense_oracle(state, subset)))
        exact = [v / half for v in sorted(spectrum)]
        deviation = max(deviation, max(abs(a - b) for a, b in zip(exact, dense)))
    _within_tolerance(deviation, "dense transposition oracle")
    spectra_ok = all(min(pt_spectrum(state, QubitSubset.from_qubits(state.n, [q]))) >= 0
                     for q in range(1, state.n + 1))
    if spectra_ok != cert.holds:
        raise CrossCheckError(f"certificate says {cert.holds} but "
                              f"single-qubit spectra say {spectra_ok}")
    return deviation


def check_bell(state: SectorState, norm: Fraction) -> float:
    """Deviation of the printed exact full norm ``planar_sq + axial_sq`` from the 3^n
    dense trace (n <= ``BRUTE_CAP``) or the exact mask scan (n <= ``DENSE_LIMIT``)."""
    if state.n <= BRUTE_CAP:
        oracle = sum(t * t for t in brute_force_tensor(state).values())
    else:
        oracle = float(hs_norm_sq_exact(state))
    return _within_tolerance(abs(oracle - float(norm)), "correlation oracle")
