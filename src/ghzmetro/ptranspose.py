"""Partial transposition of GHZ-diagonal states in closed form.

Transposing any subset of qubits preserves the diagonal-antidiagonal shape:
diagonal entries are untouched and the antidiagonal entry of sector i is
replaced by the one of sector canon(i XOR mask), where ``mask`` marks the
transposed qubits.  Every 2x2 block then diagonalizes by hand, giving the
exact spectrum

    Lambda_i^+- = [ (lambda_i^+ + lambda_i^-) +- (lambda_j^+ - lambda_j^-) ] / 2,
    j = canon(i XOR mask),

without building a matrix.  A cut m:(n-m) is PPT when every size-m subset
has a nonnegative transposed spectrum.  For a band-symmetric state (every
family member) all size-m subsets are related by a qubit permutation and
share one spectrum, so ``cut_classification`` inspects a single subset per
size; for any other state it inspects every subset.  Both routes are exact.
A dense reshape-based oracle is kept alongside for validation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import CrossCheckError, DomainError
from .states import (
    GhzDiagonalState,
    canonical_index,
    is_band_symmetric,
    to_dense,
)


@dataclass(frozen=True)
class QubitSubset:
    """Nonempty proper subset of the n qubits, stored as an n-bit mask.

    Qubit 1 is the most significant bit of the index convention, so qubit q
    corresponds to bit value 2**(n-q).
    """

    n: int
    mask: int

    def __post_init__(self):
        if not 0 < self.mask < (1 << self.n) - 1:
            raise DomainError(
                f"mask {self.mask:#b} must be a nonempty proper subset of {self.n} qubits"
            )

    @classmethod
    def from_qubits(cls, n: int, qubits: Iterable[int]) -> "QubitSubset":
        """Build from 1-based qubit positions (qubit 1 = most significant bit)."""
        mask = 0
        for q in qubits:
            if not 1 <= q <= n:
                raise DomainError(f"qubit {q} outside 1..{n}")
            mask |= 1 << (n - q)
        return cls(n, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def qubits(self) -> Tuple[int, ...]:
        return tuple(q for q in range(1, self.n + 1) if self.mask >> (self.n - q) & 1)

    def complement(self) -> "QubitSubset":
        return QubitSubset(self.n, ((1 << self.n) - 1) ^ self.mask)


def transpose_partner(n: int, i: int, subset: QubitSubset) -> int:
    """Sector whose antidiagonal entry lands on sector i after transposition.

    For a single transposed qubit this reproduces the two classical cases:
    flipping a non-leading bit stays in representative range, while flipping
    the leading bit is canonicalized into complementing all other bits.
    """
    if subset.n != n:
        raise DomainError("subset size does not match qubit count")
    return canonical_index(i ^ subset.mask, n)


@dataclass(frozen=True)
class OmegaSet:
    """Partners of sector j under all single-qubit transpositions."""

    j: int
    members: frozenset


def omega_set(n: int, j: int) -> OmegaSet:
    """Canonicalized set {canon(j XOR e_q) : q = 1..n}; size <= n.

    Complementing all bits but the first coincides, after canonicalization,
    with flipping the first bit alone, which is why a single XOR sweep covers
    both single-qubit rules.
    """
    members = frozenset(canonical_index(j ^ (1 << q), n) for q in range(n))
    return OmegaSet(j, members)


@dataclass(frozen=True)
class PtSpectrum:
    """Exact eigenvalue pairs of a partially transposed GHZ-diagonal state."""

    subset: QubitSubset
    pairs: Dict[int, Tuple[Fraction, Fraction]]

    def eigenvalues(self) -> List[Fraction]:
        out: List[Fraction] = []
        for plus, minus in self.pairs.values():
            out.append(plus)
            out.append(minus)
        return sorted(out)

    def min_eigenvalue(self) -> Fraction:
        return min(min(p) for p in self.pairs.values())

    def is_nonnegative(self) -> bool:
        return self.min_eigenvalue() >= 0

    def trace(self) -> Fraction:
        return sum((p + m for p, m in self.pairs.values()), Fraction(0))


def pt_spectrum(state: GhzDiagonalState, subset: QubitSubset) -> PtSpectrum:
    """Spectrum of the state transposed over ``subset``; no dense matrix built."""
    if subset.n != state.n:
        raise DomainError("subset size does not match state")
    pairs: Dict[int, Tuple[Fraction, Fraction]] = {}
    for i in range(1 << (state.n - 1)):
        j = transpose_partner(state.n, i, subset)
        s = state.sector_sum(i)
        d = state.sector_diff(j)
        pairs[i] = ((s + d) / 2, (s - d) / 2)
    return PtSpectrum(subset, pairs)


def min_pt_eigenvalue(state: GhzDiagonalState, subset: QubitSubset) -> Fraction:
    """Minimum transposed eigenvalue; a negative value certifies NPPT for the cut."""
    return pt_spectrum(state, subset).min_eigenvalue()


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the single-qubit PPT certificate with failure witness."""

    holds: bool
    witness_j: Optional[int] = None
    witness_i: Optional[int] = None


def ppt_single_qubit_certificate(
    state: GhzDiagonalState, verify: bool = False
) -> CertificateResult:
    """Check min_{i in Omega_j} (lambda_i^+ + lambda_i^-) >= |lambda_j^+ - lambda_j^-|.

    Holding for every sector j is equivalent to nonnegativity of the
    transposed spectrum for every single-qubit subset.  ``verify=True``
    recomputes all n single-qubit spectra and raises ``CrossCheckError`` if
    they ever disagree with the certificate.
    """
    result = CertificateResult(True)
    for j in state.coherence_support():
        bound = abs(state.sector_diff(j))
        for i in omega_set(state.n, j).members:
            if state.sector_sum(i) < bound:
                result = CertificateResult(False, j, i)
                break
        if not result.holds:
            break
    if verify:
        spectra_ok = all(
            pt_spectrum(state, QubitSubset.from_qubits(state.n, [q])).is_nonnegative()
            for q in range(1, state.n + 1)
        )
        if spectra_ok != result.holds:
            raise CrossCheckError(
                f"certificate says {result.holds} but single-qubit spectra say {spectra_ok}"
            )
    return result


@dataclass(frozen=True)
class CutStatus:
    """PPT/NPPT verdict for one cut size, with an NPPT witness subset if any."""

    cut_size: int
    status: str  # "PPT" | "NPPT"
    witness_mask: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "cut_size": self.cut_size,
            "status": self.status,
            "witness_mask": self.witness_mask,
        }


def cut_classification(
    state: GhzDiagonalState, cut_sizes: Optional[Iterable[int]] = None
) -> List[CutStatus]:
    """Classify each cut size m as PPT or NPPT, exactly.

    A cut m:(n-m) counts as PPT only when every size-m subset has nonnegative
    transposed spectrum; the first violating subset in ``combinations`` order
    is reported as witness.  Sizes above n//2 mirror their complements and
    are omitted by default.  A band-symmetric state is invariant under qubit
    permutations, so all size-m subsets share one transposed spectrum and
    the first subset, mask ``(1 << m) - 1``, decides the cut; any other
    state has every size-m subset inspected.
    """
    n = state.n
    sizes = list(cut_sizes) if cut_sizes is not None else list(range(1, n // 2 + 1))
    for m in sizes:
        if not 1 <= m <= n - 1:
            raise DomainError(f"cut size {m} outside 1..{n - 1}")
    symmetric = is_band_symmetric(state)
    out: List[CutStatus] = []
    for m in sizes:
        if symmetric:
            masks = [(1 << m) - 1]
        else:
            masks = (sum(1 << p for p in pos) for pos in combinations(range(n), m))
        witness = next(
            (mask for mask in masks if min_pt_eigenvalue(state, QubitSubset(n, mask)) < 0),
            None,
        )
        if witness is None:
            out.append(CutStatus(m, "PPT"))
        else:
            out.append(CutStatus(m, "NPPT", witness))
    return out


def pt_dense_oracle(state: GhzDiagonalState, subset: QubitSubset) -> np.ndarray:
    """Element-wise partial transposition of the dense realization."""
    rho = to_dense(state)
    return partial_transpose_dense(rho, state.n, subset.mask)


def partial_transpose_dense(rho: np.ndarray, n: int, mask: int) -> np.ndarray:
    """Transpose the qubits marked in ``mask`` of a 2^n x 2^n matrix."""
    t = rho.reshape((2,) * (2 * n))
    for axis in range(n):
        if mask >> (n - 1 - axis) & 1:
            t = np.swapaxes(t, axis, n + axis)
    return t.reshape(rho.shape)
