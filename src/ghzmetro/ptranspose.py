"""Partial transposition of GHZ-diagonal states in closed form.

Transposing any subset of qubits preserves the diagonal-antidiagonal shape:
diagonal entries are untouched and the antidiagonal entry of sector i is
replaced by the one of sector canon(i XOR mask), where ``mask`` marks the
transposed qubits.  Every 2x2 block then diagonalizes by hand, giving the
exact spectrum

    Lambda_i^+- = [ (lambda_i^+ + lambda_i^-) +- (lambda_j^+ - lambda_j^-) ] / 2,
    j = canon(i XOR mask),

without building a matrix.  A cut m:(n-m) is PPT when every size-m subset
has a nonnegative transposed spectrum.  ``cut_classification`` takes its
route from the state's type: a ``BandState`` (every family member) is
invariant under qubit permutations, so all size-m subsets share one
spectrum and the band rule decides the cut in O(n^2) over the band
classes; a sparse ``GhzDiagonalState`` has every subset inspected.  Both
routes are exact.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, List, Optional, Tuple

from .errors import DomainError
from .states import (
    BandState,
    SectorState,
    canonical_index,
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
    def qubits(self) -> Tuple[int, ...]:
        return tuple(q for q in range(1, self.n + 1) if self.mask >> (self.n - q) & 1)


def omega_set(n: int, j: int) -> frozenset:
    """Partners of sector j under all single-qubit transpositions.

    The canonicalized set {canon(j XOR e_q) : q = 1..n}; size <= n.

    Complementing all bits but the first coincides, after canonicalization,
    with flipping the first bit alone, which is why a single XOR sweep covers
    both single-qubit rules.
    """
    return frozenset(canonical_index(j ^ (1 << q), n) for q in range(n))


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the single-qubit PPT certificate with failure witness."""

    holds: bool
    witness_j: Optional[int] = None
    witness_i: Optional[int] = None


def ppt_single_qubit_certificate(state: SectorState) -> CertificateResult:
    """Check min_{i in Omega_j} (lambda_i^+ + lambda_i^-) >= |lambda_j^+ - lambda_j^-|.

    Holding for every sector j is equivalent to nonnegativity of the
    transposed spectrum for every single-qubit subset; the first failing
    pair (j, i) in ascending j is the witness.  The check depends on j only
    through its class, and the lowest sector of the lowest failing class is
    that class's representative, so one walk over the class representatives
    finds the same pair.
    """
    for j, _, _, d in state.classes():
        for i in omega_set(state.n, j) if d else ():
            if state.sector_sum(i) < abs(d):
                return CertificateResult(False, j, i)
    return CertificateResult(True)


@dataclass(frozen=True)
class CutStatus:
    """PPT/NPPT verdict for one cut size, with an NPPT witness subset if any."""

    cut_size: int
    status: str  # "PPT" | "NPPT"
    witness_mask: Optional[int] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def cut_classification(
    state: SectorState, cut_sizes: Optional[Iterable[int]] = None
) -> List[CutStatus]:
    """Classify each cut size m as PPT or NPPT, exactly.

    A cut m:(n-m) counts as PPT only when every size-m subset has nonnegative
    transposed spectrum; the first violating subset in ``combinations`` order
    is reported as witness.  Sizes above n//2 mirror their complements and
    are omitted by default.  No spectrum is built: as i -> canon(i XOR mask)
    is a bijection, a subset is NPPT exactly when some sector j has
    s_{canon(j XOR mask)} < |d_j|.  A sparse state has every size-m subset
    inspected.  A ``BandState`` shares one verdict over all of them, so the
    first, mask ``(1 << m) - 1``, is the witness, decided by the band rule: a
    class of popcount a meets that mask in b places, for every b its members
    allow, and moves to popcount t = a + m - 2b, whose band is min(t, n-t).
    """
    n = state.n
    sizes = list(cut_sizes) if cut_sizes is not None else list(range(1, n // 2 + 1))
    for m in sizes:
        if not 1 <= m <= n - 1:
            raise DomainError(f"cut size {m} outside 1..{n - 1}")
    coherent = [(j, abs(d)) for j, _, _, d in state.classes() if d]

    def band_nppt(m: int) -> bool:
        for j, bound in coherent:
            a = j.bit_count()
            # class members keep bit n-1 clear, so at most n-1-m ones miss the mask
            for b in range(max(0, a + m - n + 1), min(a, m) + 1):
                if state.sector_sum((1 << (a + m - 2 * b)) - 1) < bound:
                    return True
        return False

    def sparse_nppt(mask: int) -> bool:
        return any(state.sector_sum(canonical_index(j ^ mask, n)) < bound
                   for j, bound in coherent)

    out: List[CutStatus] = []
    for m in sizes:
        if isinstance(state, BandState):
            witness = (1 << m) - 1 if band_nppt(m) else None
        else:
            masks = (sum(1 << p for p in pos) for pos in combinations(range(n), m))
            witness = next((mask for mask in masks if sparse_nppt(mask)), None)
        if witness is None:
            out.append(CutStatus(m, "PPT"))
        else:
            out.append(CutStatus(m, "NPPT", witness))
    return out
