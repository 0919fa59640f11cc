"""Partial transposition of GHZ-diagonal states in closed form.

Transposing any subset of qubits preserves the diagonal-antidiagonal shape:
diagonal entries are untouched and the antidiagonal entry of sector i is
replaced by the one of sector canon(i XOR mask), where ``mask`` marks the
transposed qubits.  Every 2x2 block then diagonalizes by hand, giving the
exact spectrum

    Lambda_i^+- = [ (lambda_i^+ + lambda_i^-) +- (lambda_j^+ - lambda_j^-) ] / 2,
    j = canon(i XOR mask),

without building a matrix.  A cut m:(n-m) is PPT when every size-m subset
has a nonnegative transposed spectrum.  One exact search, ``_first_violation``,
decides every verdict: each cut size of ``cut_classification`` and the
single-qubit certificate, which is cut size 1.  It takes its route from the
state's type: a ``BandState`` (every family member) is invariant under qubit
permutations, so all size-m subsets share one spectrum and a walk over the
band classes decides the cut; a sparse ``GhzDiagonalState`` has every subset
inspected.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, List, Optional, Tuple

from .errors import DomainError
from .states import (
    BandState,
    SectorState,
    _Record,
    canonical_index,
)


class QubitSubset(_Record):
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


class CertificateResult(_Record):
    """Outcome of the single-qubit PPT certificate with failure witness."""

    holds: bool
    witness_j: Optional[int] = None
    witness_i: Optional[int] = None


def ppt_single_qubit_certificate(state: SectorState) -> CertificateResult:
    """Check min_{i in Omega_j} (lambda_i^+ + lambda_i^-) >= |lambda_j^+ - lambda_j^-|.

    Omega_j holds the partners canon(j XOR mask) of sector j over the n
    single-qubit masks, so the check holding for every j is the cut of size
    1 being PPT.  The witness of a failure is the lowest violating sector j
    at the first violating single-qubit mask, paired with its partner there.
    """
    hit = _first_violation(state, 1, _class_table(state))
    if hit is None:
        return CertificateResult(True)
    mask, j = hit
    return CertificateResult(False, j, canonical_index(j ^ mask, state.n))


class CutStatus(_Record):
    """PPT/NPPT verdict for one cut size, with an NPPT witness subset if any."""

    cut_size: int
    status: str  # "PPT" | "NPPT"
    witness_mask: Optional[int] = None


def cut_classification(
    state: SectorState, cut_sizes: Optional[Iterable[int]] = None
) -> List[CutStatus]:
    """Classify each cut size m as PPT or NPPT, exactly.

    A cut m:(n-m) counts as PPT only when every size-m subset has nonnegative
    transposed spectrum; the first violating subset in ``combinations`` order
    is reported as witness.  Sizes above n//2 mirror their complements and
    are omitted by default.
    """
    n = state.n
    sizes = list(cut_sizes) if cut_sizes is not None else list(range(1, n // 2 + 1))
    for m in sizes:
        if not 1 <= m <= n - 1:
            raise DomainError(f"cut size {m} outside 1..{n - 1}")
    table = _class_table(state)
    out: List[CutStatus] = []
    for m in sizes:
        hit = _first_violation(state, m, table)
        out.append(CutStatus(m, "PPT") if hit is None else CutStatus(m, "NPPT", hit[0]))
    return out


def _class_table(state: SectorState) -> dict:
    """{representative: (s, |d|)} over ``classes()``, read once per call; a
    ``BandState``'s rows are keyed by the popcount of the representative."""
    band = isinstance(state, BandState)
    return {j.bit_count() if band else j: (s, abs(d)) for j, _, s, d in state.classes()}


def _first_violation(state: SectorState, m: int, table: dict) -> Optional[Tuple[int, int]]:
    """``(mask, j)``: the first NPPT size-m mask in ``combinations`` order and
    the lowest sector j there with s_{canon(j XOR mask)} < |d_j|; None if the
    cut is PPT.

    No spectrum is built: as i -> canon(i XOR mask) is a bijection, a mask is
    NPPT exactly when such a j exists.  A sparse state has every size-m mask
    inspected.  A ``BandState`` shares one verdict over all of them, so the
    first, ``(1 << m) - 1``, is the witness.  A sector with r ones outside
    that mask and b inside sits in class r + b and moves to popcount r + m - b,
    whose row decides it; walking (r, b) in ascending order meets the lowest
    violating sector, ``(1 << b) - 1 | ((1 << r) - 1) << m``, first.
    """
    n, empty = state.n, (0, 0)
    if isinstance(state, BandState):
        for r in range(n - m):  # a representative keeps bit n-1 clear
            for b in range(m + 1):
                bound = table.get(r + b, empty)[1]
                if bound and table.get(r + m - b, empty)[0] < bound:
                    return (1 << m) - 1, (1 << b) - 1 | ((1 << r) - 1) << m
        return None
    coherent = [(j, bound) for j, (_, bound) in table.items() if bound]
    for pos in combinations(range(n), m):
        mask = sum(1 << p for p in pos)
        for j, bound in coherent:
            if table.get(canonical_index(j ^ mask, n), empty)[0] < bound:
                return mask, j
    return None
