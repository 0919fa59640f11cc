"""Partial transposition of GHZ-diagonal states in closed form.

Transposing any subset of qubits preserves the diagonal-antidiagonal shape:
diagonal entries are untouched and the antidiagonal entry of sector i is
replaced by the one of sector canon(i XOR mask), where ``mask`` marks the
transposed qubits.  Every 2x2 block then diagonalizes by hand, giving the
exact spectrum

    Lambda_i^+- = [ (lambda_i^+ + lambda_i^-) +- (lambda_j^+ - lambda_j^-) ] / 2,
    j = canon(i XOR mask),

without building a matrix.  A cut m:(n-m) is PPT when every size-m subset
has a nonnegative transposed spectrum.  One exact search per call, built by
``_search``, decides every verdict of that call: each cut size of
``cut_classification`` or the single-qubit certificate, which is cut size 1;
``ppt`` builds it once for the certificate and once for the table.
A sparse ``GhzDiagonalState`` has every subset inspected.  A ``BandState``
(every family member) is invariant under qubit permutations, so its first
subset, ``(1 << m) - 1``, decides the cut.  A sector of popcount a with b ones
inside it moves to t = a + m - 2b, so class a meets the partner range
|a - m|, |a - m| + 2, ..., n - 1 - |a + m - (n - 1)|, and the cut is NPPT iff
some s_t < |d_a| there.

Hence the cut law of rho_{n,k,w} at cut sizes c <= n//2.  Its coherent classes,
a < k and a > n - k, have |d_a| = s_a = lam, the other populated ones s >= lam,
and the empty popcounts k + w < t < n - k - w exist iff 2(k + w) < n - 1; if
none does, every cut is PPT.  Else a cut c <= w + 1 keeps each range inside
0..k+w or n-k-w..n-1 (PPT), a cut c > k + w sends class 0 to t = c (NPPT), and
in between class k - 1 (c - w even) or k - 2 (odd) reaches t = k + w + 1 (NPPT).

PPT on every cut caps the QFI at n.  As the mask runs over the nonempty
proper subsets, canon(j XOR mask) runs over every sector but j, so a state is
PPT on every cut iff |d_j| <= s_i for all sectors i and j, empty ones (s = 0)
included: max |d| <= min s.  The 2^(n-1) sums s_i add up to 1, so min s <=
2^(1-n); with w_i = n - 2|i| the phase speed of sector i, whose squares sum to
2^(n-1) n over the representatives, F_Q = sum_i w_i^2 d_i^2 / s_i <=
sum_i w_i^2 |d_i| <= 2^(1-n) sum_i w_i^2 = n.  The dephased |+>^n (every
lambda^+ = 2^(1-n)) attains it.  So a GHZ-diagonal probe beats shot noise only
if it is NPPT on some cut; rho_{n,k,w} with 2(k + w) >= n - 1, PPT on every
cut by the cut law, never does.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import combinations

from . import DomainError
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
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, bit in enumerate(format(self.mask, f"0{self.n}b"), 1)
                     if bit == "1")


class CertificateResult(_Record):
    """Outcome of the single-qubit PPT certificate with failure witness."""

    holds: bool
    witness_j: int | None
    witness_i: int | None


def ppt_single_qubit_certificate(state: SectorState) -> CertificateResult:
    """Check min_{i in Omega_j} (lambda_i^+ + lambda_i^-) >= |lambda_j^+ - lambda_j^-|.

    Omega_j holds the partners canon(j XOR mask) of sector j over the n
    single-qubit masks, so the check holding for every j is the cut of size
    1 being PPT.  The witness of a failure is the lowest violating sector j
    at the first violating single-qubit mask, paired with its partner there.
    """
    hit = _search(state)(1)
    if hit is None:
        return CertificateResult(True, None, None)
    mask, j = hit
    return CertificateResult(False, j, canonical_index(j ^ mask, state.n))


class CutStatus(_Record):
    """PPT/NPPT verdict for one cut size, with an NPPT witness subset if any."""

    cut_size: int
    status: str  # "PPT" | "NPPT"
    witness_mask: int | None


def cut_classification(
    state: SectorState, cut_sizes: Iterable[int] | None = None
) -> list[CutStatus]:
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
    search = _search(state)
    return [CutStatus(m, "PPT", None) if hit is None else CutStatus(m, "NPPT", hit[0])
            for m, hit in zip(sizes, map(search, sizes))]


def _search(state: SectorState) -> Callable[[int], tuple[int, int] | None]:
    """The cut search of ``state``, its table built once: m -> ``(mask, j)``,
    the first NPPT size-m mask in ``combinations`` order and the lowest sector
    j there with s_{canon(j XOR mask)} < |d_j|, or None if the cut is PPT (as
    i -> canon(i XOR mask) is a bijection, such a j exists iff the mask is
    NPPT).  A sparse state has every mask inspected.  A ``BandState`` maps, per
    distinct |d|, each popcount with s >= |d| to the last of its step-2 run of
    such; class a first fails at the t past the run that starts its partner
    range, if t is in range, at r = (a - m + t)/2 ones outside the mask and
    b = (a + m - t)/2 inside.  The least (r, b) is the lowest violating sector.
    """
    n = state.n
    if not isinstance(state, BandState):
        sums = {j: s for j, _, s, _ in state.classes()}
        coherent = [(j, abs(d)) for j, _, _, d in state.classes() if d]

        def sparse(m):
            for pos in combinations(range(n), m):
                mask = sum(1 << p for p in pos)
                for j, bound in coherent:
                    if sums.get(canonical_index(j ^ mask, n), 0) < bound:
                        return mask, j
            return None
        return sparse
    rows = {j.bit_count(): (s, abs(d)) for j, _, s, d in state.classes()}
    runs = {bound: {} for _, bound in rows.values() if bound}
    for bound, run_end in runs.items():
        for t in sorted(rows, reverse=True):
            if rows[t][0] >= bound:
                run_end[t] = run_end.get(t + 2, t)
    coherent = [(a, runs[bound]) for a, (_, bound) in rows.items() if bound]

    def band(m):
        hit = min((((a - m + t) // 2, (a + m - t) // 2) for a, run_end in coherent
                   if (t := run_end.get(abs(a - m), abs(a - m) - 2) + 2)
                   <= n - 1 - abs(a + m - n + 1)), default=None)
        if hit is None:
            return None
        r, b = hit
        return (1 << m) - 1, (1 << b) - 1 | ((1 << r) - 1) << m
    return band
