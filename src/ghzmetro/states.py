"""Construction and representation of n-qubit GHZ-diagonal states.

A GHZ-diagonal state is a mixture of the generalized GHZ projectors built
from ``|phi_i^+-> = (|i> +- |i_bar>)/sqrt(2)``, where ``i_bar`` is the
bitwise complement of the n-bit string ``i``.  In the computational basis
such a state has support only on the main diagonal and the antidiagonal,
with

    rho[i, i] = rho[i_bar, i_bar] = (lambda_i^+ + lambda_i^-) / 2
    rho[i, i_bar]                 = (lambda_i^+ - lambda_i^-) / 2

Sector tables are keyed on representative indices ``i < 2**(n-1)`` (the
n-bit pattern of a representative starts with 0); ``2**n - 1 - i`` labels
the same two-dimensional sector.  All eigenvalues are exact rationals, so
normalization and every closed-form quantity downstream are tolerance-free.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, Iterator, Mapping

import numpy as np

from .errors import DomainError, SizeLimitError

DEFAULT_DENSE_LIMIT = 12
_DENSE_LIMIT_ENV = "GHZMETRO_DENSE_LIMIT"


def dense_limit() -> int:
    """Qubit cap for dense-matrix oracles (env ``GHZMETRO_DENSE_LIMIT`` overrides)."""
    raw = os.environ.get(_DENSE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_DENSE_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise DomainError(f"{_DENSE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if limit < 2:
        raise DomainError(f"{_DENSE_LIMIT_ENV} must be at least 2, got {limit}")
    return limit


def _check_dense(n: int) -> None:
    cap = dense_limit()
    if n > cap:
        raise SizeLimitError(f"dense computation needs n <= {cap}, got n = {n}")


def canonical_index(r: int, n: int) -> int:
    """Map a raw index r in [0, 2^n) to its sector representative min(r, 2^n-1-r)."""
    if not 0 <= r < (1 << n):
        raise DomainError(f"index {r} outside [0, 2^{n})")
    return min(r, (1 << n) - 1 - r)


def is_representative(i: int, n: int) -> bool:
    return 0 <= i < (1 << (n - 1))


def _check_representative(i: int, n: int) -> None:
    if not is_representative(i, n):
        raise DomainError(
            f"index {i} out of representative range [0, 2^{n - 1}) for n = {n}"
        )


def weight(n: int, i: int) -> int:
    """Zero-count minus one-count of the n-bit pattern of representative i.

    This is the relative phase speed of sector i under rotations generated by
    half the total sigma_z; it can be negative for representatives whose bit
    pattern holds more ones than zeros.
    """
    _check_representative(i, n)
    return n - 2 * i.bit_count()


def min_ones(n: int, i: int) -> int:
    """Band of sector i: the smaller one-count among its two member strings."""
    _check_representative(i, n)
    ones = i.bit_count()
    return min(ones, n - ones)


def ghz_basis_vector(n: int, i: int, sign: int = +1) -> np.ndarray:
    """Unit vector (|i> + sign * |i_bar>)/sqrt(2) in the computational basis."""
    _check_representative(i, n)
    if sign not in (+1, -1):
        raise DomainError("sign must be +1 or -1")
    v = np.zeros(1 << n)
    amp = 1.0 / np.sqrt(2.0)
    v[i] = amp
    v[(1 << n) - 1 - i] = sign * amp
    return v


def binom_normalizer(n: int, k: int) -> Fraction:
    """Exact 1 / sum_{j=0}^{k} C(n, j); big-integer arithmetic, no overflow."""
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k = {k}, n = {n}")
    return Fraction(1, sum(comb(n, j) for j in range(k + 1)))


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise DomainError("sector eigenvalues must be exact rationals, not floats")
    return Fraction(x)


@dataclass(frozen=True)
class GhzDiagonalState:
    """Exact eigenvalue table of an n-qubit GHZ-diagonal state.

    ``lambda_plus[i]`` / ``lambda_minus[i]`` are the weights of the even and
    odd GHZ projectors of sector i; missing representatives carry weight 0.
    The table must be nonnegative and sum to exactly 1.
    """

    n: int
    lambda_plus: Mapping[int, Fraction] = field(default_factory=dict)
    lambda_minus: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"need at least 2 qubits, got n = {self.n}")
        lp = {i: _as_fraction(v) for i, v in self.lambda_plus.items()}
        lm = {i: _as_fraction(v) for i, v in self.lambda_minus.items()}
        for table in (lp, lm):
            for i, v in table.items():
                _check_representative(i, self.n)
                if v < 0:
                    raise DomainError(f"negative eigenvalue {v} at sector {i}")
        total = sum(lp.values(), Fraction(0)) + sum(lm.values(), Fraction(0))
        if total != 1:
            raise DomainError(f"eigenvalues must sum to 1 exactly, got {total}")
        # canonical sparse storage: zero entries and missing entries coincide
        object.__setattr__(self, "lambda_plus", {i: v for i, v in lp.items() if v})
        object.__setattr__(self, "lambda_minus", {i: v for i, v in lm.items() if v})

    # -- sector accessors -------------------------------------------------

    def lam_plus(self, i: int) -> Fraction:
        _check_representative(i, self.n)
        return self.lambda_plus.get(i, Fraction(0))

    def lam_minus(self, i: int) -> Fraction:
        _check_representative(i, self.n)
        return self.lambda_minus.get(i, Fraction(0))

    def sector_sum(self, i: int) -> Fraction:
        """lambda_i^+ + lambda_i^-: twice the diagonal entry of sector i."""
        return self.lam_plus(i) + self.lam_minus(i)

    def sector_diff(self, i: int) -> Fraction:
        """lambda_i^+ - lambda_i^-: twice the antidiagonal entry of sector i."""
        return self.lam_plus(i) - self.lam_minus(i)

    def support(self) -> Iterator[int]:
        """Representatives with nonzero sector weight, ascending.

        Stored entries are nonzero and nonnegative, so these are exactly the
        keys of the two tables; the walk costs O(support), not O(2^(n-1)).
        """
        return iter(sorted(self.lambda_plus.keys() | self.lambda_minus.keys()))

    def coherence_support(self) -> Iterator[int]:
        """Representatives with a nonzero antidiagonal entry, ascending."""
        for i in self.support():
            if self.sector_diff(i) != 0:
                yield i

    def trace(self) -> Fraction:
        return sum(self.lambda_plus.values(), Fraction(0)) + sum(
            self.lambda_minus.values(), Fraction(0)
        )

    def plus_dominant(self) -> "GhzDiagonalState":
        """Copy with each sector swapped so that lambda^+ >= lambda^-.

        Every formula in this package depends only on sector sums and squared
        differences, so this is a convention, not a physical change.
        """
        lp, lm = {}, {}
        for i in set(self.lambda_plus) | set(self.lambda_minus):
            a, b = self.lam_plus(i), self.lam_minus(i)
            lp[i], lm[i] = max(a, b), min(a, b)
        return GhzDiagonalState(self.n, lp, lm)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for i in sorted(set(self.lambda_plus) | set(self.lambda_minus)):
            lp, lm = self.lam_plus(i), self.lam_minus(i)
            if lp == 0 and lm == 0:
                continue
            entries.append({"i": i, "lp": str(lp), "lm": str(lm)})
        return {"n": self.n, "entries": entries}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GhzDiagonalState":
        lp = {e["i"]: Fraction(e["lp"]) for e in data["entries"]}
        lm = {e["i"]: Fraction(e["lm"]) for e in data["entries"]}
        return cls(int(data["n"]), lp, lm)


# -- reference states -------------------------------------------------------


def ghz_state(n: int) -> GhzDiagonalState:
    """Pure n-qubit GHZ state: all weight on the even projector of sector 0."""
    return GhzDiagonalState(n, {0: Fraction(1)}, {})


def maximally_mixed_state(n: int) -> GhzDiagonalState:
    w = Fraction(1, 1 << n)
    reps = range(1 << (n - 1))
    return GhzDiagonalState(n, {i: w for i in reps}, {i: w for i in reps})


# -- the binomial families ---------------------------------------------------


FAMILY_BUILD_LIMIT = 20


def _check_family(n: int, k: int) -> None:
    if n < 2:
        raise DomainError(f"need at least 2 qubits, got n = {n}")
    if k < 1 or 2 * k > n:
        raise DomainError(f"need 1 <= k <= n/2, got k = {k} for n = {n}")


def check_build_size(n: int) -> None:
    """Refuse a family member whose builder would walk too many sectors.

    The builders visit all 2^(n-1) representatives and may store most of
    them; closed forms over (n, k) build no table and are not capped.
    """
    if n > FAMILY_BUILD_LIMIT:
        raise SizeLimitError(
            f"building a family member needs n <= {FAMILY_BUILD_LIMIT}, got n = {n}"
        )


def build_rho_nk(n: int, k: int) -> GhzDiagonalState:
    """Noisy GHZ-diagonal family member with ones-threshold k.

    Sectors whose band (smaller one-count) is below k carry the full weight
    ``lam = 1 / sum_{j<=k} C(n,j)`` on the even projector only; sectors on
    band k are equal even/odd mixtures.  When 2k == n the band-k sectors
    each absorb the weight of two index strings (the two members of the
    sector both sit on the band), which is what keeps the trace at exactly 1.
    This is the width-0 member of ``build_rho_nkm``.
    """
    return build_rho_nkm(n, k, 0)


def mixing_bands(k: int, m: int) -> range:
    """Bands carrying mixed even/odd weight in the width-m family: k..k+m."""
    return range(k, k + m + 1)


def build_rho_nkm(n: int, k: int, m: int) -> GhzDiagonalState:
    """Wider-mixing family: bands k..k+m mixed, bands below k pure-even.

    The normalizer is ``1 / sum_{j<=k+m} C(n,j)``; m = 0 is ``build_rho_nk``.
    Parameters with k+m > n/2 would make the table sum to less than 1 (the
    required bands do not exist) and are rejected rather than renormalized.
    """
    if m < 0:
        raise DomainError(f"mixing width must be >= 0, got m = {m}")
    _check_family(n, k)
    if 2 * (k + m) > n:
        raise DomainError(
            f"mixing range {list(mixing_bands(k, m))} is not normalizable for "
            f"n = {n}: need k + m <= n/2"
        )
    check_build_size(n)
    lam = binom_normalizer(n, k + m)
    mixed = set(mixing_bands(k, m))
    lp: Dict[int, Fraction] = {}
    lm: Dict[int, Fraction] = {}
    for i in range(1 << (n - 1)):
        band = min_ones(n, i)
        if band < k:
            lp[i] = lam
        elif band in mixed:
            w = lam if 2 * band == n else lam / 2
            lp[i] = w
            lm[i] = w
    return GhzDiagonalState(n, lp, lm)


def is_band_symmetric(state: GhzDiagonalState) -> bool:
    """True when every sector carries the weights of its band's representative.

    Such a state depends on a sector only through its band, which no qubit
    permutation changes, so the state is invariant under every permutation
    of the qubits.  Every family member is band-symmetric.
    """
    n = state.n
    lp, lm = state.lambda_plus, state.lambda_minus
    for i in range(1 << (n - 1)):
        rep = (1 << min_ones(n, i)) - 1
        if lp.get(i) != lp.get(rep) or lm.get(i) != lm.get(rep):
            return False
    return True


# -- dense oracle substrate ---------------------------------------------------


def to_dense(state: GhzDiagonalState) -> np.ndarray:
    """Dense real-symmetric realization of the state (diagonal-antidiagonal)."""
    _check_dense(state.n)
    dim = 1 << state.n
    rho = np.zeros((dim, dim))
    for i in range(1 << (state.n - 1)):
        s = float(state.sector_sum(i)) / 2.0
        d = float(state.sector_diff(i)) / 2.0
        j = dim - 1 - i
        rho[i, i] = s
        rho[j, j] = s
        rho[i, j] = d
        rho[j, i] = d
    return rho


def sector_eigenvalues(state: GhzDiagonalState) -> list[Fraction]:
    """Eigenvalue multiset {lambda_i^+} u {lambda_i^-}, exactly.

    Each (i, i_bar) block of the dense form is [[s/2, d/2], [d/2, s/2]] with
    eigenvalues (s +- d)/2 = lambda^+/-, so no numerics are needed.
    """
    out: list[Fraction] = []
    for i in range(1 << (state.n - 1)):
        out.append(state.lam_plus(i))
        out.append(state.lam_minus(i))
    return sorted(out)
