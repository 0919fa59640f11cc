"""Quantum Fisher information for phase rotations generated by half the total sigma_z.

Two exact routes to the same number, each the other's check:

* ``qfi_ghz_diagonal`` — the GHZ-diagonal closed form
  sum_i w_i^2 (lambda_i^+ - lambda_i^-)^2 / (lambda_i^+ + lambda_i^-),
  one integer sum over the state's class rows, reduced once at the end;
* ``family_report`` — the binomial-family closed form.  With S(n, t) =
  sum_{j<=t} C(n, j), F_Q = sum_{j<k} (n-2j)^2 C(n,j) / S(n,k+m)
  = [n S(n,k-1) + k(n-2k+1) C(n,k)] / S(n,k+m), and s_nk = S(n,k-1) / S(n,k),
  both read from one row C(n, 0..k+m).  Proof: g(j) = j(n-2j+1) C(n,j) has g(0) = 0
  and, by (j+1) C(n,j+1) = (n-j) C(n,j), g(j+1) - g(j) = [(n-2j)^2 - n] C(n,j).

The generic spectral formula on a dense eigendecomposition is their oracle
in ``oracles``.  The report, which the CLI prints for one family member, holds
F_Q (``qfi_closed_nk`` alone), s_nk and the member's lower bound.

Two exact verdicts show how weak the members' entanglement is.  A GHZ-diagonal
state is genuinely multipartite entangled iff its largest GHZ weight exceeds
1/2 (Guhne & Seevinck, NJP 12, 053002 (2010)).  A member's largest weight is
1/S(n, k+m) <= 1/(n+1), so every member is biseparable, while GHZ_n is not.
Write n = s k + r.  If no entangled block has more than k qubits, F_Q <=
s k^2 + r^2 (Hyllus et al., PRA 85, 022321 (2012); Toth, PRA 85, 022322
(2012)), so F_Q > s k^2 + r^2 certifies entanglement depth k + 1.  The
F_Q-best member at n = 1000 (k = 192) certifies depth 91, GHZ_n depth n.
"""
from __future__ import annotations

import math
from fractions import Fraction

from . import DomainError
from .states import (
    SectorState,
    _Record,
    _binomial_row,
    _check_family,
    weight,
)


def qfi_ghz_diagonal(state: SectorState) -> Fraction:
    """Exact QFI of a GHZ-diagonal state: one integer sum over its coherent classes."""
    lcm = math.lcm(*(s for _, _, s, d in state.classes() if d))
    return Fraction(sum(mult * weight(state.n, j) ** 2 * d * d * (lcm // s)
                        for j, mult, s, d in state.classes() if d), lcm * state.den)


def qfi_closed_nk(n: int, k: int, m: int = 0) -> Fraction:
    """Exact QFI of the (n, k, m) family without building the state: the mixed
    bands k..k+m carry no coherence, so only the pure bands j < k contribute."""
    return family_report(n, k, m).f_q


def scaled_k(a: Fraction, n: int) -> int:
    """k(n) = round(a*n), half-up, clipped into [1, ceil(n/2) - 1]."""
    if not 0 < a < Fraction(1, 2):
        raise DomainError(f"need 0 < a < 1/2, got a = {a}")
    k = int(Fraction(a) * n + Fraction(1, 2))  # floor of a*n + 1/2
    hi = (n + 1) // 2 - 1
    if hi < 1:
        raise DomainError(f"no valid k for n = {n}")
    return min(max(k, 1), hi)


class QfiReport(_Record):
    """QFI of one family member together with its bounds and scalings.

    ``ratio_limit_form`` divides by a(1-2a)n^2 and ``ratio_bound_form`` by
    a(1-2a)^2 n^2, the scaling of the finite-n lower bound.  Neither is the
    limit: with k = round(a n), F_Q/n^2 -> a(1-2a)^2/(1-a), so the two tend
    to (1-2a)/(1-a) and 1/(1-a) (0.858 and 1.144 at a = 1/8, n = 3000).
    Both are reported and neither is asserted.  Each bound that is set is at
    most ``f_q``: ``lower_bound`` = (n-2k)^2 k/(n+1) bounds rho_{n,k} only, so
    it is None for m >= 1, where ``mixed_lower_bound`` is the member's bound,
    taken literally: (n-2k)^2 k(k+1)...(k+m) / [m (n-k)(n-k-1)...(n-k-m)].
    """

    n: int
    k: int
    f_q: Fraction
    snl_ratio: Fraction
    lower_bound: Fraction | None
    s_nk: Fraction
    m: int | None
    a: Fraction | None
    mixed_lower_bound: Fraction | None
    ratio_limit_form: Fraction | None
    ratio_bound_form: Fraction | None


def family_report(
    n: int, k: int, m: int | None = None, a: Fraction | None = None
) -> QfiReport:
    """Assemble the full report for one (n, k[, m]) family member from its row."""
    _check_family(n, k, m or 0)
    row = _binomial_row(n, k + (m or 0))
    below = sum(row[:k])  # S(n, k-1)
    f_q = Fraction(n * below + k * (n - 2 * k + 1) * row[k], below + sum(row[k:]))
    bound = mixed_bound = None
    if m:
        mixed_bound = Fraction((n - 2 * k) ** 2 * math.prod(range(k, k + m + 1)),
                               m * math.prod(range(n - k - m, n - k + 1)))
    else:
        bound = Fraction((n - 2 * k) ** 2 * k, n + 1)
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
        lower_bound=bound,
        s_nk=Fraction(below, below + row[k]),
        mixed_lower_bound=mixed_bound,
        ratio_limit_form=ratio_limit,
        ratio_bound_form=ratio_bound,
    )
