"""Independent checks of every value the benchmark times.

Nothing here calls the route it checks.  Sector weights are described by
*classes* ``(popcount, multiplicity, plus, minus)``: one class per sector
for an explicit table, or one per popcount for a binomial family member,
whose representatives ``i < 2^(n-1)`` with ``c`` ones number ``C(n-1, c)``.
Weights are integers in a common ``unit`` (a ``Fraction``), so the exact
sums below are integer sums.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, List, Sequence, Tuple

Class = Tuple[int, int, int, int]  # (popcount, multiplicity, plus, minus)


# -- weight tables ---------------------------------------------------------------


def family_classes(n: int, k: int, m: int = 0) -> Tuple[List[Class], Fraction]:
    """Popcount classes of ``rho_{n,k,m}`` in units of half its normalizer.

    Bands below ``k`` are pure even (``plus = 2``); bands ``k..k+m`` are
    balanced (``1, 1``), or ``2, 2`` on the band ``2 * band == n`` whose
    sectors hold two member strings each.
    """
    unit = Fraction(1, 2 * sum(comb(n, j) for j in range(k + m + 1)))
    classes = []
    for c in range(n):  # a representative's leading bit is 0, so c < n
        band = min(c, n - c)
        if band < k:
            p, q = 2, 0
        elif band <= k + m:
            p = q = 2 if 2 * band == n else 1
        else:
            continue
        classes.append((c, comb(n - 1, c), p, q))
    return classes, unit


def expand_family(n: int, classes: Iterable[Class]) -> Tuple[List[int], List[int]]:
    """Per-sector ``plus``/``minus`` lists of a family member."""
    by_count = {c: (p, q) for c, _, p, q in classes}
    plus, minus = [], []
    for i in range(1 << (n - 1)):
        p, q = by_count.get(i.bit_count(), (0, 0))
        plus.append(p)
        minus.append(q)
    return plus, minus


# -- closed forms ---------------------------------------------------------------


def parseval_hs(n: int, classes: Iterable[Class], unit: Fraction) -> Fraction:
    """Squared correlation norm ``2^(n-1) sum_i d_i^2 + axial^2``, exactly.

    The planar part is the sum of squared Walsh-Hadamard coefficients of
    ``d_i = plus_i - minus_i`` over even-weight masks; representatives never
    pair with their complements, so Parseval leaves ``2^(n-1) sum d_i^2``.
    The all-z correlation is the parity-signed sum of sector weights, zero
    for odd ``n``.
    """
    planar = 0
    axial = 0
    for c, mult, p, q in classes:
        planar += mult * (p - q) ** 2
        axial += mult * (p + q) * (-1 if c & 1 else 1)
    if n & 1:
        axial = 0
    return ((1 << (n - 1)) * planar + axial * axial) * unit * unit


def exact_qfi(n: int, classes: Iterable[Class], unit: Fraction) -> Fraction:
    """``sum_i w_i^2 d_i^2 / s_i`` with ``w_i = n - 2 |i|``, exactly."""
    total = Fraction(0)
    for c, mult, p, q in classes:
        if p != q:
            total += Fraction(mult * (n - 2 * c) ** 2 * (p - q) ** 2, p + q)
    return total * unit


def classical_fisher(n: int, classes: Iterable[Class], unit: Fraction, theta: float,
                     model: str) -> float:
    """Classical Fisher information of the CLI's two measurement models.

    Sector ``i`` has sum ``s``, difference ``d`` and phase speed ``w = n - 2c``.
    Global parity has mean ``C = sum d cos(w theta)`` and two outcomes
    ``(1 +- C) / 2``, so ``F = C'^2 / (1 - C^2)``.  Sector parity has
    outcomes ``(s +- d cos(w theta)) / 2`` per sector, so each sector adds
    ``s (d w sin)^2 / (s^2 - (d cos)^2)``; a sector with ``d w = 0`` adds 0.
    """
    u = float(unit)
    if model == "global-parity":
        mean = slope = 0.0
        for c, mult, p, q in classes:
            w, d = n - 2 * c, mult * (p - q) * u
            mean += d * math.cos(w * theta)
            slope -= d * w * math.sin(w * theta)
        return slope * slope / (1.0 - mean * mean)
    total = 0.0
    for c, mult, p, q in classes:
        w = n - 2 * c
        if p == q or w == 0:
            continue
        s, d = (p + q) * u, (p - q) * u
        total += mult * s * (d * w * math.sin(w * theta)) ** 2 / (
            s * s - (d * math.cos(w * theta)) ** 2)
    return total


def _canon(r: int, n: int) -> int:
    return min(r, (1 << n) - 1 - r)


def pt_min(n: int, plus: Sequence[int], minus: Sequence[int], mask: int) -> int:
    """Twice the smallest eigenvalue (in units) after transposing ``mask``.

    Transposition keeps sector sums and moves the coherence of sector
    ``canon(i ^ mask)`` onto sector ``i``; each block then has eigenvalues
    ``(s_i +- d_j) / 2``.
    """
    lowest = None
    for i in range(1 << (n - 1)):
        j = _canon(i ^ mask, n)
        value = plus[i] + minus[i] - abs(plus[j] - minus[j])
        if lowest is None or value < lowest:
            lowest = value
    return lowest


def certificate_violation(
    n: int, plus: Sequence[int], minus: Sequence[int], j: int, i: int
) -> bool:
    """Whether ``(j, i)`` breaks the single-qubit PPT certificate.

    That needs ``i`` to be a single-qubit-flip partner of ``j`` with
    ``s_i < |d_j|``.
    """
    partners = {_canon(j ^ (1 << q), n) for q in range(n)}
    return i in partners and plus[i] + minus[i] < abs(plus[j] - minus[j])


def cut_is_ppt(n: int, plus: Sequence[int], minus: Sequence[int], size: int) -> bool:
    """Exhaustive check of every subset of ``size`` qubits."""
    return all(
        pt_min(n, plus, minus, sum(1 << b for b in bits)) >= 0
        for bits in combinations(range(n), size)
    )


# -- statistics --------------------------------------------------------------------


def close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, int]:
    """Highest nearest-rank percentile with at least ten samples above its rank.

    Returns ``(value, percentile)``.  With ``N`` samples the percentile is
    ``floor(100 (N - 10) / N)`` and its rank ``ceil(p N / 100) <= N - 10``.
    """
    n = len(samples)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    pct = 100 * (n - 10) // n
    rank = max(1, -(-pct * n // 100))
    return sorted(samples)[rank - 1], pct
