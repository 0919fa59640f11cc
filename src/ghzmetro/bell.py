"""Full-correlation tensor of GHZ-diagonal states and the Bell-condition bound.

For a GHZ-diagonal state the n-qubit Pauli correlation T = <s_{k_1} x ... x
s_{k_n}> is structured:

* tuples mixing z with x/y vanish exactly (the operator connects |r> to
  |r XOR mask> with a mask that is neither empty nor all-ones, off the
  diagonal-antidiagonal support);
* the all-z tuple is a signed sum of diagonal sector weights, zero for odd n;
* x/y-only tuples with an odd number of y's vanish; with 2t y's at positions
  Y the value is (-1)^t * sum_i d_i * (-1)^|Y & i|, d_i = lambda_i^+ - lambda_i^-.

The squared Hilbert-Schmidt norm sum T^2 over all 3^n tuples is therefore
the axial term squared plus the sum over even-weight masks Y of squared
Walsh-Hadamard coefficients of d.  Representatives i < 2^(n-1) never pair
with their complements, so by Parseval that planar sum is exactly
2^(n-1) * sum_i d_i^2.  A norm below 1 guarantees that the multi-setting
correlation Bell condition is satisfied (a local hidden-variable model
exists for those measurements).

``hs_norm_sq`` evaluates that closed form in exact rationals as one sum
over the state's sector classes, the O(n) band classes of a ``BandState``
(every family member), so it has no size limit.  Two independent oracles
remain: ``hs_norm_sq_exact`` scans the 2^n masks against the sectors listed
one by one, in exact rationals, and ``brute_force_tensor`` traces all 3^n
Pauli tuples against the dense matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Tuple

import numpy as np

from .errors import SizeLimitError
from .qfi import qfi_ghz_diagonal
from .states import SectorState, to_dense

AXIS_X, AXIS_Y, AXIS_Z = 1, 2, 3

PAULI = {
    AXIS_X: np.array([[0, 1], [1, 0]], dtype=complex),
    AXIS_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    AXIS_Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

SCAN_CAP = 12  # qubit cap of the exact 2^n-mask scans
BRUTE_CAP = 6  # qubit cap of the 3^n dense-trace enumeration
ZERO_TOL = 1e-12  # brute-force elements at or below this are reported as zero


def axial_expectation(state: SectorState) -> Fraction:
    """All-z full correlation: signed sum of sector weights, 0 for odd n."""
    if state.n % 2:
        return Fraction(0)
    return sum(((-mult if j.bit_count() & 1 else mult) * s
                for j, mult, s, _ in state.classes()), Fraction(0))


def planar_square_sum(state: SectorState) -> Fraction:
    """Sum of squared x/y-only correlations: 2^(n-1) * sum_i d_i^2 (Parseval)."""
    total = sum((mult * d * d for _, mult, _, d in state.classes()), Fraction(0))
    return total * (1 << (state.n - 1))


def hs_norm_sq(state: SectorState) -> Fraction:
    """Squared Hilbert-Schmidt norm of the full-correlation tensor, exactly.

    Planar part in closed form plus the axial term squared; below 1 the
    correlation Bell condition is guaranteed satisfied.
    """
    return planar_square_sum(state) + axial_expectation(state) ** 2


def hs_norm_sq_exact(state: SectorState) -> Fraction:
    """Hilbert-Schmidt square by the exact 2^n-mask scan; oracle for ``hs_norm_sq``."""
    if state.n > SCAN_CAP:
        raise SizeLimitError(f"exact scan needs n <= {SCAN_CAP}, got {state.n}")
    support = [(i, c) for i in state.support() if (c := state.sector_diff(i))]
    total = Fraction(0)
    for y in range(1 << state.n):
        if y.bit_count() & 1:
            continue
        t = Fraction(0)
        for i, c in support:
            t += -c if (y & i).bit_count() & 1 else c
        total += t * t
    return total + axial_expectation(state) ** 2


@dataclass(frozen=True)
class CorrelationTensorSummary:
    """Nonzero full-correlation elements and their squared Hilbert-Schmidt norm.

    Every stored tuple is either all-z or z-free; ``planar_sq`` and
    ``axial_sq`` split ``hs_norm_sq`` into those two contributions.
    """

    n: int
    nonzero_elements: Dict[Tuple[int, ...], float]
    hs_norm_sq: float
    planar_sq: float
    axial_sq: float


def brute_force_tensor(state: SectorState) -> CorrelationTensorSummary:
    """Full 3^n dense-trace enumeration; the oracle for the fast paths."""
    n = state.n
    if n > BRUTE_CAP:
        raise SizeLimitError(f"brute-force tensor needs n <= {BRUTE_CAP}, got {n}")
    elements: Dict[Tuple[int, ...], float] = {}
    planar = axial = 0.0
    total = 0.0
    rho_t = to_dense(state).T.copy()
    for axes in product((AXIS_X, AXIS_Y, AXIS_Z), repeat=n):
        op = PAULI[axes[0]]
        for a in axes[1:]:
            op = np.kron(op, PAULI[a])
        t = float(np.sum(op * rho_t).real)  # Tr[op @ rho]
        total += t * t
        if abs(t) > ZERO_TOL:
            elements[axes] = t
            if all(a == AXIS_Z for a in axes):
                axial += t * t
            else:
                planar += t * t
    return CorrelationTensorSummary(
        n=n,
        nonzero_elements=elements,
        hs_norm_sq=total,
        planar_sq=planar,
        axial_sq=axial,
    )


@dataclass(frozen=True)
class DetectionRow:
    """QFI-witness vs correlation-Bell-condition comparison for one state."""

    n: int
    f_q: Fraction
    f_q_over_n: Fraction
    hs_norm_sq: float  # float of the exact norm; the verdict uses the rational
    verdict: str


def detection_comparison(state: SectorState) -> DetectionRow:
    """Classify which entanglement test fires: QFI (f_q/n > 1), Bell (hs >= 1).

    ``hs_norm_sq < 1`` certifies a hidden-variable model for the correlation
    inequalities, so only the QFI witness can fire there; ``hs >= 1`` leaves
    the Bell condition undecided and is reported as the Bell side "firing"
    for comparison purposes.
    """
    f_q = qfi_ghz_diagonal(state)
    hs = hs_norm_sq(state)
    qfi_detects = f_q > state.n
    bell_side = hs >= 1
    if qfi_detects and not bell_side:
        verdict = "QFI-only detection"
    elif qfi_detects and bell_side:
        verdict = "both"
    elif bell_side:
        verdict = "Bell-only"
    else:
        verdict = "neither"
    return DetectionRow(
        n=state.n,
        f_q=f_q,
        f_q_over_n=f_q / state.n,
        hs_norm_sq=float(hs),
        verdict=verdict,
    )
