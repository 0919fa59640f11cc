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
over the state's sector classes, at most 2t + 1 of them for a ``BandState``
with top band t (every family member), so it lists no sector.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .qfi import qfi_ghz_diagonal
from .states import SectorState, _Record


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


class DetectionRow(_Record):
    """QFI-witness vs correlation-Bell-condition comparison for one state."""

    n: int
    f_q: Fraction
    f_q_over_n: Fraction
    hs_norm_sq: float  # float of the exact norm (inf past 2^1024); verdicts use the rational
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
    try:
        hs_float = float(hs)
    except OverflowError:  # 2^(n-1) sum d^2 passes 2^1024 from about n = 1046 on
        hs_float = math.inf
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
        hs_norm_sq=hs_float,
        verdict=verdict,
    )
