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

``hs_norm_sq`` evaluates that closed form in exact rationals over the
coherence support.  Two independent oracles remain: ``hs_norm_sq_exact``
and ``correlation_summary`` scan the 2^n masks in exact rationals, and
``brute_force_tensor`` traces all 3^n Pauli tuples against the dense matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, SizeLimitError
from .qfi import qfi_ghz_diagonal
from .states import GhzDiagonalState, to_dense

AXIS_X, AXIS_Y, AXIS_Z = 1, 2, 3

PAULI = {
    AXIS_X: np.array([[0, 1], [1, 0]], dtype=complex),
    AXIS_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    AXIS_Z: np.array([[1, 0], [0, -1]], dtype=complex),
}

SCAN_CAP = 12  # qubit cap of the exact 2^n-mask scans
BRUTE_CAP = 6  # qubit cap of the 3^n dense-trace enumeration
ZERO_TOL = 1e-12  # brute-force elements at or below this are reported as zero


def _check_axes(axes: Sequence[int], n: int) -> Tuple[int, ...]:
    axes = tuple(axes)
    if len(axes) != n:
        raise DomainError(f"tuple length {len(axes)} does not match n = {n}")
    if any(a not in (AXIS_X, AXIS_Y, AXIS_Z) for a in axes):
        raise DomainError(f"axes must be in {{1, 2, 3}} (x, y, z), got {axes}")
    return axes


def _y_mask(axes: Tuple[int, ...], n: int) -> int:
    """Bit mask of y positions; axes[0] acts on the most significant bit."""
    mask = 0
    for pos, a in enumerate(axes):
        if a == AXIS_Y:
            mask |= 1 << (n - 1 - pos)
    return mask


def axial_expectation(state: GhzDiagonalState) -> Fraction:
    """All-z full correlation: signed sum of sector weights, 0 for odd n."""
    if state.n % 2:
        return Fraction(0)
    total = Fraction(0)
    for i in state.support():
        sign = -1 if i.bit_count() & 1 else 1
        total += sign * state.sector_sum(i)
    return total


def planar_expectation(state: GhzDiagonalState, y_mask: int) -> Fraction:
    """x/y-only full correlation with y on the bits of ``y_mask``, exactly."""
    y = y_mask.bit_count()
    if y & 1:
        return Fraction(0)
    total = Fraction(0)
    for i in state.coherence_support():
        sign = -1 if (y_mask & i).bit_count() & 1 else 1
        total += sign * state.sector_diff(i)
    if (y // 2) & 1:
        total = -total
    return total


def pauli_expectation(state: GhzDiagonalState, axes: Sequence[int]) -> float:
    """Tr[s_{k_1} x ... x s_{k_n} rho] via the structure rules; no matrices."""
    axes = _check_axes(axes, state.n)
    has_z = AXIS_Z in axes
    has_planar = any(a in (AXIS_X, AXIS_Y) for a in axes)
    if has_z and has_planar:
        return 0.0
    if has_z:
        return float(axial_expectation(state))
    return float(planar_expectation(state, _y_mask(axes, state.n)))


def planar_square_sum(state: GhzDiagonalState) -> Fraction:
    """Sum of squared x/y-only correlations: 2^(n-1) * sum_i d_i^2 (Parseval)."""
    total = sum((state.sector_diff(i) ** 2 for i in state.coherence_support()), Fraction(0))
    return total * (1 << (state.n - 1))


def hs_norm_sq(state: GhzDiagonalState) -> Fraction:
    """Squared Hilbert-Schmidt norm of the full-correlation tensor, exactly.

    Planar part in closed form plus the axial term squared; below 1 the
    correlation Bell condition is guaranteed satisfied.
    """
    return planar_square_sum(state) + axial_expectation(state) ** 2


def hs_norm_sq_exact(state: GhzDiagonalState) -> Fraction:
    """Hilbert-Schmidt square by the exact 2^n-mask scan; oracle for ``hs_norm_sq``."""
    if state.n > SCAN_CAP:
        raise SizeLimitError(f"exact scan needs n <= {SCAN_CAP}, got {state.n}")
    support = [(i, state.sector_diff(i)) for i in state.coherence_support()]
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


def correlation_summary(state: GhzDiagonalState) -> CorrelationTensorSummary:
    """Structure-exploiting tensor summary with exact element values."""
    if state.n > SCAN_CAP:
        raise SizeLimitError(f"tensor summary needs n <= {SCAN_CAP}, got {state.n}")
    n = state.n
    elements: Dict[Tuple[int, ...], float] = {}
    planar = Fraction(0)
    for y in range(1 << n):
        if y.bit_count() & 1:
            continue
        t = planar_expectation(state, y)
        if t != 0:
            axes = tuple(
                AXIS_Y if y >> (n - 1 - pos) & 1 else AXIS_X for pos in range(n)
            )
            elements[axes] = float(t)
            planar += t * t
    axial = axial_expectation(state)
    if axial != 0:
        elements[(AXIS_Z,) * n] = float(axial)
    return CorrelationTensorSummary(
        n=n,
        nonzero_elements=elements,
        hs_norm_sq=float(planar + axial * axial),
        planar_sq=float(planar),
        axial_sq=float(axial * axial),
    )


def brute_force_tensor(
    state_or_dense: Union[GhzDiagonalState, np.ndarray],
    n: Optional[int] = None,
) -> CorrelationTensorSummary:
    """Full 3^n dense-trace enumeration; the oracle for the fast paths."""
    if isinstance(state_or_dense, GhzDiagonalState):
        n = state_or_dense.n
        rho = to_dense(state_or_dense)
    else:
        rho = np.asarray(state_or_dense, dtype=complex)
        if n is None:
            n = int(round(np.log2(rho.shape[0])))
    if n > BRUTE_CAP:
        raise SizeLimitError(f"brute-force tensor needs n <= {BRUTE_CAP}, got {n}")
    from itertools import product

    elements: Dict[Tuple[int, ...], float] = {}
    planar = axial = 0.0
    total = 0.0
    rho_t = rho.T.copy()
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


def detection_comparison(
    state: GhzDiagonalState, f_q: Optional[Fraction] = None
) -> DetectionRow:
    """Classify which entanglement test fires: QFI (f_q/n > 1), Bell (hs >= 1).

    ``hs_norm_sq < 1`` certifies a hidden-variable model for the correlation
    inequalities, so only the QFI witness can fire there; ``hs >= 1`` leaves
    the Bell condition undecided and is reported as the Bell side "firing"
    for comparison purposes.
    """
    if f_q is None:
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
        f_q_over_n=Fraction(f_q) / state.n,
        hs_norm_sq=float(hs),
        verdict=verdict,
    )
