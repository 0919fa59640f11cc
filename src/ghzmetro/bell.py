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

``detection_comparison`` evaluates that closed form exactly, each part one
integer sum over the class rows (at most 2t + 1 for a ``BandState`` with top
band t, every family member), so it lists no sector; it keeps both parts on
its row, and every printed full norm is their sum.

Bound A: without a Bell violation the QFI stays below sqrt(3) n.  Let P be
the planar sum, s_i = lambda_i^+ + lambda_i^- and w_i = n - 2|i| the phase
speed of sector i.  Since |d_i| <= s_i, by Cauchy-Schwarz

    F_Q = sum_i w_i^2 d_i^2 / s_i <= sum_i w_i^2 |d_i|
        <= (sum_i w_i^4)^(1/2) (sum_i d_i^2)^(1/2),

and over the 2^(n-1) representatives sum_i w_i^4 = 2^(n-1) (3n^2 - 2n), the
fourth moment of a sum of n random signs, so F_Q^2 <= (3n^2 - 2n) P.  All
two-setting WWZB correlation inequalities hold iff the in-plane sum of T^2 is
at most 1 in every choice of one local plane per qubit (Zukowski & Brukner,
PRL 88, 210401 (2002)), and P is that sum in the x-y planes.  So a state
that satisfies all of them has P <= 1 and F_Q <= sqrt(3n^2 - 2n) < sqrt(3) n.
Equality holds where d_i = s_i is proportional to w_i^2 (lambda^+ on band b
(n - 2b)^2 / (2^(n-1) n), lambda^- = 0): there F_Q = 3n - 2 and P = 3 - 2/n.

Bound B: without a violation, global parity stays at shot noise.  It reads
C(theta) = sum_i d_i cos(w_i theta).  For any unit (a, b), Cauchy-Schwarz gives

    a C + b C' / sqrt(n) <= |d| (sum_i (a^2 + b^2 w_i^2 / n))^(1/2) = sqrt(P),

as sum_i w_i^2 = 2^(n-1) n, so C^2 + C'^2 / n <= P.  Its Fisher information is
then F_C = C'^2 / (1 - C^2) <= n (P - C^2) / (1 - C^2), at most n when P <= 1.
The dephased |+>^n (every lambda^+ = 2^(1-n)) has C^2 = P = 1 at theta = 0.

The two-setting WWZB condition, bracketed: with t the axial expectation and
M the largest square of A(alpha) = sum_i d_i cos(sum_q +-alpha_q), the x-only
correlation along product x-y directions, the in-plane supremum satisfies

    max(P, M + t^2) <= sup <= max(P, M + t^2) + 2^(1-n) sqrt(M) |t|.

Every plane meets the x-y plane, so plane q has an orthonormal basis u_q,
v_q = s_q w_q + c_q z with u_q, w_q orthogonal unit vectors in the x-y plane.
Take v_q on a set V of qubits and u_q off it: as tuples mixing z with x/y
vanish, that correlation is prod_{q in V} s_q A_V, plus prod_q c_q t when V
holds every qubit, where A_V is the x/y-only correlation reading w_q on V and
u_q off it.  With x_q = s_q^2 the in-plane sum is

    sum_V prod_{q in V} x_q A_V^2 + prod_q (1 - x_q) t^2
        + 2 prod_q sqrt(x_q (1 - x_q)) A_all t.

The first two terms are multilinear in x, so their maximum over [0, 1]^n is
at a vertex x = 1_W: sum_{V subset of W} A_V^2 <= P if W is not empty, as
sum_V A_V^2 = P in every x-y basis, and A_empty^2 + t^2 if it is.  The cross
term is at most 2^(1-n) |A_all t| <= 2^(1-n) sqrt(M) |t|.  The lower end is
attained: the x-y planes give P, and the planes spanned by u_q and z give
A_empty^2 + t^2.  At alpha = 0, A = <X^(x)n> = sum_i d_i, so (sum_i d_i)^2 <=
M <= (sum_i |d_i|)^2, and M = (sum_i d_i)^2 when every d_i >= 0, as on every
family member; then both ends are exact rationals, and the upper end is at
most 1 iff the lower end lo is and (1 - lo)^2 >= 4^(1-n) M t^2.  For odd n,
t = 0 and M <= P, so the supremum is exactly P: all WWZB inequalities hold
iff P <= 1.  The full norm P + t^2, which every frame reads alike, bounds the
supremum from above, so a norm >= 1 ("both") leaves the condition open.
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
    return Fraction(sum((-mult if j.bit_count() & 1 else mult) * s
                        for j, mult, s, _ in state.classes()), state.den)


def planar_square_sum(state: SectorState) -> Fraction:
    """Sum of squared x/y-only correlations: 2^(n-1) * sum_i d_i^2 (Parseval)."""
    total = sum(mult * d * d for _, mult, _, d in state.classes())
    return Fraction(total << (state.n - 1), state.den * state.den)


class DetectionRow(_Record):
    """QFI-witness vs correlation-Bell-condition comparison for one state,
    with the exact planar and axial parts of the norm its verdict read."""

    n: int
    f_q: Fraction
    f_q_over_n: Fraction
    hs_norm_sq: float  # float of planar_sq + axial_sq (inf past 2^1024); no command reads it
    verdict: str
    planar_sq: Fraction
    axial_sq: Fraction


# verdict by (QFI witness fires, Bell side fires)
_VERDICTS = {(True, False): "QFI-only detection", (True, True): "both",
             (False, True): "Bell-only", (False, False): "neither"}


def detection_comparison(state: SectorState) -> DetectionRow:
    """Classify which entanglement test fires: QFI (f_q/n > 1), Bell (hs >= 1).

    A norm below 1 certifies a hidden-variable model for the correlation
    inequalities, so only the QFI witness can fire there; ``hs >= 1`` leaves
    the Bell condition undecided and is reported as the Bell side "firing"
    for comparison purposes.  Both sides are decided on exact rationals.
    """
    f_q = qfi_ghz_diagonal(state)
    planar, axial_sq = planar_square_sum(state), axial_expectation(state) ** 2
    hs = planar + axial_sq
    try:
        hs_float = float(hs)
    except OverflowError:  # 2^(n-1) sum d^2 passes 2^1024 from about n = 1046 on
        hs_float = math.inf
    return DetectionRow(n=state.n, f_q=f_q, f_q_over_n=f_q / state.n, hs_norm_sq=hs_float,
                        verdict=_VERDICTS[f_q > state.n, hs >= 1],
                        planar_sq=planar, axial_sq=axial_sq)
