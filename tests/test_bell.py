"""Correlation tensor: structure rules, closed form vs oracles, detection verdicts."""
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings

import ghzmetro.bell as bell
import ghzmetro.oracles as oracles
from ghzmetro import (
    BandState,
    GhzDiagonalState,
    brute_force_tensor,
    build_rho_nk,
    build_rho_nkm,
    detection_comparison,
    ghz_state,
    hs_norm_sq_exact,
    maximally_mixed_state,
    qfi_closed_nk,
    weight,
)
from conftest import family_members, full_norm, random_state_strategy, structure_rule
from test_estimation import chebyshev, exact_fisher

X, Y, Z = oracles.AXIS_X, oracles.AXIS_Y, oracles.AXIS_Z


def bell_pair():
    return GhzDiagonalState(2, {0: Fraction(1)}, {})


# -- single-tuple expectations -----------------------------------------------------

def test_bell_state_correlations():
    state = bell_pair()
    assert structure_rule(state, (X, X)) == 1
    assert structure_rule(state, (Y, Y)) == -1
    assert structure_rule(state, (Z, Z)) == 1
    assert structure_rule(state, (X, Y)) == 0


def test_all_z_odd_n_vanishes():
    for n, k in ((3, 1), (5, 2), (7, 3)):
        assert bell.axial_expectation(build_rho_nk(n, k)) == 0


def test_all_z_rho_42():
    assert bell.axial_expectation(build_rho_nk(4, 2)) == pytest.approx(3 / 11)


# -- structure rules and norms vs brute force -------------------------------------------

@settings(max_examples=25, deadline=None)
@given(random_state_strategy(max_n=4))
def test_summary_matches_brute_force_random(state):
    # the family members are compared in acceptance criterion 9
    brute = brute_force_tensor(state)
    for axes in product((X, Y, Z), repeat=state.n):
        a = float(structure_rule(state, axes))
        b = brute.get(axes, 0.0)
        assert abs(a - b) <= 1e-12, axes
    assert abs(float(hs_norm_sq_exact(state)) - sum(t * t for t in brute.values())) <= 1e-12


# -- Hilbert-Schmidt norm --------------------------------------------------------------

def test_hs_anchors():
    assert full_norm(bell_pair()) == 3
    assert full_norm(maximally_mixed_state(4)) == 0
    assert full_norm(ghz_state(3)) == 4
    assert hs_norm_sq_exact(bell_pair()) == 3


def test_hs_exact_family_values():
    assert hs_norm_sq_exact(build_rho_nk(4, 2)) == Fraction(49, 121)
    assert hs_norm_sq_exact(build_rho_nk(5, 2)) == Fraction(3, 8)
    assert hs_norm_sq_exact(build_rho_nk(6, 2)) == Fraction(81, 121)


@settings(max_examples=30, deadline=None)
@given(random_state_strategy(max_n=8))
def test_hs_closed_form_equals_scan_random(state):
    assert full_norm(state) == hs_norm_sq_exact(state)
    if state.n <= 5:
        brute = sum(t * t for t in brute_force_tensor(state).values())
        assert abs(float(full_norm(state)) - brute) < 1e-12


def test_hs_norm_at_four_thousand_qubits_and_the_widest_k():
    # n odd: the axial term is 0, each of the C(n, j) sectors of a band j < k
    # has d = lam and band k has d = 0, so the norm is 2^(n-1) sum_{j<k} C(n, j)
    # lam^2; with k = (n-1)/2 the bands j <= k hold half of the binomial row,
    # so 1/lam = 2^(n-1) and sum_{j<k} C(n, j) = 2^(n-1) - C(n, k)
    n, k = 4095, 2047
    half = 1 << (n - 1)
    assert full_norm(build_rho_nk(n, k)) == Fraction(half * (half - comb(n, k)), half ** 2)


def test_hs_swap_invariance():
    state = GhzDiagonalState(3, {0: Fraction(1, 4)}, {0: Fraction(3, 4)})
    swapped = GhzDiagonalState(3, {0: Fraction(3, 4)}, {0: Fraction(1, 4)})
    assert hs_norm_sq_exact(state) == hs_norm_sq_exact(swapped)


# -- detection comparison ------------------------------------------------------------------

def test_detection_verdicts():
    assert detection_comparison(ghz_state(3)).verdict == "both"
    assert detection_comparison(build_rho_nk(7, 2)).verdict == "QFI-only detection"
    assert detection_comparison(maximally_mixed_state(4)).verdict == "neither"
    assert detection_comparison(build_rho_nk(4, 2)).verdict == "neither"
    # diagonal single-sector state: no coherence, axial correlation exactly 1
    parity_only = GhzDiagonalState(
        2, {0: Fraction(1, 2)}, {0: Fraction(1, 2)}
    )
    assert detection_comparison(parity_only).verdict == "Bell-only"


def test_detection_row_fields():
    row = detection_comparison(build_rho_nk(8, 2))
    assert row.f_q == qfi_closed_nk(8, 2)
    assert row.f_q_over_n == Fraction(352, 37 * 8)
    assert row.hs_norm_sq == float(hs_norm_sq_exact(build_rho_nk(8, 2)))



def test_detection_row_keeps_the_exact_parts_of_its_norm():
    for state in (build_rho_nk(8, 2), build_rho_nk(9, 2), ghz_state(4)):
        row = detection_comparison(state)
        assert row.planar_sq == bell.planar_square_sum(state)
        assert row.axial_sq == bell.axial_expectation(state) ** 2
        assert row.planar_sq + row.axial_sq == hs_norm_sq_exact(state)
        assert row.hs_norm_sq == float(row.planar_sq + row.axial_sq)  # perfbench reads it

@pytest.mark.parametrize("n, k, overflows", [
    (1045, 1, False), (1046, 1, True), (1053, 2, False), (1054, 2, True)])
def test_detection_row_norm_past_the_float_range_is_inf(n, k, overflows):
    # 2^(n-1) sum d^2 passes 2^1024 first at n = 1046 for k = 1 and 1054 for k = 2
    row = detection_comparison(build_rho_nk(n, k))
    hs = row.planar_sq + row.axial_sq
    assert (hs >= 2**1024) == overflows
    assert row.hs_norm_sq == (float("inf") if overflows else float(hs))
    assert row.verdict == ("both" if row.f_q > n else "Bell-only")  # hs >= 1, exactly


# -- Bound A: F_Q^2 <= (3n^2 - 2n) P ----------------------------------------------------

def test_fourth_moment_of_the_sector_weights():
    # over the representatives, sum w^4 = 2^(n-1) (3n^2 - 2n): the fourth moment
    # of a sum of n random signs
    for n in range(2, 15):
        assert sum(weight(n, i) ** 4 for i in range(1 << (n - 1))) == (
            (1 << (n - 1)) * (3 * n * n - 2 * n))


def bound_a(state):
    """(F_Q^2, (3n^2 - 2n) P) from the state's detection row."""
    row, n = detection_comparison(state), state.n
    return row.f_q ** 2, (3 * n * n - 2 * n) * row.planar_sq


@settings(max_examples=40, deadline=None)
@given(random_state_strategy(max_n=8))
def test_bound_a_on_sparse_states(state):
    f_q_sq, cap = bound_a(state)
    assert f_q_sq <= cap


def test_bound_a_on_every_member_to_forty_qubits():
    for n, k, m in family_members(40):
        f_q_sq, cap = bound_a(build_rho_nkm(n, k, m))
        assert f_q_sq <= cap, (n, k, m)


def test_bound_a_is_attained():
    # lambda^+ on band b = (n - 2b)^2 / (2^(n-1) n), lambda^- = 0: d_i = s_i is
    # proportional to w_i^2, so both steps of the proof are equalities
    for n in [*range(2, 20), 32, 64]:
        bands = n // 2 + 1
        state = BandState(n, tuple(Fraction((n - 2 * b) ** 2, (1 << (n - 1)) * n)
                                   for b in range(bands)), (0,) * bands)
        row = detection_comparison(state)
        assert (row.f_q, row.planar_sq) == (3 * n - 2, 3 - Fraction(2, n)), n
        assert bound_a(state) == ((3 * n - 2) ** 2,) * 2


# -- Bound B: C^2 + C'^2 / n <= P, so P <= 1 keeps global parity at F_C <= n ----------

COSINES = (Fraction(1), Fraction(9, 10), Fraction(1, 2), Fraction(1, 7), Fraction(0),
           Fraction(-3, 5))
cached_chebyshev = lru_cache(maxsize=None)(chebyshev)


def parity_fringe(state, t):
    """(C^2, C'^2) of global parity at cos(theta) = t, exactly, from the class
    rows: C = sum_i d_i T_|w_i|(t), C'^2 = (1 - t^2) (sum_i d_i |w_i| U_|w_i|-1(t))^2."""
    c = slope = 0
    for j, mult, _, d in state.classes():
        w = abs(state.n - 2 * j.bit_count())
        t_w, u_w = cached_chebyshev(w, t)
        c += mult * d * t_w
        slope += mult * d * w * u_w
    return Fraction(c, state.den) ** 2, (1 - t * t) * Fraction(slope, state.den) ** 2


def assert_bound_b(state):
    """C^2 + C'^2 / n <= P at every cosine, and F_C = C'^2 / (1 - C^2) <= n
    where P <= 1 and C^2 < 1; returns the F_C values that P <= 1 capped."""
    n, p = state.n, detection_comparison(state).planar_sq
    capped = []
    for t in COSINES:
        c_sq, slope_sq = parity_fringe(state, t)
        assert c_sq + slope_sq / n <= p, t
        if p <= 1 and c_sq < 1:
            capped.append(slope_sq / (1 - c_sq))
            assert capped[-1] <= n, t
    return capped


@settings(max_examples=40, deadline=None)
@given(random_state_strategy(max_n=8))
def test_bound_b_on_sparse_states(state):
    assert_bound_b(state)
    # the fringe is global parity's: its F_C is the outcome-by-outcome one
    for t in COSINES:
        c_sq, slope_sq = parity_fringe(state, t)
        if c_sq < 1:
            assert slope_sq / (1 - c_sq) == exact_fisher(state, "global-parity", t), t


def test_bound_b_on_every_member_to_forty_qubits():
    capped = 0
    for n, k, m in family_members(40):
        capped += len(assert_bound_b(build_rho_nkm(n, k, m)))
    assert capped  # some members have P <= 1


def test_bound_b_is_attained_by_the_dephased_plus_state():
    # every lambda^+ = 2^(1-n), lambda^- = 0: at theta = 0, C^2 = P = 1
    for n in range(2, 21):
        bands = n // 2 + 1
        state = BandState(n, (Fraction(1, 1 << (n - 1)),) * bands, (0,) * bands)
        assert parity_fringe(state, Fraction(1)) == (1, 0), n
        assert detection_comparison(state).planar_sq == 1, n


# -- the two-setting WWZB condition: max(P, M + t^2) <= sup <= that + 2^(1-n) sqrt(M) |t| --

# the members the QFI detects whose full norm is >= 1 ("both") while every
# two-setting WWZB inequality holds, with their lower ends
WWZB_SILENT = {(8, 2, 0): 0.84149, (10, 3, 0): 0.92562, (12, 4, 0): 0.97132,
               (14, 5, 0): 0.99906, (24, 7, 1): 0.98592}


def x_correlation(state):
    """<X^(x)n> = sum_i d_i, exactly, from the class rows."""
    return Fraction(sum(mult * d for _, mult, _, d in state.classes()), state.den)


def test_wwzb_bracket_decides_every_member_to_sixty_qubits():
    # every d_i >= 0, so M = <X^(x)n>^2 and both ends of the bracket are exact;
    # the upper end lo + 2^(1-n) sqrt(M) |t| is at most 1 iff lo <= 1 and
    # (1 - lo)^2 >= 4^(1-n) M t^2
    members = both = violated = 0
    silent = {}
    for n, k, m in family_members(60):
        if m > 3:
            continue
        members += 1
        state = build_rho_nkm(n, k, m)
        assert all(d >= 0 for _, _, _, d in state.classes()), (n, k, m)
        p, t = bell.planar_square_sum(state), bell.axial_expectation(state)
        x_sq = x_correlation(state) ** 2  # M
        lo, gap_sq = max(p, x_sq + t * t), x_sq * t * t / 4 ** (n - 1)
        assert lo > 1 or (1 - lo) ** 2 >= gap_sq, (n, k, m)  # never undecided
        if detection_comparison(state).verdict == "both":
            both += 1
            if lo > 1:
                violated += 1
            else:
                assert (1 - lo) ** 2 > gap_sq, (n, k, m)
                silent[n, k, m] = round(float(lo), 5)
    assert (members, both, violated) == (3254, 1075, 1070)
    assert silent == WWZB_SILENT


def assert_plane_sums_match_brute_force(state):
    """The x/y-only squares of the dense tensor sum to P, and the x/z-only ones,
    the all-x and all-z correlations, to <X^(x)n>^2 + t^2: the two candidates of
    the bracket's lower end."""
    tensor = brute_force_tensor(state)
    xy = sum(v * v for axes, v in tensor.items() if Z not in axes)
    xz = sum(v * v for axes, v in tensor.items() if Y not in axes)
    assert abs(xy - float(bell.planar_square_sum(state))) <= 1e-12
    assert abs(xz - float(x_correlation(state) ** 2
                          + bell.axial_expectation(state) ** 2)) <= 1e-12


def test_wwzb_bracket_parts_match_brute_force():
    mixed_signs = GhzDiagonalState(4, {0: Fraction(1, 2), 3: Fraction(1, 8)},
                                   {1: Fraction(1, 4), 3: Fraction(1, 8)})
    states = [build_rho_nkm(n, k, m) for n, k, m in family_members(6) if m <= 2]
    assert len(states) == 14
    for state in (*states, ghz_state(6), mixed_signs):
        assert_plane_sums_match_brute_force(state)


@settings(max_examples=25, deadline=None)
@given(random_state_strategy(max_n=5))
def test_wwzb_bracket_parts_match_brute_force_random(state):
    assert_plane_sums_match_brute_force(state)
