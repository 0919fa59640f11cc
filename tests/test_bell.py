"""Correlation tensor: structure rules, closed form vs oracles, detection verdicts."""
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings

import ghzmetro.bell as bell
import ghzmetro.oracles as oracles
from ghzmetro import (
    GhzDiagonalState,
    brute_force_tensor,
    build_rho_nk,
    detection_comparison,
    ghz_state,
    hs_norm_sq,
    hs_norm_sq_exact,
    maximally_mixed_state,
    qfi_closed_nk,
)
from conftest import random_state_strategy, structure_rule

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
        b = brute.nonzero_elements.get(axes, 0.0)
        assert abs(a - b) <= 1e-12, axes
    assert abs(float(hs_norm_sq_exact(state)) - brute.hs_norm_sq) <= 1e-12


# -- Hilbert-Schmidt norm --------------------------------------------------------------

def test_hs_anchors():
    assert hs_norm_sq(bell_pair()) == 3
    assert hs_norm_sq(maximally_mixed_state(4)) == 0
    assert hs_norm_sq(ghz_state(3)) == 4
    assert hs_norm_sq_exact(bell_pair()) == 3


def test_hs_exact_family_values():
    assert hs_norm_sq_exact(build_rho_nk(4, 2)) == Fraction(49, 121)
    assert hs_norm_sq_exact(build_rho_nk(5, 2)) == Fraction(3, 8)
    assert hs_norm_sq_exact(build_rho_nk(6, 2)) == Fraction(81, 121)


@settings(max_examples=30, deadline=None)
@given(random_state_strategy(max_n=8))
def test_hs_closed_form_equals_scan_random(state):
    assert hs_norm_sq(state) == hs_norm_sq_exact(state)
    if state.n <= 5:
        brute = brute_force_tensor(state)
        assert abs(float(hs_norm_sq(state)) - brute.hs_norm_sq) < 1e-12


def test_hs_norm_at_four_thousand_qubits_and_the_widest_k():
    # n odd: the axial term is 0, each of the C(n, j) sectors of a band j < k
    # has d = lam and band k has d = 0, so the norm is 2^(n-1) sum_{j<k} C(n, j)
    # lam^2; with k = (n-1)/2 the bands j <= k hold half of the binomial row,
    # so 1/lam = 2^(n-1) and sum_{j<k} C(n, j) = 2^(n-1) - C(n, k)
    n, k = 4095, 2047
    half = 1 << (n - 1)
    assert hs_norm_sq(build_rho_nk(n, k)) == Fraction(half * (half - comb(n, k)), half ** 2)


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


@pytest.mark.parametrize("n, k, overflows", [
    (1045, 1, False), (1046, 1, True), (1053, 2, False), (1054, 2, True)])
def test_detection_row_norm_past_the_float_range_is_inf(n, k, overflows):
    # 2^(n-1) sum d^2 passes 2^1024 first at n = 1046 for k = 1 and 1054 for k = 2
    state = build_rho_nk(n, k)
    hs = hs_norm_sq(state)
    row = detection_comparison(state)
    assert (hs >= 2**1024) == overflows
    assert row.hs_norm_sq == (float("inf") if overflows else float(hs))
    assert row.verdict == ("both" if row.f_q > n else "Bell-only")  # hs >= 1, exactly
