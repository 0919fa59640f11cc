"""Correlation tensor: structure rules, closed form vs oracles, detection verdicts."""
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings

import ghzmetro.bell as bell
from ghzmetro import (
    GhzDiagonalState,
    brute_force_tensor,
    build_rho_nk,
    correlation_summary,
    detection_comparison,
    ghz_state,
    hs_norm_sq,
    hs_norm_sq_exact,
    maximally_mixed_state,
    pauli_expectation,
    qfi_closed_nk,
)
from conftest import family_grid, random_state_strategy

X, Y, Z = bell.AXIS_X, bell.AXIS_Y, bell.AXIS_Z


def bell_pair():
    return GhzDiagonalState(2, {0: Fraction(1)}, {})


# -- single-tuple expectations -----------------------------------------------------

def test_bell_state_correlations():
    state = bell_pair()
    assert pauli_expectation(state, (X, X)) == 1.0
    assert pauli_expectation(state, (Y, Y)) == -1.0
    assert pauli_expectation(state, (Z, Z)) == 1.0
    assert pauli_expectation(state, (X, Y)) == 0.0


def test_mixed_axis_tuples_vanish():
    for n, k in family_grid(5):
        state = build_rho_nk(n, k)
        for axes in product((X, Y, Z), repeat=n):
            if Z in axes and (X in axes or Y in axes):
                assert pauli_expectation(state, axes) == 0.0


def test_all_z_odd_n_vanishes():
    for n, k in ((3, 1), (5, 2), (7, 3)):
        assert pauli_expectation(build_rho_nk(n, k), (Z,) * n) == 0.0


def test_all_z_rho_42():
    assert pauli_expectation(build_rho_nk(4, 2), (Z,) * 4) == pytest.approx(3 / 11)


def test_expectations_match_dense_traces():
    state = build_rho_nk(4, 2)
    from ghzmetro import to_dense

    rho = to_dense(state)
    for axes in product((X, Y, Z), repeat=4):
        op = bell.PAULI[axes[0]]
        for a in axes[1:]:
            op = np.kron(op, bell.PAULI[a])
        dense_val = float(np.trace(op @ rho).real)
        assert pauli_expectation(state, axes) == pytest.approx(dense_val, abs=1e-12)


# -- fast path vs brute force ---------------------------------------------------------

@pytest.mark.parametrize("n,k", list(family_grid(6)))
def test_summary_matches_brute_force(n, k):
    state = build_rho_nk(n, k)
    fast = correlation_summary(state)
    brute = brute_force_tensor(state)
    keys = set(fast.nonzero_elements) | set(brute.nonzero_elements)
    for axes in keys:
        a = fast.nonzero_elements.get(axes, 0.0)
        b = brute.nonzero_elements.get(axes, 0.0)
        assert abs(a - b) < 1e-10, axes
    assert abs(fast.hs_norm_sq - brute.hs_norm_sq) < 1e-10


@settings(max_examples=25, deadline=None)
@given(random_state_strategy(max_n=4))
def test_summary_matches_brute_force_random(state):
    fast = correlation_summary(state)
    brute = brute_force_tensor(state)
    assert abs(fast.hs_norm_sq - brute.hs_norm_sq) < 1e-10
    keys = set(fast.nonzero_elements) | set(brute.nonzero_elements)
    for axes in keys:
        a = fast.nonzero_elements.get(axes, 0.0)
        b = brute.nonzero_elements.get(axes, 0.0)
        assert abs(a - b) < 1e-10


@settings(max_examples=20, deadline=None)
@given(random_state_strategy(max_n=4))
def test_single_tuple_matches_dense_random(state):
    from ghzmetro import to_dense

    rho = to_dense(state)
    for axes in [(X,) * state.n, (Y, Y) + (X,) * (state.n - 2),
                 (Z,) * state.n, (Z, X) + (Y,) * (state.n - 2)]:
        op = bell.PAULI[axes[0]]
        for a in axes[1:]:
            op = np.kron(op, bell.PAULI[a])
        dense_val = float(np.trace(op @ rho).real)
        assert pauli_expectation(state, axes) == pytest.approx(dense_val, abs=1e-12)


def test_nonzero_tuple_count():
    # every even-y planar tuple survives for these states, plus all-z when n even
    for n, k in family_grid(6):
        state = build_rho_nk(n, k)
        summary = correlation_summary(state)
        expected = (1 << (n - 1)) + (1 if n % 2 == 0 else 0)
        assert len(summary.nonzero_elements) == expected
    assert len(correlation_summary(bell_pair()).nonzero_elements) == 3


def test_stored_tuples_are_axial_or_planar():
    for axes in correlation_summary(build_rho_nk(6, 2)).nonzero_elements:
        assert all(a == Z for a in axes) or all(a != Z for a in axes)


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


def test_hs_float_vs_exact():
    # both routes are rational, so they must agree exactly
    for n, k in family_grid(9):
        state = build_rho_nk(n, k)
        assert hs_norm_sq(state) == hs_norm_sq_exact(state)


@settings(max_examples=30, deadline=None)
@given(random_state_strategy(max_n=8))
def test_hs_closed_form_equals_scan_random(state):
    assert hs_norm_sq(state) == hs_norm_sq_exact(state)
    if state.n <= 5:
        brute = brute_force_tensor(state)
        assert abs(float(hs_norm_sq(state)) - brute.hs_norm_sq) < 1e-12


def test_product_state_dense_oracle():
    # |0...0> is not GHZ-diagonal; only the all-z correlation survives
    for n in (2, 3, 4):
        rho = np.zeros((1 << n, 1 << n), dtype=complex)
        rho[0, 0] = 1.0
        summary = brute_force_tensor(rho, n=n)
        assert summary.hs_norm_sq == pytest.approx(1.0, abs=1e-12)
        assert set(summary.nonzero_elements) == {(Z,) * n}


def test_hs_swap_invariance():
    state = GhzDiagonalState(3, {0: Fraction(1, 4)}, {0: Fraction(3, 4)})
    assert hs_norm_sq_exact(state) == hs_norm_sq_exact(state.plus_dominant())


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
