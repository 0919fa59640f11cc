"""QFI: the spectral route, family closed forms and their identities, bounds, scan reports."""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzmetro import (
    DomainError,
    GhzDiagonalState,
    PhaseGenerator,
    build_rho_nk,
    build_rho_nkm,
    family_report,
    ghz_state,
    maximally_mixed_state,
    oracles,
    qfi,
    qfi_closed_nk,
    qfi_from_dense,
    qfi_ghz_diagonal,
    qfi_lower_bound_nk,
    qfi_lower_bound_nkm,
    qfi_spectral,
    s_factor,
    scaled_k,
    to_dense,
    weight,
)
from conftest import family_grid, family_members, ghz_vector, random_state_strategy


# -- generator -----------------------------------------------------------------

def test_generator_diagonal_matches_weights():
    gen = PhaseGenerator(4)
    z = gen.diagonal()
    for i in range(8):
        assert z[i] == weight(4, i) / 2
        assert z[15 - i] == -weight(4, i) / 2


def test_generator_sector_matrix_element():
    z = np.diag(PhaseGenerator(4).diagonal())
    for i in (0, 1, 3, 7):
        plus = ghz_vector(4, i, +1)
        minus = ghz_vector(4, i, -1)
        assert plus @ z @ minus == pytest.approx(weight(4, i) / 2)


# -- spectral route --------------------------------------------------------------

def test_spectral_pure_ghz_heisenberg():
    for n in (2, 3, 4, 6):
        rho = to_dense(ghz_state(n))
        assert qfi_from_dense(rho, PhaseGenerator(n)) == pytest.approx(n**2, abs=1e-9)


def test_spectral_maximally_mixed_zero():
    rho = to_dense(maximally_mixed_state(4))
    assert qfi_from_dense(rho, PhaseGenerator(4)) == pytest.approx(0.0, abs=1e-12)


def test_spectral_rho_42():
    rho = to_dense(build_rho_nk(4, 2))
    assert qfi_from_dense(rho, PhaseGenerator(4)) == pytest.approx(32 / 11, abs=1e-10)


def test_spectral_validates_inputs():
    gen = PhaseGenerator(2)
    with pytest.raises(DomainError):
        qfi_spectral([0.5, 0.2, 0.2, 0.2], np.eye(4), gen)  # not unit trace
    bad = np.eye(4)
    bad[0, 1] = 0.5  # not orthonormal
    with pytest.raises(DomainError):
        qfi_spectral([0.25] * 4, bad, gen)


# -- GHZ-diagonal closed form ------------------------------------------------------

def test_diagonal_form_swap_invariant():
    state = GhzDiagonalState(3, {0: Fraction(1, 4)}, {0: Fraction(3, 4)})
    swapped = GhzDiagonalState(3, {0: Fraction(3, 4)}, {0: Fraction(1, 4)})
    assert qfi_ghz_diagonal(state) == qfi_ghz_diagonal(swapped)


@settings(max_examples=60, deadline=None)
@given(random_state_strategy(max_n=5))
def test_diagonal_vs_spectral_random(state):
    exact = float(qfi_ghz_diagonal(state))
    spectral = qfi_from_dense(to_dense(state), PhaseGenerator(state.n))
    assert abs(exact - spectral) < 1e-9


@settings(max_examples=30, deadline=None)
@given(random_state_strategy(max_n=8), st.integers(1, 300))
def test_blocked_spectral_sum_is_the_double_sum(state, block):
    # any block size, a ragged last block included, gives the plain double sum
    lam, v = np.linalg.eigh(to_dense(state))
    gen = PhaseGenerator(state.n)
    zmat = (v.T @ (gen.diagonal()[:, None] * v)).tolist()
    p = np.clip(lam, 0.0, None).tolist()
    expected = 0.0
    for a in range(len(p)):
        for b in range(len(p)):
            if p[a] + p[b] > oracles.SUPPORT_TOL:
                expected += 2 * (p[a] - p[b]) ** 2 / (p[a] + p[b]) * zmat[a][b] ** 2
    with mock.patch.object(oracles, "EIGVEC_BLOCK", block):
        assert qfi_spectral(lam, v, gen) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- family closed form --------------------------------------------------------------

def test_closed_nk_values():
    assert qfi_closed_nk(4, 2) == Fraction(32, 11)
    assert qfi_closed_nk(7, 2) == Fraction(224, 29)
    assert qfi_closed_nk(8, 2) == Fraction(352, 37)
    for n in range(2, 30):
        assert qfi_closed_nk(n, 1) == Fraction(n**2, n + 1)


@pytest.mark.parametrize("m", [0, 2])
def test_closed_nk_matches_class_sum_at_large_n(m):
    # both routes read one binomial row; the class sum runs over 2k + 2m + 1 classes
    assert qfi_closed_nk(4000, 1000, m) == qfi_ghz_diagonal(build_rho_nkm(4000, 1000, m))


def test_class_sum_at_four_thousand_qubits_and_the_widest_k():
    # 2k + 1 classes of 4096-bit rows, summed as one integer sum
    assert qfi_ghz_diagonal(build_rho_nk(4096, 2047)) == qfi_closed_nk(4096, 2047)


@pytest.mark.parametrize("n,k", list(family_grid(8)))
def test_closed_vs_spectral(n, k):
    closed = float(qfi_closed_nk(n, k))
    spectral = qfi_from_dense(to_dense(build_rho_nk(n, k)), PhaseGenerator(n))
    assert abs(closed - spectral) < 1e-9


def test_closed_nk_domain():
    with pytest.raises(DomainError):
        qfi_closed_nk(4, 3)


def per_j_sums(n):
    """Oracle rows by math.comb: W[k] = sum_{j<k} (n-2j)^2 C(n,j), S[t] = sum_{j<=t} C(n,j)."""
    weighted, partial, w, s = [0], [], 0, 0
    for j in range(n // 2 + 1):
        c = math.comb(n, j)
        w += (n - 2 * j) ** 2 * c
        s += c
        weighted.append(w)
        partial.append(s)
    return weighted, partial


def test_closed_forms_match_per_j_sums():
    # every member (n, k, m) with n <= 120: the partial-sum identity against
    # the per-j weighted sum, and s_nk against its per-j ratio
    members = 0
    for n in range(2, 121):
        weighted, partial = per_j_sums(n)
        for k in range(1, n // 2 + 1):
            assert s_factor(n, k) == Fraction(partial[k - 1], partial[k]), (n, k)
            for m in range(n // 2 - k + 1):
                assert qfi_closed_nk(n, k, m) == Fraction(weighted[k], partial[k + m]), (n, k, m)
                members += 1
    assert members == 73810


def test_partial_sum_identity_telescopes():
    # g(j) = j(n-2j+1) C(n,j) steps by [(n-2j)^2 - n] C(n,j)
    def g(n, j):
        return j * (n - 2 * j + 1) * math.comb(n, j)

    for n in range(1, 201):
        for j in range(n):
            assert g(n, j + 1) - g(n, j) == ((n - 2 * j) ** 2 - n) * math.comb(n, j), (n, j)


def test_family_closed_forms_build_one_row(monkeypatch):
    rows, build_row = [], qfi._binomial_row

    def counting_row(n, top):
        rows.append((n, top))
        return build_row(n, top)

    monkeypatch.setattr(qfi, "_binomial_row", counting_row)
    calls = [
        (lambda: family_report(12, 3, m=2), (12, 5)),
        (lambda: family_report(100, 25, a=Fraction(1, 4)), (100, 25)),
        (lambda: qfi_closed_nk(12, 3, 2), (12, 5)),
        (lambda: qfi_closed_nk(100, 25), (100, 25)),
        (lambda: s_factor(12, 3), (12, 3)),
        (lambda: s_factor(100, 25), (100, 25)),
    ]
    for call, row in calls:
        rows.clear()
        call()
        assert rows == [row]


# -- bounds ----------------------------------------------------------------------------

def test_lower_bound_values():
    assert qfi_lower_bound_nk(4, 2) == 0  # degenerate at 2k == n
    assert qfi_lower_bound_nk(100, 25) == Fraction(62500, 101)


def test_mixed_bound_values():
    assert qfi_lower_bound_nkm(10, 2, 2) == Fraction(9, 7)
    assert qfi_lower_bound_nkm(8, 2, 1) == Fraction(16, 5)
    assert qfi_ghz_diagonal(build_rho_nkm(8, 2, 1)) == Fraction(352, 93)
    assert Fraction(352, 93) >= Fraction(16, 5)


def test_every_reported_bound_is_below_the_qfi():
    # (n - 2k)^2 k/(n + 1) bounds rho_{n,k} only, so a member with m >= 1
    # reports its mixed bound alone
    for n, k, m in family_members(40):
        rep = family_report(n, k, m=m)
        bounds = [b for b in (rep.lower_bound, rep.mixed_lower_bound) if b is not None]
        assert len(bounds) == 1 and bounds[0] <= rep.f_q, (n, k, m)


def test_mixed_bound_domain():
    with pytest.raises(DomainError):
        qfi_lower_bound_nkm(8, 2, 0)
    with pytest.raises(DomainError):
        qfi_lower_bound_nkm(8, 2, 3)


# -- scan reports ------------------------------------------------------------------

def test_scaled_k_rounding_and_clipping():
    assert scaled_k(Fraction(1, 4), 100) == 25
    assert scaled_k(Fraction(1, 4), 42) == 11  # 10.5 rounds half-up
    assert scaled_k(Fraction(3, 8), 4) == 1  # clipped into [1, ceil(n/2)-1]
    assert scaled_k(Fraction(1, 8), 100) == 13  # 12.5 rounds half-up
    with pytest.raises(DomainError):
        scaled_k(Fraction(1, 2), 10)


def linear_scan_report(n, a):
    """Family report at k = round(a*n), as ``qfi --a`` and figure 3 build it."""
    return family_report(n, scaled_k(a, n), a=a)


def test_asymptotic_report_100():
    report = linear_scan_report(100, Fraction(1, 4))
    assert report.k == 25
    assert report.f_q >= Fraction(62500, 101)
    assert report.lower_bound == Fraction(62500, 101)
    scale = Fraction(1, 4) * Fraction(1, 2) * 100 * 100
    assert report.ratio_limit_form == report.f_q / scale
    assert report.ratio_bound_form == report.f_q / (scale * Fraction(1, 2))


def test_bound_alone_certifies_subshotnoise_at_40():
    report = linear_scan_report(40, Fraction(1, 4))
    assert report.lower_bound == Fraction(400 * 10, 41)
    assert report.lower_bound > 40


def test_family_report_mixed():
    report = family_report(8, 2, m=1)
    assert report.f_q == Fraction(352, 93)
    assert report.mixed_lower_bound == Fraction(16, 5)

