"""QFI: the spectral route, family closed forms and their identities, bounds, scan reports."""
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzmetro import (
    BandState,
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
    scaled_k,
    to_dense,
    weight,
)
from conftest import family_members, ghz_vector, random_state_strategy


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
    with pytest.raises(DomainError, match="not 1"):
        qfi_from_dense(np.diag([0.5, 0.2, 0.2, 0.2]), gen)  # not unit trace
    with pytest.raises(DomainError, match="negative eigenvalue"):  # unit trace
        qfi_from_dense(np.diag([0.5, 0.5, 0.25, -0.25]), gen)


def test_spectral_refuses_a_generator_of_another_size():
    with pytest.raises(DomainError, match="does not match"):
        qfi_from_dense(to_dense(ghz_state(3)), PhaseGenerator(4))


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
        spectral = qfi_from_dense(to_dense(state), gen)
    assert spectral == pytest.approx(expected, rel=1e-12, abs=1e-12)


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
            assert family_report(n, k).s_nk == Fraction(partial[k - 1], partial[k]), (n, k)
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
        (lambda: family_report(12, 3), (12, 3)),
        (lambda: family_report(100, 25, m=0), (100, 25)),
    ]
    for call, row in calls:
        rows.clear()
        call()
        assert rows == [row]


# -- bounds ----------------------------------------------------------------------------

def test_lower_bound_values():
    assert family_report(4, 2).lower_bound == 0  # degenerate at 2k == n
    assert family_report(100, 25).lower_bound == Fraction(62500, 101)


def test_mixed_bound_values():
    assert family_report(10, 2, m=2).mixed_lower_bound == Fraction(9, 7)
    assert family_report(8, 2, m=1).mixed_lower_bound == Fraction(16, 5)
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
        family_report(8, 2, m=3)


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


# -- entanglement verdicts: biseparability and certified depth ---------------------

def largest_ghz_weight(state):
    """Largest GHZ-basis weight (s + |d|) / (2 den) over the state's classes."""
    return max(Fraction(s + abs(d), 2 * state.den) for _, _, s, d in state.classes())


def depth_cap(n, k):
    """F_Q cap s k^2 + r^2 (n = s k + r) of states with no entangled block above k qubits."""
    s, r = divmod(n, k)
    return s * k * k + r * r


def certified_depth(n, f_q):
    """The entanglement depth F_Q certifies: 1 + the largest k whose cap it exceeds."""
    return 1 + max((k for k in range(1, n + 1) if f_q > depth_cap(n, k)), default=0)


def partitions(n, largest):
    """Every partition of n into parts of at most ``largest``, largest part first."""
    if n == 0:
        yield ()
        return
    for b in range(min(n, largest), 0, -1):
        for rest in partitions(n - b, b):
            yield (b, *rest)


def test_every_member_is_biseparable():
    # GME iff the largest GHZ weight exceeds 1/2; a member's is 1/S(n, k+m)
    for n, k, m in family_members(60):
        state = build_rho_nkm(n, k, m)
        assert largest_ghz_weight(state) == state.plus[0] <= Fraction(1, n + 1), (n, k, m)
    for n in range(2, 21):
        assert largest_ghz_weight(ghz_state(n)) == 1


def test_depth_cap_is_the_best_partition():
    # the largest sum of squared block sizes over partitions of n into blocks <= k
    for n in range(1, 31):
        best = [0] * (n + 1)  # best[b]: over the partitions whose largest part is b
        for p in partitions(n, n):
            best[p[0]] = max(best[p[0]], sum(b * b for b in p))
        for k in range(1, n + 1):
            assert max(best[1:k + 1]) == depth_cap(n, k), (n, k)


@pytest.mark.parametrize("n, k, depth", [
    (16, 4, 2), (32, 7, 4), (64, 13, 7), (256, 50, 25), (1000, 192, 91)])
def test_qfi_best_member_certifies_depth(n, k, depth):
    assert max(range(1, n // 2 + 1), key=lambda j: qfi_closed_nk(n, j)) == k
    assert certified_depth(n, qfi_closed_nk(n, k)) == depth


def test_ghz_certifies_full_depth_and_the_dephased_plus_state_depth_one():
    for n in range(2, 21):
        assert certified_depth(n, qfi_ghz_diagonal(ghz_state(n))) == n
        bands = n // 2 + 1
        plus = BandState(n, (Fraction(1, 1 << (n - 1)),) * bands, (0,) * bands)
        assert qfi_ghz_diagonal(plus) == n
        assert certified_depth(n, qfi_ghz_diagonal(plus)) == 1
