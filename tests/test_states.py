"""State construction: index conventions, families, dense realization."""
import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzmetro import (
    DomainError,
    GhzDiagonalState,
    SizeLimitError,
    binom_normalizer,
    build_rho_nk,
    build_rho_nkm,
    canonical_index,
    dense_limit,
    ghz_basis_vector,
    ghz_state,
    is_band_symmetric,
    maximally_mixed_state,
    min_ones,
    sector_eigenvalues,
    to_dense,
    weight,
)
from conftest import family_grid, random_state_strategy


# -- index conventions --------------------------------------------------------

@given(st.integers(2, 10), st.data())
def test_canonicalization_involution(n, data):
    r = data.draw(st.integers(0, (1 << n) - 1))
    c = canonical_index(r, n)
    assert c < (1 << (n - 1))
    assert canonical_index(c, n) == c
    assert canonical_index((1 << n) - 1 - r, n) == c


def test_weight_examples():
    assert weight(4, 0) == 4
    assert weight(4, 1) == 2
    assert weight(4, 3) == 0  # 0011 is balanced
    assert weight(4, 7) == -2  # 0111 has more ones than zeros


def test_weight_identity():
    for n in range(2, 9):
        for i in range(1 << (n - 1)):
            assert weight(n, i) + 2 * i.bit_count() == n


def test_weight_rejects_non_representative():
    with pytest.raises(DomainError):
        weight(4, 8)
    with pytest.raises(DomainError):
        weight(4, -1)


# -- GHZ basis ----------------------------------------------------------------

def test_basis_vector_four_qubits():
    v = ghz_basis_vector(4, 2, +1)
    amp = 1 / np.sqrt(2)
    assert v[0b0010] == pytest.approx(amp)
    assert v[0b1101] == pytest.approx(amp)
    assert np.count_nonzero(v) == 2
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_basis_vector_bell():
    v = ghz_basis_vector(2, 0, +1)
    assert v[0] == pytest.approx(1 / np.sqrt(2))
    assert v[3] == pytest.approx(1 / np.sqrt(2))


def test_basis_orthogonality():
    for n in (2, 3, 4):
        for i in range(1 << (n - 1)):
            plus = ghz_basis_vector(n, i, +1)
            minus = ghz_basis_vector(n, i, -1)
            assert abs(plus @ minus) < 1e-15
            for j in range(i + 1, 1 << (n - 1)):
                assert abs(plus @ ghz_basis_vector(n, j, +1)) < 1e-15


# -- normalizer ---------------------------------------------------------------

def test_binom_normalizer():
    assert binom_normalizer(4, 2) == Fraction(1, 11)
    assert binom_normalizer(7, 2) == Fraction(1, 29)  # 1 + 7 + 21
    for n in (2, 5, 9):
        assert binom_normalizer(n, 0) == 1


def test_binom_normalizer_big_n():
    # big-integer path: no overflow, exact denominator
    val = binom_normalizer(10_000, 2)
    assert val == Fraction(1, 1 + 10_000 + comb(10_000, 2))


# -- the (n, k) family --------------------------------------------------------

def test_rho_42_table():
    state = build_rho_nk(4, 2)
    lam = Fraction(1, 11)
    # band < 2 sectors carry the full weight on the even projector
    for i in (0, 1, 2, 4, 7):
        assert state.lam_plus(i) == lam
        assert state.lam_minus(i) == 0
    # band-2 sectors merge the two member strings' mixed weight (2k == n)
    for i in (3, 5, 6):
        assert state.lam_plus(i) == lam
        assert state.lam_minus(i) == lam
    assert state.trace() == 1


def test_rho_62_counts():
    state = build_rho_nk(6, 2)
    lam = Fraction(1, 22)
    pure = [i for i in state.support() if state.lam_minus(i) == 0]
    mixed = [i for i in state.support() if state.lam_minus(i) == state.lam_plus(i) > 0]
    assert len(pure) == 7  # 1 + 6
    assert len(mixed) == 15  # C(6, 2)
    assert all(state.lam_plus(i) == lam for i in pure)
    assert all(state.lam_plus(i) == lam / 2 for i in mixed)


@pytest.mark.parametrize("n,k", list(family_grid(12)))
def test_family_counts_and_trace(n, k):
    state = build_rho_nk(n, k)
    assert state.trace() == 1
    pure = sum(1 for i in state.support() if state.lam_minus(i) == 0)
    mixed = sum(1 for i in state.support() if state.lam_minus(i) > 0)
    assert pure == sum(comb(n, j) for j in range(k))
    assert mixed == (comb(n, k) // 2 if 2 * k == n else comb(n, k))


def test_family_domain_errors():
    with pytest.raises(DomainError):
        build_rho_nk(4, 3)
    with pytest.raises(DomainError):
        build_rho_nk(5, 3)
    with pytest.raises(DomainError):
        build_rho_nk(6, 0)


# -- the (n, k, m) family -----------------------------------------------------

def test_rho_nkm_zero_width_reduces():
    for n, k in family_grid(9):
        assert build_rho_nkm(n, k, 0) == build_rho_nk(n, k)


def test_rho_821():
    state = build_rho_nkm(8, 2, 1)
    lam = Fraction(1, 93)  # 1 + 8 + 28 + 56
    assert state.lam_plus(0) == lam
    assert state.trace() == 1
    # bands 2 and 3 both mixed at lam/2
    for i in state.support():
        band = min_ones(8, i)
        if band >= 2:
            assert state.lam_plus(i) == state.lam_minus(i) == lam / 2


def test_rho_nkm_trace_exact_grid():
    for n in range(4, 11):
        for k in range(1, n // 2 + 1):
            for m in range(0, n // 2 - k + 1):
                assert build_rho_nkm(n, k, m).trace() == 1


def test_rho_nkm_rejects_overwide_mixing():
    with pytest.raises(DomainError):
        build_rho_nkm(8, 2, 3)  # bands would reach 5 > 8/2
    with pytest.raises(DomainError):
        build_rho_nkm(6, 1, 4)


def test_rho_nkm_boundary_band_doubles():
    # top band at n/2 exists and the trace still closes exactly
    state = build_rho_nkm(6, 1, 2)
    lam = Fraction(1, 42)
    assert state.trace() == 1
    top = [i for i in state.support() if min_ones(6, i) == 3]
    assert len(top) == comb(6, 3) // 2
    assert all(state.lam_plus(i) == lam for i in top)


def test_band_symmetric_references():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            for m in range(0, n // 2 - k + 1):
                assert is_band_symmetric(build_rho_nkm(n, k, m)), (n, k, m)
        assert is_band_symmetric(ghz_state(n))
        assert is_band_symmetric(maximally_mixed_state(n))


def test_band_symmetry_broken_by_one_sector():
    # move weight from sector 0 (alone in band 0) to any other sector; at
    # n = 6 every other band holds several sectors, so the symmetry breaks
    state = build_rho_nk(6, 2)
    shift = state.lam_plus(0) / 2
    for i in range(1, 1 << 5):
        lp = dict(state.lambda_plus)
        lp[0] -= shift
        lp[i] = lp.get(i, Fraction(0)) + shift
        tilted = GhzDiagonalState(6, lp, state.lambda_minus)
        assert tilted.trace() == 1
        assert not is_band_symmetric(tilted), i


# -- state invariants ---------------------------------------------------------

def test_state_rejects_bad_tables():
    with pytest.raises(DomainError):
        GhzDiagonalState(2, {0: Fraction(1, 2)}, {})  # trace 1/2
    with pytest.raises(DomainError):
        GhzDiagonalState(2, {0: Fraction(3, 2)}, {1: Fraction(-1, 2)})
    with pytest.raises(DomainError):
        GhzDiagonalState(2, {2: Fraction(1)}, {})  # non-representative key
    with pytest.raises(DomainError):
        GhzDiagonalState(2, {0: 0.5, 1: 0.5}, {})  # floats rejected


def test_plus_dominant_swaps_convention():
    state = GhzDiagonalState(2, {0: Fraction(1, 4)}, {0: Fraction(3, 4)})
    swapped = state.plus_dominant()
    assert swapped.lam_plus(0) == Fraction(3, 4)
    assert swapped.lam_minus(0) == Fraction(1, 4)


# -- dense realization --------------------------------------------------------

def test_dense_rho_42_entries():
    rho = to_dense(build_rho_nk(4, 2))
    assert rho.shape == (16, 16)
    assert rho[0, 0] == pytest.approx(1 / 22)
    assert rho[0, 15] == pytest.approx(1 / 22)
    assert np.allclose(rho, rho.T)
    assert np.trace(rho) == pytest.approx(1.0)


def test_dense_eigenvalues_match_table():
    for n, k in family_grid(6):
        state = build_rho_nk(n, k)
        dense_eigs = np.sort(np.linalg.eigvalsh(to_dense(state)))
        exact = np.array([float(v) for v in sector_eigenvalues(state)])
        assert np.max(np.abs(dense_eigs - exact)) < 1e-12


def test_dense_maximally_mixed():
    n = 3
    rho = to_dense(maximally_mixed_state(n))
    assert np.allclose(rho, np.eye(1 << n) / (1 << n))


def test_dense_limit_enforced(monkeypatch):
    monkeypatch.setenv("GHZMETRO_DENSE_LIMIT", "3")
    with pytest.raises(SizeLimitError):
        to_dense(build_rho_nk(4, 1))
    monkeypatch.delenv("GHZMETRO_DENSE_LIMIT")
    to_dense(build_rho_nk(4, 1))  # default cap of 12 admits n = 4


@pytest.mark.parametrize("raw", ["1", "0", "-3"])
def test_dense_limit_below_two_rejected(monkeypatch, raw):
    monkeypatch.setenv("GHZMETRO_DENSE_LIMIT", raw)
    with pytest.raises(DomainError):
        dense_limit()


def test_family_build_size_limit():
    for build in (lambda: build_rho_nk(21, 2), lambda: build_rho_nkm(21, 2, 1)):
        with pytest.raises(SizeLimitError):
            build()
    with pytest.raises(DomainError):  # the domain is checked before the size
        build_rho_nk(21, 11)


@given(random_state_strategy(max_n=7))
def test_sparse_iterators_match_range_scan(state):
    reps = range(1 << (state.n - 1))
    assert list(state.support()) == [i for i in reps if state.sector_sum(i) != 0]
    assert list(state.coherence_support()) == [
        i for i in reps if state.sector_diff(i) != 0
    ]


@given(random_state_strategy(max_n=5))
def test_random_state_dense_roundtrip(state):
    dense_eigs = np.sort(np.linalg.eigvalsh(to_dense(state)))
    exact = np.array([float(v) for v in sector_eigenvalues(state)])
    assert np.max(np.abs(dense_eigs - exact)) < 1e-12


# -- serialization ------------------------------------------------------------

def test_json_roundtrip_exact():
    for state in (build_rho_nk(5, 2), build_rho_nkm(8, 2, 1), ghz_state(3)):
        blob = json.dumps(state.to_json_dict())
        again = GhzDiagonalState.from_json_dict(json.loads(blob))
        assert again == state


@given(random_state_strategy(max_n=4))
def test_json_roundtrip_random(state):
    again = GhzDiagonalState.from_json_dict(state.to_json_dict())
    assert again.n == state.n
    for i in range(1 << (state.n - 1)):
        assert again.lam_plus(i) == state.lam_plus(i)
        assert again.lam_minus(i) == state.lam_minus(i)
