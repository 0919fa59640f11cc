"""Partial transposition: closed-form spectra vs dense oracle, certificates, cuts."""
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzmetro import (
    BandState,
    CutStatus,
    DomainError,
    GhzDiagonalState,
    QubitSubset,
    SizeLimitError,
    build_rho_nk,
    build_rho_nkm,
    canonical_index,
    cut_classification,
    ghz_state,
    maximally_mixed_state,
    ppt_single_qubit_certificate,
    pt_dense_oracle,
    pt_spectrum,
    to_dense,
)
from ghzmetro.ptranspose import _class_table, _first_violation
from conftest import (
    as_sparse,
    family_grid,
    family_members,
    first_nppt_mask,
    random_state_strategy,
)


def all_subsets(n, sizes=None):
    sizes = sizes if sizes is not None else range(1, n)
    for m in sizes:
        for pos in combinations(range(1, n + 1), m):
            yield QubitSubset.from_qubits(n, pos)


# -- partner map ----------------------------------------------------------------

def test_partner_single_qubit_rules():
    # the GHZ coherence sits on sector 0 alone, so the one negative
    # transposed eigenvalue marks the sector that receives it
    ghz = ghz_state(4)

    def receiver(qubits):
        pairs = pt_spectrum(ghz, QubitSubset.from_qubits(4, qubits)).pairs
        return [i for i, (_, minus) in pairs.items() if minus < 0]

    # leading qubit: flipping it canonicalizes to complementing all others
    assert receiver([1]) == [0b0111]
    # trailing qubit: plain single-bit flip stays representative
    assert receiver([4]) == [0b0001]


def test_partner_involution():
    for n in (3, 4, 5):
        for subset in all_subsets(n):
            for i in range(1 << (n - 1)):
                j = canonical_index(i ^ subset.mask, n)
                assert canonical_index(j ^ subset.mask, n) == i


def test_subset_validation():
    with pytest.raises(DomainError):
        QubitSubset(4, 0)
    with pytest.raises(DomainError):
        QubitSubset(4, 0b1111)
    with pytest.raises(DomainError):
        QubitSubset.from_qubits(4, [5])
    assert QubitSubset.from_qubits(4, [1, 4]).mask == 0b1001
    assert QubitSubset(4, 0b1001).qubits == (1, 4)


# -- spectra ----------------------------------------------------------------------

def test_bell_state_pt_spectrum():
    bell = GhzDiagonalState(2, {0: Fraction(1)}, {})
    spectrum = pt_spectrum(bell, QubitSubset.from_qubits(2, [2]))
    assert spectrum.pairs[0] == (Fraction(1, 2), Fraction(1, 2))
    assert spectrum.pairs[1] == (Fraction(1, 2), Fraction(-1, 2))
    assert spectrum.min_eigenvalue() == Fraction(-1, 2)
    assert sum(spectrum.eigenvalues()) == 1


def test_pt_spectrum_refuses_above_sector_listing_cap():
    # a band state is O(n) at any n; its spectrum would list 2^29 sectors
    with pytest.raises(SizeLimitError):
        pt_spectrum(build_rho_nk(30, 7), QubitSubset(30, 1))
    assert pt_spectrum(build_rho_nk(6, 2), QubitSubset(6, 1)).is_nonnegative()


@pytest.mark.parametrize("n,k", list(family_grid(7)))
def test_family_spectra_match_dense(n, k):
    state = build_rho_nk(n, k)
    for subset in all_subsets(n, sizes=range(1, min(n, 3))):
        exact = [float(v) for v in pt_spectrum(state, subset).eigenvalues()]
        dense = sorted(np.linalg.eigvalsh(pt_dense_oracle(state, subset)))
        assert max(abs(a - b) for a, b in zip(exact, dense)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(random_state_strategy(max_n=5), st.data())
def test_random_spectra_match_dense(state, data):
    mask = data.draw(st.integers(1, (1 << state.n) - 2))
    subset = QubitSubset(state.n, mask)
    exact = [float(v) for v in pt_spectrum(state, subset).eigenvalues()]
    dense = sorted(np.linalg.eigvalsh(pt_dense_oracle(state, subset)))
    assert max(abs(a - b) for a, b in zip(exact, dense)) < 1e-12


def test_pt_preserves_trace_and_diagonal():
    state = build_rho_nk(6, 2)
    rho = to_dense(state)
    for subset in all_subsets(6, sizes=[1, 2, 3]):
        pt = pt_dense_oracle(state, subset)
        assert np.allclose(np.diag(pt), np.diag(rho))
        assert np.trace(pt) == pytest.approx(1.0)
        assert sum(pt_spectrum(state, subset).eigenvalues()) == 1


def test_double_transposition_is_identity():
    state = build_rho_nk(5, 2)
    from ghzmetro.oracles import partial_transpose_dense

    rho = to_dense(state)
    for subset in all_subsets(5, sizes=[1, 2]):
        once = partial_transpose_dense(rho, 5, subset.mask)
        twice = partial_transpose_dense(once, 5, subset.mask)
        assert np.array_equal(twice, rho)


def test_complement_subset_same_spectrum():
    state = build_rho_nk(6, 2)
    for subset in all_subsets(6, sizes=[1, 2, 3]):
        a = pt_spectrum(state, subset).eigenvalues()
        complement = QubitSubset(6, 0b111111 ^ subset.mask)
        b = pt_spectrum(state, complement).eigenvalues()
        assert a == b


# -- single-qubit certificate -----------------------------------------------------

@pytest.mark.parametrize("n,k", list(family_grid(12)))
def test_family_certificate_holds(n, k):
    assert ppt_single_qubit_certificate(build_rho_nk(n, k)).holds


def test_ghz_certificate_fails_with_witness():
    # the coherence of sector 0 meets the empty sector 1 at the first mask
    for n in (2, 3, 5, 7, 8):
        result = ppt_single_qubit_certificate(ghz_state(n))
        assert not result.holds
        assert (result.witness_j, result.witness_i) == (0, 1)


def test_uniform_state_certificate_holds():
    assert ppt_single_qubit_certificate(maximally_mixed_state(4)).holds


@settings(max_examples=80, deadline=None)
@given(random_state_strategy(max_n=6))
def test_certificate_equals_single_qubit_spectra(state):
    cert = ppt_single_qubit_certificate(state)
    spectra_ok = all(
        pt_spectrum(state, QubitSubset.from_qubits(state.n, [q])).is_nonnegative()
        for q in range(1, state.n + 1)
    )
    assert cert.holds == spectra_ok


# -- NPPT detection and cut table ---------------------------------------------------

def test_min_pt_eigenvalue_values():
    # k strictly below floor(n/2): a 2-qubit cut must expose negativity
    state = build_rho_nk(6, 2)
    values = [
        pt_spectrum(state, s).min_eigenvalue() for s in all_subsets(6, sizes=[2])
    ]
    assert min(values) == Fraction(-1, 44)
    # single-qubit cuts stay nonnegative
    assert all(
        pt_spectrum(state, s).min_eigenvalue() >= 0 for s in all_subsets(6, sizes=[1])
    )


def test_boundary_family_ppt_everywhere():
    # at 2k == n (and at k == floor(n/2) for odd n) no sector is empty, so
    # every transposed eigenvalue is exactly >= 0 -- all cuts are PPT
    for n, k in ((4, 2), (5, 2)):
        state = build_rho_nk(n, k)
        mins = [pt_spectrum(state, s).min_eigenvalue() for s in all_subsets(n)]
        assert min(mins) == 0


def test_separable_diagonal_state_ppt():
    n = 4
    w = Fraction(1, 16)
    reps = range(1 << (n - 1))
    state = GhzDiagonalState(n, {i: w for i in reps}, {i: w for i in reps})
    assert all(pt_spectrum(state, s).min_eigenvalue() >= 0 for s in all_subsets(n))


def test_cut_classification_62():
    table = {row.cut_size: row.status for row in cut_classification(build_rho_nk(6, 2))}
    assert table == {1: "PPT", 2: "NPPT", 3: "NPPT"}


def test_cut_classification_42_boundary():
    table = {row.cut_size: row.status for row in cut_classification(build_rho_nk(4, 2))}
    assert table == {1: "PPT", 2: "PPT"}


def test_cut_witness_reproduces_negativity():
    state = build_rho_nk(7, 2)
    for row in cut_classification(state):
        if row.status == "NPPT":
            subset = QubitSubset(7, row.witness_mask)
            assert pt_spectrum(state, subset).min_eigenvalue() < 0


def test_ghz_nppt_every_cut():
    rows = cut_classification(ghz_state(5))
    assert all(row.status == "NPPT" for row in rows)


def test_mixed_family_ppt_up_to_width():
    # mixing width m protects all cuts of size <= m + 1
    for n in range(4, 9):
        for k in range(1, n // 2):
            for m in range(1, n // 2 - k + 1):
                state = build_rho_nkm(n, k, m)
                for row in cut_classification(state):
                    if row.cut_size <= m + 1:
                        assert row.status == "PPT", (n, k, m, row)


def test_mixed_family_nppt_beyond_width():
    # first unprotected size goes NPPT when the required bands exist
    state = build_rho_nkm(8, 1, 1)
    table = {row.cut_size: row.status for row in cut_classification(state)}
    assert table[2] == "PPT"
    assert table[3] == "NPPT"


def assert_matches_exhaustive(state, sizes=None):
    rows = cut_classification(state, cut_sizes=sizes)
    for row in rows:
        expected = first_nppt_mask(state, row.cut_size)
        assert row.witness_mask == expected, (state.n, row)
        assert row.status == ("PPT" if expected is None else "NPPT")


@pytest.mark.parametrize("n", range(2, 10))
def test_cut_classification_matches_exhaustive_family(n):
    for _, k, m in family_members(n, n_min=n):
        assert_matches_exhaustive(build_rho_nkm(n, k, m))


@settings(max_examples=60, deadline=None)
@given(random_state_strategy(max_n=6))
def test_cut_classification_matches_exhaustive_random(state):
    assert_matches_exhaustive(state)


@st.composite
def band_symmetric_states(draw, max_n=7):
    """Random band states: one drawn weight pair per band."""
    n = draw(st.integers(2, max_n))
    bands = n // 2 + 1
    weights = draw(
        st.lists(st.integers(0, 9), min_size=2 * bands, max_size=2 * bands)
        .filter(lambda ws: sum(ws) > 0)
    )
    sectors = [0] * bands  # sectors per band
    for c in range(n):
        sectors[min(c, n - c)] += comb(n - 1, c)
    total = sum(sectors[b] * (weights[2 * b] + weights[2 * b + 1]) for b in range(bands))
    return BandState(n, [Fraction(w, total) for w in weights[0::2]],
                     [Fraction(w, total) for w in weights[1::2]])


@settings(max_examples=60, deadline=None)
@given(band_symmetric_states())
def test_band_symmetric_route_matches_exhaustive(state):
    assert_matches_exhaustive(state, sizes=range(1, state.n))
    # the (r, b) walk meets the lowest violating sector that the scan of the
    # same state, listed sector by sector, finds at the same mask
    sparse = as_sparse(state)
    for m in range(1, state.n):
        assert (_first_violation(state, m, _class_table(state))
                == _first_violation(sparse, m, _class_table(sparse))), m
    assert ppt_single_qubit_certificate(state) == ppt_single_qubit_certificate(sparse)


@pytest.mark.parametrize("n,k,m", [(13, 6, 0), (14, 3, 1), (15, 2, 2), (16, 4, 0)])
def test_band_cut_verdicts_match_spectra_beyond_twelve_qubits(n, k, m):
    # a band state shares one spectrum over the subsets of a size, so the
    # exact spectrum of the first subset decides each cut independently of
    # the band walk; the members cover an odd boundary, widths 1 and 2 and
    # an even m = 0 member
    state = build_rho_nkm(n, k, m)
    sparse = as_sparse(state)
    for row in cut_classification(state):
        lowest = pt_spectrum(sparse, QubitSubset(n, (1 << row.cut_size) - 1)).min_eigenvalue()
        assert row.status == ("NPPT" if lowest < 0 else "PPT"), row


def test_band_cut_walk_at_a_hundred_thousand_qubits():
    # only class 0 of rho_{n,1} is coherent, and for cut m its partner lies on
    # band m: band 1 holds weight, band 2 is empty
    assert cut_classification(build_rho_nk(100000, 1), [1, 2]) == [
        CutStatus(1, "PPT"), CutStatus(2, "NPPT", 0b11)]


def test_asymmetric_state_is_scanned_past_the_first_subset():
    # coherence on sector 0 only: a pair cut is NPPT exactly when the
    # sector of the transposed pair is empty; 0b0011 is filled, 0b0101 is not
    state = GhzDiagonalState(
        4, {0: Fraction(1, 2), 0b0011: Fraction(1, 4)}, {0b0011: Fraction(1, 4)}
    )
    assert pt_spectrum(state, QubitSubset(4, 0b0011)).min_eigenvalue() >= 0
    assert pt_spectrum(state, QubitSubset(4, 0b0101)).min_eigenvalue() < 0
    assert cut_classification(state, cut_sizes=[2]) == [CutStatus(2, "NPPT", 0b0101)]


def range_walk_certificate(state):
    """Single-qubit certificate witness found by walking the single-qubit
    masks in ``combinations`` order, then every representative at each."""
    n = state.n
    rows = {i: (lp + lm, lp - lm) for i, lp, lm in state.sectors()}
    for q in range(n):
        for j in range(1 << (n - 1)):
            i = canonical_index(j ^ (1 << q), n)
            if rows.get(i, (0, 0))[0] < abs(rows.get(j, (0, 0))[1]):
                return j, i
    return None, None


@settings(max_examples=80, deadline=None)
@given(random_state_strategy(max_n=6))
def test_certificate_witness_matches_range_walk(state):
    cert = ppt_single_qubit_certificate(state)
    assert (cert.witness_j, cert.witness_i) == range_walk_certificate(state)
