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
        spectrum = pt_spectrum(ghz, QubitSubset.from_qubits(4, qubits))
        return [i for i, minus in enumerate(spectrum[1::2]) if minus < 0]

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
    half = 2 * bell.den
    # sector 0's pair, then sector 1's, over 2 den
    assert [Fraction(v, half) for v in spectrum] == [
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)]
    assert sum(spectrum) == half


def test_pt_spectrum_refuses_above_sector_listing_cap():
    # a band state is O(n) at any n; its spectrum would list 2^29 sectors
    with pytest.raises(SizeLimitError):
        pt_spectrum(build_rho_nk(30, 7), QubitSubset(30, 1))
    assert min(pt_spectrum(build_rho_nk(6, 2), QubitSubset(6, 1))) >= 0


@pytest.mark.parametrize("n,k", list(family_grid(7)))
def test_family_spectra_match_dense(n, k):
    state = build_rho_nk(n, k)
    for subset in all_subsets(n, sizes=range(1, min(n, 3))):
        exact = [v / (2 * state.den) for v in sorted(pt_spectrum(state, subset))]
        dense = sorted(np.linalg.eigvalsh(pt_dense_oracle(state, subset)))
        assert max(abs(a - b) for a, b in zip(exact, dense)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(random_state_strategy(max_n=5), st.data())
def test_random_spectra_match_dense(state, data):
    mask = data.draw(st.integers(1, (1 << state.n) - 2))
    subset = QubitSubset(state.n, mask)
    exact = [v / (2 * state.den) for v in sorted(pt_spectrum(state, subset))]
    dense = sorted(np.linalg.eigvalsh(pt_dense_oracle(state, subset)))
    assert max(abs(a - b) for a, b in zip(exact, dense)) < 1e-12


def test_pt_preserves_trace_and_diagonal():
    state = build_rho_nk(6, 2)
    rho = to_dense(state)
    for subset in all_subsets(6, sizes=[1, 2, 3]):
        pt = pt_dense_oracle(state, subset)
        assert np.allclose(np.diag(pt), np.diag(rho))
        assert np.trace(pt) == pytest.approx(1.0)
        assert sum(pt_spectrum(state, subset)) == 2 * state.den


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
        a = sorted(pt_spectrum(state, subset))
        complement = QubitSubset(6, 0b111111 ^ subset.mask)
        b = sorted(pt_spectrum(state, complement))
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
        min(pt_spectrum(state, QubitSubset.from_qubits(state.n, [q]))) >= 0
        for q in range(1, state.n + 1)
    )
    assert cert.holds == spectra_ok


# -- NPPT detection and cut table ---------------------------------------------------

def test_min_pt_eigenvalue_values():
    # k strictly below floor(n/2): a 2-qubit cut must expose negativity
    state = build_rho_nk(6, 2)
    values = [min(pt_spectrum(state, s)) for s in all_subsets(6, sizes=[2])]
    assert Fraction(min(values), 2 * state.den) == Fraction(-1, 44)
    # single-qubit cuts stay nonnegative
    assert all(min(pt_spectrum(state, s)) >= 0 for s in all_subsets(6, sizes=[1]))


def test_boundary_family_ppt_everywhere():
    # at 2k == n (and at k == floor(n/2) for odd n) no sector is empty, so
    # every transposed eigenvalue is exactly >= 0 -- all cuts are PPT
    for n, k in ((4, 2), (5, 2)):
        state = build_rho_nk(n, k)
        mins = [min(pt_spectrum(state, s)) for s in all_subsets(n)]
        assert min(mins) == 0


def test_separable_diagonal_state_ppt():
    n = 4
    w = Fraction(1, 16)
    reps = range(1 << (n - 1))
    state = GhzDiagonalState(n, {i: w for i in reps}, {i: w for i in reps})
    assert all(min(pt_spectrum(state, s)) >= 0 for s in all_subsets(n))


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
            assert min(pt_spectrum(state, subset)) < 0


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
def band_symmetric_states(draw, max_n=7, weight=st.integers(0, 9)):
    """Random band states: one drawn weight pair per band, each weight drawn
    from ``weight``."""
    n = draw(st.integers(2, max_n))
    bands = n // 2 + 1
    weights = draw(
        st.lists(weight, min_size=2 * bands, max_size=2 * bands)
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
    # the partner-range rule meets the lowest violating sector that the scan
    # of the same state, listed sector by sector, finds at the same mask
    sparse = as_sparse(state)
    for m in range(1, state.n):
        assert (_first_violation(state, m, _class_table(state))
                == _first_violation(sparse, m, _class_table(sparse))), m
    assert ppt_single_qubit_certificate(state) == ppt_single_qubit_certificate(sparse)


def band_cut_walk(state, m):
    """Reference for the band branch of ``_first_violation``: walk every
    sector of the first size-m mask, r ones outside it and b inside, in
    ascending (r, b), and return the first whose partner popcount r + m - b
    has s below its class's |d|."""
    n, empty = state.n, (0, 0)
    table = {j.bit_count(): (s, abs(d)) for j, _, s, d in state.classes()}
    for r in range(n - m):  # a representative keeps bit n-1 clear
        for b in range(m + 1):
            bound = table.get(r + b, empty)[1]
            if bound and table.get(r + m - b, empty)[0] < bound:
                return (1 << m) - 1, (1 << b) - 1 | ((1 << r) - 1) << m
    return None


def assert_partner_range_matches_walk(state):
    table = _class_table(state)
    for m in range(1, state.n):
        assert _first_violation(state, m, table) == band_cut_walk(state, m), (state, m)


def test_partner_range_rule_matches_walk_on_references():
    # every member with mixing width <= 3, and the GHZ and maximally mixed
    # states, at every cut 1..n-1
    for n in range(2, 41):
        assert_partner_range_matches_walk(ghz_state(n))
        assert_partner_range_matches_walk(maximally_mixed_state(n))
        for _, k, m in family_members(n, n_min=n):
            if m <= 3:
                assert_partner_range_matches_walk(build_rho_nkm(n, k, m))


@settings(max_examples=300, deadline=None)
@given(band_symmetric_states(max_n=24, weight=st.just(0) | st.integers(0, 9)))
def test_partner_range_rule_matches_walk_with_empty_bands(state):
    assert_partner_range_matches_walk(state)


def cut_law(n, k, m, cut_sizes):
    """The cut law of rho_{n,k,m}: with 2(k + m) < n - 1, cuts 1..m+1 are PPT
    and every larger cut up to n//2 is NPPT at its first mask; otherwise
    every cut is PPT."""
    return [CutStatus(c, "NPPT", (1 << c) - 1) if m + 1 < c and 2 * (k + m) < n - 1
            else CutStatus(c, "PPT") for c in cut_sizes]


def test_cut_law_on_every_member_to_sixty_qubits():
    for n, k, m in family_members(60):
        if m <= 3:
            assert cut_classification(build_rho_nkm(n, k, m)) == cut_law(
                n, k, m, range(1, n // 2 + 1)), (n, k, m)


@st.composite
def family_parameters(draw, max_n):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n // 2))
    return n, k, draw(st.integers(0, n // 2 - k))


@settings(max_examples=60, deadline=None)
@given(family_parameters(max_n=2000))
def test_cut_law_on_drawn_members_to_two_thousand_qubits(params):
    n, k, m = params
    sizes = sorted({c for c in (m + 1, m + 2, n // 2) if 1 <= c <= n // 2})
    assert cut_classification(build_rho_nkm(n, k, m), sizes) == cut_law(n, k, m, sizes)


@pytest.mark.parametrize("n,k,m", [*family_members(14, n_min=13), (15, 2, 2), (16, 4, 0)])
def test_band_cut_verdicts_match_spectra_beyond_twelve_qubits(n, k, m):
    # a band state shares one spectrum over the subsets of a size, so the
    # exact spectrum of the first subset decides each cut independently of
    # the band walk; every member at n = 13 and 14, and at n = 15 and 16 a
    # width-2 member and an even m = 0 member
    state = build_rho_nkm(n, k, m)
    for row in cut_classification(state):
        lowest = min(pt_spectrum(state, QubitSubset(n, (1 << row.cut_size) - 1)))
        assert row.status == ("NPPT" if lowest < 0 else "PPT"), row


def test_band_cut_walk_at_a_hundred_thousand_qubits():
    # only class 0 of rho_{n,1} is coherent, and for cut m its partner lies on
    # band m: band 1 holds weight, band 2 is empty
    assert cut_classification(build_rho_nk(100000, 1), [1, 2]) == [
        CutStatus(1, "PPT"), CutStatus(2, "NPPT", 0b11)]


def test_band_cut_walk_at_eight_hundred_qubits():
    # mixing width 2 protects the cuts of size <= 3; every larger cut is NPPT
    # at its first mask
    assert cut_classification(build_rho_nkm(801, 200, 2)) == (
        [CutStatus(m, "PPT") for m in (1, 2, 3)]
        + [CutStatus(m, "NPPT", (1 << m) - 1) for m in range(4, 401)])


def test_every_cut_ppt_at_two_thousand_and_one_qubits():
    # 2k = n - 1: every popcount is populated, so no partner range meets an
    # empty class
    assert cut_classification(build_rho_nk(2001, 1000)) == [
        CutStatus(m, "PPT") for m in range(1, 1001)]


def test_cut_verdicts_at_sixteen_hundred_qubits():
    assert cut_classification(build_rho_nk(1600, 400)) == (
        [CutStatus(1, "PPT")] + [CutStatus(m, "NPPT", (1 << m) - 1) for m in range(2, 801)])


def test_asymmetric_state_is_scanned_past_the_first_subset():
    # coherence on sector 0 only: a pair cut is NPPT exactly when the
    # sector of the transposed pair is empty; 0b0011 is filled, 0b0101 is not
    state = GhzDiagonalState(
        4, {0: Fraction(1, 2), 0b0011: Fraction(1, 4)}, {0b0011: Fraction(1, 4)}
    )
    assert min(pt_spectrum(state, QubitSubset(4, 0b0011))) >= 0
    assert min(pt_spectrum(state, QubitSubset(4, 0b0101))) < 0
    assert cut_classification(state, cut_sizes=[2]) == [CutStatus(2, "NPPT", 0b0101)]


def range_walk_certificate(state):
    """Single-qubit certificate witness found by walking the single-qubit
    masks in ``combinations`` order, then every representative at each."""
    n = state.n
    rows = {i: (s, d) for i, s, d in state.sectors()}
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
