"""State construction: index conventions, families, dense realization."""
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ghzmetro import (
    BandState,
    DomainError,
    GhzDiagonalState,
    PhaseGenerator,
    SizeLimitError,
    build_rho_nk,
    build_rho_nkm,
    canonical_index,
    cut_classification,
    detection_comparison,
    ghz_state,
    maximally_mixed_state,
    ppt_single_qubit_certificate,
    qfi_ghz_diagonal,
    to_dense,
    weight,
)
from ghzmetro import states
from ghzmetro.bell import axial_expectation, planar_square_sum
from conftest import (
    as_sparse,
    family_grid,
    family_members,
    first_nppt_mask,
    ghz_vector,
    lambda_rows,
    random_state_strategy,
)


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
    with pytest.raises(DomainError, match="outside"):
        canonical_index(16, 4)  # raw indices of 4 qubits stop at 15


# -- GHZ basis ----------------------------------------------------------------

def test_basis_vector_four_qubits():
    v = ghz_vector(4, 2, +1)
    amp = 1 / np.sqrt(2)
    assert v[0b0010] == pytest.approx(amp)
    assert v[0b1101] == pytest.approx(amp)
    assert np.count_nonzero(v) == 2
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_basis_vector_bell():
    v = ghz_vector(2, 0, +1)
    assert v[0] == pytest.approx(1 / np.sqrt(2))
    assert v[3] == pytest.approx(1 / np.sqrt(2))


def test_basis_orthogonality():
    for n in (2, 3, 4):
        for i in range(1 << (n - 1)):
            plus = ghz_vector(n, i, +1)
            minus = ghz_vector(n, i, -1)
            assert abs(plus @ minus) < 1e-15
            for j in range(i + 1, 1 << (n - 1)):
                assert abs(plus @ ghz_vector(n, j, +1)) < 1e-15


# -- normalizer ---------------------------------------------------------------

def test_binom_normalizer():
    # a member's band-0 weight is its normalizer 1 / S(n, k + m)
    assert build_rho_nk(4, 2).plus[0] == Fraction(1, 11)
    assert build_rho_nk(7, 2).plus[0] == Fraction(1, 29)  # 1 + 7 + 21
    assert build_rho_nkm(7, 1, 1).plus[0] == Fraction(1, 29)


def test_binomial_row_matches_comb():
    for n in range(65):
        row = states._binomial_row(n, n)
        assert row == [comb(n, j) for j in range(n + 1)]
        assert all(states._binomial_row(n, top) == row[:top + 1] for top in range(n + 1))


def test_binom_normalizer_big_n():
    # big-integer path: no overflow, exact denominator
    val = build_rho_nk(10_000, 2).plus[0]
    assert val == Fraction(1, 1 + 10_000 + comb(10_000, 2))


# -- the (n, k) family --------------------------------------------------------

def test_rho_42_table():
    state = build_rho_nk(4, 2)
    lam = Fraction(1, 11)
    rows = {i: (lp, lm) for i, lp, lm in lambda_rows(state)}
    # band < 2 sectors carry the full weight on the even projector
    for i in (0, 1, 2, 4, 7):
        assert rows[i][0] == lam
        assert rows[i][1] == 0
    # band-2 sectors merge the two member strings' mixed weight (2k == n)
    for i in (3, 5, 6):
        assert rows[i][0] == lam
        assert rows[i][1] == lam
    assert state.trace() == 1


def test_rho_62_counts():
    state = build_rho_nk(6, 2)
    lam = Fraction(1, 22)
    pure = [lp for _, lp, lm in lambda_rows(state) if lm == 0]
    mixed = [lp for _, lp, lm in lambda_rows(state) if lm == lp > 0]
    assert len(pure) == 7  # 1 + 6
    assert len(mixed) == 15  # C(6, 2)
    assert all(lp == lam for lp in pure)
    assert all(lp == lam / 2 for lp in mixed)


@pytest.mark.parametrize("n,k", list(family_grid(12)))
def test_family_counts_and_trace(n, k):
    state = build_rho_nk(n, k)
    assert state.trace() == 1
    # lambda^- = (s - d) / (2 den) is 0 where s = d and positive where s > d
    pure = sum(1 for _, s, d in state.sectors() if s == d)
    mixed = sum(1 for _, s, d in state.sectors() if s > d)
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
    rows = lambda_rows(state)
    assert rows[0][:2] == (0, lam)
    assert state.trace() == 1
    # bands 2 and 3 both mixed at lam/2
    for i, lp, lm in rows:
        band = min(i.bit_count(), 8 - i.bit_count())
        if band >= 2:
            assert lp == lm == lam / 2


def test_rho_nkm_trace_exact_grid():
    for n, k, m in family_members(10, n_min=4):
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
    top = [lp for i, lp, _ in lambda_rows(state) if min(i.bit_count(), 6 - i.bit_count()) == 3]
    assert len(top) == comb(6, 3) // 2
    assert all(lp == lam for lp in top)


def band_references():
    """Every family member with n <= 10, and the GHZ and maximally mixed states."""
    states = [build_rho_nkm(n, k, m) for n, k, m in family_members(10)]
    return states + [f(n) for n in range(2, 11) for f in (ghz_state, maximally_mixed_state)]


def test_band_symmetric_references():
    # family members and the reference states are band states, and each
    # class row stands for exactly the listed sectors of its popcount
    for state in band_references():
        assert isinstance(state, BandState)
        support = list(state.sectors())
        rows = list(state.classes())
        assert sum(mult for _, mult, _, _ in rows) == len(support)
        for rep, _, s, d in rows:
            members = [row for row in support if row[0].bit_count() == rep.bit_count()]
            assert members[0][0] == rep
            assert {row[1:] for row in members} == {(s, d)}


def test_band_sectors_match_range_scan():
    # each populated sector's row is the weight pair of its band; a band
    # above the stored ones is empty
    for state in band_references():
        pairs = list(zip(state.plus, state.minus))
        pairs += [(0, 0)] * (state.n // 2 + 1 - len(pairs))
        scan = [(i, *pairs[min(i.bit_count(), state.n - i.bit_count())])
                for i in range(1 << (state.n - 1))]
        assert lambda_rows(state) == [row for row in scan if row[1] or row[2]]


def test_band_symmetry_broken_by_one_sector():
    # moving weight from sector 0 (alone in band 0) to any other sector of
    # the sparse expansion breaks the symmetry at n = 6; the subset-by-subset
    # scan still reports the first NPPT subset of every cut
    state = as_sparse(build_rho_nk(6, 2))
    shift = state.lambda_plus[0] / 2
    for i in range(1, 1 << 5):
        lp = dict(state.lambda_plus)
        lp[0] -= shift
        lp[i] = lp.get(i, Fraction(0)) + shift
        tilted = GhzDiagonalState(6, lp, state.lambda_minus)
        assert tilted.trace() == 1
        for row in cut_classification(tilted):
            assert row.witness_mask == first_nppt_mask(tilted, row.cut_size), (i, row)


def assert_rows_over_one_denominator(state):
    """``den`` is the least common denominator of the weights, and every class
    row holds integers (s, d) with (s / den, d / den) = (lambda^+ + lambda^-,
    lambda^+ - lambda^-), which each of its sectors lists as its own row."""
    support = list(state.sectors())
    assert state.den == lcm(*(x.denominator for _, lp, lm in lambda_rows(state)
                              for x in (lp, lm)))
    band = isinstance(state, BandState)
    rows = {rep.bit_count() if band else rep: row for rep, *row in state.classes()}
    assert all(type(x) is int for row in rows.values() for x in row)
    assert all(type(x) is int for row in support for x in row)
    assert sum(mult for mult, _, _ in rows.values()) == len(support)
    for i, s, d in support:
        assert rows[i.bit_count() if band else i][1:] == [s, d]


CLASS_SUMS = (qfi_ghz_diagonal, planar_square_sum, axial_expectation, detection_comparison,
              ppt_single_qubit_certificate)


@pytest.mark.parametrize("n", range(2, 15))
def test_band_classes_match_sparse_expansion(n):
    # every class sum over the O(n) band rows equals the same function on the
    # state listed sector by sector; the sparse cut scan visits every subset
    # of a PPT cut, which is affordable up to n = 10 and for NPPT cuts above
    for _, k, m in family_members(n, n_min=n):
        state = build_rho_nkm(n, k, m)
        sparse = as_sparse(state)
        if n <= 12:
            assert_rows_over_one_denominator(state)
            assert_rows_over_one_denominator(sparse)
        for f in CLASS_SUMS:
            assert f(state) == f(sparse), (n, k, m, f)
        table = cut_classification(state, cut_sizes=range(1, n))
        sizes = [row.cut_size for row in table if n <= 10 or row.status == "NPPT"]
        assert cut_classification(sparse, cut_sizes=sizes) == [
            row for row in table if row.cut_size in sizes], (n, k, m)


def test_classes_are_read_without_arithmetic(monkeypatch):
    # each state builds its class table once, at construction; reading a row
    # afterwards adds, subtracts, multiplies and divides nothing, and returns
    # the stored row objects themselves
    states = [build_rho_nkm(10, 3, 1),
              GhzDiagonalState(3, {0: Fraction(1, 2), 3: Fraction(1, 6)},
                               {1: Fraction(1, 3)})]
    rows = [list(state.classes()) for state in states]

    def refuse(*_):
        raise AssertionError("Fraction arithmetic while reading classes()")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__"):
        monkeypatch.setattr(Fraction, op, refuse)
    again = [list(state.classes()) for state in states]
    assert again == rows
    assert all(a is b for got, old in zip(again, rows) for a, b in zip(got, old))


def test_each_denominator_enters_the_lcm_once(monkeypatch):
    # den is the lcm of the distinct weight denominators: one argument each,
    # however many class rows share it
    calls = []

    def recording(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(states.math, "lcm", recording)
    build_rho_nkm(64, 16, 1)
    sixths = GhzDiagonalState(3, {0: Fraction(1, 6), 1: Fraction(1, 6), 2: Fraction(1, 6)},
                              {3: Fraction(1, 2)})
    assert sixths.den == 6
    assert len(calls) == 2
    assert all(len(set(args)) == len(args) for args in calls), calls


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


# -- dense realization --------------------------------------------------------

def table_eigenvalues(state):
    """Eigenvalue multiset {lambda_i^+} u {lambda_i^-}, read off the table.

    Each (i, i_bar) block of the dense form is [[s/2, d/2], [d/2, s/2]] with
    eigenvalues (s +- d)/2 = lambda^+/-.
    """
    reps = range(1 << (state.n - 1))
    sparse = as_sparse(state)
    return sorted([sparse.lambda_plus.get(i, 0) for i in reps]
                  + [sparse.lambda_minus.get(i, 0) for i in reps])


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
        exact = np.array([float(v) for v in table_eigenvalues(state)])
        assert np.max(np.abs(dense_eigs - exact)) < 1e-12


def test_dense_maximally_mixed():
    n = 3
    rho = to_dense(maximally_mixed_state(n))
    assert np.allclose(rho, np.eye(1 << n) / (1 << n))


def test_dense_limit_enforced():
    with pytest.raises(SizeLimitError):
        to_dense(ghz_state(13))
    with pytest.raises(SizeLimitError):
        PhaseGenerator(13).diagonal()
    to_dense(build_rho_nk(4, 1))  # the fixed cap of 12 admits n = 4


def test_family_sector_listing_size_limit():
    # a member builds at any n; only listing its sectors one by one is capped,
    # and the refusal comes before the first sector is listed
    for state in (build_rho_nk(21, 2), build_rho_nkm(21, 2, 1)):
        with pytest.raises(SizeLimitError):
            state.sectors()
    with pytest.raises(DomainError):  # the domain is still checked on build
        build_rho_nk(21, 11)


def test_band_state_rejects_bad_tables():
    half = Fraction(1, 2)
    with pytest.raises(DomainError):
        BandState(2, (half, 0), (half,))  # one weight pair per band 0..n//2
    with pytest.raises(DomainError):
        BandState(2, (1, half), (0, -half))  # negative weight
    with pytest.raises(DomainError):
        BandState(2, (0.5, 0), (0.5, 0))  # floats rejected
    with pytest.raises(DomainError):
        BandState(4, (half, 0, 0), (0, 0, 0))  # trace 1/2
    with pytest.raises(DomainError):
        BandState(1, (1,), (0,))


def test_band_state_stores_its_populated_bands():
    # trailing empty bands are dropped, so padded and trimmed tables build
    # one state, with one hash and one repr
    lam = Fraction(1, 10)
    padded = BandState(9, (lam, lam / 2, 0, 0, 0), (0, lam / 2, 0, 0, 0))
    trimmed = BandState(9, (lam, lam / 2), (0, lam / 2))
    assert padded == trimmed == build_rho_nk(9, 1)
    assert (hash(padded), repr(padded)) == (hash(trimmed), repr(trimmed))
    assert (padded.plus, padded.minus) == ((lam, lam / 2), (0, lam / 2))
    assert BandState(6, (1, 0, 0, 0), (0, 0, 0, 0)) == ghz_state(6)
    assert len(ghz_state(6).plus) == 1
    assert [len(build_rho_nkm(n, k, m).plus) for n, k, m in ((100, 3, 2), (8, 4, 0))] == [6, 5]


def test_band_state_refuses_bad_lengths():
    # 1..n//2 + 1 pairs, as many even weights as odd ones
    for plus, minus in (((), ()), ((1,), ()), ((1, 0), (0,)), ((1, 0, 0, 0), (0, 0, 0, 0))):
        with pytest.raises(DomainError, match="pairs"):
            BandState(5, plus, minus)


def test_family_size_guard(monkeypatch):
    # (k + m + 1) n bits of rows past FAMILY_BIT_LIMIT is refused before any
    # row is built; the largest admitted members still build
    limit = states.FAMILY_BIT_LIMIT
    assert build_rho_nk(limit // 2, 1).n == limit // 2
    assert build_rho_nkm(limit // 4, 2, 1).n == limit // 4

    def no_rows(n, top):
        raise AssertionError("built a row of a refused member")

    monkeypatch.setattr(states, "_binomial_row", no_rows)
    for n, k, m in ((limit // 2 + 1, 1, 0), (limit // 4 + 1, 2, 1), (10**10, 1, 0)):
        with pytest.raises(SizeLimitError):
            build_rho_nkm(n, k, m)


@given(random_state_strategy(max_n=7))
def test_sparse_iterators_match_range_scan(state):
    # sectors() is ascending and lists no empty sector
    table = [(i, state.lambda_plus.get(i, 0), state.lambda_minus.get(i, 0))
             for i in range(1 << (state.n - 1))]
    assert lambda_rows(state) == [(i, lp, lm) for i, lp, lm in table if lp + lm != 0]
    assert [j for j, _, _, d in state.classes() if d] == [
        i for i, lp, lm in table if lp - lm != 0
    ]
    assert_rows_over_one_denominator(state)


@given(random_state_strategy(max_n=5))
def test_random_state_dense_roundtrip(state):
    dense_eigs = np.sort(np.linalg.eigvalsh(to_dense(state)))
    exact = np.array([float(v) for v in table_eigenvalues(state)])
    assert np.max(np.abs(dense_eigs - exact)) < 1e-12

