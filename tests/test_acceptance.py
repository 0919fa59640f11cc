"""Acceptance gate: one pass/fail line per criterion, tolerances pinned here.

Two sub-claims are mathematically unattainable and are encoded as *strict*
expected failures rather than weakened:

* criterion 4's claim that the 4-qubit, threshold-2 family member turns
  NPPT on a 2:2 cut — at 2k == n no sector is empty, every transposed
  eigenvalue is >= 0 exactly, so the state is PPT across *every* cut
  (the dense oracle agrees);
* criterion 8's claim that the (8,2) and (10,3) members keep the full
  correlation-tensor norm below 1 — the all-z component pushes them to
  1.1636... and 1.1534...; only their planar (x/y) component is below 1,
  which a companion test asserts.

If either xfail ever starts passing, the suite goes red: that would mean
the closed forms changed.
"""
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from scipy.stats import chi2

from ghzmetro import (
    GhzDiagonalState,
    PhaseGenerator,
    QubitSubset,
    brute_force_tensor,
    build_rho_nk,
    build_rho_nkm,
    classical_fisher,
    cut_classification,
    family_report,
    ghz_state,
    hs_norm_sq_exact,
    maximally_mixed_state,
    ppt_single_qubit_certificate,
    pt_dense_oracle,
    pt_spectrum,
    qfi_closed_nk,
    qfi_from_dense,
    qfi_ghz_diagonal,
    run_monte_carlo,
    scaled_k,
    to_dense,
)
from ghzmetro.bell import axial_expectation
from ghzmetro.estimation import GlobalParity, SectorParity
from ghzmetro.oracles import AXIS_X, AXIS_Y, AXIS_Z
from conftest import family_grid, family_members, full_norm, structure_rule

SPECTRAL_TOL = 1e-9
PT_TOL = 1e-12
TENSOR_ORACLE_TOL = 1e-12
FISHER_REL_TOL = 1e-9


def report(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def report_expected_failure(criterion: str, detail: str) -> None:
    print(f"[FAIL] {criterion}: {detail} (expected failure, documented defect)")


# -- criterion 1: exact instance reproduction ---------------------------------

def test_c1_exact_instance():
    start = time.monotonic()
    state = build_rho_nk(4, 2)
    lam = Fraction(1, 11)
    # full weight on the even projector for every band < 2 sector:
    # lambda^- = (s - d) / (2 den) is 0 exactly where s = d
    rows = {i: (s, d) for i, s, d in state.sectors()}
    assert {i for i, (s, d) in rows.items() if s == d} == {0, 1, 2, 4, 7}
    for i in (0, 1, 2, 4, 7):
        assert Fraction(sum(rows[i]), 2 * state.den) == lam
    # band-2 sectors are balanced (lambda^+ = lambda^- exactly where d = 0);
    # each merges its two member strings' half-weights lam/2 + lam/2, which
    # is what closes the trace at 1
    for i in (3, 5, 6):
        s, d = rows[i]
        assert d == 0 and Fraction(s, 2 * state.den) == lam
    assert state.trace() == 1

    f_closed = qfi_closed_nk(4, 2)
    f_sector = qfi_ghz_diagonal(state)
    assert f_closed == Fraction(32, 11)
    assert f_sector == Fraction(32, 11)
    f_spectral = qfi_from_dense(to_dense(state), PhaseGenerator(4))
    assert abs(f_spectral - 32 / 11) <= SPECTRAL_TOL
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion 1", f"rho_4,2 table exact, QFI = 32/11 on all three routes "
                          f"({elapsed:.2f}s)")


# -- criterion 2: triple-formula agreement -------------------------------------

def test_c2_triple_agreement():
    start = time.monotonic()
    exact_grid, dense_grid = list(family_grid(12)), list(family_grid(8))
    for n, k in exact_grid:
        assert qfi_closed_nk(n, k) == qfi_ghz_diagonal(build_rho_nk(n, k)), (n, k)
    for n, k in dense_grid:
        spectral = qfi_from_dense(to_dense(build_rho_nk(n, k)), PhaseGenerator(n))
        assert abs(spectral - float(qfi_closed_nk(n, k))) <= SPECTRAL_TOL, (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report("criterion 2", f"closed forms equal on {len(exact_grid)} family members to "
                          f"n = 12, spectral within 1e-9 on {len(dense_grid)} to n = 8 "
                          f"({elapsed:.1f}s)")


# -- criterion 3: Heisenberg / shot-noise anchors -------------------------------

def test_c3_anchors():
    for n in range(2, 9):
        assert qfi_ghz_diagonal(ghz_state(n)) == n * n
        assert qfi_ghz_diagonal(maximally_mixed_state(n)) == 0
    # separable diagonal states (balanced sectors) carry no phase information
    for n in (3, 4, 6):
        w = Fraction(1, 1 << n)
        reps = range(1 << (n - 1))
        diag = GhzDiagonalState(n, {i: w for i in reps}, {i: w for i in reps})
        assert qfi_ghz_diagonal(diag) == 0 <= n
    report("criterion 3", "GHZ reaches n^2, separable diagonal and maximally "
                          "mixed stay at 0; all exact")


# -- criterion 4: PPT certificate suite ------------------------------------------

def test_c4_certificate_and_oracle():
    start = time.monotonic()
    # certificate holds for the whole family and matches single-qubit spectra
    for n, k in family_grid(12):
        state = build_rho_nk(n, k)
        cert = ppt_single_qubit_certificate(state)
        assert cert.holds, (n, k)
        for q in range(1, n + 1):
            assert min(pt_spectrum(state, QubitSubset.from_qubits(n, [q]))) >= 0
    # dense-oracle agreement over every subset up to 8 qubits: a subset and
    # its complement transpose the real symmetric rho to the same array, so
    # each pair is checked once, at the subset that holds qubit 1
    for n, k in family_grid(8):
        state = build_rho_nk(n, k)
        for m in range(n - 1):
            for pos in combinations(range(2, n + 1), m):
                subset = QubitSubset.from_qubits(n, (1, *pos))
                exact = [v / (2 * state.den) for v in sorted(pt_spectrum(state, subset))]
                dense = sorted(np.linalg.eigvalsh(pt_dense_oracle(state, subset)))
                assert max(abs(a - b) for a, b in zip(exact, dense)) <= PT_TOL, (n, k, pos)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("criterion 4 (certificates)",
           f"single-qubit PPT certificate exact to n = 12, dense oracle to "
           f"n = 8 ({elapsed:.1f}s)")


def test_c4_mixed_family_cut_protection():
    start = time.monotonic()
    checked = 0
    for n in range(4, 9):
        for k in range(1, n // 2):
            for m in range(1, n // 2 - k + 1):
                state = build_rho_nkm(n, k, m)
                for row in cut_classification(state):
                    if row.cut_size <= m + 1:
                        assert row.status == "PPT", (n, k, m, row)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("criterion 4 (mixing width)",
           f"{checked} mixed members PPT through cut size m+1 ({elapsed:.1f}s)")


def test_c4_two_qubit_cuts_go_nppt_below_the_boundary():
    # the substance behind the NPPT claim: it holds whenever k < floor(n/2)
    # (at k == floor(n/2), e.g. (5,2) or (7,3), no sector is empty and all
    # cuts stay PPT, exactly as for (4,2))
    for n, k in ((6, 2), (7, 2), (8, 2), (8, 3), (9, 3)):
        state = build_rho_nk(n, k)
        mins = [
            min(pt_spectrum(state, QubitSubset.from_qubits(n, pos)))
            for pos in combinations(range(1, n + 1), 2)
        ]
        assert min(mins) < 0, (n, k)
    report("criterion 4 (NPPT cuts)",
           "2-qubit cuts negative for every tested member with k < floor(n/2)")


@pytest.mark.xfail(
    strict=True,
    reason="claimed NPPT of rho_4,2 at a 2:2 cut is unattainable: at 2k == n "
    "no sector is empty, so every transposed eigenvalue is exactly >= 0 and "
    "the state is PPT across all cuts (dense oracle agrees); see notes",
)
def test_c4_rho42_two_cut_negativity_claim():
    state = build_rho_nk(4, 2)
    mins = [
        Fraction(min(pt_spectrum(state, QubitSubset.from_qubits(4, pos))), 2 * state.den)
        for pos in combinations(range(1, 5), 2)
    ]
    report_expected_failure("criterion 4 (rho_4,2 2:2 cut)",
                            f"min transposed eigenvalue is {min(mins)}, not negative")
    assert min(mins) < 0


# -- criterion 5: bound suite -----------------------------------------------------

def test_c5_bounds_exact():
    for n in range(2, 61):
        for k in range(1, n // 2 + 1):
            rep = family_report(n, k)
            assert rep.f_q >= rep.lower_bound
            assert rep.s_nk >= Fraction(k, n + 1)
    violations = []
    for n in range(4, 13):
        for k in range(1, n // 2):
            for m in range(1, n // 2 - k + 1):
                f_q = qfi_ghz_diagonal(build_rho_nkm(n, k, m))
                assert qfi_closed_nk(n, k, m) == f_q, (n, k, m)
                if f_q < family_report(n, k, m=m).mixed_lower_bound:
                    violations.append((n, k, m))
    assert violations == []
    report("criterion 5", "threshold bound exact to n = 60; mixed-family bound "
                          "holds on the whole feasible grid to n = 12")


# -- criterion 6: fixed-k ratio scan ------------------------------------------------

def nk_limit_ratio(n, k):
    """Exact QFI over its large-n limit n*k for fixed k, as figure 2 prints it."""
    return qfi_closed_nk(n, k) / (n * k)


def test_c6_fixed_k_ratios():
    for k in (2, 3):
        prev = Fraction(0)
        for n in range(2 * k + 1, 501):
            ratio = nk_limit_ratio(n, k)
            assert prev < ratio < 1
            prev = ratio
        at_200 = nk_limit_ratio(200, k)
        assert Fraction(95, 100) <= at_200 < 1
    assert nk_limit_ratio(100, 2) == Fraction(4852, 5051)
    assert nk_limit_ratio(200, 2) == Fraction(19702, 20101)
    report("criterion 6", "ratios to n*k increase monotonically to n = 500; at n = 200: "
                          f"k=2 -> {float(nk_limit_ratio(200, 2)):.4f}, "
                          f"k=3 -> {float(nk_limit_ratio(200, 3)):.4f}")


# -- criterion 7: linear-k scan -------------------------------------------------------

def test_c7_linear_scans():
    for a in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)):
        for n in range(8, 201):
            rep = family_report(n, scaled_k(a, n), a=a)
            assert rep.f_q >= rep.lower_bound
            # the limiting-form normalization is emitted, never asserted
            assert rep.ratio_limit_form is not None
    for n in range(40, 301):
        rep = family_report(n, scaled_k(Fraction(1, 4), n), a=Fraction(1, 4))
        assert rep.lower_bound > n
    report("criterion 7", "bound below value on every scan point; a = 1/4 bound "
                          "alone certifies sub-shot-noise for all n in 40..300")


# -- criterion 8: detection headline ---------------------------------------------------

HEADLINE = [(7, 2), (8, 2), (8, 3), (9, 3), (10, 3)]


def test_c8_qfi_side_exact():
    start = time.monotonic()
    expected = {
        (7, 2): Fraction(224, 29),
        (8, 2): Fraction(352, 37),
        (8, 3): Fraction(800, 93),
        (9, 3): Fraction(711, 65),
        (10, 3): Fraction(295, 22),
    }
    for (n, k), value in expected.items():
        assert qfi_closed_nk(n, k) == value
        assert value > n
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report("criterion 8 (QFI side)", "f_q/n > 1 exactly for all five headline members")


def test_c8_hs_float_vs_exact():
    # both routes are rational, so they agree exactly, on every member up to
    # the mask scan's cap, the five headline members among them
    start = time.monotonic()
    for n, k, m in family_members(12):
        state = build_rho_nkm(n, k, m)
        assert full_norm(state) == hs_norm_sq_exact(state), (n, k, m)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report("criterion 8 (norm routes)",
           f"the detection row's norm equals the exact mask scan on every member "
           f"to n = 12 ({elapsed:.1f}s)")


@pytest.mark.parametrize("n,k", [(7, 2), (8, 3), (9, 3)])
def test_c8_full_norm_below_one(n, k):
    value = hs_norm_sq_exact(build_rho_nk(n, k))
    assert value < 1
    report(f"criterion 8 ({n},{k})", f"hs_norm_sq = {float(value):.6f} < 1 "
                                     "while f_q/n > 1")


@pytest.mark.parametrize("n,k", [(8, 2), (10, 3)])
@pytest.mark.xfail(
    strict=True,
    reason="the full correlation norm of (8,2) and (10,3) exceeds 1 through "
    "the all-z component (1.1636 and 1.1534); only the planar x/y part stays "
    "below 1 -- see the companion planar test and notes",
)
def test_c8_full_norm_below_one_defect_cases(n, k):
    value = hs_norm_sq_exact(build_rho_nk(n, k))
    report_expected_failure(f"criterion 8 ({n},{k})",
                            f"hs_norm_sq = {float(value):.6f} >= 1")
    assert value < 1


def test_c8_planar_component_below_one_everywhere():
    # the reproducible reading of the headline: the two-axis (equatorial)
    # correlation content, which is what the multi-setting inequalities scan,
    # stays below 1 for all five members
    for n, k in HEADLINE:
        state = build_rho_nk(n, k)
        planar_sq = hs_norm_sq_exact(state) - axial_expectation(state) ** 2
        assert planar_sq < 1, (n, k)
    report("criterion 8 (planar side)",
           "planar correlation square below 1 for all five headline members")


# -- criterion 9: tensor structure -----------------------------------------------------

def test_c9_tensor_structure():
    start = time.monotonic()
    for n, k in family_grid(6):
        state = build_rho_nk(n, k)
        brute = brute_force_tensor(state)
        norm = sum(t * t for t in brute.values())
        assert abs(norm - float(full_norm(state))) <= TENSOR_ORACLE_TOL
        assert abs(norm - float(hs_norm_sq_exact(state))) <= TENSOR_ORACLE_TOL
        # each of the 3^n tuples as the structure rules give it
        for axes in product((AXIS_X, AXIS_Y, AXIS_Z), repeat=n):
            rule = float(structure_rule(state, axes))
            assert abs(rule - brute.get(axes, 0.0)) <= TENSOR_ORACLE_TOL, \
                (n, k, axes)
        # mixed axial/planar tuples vanish identically
        for axes in brute:
            assert all(x == 3 for x in axes) or all(x != 3 for x in axes)
        probe = (3,) + (1,) * (n - 1)
        assert probe not in brute
        # every even-y planar tuple survives, plus the all-z tuple for even n
        assert len(brute) == (1 << (n - 1)) + (n % 2 == 0)
    bell_pair = GhzDiagonalState(2, {0: Fraction(1)}, {})
    assert len(brute_force_tensor(bell_pair)) == 3
    assert hs_norm_sq_exact(bell_pair) == 3
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report("criterion 9", f"structure rules, closed form and mask scan equal the 3^n "
                          f"brute force; only axial or planar tuples survive; Bell "
                          f"pair norm exactly 3 ({elapsed:.1f}s)")


# -- criterion 10: estimation suite ------------------------------------------------------

def test_c10_parity_fisher_analytic():
    for n in (2, 3, 4, 5, 6, 8):
        for theta in (0.37 / n, 0.05, 0.3, 1.0):
            if abs(np.sin(n * theta)) < 1e-6:  # a fringe turning point
                continue
            f = classical_fisher(ghz_state(n), theta, GlobalParity())
            assert abs(f - n * n) <= 1e-9, (n, theta)
    report("criterion 10 (analytic)", "GHZ global parity reaches n^2 exactly")


def test_c10_fisher_below_qfi_grid():
    start = time.monotonic()
    states = [build_rho_nk(n, k) for n in range(4, 9) for k in range(1, n // 2 + 1)]
    states += [build_rho_nkm(8, 2, 1), build_rho_nkm(8, 2, 2), build_rho_nkm(7, 1, 2)]
    states += [ghz_state(3), ghz_state(4), ghz_state(5), maximally_mixed_state(4)]
    assert len(states) >= 20
    thetas = [*np.linspace(0.01, 1.5, 100), *np.linspace(0.01, 1.5, 40)]
    for state in states:
        fq = float(qfi_ghz_diagonal(state))
        for model in (GlobalParity(), SectorParity()):
            for theta in thetas:
                f = classical_fisher(state, theta, model)
                assert f <= fq * (1 + FISHER_REL_TOL) + 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("criterion 10 (bound)",
           f"classical information below QFI on a {len(thetas)}-point grid for "
           f"{len(states)} states x 2 models ({elapsed:.1f}s)")


def test_c10_monte_carlo_cramer_rao():
    start = time.monotonic()
    reps = 200
    run = run_monte_carlo(
        ghz_state(4), theta_true=np.pi / 16, model=GlobalParity(),
        shots=10_000, repetitions=reps, seed=2024,
    )
    assert run.crlb == pytest.approx(1 / 400)
    ratio = run.empirical_std / run.crlb
    low = float(np.sqrt(chi2.ppf(0.025, reps) / reps))
    assert low <= ratio <= 1.3, ratio
    # deterministic replay: bit-identical estimates from the same seed
    again = run_monte_carlo(
        ghz_state(4), theta_true=np.pi / 16, model=GlobalParity(),
        shots=10_000, repetitions=reps, seed=2024,
    )
    assert again.estimates == run.estimates
    # never beats the quantum limit (sector parity saturates it here)
    run82 = run_monte_carlo(
        build_rho_nk(8, 2), theta_true=0.19, model=SectorParity(),
        shots=10_000, repetitions=60, seed=5,
    )
    qfi_floor = run82.empirical_std * np.sqrt(10_000 * run82.fisher_quantum)
    assert qfi_floor >= 1 - 0.35  # statistical tolerance at 60 repetitions
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report("criterion 10 (Monte Carlo)",
           f"empirical/CRLB ratio {ratio:.3f} inside the 95% band "
           f"[{low:.3f}, 1.3]; replay bit-identical ({elapsed:.1f}s)")
