"""Phase evolution, measurement models, classical Fisher, Monte Carlo runs."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzmetro import (
    DomainError,
    GhzDiagonalState,
    GlobalParity,
    LikelihoodDegeneracyError,
    SectorParity,
    build_rho_nk,
    build_rho_nkm,
    classical_fisher,
    get_model,
    ghz_state,
    maximally_mixed_state,
    qfi_ghz_diagonal,
    run_monte_carlo,
    weight,
)
from ghzmetro import estimation
from ghzmetro.estimation import _mle
from conftest import evolve_dense, family_members, ghz_vector, random_state_strategy

FD_STEP = 1e-5  # central finite-difference step of the Fisher cross-check

# ordinary phases, phases near 0 and phases near a fringe zero pi/w: an
# outcome's P = (base + a cos(w theta)) / 2 cancels at the last two
THETAS = st.one_of(
    st.floats(-3.0, 3.0),
    st.integers(1, 15).map(lambda j: 10.0**-j),
    st.builds(lambda w, sign, j: math.pi / w + sign * 10.0**-j,
              st.integers(1, 8), st.sampled_from((-1, 1)), st.integers(1, 15)),
)


# -- evolution -----------------------------------------------------------------

def test_evolve_zero_phase_identity():
    state = build_rho_nk(4, 2)
    rho_t = evolve_dense(state, 0.0)
    for i, s, d in state.sectors():
        assert rho_t[i, 15 - i] == pytest.approx(d / (2 * state.den))
        assert rho_t[i, i] == pytest.approx(s / (2 * state.den))


def test_evolve_ghz_half_period():
    n = 4
    rho_t = evolve_dense(ghz_state(n), np.pi / n)
    assert rho_t[0, (1 << n) - 1] == pytest.approx(-0.5)  # phase angle pi


@settings(max_examples=40, deadline=None)
@given(random_state_strategy(max_n=5), st.floats(-3.0, 3.0))
def test_evolve_matches_dense_conjugation(state, theta):
    # the fringe models assume sector sums stay put while the antidiagonal
    # entry of sector i turns at speed w_i
    dim = 1 << state.n
    expected = np.zeros((dim, dim), dtype=complex)
    for i, s, d in state.sectors():
        j = dim - 1 - i
        expected[i, i] = expected[j, j] = s / (2 * state.den)
        phase = np.exp(-1j * theta * weight(state.n, i))
        coherence = d / (2 * state.den) * phase
        expected[i, j], expected[j, i] = coherence, np.conj(coherence)
    got = evolve_dense(state, theta)
    assert np.max(np.abs(expected - got)) < 1e-12


# -- outcome distributions -------------------------------------------------------

def sector_outcomes(state):
    """Labels of the sector-parity rows: (i, +1) and (i, -1) per populated sector."""
    return [(i, s) for i, _, _ in state.sectors() for s in (+1, -1)]


def test_ghz_parity_fringe():
    n, model = 4, GlobalParity()
    for theta in (0.0, 0.1, 0.7, 2.0):
        p = model.probabilities(ghz_state(n), theta)
        assert p[0] == pytest.approx((1 + np.cos(n * theta)) / 2)
        assert p[1] == pytest.approx((1 - np.cos(n * theta)) / 2)


def test_sector_parity_at_zero_phase():
    state = build_rho_nk(4, 2)
    model = SectorParity()
    p = model.probabilities(state, 0.0)
    rows = {i: (s, d) for i, s, d in state.sectors()}
    for (i, sign), prob in zip(sector_outcomes(state), p):
        s, d = rows[i]
        expected = Fraction(s + sign * d, 2 * state.den)  # lambda^+ or lambda^-
        assert prob == pytest.approx(float(expected))


@pytest.mark.parametrize("model_name", ["global-parity", "sector-parity"])
def test_distribution_normalization(model_name):
    model = get_model(model_name)
    for state in (ghz_state(3), build_rho_nk(6, 2), build_rho_nk(5, 2)):
        for theta in np.linspace(-2, 2, 17):
            p = np.asarray(model.probabilities(state, theta))
            assert p.min() > -1e-15
            assert abs(p.sum() - 1.0) < 1e-12


def test_global_parity_matches_born_rule():
    state = build_rho_nk(5, 2)
    n = 5
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    op = sx
    for _ in range(n - 1):
        op = np.kron(op, sx)
    proj_plus = (np.eye(1 << n) + op) / 2
    model = GlobalParity()
    for theta in (0.2, 0.9):
        rho_t = evolve_dense(state, theta)
        born = float(np.trace(proj_plus @ rho_t).real)
        assert model.probabilities(state, theta)[0] == pytest.approx(born, abs=1e-12)


def test_sector_parity_matches_born_rule():
    state = build_rho_nk(4, 1)
    model = SectorParity()
    for theta in (0.3, 1.1):
        rho_t = evolve_dense(state, theta)
        p = model.probabilities(state, theta)
        for (i, sign), prob in zip(sector_outcomes(state), p):
            v = ghz_vector(4, i, sign)
            assert prob == pytest.approx(float((v @ rho_t @ v).real), abs=1e-12)


# -- parity with the numpy fringe tables -------------------------------------------

def numpy_tables(state, model_name):
    """The fringe tables as numpy arrays: weights by ``np.unique``, one
    coefficient column per weight, the rows of global or sector parity."""
    rows = list(state.sectors())
    s = np.array([s / state.den for _, s, _ in rows])
    d = np.array([d / state.den for _, _, d in rows])
    w, col = np.unique([weight(state.n, i) for i, _, _ in rows], return_inverse=True)
    coh = np.eye(len(w))[col] * d[:, None]
    if model_name == "global-parity":
        c = coh.sum(axis=0)
        return np.ones(2), np.array([c, -c]), w.astype(float)
    return np.repeat(s, 2), np.stack([coh, -coh], axis=1).reshape(2 * len(s), -1), w.astype(float)


def numpy_probabilities(state, model_name, theta):
    base, coef, w = numpy_tables(state, model_name)
    return (base + coef @ np.cos(w * theta)) / 2.0


def numpy_derivatives(state, model_name, theta):
    _, coef, w = numpy_tables(state, model_name)
    return -(coef @ (w * np.sin(w * theta))) / 2.0


def numpy_pvals(state, model_name, theta):
    probs = np.clip(numpy_probabilities(state, model_name, theta), 0.0, None)
    return probs / np.sum(probs)


class PvalsSeen(Exception):
    """Raised by a stand-in stream once it has seen the pvals."""


def sampled_pvals(state, model_name, theta):
    """The pvals ``run_monte_carlo`` hands to its multinomial."""

    class Recorder:
        def multinomial(self, shots, pvals):
            raise PvalsSeen(list(pvals))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "_rng", lambda seed, stream: Recorder())
        with pytest.raises(PvalsSeen) as seen:
            # a bracket clear of 0, which the default one holds at small n theta
            run_monte_carlo(state, theta, model_name, shots=100, repetitions=1, seed=0,
                            bracket_halfwidth=theta / 2)
    return seen.value.args[0]


PARITY_STATES = [build_rho_nkm(n, k, m) for n, k, m in family_members(8)] + [
    ghz_state(3), ghz_state(6)]
PARITY_THETAS = (0.05, 0.3, 0.77, 1.3)


def test_sector_parity_probabilities_match_numpy_bitwise():
    model = SectorParity()
    for state in PARITY_STATES:
        for theta in PARITY_THETAS:
            assert model.probabilities(state, theta) == list(
                numpy_probabilities(state, model.name, theta))
            assert sampled_pvals(state, model.name, theta) == list(
                numpy_pvals(state, model.name, theta))


def test_global_parity_probabilities_within_one_ulp():
    # the numpy dot product C goes through BLAS, whose last bit depends on the
    # CPU; one ulp of C <= 1 moves (1 +- C) / 2 by at most ulp(1) / 2
    model = GlobalParity()
    for state in PARITY_STATES:
        for theta in PARITY_THETAS:
            for got, want in ((model.probabilities(state, theta),
                               numpy_probabilities(state, model.name, theta)),
                              (sampled_pvals(state, model.name, theta),
                               numpy_pvals(state, model.name, theta))):
                for a, b in zip(got, want, strict=True):
                    assert abs(a - b) <= math.ulp(1.0) / 2, (state, theta)


def chebyshev(w, t):
    """(T_w(t), U_{w-1}(t)) for w >= 0: cos(w theta) = T_w(cos theta) and
    sin(w theta) = sin(theta) U_{w-1}(cos theta), with U_{-1} = 0."""
    if w == 0:
        return 1, 0
    t_prev, t_cur, u_prev, u_cur = 1, t, 0, 1
    for _ in range(w - 1):
        t_prev, t_cur = t_cur, 2 * t * t_cur - t_prev
        u_prev, u_cur = u_cur, 2 * t * u_cur - u_prev
    return t_cur, u_cur


def exact_fisher(state, model_name, t):
    """F_C in exact rationals at cos(theta) = t, from the sectors one by one.
    With cos(w theta) = T_|w|(t) and w sin(w theta) = |w| sin(theta)
    U_|w|-1(t), an outcome P = (base +- sum_i c_i cos(w_i theta)) / 2 has
    P' = -+ sin(theta) slope / 2, slope = sum_i c_i |w_i| U_|w_i|-1(t), so
    with sin^2 = 1 - t^2 each P'^2 / P is rational.  An outcome with P = 0 has
    P' = 0 and adds 0."""
    rows = [(Fraction(s, state.den), Fraction(d, state.den), weight(state.n, i))
            for i, s, d in state.sectors()]
    cheb = {abs(w): chebyshev(abs(w), t) for _, _, w in rows}
    if model_name == "global-parity":
        c = sum(d * cheb[abs(w)][0] for _, d, w in rows)
        slope = sum(d * abs(w) * cheb[abs(w)][1] for _, d, w in rows)
        outcomes = [(1 + c, slope), (1 - c, slope)]
    else:
        outcomes = [(s + sign * d * cheb[abs(w)][0], d * abs(w) * cheb[abs(w)][1])
                    for s, d, w in rows for sign in (1, -1)]
    # P = twice_p / 2 and P'^2 = (1 - t^2) slope^2 / 4, so P'^2 / P = (1 - t^2) slope^2 / (2 twice_p)
    return sum((1 - t * t) * slope * slope / (2 * twice_p)
               for twice_p, slope in outcomes if twice_p)


@settings(max_examples=60, deadline=None)
@given(random_state_strategy(max_n=8), THETAS, st.sampled_from(["global-parity", "sector-parity"]))
def test_derivatives_and_fisher_match_numpy(state, theta, model_name):
    # F_C against exact rationals at theta = 2 atan(u) for the float
    # u = tan(theta / 2), whose cosine (1 - u^2) / (1 + u^2) is rational,
    # while the float 2 atan(u) lies within an ulp or two of it
    u = Fraction(math.tan(theta / 2))
    t = (1 - u * u) / (1 + u * u)
    got = classical_fisher(state, 2 * math.atan(float(u)), get_model(model_name))
    assert got == pytest.approx(float(exact_fisher(state, model_name, t)), rel=1e-12, abs=1e-15)


# -- global parity from the classes ---------------------------------------------------

def sector_coefficients(state):
    """Exact global-parity coefficient of each weight w: the sum of d_i over
    the sectors of weight w, listed one by one."""
    coef = {}
    for i, _, d in state.sectors():
        coef[weight(state.n, i)] = coef.get(weight(state.n, i), 0) + d
    return {w: Fraction(a, state.den) for w, a in coef.items()}


def class_coefficients(state):
    """Exact global-parity coefficient of each weight w: the sum of mult * d
    over the classes of weight w, divided by the state's denominator."""
    coef = {}
    for rep, mult, _, d in state.classes():
        coef[weight(state.n, rep)] = coef.get(weight(state.n, rep), 0) + mult * d
    return {w: Fraction(a, state.den) for w, a in coef.items()}


def assert_parity_coefficients_are_class_sums(state):
    exact = class_coefficients(state)
    assert exact == sector_coefficients(state)
    w, base, terms, row_class, *_ = GlobalParity()._tables(state)
    assert w == sorted(float(wi) for wi in exact)
    for row, sign in zip(row_class, (1, -1)):  # the + and - outcome rows
        assert base[row] == 1.0
        got = {w[j]: a for c, j, a in terms if c == row}
        assert got == {float(wi): sign * float(a) for wi, a in exact.items()}


def test_global_parity_coefficients_are_class_sums_on_family():
    for n, k, m in family_members(12):
        assert_parity_coefficients_are_class_sums(build_rho_nkm(n, k, m))


@settings(max_examples=60, deadline=None)
@given(random_state_strategy(max_n=5))
def test_global_parity_coefficients_are_class_sums_on_random_states(state):
    assert_parity_coefficients_are_class_sums(state)


@pytest.mark.parametrize("n", [64, 128, 200])
def test_global_parity_fisher_matches_closed_form_beyond_sector_cap(monkeypatch, n):
    # F_C = C'^2 / (1 - C^2) with C(theta) = sum_w c_w cos(w theta), c_w the
    # exact class sums; these states have 2^(n-1) sectors, none of them listed
    state = build_rho_nk(n, n // 4)
    monkeypatch.setattr(type(state), "sectors", None)
    coef = class_coefficients(state)
    f_q = float(qfi_ghz_diagonal(state))
    for theta in (1 / n, 2 / n):
        c = math.fsum(float(a) * math.cos(w * theta) for w, a in coef.items())
        dc = -math.fsum(float(a) * w * math.sin(w * theta) for w, a in coef.items())
        f_c = classical_fisher(state, theta, GlobalParity())
        assert f_c == pytest.approx(dc * dc / (1 - c * c), rel=1e-12)
        assert f_c <= f_q


# -- classical Fisher information ---------------------------------------------------

def test_fisher_finite_difference_agreement():
    # F_C from the analytic P' against F_C from central differences of P
    for model in (GlobalParity(), SectorParity()):
        for state in (build_rho_nk(6, 2), build_rho_nk(5, 2), build_rho_nk(4, 2), ghz_state(5)):
            for theta in (0.1, 0.15, 0.45, 0.6, 1.2):
                a = classical_fisher(state, theta, model)
                p = np.asarray(model.probabilities(state, theta))
                dp = (np.asarray(model.probabilities(state, theta + FD_STEP))
                      - np.asarray(model.probabilities(state, theta - FD_STEP))) / (2.0 * FD_STEP)
                b = float(np.sum(dp[p > 1e-15] ** 2 / p[p > 1e-15]))
                assert a == pytest.approx(b, abs=1e-6), (model.name, state.n, theta)


@settings(max_examples=100, deadline=None)
@given(random_state_strategy(max_n=8), THETAS, st.sampled_from(["global-parity", "sector-parity"]))
def test_fisher_never_exceeds_qfi_near_fringe_zeros(state, theta, model_name):
    # Braunstein-Caves: F_C <= F_Q at every phase, and no phase is refused
    f_q = float(qfi_ghz_diagonal(state))
    assert classical_fisher(state, theta, get_model(model_name)) <= f_q * (1 + 1e-12)


def test_sector_parity_attains_qfi_on_family_near_fringe_zeros():
    # every class of a family member is pure (d = s) or has d = 0, so sector
    # parity reaches F_Q at every phase; near theta = 0 and pi/n the P of
    # the w = +-n class cancels, and at 1e-160 and 1e-200 P ~ theta^2 and
    # P'^2 lie below the normal float range
    for n, k, m in family_members(12):
        state = build_rho_nkm(n, k, m)
        f_q = float(qfi_ghz_diagonal(state))
        for theta in (1e-3, 1e-7, 1e-12, 1e-160, 1e-200,
                      math.pi / n - 1e-9, math.pi / n + 1e-9):
            f_c = classical_fisher(state, theta, SectorParity())
            assert f_c == pytest.approx(f_q, rel=1e-12), (n, k, m, theta)


def test_ghz_global_parity_reaches_n_squared_near_zero():
    # at theta = 1e-8, P(-) = (1 - cos 4 theta) / 2 cancels to 3.89e-16 in
    # floats, where it is sin^2(2 theta) = 4.00e-16; at 1e-160 and 1e-200
    # P(-) and P'^2 lie below the normal float range; F_C = n^2 = 16
    for theta in (1e-8, 1e-160, 1e-200):
        f_c = classical_fisher(ghz_state(4), theta, GlobalParity())
        assert f_c == pytest.approx(16, rel=1e-12), theta


def test_sector_parity_saturates_sector_term():
    state = build_rho_nk(4, 2)
    model = SectorParity()
    i0 = 0  # dominant sector, w = 4
    theta = np.pi / (2 * weight(4, i0))
    p = model.probabilities(state, theta)
    dp = numpy_derivatives(state, model.name, theta)
    contrib = sum(
        d * d / v for (o, _), v, d in zip(sector_outcomes(state), p, dp) if o == i0
    )
    s, d = next((s, d) for i, s, d in state.sectors() if i == i0)
    expected = float(Fraction(weight(4, i0) ** 2 * d * d, s * state.den))
    assert contrib == pytest.approx(expected, abs=1e-12)


def test_sector_parity_saturates_family_qfi_everywhere():
    # pure sectors contribute w^2 * lambda at any phase where their fringe turns
    state = build_rho_nk(6, 2)
    fq = float(qfi_ghz_diagonal(state))
    for theta in (0.19, 0.52, 0.91):
        assert classical_fisher(state, theta, SectorParity()) == pytest.approx(fq, abs=1e-9)


# -- sampler: numpy's Philox multinomial, reproduced ------------------------------------

def numpy_generator(seed, stream):
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


SEEDS = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**130))
SHOTS = st.one_of(st.just(10**12), st.integers(100, 10**4), st.integers(10**4, 10**8),
                  st.integers(10**8, 10**12))
WEIGHTS = st.integers(2, 256).flatmap(  # a drawn length, so long lists come up too
    lambda d: st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=d, max_size=d)
).filter(lambda ws: sum(ws) > 0)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 2**40), SHOTS, WEIGHTS)
def test_multinomial_matches_numpy(seed, stream, shots, weights):
    pvals = np.array(weights) / np.sum(weights)
    expected = numpy_generator(seed, stream).multinomial(shots, pvals)
    assert estimation._rng(seed, stream).multinomial(shots, list(pvals)) == expected.tolist()


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 2**40))
def test_raw_stream_matches_numpy(seed, stream):
    expected = numpy_generator(seed, stream).bit_generator.random_raw(8).tolist()
    rng = estimation._rng(seed, stream)
    assert [rng.next64() for _ in range(8)] == expected


# Known answers, so that a numpy release with another sampler fails here
# instead of silently moving the oracle.
RAW_42_0 = [0x38411D067AF41BA0, 0x74C9187AA4F8949A, 0x2F199840721533F3,
            0x723AA4E0FA41B5CB, 0x628332B0A6FAD9C2, 0x602033BD4B6E75AC,
            0x501B1C2F7FBF0CD7, 0x9A85F1360188D199]
README_COUNTS = {  # estimate --n 4 --k 2 --theta 0.3 --shots 10000 --seed 42, repetitions 0-2
    "global-parity": [[6681, 3319], [6703, 3297], [6689, 3311]],
    "sector-parity": [
        [612, 285, 839, 79, 831, 89, 861, 938, 802, 70, 908, 943, 903, 946, 813, 81],
        [598, 278, 867, 87, 779, 83, 969, 907, 792, 89, 887, 889, 918, 927, 859, 71],
        [608, 308, 771, 79, 810, 80, 934, 893, 833, 79, 933, 911, 941, 915, 824, 81],
    ],
}


def test_raw_stream_known_answer():
    rng = estimation._rng(42, 0)
    assert [rng.next64() for _ in range(8)] == RAW_42_0
    assert numpy_generator(42, 0).bit_generator.random_raw(8).tolist() == RAW_42_0


@pytest.mark.parametrize("model_name", sorted(README_COUNTS))
def test_readme_run_counts_known_answer(model_name):
    pvals = sampled_pvals(build_rho_nk(4, 2), model_name, 0.3)
    for rep, expected in enumerate(README_COUNTS[model_name]):
        assert estimation._rng(42, rep).multinomial(10_000, pvals) == expected
        assert numpy_generator(42, rep).multinomial(10_000, pvals).tolist() == expected


# -- Monte Carlo -----------------------------------------------------------------------

def test_run_reproducible():
    state = ghz_state(4)
    kwargs = dict(theta_true=np.pi / 16, model="global-parity",
                  shots=1000, repetitions=5, seed=7)
    a = run_monte_carlo(state, **kwargs)
    b = run_monte_carlo(state, **kwargs)
    assert a.estimates == b.estimates
    assert a == b
    c = run_monte_carlo(state, **{**kwargs, "seed": 8})
    assert c.estimates != a.estimates


@pytest.mark.parametrize("model_name", ["global-parity", "sector-parity"])
def test_run_reads_state_tables_once(monkeypatch, model_name):
    state = build_rho_nk(6, 2)
    calls = {"sectors": 0, "classes": 0}
    for method in calls:
        def counted(self, method=method, read=getattr(type(state), method)):
            calls[method] += 1
            return read(self)

        monkeypatch.setattr(type(state), method, counted)
    run_monte_carlo(state, theta_true=0.2, model=model_name, shots=1000,
                    repetitions=3, seed=5)
    if model_name == "global-parity":  # reads the classes, never a sector
        assert calls["sectors"] == 0
        assert 1 <= calls["classes"] <= 5  # not once per likelihood evaluation
    else:
        assert 1 <= calls["sectors"] <= 5  # not once per likelihood evaluation


def test_run_tracks_cramer_rao():
    run = run_monte_carlo(
        ghz_state(4), theta_true=np.pi / 16, model="global-parity",
        shots=10_000, repetitions=60, seed=11,
    )
    assert run.crlb == pytest.approx(1 / (4 * 100))
    assert 0.85 < run.empirical_std / run.crlb < 1.35


def test_quadruple_shots_halves_spread():
    base = dict(theta_true=np.pi / 16, model="global-parity", repetitions=40)
    state = ghz_state(4)
    small = run_monte_carlo(state, shots=2_500, seed=3, **base)
    big = run_monte_carlo(state, shots=10_000, seed=4, **base)
    assert small.empirical_std / big.empirical_std == pytest.approx(2.0, abs=0.5)


@pytest.mark.parametrize("model_name", ["global-parity", "sector-parity"])
@pytest.mark.parametrize("state", [ghz_state(4), build_rho_nk(8, 2)], ids=["ghz4", "rho82"])
def test_refined_estimate_is_local_likelihood_minimum(state, model_name):
    model = get_model(model_name)
    theta = 0.9 * np.pi / (2 * state.n)
    halfwidth = np.pi / (4 * state.n)
    bracket = (theta - halfwidth, theta + halfwidth)

    def nll(t):
        return -float(np.sum(counts * np.log(model.probabilities(state, t))))

    for seed in range(3):
        counts = np.random.default_rng(seed).multinomial(
            2000, model.probabilities(state, theta))
        est = _mle(state, model, counts, bracket)
        assert bracket[0] < est < bracket[1]
        assert nll(est) <= min(nll(est - 1e-6), nll(est + 1e-6))


def test_degenerate_bracket_reported():
    # P = (1 + cos 2 theta) / 2 is symmetric about pi/2: a bracket spanning
    # both mirror maxima theta and pi - theta is ambiguous
    with pytest.raises(LikelihoodDegeneracyError):
        run_monte_carlo(
            ghz_state(2), theta_true=1.2, model="global-parity",
            shots=1000, repetitions=1, seed=0, bracket_halfwidth=1.0,
        )


def test_run_validates_inputs():
    with pytest.raises(DomainError):
        run_monte_carlo(ghz_state(2), 0.3, "global-parity",
                        shots=50, repetitions=1, seed=0)
    with pytest.raises(DomainError):
        run_monte_carlo(ghz_state(2), 0.3, "no-such-model",
                        shots=1000, repetitions=1, seed=0)
    # a zero-width bracket returns theta itself as every estimate, with a
    # spread of 0 below the Cramer-Rao bound; a negative one is reversed; at
    # theta = 1e17 the default halfwidth pi/16 rounds away to zero width
    nan, inf = float("nan"), float("inf")
    for theta, halfwidth in ((nan, None), (inf, None), (1e17, None), (0.3, 0.0),
                             (0.3, -0.1), (0.3, nan), (0.3, inf)):
        with pytest.raises(DomainError):
            run_monte_carlo(build_rho_nk(4, 1), theta, "global-parity", shots=1000,
                            repetitions=2, seed=0, bracket_halfwidth=halfwidth)


def test_run_refuses_a_bracket_its_grid_cannot_resolve(monkeypatch):
    # the 512-point grid resolves the fastest fringe (w = 4 for n = 4) while a
    # step is at most a quarter period pi/8: up to halfwidth 511 pi/16 ~ 100.3;
    # theta = 200 keeps either bracket clear of 0
    def sampled(seed, stream):
        raise AssertionError("sampled")

    monkeypatch.setattr(estimation, "_rng", sampled)
    with pytest.raises(DomainError, match="too wide"):
        run_monte_carlo(ghz_state(4), 200.0, "global-parity", shots=1000, repetitions=1,
                        seed=0, bracket_halfwidth=100.5)
    with pytest.raises(AssertionError, match="sampled"):
        run_monte_carlo(ghz_state(4), 200.0, "global-parity", shots=1000, repetitions=1,
                        seed=0, bracket_halfwidth=100.3)


@pytest.mark.parametrize("state", [
    GhzDiagonalState(2, {1: 1}, {}),
    GhzDiagonalState(4, {3: Fraction(1, 2)}, {3: Fraction(1, 2)}),
], ids=["pure", "balanced"])
def test_run_refuses_state_without_phase_speed(monkeypatch, state):
    # every populated sector has weight 0: pi/(4 w_max) has no w_max to divide
    # by, and with a given bracket the run would sample a flat likelihood
    def no_sampling(seed, stream):
        raise AssertionError("sampled a phase-invariant state")

    monkeypatch.setattr(estimation, "_rng", no_sampling)
    for halfwidth in (None, 0.1):
        with pytest.raises(DomainError, match="weight 0"):
            run_monte_carlo(state, 0.3, "global-parity", shots=1000, repetitions=2,
                            seed=0, bracket_halfwidth=halfwidth)


@pytest.mark.parametrize("state, theta, model_name, reason", [
    (build_rho_nk(6, 2), 0.0, "sector-parity", "mirror-symmetric"),
    (build_rho_nk(6, 2), 0.0, "global-parity", "mirror-symmetric"),
    (maximally_mixed_state(4), 0.3, "global-parity", "no phase information"),
], ids=["sector-parity-at-0", "global-parity-at-0", "no-coherence"])
def test_run_refuses_measurement_without_information(monkeypatch, state, theta,
                                                     model_name, reason):
    # refused before the first draw, not after every repetition
    def no_sampling(seed, stream):
        raise AssertionError("sampled a request it refuses")

    monkeypatch.setattr(estimation, "_rng", no_sampling)
    with pytest.raises(DomainError, match=reason):
        run_monte_carlo(state, theta, model_name, shots=1000, repetitions=200, seed=0)


def test_run_refuses_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        run_monte_carlo(ghz_state(2), 0.3, "global-parity", shots=1000,
                        repetitions=1, seed=-1)


def test_run_json_fields():
    run = run_monte_carlo(
        build_rho_nk(4, 2), theta_true=0.4, model="sector-parity",
        shots=500, repetitions=3, seed=1,
    )
    assert run.rng_algorithm == "philox4x64"
    assert len(run.estimates) == 3
    assert run.fisher_quantum == pytest.approx(32 / 11)
