"""Phase-estimation protocol around GHZ-diagonal probes.

The probe evolves under U(theta) = exp(-i * theta * Z) with Z half the total
sigma_z; diagonal sector weights are untouched while the antidiagonal entry
of sector i turns at angular speed w_i.  Two concrete measurements are
modeled in closed form:

* global parity  — measure sigma_x on every qubit, keep the product:
  P(+-) = [1 +- sum_i (lambda_i^+ - lambda_i^-) cos(w_i theta)] / 2;
* sector parity  — project onto a sector's two-dimensional span, then
  measure parity within it:
  P(i, +-) = [(lambda_i^+ + lambda_i^-) +- (lambda_i^+ - lambda_i^-) cos(w_i theta)] / 2.

Classical Fisher information uses the analytic derivatives (a central
finite-difference cross-check is provided), and a seeded counter-based
Monte Carlo loop estimates theta by bracketed maximum likelihood to compare
the empirical spread against the Cramer-Rao bound 1/sqrt(shots * F).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import DomainError, FisherSingularityError, LikelihoodDegeneracyError
from .qfi import qfi_ghz_diagonal
from .states import GhzDiagonalState, _check_dense, weight

RNG_ALGORITHM = "philox4x64"  # counter-based; pinned for bit-reproducibility
MLE_TOL = 1e-8
GRID_POINTS = 512  # coarse likelihood grid across the bracket
P_ZERO_TOL = 1e-15  # outcome probabilities at or below this count as zero
SLOPE_TOL = 1e-12  # a zero-probability outcome steeper than this is singular
FD_STEP = 1e-5  # central finite-difference step of ``classical_fisher_fd``


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent reproducible stream: Philox keyed by (seed, stream index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class EvolvedState:
    """Sector table after phase evolution: sums invariant, coherences rotated."""

    n: int
    theta: float
    sector_sum: Dict[int, Fraction]
    coherence: Dict[int, complex]  # (lambda^+ - lambda^-)/2 * exp(-i theta w_i)


def evolve(state: GhzDiagonalState, theta: float) -> EvolvedState:
    """Apply exp(-i theta Z); purity is preserved sector by sector."""
    sums: Dict[int, Fraction] = {}
    coh: Dict[int, complex] = {}
    for i in state.support():
        sums[i] = state.sector_sum(i)
        d = state.sector_diff(i)
        if d != 0:
            w = weight(state.n, i)
            coh[i] = float(d) / 2.0 * np.exp(-1j * theta * w)
    return EvolvedState(state.n, float(theta), sums, coh)


def evolved_dense(ev: EvolvedState) -> np.ndarray:
    """Dense complex realization of an evolved sector table."""
    _check_dense(ev.n)
    dim = 1 << ev.n
    rho = np.zeros((dim, dim), dtype=complex)
    for i, s in ev.sector_sum.items():
        j = dim - 1 - i
        rho[i, i] = rho[j, j] = float(s) / 2.0
        c = ev.coherence.get(i, 0.0)
        rho[i, j] = c
        rho[j, i] = np.conj(c)
    return rho


# -- measurement models -------------------------------------------------------


class GlobalParity:
    """Product of single-qubit sigma_x outcomes; two outcomes +1 / -1."""

    name = "global-parity"

    def outcomes(self, state: GhzDiagonalState) -> Tuple:
        return (+1, -1)

    def _fringe(self, state: GhzDiagonalState, theta: float) -> Tuple[float, float]:
        c = sum(
            float(state.sector_diff(i)) * np.cos(weight(state.n, i) * theta)
            for i in state.coherence_support()
        )
        dc = sum(
            -float(state.sector_diff(i))
            * weight(state.n, i)
            * np.sin(weight(state.n, i) * theta)
            for i in state.coherence_support()
        )
        return c, dc

    def probabilities(self, state: GhzDiagonalState, theta: float) -> np.ndarray:
        c, _ = self._fringe(state, theta)
        return np.array([(1.0 + c) / 2.0, (1.0 - c) / 2.0])

    def derivatives(self, state: GhzDiagonalState, theta: float) -> np.ndarray:
        _, dc = self._fringe(state, theta)
        return np.array([dc / 2.0, -dc / 2.0])


class SectorParity:
    """Project onto a sector's span, then measure parity within the sector.

    Outcomes are (i, +1) and (i, -1) for every populated sector i; the
    classical information of this measurement saturates sector i's QFI
    contribution at w_i * theta = pi/2.
    """

    name = "sector-parity"

    def outcomes(self, state: GhzDiagonalState) -> Tuple:
        return tuple((i, s) for i in state.support() for s in (+1, -1))

    def probabilities(self, state: GhzDiagonalState, theta: float) -> np.ndarray:
        out = []
        for i in state.support():
            s = float(state.sector_sum(i))
            d = float(state.sector_diff(i))
            c = np.cos(weight(state.n, i) * theta)
            out.append((s + d * c) / 2.0)
            out.append((s - d * c) / 2.0)
        return np.array(out)

    def derivatives(self, state: GhzDiagonalState, theta: float) -> np.ndarray:
        out = []
        for i in state.support():
            d = float(state.sector_diff(i))
            w = weight(state.n, i)
            slope = -d * w * np.sin(w * theta) / 2.0
            out.append(slope)
            out.append(-slope)
        return np.array(out)


MODELS = {GlobalParity.name: GlobalParity, SectorParity.name: SectorParity}


def get_model(name: str):
    try:
        return MODELS[name]()
    except KeyError as exc:
        raise DomainError(f"unknown measurement model {name!r}; "
                          f"choose from {sorted(MODELS)}") from exc


def outcome_distribution(state: GhzDiagonalState, theta: float, model) -> np.ndarray:
    """Outcome probabilities at the given phase; nonnegative, sum to 1."""
    return model.probabilities(state, theta)


def classical_fisher(state: GhzDiagonalState, theta: float, model) -> float:
    """sum_mu (dP/dtheta)^2 / P over outcomes with P > 0 (analytic derivatives).

    Outcomes with vanishing probability and vanishing derivative contribute
    0; a vanishing probability with nonvanishing derivative is a genuine
    singular point and raises ``FisherSingularityError``.
    """
    p = model.probabilities(state, theta)
    dp = model.derivatives(state, theta)
    total = 0.0
    for k, (pk, dk) in enumerate(zip(p, dp)):
        if pk > P_ZERO_TOL:
            total += dk * dk / pk
        elif abs(dk) > SLOPE_TOL:
            raise FisherSingularityError(
                f"outcome {k} has P = {pk} but dP/dtheta = {dk} at theta = {theta}"
            )
    return total


def classical_fisher_fd(state: GhzDiagonalState, theta: float, model) -> float:
    """Central finite-difference cross-check of ``classical_fisher``."""
    p = model.probabilities(state, theta)
    dp = (model.probabilities(state, theta + FD_STEP)
          - model.probabilities(state, theta - FD_STEP)) / (2.0 * FD_STEP)
    mask = p > P_ZERO_TOL
    return float(np.sum(dp[mask] ** 2 / p[mask]))


# -- Monte Carlo estimation ---------------------------------------------------


@dataclass(frozen=True)
class EstimationRun:
    """Seeded Monte Carlo estimation record with its Cramer-Rao comparison."""

    state_params: dict
    model: str
    theta_true: float
    shots: int
    repetitions: int
    seed: int
    rng_algorithm: str
    estimates: List[float]
    empirical_std: float
    empirical_std_err: float
    crlb: float
    fisher_classical: float
    fisher_quantum: float
    bracket: Tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "state_params": self.state_params,
            "model": self.model,
            "theta_true": self.theta_true,
            "shots": self.shots,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "rng_algorithm": self.rng_algorithm,
            "estimates": list(self.estimates),
            "empirical_std": self.empirical_std,
            "empirical_std_err": self.empirical_std_err,
            "crlb": self.crlb,
            "fisher_classical": self.fisher_classical,
            "fisher_quantum": self.fisher_quantum,
            "bracket": list(self.bracket),
        }


def _negative_log_likelihood(counts: np.ndarray, probs: np.ndarray) -> float:
    p = np.clip(probs, 1e-300, None)
    return float(-np.sum(counts * np.log(p)))


def _mle(
    state: GhzDiagonalState,
    model,
    counts: np.ndarray,
    bracket: Tuple[float, float],
) -> float:
    """Bracketed maximum likelihood: coarse grid, refine, degeneracy check."""

    def nll_at(t: float) -> float:
        return _negative_log_likelihood(counts, model.probabilities(state, t))

    lo, hi = bracket
    grid = np.linspace(lo, hi, GRID_POINTS)
    nll = np.array([nll_at(t) for t in grid])
    best = int(np.argmin(nll))
    interior = (nll[1:-1] <= nll[:-2]) & (nll[1:-1] <= nll[2:])
    candidates = set(np.where(interior)[0] + 1) | {best}

    def refine(idx: int) -> Tuple[float, float]:
        left = grid[max(idx - 1, 0)]
        right = grid[min(idx + 1, GRID_POINTS - 1)]
        res = minimize_scalar(nll_at, bounds=(left, right), method="bounded",
                              options={"xatol": MLE_TOL})
        return float(res.x), float(res.fun)

    refined = sorted((refine(idx) for idx in candidates), key=lambda p: p[1])
    theta_hat, nll_hat = refined[0]
    spacing = grid[1] - grid[0]
    # a second maximum at essentially the same likelihood level is ambiguous
    for t, v in refined[1:]:
        if abs(t - theta_hat) > 4 * spacing and v - nll_hat < 1e-6:
            raise LikelihoodDegeneracyError(
                f"maxima near theta = {theta_hat:.6g} and {t:.6g} are "
                "indistinguishable; shrink the bracket"
            )
    return theta_hat


def run_monte_carlo(
    state: GhzDiagonalState,
    theta_true: float,
    model,
    shots: int,
    repetitions: int,
    seed: int,
    bracket_halfwidth: Optional[float] = None,
    state_params: Optional[dict] = None,
) -> EstimationRun:
    """Repeatedly sample ``shots`` outcomes and estimate theta by bracketed MLE.

    Each repetition draws from its own counter-based stream (seed, index), so
    results are bit-reproducible and order-independent.  The default bracket
    theta_true +- pi/(4 * w_max) stays within one monotone branch of the
    fastest sector's fringe; widen it only knowingly, since a symmetric
    likelihood develops mirror maxima (reported, never silently resolved).
    """
    if shots < 100:
        raise DomainError(f"need shots >= 100, got {shots}")
    if repetitions < 1:
        raise DomainError("need at least one repetition")
    if isinstance(model, str):
        model = get_model(model)
    w_max = max(abs(weight(state.n, i)) for i in state.support())
    if bracket_halfwidth is None:
        bracket_halfwidth = np.pi / (4.0 * w_max)
    bracket = (theta_true - bracket_halfwidth, theta_true + bracket_halfwidth)

    probs = model.probabilities(state, theta_true)
    if probs.min() < -1e-12 or abs(probs.sum() - 1.0) > 1e-9:
        raise DomainError("model probabilities are not a distribution")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()

    estimates: List[float] = []
    for rep in range(repetitions):
        counts = _rng(seed, rep).multinomial(shots, probs)
        estimates.append(_mle(state, model, counts, bracket))

    dev = np.asarray(estimates) - theta_true
    empirical_std = float(np.sqrt(np.mean(dev**2)))
    fisher = classical_fisher(state, theta_true, model)
    if fisher <= 0.0:
        raise DomainError(
            f"measurement carries no phase information at theta = {theta_true}"
        )
    return EstimationRun(
        state_params=state_params or {"n": state.n},
        model=model.name,
        theta_true=float(theta_true),
        shots=shots,
        repetitions=repetitions,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        estimates=estimates,
        empirical_std=empirical_std,
        empirical_std_err=empirical_std / np.sqrt(2.0 * repetitions),
        crlb=1.0 / np.sqrt(shots * fisher),
        fisher_classical=fisher,
        fisher_quantum=float(qfi_ghz_diagonal(state)),
        bracket=bracket,
    )
