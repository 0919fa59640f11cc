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

Both are one fringe formula, written once in ``_FringeModel``.  Classical
Fisher information uses the analytic derivatives, and a seeded
counter-based Monte Carlo loop estimates theta by bracketed maximum
likelihood (a grid, then golden-section search) to compare the empirical
spread against the Cramer-Rao bound 1/sqrt(shots * F).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import DomainError, FisherSingularityError, LikelihoodDegeneracyError
from .qfi import qfi_ghz_diagonal
from .states import SectorState, weight

RNG_ALGORITHM = "philox4x64"  # counter-based; pinned for bit-reproducibility
MLE_TOL = 1e-8  # the refined bracket is narrower than this
INV_PHI = (5**0.5 - 1) / 2  # golden-section ratio
GRID_POINTS = 512  # coarse likelihood grid across the bracket
P_ZERO_TOL = 1e-15  # outcome probabilities at or below this count as zero
SLOPE_TOL = 1e-12  # a zero-probability outcome steeper than this is singular


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent reproducible stream: Philox keyed by (seed, stream index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


# -- measurement models -------------------------------------------------------


class _FringeModel:
    """Outcome probabilities P(theta) = (base + coef . cos(w theta)) / 2, one
    ``coef`` column per distinct sector weight w.  A model only maps the sector
    sums s and coherences (d_i in the column of w_i) to outcome rows.  The
    tables of the last state read are kept, so a run reads its state once."""

    _state = None

    def probabilities(self, state: SectorState, theta: float) -> np.ndarray:
        base, coef, w = self._tables(state)
        return (base + coef @ np.cos(w * theta)) / 2.0

    def derivatives(self, state: SectorState, theta: float) -> np.ndarray:
        _, coef, w = self._tables(state)
        return -(coef @ (w * np.sin(w * theta))) / 2.0

    def _tables(self, state: SectorState):
        # a sparse state holds dicts, so states are compared by identity, not
        # hashed; holding it keeps its id from being reused by another state
        if self._state is not state:
            rows = list(state.sectors())
            s = np.array([float(lp + lm) for _, lp, lm in rows])
            d = np.array([float(lp - lm) for _, lp, lm in rows])
            w, col = np.unique([weight(state.n, i) for i, _, _ in rows],
                               return_inverse=True)
            base, coef = self._rows(s, np.eye(len(w))[col] * d[:, None])
            self._state, self._cached = state, (base, coef, w.astype(float))
        return self._cached


class GlobalParity(_FringeModel):
    """Product of single-qubit sigma_x outcomes; two outcomes +1 / -1."""

    name = "global-parity"

    def _rows(self, s: np.ndarray, coh: np.ndarray):
        c = coh.sum(axis=0)
        return np.ones(2), np.array([c, -c])


class SectorParity(_FringeModel):
    """Project onto a sector's span, then measure parity within the sector.

    Outcomes are (i, +1) and (i, -1) for every populated sector i; the
    classical information of this measurement saturates sector i's QFI
    contribution at w_i * theta = pi/2.
    """

    name = "sector-parity"

    def _rows(self, s: np.ndarray, coh: np.ndarray):
        return np.repeat(s, 2), np.stack([coh, -coh], axis=1).reshape(2 * len(s), -1)


MODELS = {GlobalParity.name: GlobalParity, SectorParity.name: SectorParity}


def get_model(name: str):
    try:
        return MODELS[name]()
    except KeyError as exc:
        raise DomainError(f"unknown measurement model {name!r}; "
                          f"choose from {sorted(MODELS)}") from exc


def classical_fisher(state: SectorState, theta: float, model) -> float:
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


# -- Monte Carlo estimation ---------------------------------------------------


@dataclass(frozen=True)
class EstimationRun:
    """Seeded Monte Carlo estimation record with its Cramer-Rao comparison."""

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
        return asdict(self)


def _golden_section(f, lo: float, hi: float) -> Tuple[float, float]:
    """Minimize a unimodal f on [lo, hi] until the bracket is below ``MLE_TOL``."""
    c, d = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo >= MLE_TOL:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + INV_PHI * (hi - lo)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _mle(
    state: SectorState,
    model,
    counts: np.ndarray,
    bracket: Tuple[float, float],
) -> float:
    """Bracketed maximum likelihood: coarse grid, refine, degeneracy check."""

    def nll_at(t: float) -> float:
        p = np.clip(model.probabilities(state, t), 1e-300, None)
        return float(-np.sum(counts * np.log(p)))

    lo, hi = bracket
    grid = np.linspace(lo, hi, GRID_POINTS)
    nll = np.array([nll_at(t) for t in grid])
    best = int(np.argmin(nll))
    interior = (nll[1:-1] <= nll[:-2]) & (nll[1:-1] <= nll[2:])
    candidates = set(np.where(interior)[0] + 1) | {best}

    def refine(idx: int) -> Tuple[float, float]:
        left = grid[max(idx - 1, 0)]
        right = grid[min(idx + 1, GRID_POINTS - 1)]
        return _golden_section(nll_at, float(left), float(right))

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
    state: SectorState,
    theta_true: float,
    model,
    shots: int,
    repetitions: int,
    seed: int,
    bracket_halfwidth: Optional[float] = None,
) -> EstimationRun:
    """Repeatedly sample ``shots`` outcomes and estimate theta by bracketed MLE.

    Each repetition draws from its own counter-based stream (seed, index), so
    results are bit-reproducible and order-independent.  The default bracket
    theta_true +- pi/(4 * w_max) stays within one monotone branch of the
    fastest sector's fringe; widen it only knowingly, since a symmetric
    likelihood develops mirror maxima (reported, never silently resolved).
    A bracket that is empty in floating point (zero or negative width, or
    one too narrow to change theta_true) would return theta_true itself as
    every estimate, so it is refused.  A state whose populated sectors all
    have weight 0 does not turn under U(theta), so it is refused too.
    """
    if not 100 <= shots <= np.iinfo(np.int64).max:  # the multinomial draws int64
        raise DomainError(f"need 100 <= shots <= 2^63 - 1, got {shots}")
    if repetitions < 1:
        raise DomainError("need at least one repetition")
    if isinstance(model, str):
        model = get_model(model)
    w_max = max(abs(weight(state.n, rep)) for rep, _, _, _ in state.classes())
    if w_max == 0:
        raise DomainError("every populated sector has weight 0, so the state "
                          "carries no phase information")
    if bracket_halfwidth is None:
        bracket_halfwidth = np.pi / (4.0 * w_max)
    bracket = (theta_true - bracket_halfwidth, theta_true + bracket_halfwidth)
    if not -np.inf < bracket[0] < theta_true < bracket[1] < np.inf:
        raise DomainError(f"bracket {bracket} around theta = {theta_true} is "
                          "empty or unbounded; need a finite theta and halfwidth > 0")

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
