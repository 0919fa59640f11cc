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

Both are one fringe formula, evaluated in ``_FringeModel`` over one float row
(base, floor, ((w, a), ...)) per outcome class, built once from the state's
integer rows (s, d) over ``state.den``, with one division by ``den`` per
entry.  Outcomes with one fringe form a class, read from ``state.classes()``:
global parity sums mult * d over the classes of each weight w, so it has no
size limit; sector parity keys them by (s, popcount, +-d), and walks the
state's sectors (n <= 20 for a band state) only to lay out the draw's outcome
rows by state class.  The model gives one probability per class; only the
draw lays them out over the outcomes.  Classical Fisher information makes one
pass over each class's row for one analytic term over the P ``probabilities``
gives the draw, except where a fringe cancelled past 10 bits: there over the
nonnegative floor form, and where it leaves the normal float range, from
theta-scaled sums (``classical_fisher``).
A seeded counter-based Monte Carlo loop estimates theta by bracketed maximum
likelihood (a grid, then golden-section search; one logarithm per class) to
compare the empirical spread with the Cramer-Rao bound 1/sqrt(shots * F).

The module needs no numpy.  ``_rng`` is numpy's Philox4x64-10 stream keyed
through its ``SeedSequence``, and its ``multinomial`` transcribes numpy's
(inversion when n p <= 30, else BTPE), so each draw equals that of
``numpy.random.Generator(Philox(SeedSequence(seed, spawn_key=(stream,))))``.
"""
from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Iterator, Sequence

from .errors import DomainError, LikelihoodDegeneracyError
from .qfi import qfi_ghz_diagonal
from .states import SectorState, _Record, weight

RNG_ALGORITHM = "philox4x64"  # counter-based; pinned for bit-reproducibility
MLE_TOL = 1e-8  # the refined bracket is narrower than this
INV_PHI = (5**0.5 - 1) / 2  # golden-section ratio
GRID_POINTS = 512  # coarse likelihood grid across the bracket
SHOTS_MAX = (1 << 63) - 1  # numpy's multinomial, whose draws are reproduced, counts in int64


# -- counter-based sampling -----------------------------------------------------
# numpy's SeedSequence, Philox4x64-10 (Salmon et al., SC 2011) and binomial
# (Kachitvichyanukul & Schmeiser, CACM 31, 216 (1988)), transcribed step by
# step: same operations in the same order, so the floats round alike.

_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _words(x: int) -> list[int]:
    """Little-endian 32-bit words of x >= 0, at least one."""
    out = [x & _M32]
    while x > _M32:
        x >>= 32
        out.append(x & _M32)
    return out


def _seed_key(seed: int, stream: int) -> tuple[int, int]:
    """Philox key of SeedSequence(seed, spawn_key=(stream,)): the entropy
    words hashed into a 4-word pool, then ``generate_state(2, uint64)``."""
    run = _words(seed)
    entropy = run + [0] * (4 - len(run)) + _words(stream)  # padded before a spawn key
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = 0x8B51F9DD, []
    for word in pool:
        value = word ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox(counter: int, k0: int, k1: int) -> tuple[int, int, int, int]:
    """The 4-word block of a counter below 2^64: ten rounds, key bumped after each."""
    x0, x1, x2, x3 = counter, 0, 0, 0
    for _ in range(10):
        a, b = 0xD2E7470EE14C6C93 * x0, 0xCA5A826395121157 * x2
        x0, x1, x2, x3 = b >> 64 ^ x1 ^ k0, b & _M64, a >> 64 ^ x3 ^ k1, a & _M64
        k0, k1 = k0 + 0x9E3779B97F4A7C15 & _M64, k1 + 0xBB67AE8584CAA73B & _M64
    return x0, x1, x2, x3


def _stream(key: tuple[int, int]) -> Iterator[int]:
    """The 64-bit words of a Philox4x64-10 stream: blocks of counters 1, 2, ..."""
    for counter in itertools.count(1):
        yield from _philox(counter, *key)


class _Philox:
    """Philox4x64-10 stream; ``next64`` returns its next word."""

    def __init__(self, key: tuple[int, int]):
        self.next64 = _stream(key).__next__

    def random(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def multinomial(self, n: int, pvals: Sequence[float]) -> list[int]:
        """numpy's ``random_multinomial``: one conditional binomial per outcome."""
        counts = [0] * len(pvals)
        remaining_p = 1.0
        for j in range(len(pvals) - 1):
            counts[j] = self.binomial(n, pvals[j] / remaining_p)
            n -= counts[j]
            if n <= 0:
                break
            remaining_p -= pvals[j]
        if n > 0:
            counts[-1] = n
        return counts

    def binomial(self, n: int, p: float) -> int:
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p) if p * n <= 30.0 else self._btpe(n, p)
        q = 1.0 - p
        return n - (self._inversion(n, q) if q * n <= 30.0 else self._btpe(n, q))

    def _inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn = math.exp(n * math.log1p(-p))
        np_ = n * p
        # np q + 1 < 0 only for p < 0 (pvals rounded past the remaining mass);
        # then qn > 1 ends the loop before the bound (NaN in C) is read
        bound = int(min(n, np_ + 10.0 * math.sqrt(max(np_ * q + 1, 0.0))))
        x, px, u = 0, qn, self.random()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.random()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, r: float) -> int:
        """Kachitvichyanukul & Schmeiser's BTPE for r <= 0.5."""
        q = 1.0 - r
        fm = n * r + r
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr = xm - p1, xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        while True:
            u = self.random() * p4
            v = self.random()
            if u <= p1:  # triangular centre: accept
                y = math.floor(xm - p1 * v + u)
                break
            if u <= p2:  # parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # left exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # right exponential tail
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if not (k > 20 and k < nrq / 2.0 - 1):  # explicit recursion for f(y)/f(m)
                s = r / q
                a = s * (n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                break
            # squeeze, then Stirling's bound on log f(y)/f(m)
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            log_v = math.log(v) if v > 0.0 else -math.inf  # C's log(0) is -inf
            if log_v < t - rho:
                break
            if log_v > t + rho:
                continue
            x1, f1 = float(y + 1), float(m + 1)
            z, w = float(n) + 1 - m, float(n) - y + 1  # from float(n): equal above 2^53 too
            if log_v > (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                        + (y - m) * math.log(w * r / (x1 * q))
                        + _stirling(f1) + _stirling(x1) + _stirling(z) + _stirling(w)):
                continue
            break
        return y


def _stirling(x: float) -> float:
    """BTPE's Stirling-series correction term at x."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


def _rng(seed: int, stream: int) -> _Philox:
    """Independent reproducible stream: Philox keyed by (seed, stream index),
    as ``numpy.random.Philox(SeedSequence(seed, spawn_key=(stream,)))`` is."""
    return _Philox(_seed_key(seed, stream))


def _pairwise_sum(x: Sequence[float]) -> float:
    """sum(x) in numpy's order: 8 accumulators per block of up to 128, halves above."""
    n = len(x)
    if n < 8:
        total = 0.0
        for v in x:
            total += v
        return total
    if n <= 128:
        acc = list(x[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                acc[j] += x[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in x[tail:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(x[:half]) + _pairwise_sum(x[half:])


# -- measurement models -------------------------------------------------------


class _FringeModel:
    """P(theta) = (base + sum_w a cos(w theta)) / 2 for each outcome class.  A
    model's ``_classes`` reads ``state.classes()`` into its distinct integer rows
    (b, ((w, a), ...)) over ``state.den``, one per outcome class, and the class of
    each outcome row.  ``_tables`` turns each row into floats (base, floor,
    ((w, a), ...)), one division by ``den`` per entry, with the floor
    (b - sum|a|)/den >= 0 (|d| <= s) taken in integers.  The last state's
    tables are kept."""

    _state = None

    def probabilities(self, state: SectorState, theta: float) -> list[float]:
        out = []
        for base, _, terms in self._tables(state)[0]:
            fringe = 0.0
            for w, a in terms:
                fringe += a * math.cos(w * theta)
            out.append((base + fringe) / 2.0)
        return out

    def _tables(self, state: SectorState) -> tuple[list[tuple], list[int]]:
        """(the class rows (base, floor, ((w, a), ...)), the row classes)."""
        # a sparse state holds dicts, so states are compared by identity, not
        # hashed; holding it keeps its id from being reused by another state
        if self._state is not state:
            rows, row_class = self._classes(state)
            den = state.den
            self._state = state
            self._cached = ([(b / den, (b - sum(abs(a) for _, a in terms)) / den,
                              tuple((float(w), a / den) for w, a in terms))
                             for b, terms in rows], row_class)
        return self._cached


class GlobalParity(_FringeModel):
    """Product of single-qubit sigma_x outcomes; two outcomes +1 / -1."""

    name = "global-parity"

    def _classes(self, state: SectorState) -> tuple[list[tuple], list[int]]:
        coef = {}  # weight -> the exact sum of mult * d over its classes, times den
        for rep, mult, _, d in state.classes():
            wi = weight(state.n, rep)
            coef[wi] = coef.get(wi, 0) + mult * d
        terms = tuple(sorted(coef.items()))
        rows = [(state.den, terms), (state.den, tuple((wi, -a) for wi, a in terms))]
        return (rows, [0, 1]) if rows[0] != rows[1] else (rows[:1], [0, 0])  # every a = 0


class SectorParity(_FringeModel):
    """Project onto a sector's span, then measure parity within the sector.

    Outcomes are (i, +1) and (i, -1) for every populated sector i; the
    classical information of this measurement saturates sector i's QFI
    contribution at w_i * theta = pi/2.  Its classes, one per (s, popcount, +-d),
    come from ``state.classes()``, and each sector's outcome rows take the pair
    of its state class, read from the state's sector walk.
    """

    name = "sector-parity"

    def _classes(self, state: SectorState) -> tuple[list[tuple], list[int]]:
        index, pair = {}, []  # (s, popcount, +-d) -> class; state class -> both
        for rep, _, s, d in state.classes():  # in the order the sector walk first meets them
            c = rep.bit_count()
            pair.append((index.setdefault((s, c, d), len(index)),
                         index.setdefault((s, c, -d), len(index))))  # one class if d = 0
        rows = [(s, ((state.n - 2 * c, d),)) for s, c, d in index]
        return rows, [k for _, j in state._sector_classes() for k in pair[j]]


MODELS = {GlobalParity.name: GlobalParity, SectorParity.name: SectorParity}


def get_model(name: str):
    """A new measurement model of the class ``MODELS`` maps ``name`` to."""
    try:
        return MODELS[name]()
    except KeyError as exc:
        raise DomainError(f"unknown measurement model {name!r}; "
                          f"choose from {sorted(MODELS)}") from exc


def classical_fisher(state: SectorState, theta: float, model) -> float:
    """sum_mu (dP/dtheta)^2 / P over the outcomes (analytic derivatives): one
    term per outcome class, added once per outcome row, in row order.

    P = (base + sum_w a cos(w theta))/2 cancels near a zero of its fringe; its
    floor form (base - sum|a|)/2 + sum_{a>0} a cos^2(w theta/2) + sum_{a<0} |a|
    sin^2(w theta/2) sums nonnegative terms.  Where the fringe lost over 10 bits
    (P < 2^-10 base) F_C reads the floor form, else the draw's P from
    ``model.probabilities``, as the floor form would move F_C's last digits.

    A class whose floor is 0 and whose terms are all sin^2 terms has P of
    order theta^2 and P' of order theta, which leave the normal float range
    below |theta| ~ 1e-154.  Where P or P'^2 of such a class is not a normal
    float (theta != 0), dP^2/P reads theta-scaled sums: with h = w theta/2,
    P = theta^2/4 sum|a| w^2 sinc^2(h) and P' = theta/2 sum|a| w^2 sinc(h)
    cos(h), so dP^2/P = (sum|a| w^2 sinc(h) cos(h))^2 / sum|a| w^2 sinc^2(h)."""
    classes, row_class = model._tables(state)
    term = []  # P = 0 adds 0
    for (base, floor, terms), p in zip(classes, model.probabilities(state, theta)):
        turn, floor_p = 0.0, floor / 2.0
        scaled, slope, height = floor == 0.0, 0.0, 0.0  # the sums hold while no a > 0
        for w, a in terms:
            turn += a * (w * math.sin(w * theta))
            half = w * theta / 2.0  # half of fl(w theta), the phase dP/dtheta reads
            edge = (math.cos if a > 0.0 else math.sin)(half)
            floor_p += abs(a) * edge * edge
            if a > 0.0:
                scaled = False
            elif scaled:
                sinc = edge / half if half else 1.0
                slope -= a * w * w * sinc * math.cos(half)
                height -= a * w * w * sinc * sinc
        pk, dk = (p if p >= base * 2.0**-10 else floor_p), -turn / 2.0
        if theta and scaled and min(pk, dk * dk) < sys.float_info.min:
            term.append(slope * slope / height if height > 0.0 else 0.0)
        else:
            term.append(dk * dk / pk if pk > 0.0 else 0.0)
    total = 0.0
    for c in row_class:
        total += term[c]
    return total


# -- Monte Carlo estimation ---------------------------------------------------


class EstimationRun(_Record):
    """Seeded Monte Carlo estimation record with its Cramer-Rao comparison."""

    model: str
    theta_true: float
    shots: int
    repetitions: int
    seed: int
    rng_algorithm: str
    estimates: list[float]
    empirical_std: float
    empirical_std_err: float
    crlb: float
    fisher_classical: float
    fisher_quantum: float
    bracket: tuple[float, float]


def _golden_section(f, lo: float, hi: float) -> tuple[float, float]:
    """Minimize a unimodal f on [lo, hi] until the bracket is below ``MLE_TOL``,
    or until a step no longer narrows it: at |theta| >= 2^26 adjacent floats
    lie more than ``MLE_TOL`` apart."""
    c, d = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    width = math.inf
    while MLE_TOL <= hi - lo < width:
        width = hi - lo
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
    counts: Sequence[int],
    bracket: tuple[float, float],
) -> float:
    """Bracketed maximum likelihood: coarse grid, refine, degeneracy check.

    The rows of one outcome class share a probability, so the negative log
    likelihood takes one logarithm per class with counts, each class's
    counts summed and read in the order of its first counted row.
    """
    _, row_class = model._tables(state)
    picks = {}  # class -> the counts of its rows
    for cls, n in zip(row_class, counts):
        if n:
            picks[cls] = picks.get(cls, 0) + int(n)

    def nll_at(t: float) -> float:
        p = model.probabilities(state, t)
        total = 0.0
        for cls, n in picks.items():
            pr = p[cls]
            total -= n * math.log(pr if pr > 1e-300 else 1e-300)
        return total

    lo, hi = bracket
    step = (hi - lo) / (GRID_POINTS - 1)
    grid = [lo + i * step for i in range(GRID_POINTS - 1)] + [hi]  # as numpy's linspace
    nll = [nll_at(t) for t in grid]
    best = nll.index(min(nll))
    candidates = {i for i in range(1, GRID_POINTS - 1)
                  if nll[i] <= nll[i - 1] and nll[i] <= nll[i + 1]} | {best}

    def refine(idx: int) -> tuple[float, float]:
        left = grid[max(idx - 1, 0)]
        right = grid[min(idx + 1, GRID_POINTS - 1)]
        return _golden_section(nll_at, left, right)

    refined = sorted((refine(idx) for idx in candidates), key=lambda p: p[1])
    theta_hat, nll_hat = refined[0]
    spacing = grid[1] - grid[0]
    # a second maximum at essentially the same likelihood level is ambiguous
    for t, v in refined[1:]:
        if abs(t - theta_hat) > 4 * spacing and v - nll_hat < 1e-6:
            raise LikelihoodDegeneracyError(
                f"maxima near theta = {theta_hat:.6g} and {t:.6g}, more than 4 grid "
                "steps apart, have negative log-likelihoods within 1e-6: a mirror of "
                "theta lies inside the bracket, or the likelihood is flat to float precision"
            )
    return theta_hat


def run_monte_carlo(
    state: SectorState,
    theta_true: float,
    model,
    shots: int,
    repetitions: int,
    seed: int,
    bracket_halfwidth: float | None = None,
) -> EstimationRun:
    """Repeatedly sample ``shots`` outcomes of ``model``, a measurement model
    from ``get_model``, and estimate theta by bracketed MLE.

    Each repetition draws from its own counter-based stream (seed, index), so
    results are bit-reproducible and order-independent.  The default bracket
    theta_true +- pi/(4 * w_max) stays within one monotone branch of the
    fastest sector's fringe; widen it only knowingly, since a symmetric
    likelihood develops mirror maxima (reported, never silently resolved).
    A bracket that is empty in floating point (zero or negative width, or
    one too narrow to change theta_true) would return theta_true itself as
    every estimate, so it is refused; so is one so wide that w_max * (|lo| +
    |hi|) overflows, as its width or a fringe phase w * theta would, and one
    whose ``GRID_POINTS``-point grid steps more than a quarter period
    pi/(2 w_max) of the fastest fringe, which the grid cannot resolve.  Also
    refused before any sampling: a bracket with 0 strictly inside, where the
    likelihood cannot tell theta' from its mirror -theta'; a state whose
    sectors all have weight 0, which U(theta) does not turn; and a
    measurement whose F_C at theta_true reads 0, named as without phase
    information only if no outcome has a fringe of nonzero weight.
    """
    shots, repetitions, seed = map(operator.index, (shots, repetitions, seed))
    if not 100 <= shots <= SHOTS_MAX:
        raise DomainError(f"need 100 <= shots <= 2^63 - 1, got {shots}")
    if repetitions < 1:
        raise DomainError("need at least one repetition")
    if seed < 0:
        raise DomainError(f"need a seed >= 0, got {seed}")
    w_max = max(abs(weight(state.n, rep)) for rep, _, _, _ in state.classes())
    if w_max == 0:
        raise DomainError("every populated sector has weight 0, so the state "
                          "carries no phase information")
    if bracket_halfwidth is None:
        bracket_halfwidth = math.pi / (4.0 * w_max)
    bracket = (theta_true - bracket_halfwidth, theta_true + bracket_halfwidth)
    if not -math.inf < bracket[0] < theta_true < bracket[1] < math.inf:
        raise DomainError(f"bracket {bracket} around theta = {theta_true} is "
                          "empty or unbounded; need a finite theta and halfwidth > 0")
    if w_max * (abs(bracket[0]) + abs(bracket[1])) == math.inf:
        raise DomainError(f"bracket {bracket} is too wide: its width or a fringe phase "
                          f"w * theta (w up to {w_max}) overflows a float")
    step = (bracket[1] - bracket[0]) / (GRID_POINTS - 1)
    if w_max * step > math.pi / 2:
        raise DomainError(f"bracket {bracket} is too wide: its {GRID_POINTS}-point grid "
                          f"steps {step:.6g}, more than a quarter period pi/(2 w) of the "
                          f"fastest fringe (w = {w_max})")
    if bracket[0] < 0 < bracket[1]:
        raise DomainError(f"bracket {bracket} straddles 0: the likelihood is mirror-"
                          "symmetric, so theta' and its mirror -theta' fit every count alike")
    fisher = classical_fisher(state, theta_true, model)
    classes, row_class = model._tables(state)
    if fisher <= 0.0:
        if any(a and w for _, _, terms in classes for w, a in terms):  # a turning fringe
            raise DomainError(f"the classical Fisher information at theta = {theta_true} is "
                              "0 in floating point: a stationary point of the outcome "
                              "probabilities, or underflow near theta = 0")
        raise DomainError(
            f"measurement carries no phase information at theta = {theta_true}"
        )

    per_class = model.probabilities(state, theta_true)
    probs = [per_class[c] for c in row_class]  # laid out over the outcomes
    if min(probs) < -1e-12 or abs(_pairwise_sum(probs) - 1.0) > 1e-9:
        raise DomainError("model probabilities are not a distribution")
    probs = [max(p, 0.0) for p in probs]
    total = _pairwise_sum(probs)
    pvals = [p / total for p in probs]

    estimates = [_mle(state, model, _rng(seed, rep).multinomial(shots, pvals), bracket)
                 for rep in range(repetitions)]
    empirical_std = math.sqrt(
        _pairwise_sum([(e - theta_true) * (e - theta_true) for e in estimates]) / repetitions)
    return EstimationRun(
        model=model.name,
        theta_true=float(theta_true),
        shots=shots,
        repetitions=repetitions,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        estimates=estimates,
        empirical_std=empirical_std,
        empirical_std_err=empirical_std / math.sqrt(2.0 * repetitions),
        crlb=1.0 / math.sqrt(shots * fisher),
        fisher_classical=fisher,
        fisher_quantum=float(qfi_ghz_diagonal(state)),
        bracket=bracket,
    )
