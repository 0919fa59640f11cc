"""Shared strategies and helpers for the test suite."""
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from ghzmetro import GhzDiagonalState, PhaseGenerator, QubitSubset, pt_spectrum, to_dense
from ghzmetro.bell import axial_expectation
from ghzmetro.oracles import AXIS_Y, AXIS_Z


def random_state_strategy(min_n=2, max_n=5):
    """Random exact GHZ-diagonal states: integer weights, normalized exactly."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_n, max_n))
        reps = 1 << (n - 1)
        weights = draw(
            st.lists(
                st.integers(0, 9), min_size=2 * reps, max_size=2 * reps
            ).filter(lambda ws: sum(ws) > 0)
        )
        total = sum(weights)
        lp = {i: Fraction(weights[2 * i], total) for i in range(reps)}
        lm = {i: Fraction(weights[2 * i + 1], total) for i in range(reps)}
        return GhzDiagonalState(n, lp, lm)

    return build()


def lambda_rows(state):
    """Rows ``(i, lambda_i^+, lambda_i^-)`` of the populated sectors, from the
    integer rows ``(i, s, d)`` of ``sectors()``: lambda^+- = (s +- d) / (2 den)."""
    half = 2 * state.den
    return [(i, Fraction(s + d, half), Fraction(s - d, half)) for i, s, d in state.sectors()]


def as_sparse(state):
    """The same state as a sparse ``GhzDiagonalState``, sector by sector."""
    rows = lambda_rows(state)
    return GhzDiagonalState(state.n, {i: lp for i, lp, _ in rows},
                            {i: lm for i, _, lm in rows})


def family_members(n_max, n_min=2):
    """Every (n, k, m) family member with n_min <= n <= n_max."""
    for n in range(n_min, n_max + 1):
        for k in range(1, n // 2 + 1):
            for m in range(0, n // 2 - k + 1):
                yield n, k, m


def first_nppt_mask(state, m):
    """Exhaustive oracle: first violating size-m mask in ``combinations`` order."""
    for pos in combinations(range(state.n), m):
        mask = sum(1 << p for p in pos)
        if min(pt_spectrum(state, QubitSubset(state.n, mask))) < 0:
            return mask
    return None


def family_grid(n_max):
    """All (n, k) family parameters up to n_max."""
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            yield n, k


def structure_rule(state, axes):
    """One full correlation, exactly, by the structure rules in ``ghzmetro.bell``."""
    if AXIS_Z in axes:
        return axial_expectation(state) if set(axes) == {AXIS_Z} else Fraction(0)
    y_mask = sum(1 << (state.n - 1 - pos) for pos, a in enumerate(axes) if a == AXIS_Y)
    y = y_mask.bit_count()
    if y & 1:
        return Fraction(0)
    total = Fraction(sum(-d if (y_mask & i).bit_count() & 1 else d
                         for i, _, d in state.sectors()), state.den)
    return -total if (y // 2) & 1 else total


def ghz_vector(n, i, sign):
    """Unit vector (|i> + sign * |i_bar>)/sqrt(2) in the computational basis."""
    v = np.zeros(1 << n)
    v[i] = 1 / np.sqrt(2)
    v[(1 << n) - 1 - i] = sign / np.sqrt(2)
    return v


def evolve_dense(state, theta):
    """Dense oracle of exp(-i theta Z) rho exp(i theta Z), by plain conjugation."""
    u = np.exp(-1j * theta * PhaseGenerator(state.n).diagonal())
    return u[:, None] * to_dense(state) * u.conj()[None, :]
