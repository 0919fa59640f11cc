"""Shared strategies and helpers for the test suite."""
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from ghzmetro import GhzDiagonalState, PhaseGenerator, to_dense


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


def family_grid(n_max, strict=False):
    """All (n, k) family parameters up to n_max; strict drops the 2k == n edge."""
    for n in range(2, n_max + 1):
        top = (n - 1) // 2 if strict else n // 2
        for k in range(1, top + 1):
            yield n, k


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
