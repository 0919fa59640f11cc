"""Seeded inputs for the two benchmark workloads.

Every generator takes the benchmark seed and returns CLI argument lists;
the same seed always gives the same inputs.  Each workload is a fixed *round* of request
slots.  The seed picks parameters inside each slot, and each slot's range is
chosen so that its cost class stays the same from seed to seed.  The
benchmark repeats the round, so medians and rates come from the same mix on
every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class CliRequest:
    """One CLI invocation: its kind (``qfi``/``ppt``/``bell``/``estimate``) and argv."""

    kind: str
    argv: Tuple[str, ...]

    def option(self, name: str) -> Optional[str]:
        argv = list(self.argv)
        if name in argv:
            return argv[argv.index(name) + 1]
        return None

    def int_option(self, name: str) -> Optional[int]:
        value = self.option(name)
        return None if value is None else int(value)


def family_exact_round(seed: int) -> List[CliRequest]:
    """qfi, ppt and bell requests on family members.

    ``k`` stays below ``n // 2`` for every ``ppt`` request. At ``k = n // 2``
    the member is PPT across every cut, so the exhaustive scan inspects every
    subset. That takes 9 s at n = 10 and 127 s at n = 12, and one such request
    would take over the run.  ``ppt --n 14 --k 3`` and ``bell --n 16 --k 4``
    (4.5 s and 3.8 s) are timed as reference rows instead of in every round.
    """
    rng = random.Random(f"family-exact:{seed}")
    reqs: List[CliRequest] = []

    def add(kind: str, *argv) -> None:
        reqs.append(CliRequest(kind, (kind,) + tuple(str(a) for a in argv)))

    # Per round: four light qfi requests (about 0.7 s on the reference
    # machine, nearly all interpreter start and imports), four mid-cost ones
    # (0.8-0.9 s), bell at n = 15 (about 1.1 s) and two heavy ppt requests
    # (1.2-3 s).  Over three rounds the median (17th slowest of 33) falls
    # inside the mid block, and the tail (11th slowest) falls at its top,
    # next to the bell n = 15 slot rather than next to a large cost step.
    add("qfi", "--n", 7, "--k", 2)  # ROADMAP reference command
    for fmt in (("--exact",), ("--format", "json")):
        n = rng.randint(8, 20)
        add("qfi", "--n", n, "--k", rng.randint(1, n // 2), *fmt)
    n = rng.randint(6, 10)
    k = rng.randint(1, n // 2 - 1)
    add("qfi", "--n", n, "--k", k, "--m", rng.randint(1, n // 2 - k), "--exact")

    n = rng.randint(8, 10)
    add("ppt", "--n", n, "--k", rng.randint(1, n // 2 - 1), "--cuts", "1,2")
    add("ppt", "--n", 10, "--k", rng.randint(1, 4), "--cuts", "all", "--format", "json")
    add("ppt", "--n", 12, "--k", rng.randint(1, 5), "--cuts", "all", "--format", "json")
    add("ppt", "--n", 13, "--k", rng.randint(3, 5))  # fixed-seed sampled path

    add("bell", "--n", 12, "--k", rng.randint(1, 3))
    add("bell", "--n", 14, "--k", rng.randint(2, 3), "--format", "json")
    add("bell", "--n", 15, "--k", rng.randint(1, 2))

    rng.shuffle(reqs)
    return [CliRequest(r.kind, r.argv + ("--no-timestamp",)) for r in reqs]


# (n, k, m, model) per slot.  The likelihood's cost depends on n and on the
# support that k and m give; theta and the Monte Carlo seed change the number
# of probability evaluations by under 2 %.  So the slots are fixed, and the
# seed draws only theta and the stream seeds.  Cost grows with n, with a clear
# step from n = 6 to n = 7.  Over three rounds the tail (11th slowest of 33)
# is the middle sample of the three n = 7 slots, and the median (17th
# slowest) falls among the three n = 6 slots.
MC_SLOTS = (
    (4, 1, 1, "global-parity"), (4, 2, 0, "sector-parity"), (5, 2, 0, "global-parity"),
    (6, 2, 0, "global-parity"), (6, 2, 0, "sector-parity"), (6, 2, 1, "global-parity"),
    (7, 3, 0, "global-parity"), (7, 2, 1, "sector-parity"), (7, 2, 0, "sector-parity"),
    (8, 2, 0, "global-parity"), (8, 3, 0, "sector-parity"),
)


def monte_carlo_round(seed: int, reps: int = 1, shots: int = 10000) -> List[CliRequest]:
    """``estimate`` requests on ``MC_SLOTS``, with seeded theta and stream seeds.

    Both likelihoods are even in theta, with mirror maxima at +-theta.  The
    default bracket is theta +- pi/(4n), so it excludes the mirror only when
    ``n * theta > pi/4``, and it stays below the fastest fringe's next
    symmetry point only while ``n * theta < 3 pi/4``.  theta therefore puts
    ``n * theta`` between 0.7 and 1.2 of pi/2.
    """
    rng = random.Random(f"monte-carlo:{seed}")
    reqs: List[CliRequest] = []
    for n, k, m, model in MC_SLOTS:
        argv = ["estimate", "--n", str(n), "--k", str(k)]
        if m:
            argv += ["--m", str(m)]
        theta = rng.uniform(0.7, 1.2) * 1.5707963267948966 / n
        argv += [
            "--theta", repr(round(theta, 6)),
            "--shots", str(shots),
            "--reps", str(reps),
            "--seed", str(rng.randrange(1 << 31)),
            "--model", model,
            "--no-timestamp",
        ]
        reqs.append(CliRequest("estimate", tuple(argv)))
    rng.shuffle(reqs)
    return reqs
