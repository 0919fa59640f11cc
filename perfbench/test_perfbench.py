"""Self-tests of the benchmark's inputs, oracles and statistics.

Run: python3 -m pytest perfbench
"""
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ghzmetro  # noqa: E402
import ghzmetro.cli  # noqa: E402
from checks import check_bell, check_estimate, check_qfi, estimate_oracle, parse_ppt  # noqa: E402,E501
from oracles import (  # noqa: E402
    classical_fisher,
    exact_qfi,
    family_classes,
    parseval_hs,
    tail_percentile,
)
from tracing import Tracer  # noqa: E402
from workloads import CliRequest, family_exact_round, monte_carlo_round  # noqa: E402


@pytest.mark.parametrize("make", [family_exact_round, monte_carlo_round])
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def _random_state(rng, n):
    """A random GHZ-diagonal state, half of them sparse, with its classes and unit.

    Each sector is its own class ``(popcount, 1, plus, minus)``.
    """
    sparse = rng.random() < 0.5
    plus, minus = ([rng.choice((0, 0, 0, rng.randint(1, 50))) if sparse else rng.randint(1, 50)
                    for _ in range(1 << (n - 1))] for _ in range(2))
    plus[0] += 1  # never all zero
    unit = Fraction(1, sum(plus) + sum(minus))
    state = ghzmetro.GhzDiagonalState(n, {i: p * unit for i, p in enumerate(plus)},
                                      {i: q * unit for i, q in enumerate(minus)})
    classes = [(i.bit_count(), 1, p, q) for i, (p, q) in enumerate(zip(plus, minus))]
    return state, classes, unit


def test_parseval_matches_exact_scan_on_random_states():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(2, 7)
        state, classes, unit = _random_state(rng, n)
        assert parseval_hs(n, classes, unit) == ghzmetro.hs_norm_sq_exact(state)
        assert exact_qfi(n, classes, unit) == ghzmetro.qfi_ghz_diagonal(state)


@pytest.mark.parametrize("model", ["global-parity", "sector-parity"])
def test_classical_fisher_closed_form_matches_library(model):
    for n, k, m in [(4, 1, 1), (5, 2, 0), (6, 2, 1), (7, 3, 0), (8, 2, 0)]:
        state = ghzmetro.build_rho_nkm(n, k, m) if m else ghzmetro.build_rho_nk(n, k)
        classes, unit = family_classes(n, k, m)
        for f in (0.7, 0.95, 1.2):
            theta = f * 1.5707963267948966 / n
            expected = ghzmetro.classical_fisher(state, theta, ghzmetro.get_model(model))
            got = classical_fisher(n, classes, unit, theta, model)
            assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n,k,m", [(4, 2, 0), (6, 2, 1), (7, 2, 0), (8, 2, 0),
                                   (8, 1, 3), (9, 3, 1), (10, 3, 0), (10, 5, 0)])
def test_family_oracles_match_library(n, k, m):
    state = ghzmetro.build_rho_nkm(n, k, m) if m else ghzmetro.build_rho_nk(n, k)
    classes, unit = family_classes(n, k, m)
    assert parseval_hs(n, classes, unit) == ghzmetro.hs_norm_sq_exact(state)
    assert exact_qfi(n, classes, unit) == ghzmetro.qfi_ghz_diagonal(state)


def test_tail_keeps_ten_samples_beyond_its_percentile():
    rng = random.Random(1)
    for n in range(11, 400):
        samples = [rng.random() for _ in range(n)]
        value, pct = tail_percentile(samples)
        ordered = sorted(samples)
        rank = ordered.index(value) + 1
        assert n - rank >= 10
        assert rank >= pct * n / 100  # nearest rank: at or above the percentile
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 10)


def test_checks_flag_wrong_outputs():
    bell = CliRequest("bell", ("bell", "--n", "8", "--k", "2"))
    classes, unit = family_classes(8, 2)
    oracle = {"n": 8, "hs": parseval_hs(8, classes, unit), "f_q": exact_qfi(8, classes, unit)}
    row = ghzmetro.detection_comparison(ghzmetro.build_rho_nk(8, 2))
    good = (f"# header\nn,k,f_q,f_q_over_n,hs_norm_sq,verdict\n8,2,"
            f"{float(row.f_q)!r},{float(row.f_q_over_n)!r},{row.hs_norm_sq!r},{row.verdict}\n")
    assert check_bell(bell, good, oracle) is None
    bad = good.replace(repr(row.hs_norm_sq), repr(row.hs_norm_sq * (1 + 1e-6)))
    assert check_bell(bell, bad, oracle)[0] == "bell"

    qfi = CliRequest("qfi", ("qfi", "--n", "7", "--k", "2", "--exact"))
    assert check_qfi(qfi, "# h\n224/29\n", {"exact": Fraction(224, 29)}) is None
    assert check_qfi(qfi, "# h\n225/29\n", {"exact": Fraction(224, 29)})[0] == "qfi"


def test_estimate_check_flags_wrong_fisher_and_estimates(capsys):
    (req,) = [r for r in monte_carlo_round(3) if r.argv[2] == "4" and "global-parity" in r.argv]
    assert ghzmetro.cli.main(list(req.argv)) == 0
    good = capsys.readouterr().out
    oracle = estimate_oracle(ghzmetro, req)
    assert check_estimate(req, good, oracle) is None
    payload = json.loads(good)
    run = payload["run"]
    for key, value in (("fisher_classical", 2 * run["fisher_classical"]),
                       ("crlb", run["crlb"] / 2),
                       ("estimates", [run["estimates"][0] + 20 * run["crlb"]])):
        bad = dict(payload, run=dict(run, **{key: value}))
        assert check_estimate(req, json.dumps(bad), oracle)[0] == "estimation", key


def test_ppt_text_parsing():
    req = CliRequest("ppt", ("ppt", "--n", "6", "--k", "2"))
    text = ("# tool: ghzmetro\nrho_6,2: single-qubit PPT certificate: holds\n"
            "cut 1: PPT\ncut 2: NPPT (witness mask 0b000011 = qubits (5, 6))\n")
    assert parse_ppt(req, text) == (True, None, None, [(1, "PPT", None), (2, "NPPT", 3)])


def test_tracer_self_time_and_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("bell", "detection_comparison"):  # 0 .. 5
        with tracer.span("qfi", "qfi_ghz_diagonal"):  # 1 .. 2
            pass
        with tracer.span("bell", "hs_norm_sq"):  # 3 .. 4
            pass
    assert tracer.self_times() == {"bell": 4, "qfi": 1}
    assert tracer.calls() == {"bell": 1, "qfi": 1}


def test_counting_model_counts_probability_evaluations():
    tracer = Tracer()
    run = tracer.wrap("estimation", ghzmetro.run_monte_carlo)
    out = run(ghzmetro.build_rho_nk(4, 1), theta_true=0.3, model="global-parity",
              shots=1000, repetitions=2, seed=3)
    assert len(out.estimates) == 2
    assert tracer.counts["estimation.reps"] == 2
    assert tracer.counts["estimation.prob_evals"] > 2 * 512  # the grid alone is 512
