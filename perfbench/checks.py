"""Per-request output checks, run after the timed region.

Each ``check_*`` function returns ``None`` when the output agrees with its
oracle, or ``(layer, reason)`` naming the layer whose value disagreed.
Oracles are computed once per distinct request and cached by the caller.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from oracles import (
    certificate_violation,
    classical_fisher,
    close,
    cut_is_ppt,
    exact_qfi,
    expand_family,
    family_classes,
    parseval_hs,
    pt_min,
)

Mismatch = Optional[Tuple[str, str]]

DENSE_MAX_N = 10  # dense oracles build 2^n x 2^n matrices
EXHAUSTIVE_MAX_N = 12  # cut_classification inspects every subset up to here


def _body_lines(stdout: str) -> List[str]:
    return [line for line in stdout.splitlines() if line and not line.startswith("#")]


def _family(req):
    n, k, m = req.int_option("--n"), req.int_option("--k"), req.int_option("--m") or 0
    classes, unit = family_classes(n, k, m)
    return n, k, m, classes, unit


def _family_state(lib, n: int, k: int, m: int):
    return lib.build_rho_nkm(n, k, m) if m else lib.build_rho_nk(n, k)


def _dense_pt_min(lib, state, mask: int) -> float:
    subset = lib.QubitSubset(state.n, mask)
    return float(np.linalg.eigvalsh(lib.pt_dense_oracle(state, subset)).min())


# -- family-exact CLI requests ----------------------------------------------------


def qfi_oracle(lib, req) -> dict:
    n, k, m, classes, unit = _family(req)
    oracle = {"exact": exact_qfi(n, classes, unit)}
    if not m:
        oracle["closed"] = lib.qfi_closed_nk(n, k)
    if n <= DENSE_MAX_N:
        state = _family_state(lib, n, k, m)
        oracle["dense"] = lib.qfi_from_dense(lib.to_dense(state), lib.PhaseGenerator(n))
    return oracle


def check_qfi(req, stdout: str, oracle: dict) -> Mismatch:
    if req.option("--format") == "json":
        printed = Fraction(json.loads(stdout)["report"]["f_q"]["exact"])
    else:
        text = _body_lines(stdout)[0]
        printed = Fraction(text) if "--exact" in req.argv else float(text)
    for route, value in oracle.items():
        if route == "dense":
            ok = close(float(printed), value, 1e-9, 1e-9)
        elif isinstance(printed, Fraction):
            ok = printed == value
        else:
            ok = close(printed, float(value), 1e-15)
        if not ok:
            return "qfi", f"f_q {printed} != {route} oracle {value}"
    return None


_CUT_LINE = re.compile(r"cut (\d+): (PPT|NPPT)(?: \(witness mask (0b[01]+))?")
_WITNESS_LINE = re.compile(r"witness: j = (\d+), i = (\d+)")


def parse_ppt(req, stdout: str):
    """(holds, witness_j, witness_i, [(size, status, mask)]) from json or text."""
    if req.option("--format") == "json":
        payload = json.loads(stdout)
        cert = payload["single_qubit_certificate"]
        cuts = [(c["cut_size"], c["status"], c["witness_mask"]) for c in payload["cuts"]]
        return cert["holds"], cert["witness_j"], cert["witness_i"], cuts
    lines = _body_lines(stdout)
    holds = lines[0].endswith("holds")
    j = i = None
    cuts = []
    for line in lines[1:]:
        w = _WITNESS_LINE.search(line)
        if w:
            j, i = int(w.group(1)), int(w.group(2))
        c = _CUT_LINE.match(line)
        if c:
            cuts.append((int(c.group(1)), c.group(2),
                         int(c.group(3), 2) if c.group(3) else None))
    return holds, j, i, cuts


def ppt_oracle(lib, req) -> dict:
    n, k, m, classes, _ = _family(req)
    plus, minus = expand_family(n, classes)
    return {"n": n, "plus": plus, "minus": minus,
            "state": _family_state(lib, n, k, m) if n <= DENSE_MAX_N else None,
            "verified": {}}


def check_ppt(lib, req, stdout: str, oracle: dict) -> Mismatch:
    """Certificate and cut-table checks of one ``ppt`` output.

    ``oracle["verified"]`` caches row verdicts already proven for this input.
    Above ``EXHAUSTIVE_MAX_N`` the CLI samples subsets, so a PPT row there is
    not a proof and is not checked against every subset.
    """
    n, plus, minus, state = oracle["n"], oracle["plus"], oracle["minus"], oracle["state"]
    holds, j, i, cuts = parse_ppt(req, stdout)
    requested = req.option("--cuts") or "all"
    sizes = (list(range(1, n // 2 + 1)) if requested == "all"
             else [int(part) for part in requested.split(",")])
    expected_holds = all(pt_min(n, plus, minus, 1 << q) >= 0 for q in range(n))
    if holds != expected_holds:
        return "ptranspose", f"certificate says {holds}, transposed spectra say {expected_holds}"
    if not holds and not certificate_violation(n, plus, minus, j, i):
        return "ptranspose", f"certificate witness ({j}, {i}) does not violate it"
    if [c[0] for c in cuts] != sizes:
        return "ptranspose", f"cut sizes {[c[0] for c in cuts]} != {sizes}"
    for size, status, mask in cuts:
        if size == 1 and (status == "PPT") != holds:
            return "ptranspose", "single-qubit cut disagrees with the certificate"
        key = (size, status, mask)
        if key in oracle["verified"]:
            continue
        if status == "NPPT":
            if mask is None or mask.bit_count() != size:
                return "ptranspose", f"cut {size}: witness mask {mask} has the wrong size"
            if pt_min(n, plus, minus, mask) >= 0:
                return "ptranspose", f"cut {size}: witness {mask:#b} is PPT"
            if state is not None and _dense_pt_min(lib, state, mask) >= -1e-12:
                return "ptranspose", f"cut {size}: dense oracle finds {mask:#b} PPT"
        elif n <= EXHAUSTIVE_MAX_N and not cut_is_ppt(n, plus, minus, size):
            return "ptranspose", f"cut {size}: reported PPT but a subset is NPPT"
        oracle["verified"][key] = True
    return None


_VERDICTS = {(True, False): "QFI-only detection", (True, True): "both",
             (False, True): "Bell-only", (False, False): "neither"}


def bell_oracle(lib, req) -> dict:
    n, _, _, classes, unit = _family(req)
    return {"n": n, "hs": parseval_hs(n, classes, unit), "f_q": exact_qfi(n, classes, unit)}


def check_bell(req, stdout: str, oracle: dict) -> Mismatch:
    if req.option("--format") == "json":
        row = json.loads(stdout)["row"]
    else:
        header, values = (line.split(",") for line in _body_lines(stdout)[:2])
        row = dict(zip(header, values))
    hs, f_q, n = float(row["hs_norm_sq"]), oracle["f_q"], oracle["n"]
    if not close(hs, float(oracle["hs"]), 1e-9):
        return "bell", f"hs_norm_sq {hs} != Parseval {float(oracle['hs'])}"
    if not close(float(row["f_q"]), float(f_q), 1e-15):
        return "qfi", f"f_q {row['f_q']} != {float(f_q)}"
    if abs(oracle["hs"] - 1) > Fraction(1, 10**9):
        expected = _VERDICTS[(f_q > n, oracle["hs"] >= 1)]
        if row["verdict"] != expected:
            return "bell", f"verdict {row['verdict']!r} != {expected!r}"
    return None


# -- Monte Carlo CLI requests ------------------------------------------------------


def estimate_oracle(lib, req) -> dict:
    n, _, _, classes, unit = _family(req)
    theta = float(req.option("--theta"))
    w_max = max(abs(n - 2 * c) for c, _, p, q in classes if p + q)
    return {"f_q": exact_qfi(n, classes, unit),
            "f_c": classical_fisher(n, classes, unit, theta, req.option("--model")),
            "bracket": (theta - math.pi / (4 * w_max), theta + math.pi / (4 * w_max))}


# An estimate further than this many Cramer-Rao deviations from theta counts
# as wrong; with 10,000 shots a correct MLE lands there with odds below 1e-20.
ESTIMATE_DEVIATIONS = 10


def check_estimate(req, stdout: str, oracle: dict) -> Mismatch:
    run = json.loads(stdout)["run"]
    reps, shots = req.int_option("--reps"), req.int_option("--shots")
    theta = float(req.option("--theta"))
    if (run["repetitions"], run["shots"], run["model"]) != (reps, shots, req.option("--model")):
        return "estimation", "repetitions, shots or model not echoed"
    if not all(close(a, b, 1e-12) for a, b in zip(run["bracket"], oracle["bracket"])):
        return "estimation", f"bracket {run['bracket']} != theta +- pi/(4 w_max)"
    fisher, f_q = run["fisher_classical"], float(oracle["f_q"])
    if not close(run["fisher_quantum"], f_q, 1e-12):
        return "qfi", f"fisher_quantum {run['fisher_quantum']} != {f_q}"
    if not (close(fisher, oracle["f_c"], 1e-9) and fisher <= f_q * (1 + 1e-9)):
        return "estimation", (f"fisher_classical {fisher} != closed form {oracle['f_c']}"
                              f" or above F_Q = {f_q}")
    crlb = 1.0 / math.sqrt(shots * oracle["f_c"])
    if not close(run["crlb"], crlb, 1e-9):
        return "estimation", f"crlb {run['crlb']} != 1/sqrt(shots * F_C) = {crlb}"
    if len(run["estimates"]) != reps:
        return "estimation", f"{len(run['estimates'])} estimates for {reps} repetitions"
    lo, hi = oracle["bracket"]
    for e in run["estimates"]:
        if not lo <= e <= hi or abs(e - theta) > ESTIMATE_DEVIATIONS * crlb:
            return "estimation", f"estimate {e} is more than {ESTIMATE_DEVIATIONS} crlb from {theta}"
    return None
