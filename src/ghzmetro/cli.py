"""Command-line front end: scans, figure data, certificates, machine output.

Subcommands mirror the library modules (state / qfi / ppt / bell / estimate)
plus ``figure`` for regenerating the scan CSVs.  Every run emits a
provenance header (tool version, command line, seed, timestamp unless
``--no-timestamp``); identical command plus seed gives byte-identical
output.  Exit codes: 0 success, 2 domain error, 3 size-limit error,
4 internal cross-check failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import CrossCheckError, DomainError, GhzmetroError, SizeLimitError
from . import bell as bell_mod
from . import estimation as est_mod
from .ptranspose import (
    QubitSubset,
    cut_classification,
    ppt_single_qubit_certificate,
    pt_dense_oracle,
    pt_spectrum,
)
from .qfi import (
    PhaseGenerator,
    family_report,
    qfi_from_dense,
    scaled_k,
)
from .states import (
    GhzDiagonalState,
    build_rho_nk,
    build_rho_nkm,
    check_build_size,
    dense_limit,
    min_ones,
    to_dense,
)

ORACLE_TOL = 1e-9


# -- small parsing / formatting helpers --------------------------------------


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse {text!r} as a rational") from exc


def parse_fraction_list(text: str) -> List[Fraction]:
    return [parse_fraction(part) for part in text.split(",") if part]

def parse_int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def parse_range(text: str) -> List[int]:
    """Accept "8..120", a comma list "4,6,8", or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return parse_int_list(text)


def fmt_number(x, exact: bool) -> str:
    if isinstance(x, Fraction) and exact:
        return str(x)
    return format(float(x), ".17g")


def provenance(args: argparse.Namespace, argv: Sequence[str]) -> dict:
    meta = {
        "tool": f"ghzmetro {__version__}",
        "command": "ghzmetro " + " ".join(argv),
    }
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    if not args.no_timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def csv_text(meta: dict, header: List[str], rows: List[List[str]]) -> str:
    buf = io.StringIO()
    buf.write("# " + " | ".join(f"{k}: {v}" for k, v in meta.items()) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_state(args: argparse.Namespace) -> GhzDiagonalState:
    m = getattr(args, "m", None)
    if m:
        return build_rho_nkm(args.n, args.k, m)
    return build_rho_nk(args.n, args.k)


def state_label(args: argparse.Namespace) -> str:
    m = getattr(args, "m", None)
    if m:
        return f"rho_{args.n},{args.k},{m}"
    return f"rho_{args.n},{args.k}"


# -- subcommands ---------------------------------------------------------------


def cmd_state(args, argv) -> int:
    state = build_state(args)
    meta = provenance(args, argv)
    pure = sum(
        1 for i in state.support() if state.sector_diff(i) == state.sector_sum(i)
    )
    mixed = sum(1 for i in state.support() if state.sector_diff(i) == 0)
    summary = {
        "trace": str(state.trace()),
        "sectors_total": 1 << (state.n - 1),
        "sectors_populated": sum(1 for _ in state.support()),
        "sectors_pure_even": pure,
        "sectors_balanced": mixed,
    }
    if args.format == "json":
        emit(json_text({"meta": meta, "state": state.to_json_dict(),
                        "summary": summary}), args.output)
        return 0
    lines = ["# " + " | ".join(f"{k}: {v}" for k, v in meta.items())]
    lines.append(f"{state_label(args)} on {state.n} qubits")
    lines.append(f"normalization: {state.trace()} (exact)")
    lines.append(
        "sectors: {sectors_populated}/{sectors_total} populated, "
        "{sectors_pure_even} pure-even, {sectors_balanced} balanced".format(**summary)
    )
    lines.append(f"{'i':>6}  {'bits':>{state.n}}  band  lambda+    lambda-")
    for i in state.support():
        lines.append(
            f"{i:>6}  {i:0{state.n}b}  {min_ones(state.n, i):>4}  "
            f"{str(state.lam_plus(i)):<9}  {str(state.lam_minus(i)):<9}"
        )
    emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_qfi(args, argv) -> int:
    if args.a is not None:
        a = parse_fraction(args.a)
        k = scaled_k(a, args.n)
        report = family_report(args.n, k, a=a)
    else:
        if args.k is None:
            raise DomainError("qfi needs --k or --a")
        report = family_report(args.n, args.k, m=args.m)
    meta = provenance(args, argv)
    deviation = None
    if args.oracle:
        state = build_state(argparse.Namespace(n=report.n, k=report.k, m=report.m))
        spectral = qfi_from_dense(to_dense(state), PhaseGenerator(state.n))
        deviation = abs(spectral - float(report.f_q))
        if deviation > ORACLE_TOL:
            raise CrossCheckError(
                f"spectral oracle deviates by {deviation} from exact QFI"
            )
    if args.format == "json":
        payload = {"meta": meta, "report": report.to_json_dict()}
        if deviation is not None:
            payload["oracle_max_deviation"] = deviation
        emit(json_text(payload), args.output)
        return 0
    lines = ["# " + " | ".join(f"{k}: {v}" for k, v in meta.items())]
    lines.append(fmt_number(report.f_q, args.exact))
    lines.append(f"f_q/n = {fmt_number(report.snl_ratio, args.exact)}")
    lines.append(f"lower_bound = {fmt_number(report.lower_bound, args.exact)}")
    if report.mixed_lower_bound is not None:
        lines.append(
            f"mixed_lower_bound = {fmt_number(report.mixed_lower_bound, args.exact)}"
        )
    lines.append(f"s_nk = {fmt_number(report.s_nk, args.exact)}")
    if report.a is not None:
        lines.append(f"k = {report.k} (from a = {report.a})")
        lines.append(
            f"ratio_limit_form = {fmt_number(report.ratio_limit_form, args.exact)}"
        )
        lines.append(
            f"ratio_bound_form = {fmt_number(report.ratio_bound_form, args.exact)}"
        )
    if deviation is not None:
        lines.append(f"oracle max deviation = {deviation:.3e}")
    emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_ppt(args, argv) -> int:
    state = build_state(args)
    meta = provenance(args, argv)
    cert = ppt_single_qubit_certificate(state, verify=args.oracle)
    sizes = None if args.cuts == "all" else parse_int_list(args.cuts)
    table = cut_classification(state, cut_sizes=sizes)
    deviation = None
    if args.oracle:
        deviation = 0.0
        if state.n <= dense_limit():
            for row in table:
                mask = row.witness_mask if row.witness_mask is not None else (
                    (1 << row.cut_size) - 1
                )
                subset = QubitSubset(state.n, mask)
                exact = [float(v) for v in pt_spectrum(state, subset).eigenvalues()]
                dense = sorted(np.linalg.eigvalsh(pt_dense_oracle(state, subset)))
                deviation = max(
                    deviation, max(abs(a - b) for a, b in zip(exact, dense))
                )
            if deviation > ORACLE_TOL:
                raise CrossCheckError(
                    f"dense transposition oracle deviates by {deviation}"
                )
    if args.format == "json":
        payload = {
            "meta": meta,
            "single_qubit_certificate": {
                "holds": cert.holds,
                "witness_j": cert.witness_j,
                "witness_i": cert.witness_i,
            },
            "cuts": [row.to_json_dict() for row in table],
        }
        if deviation is not None:
            payload["oracle_max_deviation"] = deviation
        emit(json_text(payload), args.output)
        return 0
    lines = ["# " + " | ".join(f"{k}: {v}" for k, v in meta.items())]
    lines.append(f"{state_label(args)}: single-qubit PPT certificate: "
                 f"{'holds' if cert.holds else 'fails'}")
    if not cert.holds:
        lines.append(f"  witness: j = {cert.witness_j}, i = {cert.witness_i}")
    for row in table:
        if row.status == "PPT":
            lines.append(f"cut {row.cut_size}: PPT")
        else:
            qubits = QubitSubset(state.n, row.witness_mask).qubits
            lines.append(
                f"cut {row.cut_size}: NPPT (witness mask {row.witness_mask:#06b}"
                f" = qubits {qubits})"
            )
    if deviation is not None:
        lines.append(f"oracle max deviation = {deviation:.3e}")
    emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_bell(args, argv) -> int:
    state = build_state(args)
    meta = provenance(args, argv)
    row = bell_mod.detection_comparison(state)
    deviation = None
    if args.oracle:
        if state.n <= bell_mod.BRUTE_CAP:
            brute = bell_mod.brute_force_tensor(state)
            fast = bell_mod.correlation_summary(state)
            keys = set(brute.nonzero_elements) | set(fast.nonzero_elements)
            deviation = max(
                (
                    abs(brute.nonzero_elements.get(k, 0.0)
                        - fast.nonzero_elements.get(k, 0.0))
                    for k in keys
                ),
                default=0.0,
            )
            deviation = max(deviation, abs(brute.hs_norm_sq - row.hs_norm_sq))
        else:
            deviation = abs(float(bell_mod.hs_norm_sq_exact(state)) - row.hs_norm_sq)
        if deviation > ORACLE_TOL:
            raise CrossCheckError(f"correlation oracle deviates by {deviation}")
    header = ["n", "k", "f_q", "f_q_over_n", "hs_norm_sq", "verdict"]
    values = [
        str(args.n),
        str(args.k),
        fmt_number(row.f_q, args.exact),
        fmt_number(row.f_q_over_n, args.exact),
        format(row.hs_norm_sq, ".17g"),
        row.verdict,
    ]
    if args.components:
        planar = bell_mod.planar_square_sum(state)
        axial = bell_mod.axial_expectation(state)
        header += ["planar_sq", "axial_sq"]
        values += [format(float(planar), ".17g"), format(float(axial * axial), ".17g")]
    if args.format == "json":
        payload = {"meta": meta, "row": dict(zip(header, values))}
        if deviation is not None:
            payload["oracle_max_deviation"] = deviation
        emit(json_text(payload), args.output)
        return 0
    emit(csv_text(meta, header, [values]), args.output)
    return 0


def cmd_estimate(args, argv) -> int:
    state = build_state(args)
    run = est_mod.run_monte_carlo(
        state,
        theta_true=args.theta,
        model=args.model,
        shots=args.shots,
        repetitions=args.reps,
        seed=args.seed,
        bracket_halfwidth=args.bracket,
        state_params={"n": args.n, "k": args.k, "m": args.m},
    )
    payload = {"meta": provenance(args, argv), "run": run.to_json_dict()}
    emit(json_text(payload), args.output)
    return 0


def cmd_figure(args, argv) -> int:
    meta = provenance(args, argv)
    exact = args.exact
    if args.id == 2:
        ks = parse_int_list(args.k) if args.k else [2, 3]
        header = ["n", "k", "f_q", "n_times_k", "ratio"]
        rows = []
        for k in sorted(ks):
            for n in range(2 * k + 1, args.n_max + 1):
                rep = family_report(n, k)
                rows.append([
                    str(n), str(k),
                    fmt_number(rep.f_q, exact),
                    str(n * k),
                    fmt_number(rep.f_q / (n * k), exact),
                ])
    elif args.id == 3:
        alphas = parse_fraction_list(args.a) if args.a else (
            [Fraction(1, 8), Fraction(1, 4), Fraction(3, 8)]
        )
        ns = parse_range(args.n) if args.n else list(range(8, 121))
        header = ["n", "a", "k", "f_q", "lower_bound",
                  "ratio_limit_form", "ratio_bound_form"]
        rows = []
        for a in sorted(alphas):
            for n in sorted(ns):
                rep = family_report(n, scaled_k(a, n), a=a)
                rows.append([
                    str(n), str(a), str(rep.k),
                    fmt_number(rep.f_q, exact),
                    fmt_number(rep.lower_bound, exact),
                    fmt_number(rep.ratio_limit_form, exact),
                    fmt_number(rep.ratio_bound_form, exact),
                ])
    elif args.id == 4:
        ks = parse_int_list(args.k) if args.k else [2, 3]
        ns = parse_range(args.n) if args.n else list(range(4, 11))
        check_build_size(max(ns, default=0))
        header = ["n", "k", "f_q_over_n", "hs_norm_sq", "verdict"]
        rows = []
        for k in sorted(ks):
            for n in sorted(ns):
                if 2 * k > n:
                    continue
                row = bell_mod.detection_comparison(build_rho_nk(n, k))
                rows.append([
                    str(n), str(k),
                    fmt_number(row.f_q_over_n, exact),
                    format(row.hs_norm_sq, ".17g"),
                    row.verdict,
                ])
    else:
        raise DomainError(f"unknown figure id {args.id}; choose 2, 3 or 4")
    emit(csv_text(meta, header, rows), args.output)
    return 0


# -- parser --------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzmetro",
        description="Exact metrology of GHZ-diagonal bound-entangled states",
    )
    parser.add_argument("--version", action="version",
                        version=f"ghzmetro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_family=True):
        if with_family:
            p.add_argument("--n", type=int, required=True, help="qubit count")
            p.add_argument("--k", type=int, help="ones threshold")
            p.add_argument("--m", type=int, default=None, help="mixing width")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from the provenance header")
        p.add_argument("--exact", action="store_true",
                       help="print rationals as p/q instead of decimals")

    p = sub.add_parser("state", help="eigenvalue table of a family state")
    common(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("qfi", help="quantum Fisher information and bounds")
    common(p)
    p.add_argument("--a", default=None, help="rational scan ratio, e.g. 1/4")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the dense spectral formula")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("ppt", help="partial-transpose certificates and cuts")
    common(p)
    p.add_argument("--cuts", default="all", help='"all" or sizes like "1,2"')
    p.add_argument("--oracle", action="store_true",
                   help="cross-check spectra against dense transposition")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("bell", help="correlation tensor norm and detection row")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute-force / exact tensor")
    p.add_argument("--components", action="store_true",
                   help="append planar/axial split columns")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("estimate", help="seeded Monte Carlo phase estimation")
    common(p)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--shots", type=int, default=10000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="global-parity",
                   choices=sorted(est_mod.MODELS))
    p.add_argument("--bracket", type=float, default=None,
                   help="maximum-likelihood bracket halfwidth (radians)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("figure", help="regenerate scan CSVs")
    p.add_argument("--id", type=int, required=True, choices=[2, 3, 4])
    p.add_argument("--n-max", type=int, default=200, help="figure 2 scan end")
    p.add_argument("--k", default=None, help='comma list, e.g. "2,3"')
    p.add_argument("--a", default=None, help='comma list, e.g. "1/8,1/4"')
    p.add_argument("--n", default=None, help='range like "8..120"')
    common(p, with_family=False)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 4
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except (DomainError, GhzmetroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
