"""Command-line front end: scans, figure data, certificates, machine output.

Subcommands mirror the library modules (state / qfi / ppt / bell / estimate)
plus ``figure``, which prints the scan CSV of a row of ``FIGURES``.  Each
returns a JSON payload or the lines of its text or CSV body; ``main`` puts
the provenance header (tool version, command line, seed, timestamp unless
``--no-timestamp``) on it and writes it once, so identical command plus seed
gives byte-identical output.  Numbers and lists in option values are read by
``parse_number`` and ``parse_list``.  ``--oracle`` hands what a command
prints to ``oracles.check_*`` through ``oracle_deviation``, which alone imports
``oracles`` (it loads numpy); ``estimation`` is imported only by ``estimate``.
Exit codes: 0 success, 2 domain error, 3 size-limit error, 4 internal
cross-check failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import List, Optional, Sequence

from . import __version__
from .errors import CrossCheckError, DomainError, GhzmetroError, SizeLimitError
from . import bell as bell_mod
from .ptranspose import QubitSubset, cut_classification, ppt_single_qubit_certificate
from .qfi import family_report, scaled_k
from .states import BandState, build_rho_nk, build_rho_nkm, min_ones


# -- small parsing / formatting helpers --------------------------------------


def parse_number(text: str, kind: type):
    """``kind(text)`` for ``kind`` int or Fraction, refusing what does not parse."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError) as exc:
        noun = "an integer" if kind is int else "a rational"
        raise DomainError(f"cannot parse {text!r} as {noun}") from exc


def parse_list(text: str, option: str, kind: type) -> list:
    """A comma list such as "4,6,8", or for ``--n`` alone also a range "8..120".

    A list that names nothing (it would print an empty table) is refused.
    """
    if option == "--n" and ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(parse_number(lo, int), parse_number(hi, int) + 1))
    else:
        values = [parse_number(part, kind) for part in text.split(",") if part]
    if not values:
        raise DomainError(f"{option} {text!r} names nothing")
    return values


def fmt_number(x, exact: bool) -> str:
    if isinstance(x, Fraction) and exact:
        return str(x)
    return format(float(x), ".17g")


def hs_norm_field(state: BandState, row: bell_mod.DetectionRow, exact: bool) -> str:
    """``hs_norm_sq`` as printed: the rational under ``--exact``, else the row's float."""
    return fmt_number(bell_mod.hs_norm_sq(state) if exact else row.hs_norm_sq, exact)


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
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --output {output!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def build_state(args: argparse.Namespace) -> BandState:
    if args.k is None:
        raise DomainError("a family member needs --k")
    return build_rho_nkm(args.n, args.k, args.m or 0)


def state_label(args: argparse.Namespace) -> str:
    m = getattr(args, "m", None)
    if m:
        return f"rho_{args.n},{args.k},{m}"
    return f"rho_{args.n},{args.k}"


def oracle_deviation(args: argparse.Namespace, check: str, *printed) -> Optional[float]:
    """``oracles.<check>(*printed)`` under ``--oracle``, else None.

    ``oracles`` loads numpy, so only ``--oracle`` imports it.
    """
    if not args.oracle:
        return None
    from . import oracles
    return getattr(oracles, check)(*printed)


# -- subcommands ---------------------------------------------------------------
# Each returns (body, deviation): a JSON payload or the body lines, and the
# oracle deviation when --oracle ran, else None.


def cmd_state(args):
    state = build_state(args)
    classes = list(state.classes())
    summary = {
        "trace": str(state.trace()),
        "sectors_total": 1 << (state.n - 1),
        "sectors_populated": sum(mult for _, mult, _, _ in classes),
        "sectors_pure_even": sum(mult for _, mult, s, d in classes if d == s),
        "sectors_balanced": sum(mult for _, mult, _, d in classes if d == 0),
    }
    if args.format == "json":
        return {"state": state.to_json_dict(), "summary": summary}, None
    lines = [f"{state_label(args)} on {state.n} qubits"]
    lines.append(f"normalization: {state.trace()} (exact)")
    lines.append(
        "sectors: {sectors_populated}/{sectors_total} populated, "
        "{sectors_pure_even} pure-even, {sectors_balanced} balanced".format(**summary)
    )
    lines.append(f"{'i':>6}  {'bits':>{state.n}}  band  lambda+    lambda-")
    for i, lp, lm in state.sectors():
        lines.append(
            f"{i:>6}  {i:0{state.n}b}  {min_ones(state.n, i):>4}  "
            f"{str(lp):<9}  {str(lm):<9}"
        )
    return lines, None


def cmd_qfi(args):
    if args.a is not None:
        if args.k is not None or args.m is not None:
            raise DomainError("--a sets k itself; it takes no --k or --m")
        a = parse_number(args.a, Fraction)
        k = scaled_k(a, args.n)
        report = family_report(args.n, k, a=a)
    else:
        if args.k is None:
            raise DomainError("qfi needs --k or --a")
        report = family_report(args.n, args.k, m=args.m)
    deviation = oracle_deviation(args, "check_qfi", report)
    if args.format == "json":
        return {"report": report.to_json_dict()}, deviation
    lines = [fmt_number(report.f_q, args.exact)]
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
    return lines, deviation


def cmd_ppt(args):
    state = build_state(args)
    cert = ppt_single_qubit_certificate(state)
    sizes = None if args.cuts == "all" else parse_list(args.cuts, "--cuts", int)
    table = cut_classification(state, cut_sizes=sizes)
    deviation = oracle_deviation(args, "check_ppt", state, cert, table)
    if args.format == "json":
        return {
            "single_qubit_certificate": {
                "holds": cert.holds,
                "witness_j": cert.witness_j,
                "witness_i": cert.witness_i,
            },
            "cuts": [row.to_json_dict() for row in table],
        }, deviation
    lines = [f"{state_label(args)}: single-qubit PPT certificate: "
             f"{'holds' if cert.holds else 'fails'}"]
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
    return lines, deviation


def cmd_bell(args):
    state = build_state(args)
    row = bell_mod.detection_comparison(state)
    deviation = oracle_deviation(args, "check_bell", state, row)
    header = ["n", "k", "f_q", "f_q_over_n", "hs_norm_sq", "verdict"]
    values = [
        str(args.n),
        str(args.k),
        fmt_number(row.f_q, args.exact),
        fmt_number(row.f_q_over_n, args.exact),
        hs_norm_field(state, row, args.exact),
        row.verdict,
    ]
    if args.components:
        planar = bell_mod.planar_square_sum(state)
        axial = bell_mod.axial_expectation(state)
        header += ["planar_sq", "axial_sq"]
        values += [fmt_number(planar, args.exact), fmt_number(axial * axial, args.exact)]
    if args.format == "json":
        return {"row": dict(zip(header, values))}, deviation
    return [",".join(header), ",".join(values)], deviation


def cmd_estimate(args):
    from . import estimation

    state = build_state(args)
    run = estimation.run_monte_carlo(
        state,
        theta_true=args.theta,
        model=args.model,
        shots=args.shots,
        repetitions=args.reps,
        seed=args.seed,
        bracket_halfwidth=args.bracket,
    )
    return {"run": {**run.to_json_dict(),
                    "state_params": {"n": args.n, "k": args.k, "m": args.m}}}, None


def figure2_row(n: int, k: int, exact: bool) -> Optional[List[str]]:
    if n <= 2 * k:  # figure 2 starts each k at n = 2k + 1
        return None
    rep = family_report(n, k)
    return [str(n), str(k), fmt_number(rep.f_q, exact), str(n * k),
            fmt_number(rep.f_q / (n * k), exact)]


def figure3_row(n: int, a: Fraction, exact: bool) -> Optional[List[str]]:
    if n < 3:  # no k in [1, ceil(n/2) - 1]; scaled_k would refuse
        return None
    rep = family_report(n, scaled_k(a, n), a=a)
    return [str(n), str(a), str(rep.k)] + [
        fmt_number(x, exact) for x in
        (rep.f_q, rep.lower_bound, rep.ratio_limit_form, rep.ratio_bound_form)]


def figure4_row(n: int, k: int, exact: bool) -> Optional[List[str]]:
    if 2 * k > n:
        return None
    state = build_rho_nk(n, k)
    row = bell_mod.detection_comparison(state)
    return [str(n), str(k), fmt_number(row.f_q_over_n, exact),
            hs_norm_field(state, row, exact), row.verdict]


# Per figure: its parameter list option (k or a), parsed as int or Fraction,
# and its n grid option (n_max, the scan 1..n_max, or n), each followed by
# its default written as an option value; then its CSV header, and the
# function giving the fields of grid point (n, parameter) or None off the plot.
FIGURES = {
    2: ("k", int, "2,3", "n_max", 200, "n,k,f_q,n_times_k,ratio", figure2_row),
    3: ("a", Fraction, "1/8,1/4,3/8", "n", "8..120",
        "n,a,k,f_q,lower_bound,ratio_limit_form,ratio_bound_form", figure3_row),
    4: ("k", int, "2,3", "n", "4..10", "n,k,f_q_over_n,hs_norm_sq,verdict", figure4_row),
}


def cmd_figure(args):
    param, kind, param_default, grid, grid_default, header, row_of = FIGURES[args.id]
    for option in ("n_max", "k", "a", "n"):
        if getattr(args, option) is not None and option not in (param, grid):
            raise DomainError(f"figure {args.id} does not read --{option.replace('_', '-')}")
    params = getattr(args, param)
    params = parse_list(param_default if params is None else params, f"--{param}", kind)
    if param == "k" and min(params) < 1:
        raise DomainError(f"need k >= 1, got k = {min(params)}")
    ns = getattr(args, grid)
    ns = grid_default if ns is None else ns
    ns = range(1, ns + 1) if grid == "n_max" else parse_list(ns, "--n", int)
    rows = [row for p in sorted(params) for n in sorted(ns)
            if (row := row_of(n, p, args.exact)) is not None]
    if not rows:
        raise DomainError(f"figure {args.id}: no family member in the requested grid")
    return [header] + [",".join(row) for row in rows], None


# -- parser --------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzmetro",
        description="Exact metrology of GHZ-diagonal bound-entangled states",
    )
    parser.add_argument("--version", action="version",
                        version=f"ghzmetro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_family=True, exact=False):
        if with_family:
            p.add_argument("--n", type=int, required=True, help="qubit count")
            p.add_argument("--k", type=int, help="ones threshold")
            p.add_argument("--m", type=int, default=None, help="mixing width")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp from the provenance header")
        if exact:  # on the commands that print rationals
            p.add_argument("--exact", action="store_true",
                           help="print rationals as p/q instead of decimals")

    p = sub.add_parser("state", help="eigenvalue table of a family state")
    common(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("qfi", help="quantum Fisher information and bounds")
    common(p, exact=True)
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
    common(p, exact=True)
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
    # sorted(estimation.MODELS), spelled out so that parsing does not import estimation
    p.add_argument("--model", default="global-parity",
                   choices=["global-parity", "sector-parity"])
    p.add_argument("--bracket", type=float, default=None,
                   help="maximum-likelihood bracket halfwidth (radians)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("figure", help="regenerate scan CSVs")
    p.add_argument("--id", type=int, required=True, choices=sorted(FIGURES))
    p.add_argument("--n-max", type=int, default=None,
                   help="figure 2 scan end (default 200)")
    p.add_argument("--k", default=None, help='comma list, e.g. "2,3"')
    p.add_argument("--a", default=None, help='comma list, e.g. "1/8,1/4"')
    p.add_argument("--n", default=None, help='range like "8..120"')
    common(p, with_family=False, exact=True)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        meta = provenance(args, argv)
        body, deviation = args.func(args)
        if isinstance(body, dict):
            if deviation is not None:
                body["oracle_max_deviation"] = deviation
            text = json.dumps({"meta": meta, **body}, indent=2, sort_keys=True)
        else:
            if deviation is not None and args.format == "text":
                body.append(f"oracle max deviation = {deviation:.3e}")
            header = "# " + " | ".join(f"{k}: {v}" for k, v in meta.items())
            text = "\n".join([header, *body])
        emit(text + "\n", args.output)
        if deviation is not None and args.format == "csv":  # keeps the CSV parseable
            print(f"oracle max deviation = {deviation:.3e}", file=sys.stderr)
        return 0
    except CrossCheckError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 4
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except GhzmetroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
