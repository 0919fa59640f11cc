"""The commands behind ``ghzmetro``: scans, figure data, certificates, machine output.

Subcommands mirror the library modules (state / qfi / ppt / bell / estimate)
plus ``figure``, which prints the scan CSV of a row of ``FIGURES``.  Each
returns a JSON payload or the lines of its text or CSV body; ``run`` puts
the provenance header (tool version, command line, seed, timestamp unless
``--no-timestamp``) on it and ``emit`` writes it in blocks, so identical
command plus seed gives byte-identical output and no more than one block of
it is held as one string.  The command line is read from one option
table, ``COMMANDS``: each command's handler, help line and options, each
option with its name, kind, default, whether it is required and its help.
``read_plain`` reads a plain line (whole option names, each value its own
argument) as argparse would, and loads no argparse, gettext or locale; every
other line, help and usage errors included, goes to the argparse parser that
``usage`` builds from the same table, so argparse defines what a line means.
Every number the command line takes, an option value or an item of a list
option (``parse_list``), is read by ``read_number``: ASCII only, with no
underscore or whitespace.  Each handler builds its JSON payload from the
fields of the records it prints; the rows of ``bell`` and ``figure`` and the
``qfi`` text are (column name, printed value) pairs, so each header, key or
label is written where its value is made.  This module imports only
``__version__``, ``errors`` and the standard library; each handler imports
the library names it runs, once per command (a figure once for all its
rows), so help and usage errors load no library module, and a command only
the modules it runs.  ``--version`` alone never loads this module: the entry
point ``cli`` answers it first.
``--oracle`` hands what a command prints to ``oracles.check_*`` through
``oracle_deviation``, which alone imports ``oracles`` (it loads numpy, the
``oracle`` extra; without it ``--oracle`` exits 2); ``json`` is imported
only to write JSON and ``datetime`` only to print a timestamp.  Exit codes: 0
success, 1 stdout closed (``cli.main`` catches it), 2 domain error, 3 size
limit, 4 cross-check failure.
"""
from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice
from types import SimpleNamespace

from . import __version__
from .errors import CrossCheckError, DomainError, GhzmetroError, SizeLimitError


# -- small parsing / formatting helpers --------------------------------------

GRID_POINT_LIMIT = 1 << 16  # points of a figure grid; the defaults have at most 400
LISTING_BYTE_LIMIT = 1 << 26  # bytes of a ppt cut listing (64 MiB)
WRITE_PIECES = 4096  # output pieces joined per write; a write per piece doubles the JSON time


def read_number(text: str, kind: type):
    """``kind(text)`` for ``kind`` int, float or Fraction, where ``text`` is
    ASCII with no underscore or whitespace.  Python alone would also read
    "7_0" as 70, " 7" or a non-ASCII digit such as "٧" as 7, and "١/٤" as 1/4.
    Raises ValueError, for a rational over 0 too."""
    if not text.isascii() or "_" in text or text.split() != [text]:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    try:
        return kind(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"a rational over 0: {text!r}") from exc


def parse_list(text: str, option: str, kind: type) -> list:
    """A comma list such as "4,6,8", or for ``--n`` alone also a range "8..120".

    Each item is read by ``read_number``.  A value named twice is kept once,
    where it first appears, so no row is printed twice.  A list that names
    nothing (it would print an empty table) is refused, and so is a range of
    more than ``GRID_POINT_LIMIT`` values, before it is built.
    """
    def item(part: str, kind: type):
        try:
            return read_number(part, kind)
        except ValueError as exc:
            noun = "an integer" if kind is int else "a rational"
            raise DomainError(f"cannot parse {part!r} as {noun}") from exc

    if option == "--n" and ".." in text:
        lo, hi = (item(part, int) for part in text.split("..", 1))
        if hi - lo >= GRID_POINT_LIMIT:  # a range is a figure grid
            raise SizeLimitError(f"--n {text!r} names {hi - lo + 1} values, "
                                 f"more than {GRID_POINT_LIMIT}")
        values = list(range(lo, hi + 1))
    else:
        values = list(dict.fromkeys(item(part, kind) for part in text.split(",") if part))
    if not values:
        raise DomainError(f"{option} {text!r} names nothing")
    return values


def fmt_number(x, exact: bool) -> str:
    if isinstance(x, Fraction) and exact:
        return str(x)
    try:
        return format(float(x), ".17g")
    except OverflowError:  # a rational past 2^1024, as the Bell norms from n = 1046 on
        return "inf" if x > 0 else "-inf"


def provenance(args: SimpleNamespace, argv: Sequence[str]) -> dict:
    meta = {
        "tool": f"ghzmetro {__version__}",
        "command": "ghzmetro " + " ".join(argv),
    }
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    if not args.no_timestamp:
        from datetime import datetime, timezone
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def write_blocks(pieces: Iterable[str], write: Callable[[str], object]) -> None:
    """``write`` each run of up to ``WRITE_PIECES`` of ``pieces``, joined."""
    pieces = iter(pieces)
    for first in pieces:
        write("".join(chain((first,), islice(pieces, WRITE_PIECES - 1))))


def emit(pieces: Iterable[str], output: str | None) -> None:
    if output is not None:  # an empty path is refused by open, as "No such file"
        try:
            with open(output, "w") as fh:
                write_blocks(pieces, fh.write)
        except OSError as exc:
            raise DomainError(f"cannot write --output {output!r}: {exc.strerror}") from exc
    else:
        write_blocks(pieces, sys.stdout.write)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit


def build_state(args: SimpleNamespace):
    from .states import build_rho_nkm

    if args.k is None:
        raise DomainError("a family member needs --k")
    return build_rho_nkm(args.n, args.k, args.m or 0)


def state_label(args: SimpleNamespace) -> str:
    return f"rho_{args.n},{args.k},{args.m}" if args.m else f"rho_{args.n},{args.k}"


def oracle_deviation(args: SimpleNamespace, check: str, *printed) -> float | None:
    """``oracles.<check>(*printed)`` under ``--oracle``, else None.

    ``oracles`` loads numpy, so only ``--oracle`` imports it.
    """
    if not args.oracle:
        return None
    try:
        from . import oracles
    except ModuleNotFoundError as exc:
        raise GhzmetroError(f"--oracle needs {exc.name}: install ghzmetro[oracle]") from exc
    return getattr(oracles, check)(*printed)


# -- subcommands ---------------------------------------------------------------
# Each returns (body, deviation): a JSON payload or the body lines, and the
# oracle deviation when --oracle ran, else None.  ``state`` makes its listing
# as it is written, one sector at a time, in either format.


class Streamed(list):
    """A nonempty list whose items ``__iter__`` makes one at a time.  The JSON
    encoder with ``indent`` tests a list with ``bool`` and then iterates it,
    so it encodes each item as it is made."""

    def __init__(self, items: Iterator):
        self.items = items

    def __iter__(self):
        return self.items

    def __bool__(self):
        return True


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
    # one cell per class: lambda^+- = (s +- d) / (2 den); text puts its band first
    cells = [{"lp": str(Fraction(s + d, 2 * state.den)),
              "lm": str(Fraction(s - d, 2 * state.den))} for _, _, s, d in classes]
    # the listing is made as it is written; the walk refuses n > 20 here, before any write
    walk = state._sector_classes()
    if args.format == "json":
        entries = Streamed({"i": i, **cells[c]} for i, c in walk)
        return {"state": {"n": state.n, "entries": entries}, "summary": summary}, None
    tails = ["  {:>4}  {lp:<9}  {lm:<9}".format(min(b := rep.bit_count(), state.n - b), **cell)
             for (rep, *_), cell in zip(classes, cells)]
    return chain((
        f"{state_label(args)} on {state.n} qubits",
        f"normalization: {summary['trace']} (exact)",
        "sectors: {sectors_populated}/{sectors_total} populated, "
        "{sectors_pure_even} pure-even, {sectors_balanced} balanced".format(**summary),
        f"{'i':>6}  {'bits':>{state.n}}  band  lambda+    lambda-",
    ), (f"{i:>6}  {i:0{state.n}b}{tails[c]}" for i, c in walk)), None


def cmd_qfi(args):
    from .qfi import family_report, scaled_k

    if args.a is not None:
        if args.k is not None or args.m is not None:
            raise DomainError("--a sets k itself; it takes no --k or --m")
        report = family_report(args.n, scaled_k(args.a, args.n), a=args.a)
    else:
        if args.k is None:
            raise DomainError("qfi needs --k or --a")
        report = family_report(args.n, args.k, m=args.m)
    deviation = oracle_deviation(args, "check_qfi", report)
    if args.format == "json":
        # every rational as {"exact", "float"}, except the input ratio a
        fields = {name: {"exact": str(x), "float": float(x)} if isinstance(x, Fraction)
                  else x for name, x in report._asdict().items()}
        fields["a"] = None if report.a is None else str(report.a)
        return {"report": fields}, deviation
    fields = (("f_q/n", report.snl_ratio), ("lower_bound", report.lower_bound),
              ("mixed_lower_bound", report.mixed_lower_bound), ("s_nk", report.s_nk),
              ("k", None if report.a is None else f"{report.k} (from a = {report.a})"),
              ("ratio_limit_form", report.ratio_limit_form),
              ("ratio_bound_form", report.ratio_bound_form))
    lines = [fmt_number(report.f_q, args.exact)] + [
        f"{label} = {x if isinstance(x, str) else fmt_number(x, args.exact)}"
        for label, x in fields if x is not None]
    return lines, deviation


def cmd_ppt(args):
    from .ptranspose import QubitSubset, cut_classification, ppt_single_qubit_certificate

    state = build_state(args)
    sizes = None if args.cuts == "all" else parse_list(args.cuts, "--cuts", int)
    # the row of cut m lists the witness mask (1 << m) - 1 and m qubits of at
    # most d digits, in at most 100 + m (d + 3) bytes of text and fewer of JSON;
    # a size past n, which cut_classification refuses, is counted as n
    n, half = state.n, state.n // 2
    rows, total = ((half, half * (half + 1) // 2) if sizes is None
                   else (len(sizes), sum(min(m, n) for m in sizes)))
    listing = 100 * rows + (len(str(n)) + 3) * total
    if listing > LISTING_BYTE_LIMIT:
        raise SizeLimitError(f"ppt would list up to {listing} bytes of cuts, "
                             f"more than {LISTING_BYTE_LIMIT} (2^26)")
    cert = ppt_single_qubit_certificate(state)
    table = cut_classification(state, cut_sizes=sizes)
    deviation = oracle_deviation(args, "check_ppt", state, cert, table)
    if args.format == "json":
        return {
            "single_qubit_certificate": cert._asdict(),
            "cuts": [row._asdict() for row in table],
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


def detection_fields(state, k: int, exact: bool) -> tuple:
    """A member's Bell detection row and its printed columns, name to value."""
    from .bell import detection_comparison

    row = detection_comparison(state)
    return row, {"n": str(state.n), "k": str(k), "f_q": fmt_number(row.f_q, exact),
                 "f_q_over_n": fmt_number(row.f_q_over_n, exact),
                 "hs_norm_sq": fmt_number(row.planar_sq + row.axial_sq, exact),
                 "verdict": row.verdict}


def cmd_bell(args):
    state = build_state(args)
    row, fields = detection_fields(state, args.k, args.exact)
    deviation = oracle_deviation(args, "check_bell", state, row.planar_sq + row.axial_sq)
    if args.components:
        fields.update(planar_sq=fmt_number(row.planar_sq, args.exact),
                      axial_sq=fmt_number(row.axial_sq, args.exact))
    if args.format == "json":
        return {"row": fields}, deviation
    return [",".join(fields), ",".join(fields.values())], deviation


def cmd_estimate(args):
    from . import estimation

    state = build_state(args)
    run = estimation.run_monte_carlo(
        state,
        theta_true=args.theta,
        model=estimation.get_model(args.model),
        shots=args.shots,
        repetitions=args.reps,
        seed=args.seed,
        bracket_halfwidth=args.bracket,
    )
    return {"run": {**run._asdict(),
                    "state_params": {"n": args.n, "k": args.k, "m": args.m}}}, None


# Each figure's rows: each grid point (parameter, n) on its plot, in the order
# of ``points``, as columns name to value, the library imported once per figure.


def figure2_rows(points, exact: bool) -> Iterator[dict[str, str]]:
    from .qfi import family_report

    for k, n in points:
        if n > 2 * k:  # figure 2 starts each k at n = 2k + 1
            rep = family_report(n, k)
            yield {"n": str(n), "k": str(k), "f_q": fmt_number(rep.f_q, exact),
                   "n_times_k": str(n * k), "ratio": fmt_number(rep.f_q / (n * k), exact)}


def figure3_rows(points, exact: bool) -> Iterator[dict[str, str]]:
    from .qfi import family_report, scaled_k

    for a, n in points:
        if n >= 3:  # else no k in [1, ceil(n/2) - 1]; scaled_k would refuse
            rep = family_report(n, scaled_k(a, n), a=a)
            yield {"n": str(n), "a": str(a), "k": str(rep.k), **{
                name: fmt_number(getattr(rep, name), exact) for name in
                ("f_q", "lower_bound", "ratio_limit_form", "ratio_bound_form")}}


def figure4_rows(points, exact: bool) -> Iterator[dict[str, str]]:
    from .states import build_rho_nk

    for k, n in points:
        if 2 * k <= n:
            _, fields = detection_fields(build_rho_nk(n, k), k, exact)
            del fields["f_q"]
            yield fields


# Per figure: its parameter list option (k or a), parsed as int or Fraction,
# and the defaults of that option and of --n, each written as an option value;
# then its rows, whose column names are its CSV header.
FIGURES = {
    2: ("k", int, "2,3", "1..200", figure2_rows),
    3: ("a", Fraction, "1/8,1/4,3/8", "8..120", figure3_rows),
    4: ("k", int, "2,3", "4..10", figure4_rows),
}


def cmd_figure(args):
    param, kind, param_default, n_default, rows_of = FIGURES[args.id]
    for option in {row[0] for row in FIGURES.values()} - {param}:
        if getattr(args, option) is not None:
            raise DomainError(f"figure {args.id} does not read --{option}")
    params = getattr(args, param)
    params = parse_list(param_default if params is None else params, f"--{param}", kind)
    if param == "k" and min(params) < 1:
        raise DomainError(f"need k >= 1, got k = {min(params)}")
    ns = parse_list(n_default if args.n is None else args.n, "--n", int)
    points = len(params) * len(ns)
    if points > GRID_POINT_LIMIT:
        raise SizeLimitError(f"figure {args.id}: a grid of {points} points, "
                             f"more than {GRID_POINT_LIMIT}")
    rows = rows_of(((p, n) for p in sorted(params) for n in sorted(ns)), args.exact)
    first = next(rows, None)
    if first is None:
        raise DomainError(f"figure {args.id}: no family member in the requested grid")
    # each row is joined as it is made, so the grid holds lines, not rows
    return [",".join(first)] + [",".join(row.values()) for row in chain((first,), rows)], None


# -- option table --------------------------------------------------------------
# An option is (name, kind, default, required, help).  Kind int, float or
# Fraction reads the option's value with read_number, and str keeps it as
# given; bool makes it a flag, True when given; a tuple lists its choices, and
# their type reads the value.

FAMILY_OPTIONS = (
    ("--n", int, None, True, "qubit count"),
    ("--k", int, None, False, "ones threshold"),
    ("--m", int, None, False, "mixing width"),
)
COMMON_OPTIONS = (
    ("--output", str, None, False, "write here instead of stdout"),
    ("--no-timestamp", bool, False, False,
     "omit the timestamp from the provenance header"),
)
EXACT_OPTIONS = (  # on the commands that print rationals
    ("--exact", bool, False, False, "print rationals as p/q instead of decimals"),
)
TEXT_OR_JSON = ("--format", ("text", "json"), "text", False, None)

# Per command: its handler, its help line and its options, in help order.
COMMANDS = {
    "state": (cmd_state, "eigenvalue table of a family state",
              FAMILY_OPTIONS + COMMON_OPTIONS + (TEXT_OR_JSON,)),
    "qfi": (cmd_qfi, "quantum Fisher information and bounds",
            FAMILY_OPTIONS + COMMON_OPTIONS + EXACT_OPTIONS + (
                ("--a", Fraction, None, False, "rational scan ratio, e.g. 1/4"),
                ("--oracle", bool, False, False,
                 "cross-check against the dense spectral formula"),
                TEXT_OR_JSON)),
    "ppt": (cmd_ppt, "partial-transpose certificates and cuts",
            FAMILY_OPTIONS + COMMON_OPTIONS + (
                ("--cuts", str, "all", False, '"all" or sizes like "1,2"'),
                ("--oracle", bool, False, False,
                 "cross-check spectra against dense transposition"),
                TEXT_OR_JSON)),
    "bell": (cmd_bell, "correlation tensor norm and detection row",
             FAMILY_OPTIONS + COMMON_OPTIONS + EXACT_OPTIONS + (
                 ("--oracle", bool, False, False,
                  "cross-check against brute-force / exact tensor"),
                 ("--components", bool, False, False, "append planar/axial split columns"),
                 ("--format", ("csv", "json"), "csv", False, None))),
    "estimate": (cmd_estimate, "seeded Monte Carlo phase estimation",
                 FAMILY_OPTIONS + COMMON_OPTIONS + (
                     ("--theta", float, None, True, None),
                     ("--shots", int, 10000, False, None),
                     ("--reps", int, 200, False, None),
                     ("--seed", int, 0, False, None),
                     # sorted(estimation.MODELS), spelled out so that parsing
                     # does not import estimation
                     ("--model", ("global-parity", "sector-parity"), "global-parity",
                      False, None),
                     ("--bracket", float, None, False,
                      "maximum-likelihood bracket halfwidth (radians)"))),
    "figure": (cmd_figure, "regenerate scan CSVs", (
        ("--id", tuple(sorted(FIGURES)), None, True, None),
        ("--k", str, None, False, 'comma list, e.g. "2,3"'),
        ("--a", str, None, False, 'comma list, e.g. "1/8,1/4"'),
        ("--n", str, None, False, 'comma list or range like "8..120"'),
    ) + COMMON_OPTIONS + EXACT_OPTIONS),
}


# -- parser --------------------------------------------------------------------
# argparse, built from the same table by ``usage``, reads every line but these.


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The command, its handler ``func`` and the value of each of its options,
    named as the option without its dashes, ``-`` read as ``_``; None unless
    the line is plain.  A plain line is a command, then options of that
    command by their whole names, each value its own argument that does not
    start with ``-``, read by ``read_number`` and in the option's choices, and
    every required option given.  argparse reads such a line the same way:
    the last of a repeated option counts, and one left out takes its default.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    table = {option[0]: option for option in options}
    values, rest = {}, iter(argv[1:])
    for arg in rest:
        if arg not in table:
            return None
        name, kind = table[arg][:2]
        if kind is bool:
            values[name] = True
            continue
        given = next(rest, "-")  # a missing value declines the line too
        convert = type(kind[0]) if isinstance(kind, tuple) else kind
        try:
            values[name] = given if convert is str else read_number(given, convert)
        except ValueError:
            return None
        if given[:1] == "-" or isinstance(kind, tuple) and values[name] not in kind:
            return None
    if any(option[3] and option[0] not in values for option in options):
        return None
    return SimpleNamespace(command=argv[0], func=func, **{
        option[0][2:].replace("-", "_"): values.get(option[0], option[2])
        for option in options})


def run(argv: list[str]) -> int:
    """Read the command line ``argv``, run its command, write its output and
    return the exit code.  ``cli.main`` answers a lone ``--version`` itself."""
    args = read_plain(argv)
    if args is None:  # argparse exits 0 on help and 2 on a usage error
        from .usage import parser

        args = parser(COMMANDS, read_number).parse_args(argv)
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)  # print rationals of any length
    try:
        meta = provenance(args, argv)
        body, deviation = args.func(args)
        if isinstance(body, dict):
            import json
            if deviation is not None:
                body["oracle_max_deviation"] = deviation
            # the encoder json.dumps runs with indent, one piece at a time
            encoder = json.JSONEncoder(indent=2, sort_keys=True)
            pieces = chain(encoder.iterencode({"meta": meta, **body}), ("\n",))
        else:
            header = "# " + " | ".join(f"{k}: {v}" for k, v in meta.items())
            tail = (f"oracle max deviation = {deviation:.3e}",) if (
                deviation is not None and args.format == "text") else ()
            pieces = (line + "\n" for line in chain((header,), body, tail))
        emit(pieces, args.output)  # a closed stdout raises BrokenPipeError to cli.main
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
