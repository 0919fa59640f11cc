"""CLI contracts: output formats, determinism, exit codes, imports."""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ghzmetro
from ghzmetro import estimation
from ghzmetro.bell import hs_norm_sq
from ghzmetro.errors import SizeLimitError
from ghzmetro.cli import COMMANDS, main, parse_list, read_number, read_plain
from ghzmetro.qfi import qfi_closed_nk
from ghzmetro.states import GhzDiagonalState, build_rho_nk, build_rho_nkm
from ghzmetro.usage import StoreOne, parser
from conftest import as_sparse
from test_knobs import CLI_OPTIONS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_helpers():
    assert parse_list("8..12", "--n", int) == [8, 9, 10, 11, 12]
    assert parse_list("4,6,8", "--n", int) == [4, 6, 8]
    assert parse_list("7", "--n", int) == [7]
    assert parse_list("3,2,3,2", "--k", int) == [3, 2]  # the first of each, in order
    assert parse_list("1/4,2/8,1/8", "--a", Fraction) == [Fraction(1, 4), Fraction(1, 8)]
    assert str(read_number("1/4", Fraction)) == "1/4"
    assert read_number("-7", int) == -7 and read_number("+7", int) == 7
    assert read_number("-.3", float) == -0.3 and read_number("1e-2", float) == 0.01
    # Python alone reads each of these; the command line reads none
    for text, kind in [("7_0", int), (" 7", int), ("\u0667", int), ("7\n", int),
                       ("1_0/4", Fraction), (" 1/4", Fraction), ("\u0661/\u0664", Fraction),
                       ("0.3 ", float), ("\u0660.\u0663", float), ("1_0e-2", float)]:
        with pytest.raises(ValueError):
            read_number(text, kind)


def test_state_table(capsys):
    code, out, _ = run(capsys, "state", "--n", "4", "--k", "2", "--no-timestamp")
    assert code == 0
    assert "1/11" in out
    assert "normalization: 1 (exact)" in out


def test_state_json_roundtrip(capsys):
    code, out, _ = run(capsys, "state", "--n", "8", "--k", "2", "--m", "1",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    entries = payload["state"]["entries"]
    state = GhzDiagonalState(payload["state"]["n"],
                             {e["i"]: Fraction(e["lp"]) for e in entries},
                             {e["i"]: Fraction(e["lm"]) for e in entries})
    assert state.trace() == 1
    assert state == as_sparse(build_rho_nkm(8, 2, 1))
    assert payload["state"]["entries"][0]["lp"] == "1/93"


def test_state_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "state", "--n", "4", "--k", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("ppt", "--n", "6", "--k", "2", "--cuts", "a"),
    ("ppt", "--n", "6", "--k", "2", "--cuts", "1..2"),
    ("figure", "--id", "4", "--n", "4..x"),
    ("figure", "--id", "2", "--k", "x"),
    ("estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "2",
     "--bracket", "0"),
    ("estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "2",
     "--bracket", "-0.1"),
    ("estimate", "--n", "4", "--k", "1", "--theta", "nan", "--reps", "2"),
    ("state", "--n", "8"),
    ("ppt", "--n", "8"),
    ("bell", "--n", "8"),
    ("estimate", "--n", "4", "--theta", "0.3"),
    ("figure", "--id", "2", "--k", "0"),
    ("qfi", "--n", "10", "--a", "1/4", "--k", "1", "--m", "3"),
    ("qfi", "--n", "10", "--a", "1/4", "--k", "1"),
    ("qfi", "--n", "10", "--a", "1/4", "--m", "3"),
    ("estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "2",
     "--shots", "9223372036854775808"),
    ("estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "2",
     "--seed", "-1"),
    ("figure", "--id", "3", "--n", "10..4"),
    ("figure", "--id", "4", "--k", ","),
    ("figure", "--id", "3", "--a", ","),
    ("figure", "--id", "2", "--k", ""),
    ("ppt", "--n", "6", "--k", "2", "--cuts", ","),
    # list options the figure does not read
    ("figure", "--id", "2", "--n-max", "6", "--n", "10..4", "--a", ","),
    ("figure", "--id", "2", "--n", "4..8"),
    ("figure", "--id", "2", "--a", "1/4"),
    ("figure", "--id", "3", "--k", "2"),
    ("figure", "--id", "3", "--n-max", "10"),
    ("figure", "--id", "4", "--a", "1/4"),
    ("figure", "--id", "4", "--n-max", "10"),
    # grids that hold no family member
    ("figure", "--id", "4", "--n", "4..5", "--k", "3"),
    ("figure", "--id", "2", "--k", "5", "--n-max", "10"),
    # k below 1, refused before the scan reaches any n
    ("figure", "--id", "2", "--k", "2,0", "--n-max", "8"),
    ("figure", "--id", "4", "--k", "0"),
    ("figure", "--id", "2", "--k=-1"),
    # list items int() alone would read: an underscore, a space, a non-ASCII digit
    ("ppt", "--n", "6", "--k", "2", "--cuts", "1,2_0"),
    ("figure", "--id", "4", "--k", "2, 3"),
    ("figure", "--id", "4", "--n", "4..\u0668"),
    ("figure", "--id", "3", "--a", "\u0661/\u0668", "--n", "8"),
    ("figure", "--id", "3", "--a", "1/4,1_0/8", "--n", "8"),
    # a bracket so wide that its width or a fringe phase w * theta overflows
    ("estimate", "--n", "4", "--k", "2", "--theta", "0.3", "--reps", "1",
     "--bracket", "8e307"),
    ("estimate", "--n", "4", "--k", "2", "--theta", "0.3", "--reps", "1",
     "--bracket", "1e308"),
    # refusals of the handlers and of the library
    ("ppt", "--n", "8", "--k", "2", "--cuts", "0"),
    ("ppt", "--n", "8", "--k", "2", "--cuts", "8"),
    ("qfi", "--n", "8"),
    ("qfi", "--n", "2", "--a", "1/4"),
    ("estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "0"),
])
def test_malformed_option_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    if argv[0] == "figure":  # no figure error names an n the user did not pick
        assert "n =" not in err


@pytest.mark.parametrize("command", [
    ("ppt", "--n", "6", "--k", "2"),
    ("state", "--n", "6", "--k", "2"),
    ("estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "2"),
])
def test_exact_only_on_commands_that_print_rationals(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--exact"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def refused_while_parsing(capsys, *argv):
    """Exit code, stdout and stderr lines of a request the parser refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err.splitlines()


# each usage error with the last stderr line argparse printed for it
USAGE_ERRORS = [
    (("qfi", "--n", "7", "--k", "2", "--o", "x"),
     "ghzmetro qfi: error: ambiguous option: --o could match --output, --oracle"),
    (("qfi", "--n", "7", "--k", "2", "--output", "--exact"),
     "ghzmetro qfi: error: argument --output: expected one argument"),
    (("qfi", "--n", "x", "--k", "2"),
     "ghzmetro qfi: error: argument --n: invalid int value: 'x'"),
    (("qfi", "--n", "7", "--k", "2", "--format", "xml"),
     "ghzmetro qfi: error: argument --format: invalid choice: 'xml' "
     "(choose from 'text', 'json')"),
    (("qfi", "--n", "7", "--k", "2", "--bogus"),
     "ghzmetro: error: unrecognized arguments: --bogus"),
    (("qfi", "--n", "7", "--k", "2", "stray"),
     "ghzmetro: error: unrecognized arguments: stray"),
    ((), "ghzmetro: error: the following arguments are required: command"),
    (("bogus",), "ghzmetro: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'state', 'qfi', 'ppt', 'bell', 'estimate', 'figure')"),
    (("estimate", "--format", "json"),
     "ghzmetro estimate: error: the following arguments are required: --n, --theta"),
    # only -5, -0.3 and -.3 read as numbers; -1e5 reads as an option
    (("estimate", "--n", "4", "--k", "1", "--theta", "-1e5"),
     "ghzmetro estimate: error: argument --theta: expected one argument"),
    (("figure", "--id", "5"),
     "ghzmetro figure: error: argument --id: invalid choice: 5 (choose from 2, 3, 4)"),
    (("qfi", "--n", "7", "--k", "2", "--exact=1"),
     "ghzmetro qfi: error: argument --exact: ignored explicit argument '1'"),
    (("qfi", "--n", "7", "--k", "2", "-hx"),
     "ghzmetro qfi: error: argument -h/--help: ignored explicit argument 'x'"),
    (("qfi", "--n", "7", "--k", "2", "--nx", "5"),
     "ghzmetro: error: unrecognized arguments: --nx 5"),
    (("qfi", "--n", "7", "--k", "2", "--", "x"),
     "ghzmetro: error: unrecognized arguments: -- x"),
    # int() alone would read these as 70, 7, 7 and 4; only ASCII digits are read
    (("qfi", "--n", "7_0", "--k", "2"),
     "ghzmetro qfi: error: argument --n: invalid int value: '7_0'"),
    (("qfi", "--n", "\u0667", "--k", "2"),
     "ghzmetro qfi: error: argument --n: invalid int value: '\u0667'"),
    (("qfi", "--n= 7", "--k", "2"),
     "ghzmetro qfi: error: argument --n: invalid int value: ' 7'"),
    (("figure", "--id", "\u0664"),
     "ghzmetro figure: error: argument --id: invalid int value: '\u0664'"),
    (("qfi", "--n", "8", "--k", "2", "-"), "ghzmetro: error: unrecognized arguments: -"),
    # floats and rationals follow the same rule: ASCII, no underscore, no whitespace
    (("qfi", "--n", "8", "--a", "\u0661/\u0664"),
     "ghzmetro qfi: error: argument --a: invalid Fraction value: '\u0661/\u0664'"),
    (("qfi", "--n", "8", "--a", "1_0/4"),
     "ghzmetro qfi: error: argument --a: invalid Fraction value: '1_0/4'"),
    (("qfi", "--n", "8", "--a", " 1/4"),
     "ghzmetro qfi: error: argument --a: invalid Fraction value: ' 1/4'"),
    (("qfi", "--n", "8", "--a", "x"),
     "ghzmetro qfi: error: argument --a: invalid Fraction value: 'x'"),
    (("qfi", "--n", "8", "--a", "1/0"),
     "ghzmetro qfi: error: argument --a: invalid Fraction value: '1/0'"),
    (("estimate", "--n", "4", "--k", "1", "--theta", "\u0660.\u0663"),
     "ghzmetro estimate: error: argument --theta: invalid float value: '\u0660.\u0663'"),
    (("estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--bracket", "1_0e-2"),
     "ghzmetro estimate: error: argument --bracket: invalid float value: '1_0e-2'"),
    # argparse 3.11 alone binds --opt=-- to an empty list, for any valued option
    (("qfi", "--n=--", "--k", "2"),
     "ghzmetro qfi: error: argument --n: expected one argument"),
    (("estimate", "--n", "4", "--k", "1", "--theta=--"),
     "ghzmetro estimate: error: argument --theta: expected one argument"),
]


@pytest.mark.parametrize("argv, last_line", USAGE_ERRORS)
def test_usage_errors_keep_their_wording(capsys, argv, last_line):
    code, out, err = refused_while_parsing(capsys, *argv)
    assert (code, out) == (2, "")
    assert err[-1] == last_line
    assert err[0].startswith("usage: ghzmetro")


def test_usage_error_prints_the_command_usage_first(capsys):
    _, _, err = refused_while_parsing(capsys, "qfi", "--n", "x")
    assert err == [
        "usage: ghzmetro qfi [-h] --n N [--k K] [--m M] [--output OUTPUT]",
        "                    [--no-timestamp] [--exact] [--a A] [--oracle]",
        "                    [--format {text,json}]",
        "ghzmetro qfi: error: argument --n: invalid int value: 'x'"]


def test_option_given_as_equals_dashes_is_refused(capsys):
    # argparse bound --output=-- to an empty list, which then meant stdout
    code, out, err = refused_while_parsing(capsys, "qfi", "--n", "7", "--k", "2",
                                           "--output=--")
    assert (code, out) == (2, "")
    assert err[-1] == "ghzmetro qfi: error: argument --output: expected one argument"


@pytest.mark.parametrize("values", [[], "--"], ids=["empty-list", "double-dash"])
def test_store_one_refuses_a_missing_value(values):
    # argparse binds --opt=-- to [] (3.11) or to "--" (3.13): no value either way
    action = StoreOne(["--output"], "output")
    namespace = argparse.Namespace()
    with pytest.raises(argparse.ArgumentError, match="expected one argument"):
        action(None, namespace, values, "--output")
    assert not hasattr(namespace, "output")


@pytest.mark.parametrize("argv, same_as", [
    (("qfi", "--n=7", "--k=2", "--no-timestamp"),
     ("qfi", "--n", "7", "--k", "2", "--no-timestamp")),
    (("qfi", "--n", "7", "--k", "2", "--ex", "--no-time"),
     ("qfi", "--n", "7", "--k", "2", "--exact", "--no-timestamp")),
    (("qfi", "--n", "8", "--k", "3", "--k", "2", "--n", "7", "--no-timestamp"),
     ("qfi", "--n", "7", "--k", "2", "--no-timestamp")),
    (("figure", "--i=4", "--k", "3", "--n", "6", "--no-t"),
     ("figure", "--id", "4", "--k", "3", "--n", "6", "--no-timestamp")),
    (("bell", "--n", "8", "--k=2", "--comp", "--f", "csv", "--no-timestamp"),
     ("bell", "--n", "8", "--k", "2", "--components", "--no-timestamp")),
])
def test_option_syntax_is_read_as_the_full_form(capsys, argv, same_as):
    # --opt=value, unique prefixes and the last of a repeated option
    code, out, err = run(capsys, *argv)
    expected = run(capsys, *same_as)
    assert (code, err) == (0, "") == expected[::2]
    assert out.splitlines()[1:] == expected[1].splitlines()[1:]  # below the command line


@pytest.mark.parametrize("theta", ["-0.3", "-.3"])
def test_negative_number_is_a_value(capsys, theta):
    for argv in (("--theta", theta), (f"--theta={theta}",)):
        code, out, _ = run(capsys, "estimate", "--n", "4", "--k", "1", *argv, "--reps", "2",
                           "--shots", "100", "--no-timestamp")
        assert code == 0
        assert json.loads(out)["run"]["theta_true"] == -0.3


@pytest.mark.parametrize("program", sorted(CLI_OPTIONS))
def test_help_names_every_option(capsys, program):
    command = [] if program == "ghzmetro" else [program]
    for flag in ("-h", "--help", "--he"):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, "--bogus"])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert out.startswith(f"usage: {' '.join(['ghzmetro', *command])} [-h]")
        for option in CLI_OPTIONS[program]:
            assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", out), option
    with pytest.raises(SystemExit) as exc:
        main(["--version", *command])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"ghzmetro {ghzmetro.__version__}\n"


def test_qfi_exact_output(capsys):
    code, out, _ = run(capsys, "qfi", "--n", "7", "--k", "2", "--exact",
                       "--no-timestamp")
    assert code == 0
    assert "224/29" in out


def test_exact_output_past_python_digit_cap(capsys):
    # the numerator has more than the 4,300 digits str(int) allows by default
    code, out, _ = run(capsys, "qfi", "--n", "20000", "--k", "5000", "--exact",
                       "--no-timestamp")
    assert code == 0
    assert str(qfi_closed_nk(20000, 5000)) in out


def test_qfi_oracle_crosscheck(capsys):
    code, out, _ = run(capsys, "qfi", "--n", "4", "--k", "2", "--oracle",
                       "--no-timestamp")
    assert code == 0
    assert "oracle max deviation" in out


def test_qfi_scan_ratio(capsys):
    code, out, _ = run(capsys, "qfi", "--n", "100", "--a", "1/4", "--exact",
                       "--no-timestamp")
    assert code == 0
    assert "k = 25" in out
    assert "ratio_limit_form" in out


def test_ppt_cut_table(capsys):
    code, out, _ = run(capsys, "ppt", "--n", "6", "--k", "2", "--no-timestamp")
    assert code == 0
    assert "certificate: holds" in out
    assert "cut 1: PPT" in out
    assert "cut 2: NPPT" in out
    assert "cut 3: NPPT" in out
    # a mixed member is labelled with its m
    code, out, _ = run(capsys, "ppt", "--n", "8", "--k", "2", "--m", "1", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[1] == "rho_8,2,1: single-qubit PPT certificate: holds"


def test_ppt_json_rows(capsys):
    code, out, _ = run(capsys, "ppt", "--n", "6", "--k", "2", "--format", "json",
                       "--no-timestamp", "--oracle")
    assert code == 0
    payload = json.loads(out)
    rows = {r["cut_size"]: r for r in payload["cuts"]}
    assert rows[1]["status"] == "PPT"
    assert rows[2]["status"] == "NPPT"
    assert rows[2]["witness_mask"] is not None
    assert payload["oracle_max_deviation"] <= 1e-9


def test_ppt_oracle_above_dense_cap_exits_3(capsys):
    code, out, err = run(capsys, "ppt", "--n", "13", "--k", "4", "--oracle",
                         "--no-timestamp")
    assert code == 3
    assert out == ""
    assert "size limit" in err
    # far above the cap the refusal comes before any per-sector spectrum
    code, out, err = run(capsys, "ppt", "--n", "64", "--k", "16", "--oracle",
                         "--no-timestamp")
    assert (code, out) == (3, "")
    assert "size limit" in err
    # an empty cut list is refused, so no oracle row can be left out
    code, out, _ = run(capsys, "ppt", "--n", "14", "--k", "3", "--cuts", ",",
                       "--oracle", "--no-timestamp")
    assert (code, out) == (2, "")


def test_ppt_oracle_certificate_mismatch_exits_4(capsys, monkeypatch):
    # cmd_ppt imports the certificate from ptranspose as it runs
    import ghzmetro.ptranspose as ptranspose
    from ghzmetro.ptranspose import CertificateResult

    monkeypatch.setattr(ptranspose, "ppt_single_qubit_certificate",
                        lambda state: CertificateResult(False, 0, 1))
    code, out, err = run(capsys, "ppt", "--n", "6", "--k", "2", "--oracle",
                         "--no-timestamp")
    assert code == 4
    assert out == ""
    assert "certificate" in err


@pytest.mark.parametrize("k, status", [(2, "PPT"), (3, "NPPT")])
def test_ppt_oracle_catches_a_wrong_verdict(capsys, monkeypatch, k, status):
    # rho_{6,2} is NPPT at cuts 2 and 3 and rho_{6,3} is PPT at every cut;
    # reporting the opposite verdict must fail the oracle, not print a table
    import ghzmetro.ptranspose as ptranspose
    from ghzmetro.ptranspose import CutStatus

    def flipped(state, cut_sizes):
        return [CutStatus(m, status, None if status == "PPT" else (1 << m) - 1)
                for m in range(1, state.n // 2 + 1)]

    monkeypatch.setattr(ptranspose, "cut_classification", flipped)
    code, out, err = run(capsys, "ppt", "--n", "6", "--k", str(k), "--oracle",
                         "--no-timestamp")
    assert (code, out) == (4, "")
    assert "reported " + status in err


def test_ppt_boundary_member_all_cuts_ppt(capsys):
    code, out, _ = run(capsys, "ppt", "--n", "12", "--k", "6", "--cuts", "all",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert [r["cut_size"] for r in payload["cuts"]] == list(range(1, 7))
    assert all(r["status"] == "PPT" for r in payload["cuts"])


def test_ppt_witness_is_first_subset_beyond_twelve_qubits(capsys):
    code, out, _ = run(capsys, "ppt", "--n", "14", "--k", "3", "--no-timestamp")
    assert code == 0
    assert "cut 1: PPT" in out
    for m in range(2, 8):
        assert f"cut {m}: NPPT (witness mask {(1 << m) - 1:#06b}" in out


def test_bell_row(capsys):
    code, out, _ = run(capsys, "bell", "--n", "4", "--k", "2", "--no-timestamp",
                       "--oracle")
    assert code == 0
    header, row = out.strip().splitlines()[1:3]
    assert header == "n,k,f_q,f_q_over_n,hs_norm_sq,verdict"
    fields = row.split(",")
    assert fields[0] == "4"
    assert float(fields[4]) == pytest.approx(49 / 121)
    assert fields[5] == "neither"


def test_bell_oracle_deviation_goes_to_stderr(capsys):
    # n = 8 is checked by the exact mask scan; the CSV body keeps its two rows
    code, out, err = run(capsys, "bell", "--n", "8", "--k", "2", "--oracle",
                         "--no-timestamp")
    assert code == 0
    _, header, row = out.splitlines()
    assert header == "n,k,f_q,f_q_over_n,hs_norm_sq,verdict"
    assert row.startswith("8,2,")
    label, value = err.strip().split(" = ")
    assert label == "oracle max deviation"
    assert float(value) <= 1e-9


def test_exact_prints_bell_norms_as_rationals(capsys):
    code, out, _ = run(capsys, "bell", "--n", "8", "--k", "2", "--exact", "--components",
                       "--no-timestamp")
    assert code == 0
    assert out.splitlines()[2] == "8,2,352/37,44/37,1593/1369,both,1152/1369,441/1369"
    # without --exact the same columns stay 17-digit decimals
    code, out, _ = run(capsys, "bell", "--n", "8", "--k", "2", "--components",
                       "--no-timestamp")
    assert out.splitlines()[2] == ("8,2,9.513513513513514,1.1891891891891893,"
                                   "1.1636230825420015,both,0.84149013878743606,"
                                   "0.32213294375456536")
    for exact in (True, False):
        code, out, _ = run(capsys, "figure", "--id", "4", "--k", "3", "--n", "10,6,8",
                           *(("--exact",) if exact else ()), "--no-timestamp")
        assert code == 0
        for line in out.splitlines()[2:]:
            n, k, _, hs, _ = line.split(",")
            expected = hs_norm_sq(build_rho_nk(int(n), int(k)))
            assert hs == (str(expected) if exact else format(float(expected), ".17g"))


def test_bell_runs_at_n17(capsys):
    code, out, _ = run(capsys, "bell", "--n", "17", "--k", "2", "--no-timestamp")
    assert code == 0
    assert out.strip().splitlines()[2].startswith("17,2,")


def test_bell_and_ppt_beyond_twenty_qubits(capsys):
    # family members are band states: no 2^(n-1) table, no size guard
    code, out, _ = run(capsys, "bell", "--n", "64", "--k", "16", "--exact",
                       "--no-timestamp")
    assert code == 0
    f_q = "272324527646980096/713250450657109"
    assert Fraction(f_q) == ghzmetro.qfi_closed_nk(64, 16)
    hs = "2072842816599377469676793651417657/508726205362569080329892237881"
    assert format(float(Fraction(hs)), ".17g") == "4074.5744857433929"
    assert out.splitlines()[2] == (f"64,16,{f_q},4255070744484064/713250450657109,"
                                   f"{hs},both")
    code, out, _ = run(capsys, "ppt", "--n", "64", "--k", "16", "--no-timestamp")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:4] == ["rho_64,16: single-qubit PPT certificate: holds", "cut 1: PPT",
                          "cut 2: NPPT (witness mask 0b0011 = qubits (63, 64))"]
    assert len(lines) == 34 and lines[-1].startswith(
        f"cut 32: NPPT (witness mask {(1 << 32) - 1:#b} = qubits (33, ")


def test_sector_listing_commands_keep_size_cap(capsys):
    for argv in (("state", "--n", "21", "--k", "2"),
                 ("estimate", "--n", "21", "--k", "2", "--theta", "0.05",
                  "--model", "sector-parity")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "size limit" in err


@pytest.mark.parametrize("argv", [
    ("bell", "--n", "10000000000", "--k", "1"),
    ("ppt", "--n", "67108865", "--k", "1"),
    ("qfi", "--n", "40000", "--k", "5000"),
    ("estimate", "--n", "10000000000", "--k", "1", "--theta", "0.3"),
])
def test_family_past_the_row_budget_exits_3(capsys, argv):
    # (k + m + 1) n bits of rows past 2^27 is refused before any row is built
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("size limit:")


@pytest.mark.parametrize("argv", [
    ("ppt", "--n", "100000", "--k", "1"),  # about 11 GB of witness masks and qubits
    ("ppt", "--n", "20000", "--k", "1", "--cuts", ",".join(map(str, range(5000, 10001)))),
    ("figure", "--id", "2", "--n-max", "1000000000000"),
    ("figure", "--id", "2", "--n-max", "1" + "0" * 30),  # past what len() of a range takes
    ("figure", "--id", "2", "--k", "2,3", "--n-max", "40000"),
    ("figure", "--id", "4", "--n", "4..1000000000000"),
    ("figure", "--id", "3", "--a", "1/8,1/4", "--n", ",".join(map(str, range(8, 40008)))),
])
def test_listing_past_its_budget_exits_3(capsys, argv):
    # refused from the counts alone, before any cut is classified or grid built
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("size limit:")


@pytest.mark.parametrize("argv, last_cut", [
    (("ppt", "--n", "4000", "--k", "1000"), 2000),  # 14 MB of cuts
    (("ppt", "--n", "2001", "--k", "1000"), 1000),
    (("ppt", "--n", "1600", "--k", "400"), 800),
    (("ppt", "--n", "100000", "--k", "1", "--cuts", "1"), 1),
])
def test_largest_ppt_listings_run(capsys, argv, last_cut):
    code, out, err = run(capsys, *argv, "--no-timestamp")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith(f"cut {last_cut}: ")


def test_grid_of_the_point_limit_runs(capsys, monkeypatch):
    import ghzmetro.cli as cli_mod

    limit = cli_mod.GRID_POINT_LIMIT
    assert parse_list(f"1..{limit}", "--n", int)[-1] == limit
    with pytest.raises(SizeLimitError):
        parse_list(f"0..{limit}", "--n", int)
    # figure 4's default grid is k = 2, 3 by n = 4..10, 14 points
    monkeypatch.setattr(cli_mod, "GRID_POINT_LIMIT", 14)
    for argv, code in [(("figure", "--id", "4"), 0),
                       (("figure", "--id", "4", "--n", "4..11"), 3),
                       (("figure", "--id", "2", "--k", "2", "--n-max", "14"), 0),
                       (("figure", "--id", "2", "--k", "2", "--n-max", "15"), 3)]:
        assert run(capsys, *argv)[0] == code


@pytest.mark.parametrize("n, k", [(9, 2), (64, 16), (101, 25), (1000, 1)])
def test_cut_rows_fit_the_listing_bound(capsys, n, k):
    # the ppt guard counts at most 100 + m (d + 3) bytes for the row of cut m,
    # d the digits of n, in text and in JSON
    cuts = ",".join(map(str, range(1, n)))
    bound = {m: 100 + m * (len(str(n)) + 3) for m in range(1, n)}
    _, out, _ = run(capsys, "ppt", "--n", str(n), "--k", str(k), "--cuts", cuts)
    rows = [line for line in out.splitlines() if line.startswith("cut ")]
    assert len(rows) == n - 1
    for m, line in enumerate(rows, 1):
        assert len(line) + 1 <= bound[m]
    _, out, _ = run(capsys, "ppt", "--n", str(n), "--k", str(k), "--cuts", cuts,
                    "--format", "json")
    for row in json.loads(out)["cuts"]:
        text = json.dumps([row], indent=2)  # as indented one level deeper in the payload
        assert len(text) + 2 * text.count("\n") <= bound[row["cut_size"]]


def test_global_parity_estimate_has_no_size_cap(capsys):
    # global parity reads the O(n) band classes, not the 2^(n-1) sectors
    code, out, err = run(capsys, "estimate", "--n", "64", "--k", "16", "--theta", "0.02",
                         "--reps", "3", "--no-timestamp")
    assert (code, err) == (0, "")
    run_ = json.loads(out)["run"]
    assert run_["model"] == "global-parity" and len(run_["estimates"]) == 3
    assert 0 < run_["fisher_classical"] <= run_["fisher_quantum"]


@pytest.mark.parametrize("n", [1045, 1046])
def test_bell_norm_past_the_float_range_prints_inf(capsys, n):
    # 2^(n-1) sum d^2 passes 2^1024 at n = 1046 for k = 1; the verdict is exact
    hs = hs_norm_sq(build_rho_nk(n, 1))
    decimal = "inf" if n == 1046 else format(float(hs), ".17g")
    code, out, _ = run(capsys, "bell", "--n", str(n), "--k", "1", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[2].split(",")[4:] == [decimal, "Bell-only"]
    code, out, _ = run(capsys, "bell", "--n", str(n), "--k", "1", "--exact",
                       "--no-timestamp")
    assert code == 0 and out.splitlines()[2].split(",")[4] == str(hs)
    code, out, _ = run(capsys, "bell", "--n", str(n), "--k", "1", "--format", "json",
                       "--components", "--no-timestamp")
    assert code == 0 and json.loads(out)["row"]["hs_norm_sq"] == decimal
    code, out, _ = run(capsys, "figure", "--id", "4", "--n", str(n), "--k", "1",
                       "--no-timestamp")
    assert code == 0 and out.splitlines()[2].split(",")[3:] == [decimal, "Bell-only"]


def test_figure2_monotone(capsys):
    code, out, _ = run(capsys, "figure", "--id", "2", "--n-max", "40",
                       "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "n,k,f_q,n_times_k,ratio"
    ratios = {}
    for line in lines[2:]:
        n, k, _, _, ratio = line.split(",")
        ratios.setdefault(int(k), []).append(float(ratio))
    for k, series in ratios.items():
        assert all(a < b for a, b in zip(series, series[1:]))
        assert all(r < 1 for r in series)


def test_figure3_bound_below_value(capsys):
    code, out, _ = run(capsys, "figure", "--id", "3", "--a", "1/4", "--n",
                       "8..60", "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,a,k,f_q,lower_bound,ratio_limit_form,ratio_bound_form"
    for line in lines[2:]:
        fields = line.split(",")
        assert float(fields[4]) <= float(fields[3])


def test_figure3_skips_points_without_a_valid_k(capsys):
    # k = round(a n) must lie in [1, ceil(n/2) - 1], which no n < 3 allows
    code, out, _ = run(capsys, "figure", "--id", "3", "--n", "2..6", "--no-timestamp")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert [(row[0], row[1]) for row in rows] == [
        (str(n), a) for a in ("1/8", "1/4", "3/8") for n in range(3, 7)]
    code, out, err = run(capsys, "figure", "--id", "3", "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: figure 3: no family member in the requested grid\n"
    for grid in ((), ("--n", "2..6")):
        code, out, err = run(capsys, "figure", "--id", "3", "--a", "1/2", *grid)
        assert (code, out) == (2, "")
        assert err == "error: need 0 < a < 1/2, got a = 1/2\n"


def test_figure4_detection(capsys):
    code, out, _ = run(capsys, "figure", "--id", "4", "--k", "2", "--n", "4..8",
                       "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "n,k,f_q_over_n,hs_norm_sq,verdict"
    rows = {int(line.split(",")[0]): line.split(",") for line in lines[2:]}
    assert rows[7][4] == "QFI-only detection"
    assert float(rows[7][3]) < 1
    assert float(rows[7][2]) > 1


def test_figure4_runs_at_n17(capsys):
    code, out, _ = run(capsys, "figure", "--id", "4", "--n", "16..17", "--k", "2",
                       "--no-timestamp")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_figure4_runs_to_forty_qubits(capsys):
    code, out, _ = run(capsys, "figure", "--id", "4", "--n", "4..40", "--no-timestamp")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 + 37 + 35  # k = 2 from n = 4, k = 3 from n = 6
    assert lines[-1] == "40,3,2.5003270722362396,3941525.4968661941,both"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "fig2.csv"
    code, out, _ = run(capsys, "figure", "--id", "2", "--n-max", "10",
                       "--output", str(target), "--no-timestamp")
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "n,k,f_q,n_times_k,ratio"


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "row.csv"
    code, out, err = run(capsys, "bell", "--n", "8", "--k", "2", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--output" in err
    assert not target.parent.exists()
    # an empty path names no file; it does not mean stdout
    for output in (["--output", ""], ["--output="]):
        code, out, err = run(capsys, "bell", "--n", "8", "--k", "2", *output)
        assert (code, out) == (2, "")
        assert err == "error: cannot write --output '': No such file or directory\n"


@pytest.mark.parametrize("argv, rows", [
    (("ppt", "--n", "8", "--k", "2", "--cuts", "2,2"), ["cut 2: NPPT"]),
    (("figure", "--id", "4", "--k", "2,2", "--n", "4..5"), ["4,2,", "5,2,"]),
    (("figure", "--id", "3", "--a", "1/4,1/4", "--n", "8,8"), ["8,1/4,2,"]),
    (("figure", "--id", "3", "--a", "1/4,2/8", "--n", "8"), ["8,1/4,2,"]),
])
def test_repeated_list_values_print_one_row(capsys, argv, rows):
    code, out, _ = run(capsys, *argv, "--no-timestamp")
    assert code == 0
    body = out.splitlines()[2:]  # below the certificate line or the CSV header
    assert len(body) == len(rows)
    assert all(line.startswith(row) for line, row in zip(body, rows))


# sha256 of stdout, recorded before the figure table and the list parser
# replaced per-figure branches and per-kind parsers.  `estimate` is left out:
# its estimates go through libm (test_readme_run_counts_known_answer pins its
# draws).  Help is printed at a fixed 80 columns; its digests are those of
# argparse's help at 80 columns, recorded before the option table replaced it.
GOLDEN_STDOUT = {
    "state --n 4 --k 2":
        "9c7fcafa3f002ce85d33ab0234c86ac35dfdc131c298bb70dce42fc8941e567c",
    "state --n 8 --k 2 --m 1 --format json":
        "cd985b665b5389f923af3dd409d3f16e5ea61fc101009404b103024de94adecf",
    "qfi --n 7 --k 2 --exact":
        "458c3676d6c3557d5a0faf9eecf60d594889aaa8fca007bab6ae41db9d6f9a47",
    "qfi --n 100 --a 1/4 --exact":
        "8078e4fb6ebdbca30927486cf689fe7337e15c3a2d077bb9071badfae98e495a",
    "ppt --n 6 --k 2 --cuts all":
        "00301b61c50bebd53c60b8a2006c2d46dc6ddcd7dcfd1be70d60fecb8434d02a",
    "bell --n 8 --k 2 --components":
        "8e5caff2e007d83f13c5fbcf7254740e98734f592c4940eadbcc0528e9210636",
    "figure --id 2 --n-max 200":
        "10c10f10d4b1ad78f6fc81dbad6f1cace6d0bf290e1f6e2ad6addbb68f34c90f",
    "figure --id 3 --a 1/8,1/4,3/8 --n 8..120":
        "dcad6d5f70897e6ed7a2061e59048da1c3cc89b70d8a80338818f07260f921f7",
    "figure --id 4 --k 2,3 --n 4..10":
        "699f28c2dba687a15f51063fc0e3cc3d87bfbf20dbfb2114a2d82204b4cfa8a7",
    "figure --id 2": "fb6b10ea117616f4e03a9168f1b57e266f6a6c6dc0b5a208f913c802ed628f2d",
    "figure --id 3": "93500ba1051810de151af73923812db6ec0e400086e397e59ead7c3541e9beaf",
    "figure --id 4": "3cbb8edb435d6829ad002095860b444ff17cec6fb700844603a5c5ce7563523d",
    "figure --id 2 --exact":
        "39d95f3a6dbf72067d66fe2992829caa2063544107773d05c70fd090eb94ee94",
    "figure --id 3 --exact":
        "87fe2eec751766536bb1064d3b226e90fc1f46dc29e02e157ea420bd8998ba38",
    "qfi --n 12 --k 3 --m 2 --exact":
        "a7e1087c3321a64993e5ba9a86b3c739e9632e3ff0fb4f1dd527d4cc6f18038e",
    "--help": "5a84d57246d981f1438b8a5f531a81a9b4da2b83061387aee74b89ea2a8685ab",
    "state --help": "7960f9237d10a26c5490577d8e61c8ce1d8820ed0babf849cd1577a431f5211e",
    "qfi --help": "dc633754a94bb021dc4bd812b5186da4e2f3b302232e44a1e8c0d05686f22967",
    "ppt --help": "effb1a5bec49dd0594dbd74bc61a1c0c5c33800f87f47157f940727c2f3ece8a",
    "bell --help": "1154a4d3326675ae419e2f58c47bb465026ce17a54c2589c536cd4be88b5319a",
    "estimate --help": "08fb990b6e6c83070162c1721eb7d0b7e154174f9adb5a32d3e326e6c464a43b",
    "figure --help": "1c15569bbf551a8feb82a3430f9041dd2ee1bc71e1aad36fce0bbab2bd4703f9",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout_digests(capsys, command):
    try:
        code = main([*command.split(), "--no-timestamp"])
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


@pytest.mark.parametrize("environ", [{"COLUMNS": "40", "LANGUAGE": "de"}, {"COLUMNS": "200"}])
def test_help_and_usage_errors_ignore_the_terminal(capsys, monkeypatch, environ):
    # argparse would read the width from COLUMNS and the language from LANGUAGE
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    for command in ("--help", "figure --help"):
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]
    test_usage_error_prints_the_command_usage_first(capsys)


def same_attributes(plain, argv):
    """Assert that argparse reads ``argv`` to the namespace ``plain``; by repr,
    so that a nan value equals itself."""
    def attributes(namespace):
        return repr(sorted(vars(namespace).items()))

    assert attributes(plain) == attributes(parser(COMMANDS, read_number).parse_args(argv))


# the GOLDEN_STDOUT commands but help, and the request shapes of the benchmark
PLAIN_LINES = [[*command.split(), "--no-timestamp"] for command in GOLDEN_STDOUT
               if not command.endswith("--help")] + [line.split() for line in (
    "qfi --n 7 --k 2 --no-timestamp",
    "qfi --n 17 --k 5 --exact --no-timestamp",
    "qfi --n 12 --k 6 --format json --no-timestamp",
    "qfi --n 9 --k 2 --m 2 --exact --no-timestamp",
    "ppt --n 9 --k 3 --cuts 1,2 --no-timestamp",
    "ppt --n 10 --k 4 --cuts all --format json --no-timestamp",
    "ppt --n 13 --k 3 --no-timestamp",
    "bell --n 14 --k 2 --format json --no-timestamp",
    "estimate --n 7 --k 2 --m 1 --theta 0.232071 --shots 10000 --reps 1 --seed 1816285009 "
    "--model sector-parity --no-timestamp",
)]


@pytest.mark.parametrize("argv", PLAIN_LINES, ids=" ".join)
def test_plain_lines_are_read_as_argparse_reads_them(argv):
    plain = read_plain(argv)
    assert plain is not None
    same_attributes(plain, argv)


# an option value of each shape: valid for some kind, malformed or negative
VALUES = ["7", "2", "0", "12", "+3", "0.3", "1e-2", "inf", "nan", "1/4", "3/8", "1/0",
          "-3", "-0.3", "-.3", "-1e5", "x", "7_0", "\u0667", " 7", "", "all", "1,2",
          "8..12", "-", "--", "--n", "text", "json", "csv", "xml", "sector-parity"]


@st.composite
def command_lines(draw):
    """A command with some of its options, repeats included, shuffled, where
    a required one is now and then left out; each valued option with a value
    from VALUES or its choices, or with none."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[command][2]
    chosen = [option for option in options if option[3] and draw(st.integers(0, 7)) < 7]
    chosen += draw(st.lists(st.sampled_from(options), max_size=8))
    argv = [command]
    for name, kind, *_ in draw(st.permutations(chosen)):
        argv.append(name)
        if kind is not bool:
            choices = [str(choice) for choice in kind] if isinstance(kind, tuple) else []
            value = draw(st.sampled_from(choices + VALUES + [None]))
            argv += [] if value is None else [value]
    return argv


@given(command_lines())
@settings(max_examples=400, deadline=None)
def test_plain_reader_reads_as_argparse(argv):
    # argparse is the oracle: a line the plain reader takes means the same there
    plain = read_plain(argv)
    if plain is not None:
        same_attributes(plain, argv)


def test_qfi_mixed_member_beyond_build_limit(capsys):
    # the mixed-family QFI is a closed form: no 2^(n-1) table, no size guard
    code, out, _ = run(capsys, "qfi", "--n", "100", "--k", "3", "--m", "2",
                       "--exact", "--no-timestamp")
    assert code == 0
    assert "mixed_lower_bound" in out
    code, _, err = run(capsys, "qfi", "--n", "8", "--k", "2", "--m", "-1")
    assert code == 2
    assert "mixing width" in err


def cli_in_fresh_interpreter(*argvs):
    """Exit codes of ``cli.main`` on each argv, run in turn in one new
    interpreter, and the sorted numpy/scipy top-level modules it then holds."""
    probe = ("import contextlib, io, json, sys, ghzmetro.cli as cli\n"
             "codes = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        try:\n"
             "            codes.append(cli.main(argv))\n"
             "        except SystemExit as exc:\n"
             "            codes.append(exc.code)\n"
             "heavy = {m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}\n"
             "print(json.dumps([codes, sorted(heavy)]))")
    src = str(Path(ghzmetro.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    return tuple(json.loads(out))


# every command but --oracle; estimate samples with its own Philox stream,
# so it needs no numpy either.  scipy.optimize alone would add about 0.6 s to
# every command's startup, numpy about 0.17 s
NUMPY_FREE = [
    ["--version"],
    ["qfi", "--n", "7", "--k", "2", "--exact"],
    ["ppt", "--n", "8", "--k", "2", "--cuts", "all", "--format", "json"],
    ["bell", "--n", "8", "--k", "2", "--components"],
    ["state", "--n", "6", "--k", "2"],
    ["figure", "--id", "4"],
    ["estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "2",
     "--shots", "100"],
    ["estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--reps", "2",
     "--shots", "100", "--model", "sector-parity"],
]


def test_exact_commands_start_without_numpy():
    assert cli_in_fresh_interpreter(*NUMPY_FREE) == ([0] * len(NUMPY_FREE), [])


@pytest.mark.parametrize("argv", [
    ["qfi", "--n", "6", "--k", "2", "--oracle"],
    ["ppt", "--n", "6", "--k", "2", "--oracle"],
    ["bell", "--n", "6", "--k", "2", "--oracle"],
    ["qfi", "--n", "8", "--a", "1/4", "--oracle"],
])
def test_float_commands_load_numpy(argv):
    assert cli_in_fresh_interpreter(argv) == ([0], ["numpy"])


def cli_process(argv, refuse_numpy=False):
    """Exit code, stdout and stderr of one ``ghzmetro.cli`` run in a new
    interpreter, and the set of modules that importing ``ghzmetro.cli`` and
    the run added to its ``sys.modules``.  With ``refuse_numpy`` an import
    hook makes numpy unimportable, as in an install without the extra."""
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "class RefuseNumpy:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name.partition('.')[0] == 'numpy':\n"
             "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
             "if sys.argv.pop(1) == 'refuse':\n"
             "    sys.meta_path.insert(0, RefuseNumpy())\n"
             "try:\n"
             "    import ghzmetro.cli\n"
             "    code = ghzmetro.cli.main(sys.argv[1:])\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "sys.stdout.flush()\n"
             "print('LOADED', *sorted(set(sys.modules) - before), file=sys.stderr)\n"
             "sys.exit(code)\n")
    src = str(Path(ghzmetro.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", probe, "refuse" if refuse_numpy else "-",
                           *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    err, _, loaded = proc.stderr.rpartition("LOADED")
    return proc.returncode, proc.stdout, err, set(loaded.split())


START_UP = {"dataclasses", "inspect", "json", "datetime", "argparse", "gettext", "locale"}
USAGE = {"argparse", "gettext", "locale", "ghzmetro.usage"}  # help and usage errors
QFI = {"ghzmetro.states", "ghzmetro.qfi"}
FAMILY_ARGS = ["--n", "8", "--k", "2", "--no-timestamp"]


# each request with the START_UP modules it may load and the library modules it loads
@pytest.mark.parametrize("argv, allowed", [
    (["qfi", "--n", "7", "--k", "2", "--no-timestamp"], QFI),
    (["qfi", "--n", "7", "--k", "2", "--format", "json", "--no-timestamp"], QFI | {"json"}),
    (["qfi", "--n", "7", "--k", "2"], QFI | {"datetime"}),
    (["--version"], set()),  # the request the benchmark's setup time measures
    (["--help"], USAGE),
    (["qfi", "--n", "x"], USAGE),  # a usage error
    (["state", *FAMILY_ARGS], {"ghzmetro.states"}),
    (["ppt", *FAMILY_ARGS], {"ghzmetro.states", "ghzmetro.ptranspose"}),
    (["bell", *FAMILY_ARGS], QFI | {"ghzmetro.bell"}),
    (["figure", "--id", "2", "--n-max", "9", "--no-timestamp"], QFI),
    (["figure", "--id", "3", "--no-timestamp"], QFI),
    (["figure", "--id", "4", "--no-timestamp"], QFI | {"ghzmetro.bell"}),
    (["estimate", *FAMILY_ARGS, "--theta", "0.3", "--reps", "2", "--shots", "100"],
     QFI | {"json", "ghzmetro.estimation"}),
])
def test_cli_start_up_imports(argv, allowed):
    # json is loaded only to write JSON, datetime only to print a timestamp;
    # a command line that parses is read without argparse, gettext or locale.
    # Importing the CLI loads ghzmetro.errors alone, and each request exactly
    # the library modules it runs.
    code, out, err, loaded = cli_process(argv)
    # a usage error exits 2 with stderr alone, any other request 0 with stdout alone
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))
    assert loaded & START_UP <= allowed
    assert {name for name in loaded if name.partition(".")[0] == "ghzmetro"} == {
        "ghzmetro", "ghzmetro.cli", "ghzmetro.errors",
        *(name for name in allowed if name.startswith("ghzmetro."))}


@pytest.mark.parametrize("command", ["qfi", "ppt", "bell"])
def test_oracle_without_numpy_exits_2_naming_the_extra(command):
    code, out, err, loaded = cli_process([command, "--n", "6", "--k", "2", "--oracle"],
                                         refuse_numpy=True)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: --oracle needs numpy: install ghzmetro[oracle]"]
    assert "numpy" not in loaded


@pytest.mark.parametrize("argv", NUMPY_FREE + [
    ["qfi", "--n", "8", "--a", "1/4", "--format", "json"],
    ["ppt", "--n", "8", "--k", "5"],  # a refusal, exit 2
])
def test_commands_without_numpy_run_unchanged(capsys, argv):
    argv = [*argv, "--no-timestamp"] if argv != ["--version"] else argv
    try:
        expected = run(capsys, *argv)
    except SystemExit as exc:
        expected = (exc.code, *capsys.readouterr())
    code, out, err, loaded = cli_process(argv, refuse_numpy=True)
    assert (code, out, err) == expected
    assert "numpy" not in loaded


def test_estimate_models_are_the_parser_choices(capsys):
    _, kind, default, _, _ = next(option for option in COMMANDS["estimate"][2]
                                  if option[0] == "--model")
    assert list(kind) == sorted(estimation.MODELS)
    assert default in kind
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--n", "4", "--k", "1", "--theta", "0.3", "--model", "bogus"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# the JSON each command builds from the fields of its records
JSON_PAYLOADS = [
    (("state", "--n", "4", "--k", "1", "--m", "1"), "state",
     {"n": 4, "entries": [{"i": 0, "lp": "1/11", "lm": "0"},
                          {"i": 1, "lp": "1/22", "lm": "1/22"},
                          {"i": 2, "lp": "1/22", "lm": "1/22"},
                          {"i": 3, "lp": "1/11", "lm": "1/11"},
                          {"i": 4, "lp": "1/22", "lm": "1/22"},
                          {"i": 5, "lp": "1/11", "lm": "1/11"},
                          {"i": 6, "lp": "1/11", "lm": "1/11"},
                          {"i": 7, "lp": "1/22", "lm": "1/22"}]}),
    (("ppt", "--n", "6", "--k", "2", "--cuts", "1,2"), "cuts",
     [{"cut_size": 1, "status": "PPT", "witness_mask": None},
      {"cut_size": 2, "status": "NPPT", "witness_mask": 3}]),
    (("qfi", "--n", "12", "--k", "3", "--m", "1"), "report",
     {"n": 12, "k": 3,
      "f_q": {"exact": "2784/397", "float": 7.012594458438287},
      "snl_ratio": {"exact": "232/397", "float": 0.5843828715365239},
      "lower_bound": None,
      "s_nk": {"exact": "79/299", "float": 0.26421404682274247},
      "m": 1, "a": None, "mixed_lower_bound": {"exact": "6", "float": 6.0},
      "ratio_limit_form": None, "ratio_bound_form": None}),
    (("qfi", "--n", "16", "--a", "1/4"), "report",
     {"n": 16, "k": 4,
      "f_q": {"exact": "76672/2517", "float": 30.4616607071911},
      "snl_ratio": {"exact": "4792/2517", "float": 1.9038537941994438},
      "lower_bound": {"exact": "256/17", "float": 15.058823529411764},
      "s_nk": {"exact": "697/2517", "float": 0.27691696464044496},
      "m": None, "a": "1/4", "mixed_lower_bound": None,
      "ratio_limit_form": {"exact": "2396/2517", "float": 0.9519268970997219},
      "ratio_bound_form": {"exact": "4792/2517", "float": 1.9038537941994438}}),
]


@pytest.mark.parametrize("argv, key, payload", JSON_PAYLOADS)
def test_json_payload_of_each_record(capsys, argv, key, payload):
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    assert code == 0
    assert json.loads(out)[key] == payload


def test_estimate_json_holds_every_run_field(capsys):
    argv = ("--n", "4", "--k", "2", "--theta", "0.3", "--shots", "100", "--reps", "2",
            "--seed", "1", "--model", "sector-parity")
    code, out, _ = run(capsys, "estimate", *argv, "--no-timestamp")
    assert code == 0
    record = estimation.run_monte_carlo(build_rho_nk(4, 2), 0.3, "sector-parity",
                                        shots=100, repetitions=2, seed=1)
    assert json.loads(out)["run"] == {
        "model": "sector-parity", "theta_true": 0.3, "shots": 100, "repetitions": 2,
        "seed": 1, "rng_algorithm": "philox4x64", "estimates": record.estimates,
        "empirical_std": record.empirical_std, "empirical_std_err": record.empirical_std_err,
        "crlb": record.crlb, "fisher_classical": record.fisher_classical,
        "fisher_quantum": record.fisher_quantum, "bracket": list(record.bracket),
        "state_params": {"n": 4, "k": 2, "m": None}}


@pytest.mark.parametrize("argv", [
    ("--theta", "7e7"), ("--theta", "1e8"), ("--theta", "1e12"),
    ("--theta", "1e17", "--bracket", "1e3"), ("--theta", "0.3", "--bracket", "1e300"),
])
def test_estimate_ends_at_large_theta(argv):
    # from |theta| = 2^26 on, adjacent floats lie more than MLE_TOL apart, so
    # the golden-section bracket stops narrowing; the search then stops too.
    # A new process with a timeout makes a search that never ends fail here.
    src = str(Path(ghzmetro.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "ghzmetro.cli", "estimate", "--n", "4",
                           "--k", "2", *argv, "--reps", "1", "--no-timestamp"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    if "--bracket" in argv:  # one grid step spans more than a quarter fringe period
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "too wide" in proc.stderr
    else:  # the default bracket holds one fringe branch
        assert (proc.returncode, proc.stderr) == (0, "")
        run_ = json.loads(proc.stdout)["run"]
        assert abs(run_["estimates"][0] - run_["theta_true"]) <= 3 * run_["crlb"]


def test_estimate_refuses_before_sampling(capsys, monkeypatch):
    # a bracket with 0 strictly inside holds theta' and its mirror -theta',
    # which the likelihood cannot tell apart: refused before any repetition.
    # At theta = 1e-3 the default bracket of rho_{8,2} reaches past 0; every
    # estimate landed near 0, a spread a third of the Cramer-Rao bound
    def no_sampling(seed, stream):
        raise AssertionError("sampled a request it refuses")

    monkeypatch.setattr(estimation, "_rng", no_sampling)
    for n, theta in (("6", "0"), ("8", "1e-3")):
        code, out, err = run(capsys, "estimate", "--n", n, "--k", "2", "--theta", theta,
                             "--model", "sector-parity", "--reps", "20")
        assert (code, out) == (2, "")
        assert "mirror-symmetric" in err and "mirror -theta'" in err


def test_estimate_reports_a_flat_likelihood(capsys):
    # across these brackets the likelihood is flat to float precision, so
    # grid maxima far apart tie and no narrower bracket helps; at 1e-200
    # F_C = F_Q, so the request reaches the search before it is refused
    for n, k, theta, bracket in (("12", "3", "1e-7", "5e-8"), ("8", "2", "1e-200", "5e-201")):
        code, out, err = run(capsys, "estimate", "--n", n, "--k", k, "--theta", theta,
                             "--bracket", bracket, "--model", "sector-parity",
                             "--reps", "2", "--shots", "100")
        assert (code, out) == (2, "")
        assert "more than 4 grid steps apart" in err and "flat to float precision" in err


def test_estimate_sector_parity_model(capsys):
    code, out, _ = run(capsys, "estimate", "--n", "6", "--k", "2", "--theta",
                       "0.25", "--model", "sector-parity", "--shots", "500",
                       "--reps", "3", "--seed", "9", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["run"]["model"] == "sector-parity"
    assert payload["run"]["fisher_classical"] == pytest.approx(
        payload["run"]["fisher_quantum"], rel=1e-9
    )  # sector parity saturates the family QFI away from fringe nodes


def test_oracle_failure_exit_code(capsys, monkeypatch):
    import ghzmetro.oracles as oracles

    monkeypatch.setattr(oracles, "qfi_from_dense", lambda rho, gen: 1e9)
    code, _, err = run(capsys, "qfi", "--n", "4", "--k", "2", "--oracle")
    assert code == 4
    assert "cross-check" in err
