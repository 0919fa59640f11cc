"""CLI contracts: output formats, determinism, exit codes."""
import json

import pytest

from ghzmetro.cli import main, parse_fraction, parse_range
from ghzmetro.states import GhzDiagonalState


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_helpers():
    assert parse_range("8..12") == [8, 9, 10, 11, 12]
    assert parse_range("4,6,8") == [4, 6, 8]
    assert parse_range("7") == [7]
    assert str(parse_fraction("1/4")) == "1/4"


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
    state = GhzDiagonalState.from_json_dict(payload["state"])
    assert state.trace() == 1
    assert payload["state"]["entries"][0]["lp"] == "1/93"


def test_state_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "state", "--n", "4", "--k", "3")
    assert code == 2
    assert "error" in err


def test_qfi_exact_output(capsys):
    code, out, _ = run(capsys, "qfi", "--n", "7", "--k", "2", "--exact",
                       "--no-timestamp")
    assert code == 0
    assert "224/29" in out


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


def test_bell_runs_at_n17(capsys):
    code, out, _ = run(capsys, "bell", "--n", "17", "--k", "2", "--no-timestamp")
    assert code == 0
    assert out.strip().splitlines()[2].startswith("17,2,")


def test_bell_size_cap_exit_code(capsys):
    code, _, err = run(capsys, "bell", "--n", "21", "--k", "2")
    assert code == 3
    assert "size limit" in err


def test_estimate_reproducible_bytes(capsys):
    args = ("estimate", "--n", "4", "--k", "2", "--theta", "0.3",
            "--shots", "400", "--reps", "4", "--seed", "42", "--no-timestamp")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["run"]["seed"] == 42
    assert len(payload["run"]["estimates"]) == 4


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


def test_figure4_range_cap(capsys):
    code, out, err = run(capsys, "figure", "--id", "4", "--n", "4..21")
    assert code == 3
    assert out == ""
    assert "size limit" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "fig2.csv"
    code, out, _ = run(capsys, "figure", "--id", "2", "--n-max", "10",
                       "--output", str(target), "--no-timestamp")
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "n,k,f_q,n_times_k,ratio"


def test_byte_identical_without_timestamp(capsys):
    args = ("figure", "--id", "2", "--n-max", "12", "--exact", "--no-timestamp")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b


def test_qfi_json_payload(capsys):
    code, out, _ = run(capsys, "qfi", "--n", "8", "--k", "2", "--m", "1",
                       "--format", "json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["f_q"]["exact"] == "352/93"
    assert payload["report"]["mixed_lower_bound"]["exact"] == "16/5"


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
    import ghzmetro.cli as cli_mod

    monkeypatch.setattr(cli_mod, "qfi_from_dense", lambda rho, gen: 1e9)
    code, _, err = run(capsys, "qfi", "--n", "4", "--k", "2", "--oracle")
    assert code == 4
    assert "cross-check" in err
