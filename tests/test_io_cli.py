import json

import numpy as np
import pytest

from rspcert import ParseError, verify_rsp_witness
from rspcert.cli import build_parser, main
from rspcert.io import load_matrix, load_vector

from conftest import (DENSE_A, DENSE_B, TIED_A, TIED_B, TIED_X_FULL,
                      TIED_X_SPARSE, TRIPLE_A, TRIPLE_B, UNIQUE_A, UNIQUE_B,
                      UNIQUE_X, write_csv_matrix, write_csv_vector)


# ------------------------------------------------------------------- parsing

def test_csv_matrix_roundtrip(tmp_path):
    path = tmp_path / "a.csv"
    write_csv_matrix(path, UNIQUE_A)
    assert np.array_equal(load_matrix(path), UNIQUE_A)


def test_matrixmarket_array_is_column_major(tmp_path):
    path = tmp_path / "a.mtx"
    A = np.array([[1.0, 3.0], [2.0, 4.0]])
    path.write_text("%%MatrixMarket matrix array real general\n"
                    "% a comment line\n"
                    "2 2\n1\n2\n3\n4\n")
    assert np.array_equal(load_matrix(path), A)


def test_matrixmarket_header_may_follow_blank_lines(tmp_path):
    # The format is picked from the first non-blank line; the header is read
    # there too, and positions stay 1-based lines of the file.
    path = tmp_path / "a.mtx"
    path.write_text("\n  \n%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    assert np.array_equal(load_matrix(path), [[1.0, 3.0], [2.0, 4.0]])
    path.write_text("\n%%MatrixMarket matrix coordinate real general\n2 2\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (2, 1)
    path.write_text("\n%%MatrixMarket matrix array real general\n2 2\n1\nx\n3\n4\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (5, 1)
    # A missing size line is reported at the file's last line, a bad one at its own.
    for body, message, line in (("% only a comment\n\n", "missing size line", 4),
                                ("% comment\n\n2 2 2\n1\n", "size line must hold two integers", 5),
                                ("2 x\n1\n", "size line must hold two integers", 3)):
        path.write_text(f"\n%%MatrixMarket matrix array real general\n{body}")
        with pytest.raises(ParseError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:{line}:1: {message}"


def test_csv_vector_roundtrip(tmp_path):
    path = tmp_path / "b.csv"
    write_csv_vector(path, UNIQUE_B)
    assert np.array_equal(load_vector(path), UNIQUE_B)


def test_parse_error_carries_line_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert err.value.line == 2
    assert err.value.column == 2


def test_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_vector_rejects_multiple_columns(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2\n")
    with pytest.raises(ParseError):
        load_vector(path)


def test_matrixmarket_entry_count_checked(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
    with pytest.raises(ParseError):
        load_matrix(path)


@pytest.mark.parametrize("size", ["-1 -1\n1", "0 3"], ids=["negative", "zero"])
def test_matrixmarket_size_must_be_positive(tmp_path, size):
    # Neither size may reach numpy: "-1 -1" with one entry would reshape to
    # (-1, -1) and "0 3" to an empty matrix, both failing with no location.
    path = tmp_path / "empty.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n% comment\n{size}\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert (err.value.line, err.value.column) == (3, 1)
    assert str(err.value).startswith(f"{path}:3:1: array size ")


# ----------------------------------------------------------------- CLI paths

def _write_system(tmp_path, A, b, x=None):
    a_path = tmp_path / "A.csv"
    b_path = tmp_path / "b.csv"
    write_csv_matrix(a_path, A)
    write_csv_vector(b_path, b)
    paths = [str(a_path), str(b_path)]
    if x is not None:
        x_path = tmp_path / "x.csv"
        write_csv_vector(x_path, x)
        paths.append(str(x_path))
    return paths


def test_certify_yes_exit_zero(tmp_path, capsys):
    args = _write_system(tmp_path, UNIQUE_A, UNIQUE_B, UNIQUE_X)
    assert main(["certify", *args]) == 0
    assert "yes" in capsys.readouterr().out


def test_certify_rank_deficient_exit_three(tmp_path):
    args = _write_system(tmp_path, TIED_A, TIED_B, TIED_X_FULL)
    assert main(["certify", *args]) == 3


def test_certify_rsp_failed_exit_three(tmp_path):
    args = _write_system(tmp_path, TIED_A, TIED_B, TIED_X_SPARSE)
    assert main(["certify", *args]) == 3


def test_certify_non_solution_exit_two(tmp_path):
    args = _write_system(tmp_path, UNIQUE_A, UNIQUE_B, np.array([1.0, 0, 0, 0]))
    assert main(["certify", *args]) == 2


def test_certify_weighted_flag(tmp_path):
    args = _write_system(tmp_path, UNIQUE_A, UNIQUE_B, UNIQUE_X)
    w_path = tmp_path / "w.csv"
    write_csv_vector(w_path, np.array([2.0, 2.0, 1.0, 1.0]))
    assert main(["certify", *args, "--weights", str(w_path)]) == 0


def test_malformed_csv_exit_one_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,oops\n")
    b_path = tmp_path / "b.csv"
    write_csv_vector(b_path, UNIQUE_B)
    assert main(["solve-l1", str(bad), str(b_path)]) == 1
    assert ":1:2:" in capsys.readouterr().err


@pytest.mark.parametrize("bad, body, where, message", [
    ("A", "1,0,-1,-1\n0,-1,nan,6\n0,0,-1,1\n", "2:3", "non-finite entry 'nan'"),
    ("b", "0.5\n inf\n0\n", "2:1", "non-finite entry 'inf'"),
    ("A", "1,0,-1,-1\n\n \n0,-1,-1,x\n0,0,-1,1\n", "4:4", "invalid number 'x'"),
    ("b", "0.5\n\n-0.5\n\nzero\n", "5:1", "invalid number 'zero'"),
    ("A", "", "1:1", "empty matrix file"),
    ("A", "\n  \n\n", "1:1", "empty matrix file"),
    ("b", "", "1:1", "empty vector file"),
], ids=["nan-entry", "inf-entry", "blank-matrix-rows", "blank-vector-lines",
        "empty-matrix", "blank-matrix", "empty-vector"])
def test_parse_errors_exit_one_with_their_position(tmp_path, capsys, bad, body, where, message):
    # Blank lines are skipped but still counted, so a later error is placed
    # on its own line of the file; an empty file is reported at 1:1.
    paths = {"A": tmp_path / "A.csv", "b": tmp_path / "b.csv"}
    write_csv_matrix(paths["A"], UNIQUE_A)
    write_csv_vector(paths["b"], UNIQUE_B)
    paths[bad].write_text(body)
    assert main(["solve-l1", str(paths["A"]), str(paths["b"])]) == 1
    assert capsys.readouterr().err == f"parse error: {paths[bad]}:{where}: {message}\n"


def _write_mtx(path, A):
    entries = "".join(f"{float(v)!r}\n" for v in np.asarray(A).reshape(-1, order="F"))
    path.write_text("%%MatrixMarket matrix array real general\n"
                    f"{A.shape[0]} {A.shape[1]}\n" + entries)


@pytest.mark.parametrize("suffix", ["csv", "mtx"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, suffix):
    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    plain = [tmp_path / f"A.{suffix}", tmp_path / "b.csv"]
    {"csv": write_csv_matrix, "mtx": _write_mtx}[suffix](plain[0], UNIQUE_A)
    write_csv_vector(plain[1], UNIQUE_B)
    marked = [tmp_path / f"bom_{path.name}" for path in plain]
    for src, dst in zip(plain, marked):
        dst.write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    runs = []
    for paths in (plain, marked):
        code = main(["solve-l1", *map(str, paths)])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "x = [0.5, 0.5, 0, 0]" in runs[0][1]


def test_solve_l1_unique_exit_zero(tmp_path, capsys):
    args = _write_system(tmp_path, UNIQUE_A, UNIQUE_B)
    assert main(["solve-l1", *args]) == 0
    out = capsys.readouterr().out
    assert "x = [0.5, 0.5, 0, 0]" in out


def test_solve_l1_tied_exit_three(tmp_path):
    args = _write_system(tmp_path, TIED_A, TIED_B)
    assert main(["solve-l1", *args]) == 3


def test_solve_l1_infeasible_exit_two(tmp_path):
    args = _write_system(tmp_path, np.array([[1.0, 2.0]]), np.array([-1.0]))
    assert main(["solve-l1", *args]) == 2


def test_classify_always_exit_zero(tmp_path, capsys):
    args = _write_system(tmp_path, TRIPLE_A, TRIPLE_B)
    assert main(["classify", *args]) == 0
    out = capsys.readouterr().out
    assert "class: G2" in out
    assert "equivalent" in out


def test_order_k_no_exit_three(tmp_path):
    from conftest import COHERENT_A
    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, COHERENT_A)
    assert main(["order-k", str(a_path), "--k", "2"]) == 3


def test_order_k_with_oracle_exit_zero(tmp_path, capsys):
    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, np.eye(2))
    assert main(["order-k", str(a_path), "--k", "2", "--oracle"]) == 0
    assert "agreement: True" in capsys.readouterr().out


def test_order_k_budget_exit_six(tmp_path):
    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, np.random.default_rng(1).standard_normal((4, 30)))
    assert main(["order-k", str(a_path), "--k", "8"]) == 6


def test_budget_env_override(tmp_path, monkeypatch):
    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, np.eye(2))
    monkeypatch.setenv("RSPCERT_BUDGET", "1")
    assert main(["order-k", str(a_path), "--k", "2"]) == 6
    monkeypatch.setenv("RSPCERT_BUDGET", "1000")
    assert main(["order-k", str(a_path), "--k", "2"]) == 0


def test_order_k_oracle_disagreement_exit_five(tmp_path, monkeypatch):
    # Fake the oracle to pin the exit-code contract.  No honest input is known
    # to split the two on the supports both of them test; a wrsp no for want
    # of a full-rank size-K support is not such a split (see below).
    import rspcert.cli as cli
    from rspcert.orderk import RecoveryOracleReport

    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, np.eye(2))
    monkeypatch.setattr(cli, "uniform_recovery_oracle",
                        lambda *a, **k: RecoveryOracleReport(False, (0,), 3, 1, 0))
    assert main(["order-k", str(a_path), "--k", "2", "--oracle"]) == 5


@pytest.mark.parametrize("A, k", [
    (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 3),
    (np.hstack([np.eye(3), np.zeros((3, 1))]), 4),
])
def test_order_k_wrsp_without_full_rank_support_is_not_a_mismatch(tmp_path, capsys, A, k):
    # wrsp fails for want of a full-column-rank size-K support, a clause the
    # oracle cannot test; it still recovers on every full-rank support.  The
    # verdict stands (exit 3) and agreement is left undefined.
    a_path = tmp_path / "A.csv"
    out = tmp_path / "report.json"
    write_csv_matrix(a_path, A)
    assert main(["order-k", str(a_path), "--k", str(k), "--property", "wrsp",
                 "--oracle", "--json", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert f"property wrsp of order {k}: no" in stdout
    assert "oracle recovers: True" in stdout
    assert "agreement" not in stdout
    verdicts = json.loads(out.read_text())["verdicts"]
    assert verdicts["recovery"]["no_full_rank_subset"] is True
    assert verdicts["oracle"]["recovers"] is True
    assert "agreement" not in verdicts


def test_classify_searches_sparsest_supports_once(tmp_path, monkeypatch):
    import rspcert.oracle as oracle

    calls = []
    search = oracle.sparsest_supports

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(oracle, "sparsest_supports", counted)
    args = _write_system(tmp_path, TRIPLE_A, TRIPLE_B)
    assert main(["classify", *args]) == 0
    assert len(calls) == 1


def test_lp_sparse_exit_codes(tmp_path):
    args = _write_system(tmp_path, UNIQUE_A, UNIQUE_B)
    c_path = tmp_path / "c.csv"
    write_csv_vector(c_path, np.ones(4))
    assert main(["lp-sparse", *args, str(c_path)]) == 0
    # Unbounded objective over an unbounded feasible set.
    args = _write_system(tmp_path, np.array([[1.0, -1.0]]), np.array([0.0]))
    write_csv_vector(c_path, np.array([-1.0, 0.0]))
    assert main(["lp-sparse", *args, str(c_path)]) == 2


def test_usage_error_exit_one():
    assert main(["certify"]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("flags", [
    ["random-batch", "--count", "-2"],
    ["random-batch", "--count", "1", "--trials", "0"],
    ["order-k", "--oracle", "--trials", "0"],
    ["order-k", "--oracle", "--trials", "-1"],
    ["order-k", "--budget", "-1"],
    ["random-batch", "--count", "1", "--budget", "-1"],
    # A negative seed is refused before the certifier runs.
    ["order-k", "--oracle", "--seed", "-3"],
    ["random-batch", "--count", "1", "--seed", "-3"],
    # Matrix shape and order below 1 are refused before any matrix is drawn.
    ["random-batch", "--count", "1", "--m", "-1"],
    ["random-batch", "--count", "1", "--m", "0"],
    ["random-batch", "--count", "1", "--n", "0"],
    ["random-batch", "--count", "0", "--k", "0"],
])
def test_negative_count_trials_or_budget_exit_one(tmp_path, capsys, flags):
    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, np.eye(2))
    command, *rest = flags
    head = ([command, str(a_path), "--k", "1"] if command == "order-k"
            else [command, "--m", "2", "--n", "4", "--k", "1"])
    assert main(head + rest) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {rest[-2]}: must be at least" in captured.err


@pytest.mark.parametrize("count", ["0", "1"])
def test_random_batch_order_above_n_exit_one(capsys, count):
    assert main(["random-batch", "--m", "2", "--n", "4", "--k", "99", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --k: must be at most --n (4), got 99" in captured.err


def test_negative_budget_env_exit_one(tmp_path, monkeypatch, capsys):
    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, np.eye(2))
    monkeypatch.setenv("RSPCERT_BUDGET", "-1")
    assert main(["order-k", str(a_path), "--k", "1"]) == 1
    assert "RSPCERT_BUDGET must be at least 0" in capsys.readouterr().err
    monkeypatch.setenv("RSPCERT_BUDGET", "abc")
    assert main(["order-k", str(a_path), "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RSPCERT_BUDGET must be an integer, got 'abc'" in captured.err
    monkeypatch.setenv("RSPCERT_BUDGET", "0")
    assert main(["order-k", str(a_path), "--k", "1"]) == 6
    monkeypatch.delenv("RSPCERT_BUDGET")
    assert main(["order-k", str(a_path), "--k", "1", "--budget", "0"]) == 6


def test_a_margin_in_the_tolerance_band_exits_four(tmp_path, capsys):
    # With --rsp-margin 0.9 a yes needs t* <= 0.1; the planted support's t*
    # is near 0.43, so each verdict command exits 4 and classify says
    # indeterminate.
    from conftest import planted_system

    A, b, x = planted_system(np.random.default_rng([2027, 91, 1]), 6, 12, 2)
    args = _write_system(tmp_path, A, b, x)
    margin = ["--rsp-margin", "0.9"]
    assert main(["certify", *args, *margin]) == 4
    assert main(["solve-l1", *args[:2], *margin]) == 4
    assert main(["order-k", args[0], "--k", "1", "--oracle", *margin]) == 4
    capsys.readouterr()
    assert main(["classify", *args[:2], *margin]) == 0
    out = capsys.readouterr().out
    assert "class: indeterminate" in out and "l0/l1 equivalence: indeterminate" in out


def test_a_nearly_dependent_support_prints_the_rank_note(tmp_path, capsys):
    # Column 9 is column 4 plus 3e-8 of column 5: A_S at (4, 9) has a
    # singular value within 10x of the rank threshold.
    A = np.random.default_rng(71).standard_normal((6, 12))
    A[:, 9] = A[:, 4] + 3e-8 * A[:, 5]
    x = np.zeros(12)
    x[[4, 9]] = 0.5
    main(["certify", *_write_system(tmp_path, A, A @ x, x)])
    note = "note: a rank pivot fell near the threshold; rank verdict is marginal"
    assert note in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("flag, value, field", [
    ("--gap-tol", "inf", "gap_tol"),
    ("--rsp-margin", "inf", "rsp_margin"),
    ("--tol-rank", "nan", "rank_tol"),
])
def test_non_finite_tolerance_exit_one(tmp_path, capsys, flag, value, field):
    # An infinite or NaN tolerance would switch its check off; it is refused
    # before any LP runs.
    args = _write_system(tmp_path, UNIQUE_A, UNIQUE_B)
    assert main(["solve-l1", *args, flag, value]) == 1
    assert capsys.readouterr() == ("", f"error: {field} must be finite and strictly positive\n")


def test_missing_file_exit_one(tmp_path):
    assert main(["solve-l1", str(tmp_path / "none.csv"), str(tmp_path / "none2.csv")]) == 1


def test_lp_core_failures_exit_one_with_their_message(tmp_path, monkeypatch, capsys):
    # A pivot-limit breakdown (IterationLimit) and an optimum whose duals
    # fail the certificate re-check: each reaches stderr with exit 1.
    from rspcert import rsp, simplex
    a_path, b_path = tmp_path / "A.csv", tmp_path / "b.csv"
    write_csv_matrix(a_path, UNIQUE_A)
    write_csv_vector(b_path, UNIQUE_B)
    argv = ["solve-l1", str(a_path), str(b_path)]
    solve_batch = simplex.solve_batch
    monkeypatch.setattr(rsp, "solve_batch",
                        lambda lps, tol, **kwargs: solve_batch(lps, tol, max_pivots=1, **kwargs))
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: pivot limit 1 reached\n")
    monkeypatch.undo()
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda M, b: solve(M, b) + 1e-3)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: optimal solve failed its certificate re-check\n")


# ------------------------------------------------------------------- reports

def test_report_witness_reverifies(tmp_path):
    args = _write_system(tmp_path, UNIQUE_A, UNIQUE_B, UNIQUE_X)
    out = tmp_path / "report.json"
    assert main(["certify", *args, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == "1"
    assert report["command"] == "certify"
    assert report["inputs"]["m"] == 3 and report["inputs"]["n"] == 4
    cert = report["verdicts"]["uniqueness"]["rsp"]
    assert cert["holds"] == "yes"
    assert verify_rsp_witness(UNIQUE_A, cert["support"],
                              cert["witness_eta"], cert["witness_y"])


@pytest.mark.parametrize("command", ["solve-l1", "random-batch"])
def test_unwritable_report_prints_no_verdict(tmp_path, capsys, command):
    # The report file is written before any verdict line is printed; with
    # --json - the report follows the lines on stdout, and random-batch,
    # whose lines are its report, prints them once.
    argv = [command, *(_write_system(tmp_path, UNIQUE_A, UNIQUE_B) if command == "solve-l1"
                       else ["--m", "2", "--n", "4", "--k", "1", "--count", "2"])]
    assert main([*argv, "--json", str(tmp_path / "missing" / "report.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ")
    assert main(argv) == 0
    lines = capsys.readouterr().out
    assert main([*argv, "--json", "-"]) == 0
    out = capsys.readouterr().out
    if command == "solve-l1":
        assert out.startswith(lines)
        assert json.loads(out[len(lines):])["command"] == "solve-l1"
    else:
        assert len(out.splitlines()) == len(lines.splitlines()) == 3


def test_to_json_plain_values_and_unknown_types():
    from rspcert.report import to_json

    value = to_json({2: np.int64(3), 1: (np.float64(0.5), np.bool_(True), None)})
    assert value == {"1": [0.5, True, None], "2": 3}
    assert list(value) == ["1", "2"]
    assert [type(v) for v in value["1"][:2]] == [float, bool] and type(value["2"]) is int
    assert to_json(np.arange(4).reshape(2, 2)) == [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(TypeError):
        to_json(object())


def test_report_counterexample_recheckable(tmp_path):
    from conftest import COHERENT_A
    from rspcert import Verdict, check_rsp_at

    a_path = tmp_path / "A.csv"
    write_csv_matrix(a_path, COHERENT_A)
    out = tmp_path / "report.json"
    assert main(["order-k", str(a_path), "--k", "2", "--json", str(out)]) == 3
    report = json.loads(out.read_text())
    counterexample = report["verdicts"]["recovery"]["counterexample"]
    assert check_rsp_at(COHERENT_A, counterexample).holds is Verdict.NO


def test_classify_report_structure(tmp_path):
    args = _write_system(tmp_path, DENSE_A, DENSE_B)
    out = tmp_path / "report.json"
    assert main(["classify", *args, "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdicts"]["equivalence"]["status"] == "not_equivalent"
    assert report["verdicts"]["system_class"]["sparsest"]["supports"] == [[3]]


def test_random_batch_replay_is_byte_identical(capsys):
    argv = ["random-batch", "--m", "2", "--n", "4", "--k", "1",
            "--count", "3", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out

    def strip_timing(text):
        rows = [json.loads(line) for line in text.strip().splitlines()]
        for row in rows:
            row.pop("timing_ms", None)
        return json.dumps(rows)

    assert strip_timing(first) == strip_timing(second)
    # Identical bytes outside the timing field of the summary line.
    head_first, head_second = first.splitlines()[:-1], second.splitlines()[:-1]
    assert head_first == head_second


def test_random_batch_agreement_summary(capsys):
    argv = ["random-batch", "--m", "2", "--n", "4", "--k", "1",
            "--count", "2", "--seed", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["summary"] is True
    assert summary["agreement_rate"] == 1.0
    assert summary["seed"] == 3
    records = [json.loads(line) for line in lines[:-1]]
    assert len(records) == 2
    assert all(record["agree"] in (True, None) for record in records)


def test_random_batch_lists_marginal_verdicts(capsys):
    # With --rsp-margin 0.9 every order-1 verdict of these 2x4 matrices is
    # marginal: the oracle cannot test one, so none is a hard case.
    argv = ["random-batch", "--m", "2", "--n", "4", "--k", "1",
            "--count", "3", "--seed", "9", "--rsp-margin", "0.9"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    assert [(r["verdict"], r["agree"]) for r in records] == [("marginal", None)] * 3
    summary = json.loads(lines[-1])
    assert summary["marginal_indices"] == [0, 1, 2] and summary["hard_cases"] == 0


def test_random_batch_count_zero_emits_summary_only(capsys):
    argv = ["random-batch", "--m", "2", "--n", "4", "--k", "1",
            "--count", "0", "--seed", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["count"] == 0


@pytest.mark.parametrize("command", ["solve-l1", "certify", "lp-sparse"])
def test_budget_flag_is_refused_where_nothing_is_enumerated(tmp_path, capsys, command):
    # These commands solve a fixed number of LPs; a budget would be ignored.
    paths = []
    for name, data in (("A", UNIQUE_A), ("b", UNIQUE_B), ("v", UNIQUE_X)):
        path = tmp_path / f"{name}.csv"
        (write_csv_matrix if name == "A" else write_csv_vector)(path, data)
        paths.append(str(path))
    files = paths if command != "solve-l1" else paths[:2]
    assert main([command, *files, "--budget", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget 0" in captured.err
    assert main([command, *files]) in (0, 3)
    capsys.readouterr()
    assert "budget" not in vars(build_parser().parse_args([command, *files]))
