"""Command-line contract: outputs, exit codes, report round-trips."""

import csv
import json
import math
import threading
from fractions import Fraction

import pytest

from ghkernel import sampling
from ghkernel.cli import canonical_json, main
from ghkernel.identities import DEFAULT_FLOAT_TOLERANCE, matrix_polarization, polarization_pair
from ghkernel.sampling import (
    RngStream,
    chi_merge_samples,
    collect_stats,
    inner_product_lhs_samples,
    inner_product_rhs_samples,
    matrix_trace_rhs_samples,
    matrix_trace_samples,
    sample_chi,
)
from ghkernel.scalars import flt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_polynomial(capsys):
    code, out, _ = run(capsys, "eval", "--m", "2", "--x", "1", "--p", "1")
    assert code == 0
    assert out.strip() == "3"


def test_eval_hermite(capsys):
    code, out, _ = run(capsys, "eval", "--hermite", "--n", "3", "--x", "1")
    assert code == 0
    assert out.strip() == "-4"


def test_eval_degree_zero(capsys):
    code, out, _ = run(capsys, "eval", "--m", "0", "--x", "9", "--p", "9")
    assert code == 0
    assert out.strip() == "1"


def test_eval_rational_and_complex_arguments(capsys):
    # argparse needs the --flag=value form for negative arguments
    code, out, _ = run(capsys, "eval", "--m", "2", "--x", "1/2", "--p=-1/4")
    assert code == 0
    assert out.strip() == "-1/4"
    code, out, _ = run(capsys, "eval", "--m", "2", "--x", "0+1i", "--p", "0")
    assert code == 0
    assert out.strip() == "-1"


def test_eval_float_mode(capsys):
    code, out, _ = run(capsys, "eval", "--m", "2", "--x", "0.5", "--p", "0.25",
                       "--mode", "float")
    assert code == 0
    assert out.strip() == "0.75"


def test_eval_float_mode_high_degree(capsys):
    """The coefficients m!/(k!(m-2k)!) of degree 300 overflow a double;
    the value does not."""
    code, out, _ = run(capsys, "eval", "--m", "300", "--x", "1", "--p", "1e-5",
                       "--mode", "float")
    assert code == 0
    _, exact_out, _ = run(capsys, "eval", "--m", "300", "--x", "1", "--p", "1/100000")
    assert float(out) == pytest.approx(float(Fraction(exact_out.strip())), rel=1e-12)


def test_eval_hermite_float_mode_high_degree(capsys):
    """The coefficients n!/(k!(n-2k)!) of degree 268 overflow a double;
    H_268(1) does not."""
    code, out, _ = run(capsys, "eval", "--hermite", "--n", "268", "--x", "1", "--mode", "float")
    assert code == 0
    _, exact_out, _ = run(capsys, "eval", "--hermite", "--n", "268", "--x", "1")
    assert float(out) == pytest.approx(float(Fraction(exact_out.strip())), rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [("--hermite", "--n", "300", "--x", "1"), ("--m", "400", "--x", "1", "--p", "1")],
    ids=["hermite", "gould-hopper"],
)
def test_eval_float_overflow_exits_2(capsys, argv):
    """|H_300(1)| is about 1e351: a float value that overflowed is refused,
    not printed as nan."""
    code, out, err = run(capsys, "eval", *argv, "--mode", "float")
    assert code == 2
    assert out == ""
    assert "overflows a double; use --mode exact" in err


def test_eval_malformed_numeral_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--m", "2", "--x", "bogus", "--p", "1")
    assert code == 2
    assert "error" in err


def test_eval_missing_arguments_exit_2(capsys):
    code, _, _ = run(capsys, "eval", "--m", "2", "--x", "1")
    assert code == 2
    code, _, _ = run(capsys, "eval", "--hermite", "--x", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, option",
    [
        (("--hermite", "--n", "3", "--m", "5"), "--m"),
        (("--hermite", "--n", "3", "--p", "2"), "--p"),
        (("--m", "2", "--p", "1", "--n", "7"), "--n"),
    ],
    ids=["hermite-m", "hermite-p", "gh-n"],
)
def test_eval_rejects_options_it_would_ignore(capsys, argv, option):
    code, out, err = run(capsys, "eval", "--x", "1", *argv)
    assert code == 2
    assert out == ""
    assert f"{option} applies to eval" in err


def test_unknown_identity_exits_2(capsys):
    code = main(["verify", "still-not-an-identity"])
    capsys.readouterr()
    assert code == 2


def test_verify_graczyk_explicit_point_inexact_norms_exit_2(capsys):
    code, _, err = run(capsys, "verify", "graczyk", "--mode", "exact",
                       "--xv", "1,1", "--yv", "1,2")
    assert code == 2
    assert "not a perfect rational square" in err


def test_verify_graczyk_explicit_point_passes(tmp_path, capsys):
    out_file = tmp_path / "point.json"
    code, _, _ = run(capsys, "verify", "graczyk", "--xv", "3,4", "--yv", "3,4",
                     "--p", "1", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["all_pass"] is True
    worked = [r for r in payload["reports"] if r["params"]["M"] == "2"]
    assert worked and worked[0]["lhs"] == "733/2"
    assert worked[0]["verdict"] == "exact-pass"


@pytest.mark.parametrize(
    "xv, yv",
    [("3,,4", "3,4"), ("3,4", "3,4,"), ("3,4", ",3,4"), ("3, ,4", "3,4"), ("", "3,4")],
)
def test_verify_blank_vector_entry_exits_2(capsys, xv, yv):
    code, _, err = run(capsys, "verify", "graczyk", f"--xv={xv}", f"--yv={yv}", "--p", "1")
    assert code == 2
    assert "blank entry in vector" in err


def test_verify_whitespace_around_entries_is_allowed(tmp_path, capsys):
    spaced, plain = tmp_path / "spaced.json", tmp_path / "plain.json"
    assert run(capsys, "verify", "graczyk", "--xv", " 3 , 4", "--yv", "3,4 ", "--p", "1",
               "--out", str(spaced))[0] == 0
    assert run(capsys, "verify", "graczyk", "--xv", "3,4", "--yv", "3,4", "--p", "1",
               "--out", str(plain))[0] == 0
    assert json.loads(spaced.read_text())["reports"] == json.loads(plain.read_text())["reports"]


def test_verify_matrix_sweep_and_json_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "matrix.json"
    code, _, err = run(capsys, "verify", "matrix", "--out", str(out_file))
    assert code == 0
    assert "all pass" in err
    text = out_file.read_text()
    payload = json.loads(text)
    assert canonical_json(payload) == text
    for row in payload["reports"]:
        assert set(row) == {
            "identity", "mode", "params", "lhs", "rhs", "residual",
            "verdict", "spec_version",
        }


def test_verify_float_mode_with_tolerance(tmp_path, capsys):
    out_file = tmp_path / "float.json"
    code, _, _ = run(capsys, "verify", "matrix", "--mode", "float",
                     "--tolerance", "1e-9", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert all(r["verdict"] == "within-tolerance" for r in payload["reports"])


def test_verify_impossible_tolerance_exits_1(tmp_path, capsys):
    out_file = tmp_path / "fail.json"
    # Float matrix residuals are exactly 0; factorization keeps nonzero ones.
    code, _, err = run(capsys, "verify", "factorization", "--mode", "float",
                       "--tolerance", "1e-30", "--out", str(out_file))
    assert code == 1
    assert "FAILURES" in err
    payload = json.loads(out_file.read_text())
    assert payload["all_pass"] is False


def test_verify_float_overflow_exits_2(tmp_path, capsys):
    """The identity holds; float sides of inf and nan decide nothing."""
    out_file = tmp_path / "overflow.json"
    code, _, err = run(capsys, "verify", "graczyk", "--mode", "float", "--xv", "1e200,1",
                       "--yv", "1e200,1", "--p", "1", "--out", str(out_file))
    assert code == 2
    assert "graczyk check at M=1," in err
    assert "overflows a double; use --mode exact" in err
    assert not out_file.exists()


def test_verify_finite_float_failure_still_exits_1(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "graczyk", "--mode", "float",
                       "--tolerance", "1e-300", "--out", str(tmp_path / "fail.json"))
    assert code == 1
    assert "FAILURES present" in err


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_verify_rejects_nonpositive_tolerance(capsys, tolerance):
    code, _, _ = run(capsys, "verify", "matrix", "--mode", "float",
                     f"--tolerance={tolerance}")
    assert code == 2


def test_verify_csv_columns(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "matrix", "--format", "csv",
                     "--out", str(out_file))
    assert code == 0
    with open(out_file, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows
    assert set(rows[0]) == {
        "identity", "mode", "params", "lhs", "rhs", "residual",
        "verdict", "spec_version",
    }
    assert all(json.loads(row["params"]) for row in rows)


def test_sample_inner_product_deterministic(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["sample", "inner-product", "--xv", "3,4", "--yv", "3,4", "--p", "1",
            "--count", "50000", "--seed", "7"]
    code, _, _ = run(capsys, *argv, "--out", str(first))
    assert code == 0
    code, _, _ = run(capsys, *argv, "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["all_pass"] is True
    assert canonical_json(payload) == first.read_text()


def test_sample_negative_p_exits_2(capsys):
    code, _, err = run(capsys, "sample", "inner-product", "--p=-1")
    assert code == 2
    assert "p > 0" in err


def test_sample_zero_p_exits_2(capsys):
    # Without noise there is nothing to sample: the deterministic case is
    # `verify graczyk` at M = 1.
    code, _, err = run(capsys, "sample", "inner-product", "--xv", "1,2", "--yv", "3,-1",
                       "--p", "0")
    assert code == 2
    assert "p > 0" in err


def test_sample_tiny_p_passes(tmp_path, capsys):
    # The noise, and with it z * SE, is far below one ulp of <xv, yv> = 1,
    # while the polarization product pair_x * pair_y is one ulp above it:
    # only the rounding floor of the tolerance lets the true identity pass.
    out_file = tmp_path / "tiny.json"
    code, _, err = run(capsys, "sample", "inner-product", "--xv", "1,2", "--yv", "3,-1",
                       "--p", "1e-32", "--count", "100000", "--out", str(out_file))
    assert code == 0, err
    rows = json.loads(out_file.read_text())["moments"]
    assert any(abs(row["z_score"]) > 5 for row in rows)


def test_sample_rows_carry_z_scores(tmp_path, capsys):
    out_file = tmp_path / "chi.json"
    code, _, _ = run(capsys, "sample", "chi-merge", "--count", "20000", "--seed", "4",
                     "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    lhs, rhs = payload["lhs_stats"]["std_errors"], payload["rhs_stats"]["std_errors"]
    for row in payload["moments"]:
        k = row["order"] - 1
        assert row["z_score"] == row["difference"] / math.hypot(lhs[k], rhs[k])
    for row in payload["exact_verdicts"]:
        assert row["z_score"] == row["difference"] / lhs[row["order"] - 1]


def test_sample_chi_merge(tmp_path, capsys):
    out_file = tmp_path / "chi.json"
    code, _, _ = run(capsys, "sample", "chi-merge", "--a", "3", "--b", "4",
                     "--count", "50000", "--seed", "11", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["exact_moments"] == {"2": 7.0, "4": 63.0}
    assert all(v["verdict"] == "pass" for v in payload["exact_verdicts"])


def test_sample_failing_exact_verdicts_alone_fail(tmp_path, monkeypatch, capsys):
    """Chi-merge's exact verdicts share the one verdict list: with its exact
    targets 10 % off and every two-sample moment passing, `sample` fails."""
    exact = sampling.chi_even_moment
    monkeypatch.setattr(sampling, "chi_even_moment", lambda dof, j: exact(dof, j) * 11 / 10)
    report, table = tmp_path / "chi.json", tmp_path / "chi.csv"
    argv = ("sample", "chi-merge", "--count", "20000", "--seed", "3")
    code, _, err = run(capsys, *argv, "--out", str(report))
    assert code == 1 and "MOMENT MISMATCH" in err
    payload = json.loads(report.read_text())
    assert payload["all_pass"] is False
    assert [v["verdict"] for v in payload["moments"]] == ["pass"] * 4
    assert [v["verdict"] for v in payload["exact_verdicts"]] == ["fail", "fail"]
    assert run(capsys, *argv, "--format", "csv", "--out", str(table))[0] == 1
    with open(table, newline="") as handle:
        rows = list(csv.DictReader(handle))
    verdicts = [(json.loads(row["params"])["verdicts"], row["verdict"]) for row in rows]
    assert verdicts == [("moments", "pass")] * 4 + [("exact_verdicts", "fail")] * 2


def test_sample_matrix_target(tmp_path, capsys):
    out_file = tmp_path / "matrix.json"
    code, _, _ = run(capsys, "sample", "matrix", "--count", "50000",
                     "--seed", "3", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["params"]["shape"] == "2x2"
    assert payload["all_pass"] is True


def test_sample_matrix_is_flattened_inner_product(tmp_path, capsys):
    matrix, vector = tmp_path / "matrix.json", tmp_path / "vector.json"
    common = ("--count", "1000", "--seed", "6")
    assert run(capsys, "sample", "matrix", "--xm", "1,2;3,4", "--ym", "3,-1;0.5,7",
               *common, "--out", str(matrix))[0] == 0
    assert run(capsys, "sample", "inner-product", "--xv", "1,2,3,4", "--yv", "3,-1,0.5,7",
               "--p", "1", *common, "--out", str(vector))[0] == 0
    a, b = json.loads(matrix.read_text()), json.loads(vector.read_text())
    for key in ("moments", "lhs_stats", "rhs_stats"):
        assert a[key] == b[key]
    for key in ("pair_x", "pair_y"):
        assert a["params"][key] == b["params"][key]


def test_sample_tiny_z_exits_1(tmp_path, capsys):
    out_file = tmp_path / "fail.json"
    code, _, _ = run(capsys, "sample", "inner-product", "--count", "50000",
                     "--seed", "5", "--z", "1e-9", "--out", str(out_file))
    assert code == 1


@pytest.mark.parametrize("z", ["0", "-1", "nan", "inf"])
def test_sample_rejects_vacuous_z(capsys, z):
    code, _, err = run(capsys, "sample", "inner-product", "--count", "1000",
                       f"--z={z}")
    assert code == 2
    assert "z threshold" in err


def test_sample_ks_diagnostic(tmp_path, capsys):
    out_file = tmp_path / "ks.json"
    code, _, _ = run(capsys, "sample", "chi-merge", "--count", "20000",
                     "--seed", "2", "--ks", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert 0.0 <= payload["ks"]["statistic"] <= 1.0


def test_sample_csv_output(tmp_path, capsys):
    out_file = tmp_path / "sample.csv"
    code, _, _ = run(capsys, "sample", "chi-merge", "--count", "20000",
                     "--seed", "2", "--format", "csv", "--out", str(out_file))
    assert code == 0
    with open(out_file, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    assert rows[0]["identity"] == "chi-merge"
    params = [json.loads(row["params"]) for row in rows]
    # Four two-sample moments, then the exact targets at orders 2 and 4.
    assert [(p["verdicts"], p["order"]) for p in params] == [
        *(("moments", k) for k in (1, 2, 3, 4)),
        *(("exact_verdicts", k) for k in (2, 4)),
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("order", ["120", "200"])
def test_sample_overflowed_statistics_exit_2(capsys, order):
    """Past some order, x^k overflows a double at these draws: no verdict
    may come from infinite or NaN statistics.  The first such order is
    read from the same draws, taken by direct calls."""
    sides = [collect_stats(s, int(order)) for s in _serial_sides("inner-product", 1, 1000)]
    first = min(
        k + 1
        for stats in sides
        for k in range(int(order))
        if not (math.isfinite(stats.moments[k]) and math.isfinite(stats.std_errors[k]))
    )
    assert first > 1
    code, out, err = run(capsys, "sample", "inner-product", "--order", order,
                         "--count", "1000", "--seed", "1")
    assert code == 2
    assert out == ""
    assert f"overflow a double from order {first}" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ("inner-product", "--xv", "1e308,1", "--yv", "1e308,1"),
        ("matrix", "--xm", "1e200,0;0,0", "--ym", "1e200,0;0,0"),
    ],
    ids=["inner-product", "matrix"],
)
def test_sample_overflowing_inputs_exit_2(capsys, argv):
    """Samples that overflow a double fail at order 1, which no lower
    --order mends, and numpy's overflow warnings stay silent."""
    code, out, err = run(capsys, "sample", *argv, "--count", "100")
    assert code == 2
    assert out == ""
    assert "the samples overflow a double at order 1" in err
    assert "Warning" not in err


def test_sample_rejects_tiny_count(capsys):
    code, _, _ = run(capsys, "sample", "inner-product", "--count", "1")
    assert code == 2


def test_sample_rejects_order_zero(capsys):
    code, _, err = run(capsys, "sample", "inner-product", "--order", "0")
    assert code == 2
    assert "--order must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("matrix", "--p", "5", "--xv", "1,2,3"), id="matrix-p-xv"),
        pytest.param(("matrix", "--b", "2"), id="matrix-b"),
        pytest.param(("chi-merge", "--xm", "1"), id="chi-merge-xm"),
        pytest.param(("chi-merge", "--p", "1"), id="chi-merge-p"),
        pytest.param(("inner-product", "--ym", "1"), id="inner-product-ym"),
        pytest.param(("inner-product", "--a", "2"), id="inner-product-a"),
    ],
)
def test_sample_rejects_other_targets_options(capsys, argv):
    code, _, err = run(capsys, "sample", *argv, "--count", "1000")
    assert code == 2
    assert f"not {argv[0]}" in err


@pytest.mark.parametrize(
    "target, defaults",
    [
        ("inner-product", ("--xv", "3,4", "--yv", "3,4", "--p", "1")),
        ("matrix", ("--xm", "3,0;0,0", "--ym", "0,4;0,0")),
        ("chi-merge", ("--a", "3", "--b", "4")),
    ],
)
def test_sample_documented_defaults(tmp_path, capsys, target, defaults):
    implicit, explicit = tmp_path / "implicit.json", tmp_path / "explicit.json"
    argv = ("sample", target, "--count", "1000", "--seed", "4")
    run(capsys, *argv, "--out", str(implicit))
    run(capsys, *argv, *defaults, "--out", str(explicit))
    assert implicit.read_bytes() == explicit.read_bytes()


def _serial_sides(target, seed, count):
    """Each side of a default `sample` command, drawn by direct calls."""
    lhs, rhs = RngStream(seed, 0), RngStream(seed, 1)
    if target == "inner-product":
        xv, yv = [flt(3), flt(4)], [flt(3), flt(4)]
        return (inner_product_lhs_samples([3.0, 4.0], [3.0, 4.0], 1.0, lhs, count),
                inner_product_rhs_samples(polarization_pair(xv, yv), 2, 1.0, rhs, count))
    if target == "matrix":
        xm, ym = [[3.0, 0.0], [0.0, 0.0]], [[0.0, 4.0], [0.0, 0.0]]
        pair = matrix_polarization([[flt(v) for v in row] for row in xm],
                                   [[flt(v) for v in row] for row in ym])
        return (matrix_trace_samples(xm, ym, lhs, count),
                matrix_trace_rhs_samples(pair, 4, rhs, count))
    return chi_merge_samples(lhs, 3, 4, count), sample_chi(rhs, 7, count)


@pytest.mark.parametrize("target", ["inner-product", "matrix", "chi-merge"])
def test_sample_sides_match_serial_calls(tmp_path, capsys, target):
    # The sides run on two threads; each must still be exactly what its
    # sampler and collect_stats give when called one after the other.
    out_file = tmp_path / "sides.json"
    code, _, _ = run(capsys, "sample", target, "--count", "30001", "--seed", "12",
                     "--order", "5", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    for key, samples in zip(("lhs_stats", "rhs_stats"), _serial_sides(target, 12, 30001)):
        stats = collect_stats(samples, 5)
        assert payload[key] == {"count": 30001, "moments": list(stats.moments),
                                "std_errors": list(stats.std_errors)}, key


@pytest.mark.parametrize(
    "target, sampler",
    [("inner-product", "inner_product_rhs_samples"), ("chi-merge", "sample_chi")],
)
def test_sample_worker_side_error_exits_2(monkeypatch, capsys, target, sampler):
    threads = []

    def broken(*args, **kwargs):
        threads.append(threading.current_thread())
        raise RuntimeError("rhs sampler broke")

    monkeypatch.setattr(sampling, sampler, broken)
    codes = []
    runner = threading.Thread(
        target=lambda: codes.append(main(["sample", target, "--count", "1000"])), daemon=True
    )
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "sample hung after a worker-side error"
    assert codes == [2]
    assert "error: rhs sampler broke" in capsys.readouterr().err
    assert len(threads) == 1 and threads[0] is not runner


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("matrix", "--xv", "3,4", "--yv", "3,4"), id="matrix-xv-yv"),
        pytest.param(("graczyk", "--p", "5"), id="graczyk-p-alone"),
        pytest.param(("matrix", "--p", "5"), id="matrix-p-alone"),
        pytest.param(("graczyk", "--xv", "3,4", "--p", "1"), id="graczyk-xv-without-yv"),
    ],
)
def test_verify_point_overrides_require_graczyk(capsys, argv):
    code, _, _ = run(capsys, "verify", *argv)
    assert code == 2


def test_verify_exact_mode_rejects_tolerance(tmp_path, capsys):
    out_file = tmp_path / "exact.json"
    code, _, err = run(capsys, "verify", "matrix", "--mode", "exact",
                       "--tolerance", "1e-3", "--out", str(out_file))
    assert code == 2
    assert "exact mode has no tolerance" in err
    assert not out_file.exists()


def test_verify_float_mode_default_tolerance(tmp_path, capsys):
    out_file = tmp_path / "float.json"
    code, _, _ = run(capsys, "verify", "matrix", "--mode", "float",
                     "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["tolerance"] == DEFAULT_FLOAT_TOLERANCE
