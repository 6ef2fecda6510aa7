"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Exact criteria demand literally zero residual; Monte Carlo
criteria use 10^6 seeded samples and a 5-combined-standard-error band.
"""

import json
import random
import time
from fractions import Fraction

from ghkernel import (
    EXACT_PASS,
    RngStream,
    chi_even_moment,
    chi_merge_samples,
    coeff_C,
    collect_stats,
    complex_givens,
    default_cs_pairs,
    exact,
    exact_pair_pool,
    factorization_sumrule,
    factorization_sweep,
    flt,
    gh_eval,
    gh_eval_recurrence,
    gh_moment_oracle,
    graczyk_identity,
    graczyk_sweep,
    hermite_eval,
    inner_product_lhs_samples,
    inner_product_moment_sweep,
    inner_product_rhs_samples,
    lift,
    mat_mul,
    matrix_polarization,
    matrix_trace_rhs_samples,
    matrix_trace_samples,
    moment_match,
    moment_match_exact,
    polarization_pair,
    rotation_sumrule,
    rotation_sweep,
    sample_chi,
    to_float,
)
from ghkernel.cli import main as cli_main
from ghkernel.identities import relative_residual

MC_COUNT = 1_000_000
MC_Z = 5.0
MC_ORDER = 4


def report_line(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_graczyk_grid_exact():
    start = time.perf_counter()
    for n in (1, 2, 3):
        assert len(exact_pair_pool(n)) >= 10
    reports = graczyk_sweep()
    elapsed = time.perf_counter() - start
    all_exact = all(r.verdict == EXACT_PASS for r in reports)
    worked = [
        r
        for r in reports
        if r.params["n"] == "2"
        and r.params["M"] == "2"
        and r.params["xv"] == "3,4"
        and r.params["yv"] == "3,4"
        and r.params["p"] == "1"
    ]
    worked_ok = bool(worked) and all(
        str(r.lhs) == "733/2" and str(r.rhs) == "733/2" for r in worked
    )
    ok = all_exact and worked_ok and elapsed <= 10.0
    report_line(
        "1 graczyk exact grid",
        ok,
        f"{len(reports)} points, worked point 733/2 present={worked_ok}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_rotation_sumrule_exact():
    start = time.perf_counter()
    reports = rotation_sweep()
    elapsed = time.perf_counter() - start
    rotations = {r.params["rotation"] for r in reports}
    all_exact = all(r.verdict == EXACT_PASS for r in reports)
    ok = all_exact and len(rotations) >= 50 and elapsed <= 10.0
    report_line(
        "2 rotation sum rule",
        ok,
        f"{len(rotations)} rotations, {len(reports)} checks, {elapsed:.1f}s",
    )


def test_criterion_3_factorization_exact():
    reports = factorization_sweep()
    all_exact = all(r.verdict == EXACT_PASS for r in reports)
    degrees_ok = all(
        int(r.params["m1"]) + int(r.params["m2"]) <= 8 for r in reports
    )
    max_degree_hit = max(int(r.params["m1"]) + int(r.params["m2"]) for r in reports)

    # p = 0 specialization: the connection coefficients must reproduce the
    # binomial expansion of (cx - sy)^m1 (sx + cy)^m2 at random points.
    rng = random.Random(314159)
    binomial_ok = True
    for _ in range(5):
        x = exact(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        y = exact(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
        for c, s in default_cs_pairs():
            for m1 in range(5):
                for m2 in range(5 - m1 if m1 < 5 else 0):
                    total = exact(0)
                    for r in range(m1 + m2 + 1):
                        total = total + coeff_C(m1, m2, r, c, s) * x**r * y ** (
                            m1 + m2 - r
                        )
                    want = (c * x - s * y) ** m1 * (s * x + c * y) ** m2
                    binomial_ok = binomial_ok and total == want
    ok = all_exact and degrees_ok and max_degree_hit == 8 and binomial_ok
    report_line(
        "3 factorization rule",
        ok,
        f"{len(reports)} points to degree {max_degree_hit}, "
        f"binomial specialization={binomial_ok}",
    )


def test_criterion_4_consistency_triangle():
    rng = random.Random(777)
    triangle_ok = True
    checked = 0
    for _ in range(100):
        x = exact(Fraction(rng.randint(-10, 10), rng.randint(1, 8)))
        p = exact(Fraction(rng.randint(-10, 10), rng.randint(1, 8)))
        for m in range(51):
            direct = gh_eval(m, x, p)
            if gh_eval_recurrence(m, x, p) != direct or gh_moment_oracle(
                m, x, p
            ) != direct:
                triangle_ok = False
            checked += 1

    def hermite_oracle(n, x):
        two_x = lift(2, x.mode) * x
        prev, cur = lift(1, x.mode), two_x
        if n == 0:
            return prev
        for degree in range(1, n):
            prev, cur = cur, two_x * cur - lift(2 * degree, x.mode) * prev
        return cur

    # hermite_eval reads the recurrence row; the direct sum gh_eval at
    # (2x, -1) is the independent reference beside the Hermite recurrence.
    hermite_ok = True
    for _ in range(10):
        x = exact(Fraction(rng.randint(-10, 10), rng.randint(1, 8)))
        two_x = lift(2, x.mode) * x
        for n in range(31):
            value = hermite_eval(n, x)
            if value != hermite_oracle(n, x) or value != gh_eval(n, two_x, lift(-1, x.mode)):
                hermite_ok = False
    ok = triangle_ok and hermite_ok
    report_line(
        "4 consistency triangle",
        ok,
        f"{checked} three-way checks to degree 50, hermite bridge={hermite_ok}",
    )


def test_criterion_5_inner_product_moments():
    start = time.perf_counter()
    exact_reports = inner_product_moment_sweep()
    exact_ok = all(r.verdict == EXACT_PASS for r in exact_reports)

    mc_ok = True
    combos = 0
    for n in (2, 3, 5):
        xv, yv = exact_pair_pool(n)[0]
        xf = [float(s.re) for s in xv]
        yf = [float(s.re) for s in yv]
        pair = polarization_pair(
            tuple(to_float(s) for s in xv), tuple(to_float(s) for s in yv)
        )
        for p in (0.5, 1.0, 2.0):
            seed = 1000 + 10 * n + int(2 * p)
            lhs = inner_product_lhs_samples(xf, yf, p, RngStream(seed, 0), MC_COUNT)
            rhs = inner_product_rhs_samples(pair, n, p, RngStream(seed, 1), MC_COUNT)
            verdicts = moment_match(
                collect_stats(lhs, MC_ORDER), collect_stats(rhs, MC_ORDER),
                MC_ORDER, MC_Z,
            )
            mc_ok = mc_ok and all(v.passed for v in verdicts)
            combos += 1
    elapsed = time.perf_counter() - start
    ok = exact_ok and mc_ok and elapsed <= 60.0
    report_line(
        "5 inner-product moments",
        ok,
        f"{len(exact_reports)} exact checks, {combos} MC combos x {MC_COUNT} "
        f"samples, {elapsed:.1f}s",
    )


def test_criterion_6_matrix_and_chi_merge():
    mc_ok = True
    for rows, cols in ((2, 2), (2, 3)):
        flat_x, flat_y = exact_pair_pool(rows * cols)[1]
        xm = [[float(flat_x[r * cols + c].re) for c in range(cols)] for r in range(rows)]
        ym = [[float(flat_y[r * cols + c].re) for c in range(cols)] for r in range(rows)]
        pair = matrix_polarization(
            tuple(tuple(flt(v) for v in row) for row in xm),
            tuple(tuple(flt(v) for v in row) for row in ym),
        )
        seed = 2000 + rows * 10 + cols
        lhs = matrix_trace_samples(xm, ym, RngStream(seed, 0), MC_COUNT)
        rhs = matrix_trace_rhs_samples(pair, rows * cols, RngStream(seed, 1), MC_COUNT)
        verdicts = moment_match(
            collect_stats(lhs, MC_ORDER), collect_stats(rhs, MC_ORDER),
            MC_ORDER, MC_Z,
        )
        mc_ok = mc_ok and all(v.passed for v in verdicts)

    a, b = 3, 4
    merged = chi_merge_samples(RngStream(3000, 0), a, b, MC_COUNT)
    direct = sample_chi(RngStream(3000, 1), a + b, MC_COUNT)
    two_sample = moment_match(
        collect_stats(merged, MC_ORDER), collect_stats(direct, MC_ORDER),
        MC_ORDER, MC_Z,
    )
    exact_targets = {
        2: float(chi_even_moment(a + b, 1)),
        4: float(chi_even_moment(a + b, 2)),
    }
    anchored = moment_match_exact(collect_stats(merged, MC_ORDER), exact_targets, MC_Z)
    chi_ok = all(v.passed for v in two_sample) and all(v.passed for v in anchored)
    ok = mc_ok and chi_ok
    report_line(
        "6 matrix trace + chi merge",
        ok,
        f"shapes 2x2, 2x3 at {MC_COUNT} samples, chi orders 2/4 anchored",
    )


def _random_float_rotation(rng, n):
    """Product of up to two float Cayley blocks, conditioned away from the
    t^2 = -1 pole."""

    def one_block():
        planes = [(0, 1)] if n == 2 else [(0, 1), (0, 2), (1, 2)]
        i, j = planes[rng.randrange(len(planes))]
        while True:
            t = flt(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            denom = complex(1, 0) + complex(t) * complex(t)
            if abs(denom) >= 0.5:
                return complex_givens(n, i, j, t)

    rot = one_block()
    if rng.random() < 0.5:
        rot = mat_mul(rot, one_block())
    return rot


def test_criterion_7_float_mode_and_determinism(tmp_path):
    rng = random.Random(2718)
    worst = 0.0
    failures = 0
    total = 0

    for _ in range(400):
        n = rng.randint(1, 3)
        big_m = rng.randint(0, 6)
        xv = tuple(flt(rng.uniform(-10, 10)) for _ in range(n))
        yv = tuple(flt(rng.uniform(-10, 10)) for _ in range(n))
        p = flt(rng.uniform(-2, 2))
        rep = graczyk_identity(big_m, xv, yv, p, tolerance=1e-9)
        rel = relative_residual(rep.lhs, rep.rhs)
        worst = max(worst, rel)
        failures += rel >= 1e-9
        total += 1

    for _ in range(300):
        n = rng.randint(2, 3)
        rot = _random_float_rotation(rng, n)
        xv = tuple(flt(rng.uniform(-10, 10)) for _ in range(n))
        p = flt(rng.uniform(-2, 2))
        rep = rotation_sumrule(rng.randint(0, 6), rot, rng.randrange(n), xv, p,
                               tolerance=1e-9)
        rel = relative_residual(rep.lhs, rep.rhs)
        worst = max(worst, rel)
        failures += rel >= 1e-9
        total += 1

    for _ in range(300):
        while True:
            t = flt(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            denom_c = complex(1, 0) + complex(t) * complex(t)
            if abs(denom_c) >= 0.5:
                break
        unit = flt(1.0)
        denom = unit + t * t
        c = (unit - t * t) / denom
        s = (t + t) / denom
        m1 = rng.randint(0, 8)
        m2 = rng.randint(0, 8 - m1)
        rep = factorization_sumrule(
            m1, m2, c, s,
            flt(rng.uniform(-10, 10)), flt(rng.uniform(-10, 10)),
            flt(rng.uniform(-2, 2)), tolerance=1e-9,
        )
        rel = relative_residual(rep.lhs, rep.rhs)
        worst = max(worst, rel)
        failures += rel >= 1e-9
        total += 1

    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["sample", "inner-product", "--xv", "3,4", "--yv", "1,-2", "--p", "2",
            "--count", "100000", "--seed", "42"]
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    deterministic = first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())

    ok = failures == 0 and total == 1000 and deterministic and payload["all_pass"]
    report_line(
        "7 float residuals + determinism",
        ok,
        f"{total} random float checks, worst relative residual {worst:.2e}, "
        f"byte-identical reports={deterministic}",
    )
