"""The pair kernel against independent Scalar references.

Every sum-rule side is one loop over pairs: Gaussian integers in exact mode,
doubles in float mode, divided once at the end.  The references below use
only the direct gap-2 sum (`gh_eval`) and Scalar arithmetic, so a kernel
that returned wrong (or trivially equal) sides would disagree with them.
Each float side is held to its exact value, and the mutation controls show
each check able to fail on a wrong identity, in both modes.  The sweeps'
all-degree paths, which build a point's tables once at the top degree, are
held to one single-degree call per report.  The binomial fold that sums
over compositions is held to a stars-and-bars composition sum.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from ghkernel import (
    EXACT,
    FAIL,
    FLOAT,
    WITHIN_TOLERANCE,
    ModeMismatchError,
    PolarizationPair,
    Scalar,
    coeff_C,
    complex_givens,
    exact,
    factorization_sumrule,
    format_scalar,
    gh_eval,
    gh_eval_recurrence,
    gh_moment_oracle,
    graczyk_identity,
    graczyk_lhs,
    graczyk_rhs,
    identities,
    lift,
    mat_identity,
    mat_mul,
    matrix_polarization,
    orthogonality_check,
    polarization_pair,
    rotation_sumrule,
    sweeps,
    to_float,
)
from ghkernel.cli import _report_row
from ghkernel.ghpoly import clearing_scale, gaussian_row, scale_to_gaussian
from ghkernel.identities import (
    IdentityReport,
    _binomial_fold,
    factorization_reports,
    graczyk_reports,
    inner_product_moment_identity,
    inner_product_moment_reports,
    make_report,
    mat_transpose,
    matrix_moment_identity,
    matrix_moment_reports,
    rotation_reports,
)

ONE = exact(1)
ZERO = exact(0)


def q(num, den=1):
    return Fraction(num, den)


# Parameters: complex, zero, and real with mixed denominators.
P_VALUES = (
    exact(q(1, 3), q(2, 7)),
    ZERO,
    exact(q(-5, 4)),
    exact(0, q(-3, 2)),
)

# Vectors mixing zero coordinates, complex entries and unlike denominators.
VECTOR_PAIRS = (
    ((exact(q(1, 2)), exact(q(-2, 3))), (exact(q(3, 5)), ZERO)),
    ((ZERO,), (exact(q(7, 6)),)),
    ((exact(1, q(1, 2)), exact(q(-3, 4)), ZERO), (exact(q(2, 9)), exact(2), exact(q(-1, 5), 1))),
)


GRACZYK_RHS_PAIRS = (
    (exact(q(5, 2)), exact(q(-1, 3))),
    (ZERO, exact(q(4, 7))),
    (exact(q(1, 6), q(1, 4)), exact(-2, q(2, 3))),
)

# Each rotation side is checked on its own, so O need not be orthogonal.
ROTATIONS = (
    complex_givens(3, 0, 2, exact(q(1, 2), q(1, 3))),
    (
        (exact(q(1, 2)), exact(q(-2, 3), 1), ZERO),
        (exact(3), exact(q(1, 5)), exact(0, q(-1, 4))),
        (ZERO, exact(q(7, 3)), exact(1, 1)),
    ),
    mat_identity(3, "exact"),
)
ROTATION_XV = (exact(q(1, 2)), ZERO, exact(q(-4, 3), q(1, 7)))


def cayley(t):
    unit = exact(1)
    return (unit - t * t) / (unit + t * t), (t + t) / (unit + t * t)


CS_PAIRS = (
    (exact(q(3, 5)), exact(q(-4, 5))),
    (ONE, ZERO),
    cayley(exact(q(1, 3), q(1, 2))),
    cayley(exact(0, q(1, 2))),
)

FACTORIZATION_POINTS = (
    (ZERO, exact(q(3, 4)), P_VALUES[0]),
    (exact(q(2, 3)), exact(q(-1, 5)), ZERO),
    (exact(q(1, 2), 1), ZERO, exact(q(-5, 4))),
)


def as_mode(value, mode):
    """value with its exact scalars (alone, in tuples or in a polarization
    pair) converted to float in float mode; anything else is kept."""
    if mode == EXACT:
        return value
    if isinstance(value, tuple):
        return tuple(as_mode(v, mode) for v in value)
    if isinstance(value, PolarizationPair):
        return PolarizationPair(to_float(value.x), to_float(value.y))
    if isinstance(value, Scalar):
        return to_float(value)
    return value


# ---------------------------------------------------------------------------
# references: direct sum and Scalar arithmetic only


def index_tuples(total, n):
    """All n-tuples of naturals summing to total, by brute force."""
    return [m for m in itertools.product(range(total + 1), repeat=n) if sum(m) == total]


def ref_graczyk_lhs(M, xv, yv, p):
    total = ZERO
    for m in index_tuples(M, len(xv)):
        term = ONE
        for mj, xj, yj in zip(m, xv, yv):
            term = term * gh_eval(mj, xj, p) * gh_eval(mj, yj, p) / exact(math.factorial(mj))
        total = total + term
    return total


def ref_graczyk_rhs(M, x, y, n, p):
    total = ZERO
    for j in range(M // 2 + 1):
        rising = ONE
        for step in range(j):
            rising = rising * exact(q(n - 1, 2) + step)
        weight = (exact(2) * p) ** (2 * j) * rising
        weight = weight / exact(math.factorial(j) * math.factorial(M - 2 * j))
        total = total + weight * gh_eval(M - 2 * j, x, p) * gh_eval(M - 2 * j, y, p)
    return total


def ref_rotation_sides(m, o, i, xv, p):
    rotated = ZERO
    for oij, xj in zip(o[i], xv):
        rotated = rotated + oij * xj
    lhs = gh_eval(m, rotated, p)
    rhs = ZERO
    for mi in index_tuples(m, len(xv)):
        term = exact(math.factorial(m))
        for mj, oij, xj in zip(mi, o[i], xv):
            term = term * oij**mj * gh_eval(mj, xj, p) / exact(math.factorial(mj))
        rhs = rhs + term
    return lhs, rhs


def ref_coeff_C(m1, m2, r, c, s):
    """Coefficient of a^r b^(m1+m2-r) in (c a - s b)^m1 (s a + c b)^m2,
    by multiplying coefficient lists (index = power of a)."""

    def times(poly, a_coeff, b_coeff):
        out = [ZERO] * (len(poly) + 1)
        for k, coeff in enumerate(poly):
            out[k + 1] = out[k + 1] + coeff * a_coeff
            out[k] = out[k] + coeff * b_coeff
        return out

    poly = [ONE]
    for _ in range(m1):
        poly = times(poly, c, -s)
    for _ in range(m2):
        poly = times(poly, s, c)
    return poly[r]


def ref_factorization_sides(m1, m2, c, s, x, y, p):
    lhs = gh_eval(m1, c * x - s * y, p) * gh_eval(m2, s * x + c * y, p)
    rhs = ZERO
    for r in range(m1 + m2 + 1):
        rhs = rhs + ref_coeff_C(m1, m2, r, c, s) * gh_eval(r, x, p) * gh_eval(m1 + m2 - r, y, p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# each exact side against its reference


def test_graczyk_lhs_matches_reference():
    for xv, yv in VECTOR_PAIRS:
        for p in P_VALUES:
            for big_m in range(6):
                assert graczyk_lhs(big_m, xv, yv, p) == ref_graczyk_lhs(big_m, xv, yv, p)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_graczyk_rhs_matches_reference(n):
    for x, y in GRACZYK_RHS_PAIRS:
        pair = PolarizationPair(x, y)
        for p in P_VALUES:
            for big_m in range(7):
                assert graczyk_rhs(big_m, pair, n, p) == ref_graczyk_rhs(big_m, x, y, n, p)


def test_rotation_sides_match_reference():
    for o in ROTATIONS:
        for p in P_VALUES:
            for m in range(6):
                for i in range(3):
                    report = rotation_sumrule(m, o, i, ROTATION_XV, p)
                    lhs, rhs = ref_rotation_sides(m, o, i, ROTATION_XV, p)
                    assert report.lhs == lhs
                    assert report.rhs == rhs


def test_coeff_C_matches_reference():
    for c, s in CS_PAIRS + ((exact(q(2, 3), q(1, 5)), exact(q(-7, 4))),):
        for m1 in range(5):
            for m2 in range(5):
                for r in range(m1 + m2 + 1):
                    assert coeff_C(m1, m2, r, c, s) == ref_coeff_C(m1, m2, r, c, s)


def test_factorization_sides_match_reference():
    for c, s in CS_PAIRS:
        for x, y, p in FACTORIZATION_POINTS:
            for m1 in range(5):
                for m2 in range(5 - m1):
                    report = factorization_sumrule(m1, m2, c, s, x, y, p)
                    lhs, rhs = ref_factorization_sides(m1, m2, c, s, x, y, p)
                    assert report.lhs == lhs
                    assert report.rhs == rhs


def test_gaussian_row_is_every_degree_of_one_recurrence():
    x, p = (3, -2), (-1, 4)
    row = gaussian_row(12, x, p)
    assert len(row) == 13
    for k, (re, im) in enumerate(row):
        assert exact(re, im) == gh_eval(k, exact(*x), exact(*p))
    assert gaussian_row(0, x, p) == [(1, 0)]


def test_scaling_helpers():
    values = (exact(q(1, 6), q(3, 4)), exact(q(-2, 9)))
    lam = clearing_scale(*values)
    assert lam == 36
    assert scale_to_gaussian(values[0], lam) == (6, 27)
    with pytest.raises(ValueError):
        scale_to_gaussian(values[0], 6)


# ---------------------------------------------------------------------------
# the binomial fold against the composition sum it replaces


def compositions_of(total, n):
    """The n-part compositions of total, by stars and bars."""
    for bars in itertools.combinations(range(total + n - 1), n - 1):
        edges = (-1, *bars, total + n - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def ref_multinomial_sum(total, tables):
    """sum over |m| = total of total!/m! prod_j tables[j][m_j], in exact
    Scalars (a double is taken at its exact binary value)."""
    out = ZERO
    for m in compositions_of(total, len(tables)):
        term = exact(math.factorial(total))
        for table, mj in zip(tables, m):
            term = term * exact(*table[mj]) / exact(math.factorial(mj))
        out = out + term
    return out


def fold_cases(draw):
    """Seeded tables of draw(rng) pairs: n = 1..5, top 0, 10 and one
    between."""
    rng = random.Random(20111)
    for n in range(1, 6):
        for top in (0, rng.randint(1, 9), 10):
            yield top, [[(draw(rng), draw(rng)) for _ in range(top + 1)] for _ in range(n)]


def test_binomial_fold_matches_composition_sum():
    for top, tables in fold_cases(lambda rng: rng.randint(-10**6, 10**6)):
        folded = _binomial_fold(top, tables)
        assert len(folded) == top + 1
        for total, (re, im) in enumerate(folded):
            assert isinstance(re, int) and isinstance(im, int)
            assert exact(re, im) == ref_multinomial_sum(total, tables)


def test_binomial_fold_on_doubles_matches_exact_sum():
    """Relative to the sum of the terms' moduli, which bounds a cancelling
    sum's rounding, the double fold agrees with the exact sum to 1e-12."""
    for top, tables in fold_cases(lambda rng: rng.uniform(-4.0, 4.0)):
        for total, got in enumerate(_binomial_fold(top, tables)):
            want = complex(ref_multinomial_sum(total, tables))
            size = sum(
                math.factorial(total)
                * math.prod(abs(complex(*t[mj])) / math.factorial(mj) for t, mj in zip(tables, m))
                for m in compositions_of(total, len(tables))
            )
            assert abs(complex(*got) - want) <= 1e-12 * size


def test_exact_graczyk_in_ten_dimensions_to_degree_thirty():
    """The fold turns the composition sum, about 2e8 terms at n = 10 and
    M = 30, into 9 folds of 496 pair products each per p."""
    # (u+v)/2 and (u-v)/2 for u = (1,...,1,4), v = (2,0,...,0): norms 5 and 2.
    u = (1,) * 9 + (4,)
    v = (2,) + (0,) * 9
    xv = tuple(exact(q(a + b, 2)) for a, b in zip(u, v))
    yv = tuple(exact(q(a - b, 2)) for a, b in zip(u, v))
    p_values = (exact(q(-1, 2)), exact(q(3, 2)), exact(q(1, 3), q(2, 7)))
    start = time.perf_counter()
    reports = graczyk_reports(range(31), xv, yv, p_values)
    elapsed = time.perf_counter() - start
    assert len(reports) == 31 * len(p_values)
    assert all(r.verdict == "exact-pass" for r in reports)
    assert reports[-1].lhs != ZERO
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# three evaluators, random Gaussian-rational points


def test_recurrence_matches_direct_sum_and_moments_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)
    gaussian = st.builds(exact, rationals, rationals)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(m=st.integers(min_value=0, max_value=50), x=gaussian, p=gaussian)
    def check(m, x, p):
        want = gh_eval(m, x, p)
        assert gh_eval_recurrence(m, x, p) == want
        assert gh_moment_oracle(m, x, p) == want

    check()


# ---------------------------------------------------------------------------
# float sides against exact truth


def assert_float_side(side, *args):
    """side(*args) in float mode within relative error 1e-12 of side(*args)
    in exact mode; for a report, each of its two sides."""
    want, got = side(*args), side(*as_mode(args, FLOAT))
    if isinstance(want, IdentityReport):
        pairs = ((want.lhs, got.lhs), (want.rhs, got.rhs))
    else:
        pairs = ((want, got),)
    for exact_side, float_side in pairs:
        assert float_side.mode == FLOAT
        truth = complex(exact_side)
        assert abs(complex(float_side) - truth) <= 1e-12 * abs(truth)


def test_float_sides_match_exact_sides():
    """Each side in float mode against the same side in exact mode, at the
    reference points above.  A float-only slip that scales both sides alike
    (a missing 1/M!, say) passes every float verdict but fails here."""
    for p in P_VALUES:
        for m in range(13):
            assert_float_side(gh_eval_recurrence, m, exact(q(-1, 3), q(1, 4)), p)
        for xv, yv in VECTOR_PAIRS:
            for big_m in range(6):
                assert_float_side(graczyk_lhs, big_m, xv, yv, p)
        for x, y in GRACZYK_RHS_PAIRS:
            for n in (1, 2, 3, 5):
                for big_m in range(7):
                    assert_float_side(graczyk_rhs, big_m, PolarizationPair(x, y), n, p)
        for o in ROTATIONS:
            for m in range(6):
                for i in range(3):
                    assert_float_side(rotation_sumrule, m, o, i, ROTATION_XV, p)
    for c, s in CS_PAIRS:
        for m1 in range(5):
            for m2 in range(5):
                for r in range(m1 + m2 + 1):
                    assert_float_side(coeff_C, m1, m2, r, c, s)
        for x, y, p in FACTORIZATION_POINTS:
            for m1 in range(5):
                for m2 in range(5 - m1):
                    assert_float_side(factorization_sumrule, m1, m2, c, s, x, y, p)


@pytest.mark.parametrize("identity, sides", [("inner-product-moments", 378), ("matrix", 84)])
def test_float_moment_sides_are_exact_sides_rounded_once(identity, sides):
    """On the default grids each float moment side is its exact side
    rounded once: the moments are integers over lam^(2M), divided once, and
    no M! is divided out and multiplied back in."""
    sweep = sweeps.SWEEPS[identity]
    pairs = [
        (to_float(getattr(want, side)), getattr(got, side))
        for want, got in zip(sweep(mode=EXACT), sweep(mode=FLOAT), strict=True)
        for side in ("lhs", "rhs")
    ]
    assert len(pairs) == sides
    assert [want for want, got in pairs if want != got] == []


# ---------------------------------------------------------------------------
# all-degree paths against single-degree calls, off the built-in grids

OFF_GRID_T = exact(q(1, 3), q(2, 3))
OFF_GRID_ROTATION = mat_mul(complex_givens(3, 0, 1, OFF_GRID_T), complex_givens(3, 1, 2, OFF_GRID_T))
OFF_GRID_CS = cayley(OFF_GRID_T)
OFF_GRID_POINT = (exact(q(2, 3)), exact(q(-1, 5)), P_VALUES[0])
# (u+v)/2 and (u-v)/2 for u = (1,2,2), v = (2,3,6): norms 3 and 7; and each
# vector padded with a zero into a 2x2 matrix.
NORM_PAIR = (
    (exact(q(3, 2)), exact(q(5, 2)), exact(4)),
    (exact(q(-1, 2)), exact(q(-1, 2)), exact(-2)),
)
NORM_MATRICES = tuple((v[:2], (v[2], ZERO)) for v in NORM_PAIR)


def assert_same_rows(batch, singles):
    """The two report lists serialize to the same rows, in the same order."""
    assert [_report_row(r) for r in batch] == [_report_row(r) for r in singles]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_rotation_reports_match_single_degree_calls(mode):
    o, xv, p = as_mode((OFF_GRID_ROTATION, ROTATION_XV, P_VALUES[0]), mode)
    every_row = rotation_reports(range(11), o, xv, p, label="O")
    for i in range(3):
        batch = every_row[i::3]
        singles = [rotation_sumrule(m, o, i, xv, p, label="O") for m in range(11)]
        assert_same_rows(batch, singles)
        if mode == EXACT:
            for m, report in enumerate(batch):
                assert (report.lhs, report.rhs) == ref_rotation_sides(m, o, i, xv, p)
                assert report.passed


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_factorization_reports_match_single_degree_calls(mode):
    c, s = as_mode(OFF_GRID_CS, mode)
    x, y, p = as_mode(OFF_GRID_POINT, mode)
    splits = [(m1, m2) for m1 in range(13) for m2 in range(13 - m1)]
    batch = factorization_reports(splits, c, s, ((x, y, p),))
    singles = [factorization_sumrule(m1, m2, c, s, x, y, p) for m1, m2 in splits]
    assert_same_rows(batch, singles)
    if mode == EXACT:
        for (m1, m2), report in zip(splits, batch):
            assert (report.lhs, report.rhs) == ref_factorization_sides(m1, m2, c, s, x, y, p)
            assert report.passed


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_factorization_reports_over_points_match_one_call_per_point(mode):
    """One call over several points, sharing the (c, s) coefficients, gives
    the reports of one call per point, concatenated."""
    c, s = as_mode(OFF_GRID_CS, mode)
    points = [sweeps.in_mode(point, mode) for point in sweeps.FACTORIZATION_POINTS]
    points.append(as_mode(OFF_GRID_POINT, mode))
    splits = [(m1, m2) for m1 in range(9) for m2 in range(9 - m1)]
    per_point = [r for point in points for r in factorization_reports(splits, c, s, (point,))]
    assert_same_rows(factorization_reports(splits, c, s, points), per_point)


def test_factorization_reports_reject_a_mode_mismatch_at_any_point():
    c, s = OFF_GRID_CS
    points = [OFF_GRID_POINT, FACTORIZATION_POINTS[1], FACTORIZATION_POINTS[2]]
    for at in range(len(points)):
        for floated in ({0}, {1}, {2}, {0, 1, 2}):
            mixed = list(points)
            mixed[at] = tuple(
                to_float(v) if j in floated else v for j, v in enumerate(points[at])
            )
            with pytest.raises(ModeMismatchError):
                factorization_reports(((2, 1),), c, s, mixed)
    with pytest.raises(ModeMismatchError):
        factorization_reports(((2, 1),), to_float(c), to_float(s), points)


def test_reports_reject_a_negative_degree_beside_larger_ones():
    """A negative degree must not index a row built for a larger one."""
    c, s = OFF_GRID_CS
    x, y, p = OFF_GRID_POINT
    with pytest.raises(ValueError):
        rotation_reports((3, -1), OFF_GRID_ROTATION, ROTATION_XV, p)
    with pytest.raises(ValueError):
        factorization_reports(((3, 2), (-1, 3)), c, s, ((x, y, p),))
    with pytest.raises(ValueError):
        factorization_sumrule(4, -1, c, s, x, y, p)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_reports_with_no_degrees_are_empty(mode):
    c, s = as_mode(OFF_GRID_CS, mode)
    point = as_mode(OFF_GRID_POINT, mode)
    o, xv, p = as_mode((OFF_GRID_ROTATION, ROTATION_XV, P_VALUES[0]), mode)
    real = as_mode((exact(3), exact(4)), mode)
    xm, ym = as_mode((((exact(3), ZERO),), ((ZERO, exact(4)),)), mode)
    assert factorization_reports([], c, s, [point]) == []
    assert rotation_reports([], o, xv, p) == []
    assert graczyk_reports([], real, real, [p]) == []
    assert inner_product_moment_reports([], real, real, [p]) == []
    assert matrix_moment_reports([], xm, ym) == []


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_pair_reports_match_single_degree_calls(mode):
    xv, yv = as_mode(NORM_PAIR, mode)
    p_values = as_mode(P_VALUES, mode)
    degrees = range(9)
    assert_same_rows(
        graczyk_reports(degrees, xv, yv, p_values),
        [graczyk_identity(big_m, xv, yv, p) for big_m in degrees for p in p_values],
    )
    assert_same_rows(
        inner_product_moment_reports(degrees, xv, yv, p_values),
        [inner_product_moment_identity(big_m, xv, yv, p) for big_m in degrees for p in p_values],
    )
    xm, ym = as_mode(NORM_MATRICES, mode)
    assert_same_rows(
        matrix_moment_reports(degrees, xm, ym),
        [matrix_moment_identity(big_m, xm, ym) for big_m in degrees],
    )


# ---------------------------------------------------------------------------
# mutation controls: wrong identities must fail, in exact and in float mode

# The float verdicts are taken at the default tolerance.
MUTATION_TOLERANCE = 1e-9
PASS_VERDICTS = ((EXACT, "exact-pass"), (FLOAT, WITHIN_TOLERANCE))


def test_graczyk_with_shifted_pochhammer_argument_fails():
    """Dimension n+1 moves the Pochhammer argument from (n-1)/2 to n/2."""
    for mode, passing in PASS_VERDICTS:
        xv = as_mode((exact(3), exact(4)), mode)
        yv = as_mode((exact(q(3, 2)), exact(2)), mode)
        pair = polarization_pair(xv, yv)
        for p in as_mode((exact(1), exact(q(-1, 2)), exact(q(1, 3), 1)), mode):
            for big_m in range(2, 7):
                right = graczyk_identity(big_m, xv, yv, p, MUTATION_TOLERANCE)
                assert right.verdict == passing
                wrong = graczyk_rhs(big_m, pair, len(xv) + 1, p)
                report = make_report("graczyk", {}, right.lhs, wrong, MUTATION_TOLERANCE)
                assert report.verdict == FAIL


def test_rotation_with_non_orthogonal_matrix_fails():
    """2 G(0,1;1/2) has O O^t = 4 I, so the expansion breaks from m = 2."""
    givens = complex_givens(2, 0, 1, exact(q(1, 2)))
    scaled = tuple(tuple(lift(2, EXACT) * entry for entry in row) for row in givens)
    for mode, passing in PASS_VERDICTS:
        xv, p = as_mode((exact(1), exact(2)), mode), as_mode(exact(q(1, 3)), mode)
        for m in range(2, 7):
            for i in range(2):
                right = rotation_sumrule(m, as_mode(givens, mode), i, xv, p, MUTATION_TOLERANCE)
                wrong = rotation_sumrule(m, as_mode(scaled, mode), i, xv, p, MUTATION_TOLERANCE)
                assert right.verdict == passing
                assert wrong.verdict == FAIL


def test_rotation_rule_reads_unit_rows_not_orthogonality():
    """A pass of the rotation rule checks that each row a has a . a = 1
    (bilinear), not that O is orthogonal: this matrix has unit rows and is
    not orthogonal, and all 21 checks pass in both modes."""
    unit_rows = ((q(3, 5), q(4, 5), 0), (1, 0, 0), (q(2, 3), q(2, 3), q(1, 3)))
    for mode, passing in PASS_VERDICTS:
        o = tuple(sweeps.in_mode(row, mode) for row in unit_rows)
        xv = sweeps.in_mode(sweeps.ROTATION_VECTORS[3], mode)
        (p,) = sweeps.in_mode([sweeps.ROTATION_P], mode)
        assert not orthogonality_check(o)
        reports = rotation_reports(range(7), o, xv, p, MUTATION_TOLERANCE)
        assert [r.verdict for r in reports] == [passing] * 21


def test_factorization_with_sign_flipped_expansion_fails():
    """Negating s on the right-hand side only."""
    for mode, passing in PASS_VERDICTS:
        x, y, p = as_mode((exact(1), exact(2), exact(q(-1, 2))), mode)
        for c, s in as_mode(((exact(q(3, 5)), exact(q(4, 5))), cayley(exact(0, q(1, 2)))), mode):
            for m1, m2 in ((1, 0), (1, 1), (2, 1), (3, 2)):
                right = factorization_sumrule(m1, m2, c, s, x, y, p, MUTATION_TOLERANCE)
                flipped = factorization_sumrule(m1, m2, c, -s, x, y, p)
                assert right.verdict == passing
                report = make_report(
                    "factorization", {}, right.lhs, flipped.rhs, MUTATION_TOLERANCE
                )
                assert report.verdict == FAIL


def test_moment_identities_read_at_p_for_p_over_2_fail():
    """The moments are M! times the Graczyk sides at p/2; a right side read
    at p fails at every M >= 2 (M = 0 and 1 do not read p).  The matrix rule
    reads p = 1 at n = rows * cols."""
    for mode, passing in PASS_VERDICTS:
        xv, yv = as_mode(NORM_PAIR, mode)
        xm, ym = as_mode(NORM_MATRICES, mode)
        pair, matrix_pair = polarization_pair(xv, yv), matrix_polarization(xm, ym)
        for big_m in range(2, 7):
            m_fact = lift(math.factorial(big_m), mode)
            checks = [
                (inner_product_moment_identity(big_m, xv, yv, p, MUTATION_TOLERANCE),
                 m_fact * graczyk_rhs(big_m, pair, len(xv), p))
                for p in as_mode((ONE, exact(q(-1, 2)), exact(q(1, 3), 1)), mode)
            ]
            checks.append((
                matrix_moment_identity(big_m, xm, ym, MUTATION_TOLERANCE),
                m_fact * graczyk_rhs(big_m, matrix_pair, 4, as_mode(ONE, mode)),
            ))
            for right, wrong in checks:
                assert right.verdict == passing
                report = make_report(right.identity, {}, right.lhs, wrong, MUTATION_TOLERANCE)
                assert report.verdict == FAIL


def test_rotation_with_transposed_matrix_on_one_side_fails():
    """O's left side against O^t's right side, for a non-symmetric O: both
    true rules pass, and the mixed pair fails at every m >= 1."""
    o = mat_mul(complex_givens(3, 0, 1, exact(q(1, 2))), complex_givens(3, 1, 2, exact(0, q(1, 2))))
    assert o != mat_transpose(o)
    for mode, passing in PASS_VERDICTS:
        xv, p = as_mode((exact(1), exact(2), exact(3)), mode), as_mode(exact(q(1, 3)), mode)
        right, transposed = (
            rotation_reports(range(7), as_mode(matrix, mode), xv, p, MUTATION_TOLERANCE)
            for matrix in (o, mat_transpose(o))
        )
        assert len(right) == len(transposed) == 21
        for report, other in zip(right, transposed):
            assert report.verdict == other.verdict == passing
            mixed = make_report("rotation", {}, report.lhs, other.rhs, MUTATION_TOLERANCE)
            assert mixed.passed == (report.params["m"] == "0")


def test_factorization_with_s_negated_in_coefficients_fails(monkeypatch):
    """The connection coefficients read at -s, on the default grid: 741 of
    the 900 checks fail, from total degree 1.  Only (c, s) = (1, 0), where
    -s = s, cannot see it: its 90 checks pass."""
    sweep = sweeps.SWEEPS["factorization"]
    coefficient = identities._coeff_C_gaussian

    def negated_s(m1, m2, r, c_pows, s_pows):
        s_pows = [((-1) ** k * re, (-1) ** k * im) for k, (re, im) in enumerate(s_pows)]
        return coefficient(m1, m2, r, c_pows, s_pows)

    for mode, _ in PASS_VERDICTS:
        assert all(report.passed for report in sweep(mode=mode, tolerance=MUTATION_TOLERANCE))
        with monkeypatch.context() as patch:
            patch.setattr(identities, "_coeff_C_gaussian", negated_s)
            reports = sweep(mode=mode, tolerance=MUTATION_TOLERANCE)
        failing = [r for r in reports if not r.passed]
        assert (len(failing), len(reports)) == (741, 900)
        assert min(int(r.params["m1"]) + int(r.params["m2"]) for r in failing) == 1
        unseen = [r for r in reports if r.params["s"] in ("0", "0.0")]
        assert len(unseen) == 90
        assert all(r.passed for r in unseen)


def test_matrix_rule_read_at_one_dimension_less_fails(monkeypatch):
    """The matrix rule's right side at n = rows * cols - 1, on the default
    grid: every check of degree M >= 2 fails, 30 of 42, since degrees 0 and
    1 do not read the chi weight."""
    sweep = sweeps.SWEEPS["matrix"]
    rhs_ints = identities._graczyk_rhs_ints
    for mode, _ in PASS_VERDICTS:
        assert all(report.passed for report in sweep(mode=mode, tolerance=MUTATION_TOLERANCE))
        with monkeypatch.context() as patch:
            patch.setattr(
                identities, "_graczyk_rhs_ints",
                lambda top, pair, n, lam, p_int: rhs_ints(top, pair, n - 1, lam, p_int),
            )
            reports = sweep(mode=mode, tolerance=MUTATION_TOLERANCE)
        assert len(reports) == 42
        assert [not r.passed for r in reports] == [int(r.params["M"]) >= 2 for r in reports]
        assert sum(not r.passed for r in reports) == 30


def test_chi_weight_read_at_half_n_plus_one_fails(monkeypatch):
    """The chi weight ((n-1)/2)_j read at (n+1)/2, on the three default
    pair grids: checks fail at every M from 2 to 6, and none below, since
    degrees 0 and 1 do not read the weight."""
    rhs_ints = identities._graczyk_rhs_ints
    expected = {"graczyk": 772, "inner-product-moments": 135, "matrix": 30}
    for identity, failures in expected.items():
        sweep = sweeps.SWEEPS[identity]
        for mode, _ in PASS_VERDICTS:
            assert all(report.passed for report in sweep(mode=mode, tolerance=MUTATION_TOLERANCE))
            with monkeypatch.context() as patch:
                patch.setattr(
                    identities, "_graczyk_rhs_ints",
                    lambda top, pair, n, lam, p_int: rhs_ints(top, pair, n + 2, lam, p_int),
                )
                failing = [r for r in sweep(mode=mode, tolerance=MUTATION_TOLERANCE) if not r.passed]
            assert len(failing) == failures
            assert {int(r.params["M"]) for r in failing} == set(range(2, 7))


def test_matrix_trace_read_as_tr_xy_fails_off_the_default_grid(monkeypatch):
    """The matrix rule's left side read as tr(X Y) for tr(X^t Y), on 2x2
    shapes.  The default 2x2 pairs are collinear, (w, lam w) with w the
    pool's first vector, and that w reshapes to a symmetric matrix, so the
    default grid cannot see this mutant: its 21 checks pass.  The last n = 4
    pool pair, reshaped, catches it at every M from 1 to 6."""
    lhs_ints = identities._graczyk_lhs_ints

    def transposed_y(top, xv, yv, lam, p_int):
        if len(yv) == 4:
            yv = (yv[0], yv[2], yv[1], yv[3])
        return lhs_ints(top, xv, yv, lam, p_int)

    for mode, passing in PASS_VERDICTS:
        flat_x, flat_y = sweeps.exact_pair_pool(4, mode)[-1]
        xm, ym = sweeps._reshape(flat_x, 2, 2), sweeps._reshape(flat_y, 2, 2)
        right = matrix_moment_reports(range(7), xm, ym, MUTATION_TOLERANCE)
        assert [r.verdict for r in right] == [passing] * 7
        with monkeypatch.context() as patch:
            patch.setattr(identities, "_graczyk_lhs_ints", transposed_y)
            wrong = matrix_moment_reports(range(7), xm, ym, MUTATION_TOLERANCE)
            default = [
                r for r in sweeps.SWEEPS["matrix"](mode=mode, tolerance=MUTATION_TOLERANCE)
                if r.params["shape"] == "2x2"
            ]
        assert [r.passed for r in wrong] == [True] + [False] * 6
        assert len(default) == 21
        assert all(r.passed for r in default)


def sigma_sq_p_lhs(top, xv, yv, lam, p_int):
    """The Graczyk left side with sigma^2 = p for 2p: each coordinate's rows
    from g_(k+1) = x g_k + p k g_(k-1)."""
    def row(x):
        out = [(1, 0), x]
        for k in range(1, top):
            (ar, ai), (br, bi) = identities._gmul(x, out[k]), identities._gmul(p_int, out[k - 1])
            out.append((ar + k * br, ai + k * bi))
        return out[: top + 1]

    tables = []
    for x, y in zip(xv, yv):
        gx, gy = row(scale_to_gaussian(x, lam)), row(scale_to_gaussian(y, lam))
        tables.append([identities._gmul(a, b) for a, b in zip(gx, gy)])
    return _binomial_fold(top, tables)


def dropped_factorial_lhs(top, xv, yv, lam, p_int):
    """The Graczyk left side without its 1/m!: M! sum_(|m|=M) prod_j T_j[m_j].
    That is the binomial fold of the product rows T_j[k] times k!."""
    tables = [
        [(math.factorial(k) * re, math.factorial(k) * im) for k, (re, im) in enumerate(row)]
        for row in (identities._product_row(top, x, y, lam, p_int) for x, y in zip(xv, yv))
    ]
    return _binomial_fold(top, tables)


def test_graczyk_left_side_mutants_fail_from_degree_two(monkeypatch):
    """Two wrong left sides on the three default pair grids: sigma^2 = p for
    2p in the coordinate rows, and a dropped 1/m!.  The true rules pass; each
    mutant fails the same checks in exact mode and in float mode at 1e-9,
    none below M = 2 (degrees 0 and 1 read neither p nor m!)."""
    expected = {
        sigma_sq_p_lhs: {"graczyk": 769, "inner-product-moments": 135, "matrix": 30},
        dropped_factorial_lhs: {"graczyk": 968, "inner-product-moments": 135, "matrix": 30},
    }
    sizes = {"graczyk": 1365, "inner-product-moments": 189, "matrix": 42}
    for identity, size in sizes.items():
        sweep = sweeps.SWEEPS[identity]
        for mode, _ in PASS_VERDICTS:
            reports = sweep(mode=mode, tolerance=MUTATION_TOLERANCE)
            assert len(reports) == size
            assert all(report.passed for report in reports)
            for mutant, failures in expected.items():
                with monkeypatch.context() as patch:
                    patch.setattr(identities, "_graczyk_lhs_ints", mutant)
                    reports = sweep(mode=mode, tolerance=MUTATION_TOLERANCE)
                failing = [r for r in reports if not r.passed]
                assert len(failing) == failures[identity]
                assert min(int(r.params["M"]) for r in failing) == 2


# ---------------------------------------------------------------------------
# exact verdicts on the sides' integers: equal pairs share one Scalar


def plus_one(pair):
    return pair[0] + 1, pair[1]


def assert_fail_with_true_residual(reports):
    for report in reports:
        assert report.verdict == FAIL
        assert report.lhs is not report.rhs
        assert report.residual == report.lhs - report.rhs
        assert format_scalar(report.rhs) != format_scalar(report.lhs)


def test_rotation_rhs_one_integer_off_fails(monkeypatch):
    """Every entry of the right side's fold moved by 1 over the shared
    denominator: no report may take the equal-integers path."""
    fold = identities._binomial_fold
    monkeypatch.setattr(
        identities, "_binomial_fold", lambda top, tables: [plus_one(v) for v in fold(top, tables)]
    )
    reports = rotation_reports(range(7), OFF_GRID_ROTATION, ROTATION_XV, P_VALUES[0])
    assert len(reports) == 21
    assert_fail_with_true_residual(reports)


def test_factorization_rhs_one_integer_off_fails(monkeypatch):
    """Every connection coefficient moved by 1 moves each right side's
    integer by sum_r g_r(x) g_(m1+m2-r)(y), nonzero at this point."""
    coefficient = identities._coeff_C_gaussian
    monkeypatch.setattr(
        identities, "_coeff_C_gaussian", lambda *args: plus_one(coefficient(*args))
    )
    c, s = OFF_GRID_CS
    splits = [(m1, m2) for m1 in range(5) for m2 in range(5 - m1)]
    reports = factorization_reports(splits, c, s, (OFF_GRID_POINT,))
    assert len(reports) == len(splits)
    assert_fail_with_true_residual(reports)


def test_graczyk_rhs_one_integer_off_fails(monkeypatch):
    """Every entry of the Graczyk right side's fold moved by 1 over the
    shared denominator, in the sum rule and in both moment identities.
    (Moving every ``_binomial_fold`` entry would move both sides alike.)"""
    rhs_ints = identities._graczyk_rhs_ints
    monkeypatch.setattr(
        identities, "_graczyk_rhs_ints", lambda *args: [plus_one(v) for v in rhs_ints(*args)]
    )
    xv, yv = NORM_PAIR
    reports = [
        *graczyk_reports(range(7), xv, yv, P_VALUES),
        *inner_product_moment_reports(range(7), xv, yv, P_VALUES),
        *matrix_moment_reports(range(7), *NORM_MATRICES),
    ]
    assert len(reports) == 63
    assert_fail_with_true_residual(reports)


def test_passing_exact_sides_share_one_scalar():
    c, s = OFF_GRID_CS
    xv, yv = NORM_PAIR
    reports = [
        *rotation_reports(range(7), OFF_GRID_ROTATION, ROTATION_XV, P_VALUES[0]),
        *factorization_reports([(2, 3), (4, 0)], c, s, (OFF_GRID_POINT,)),
        *graczyk_reports(range(7), xv, yv, P_VALUES),
        *inner_product_moment_reports(range(7), xv, yv, P_VALUES),
        *matrix_moment_reports(range(7), *NORM_MATRICES),
    ]
    for report in reports:
        assert report.verdict == "exact-pass"
        assert report.lhs is report.rhs
        assert report.residual == ZERO


def test_float_sides_never_share_a_scalar():
    """Float sides equal as numbers still differ in print: at this point
    the left side is -0.0 and the right side 0.0."""
    c, s, x, y, p = (to_float(v) for v in (ONE, ZERO, ONE, exact(2), exact(q(-1, 2))))
    (report,) = factorization_reports([(2, 4)], c, s, ((x, y, p),))
    assert (format_scalar(report.lhs), format_scalar(report.rhs)) == ("-0.0", "0.0")
    o, xv, p = as_mode((OFF_GRID_ROTATION, ROTATION_XV, P_VALUES[0]), FLOAT)
    reports = [
        report,
        *rotation_reports(range(7), o, xv, p),
        *factorization_reports([(2, 3), (4, 0)], *as_mode(OFF_GRID_CS, FLOAT), ((x, y, p),)),
        *sweeps.SWEEPS["matrix"](mode=FLOAT, tolerance=MUTATION_TOLERANCE),
    ]
    for report in reports:
        assert report.passed
        assert report.lhs is not report.rhs
        assert report.residual is not report.lhs


# ---------------------------------------------------------------------------
# mode mixing


def test_exact_sides_reject_one_float_scalar():
    """One scalar of the other mode anywhere in a side's inputs raises, in
    exact-led and in float-led calls alike."""
    rot = complex_givens(2, 0, 1, exact(q(1, 2)))
    c, s = exact(q(3, 5)), exact(q(4, 5))
    x, y, p = exact(1), exact(2), exact(q(1, 3))
    three, four = exact(3), exact(4)
    for lead, other in ((EXACT, FLOAT), (FLOAT, EXACT)):

        def led(value):
            return as_mode(value, lead)

        def odd(value):
            return as_mode(value, other)

        mixed = (
            lambda: graczyk_lhs(2, led((three, four)), (led(three), odd(four)), led(p)),
            lambda: graczyk_rhs(2, PolarizationPair(led(exact(5)), odd(exact(5))), 2, led(p)),
            lambda: rotation_sumrule(3, led(rot), 0, (led(x), odd(y)), led(p)),
            lambda: rotation_sumrule(
                3, (led(rot[0]), (led(rot[1][0]), odd(rot[1][1]))), 0, led((x, y)), led(p)
            ),
            # the whole matrix in the other mode from xv and p
            lambda: rotation_sumrule(3, odd(rot), 0, led((x, y)), led(p)),
            lambda: factorization_sumrule(2, 1, led(c), led(s), odd(x), led(y), led(p)),
            lambda: factorization_sumrule(2, 1, led(c), odd(s), led(x), led(y), led(p)),
            # (c, s) both in the other mode from (x, y, p)
            lambda: factorization_sumrule(2, 1, odd(c), odd(s), led(x), led(y), led(p)),
            lambda: coeff_C(2, 1, 1, led(c), odd(s)),
            lambda: gh_eval_recurrence(3, led(x), odd(x)),
        )
        for call in mixed:
            with pytest.raises(ModeMismatchError):
                call()
