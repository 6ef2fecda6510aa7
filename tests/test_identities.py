"""Sum rules, polarization, and complex rotations at exact parameter points."""

import math
import random
from fractions import Fraction

import pytest

from ghkernel import (
    EXACT,
    FLOAT,
    NotExactlyRepresentableError,
    Scalar,
    coeff_C,
    complex_givens,
    dot,
    exact,
    exact_pair_pool,
    exact_sqrt,
    factorization_sumrule,
    flt,
    gh_eval,
    graczyk_identity,
    graczyk_lhs,
    graczyk_rhs,
    inner_product_moment_identity,
    lift,
    mat_identity,
    mat_mul,
    matrix_moment_identity,
    matrix_polarization,
    norm_sq,
    orthogonality_check,
    pochhammer,
    polarization_pair,
    rotation_sumrule,
)
from ghkernel.identities import (
    graczyk_reports,
    make_report,
    mat_flatten,
    relative_residual,
    rotation_reports,
)


def exact_vec(*values):
    return tuple(exact(v) for v in values)


def rand_rational(rng, span=8, den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


# ---------------------------------------------------------------------------
# polarization


def test_polarization_collinear_pair():
    xv = exact_vec(3, 4)
    pair = polarization_pair(xv, xv)
    assert pair.x == exact(5) and pair.y == exact(5)


def test_polarization_zero_second_vector():
    xv = exact_vec(1, 2, 2)
    pair = polarization_pair(xv, exact_vec(0, 0, 0))
    assert pair.x == exact(3) and pair.y == exact(0)


def test_polarization_float_orthonormal_pair():
    pair = polarization_pair((flt(1), flt(0)), (flt(0), flt(1)))
    assert abs(pair.x.re - math.sqrt(2)) < 1e-15
    assert abs(pair.y.re) < 1e-15


def test_polarization_exact_mode_refuses_irrational_norms():
    with pytest.raises(NotExactlyRepresentableError):
        polarization_pair(exact_vec(1, 1), exact_vec(1, 2))


def test_polarization_rejects_complex_and_mismatched_inputs():
    with pytest.raises(ValueError):
        polarization_pair((exact(0, 1),), (exact(1),))
    with pytest.raises(ValueError):
        polarization_pair(exact_vec(1, 2), exact_vec(1,))


@pytest.mark.parametrize("call, message", [
    (lambda: graczyk_lhs(2, (), (), exact(1)), "empty vectors"),
    (lambda: polarization_pair((), ()), "empty vectors"),
    (lambda: graczyk_reports((2,), (), (), (exact(1),)), "empty vectors"),
    (lambda: inner_product_moment_identity(2, (), (), exact(1)), "empty vectors"),
    (lambda: matrix_polarization((), ()), "empty matrix"),
    (lambda: matrix_moment_identity(2, (), ()), "empty matrix"),
    (lambda: orthogonality_check(()), "empty matrix"),
    (lambda: rotation_reports([1], (), (), exact(1)), "empty matrix"),
    (lambda: coeff_C(-1, 1, 0, exact(Fraction(3, 5)), exact(Fraction(4, 5))),
     "degrees must be natural numbers"),
    (lambda: dot(exact_vec(1, 2), exact_vec(1)), "dimension mismatch"),
    (lambda: mat_mul((exact_vec(1, 2),), (exact_vec(1, 2),)), "shape mismatch"),
    (lambda: graczyk_lhs(2, exact_vec(1, 2), exact_vec(1), exact(1)), "dimension mismatch"),
    (lambda: graczyk_rhs(2, polarization_pair(exact_vec(3), exact_vec(4)), 0, exact(1)),
     "dimension must be at least 1"),
    (lambda: rotation_reports([1], mat_identity(2, EXACT), exact_vec(1), exact(1)),
     "dimension mismatch"),
    (lambda: pochhammer(exact(3), -1), "order must be a natural number"),
], ids=["graczyk_lhs", "polarization_pair", "graczyk_reports", "inner_product_moment_identity",
        "matrix_polarization", "matrix_moment_identity", "orthogonality_check",
        "rotation_reports", "coeff_C", "dot_mismatch", "mat_mul_mismatch",
        "graczyk_lhs_mismatch", "graczyk_rhs_n0", "rotation_reports_mismatch",
        "pochhammer"])
def test_empty_vectors_raise_value_error(call, message):
    """Empty vectors and matrices, mismatched shapes, and a negative degree
    or a dimension below 1 raise ValueError before any side is built."""
    with pytest.raises(ValueError, match=message):
        call()


def test_polarization_pair_invariants():
    for n in (1, 2, 3):
        for xv, yv in exact_pair_pool(n):
            pair = polarization_pair(xv, yv)
            assert pair.x.re >= abs(pair.y.re)
            assert pair.x**2 + pair.y**2 == norm_sq(xv) + norm_sq(yv)
            assert pair.x * pair.y == dot(xv, yv)


def scalar_polarization(xv, yv):
    """The Scalar construction that polarization_pair replaced: elementwise
    sum and difference, norm_sq, exact_sqrt or math.sqrt, times 1/2."""
    mode, roots = xv[0].mode, []
    for w in (tuple(a + b for a, b in zip(xv, yv)), tuple(a - b for a, b in zip(xv, yv))):
        nsq = norm_sq(w)
        root = Scalar(FLOAT, math.sqrt(nsq.re), 0.0) if mode == FLOAT else exact_sqrt(nsq)
        if root is None:
            raise NotExactlyRepresentableError(
                f"norm^2 = {nsq.re} is not a perfect rational square; rerun in float mode"
            )
        roots.append(root)
    plus, minus = roots
    half = lift(Fraction(1, 2), mode)
    return (plus + minus) * half, (plus - minus) * half


def test_polarization_matches_scalar_construction_on_exact_pools():
    for n in range(1, 7):
        for xv, yv in exact_pair_pool(n):
            pair = polarization_pair(xv, yv)
            x, y = scalar_polarization(xv, yv)
            assert (pair.x, pair.y) == (x, y)
            assert all(isinstance(part, Fraction) for part in (pair.x.re, pair.x.im, pair.y.re))


def test_polarization_matches_scalar_construction_bit_for_bit_in_float_mode():
    rng = random.Random(2027)
    entries = (0.0, -0.0, 1.0, -3.0, 0.5, -0.125, 0.1, -2.7, 1e-3, 12.75)
    for _ in range(400):
        n = rng.randint(1, 6)
        xv, yv = (tuple(flt(rng.choice(entries) * rng.choice((1, -1))) for _ in range(n))
                  for _ in range(2))
        pair = polarization_pair(xv, yv)
        got = [part.hex() for s in (pair.x, pair.y) for part in (s.re, s.im)]
        want = [part.hex() for s in scalar_polarization(xv, yv) for part in (s.re, s.im)]
        assert got == want


def test_polarization_refuses_irrational_norms_as_scalar_construction_did():
    rng = random.Random(31)
    refused = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        xv, yv = (tuple(exact(rand_rational(rng)) for _ in range(n)) for _ in range(2))
        try:
            expected = scalar_polarization(xv, yv)
        except NotExactlyRepresentableError as error:
            refused += 1
            with pytest.raises(NotExactlyRepresentableError) as raised:
                polarization_pair(xv, yv)
            assert str(raised.value) == str(error)
        else:
            pair = polarization_pair(xv, yv)
            assert (pair.x, pair.y) == expected
    assert refused > 200


# ---------------------------------------------------------------------------
# Graczyk sum rule


def test_graczyk_order_zero_is_one():
    xv, yv = exact_vec(3, 4), exact_vec(6, 8)
    assert graczyk_lhs(0, xv, yv, exact(2)) == exact(1)


def test_graczyk_order_one_collapses_to_inner_product():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        xv = tuple(exact(rand_rational(rng)) for _ in range(n))
        yv = tuple(exact(rand_rational(rng)) for _ in range(n))
        assert graczyk_lhs(1, xv, yv, exact(rand_rational(rng))) == dot(xv, yv)


def test_graczyk_worked_point():
    """lhs enumerated by hand over the three compositions of 2."""
    xv = exact_vec(3, 4)
    p = exact(1)
    g2_3, g2_4 = exact(11), exact(18)  # x^2 + 2p
    g1_3, g1_4 = exact(3), exact(4)
    by_hand = (
        g2_3 * g2_3 / exact(2)          # (2,0)
        + (g1_3 * g1_4) ** 2            # (1,1)
        + g2_4 * g2_4 / exact(2)        # (0,2)
    )
    assert by_hand == exact(Fraction(733, 2))
    assert graczyk_lhs(2, xv, xv, p) == by_hand
    pair = polarization_pair(xv, xv)
    assert graczyk_rhs(2, pair, 2, p) == by_hand
    report = graczyk_identity(2, xv, xv, p)
    assert report.verdict == "exact-pass"
    assert report.residual.is_zero()


def test_graczyk_rhs_dimension_one_keeps_only_j_zero():
    """(0)_j kills every j >= 1 term when n = 1."""
    rng = random.Random(17)
    for _ in range(10):
        x = exact(rand_rational(rng))
        y = exact(rand_rational(rng))
        p = exact(rand_rational(rng))
        pair = polarization_pair((x,), (y,))
        for big_m in range(7):
            want = (
                gh_eval(big_m, pair.x, p)
                * gh_eval(big_m, pair.y, p)
                / exact(math.factorial(big_m))
            )
            assert graczyk_rhs(big_m, pair, 1, p) == want


def test_graczyk_grid_subset():
    for n in (1, 2, 3):
        for xv, yv in exact_pair_pool(n)[:4]:
            for big_m in (0, 1, 3, 4):
                for p in (Fraction(-2), Fraction(1)):
                    report = graczyk_identity(big_m, xv, yv, exact(p))
                    assert report.verdict == "exact-pass"


# ---------------------------------------------------------------------------
# complex rotations


def test_givens_identity_at_zero_parameter():
    assert complex_givens(2, 0, 1, exact(0)) == mat_identity(2, EXACT)


def test_givens_real_parameter():
    rot = complex_givens(2, 0, 1, exact(Fraction(1, 2)))
    assert rot[0][0] == exact(Fraction(3, 5))
    assert rot[1][0] == exact(Fraction(4, 5))
    assert rot[0][1] == exact(Fraction(-4, 5))


def test_givens_complex_parameter():
    rot = complex_givens(2, 0, 1, exact(0, Fraction(1, 2)))
    c, s = rot[0][0], rot[1][0]
    assert c == exact(Fraction(5, 3))
    assert s == exact(0, Fraction(4, 3))
    assert c * c + s * s == exact(1)
    assert orthogonality_check(rot)


def test_givens_rejects_singular_parameter():
    with pytest.raises(ValueError):
        complex_givens(2, 0, 1, exact(0, 1))
    with pytest.raises(ValueError):
        complex_givens(2, 1, 1, exact(Fraction(1, 2)))
    with pytest.raises(IndexError):
        complex_givens(2, 0, 2, exact(Fraction(1, 2)))


def test_orthogonality_check_rejects_shear():
    shear = (
        (exact(1), exact(1)),
        (exact(0), exact(1)),
    )
    assert not orthogonality_check(shear)


def test_rotation_sumrule_identity_matrix():
    xv = exact_vec(1, 2, 3)
    report = rotation_sumrule(4, mat_identity(3, EXACT), 1, xv, exact(Fraction(1, 3)))
    assert report.verdict == "exact-pass"
    assert report.lhs == gh_eval(4, xv[1], exact(Fraction(1, 3)))


def test_rotation_sumrule_linear_case():
    rot = complex_givens(2, 0, 1, exact(Fraction(1, 2)))
    xv = exact_vec(1, 2)
    report = rotation_sumrule(1, rot, 0, xv, exact(1))
    # (3 x1 - 4 x2) / 5
    assert report.lhs == exact(Fraction(3 - 8, 5))
    assert report.verdict == "exact-pass"


def test_rotation_sumrule_complex_parameter_point():
    rot = complex_givens(2, 0, 1, exact(0, Fraction(1, 2)))
    report = rotation_sumrule(2, rot, 0, exact_vec(1, 2), exact(Fraction(1, 3)))
    assert report.verdict == "exact-pass"
    # (5/3 - 8i/3)^2 + 2/3, evaluated by hand
    assert report.lhs == exact(Fraction(-11, 3), Fraction(-80, 9))


def test_rotation_sumrule_products_of_blocks():
    t_values = (exact(Fraction(1, 2)), exact(2), exact(0, Fraction(1, 2)), exact(1, 1))
    xv = exact_vec(1, 2, 3)
    p = exact(Fraction(-1, 2))
    for ta in t_values:
        for tb in t_values:
            rot = mat_mul(
                complex_givens(3, 0, 1, ta), complex_givens(3, 1, 2, tb)
            )
            assert orthogonality_check(rot)
            for m in (2, 5):
                for i in range(3):
                    report = rotation_sumrule(m, rot, i, xv, p)
                    assert report.verdict == "exact-pass"


def test_rotation_sumrule_rejects_bad_row():
    rot = mat_identity(2, EXACT)
    with pytest.raises(IndexError):
        rotation_sumrule(1, rot, 2, exact_vec(1, 2), exact(1))


def test_bilinear_form_is_rotation_invariant():
    rng = random.Random(23)
    for t in (exact(Fraction(1, 2)), exact(0, Fraction(1, 2)), exact(1, 1)):
        rot = complex_givens(3, 0, 2, t)
        for _ in range(10):
            u = tuple(exact(rand_rational(rng)) for _ in range(3))
            v = tuple(exact(rand_rational(rng)) for _ in range(3))
            # O u as the one-column matrix O (u), flattened back to a vector.
            ou, ov = (mat_flatten(mat_mul(rot, tuple((a,) for a in w))) for w in (u, v))
            assert dot(ou, ov) == dot(u, v)


# ---------------------------------------------------------------------------
# factorization sum rule


def test_coeff_c_single_term_cases():
    c = exact(Fraction(3, 5))
    s = exact(Fraction(4, 5))
    assert coeff_C(1, 0, 1, c, s) == c
    assert coeff_C(0, 1, 1, c, s) == s


def test_coeff_c_identity_rotation_collapses():
    c, s = exact(1), exact(0)
    for m1 in range(4):
        for m2 in range(4):
            for r in range(m1 + m2 + 1):
                want = exact(1) if r == m1 else exact(0)
                assert coeff_C(m1, m2, r, c, s) == want


def test_coeff_c_rejects_out_of_range_r():
    with pytest.raises(ValueError):
        coeff_C(1, 1, 3, exact(1), exact(0))


def test_coeff_c_binomial_specialization():
    """sum_r C_r x^r y^(m1+m2-r) must equal (cx-sy)^m1 (sx+cy)^m2."""
    rng = random.Random(67)
    cs_values = (
        (exact(Fraction(3, 5)), exact(Fraction(4, 5))),
        (exact(Fraction(5, 3)), exact(0, Fraction(4, 3))),
    )
    for c, s in cs_values:
        for _ in range(5):
            x = exact(rand_rational(rng))
            y = exact(rand_rational(rng))
            for m1 in range(4):
                for m2 in range(4):
                    total = exact(0)
                    for r in range(m1 + m2 + 1):
                        total = total + coeff_C(m1, m2, r, c, s) * x**r * y ** (
                            m1 + m2 - r
                        )
                    want = (c * x - s * y) ** m1 * (s * x + c * y) ** m2
                    assert total == want


def test_factorization_identity_rotation():
    report = factorization_sumrule(
        3, 2, exact(1), exact(0), exact(2), exact(-1), exact(Fraction(1, 2))
    )
    assert report.verdict == "exact-pass"
    assert report.lhs == gh_eval(3, exact(2), exact(Fraction(1, 2))) * gh_eval(
        2, exact(-1), exact(Fraction(1, 2))
    )


def test_factorization_linear_case():
    c, s = exact(Fraction(3, 5)), exact(Fraction(4, 5))
    x, y = exact(1), exact(2)
    report = factorization_sumrule(0, 1, c, s, x, y, exact(7))
    assert report.lhs == s * x + c * y
    assert report.verdict == "exact-pass"


def test_factorization_pythagorean_point():
    report = factorization_sumrule(
        2,
        1,
        exact(Fraction(3, 5)),
        exact(Fraction(4, 5)),
        exact(1),
        exact(2),
        exact(Fraction(-1, 2)),
    )
    assert report.verdict == "exact-pass"
    assert report.residual.is_zero()


def test_factorization_complex_cayley_point():
    # Cayley pair from t = 1 + i: c = (-3-4i)/5, s = (6-2i)/5
    c = exact(Fraction(-3, 5), Fraction(-4, 5))
    s = exact(Fraction(6, 5), Fraction(-2, 5))
    assert c * c + s * s == exact(1)
    report = factorization_sumrule(3, 4, c, s, exact(Fraction(1, 2)), exact(-2), exact(1))
    assert report.verdict == "exact-pass"


def test_factorization_rejects_invalid_rotation():
    with pytest.raises(ValueError):
        factorization_sumrule(1, 1, exact(1), exact(1), exact(1), exact(1), exact(1))
    # Float mode allows rounding in c^2 + s^2 = 1, up to 1e-12: a gap of
    # 1.6e-13 passes, and one of 1.6e-11 or 1.6e-6 does not.
    point = (flt(1.0), flt(2.0), flt(0.5))
    for gap in (0.0, 1e-13):
        assert factorization_sumrule(1, 1, flt(0.6), flt(0.8 + gap), *point).passed
    for gap in (1e-11, 1e-6):
        with pytest.raises(ValueError, match=r"c\^2 \+ s\^2 must equal 1"):
            factorization_sumrule(1, 1, flt(0.6), flt(0.8 + gap), *point)


# ---------------------------------------------------------------------------
# matrix polarization and moments


def mat2(a, b, c, d):
    return ((exact(a), exact(b)), (exact(c), exact(d)))


def test_matrix_polarization_same_matrix():
    xm = mat2(1, 2, 2, 0)
    pair = matrix_polarization(xm, xm)
    assert pair.x == exact(3) and pair.y == exact(3)


def test_matrix_polarization_zero_second():
    xm = mat2(1, 2, 2, 0)
    zero_m = mat2(0, 0, 0, 0)
    pair = matrix_polarization(xm, zero_m)
    assert pair.x == exact(3) and pair.y == exact(0)


def test_matrix_polarization_crossed_pythagorean():
    pair = matrix_polarization(mat2(3, 0, 0, 0), mat2(0, 4, 0, 0))
    assert pair.x == exact(5) and pair.y == exact(0)


def test_matrix_polarization_shape_mismatch():
    with pytest.raises(ValueError):
        matrix_polarization(mat2(1, 0, 0, 1), ((exact(1), exact(0)),))
    with pytest.raises(ValueError):
        matrix_polarization(
            ((exact(1), exact(0)), (exact(0),)), mat2(1, 0, 0, 1)
        )


def test_matrix_moment_identity_exact():
    xm = mat2(3, 0, 0, 0)
    ym = mat2(0, 4, 0, 0)
    for big_m in range(7):
        report = matrix_moment_identity(big_m, xm, ym)
        assert report.verdict == "exact-pass"


@pytest.mark.parametrize("lift_entry", [exact, flt], ids=["exact", "float"])
@pytest.mark.parametrize(
    "xm, ym",
    [
        # |xm + ym|_F = 3 and |xm - ym|_F = 7 in the 1x3 case, 5 and 5 in
        # the 2x2 case, so exact polarization works.
        pytest.param(((Fraction(3, 2), Fraction(5, 2), 4),),
                     ((Fraction(-1, 2), Fraction(-1, 2), -2),), id="1x3"),
        pytest.param(((2, 3), (1, 2)), ((-1, -1), (1, 2)), id="2x2"),
    ],
)
def test_matrix_moment_identity_is_flattened_inner_product(lift_entry, xm, ym):
    xm = tuple(tuple(lift_entry(v) for v in row) for row in xm)
    ym = tuple(tuple(lift_entry(v) for v in row) for row in ym)
    for big_m in range(6):
        matrix = matrix_moment_identity(big_m, xm, ym)
        vector = inner_product_moment_identity(
            big_m, mat_flatten(xm), mat_flatten(ym), lift_entry(1)
        )
        assert (matrix.lhs, matrix.rhs) == (vector.lhs, vector.rhs)
        assert matrix.passed


def test_inner_product_moment_identity_exact():
    xv = exact_vec(3, 4)
    for big_m in range(7):
        for p in (Fraction(1, 2), Fraction(1), Fraction(2)):
            report = inner_product_moment_identity(big_m, xv, xv, exact(p))
            assert report.verdict == "exact-pass"
            assert report.params["p_convention"] == "sqrt(p)"


# ---------------------------------------------------------------------------
# float mode


def test_float_mode_reports_within_tolerance():
    xv = (flt(3), flt(4))
    report = graczyk_identity(4, xv, xv, flt(1.5), tolerance=1e-9)
    assert report.mode == FLOAT
    assert report.verdict == "within-tolerance"
    assert relative_residual(report.lhs, report.rhs) < 1e-12


def test_float_overflow_fails_no_true_identity():
    """At 1e200 the float sides are inf and nan on a true identity: the
    check decides nothing, so it raises instead of reporting a failure."""
    point = (flt(1e200), flt(1))
    with pytest.raises(ValueError, match="graczyk check at M=1, .* overflows a double"):
        graczyk_reports([1], point, point, (flt(1),))


@pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1.0])
def test_float_reports_need_a_finite_positive_tolerance(tolerance):
    with pytest.raises(ValueError, match="finite positive tolerance"):
        make_report("x", {}, flt(1), flt(2), tolerance=tolerance)
    with pytest.raises(ValueError, match="finite positive tolerance"):
        make_report("x", {}, flt(1), flt(1), tolerance=tolerance)


def test_float_rotation_and_factorization():
    rot = complex_givens(2, 0, 1, flt(0.0, 0.5))
    report = rotation_sumrule(3, rot, 0, (flt(1), flt(2)), flt(1 / 3), tolerance=1e-9)
    assert report.verdict == "within-tolerance"
    report = factorization_sumrule(
        2, 2, flt(0.6), flt(0.8), flt(1.0), flt(2.0), flt(-0.5), tolerance=1e-9
    )
    assert report.verdict == "within-tolerance"


def test_exact_pass_requires_zero_residual():
    xv = exact_vec(3, 4)
    report = graczyk_identity(2, xv, xv, exact(1))
    assert report.residual.is_zero()
    assert report.lhs - report.rhs == report.residual
