"""Algebraic sum rules: both sides evaluated, residuals reported.

Every checker computes the left and right side of one identity through
independent code paths and wraps them in an :class:`IdentityReport`.  In
exact mode a report passes only with a literally zero residual; in float
mode it passes when the relative residual stays under the caller's
tolerance.  Nothing in this module is randomized.

Each sum-rule side, and the polarization pair, is one loop over pairs, in
both modes.  In exact mode the inputs are scaled to a common denominator, so
every term is a Gaussian integer summed as an int pair (``gaussian_row``; the
pair sums lam^2 |u +/- v|^2, rooted by math.isqrt); in float mode the scale is
1 and the pairs hold doubles.  The two sides of every rule share that
denominator, so an exact verdict compares the sides' integers: equal pairs
become one Scalar, both sides' object.  A side is one division into a Scalar.

Each rule has one ``*_reports`` function that checks one grid object and
everything that shares its tables: a vector pair at every (M, p), a rotation
at every degree and row, a (c, s) at every point and degree split.  It builds
what depends only on that object (the polarization pair, the Graczyk folds per
p, the rotation's integers and coordinate rows, the connection coefficients)
once, at the top degree, and reads every check's sides from it as int pairs,
which ``_reports`` turns into reports.  The single-check function is that
function called with one degree (and one point).  The Graczyk rule and the two
moment identities (M! times the Graczyk sides at p/2) share one check builder.

The multinomial sums over |m| = M (the Graczyk left side, the rotation
rule's right side) are not enumerated: since sum_m g_m(x, p) t^m / m! =
exp(xt + pt^2), they are entries of a binomial convolution of per-coordinate
rows (``_binomial_fold``), which gives every degree at once.  The Graczyk
right side is the same fold of a weight row and one product row.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from ._record import Record
from .ghpoly import (
    GaussianInt,
    clearing_scale,
    common_mode,
    from_gaussian,
    gaussian_row,
    scale_to_gaussian,
)
from .scalars import (
    EXACT,
    FLOAT,
    NotExactlyRepresentableError,
    Scalar,
    lift,
    magnitude,
    one,
    zero,
)

Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]

EXACT_PASS = "exact-pass"
WITHIN_TOLERANCE = "within-tolerance"
FAIL = "fail"

DEFAULT_FLOAT_TOLERANCE = 1e-9
# How far a float O O^t may stray from I by rounding (c^2 + s^2 from 1).
ORTHOGONALITY_TOLERANCE = 1e-12
# The residual of every exact check with equal sides.
_EXACT_ZERO = zero(EXACT)


class PolarizationPair(Record):
    """The two scalars (|u+v| +/- |u-v|) / 2 carrying a vector pair's norms
    and inner product; x >= |y| always."""

    __slots__ = ("x", "y")
    x: Scalar
    y: Scalar

    @property
    def mode(self) -> str:
        return self.x.mode


class IdentityReport(Record):
    """Outcome of one identity check at one parameter point."""

    __slots__ = ("identity", "params", "lhs", "rhs", "residual", "mode", "verdict")
    identity: str
    params: dict[str, str]
    lhs: Scalar
    rhs: Scalar
    residual: Scalar
    mode: str
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict in (EXACT_PASS, WITHIN_TOLERANCE)


def relative_residual(lhs: Scalar, rhs: Scalar) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|) as a double."""
    return _relative(lhs - rhs, lhs, rhs)


def _relative(residual: Scalar, lhs: Scalar, rhs: Scalar) -> float:
    return magnitude(residual) / max(1.0, magnitude(lhs), magnitude(rhs))


def make_report(
    identity: str,
    params: dict[str, str],
    lhs: Scalar,
    rhs: Scalar,
    tolerance: float | None = None,
) -> IdentityReport:
    """The report of one check.  An exact check passes on equal sides, with
    the shared zero residual; only a failing one pays for the subtraction.
    A float check raises ValueError on a tolerance that is not finite and
    positive, and when it fails on a side that overflowed a double (such a
    side never passes, so a passing check skips the look)."""
    if lhs.mode == EXACT:
        if lhs == rhs:
            return IdentityReport(identity, params, lhs, rhs, _EXACT_ZERO, EXACT, EXACT_PASS)
        return IdentityReport(identity, params, lhs, rhs, lhs - rhs, EXACT, FAIL)
    tol = DEFAULT_FLOAT_TOLERANCE if tolerance is None else tolerance
    if not 0 < tol < math.inf:
        raise ValueError("float mode needs a finite positive tolerance")
    residual = lhs - rhs
    if _relative(residual, lhs, rhs) <= tol:
        return IdentityReport(identity, params, lhs, rhs, residual, FLOAT, WITHIN_TOLERANCE)
    if not all(map(math.isfinite, (lhs.re, lhs.im, rhs.re, rhs.im))):
        point = ", ".join(f"{k}={v}" for k, v in params.items())
        raise ValueError(f"{identity} check at {point} overflows a double; use --mode exact")
    return IdentityReport(identity, params, lhs, rhs, residual, FLOAT, FAIL)


# ---------------------------------------------------------------------------
# vector and matrix helpers over Scalars


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Bilinear (transpose, non-conjugated) inner product sum_i u_i v_i."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    if not u:
        raise ValueError("empty vectors u and v: the dot product needs a coordinate")
    total = zero(u[0].mode)
    for a, b in zip(u, v):
        total = total + a * b
    return total


def norm_sq(u: Sequence[Scalar]) -> Scalar:
    return dot(u, u)


def mat_identity(n: int, mode: str) -> Matrix:
    return tuple(
        tuple(one(mode) if r == c else zero(mode) for c in range(n))
        for r in range(n)
    )


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = mat_transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_flatten(a: Matrix) -> Vector:
    return tuple(entry for row in a for entry in row)


def _check_rectangular(a: Matrix, name: str) -> tuple[int, int]:
    if not a:
        raise ValueError(f"empty matrix {name}: a matrix needs a row")
    rows, cols = len(a), len(a[0])
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    return rows, cols


# ---------------------------------------------------------------------------
# Gaussian-integer (float mode: double) pair helpers for the sides


def _gmul(u: GaussianInt, v: GaussianInt) -> GaussianInt:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _gpowers(base: GaussianInt, top: int) -> list[GaussianInt]:
    """base^0 .. base^top."""
    out = [(1, 0)]
    for _ in range(top):
        out.append(_gmul(out[-1], base))
    return out


# A matrix as (den, rows of Gaussian-integer pairs): the matrix is the
# pairs over den.  In float mode den is 1 and the pairs hold doubles.
PairMatrix = tuple[int, tuple[tuple[GaussianInt, ...], ...]]


def _to_pairs(a: Matrix) -> PairMatrix:
    den = clearing_scale(*[entry for row in a for entry in row])
    return den, tuple(tuple(scale_to_gaussian(entry, den) for entry in row) for row in a)


def _pair_mat_mul(a: PairMatrix, b: PairMatrix) -> PairMatrix:
    """The product of two pair matrices, each entry summed as ``dot`` sums
    it: from zero, adding one product at a time.  Float entries therefore
    round exactly as ``mat_mul`` on the float Scalars does."""
    den_a, rows = a
    den_b, b_rows = b
    cols = tuple(zip(*b_rows))
    product_rows = []
    for row in rows:
        entries = []
        for col in cols:
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, col):
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            entries.append((re, im))
        product_rows.append(tuple(entries))
    return den_a * den_b, tuple(product_rows)


def _binomial_fold(top: int, tables: Sequence[Sequence[GaussianInt]]) -> list[GaussianInt]:
    """Entries 0..top of the binomial convolution of the tables,
    (A * T)[M] = sum_k C(M, k) A[k] T[M-k], folded left over the tables.

    Entry M is sum over |m| = M of M!/m! * prod_j tables[j][m_j]: each table
    is a row of exponential-generating-function coefficients, and the fold
    multiplies the generating functions.  One pass per table gives every
    degree at once.
    """
    binoms = [[math.comb(M, k) for k in range(M + 1)] for M in range(top + 1)]
    acc = list(tables[0][: top + 1])
    for table in tables[1:]:
        folded = []
        for M, weights in enumerate(binoms):
            re = im = 0
            for k, c in enumerate(weights):
                (ar, ai), (tr, ti) = acc[k], table[M - k]
                re += c * (ar * tr - ai * ti)
                im += c * (ar * ti + ai * tr)
            folded.append((re, im))
        acc = folded
    return acc


def _reports(
    identity: str, mode: str, tolerance: float | None, checks: Iterable[tuple]
) -> list[IdentityReport]:
    """The report of each check (params, den, lhs, rhs), in order: each side
    is an int pair (float mode: doubles) over den.  Equal exact pairs make one
    Scalar, both sides' object; float sides never share one, since
    -0.0 == 0.0 prints "-0.0"."""
    reports = []
    for params, den, lhs_pair, rhs_pair in checks:
        lhs = from_gaussian(*lhs_pair, den, mode)
        rhs = lhs if mode == EXACT and lhs_pair == rhs_pair else from_gaussian(*rhs_pair, den, mode)
        reports.append(make_report(identity, params, lhs, rhs, tolerance))
    return reports


def _top_degree(degrees: Sequence[int]) -> int:
    """The largest degree (0 for none); a negative one must not index a row
    built for a larger one."""
    if min(degrees, default=0) < 0:
        raise ValueError("degree must be a natural number")
    return max(degrees, default=0)


# ---------------------------------------------------------------------------
# polarization


def polarization_pair(xv: Sequence[Scalar], yv: Sequence[Scalar]) -> PolarizationPair:
    """Reduce a real vector pair to the scalars x = (|u+v|+|u-v|)/2,
    y = (|u+v|-|u-v|)/2, from the integers lam^2 |u +/- v|^2 over one lam.

    Exact mode takes their roots with math.isqrt and needs perfect squares;
    otherwise NotExactlyRepresentableError is raised and the caller may rerun
    in float mode.  Float mode sums doubles (lam = 1) and takes math.sqrt.
    """
    if len(xv) != len(yv):
        raise ValueError("dimension mismatch")
    if not xv:
        raise ValueError("empty vectors u and v: the dot product needs a coordinate")
    if any(not s.is_real() for s in (*xv, *yv)):
        raise ValueError("polarization needs real vectors")
    lam, mode = clearing_scale(*xv, *yv), xv[0].mode
    plus_sq = minus_sq = 0
    for x, y in zip(xv, yv):
        a, b = scale_to_gaussian(x, lam)[0], scale_to_gaussian(y, lam)[0]
        plus_sq += (a + b) * (a + b)
        minus_sq += (a - b) * (a - b)
    roots = [math.sqrt(u) if mode == FLOAT else math.isqrt(u) for u in (plus_sq, minus_sq)]
    for root, square in zip(roots, (plus_sq, minus_sq)):
        if mode == EXACT and root * root != square:
            raise NotExactlyRepresentableError(
                f"norm^2 = {Fraction(square, lam * lam)} is not a perfect rational square; "
                "rerun in float mode"
            )
    plus, minus = roots
    halves = (from_gaussian(r, 0, 2 * lam, mode) for r in (plus + minus, plus - minus))
    return PolarizationPair(*halves)


def matrix_polarization(xm: Matrix, ym: Matrix) -> PolarizationPair:
    """Polarization through unsquared Frobenius norms.

    || a ||_F is the Euclidean norm of the flattened matrix, so this is the
    vector construction applied entry-wise: x = (||xm+ym||_F + ||xm-ym||_F)/2
    and y with the minus sign.
    """
    shape_x = _check_rectangular(xm, "xm")
    shape_y = _check_rectangular(ym, "ym")
    if shape_x != shape_y:
        raise ValueError(f"shape mismatch: {shape_x} vs {shape_y}")
    return polarization_pair(mat_flatten(xm), mat_flatten(ym))


# ---------------------------------------------------------------------------
# Graczyk inner-product sum rule and the moments of its stochastic forms


def _product_row(
    top: int, x: Scalar, y: Scalar, lam: int, p_int: GaussianInt
) -> list[GaussianInt]:
    """g_k(x, p) g_k(y, p) times lam^(2k), k = 0..top."""
    row_x = gaussian_row(top, scale_to_gaussian(x, lam), p_int)
    row_y = gaussian_row(top, scale_to_gaussian(y, lam), p_int)
    return [_gmul(gx, gy) for gx, gy in zip(row_x, row_y)]


def _graczyk_lhs_ints(
    top: int, xv: Sequence[Scalar], yv: Sequence[Scalar], lam: int, p_int: GaussianInt
) -> list[GaussianInt]:
    """M! lam^(2M) graczyk_lhs at M = 0..top: the fold of the coordinates'
    product rows, whose weight M!/m! is the left side's 1/m! times M!."""
    if len(xv) != len(yv):
        raise ValueError("dimension mismatch")
    if not xv:
        raise ValueError("empty vectors xv and yv: the Graczyk rule needs n >= 1")
    return _binomial_fold(top, [_product_row(top, x, y, lam, p_int) for x, y in zip(xv, yv)])


def _graczyk_rhs_ints(
    top: int, pair: PolarizationPair, n: int, lam: int, p_int: GaussianInt
) -> list[GaussianInt]:
    """M! lam^(2M) graczyk_rhs at M = 0..top: the fold of a weight row and
    the pair's product row.  With P = lam^2 p, the term j of the right side
    times M! lam^(2M) is C(M, 2j) w_2j lam^(2M-4j) g_(M-2j)(x) g_(M-2j)(y),
    where w_2j = (2j)!/j! (2P^2)^j (n-1)(n+1)...(n+2j-3); w is 0 at odd k."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    two_p_sq = _gmul((2 * p_int[0], 2 * p_int[1]), p_int)
    weights = [(1, 0)]
    for k in range(1, top + 1):
        re, im = (0, 0) if k % 2 else _gmul(weights[-2], two_p_sq)
        # w_k / w_(k-2) = 2(k-1) (n+k-3) 2P^2 at even k.
        step = 2 * (k - 1) * (n + k - 3)
        weights.append((step * re, step * im))
    return _binomial_fold(top, [weights, _product_row(top, pair.x, pair.y, lam, p_int)])


def graczyk_lhs(M: int, xv: Sequence[Scalar], yv: Sequence[Scalar], p: Scalar) -> Scalar:
    """sum_{|m|=M} g_m(xv, p) g_m(yv, p) / m! over all compositions."""
    lam = clearing_scale(*xv, *yv, p)
    row = _graczyk_lhs_ints(M, xv, yv, lam, scale_to_gaussian(p, lam * lam))
    return from_gaussian(*row[M], math.factorial(M) * lam ** (2 * M), p.mode)


def graczyk_rhs(M: int, pair: PolarizationPair, n: int, p: Scalar) -> Scalar:
    """sum_j (2p)^(2j) / (j!(M-2j)!) ((n-1)/2)_j g_{M-2j}(x,p) g_{M-2j}(y,p)."""
    lam = clearing_scale(pair.x, pair.y, p)
    row = _graczyk_rhs_ints(M, pair, n, lam, scale_to_gaussian(p, lam * lam))
    return from_gaussian(*row[M], math.factorial(M) * lam ** (2 * M), p.mode)


def _pair_rule_checks(
    degrees: Sequence[int],
    xv: Sequence[Scalar],
    yv: Sequence[Scalar],
    pair: PolarizationPair,
    p_values: Sequence[Scalar],
    params: Callable[[int, Scalar], dict[str, str]],
    moments: bool = False,
) -> Iterator[tuple]:
    """The checks of a rule read off the Graczyk sides, at every (M, p), M
    outer.  Per p, one lam clears xv, yv, the pair and p, and both sides
    are one fold each, integers over M! lam^(2M).

    With ``moments`` they are the moment identities' checks: M! times the
    sides at p/2 (the stochastic form scales its noise by sqrt(p), while the
    polynomial parameter enters as sigma^2 = 2p), the same integers over
    lam^(2M).
    """
    n, top, mode = len(xv), _top_degree(degrees), pair.mode
    folds = []
    for p in p_values:
        q = p * lift(Fraction(1, 2), mode) if moments else p
        lam = clearing_scale(*xv, *yv, pair.x, pair.y, q)
        p_int = scale_to_gaussian(q, lam * lam)
        lhs_row = _graczyk_lhs_ints(top, xv, yv, lam, p_int)
        folds.append((lam * lam, lhs_row, _graczyk_rhs_ints(top, pair, n, lam, p_int)))
    for M in degrees:
        m_fact = 1 if moments else math.factorial(M)
        for p, (lam_sq, lhs_row, rhs_row) in zip(p_values, folds):
            yield params(M, p), m_fact * lam_sq**M, lhs_row[M], rhs_row[M]


def graczyk_identity(
    M: int,
    xv: Sequence[Scalar],
    yv: Sequence[Scalar],
    p: Scalar,
    tolerance: float | None = None,
) -> IdentityReport:
    """Both sides of the inner-product sum rule at one parameter point."""
    return graczyk_reports((M,), xv, yv, (p,), tolerance)[0]


def graczyk_reports(
    degrees: Sequence[int],
    xv: Sequence[Scalar],
    yv: Sequence[Scalar],
    p_values: Sequence[Scalar],
    tolerance: float | None = None,
) -> list[IdentityReport]:
    """graczyk_identity at every (M, p), M outer, polarizing the pair once."""
    pair = polarization_pair(xv, yv)
    point = {
        "n": str(len(xv)),
        "xv": _fmt_vector(xv),
        "yv": _fmt_vector(yv),
        "pair_x": str(pair.x),
        "pair_y": str(pair.y),
    }
    checks = _pair_rule_checks(
        degrees, xv, yv, pair, p_values, lambda M, p: {"M": str(M), "p": str(p), **point}
    )
    return _reports("graczyk", pair.mode, tolerance, checks)


def inner_product_moment_identity(
    M: int,
    xv: Sequence[Scalar],
    yv: Sequence[Scalar],
    p: Scalar,
    tolerance: float | None = None,
) -> IdentityReport:
    """Exact M-th moment of both sides of the stochastic inner-product form."""
    return inner_product_moment_reports((M,), xv, yv, (p,), tolerance)[0]


def inner_product_moment_reports(
    degrees: Sequence[int],
    xv: Sequence[Scalar],
    yv: Sequence[Scalar],
    p_values: Sequence[Scalar],
    tolerance: float | None = None,
) -> list[IdentityReport]:
    """inner_product_moment_identity at every (M, p), M outer, polarizing
    the pair once."""
    point = {
        "n": str(len(xv)),
        "p_convention": "sqrt(p)",
        "xv": _fmt_vector(xv),
        "yv": _fmt_vector(yv),
    }
    pair = polarization_pair(xv, yv)
    checks = _pair_rule_checks(
        degrees, xv, yv, pair, p_values,
        lambda M, p: {"M": str(M), "p": str(p), **point}, moments=True,
    )
    return _reports("inner-product-moments", pair.mode, tolerance, checks)


def matrix_moment_identity(
    M: int,
    xm: Matrix,
    ym: Matrix,
    tolerance: float | None = None,
) -> IdentityReport:
    """Exact M-th moment of the matrix trace representation.

    tr((xm+N)^t (ym+M)) is the inner product of the flattened matrices with
    unit-variance noise, so this is the inner-product moment identity on
    vec xm, vec ym at p = 1 (polynomial parameter 1/2), dimension rows*cols.
    """
    return matrix_moment_reports((M,), xm, ym, tolerance)[0]


def matrix_moment_reports(
    degrees: Sequence[int],
    xm: Matrix,
    ym: Matrix,
    tolerance: float | None = None,
) -> list[IdentityReport]:
    """matrix_moment_identity at every M, polarizing the pair once."""
    pair = matrix_polarization(xm, ym)
    point = {
        "shape": f"{len(xm)}x{len(xm[0])}",
        "p_convention": "unit-variance noise, polynomial parameter 1/2",
        "xm": _fmt_matrix(xm),
        "ym": _fmt_matrix(ym),
    }
    checks = _pair_rule_checks(
        degrees, mat_flatten(xm), mat_flatten(ym), pair, (one(pair.mode),),
        lambda M, p: {"M": str(M), **point}, moments=True,
    )
    return _reports("matrix", pair.mode, tolerance, checks)


# ---------------------------------------------------------------------------
# complex rotations


def complex_givens(n: int, i: int, j: int, t: Scalar) -> Matrix:
    """Complex-orthogonal Givens block from the Cayley parametrization.

    c = (1-t^2)/(1+t^2) and s = 2t/(1+t^2) satisfy c^2 + s^2 = 1 exactly for
    any rational or Gaussian-rational t with t^2 != -1; the (i, j) plane gets
    the block [[c, -s], [s, c]].
    """
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError("plane indices out of range")
    if i == j:
        raise ValueError("plane indices must differ")
    unit = one(t.mode)
    denom = unit + t * t
    if denom.is_zero():
        raise ValueError("t^2 = -1 is outside the Cayley chart")
    c = (unit - t * t) / denom
    s = (t + t) / denom
    rows = [list(row) for row in mat_identity(n, t.mode)]
    rows[i][i] = c
    rows[i][j] = -s
    rows[j][i] = s
    rows[j][j] = c
    return tuple(tuple(row) for row in rows)


def orthogonality_check(o: Matrix) -> bool:
    """True iff O O^t = O^t O = I under the bilinear (non-conjugated) form,
    tested as W W^t = den^2 I on the pairs of O = W / den.  Each entry adds
    the terms ``mat_mul`` adds, in its order: float verdicts are unchanged."""
    rows, cols = _check_rectangular(o, "o")
    if rows != cols:
        raise ValueError("matrix must be square")
    den, w = pairs = _to_pairs(o)
    transposed = (den, tuple(zip(*w)))
    exact_mode = o[0][0].mode == EXACT
    for _, product in (_pair_mat_mul(pairs, transposed), _pair_mat_mul(transposed, pairs)):
        for r, row in enumerate(product):
            for c, (re, im) in enumerate(row):
                if r == c:
                    re -= den * den
                if (re or im) if exact_mode else math.hypot(re, im) > ORTHOGONALITY_TOLERANCE:
                    return False
    return True


def _rotated_rows(
    top: int, o_pairs: PairMatrix, xv: Sequence[Scalar], p: Scalar
) -> tuple[int, list[list[GaussianInt]], list[list[GaussianInt]]]:
    """What both rotation rules read, at degrees 0..top: with O = W / den
    and xv = X / lam, the scale den lam of O xv = W X / (den lam), the rows
    g_k((O xv)_i, p) times (den lam)^k, and g_k(x_j, p) times lam^k."""
    lam = clearing_scale(*xv, p)
    x_ints = [scale_to_gaussian(coord, lam) for coord in xv]
    scale, rotated = _pair_mat_mul(o_pairs, (lam, tuple((x,) for x in x_ints)))
    p_lhs = scale_to_gaussian(p, scale * scale)
    p_int = scale_to_gaussian(p, lam * lam)
    lhs_rows = [gaussian_row(top, entry, p_lhs) for (entry,) in rotated]
    return scale, lhs_rows, [gaussian_row(top, x, p_int) for x in x_ints]


def rotation_sumrule(
    m: int,
    o: Matrix,
    i: int,
    xv: Sequence[Scalar],
    p: Scalar,
    tolerance: float | None = None,
    label: str | None = None,
) -> IdentityReport:
    """g_m((O xv)_i, p) against its multinomial expansion over rows of O."""
    if not (0 <= i < len(o)):
        raise IndexError("row index out of range")
    return rotation_reports((m,), o, xv, p, tolerance, label)[i]


def rotation_reports(
    degrees: Sequence[int],
    o: Matrix,
    xv: Sequence[Scalar],
    p: Scalar,
    tolerance: float | None = None,
    label: str | None = None,
) -> list[IdentityReport]:
    """rotation_sumrule at every degree and row, degree outer, with the
    rows of ``_rotated_rows`` built once and each row's binomial fold built
    once, at the top degree."""
    n, cols = _check_rectangular(o, "o")
    if len(xv) != n or cols != n:
        raise ValueError("dimension mismatch")
    top = _top_degree(degrees)
    # Each term prod_j O_ij^(m_j) g_(m_j)(x_j, p) is an integer over
    # (den lam)^m, as g_m((O xv)_i, p) is: both sides share that denominator.
    mode = common_mode(*[entry for row in o for entry in row], *xv, p)
    o_pairs = _to_pairs(o)
    scale, lhs_rows, coord_rows = _rotated_rows(top, o_pairs, xv, p)
    sides = []
    for w, lhs_row in zip(o_pairs[1], lhs_rows):
        tables = [
            [_gmul(pw, g) for pw, g in zip(_gpowers(wj, top), row)]
            for wj, row in zip(w, coord_rows)
        ]
        sides.append((lhs_row, _binomial_fold(top, tables)))
    shared = {
        "p": str(p),
        "xv": _fmt_vector(xv),
        "rotation": label if label is not None else _fmt_matrix(o),
    }
    row_params = [{"n": str(n), "i": str(i), **shared} for i in range(n)]
    checks = (
        ({"m": str(m), **params_i}, scale**m, lhs_row[m], rhs_row[m])
        for m in degrees
        for params_i, (lhs_row, rhs_row) in zip(row_params, sides)
    )
    return _reports("rotation", mode, tolerance, checks)


# ---------------------------------------------------------------------------
# factorization sum rule


def coeff_C(m1: int, m2: int, r: int, c: Scalar, s: Scalar) -> Scalar:
    """Connection coefficient of the factorization rule.

    C_{m1,m2,r}(c,s) = sum_l binom(m1, r-l) binom(m2, l) (-1)^(m1-r+l)
                       c^(m2+r-2l) s^(m1-r+2l),
    with out-of-range binomials zero and the 0^0 = 1 convention.
    """
    if m1 < 0 or m2 < 0:
        raise ValueError("degrees must be natural numbers")
    if not (0 <= r <= m1 + m2):
        raise ValueError("r must lie in [0, m1+m2]")
    den = clearing_scale(c, s)
    c_pows = _gpowers(scale_to_gaussian(c, den), m1 + m2)
    s_pows = _gpowers(scale_to_gaussian(s, den), m1 + m2)
    re, im = _coeff_C_gaussian(m1, m2, r, c_pows, s_pows)
    return from_gaussian(re, im, den ** (m1 + m2), c.mode)


def _coeff_C_gaussian(
    m1: int,
    m2: int,
    r: int,
    c_pows: Sequence[GaussianInt],
    s_pows: Sequence[GaussianInt],
) -> GaussianInt:
    """C_{m1,m2,r} from power rows of the Gaussian integers k c and k s.

    Every term has degree m1 + m2 in (c, s), so the result is
    k^(m1+m2) C_{m1,m2,r}(c, s).
    """
    re = im = 0
    for l in range(min(m2, r) + 1):
        b1 = math.comb(m1, r - l) if r - l <= m1 else 0
        if b1 == 0:
            continue
        weight = b1 * math.comb(m2, l) * (-1) ** (m1 - r + l)
        term = _gmul(c_pows[m2 + r - 2 * l], s_pows[m1 - r + 2 * l])
        re += weight * term[0]
        im += weight * term[1]
    return re, im


def factorization_sumrule(
    m1: int,
    m2: int,
    c: Scalar,
    s: Scalar,
    x: Scalar,
    y: Scalar,
    p: Scalar,
    tolerance: float | None = None,
) -> IdentityReport:
    """g_{m1}(cx-sy, p) g_{m2}(sx+cy, p) against its connection expansion."""
    return factorization_reports(((m1, m2),), c, s, ((x, y, p),), tolerance)[0]


def factorization_reports(
    splits: Sequence[tuple[int, int]],
    c: Scalar,
    s: Scalar,
    points: Sequence[tuple[Scalar, Scalar, Scalar]],
    tolerance: float | None = None,
) -> list[IdentityReport]:
    """factorization_sumrule at every point (x, y, p) and degree split
    (m1, m2), point outer, with the connection coefficients built once per
    (c, s) and each point's ``_rotated_rows`` once, at the top degree."""
    if any(m1 < 0 or m2 < 0 for m1, m2 in splits):
        raise ValueError("degrees must be natural numbers")
    top = max((m1 + m2 for m1, m2 in splits), default=0)
    # The rule is the rotation set-up at n = 2, O = [[c, -s], [s, c]]: with
    # O = W / k, C_{m1,m2,r} is an integer over k^(m1+m2), and both sides
    # share the denominator (k lam)^(m1+m2).
    mode = common_mode(c, s, *(value for point in points for value in point))
    o = ((c, -s), (s, c))
    if not orthogonality_check(o):
        raise ValueError("c^2 + s^2 must equal 1")
    o_pairs = _to_pairs(o)
    (cc, _), (ss, _) = o_pairs[1]
    c_pows, s_pows = _gpowers(cc, top), _gpowers(ss, top)
    coeffs = {
        (m1, m2): [_coeff_C_gaussian(m1, m2, r, c_pows, s_pows) for r in range(m1 + m2 + 1)]
        for m1, m2 in splits
    }
    checks = []
    for x, y, p in points:
        scale, (row_u, row_v), (row_x, row_y) = _rotated_rows(top, o_pairs, (x, y), p)
        point = {"c": str(c), "s": str(s), "x": str(x), "y": str(y), "p": str(p)}
        for m1, m2 in splits:
            total = m1 + m2
            rhs_re = rhs_im = 0
            for r, coeff in enumerate(coeffs[m1, m2]):
                term = _gmul(coeff, _gmul(row_x[r], row_y[total - r]))
                rhs_re += term[0]
                rhs_im += term[1]
            params = {"m1": str(m1), "m2": str(m2), **point}
            lhs = _gmul(row_u[m1], row_v[m2])
            checks.append((params, scale**total, lhs, (rhs_re, rhs_im)))
    return _reports("factorization", mode, tolerance, checks)


def _fmt_vector(v: Sequence[Scalar]) -> str:
    return ",".join(str(s) for s in v)


def _fmt_matrix(a: Matrix) -> str:
    return ";".join(_fmt_vector(row) for row in a)
