"""Built-in verification grids and sweep drivers.

The default grids are fixed constants, so repeated runs of the same sweep
produce byte-identical reports.  Exact sweeps use vector pairs engineered so
the polarization norms are rational (Pythagorean constructions), which keeps
every verdict at zero residual instead of a float tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import chain, product
from typing import Callable, Iterable

from .ghpoly import from_gaussian
from .identities import (
    IdentityReport,
    Matrix,
    Vector,
    _pair_mat_mul,
    _to_pairs,
    complex_givens,
    factorization_reports,
    graczyk_reports,
    inner_product_moment_reports,
    matrix_moment_reports,
    rotation_reports,
)
from .scalars import EXACT, FLOAT, Scalar, exact, to_float

# Polynomial parameters swept by the exact identity checks.
P_GRID: tuple[Fraction, ...] = (
    Fraction(-2),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1),
    Fraction(3, 2),
)

M_MAX = 6
DEGREES = range(M_MAX + 1)
GRACZYK_N_VALUES = (1, 2, 3)

# Integer (or rational) vectors whose Euclidean norm is rational, per
# dimension.  Sums and differences of pool entries feed the polarization
# construction below.
RATIONAL_NORM_VECTORS: dict[int, tuple[tuple[Fraction, ...], ...]] = {
    1: ((Fraction(3),), (Fraction(5),), (Fraction(7),)),
    2: (
        (Fraction(3), Fraction(4)),
        (Fraction(6), Fraction(8)),
        (Fraction(5), Fraction(12)),
        (Fraction(8), Fraction(15)),
        (Fraction(20), Fraction(21)),
        (Fraction(7), Fraction(24)),
    ),
    3: (
        (Fraction(1), Fraction(2), Fraction(2)),
        (Fraction(2), Fraction(3), Fraction(6)),
        (Fraction(1), Fraction(4), Fraction(8)),
        (Fraction(4), Fraction(4), Fraction(7)),
        (Fraction(2), Fraction(6), Fraction(9)),
        (Fraction(0), Fraction(3), Fraction(4)),
    ),
    4: (
        (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(2), Fraction(4)),
        (Fraction(2), Fraction(2), Fraction(4), Fraction(5)),
        (Fraction(0), Fraction(1), Fraction(2), Fraction(2)),
        (Fraction(3), Fraction(4), Fraction(0), Fraction(0)),
    ),
    5: (
        (Fraction(1), Fraction(2), Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(4), Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(3), Fraction(2), Fraction(1)),
        (Fraction(2), Fraction(4), Fraction(5), Fraction(6), Fraction(0)),
    ),
    6: (
        (Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(4), Fraction(4)),
        (Fraction(1), Fraction(1), Fraction(1), Fraction(2), Fraction(3), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(3), Fraction(4), Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(3), Fraction(6), Fraction(0), Fraction(0), Fraction(0)),
    ),
}

# Scaling factors lambda for collinear pairs (w, lambda*w); any rational
# works because |w +/- lambda w| = |1 +/- lambda| |w|.
PAIR_SCALES: tuple[Fraction, ...] = (Fraction(1), Fraction(1, 2), Fraction(-2))

# Cayley parameters generating the complex rotations under test.
GIVENS_T_VALUES: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(1, 2), Fraction(0)),
    (Fraction(2), Fraction(0)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1), Fraction(1)),
)

# (c, s) points on c^2 + s^2 = 1 drawn from Pythagorean triples.
PYTHAGOREAN_CS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(-15, 17)),
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
)

FACTORIZATION_POINTS: tuple[tuple[Fraction, Fraction, Fraction], ...] = (
    (Fraction(1), Fraction(2), Fraction(-1, 2)),
    (Fraction(2, 3), Fraction(-1, 2), Fraction(1)),
)
FACTORIZATION_DEGREE_MAX = 8

ROTATION_P = Fraction(1, 3)
ROTATION_VECTORS: dict[int, tuple[Fraction, ...]] = {
    2: (Fraction(1), Fraction(2)),
    3: (Fraction(1), Fraction(2), Fraction(3)),
}
# Plane sequences of the Givens products, per dimension: every single
# block, then one product of two blocks and one of three.
ROTATION_PLANES: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {
    2: (((0, 1),), ((0, 1), (0, 1)), ((0, 1), (0, 1), (0, 1))),
    3: (((0, 1),), ((0, 2),), ((1, 2),), ((0, 1), (1, 2)), ((0, 1), (0, 2), (1, 2))),
}

MOMENT_N_VALUES = (2, 3, 5)
MOMENT_P_VALUES: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(2))
# The moment sweeps take the first pairs of each pair pool only.
MOMENT_PAIRS = 3

MATRIX_SHAPES: tuple[tuple[int, int], ...] = ((2, 2), (2, 3))


def in_mode(values: Iterable[Fraction | Scalar], mode: str) -> tuple[Scalar, ...]:
    """Grid values as scalars of `mode`, built exactly and then converted."""
    scalars = tuple(v if isinstance(v, Scalar) else exact(v) for v in values)
    return tuple(map(to_float, scalars)) if mode == FLOAT else scalars


def exact_pair_pool(n: int, mode: str = EXACT) -> list[tuple[Vector, Vector]]:
    """Vector pairs whose polarization norms are rational.

    Two constructions: collinear pairs (w, lambda w) and half-sum pairs
    ((u+v)/2, (u-v)/2) for pool vectors u, v, which polarize to (|u|, |v|).
    """
    vectors = RATIONAL_NORM_VECTORS[n]
    pairs = [(w, tuple(lam * a for a in w)) for w in vectors[:3] for lam in PAIR_SCALES]
    pairs += [
        (tuple((a + b) / 2 for a, b in zip(u, v)), tuple((a - b) / 2 for a, b in zip(u, v)))
        for u, v in zip(vectors, vectors[1:])
    ]
    return [(in_mode(x, mode), in_mode(y, mode)) for x, y in pairs]


def graczyk_sweep(mode: str = EXACT, tolerance: float | None = None) -> list[IdentityReport]:
    """Inner-product sum rule over the full default grid."""
    p_values = in_mode(P_GRID, mode)
    reports = []
    for n in GRACZYK_N_VALUES:
        for xv, yv in exact_pair_pool(n, mode):
            reports += graczyk_reports(DEGREES, xv, yv, p_values, tolerance)
    return reports


def _givens_ts() -> list[Scalar]:
    return [exact(re_part, im_part) for re_part, im_part in GIVENS_T_VALUES]


def default_rotations(n: int, mode: str = EXACT) -> list[tuple[str, Matrix]]:
    """Products of up to three Cayley-Givens blocks, labelled for reports.

    Float blocks are built from a float t: converting an exact block would
    round differently.  Each block is built once, and each product is its
    left fold (G1 G2) G3.  Blocks and products are pair matrices
    (``_pair_mat_mul``); each rotation becomes Scalars once, by one division
    per entry, which gives the same reduced Fractions (and, with den = 1,
    the same doubles) as ``mat_mul`` on the Scalar blocks.
    """
    exact_ts = _givens_ts()
    t_labels = list(map(str, exact_ts))
    ts = in_mode(exact_ts, mode)
    planes_used = dict.fromkeys(chain.from_iterable(ROTATION_PLANES[n]))
    pair_blocks = {
        ((i, j), k): _to_pairs(complex_givens(n, i, j, t))
        for i, j in planes_used
        for k, t in enumerate(ts)
    }
    rotations: list[tuple[str, Matrix]] = []
    for planes in ROTATION_PLANES[n]:
        for choice in product(range(len(ts)), repeat=len(planes)):
            keys = tuple(zip(planes, choice))
            den, rows = reduce(_pair_mat_mul, [pair_blocks[key] for key in keys])
            rot = tuple(tuple(from_gaussian(re, im, den, mode) for re, im in row) for row in rows)
            label = "*".join(f"G({i},{j};{t_labels[k]})" for (i, j), k in keys)
            rotations.append((label, rot))
    return rotations


def rotation_sweep(mode: str = EXACT, tolerance: float | None = None) -> list[IdentityReport]:
    """Rotation sum rule over all default rotations, rows, and degrees."""
    (p,) = in_mode([ROTATION_P], mode)
    reports = []
    for n, vector in ROTATION_VECTORS.items():
        xv = in_mode(vector, mode)
        for label, rot in default_rotations(n, mode):
            reports += rotation_reports(DEGREES, rot, xv, p, tolerance, label)
    return reports


def default_cs_pairs(mode: str = EXACT) -> list[tuple[Scalar, ...]]:
    """Pythagorean and Cayley solutions of c^2 + s^2 = 1."""
    cayley = [complex_givens(2, 0, 1, t) for t in _givens_ts()]
    pairs = list(PYTHAGOREAN_CS) + [(g[0][0], g[1][0]) for g in cayley]
    return [in_mode(pair, mode) for pair in pairs]


def factorization_sweep(
    mode: str = EXACT, tolerance: float | None = None
) -> list[IdentityReport]:
    """Factorization rule over all degree splits and (c, s) families."""
    splits = [
        (m1, m2)
        for m1 in range(FACTORIZATION_DEGREE_MAX + 1)
        for m2 in range(FACTORIZATION_DEGREE_MAX + 1 - m1)
    ]
    points = [in_mode(point, mode) for point in FACTORIZATION_POINTS]
    reports = []
    for c, s in default_cs_pairs(mode):
        reports += factorization_reports(splits, c, s, points, tolerance)
    return reports


def inner_product_moment_sweep(
    mode: str = EXACT, tolerance: float | None = None
) -> list[IdentityReport]:
    """Moment equality of the stochastic inner-product representation."""
    p_values = in_mode(MOMENT_P_VALUES, mode)
    reports = []
    for n in MOMENT_N_VALUES:
        for xv, yv in exact_pair_pool(n, mode)[:MOMENT_PAIRS]:
            reports += inner_product_moment_reports(DEGREES, xv, yv, p_values, tolerance)
    return reports


def _reshape(flat: Vector, rows: int, cols: int) -> Matrix:
    return tuple(
        tuple(flat[r * cols + c] for c in range(cols)) for r in range(rows)
    )


def matrix_moment_sweep(
    mode: str = EXACT, tolerance: float | None = None
) -> list[IdentityReport]:
    """Moment equality of the matrix trace representation."""
    reports = []
    for rows, cols in MATRIX_SHAPES:
        for flat_x, flat_y in exact_pair_pool(rows * cols, mode)[:MOMENT_PAIRS]:
            xm = _reshape(flat_x, rows, cols)
            ym = _reshape(flat_y, rows, cols)
            reports += matrix_moment_reports(DEGREES, xm, ym, tolerance)
    return reports


SWEEPS: dict[str, Callable[..., list[IdentityReport]]] = {
    "graczyk": graczyk_sweep,
    "rotation": rotation_sweep,
    "factorization": factorization_sweep,
    "inner-product-moments": inner_product_moment_sweep,
    "matrix": matrix_moment_sweep,
}


def grid_description(identity: str) -> dict[str, object]:
    """Self-describing summary of the built-in grid behind a sweep."""
    if identity == "graczyk":
        return {
            "n": list(GRACZYK_N_VALUES),
            "M": list(DEGREES),
            "p": [str(p) for p in P_GRID],
            "pairs_per_n": {str(n): len(exact_pair_pool(n)) for n in GRACZYK_N_VALUES},
            "pair_construction": "collinear (w, lambda w) and half-sum "
            "((u+v)/2, (u-v)/2) over rational-norm vectors",
        }
    if identity == "rotation":
        return {
            "n": list(ROTATION_VECTORS),
            "m": list(DEGREES),
            "p": str(ROTATION_P),
            "t": [str(t) for t in _givens_ts()],
            "products": "all Givens blocks and products of two and three",
        }
    if identity == "factorization":
        return {
            "degree_max": FACTORIZATION_DEGREE_MAX,
            "cs_pairs": [f"({c},{s})" for c, s in default_cs_pairs()],
            "points": [
                {"x": str(x), "y": str(y), "p": str(p)}
                for x, y, p in FACTORIZATION_POINTS
            ],
        }
    if identity == "inner-product-moments":
        return {
            "n": list(MOMENT_N_VALUES),
            "M": list(DEGREES),
            "p": [str(p) for p in MOMENT_P_VALUES],
            "p_convention": "sqrt(p)",
            "pairs_per_n": MOMENT_PAIRS,
        }
    if identity == "matrix":
        return {
            "shapes": [f"{r}x{c}" for r, c in MATRIX_SHAPES],
            "M": list(DEGREES),
            "noise": "unit variance",
        }
    raise ValueError(f"unknown identity {identity!r}")
