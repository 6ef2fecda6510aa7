"""Built-in verification grids and sweep drivers.

The default grids are fixed constants, so repeated runs of the same sweep
produce byte-identical reports.  Exact sweeps use vector pairs engineered so
the polarization norms are rational (Pythagorean constructions), which keeps
every verdict at zero residual instead of a float tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .identities import (
    IdentityReport,
    Matrix,
    Vector,
    complex_givens,
    factorization_sumrule,
    graczyk_identity,
    inner_product_moment_identity,
    mat_mul,
    matrix_moment_identity,
    rotation_sumrule,
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

MOMENT_N_VALUES = (2, 3, 5)
MOMENT_P_VALUES: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1), Fraction(2))

MATRIX_SHAPES: tuple[tuple[int, int], ...] = ((2, 2), (2, 3))


def _as_vector(parts: Sequence[Fraction], mode: str) -> Vector:
    vec = tuple(exact(part) for part in parts)
    if mode == FLOAT:
        vec = tuple(to_float(s) for s in vec)
    return vec


def exact_pair_pool(n: int, mode: str = EXACT) -> list[tuple[Vector, Vector]]:
    """Vector pairs whose polarization norms are rational.

    Two constructions: collinear pairs (w, lambda w) and half-sum pairs
    ((u+v)/2, (u-v)/2) for pool vectors u, v, which polarize to (|u|, |v|).
    """
    vectors = RATIONAL_NORM_VECTORS[n]
    pairs: list[tuple[Vector, Vector]] = []
    for w in vectors[:3]:
        for lam in PAIR_SCALES:
            xv = _as_vector(w, mode)
            yv = _as_vector(tuple(lam * part for part in w), mode)
            pairs.append((xv, yv))
    for u, v in zip(vectors, vectors[1:]):
        half_sum = tuple((a + b) / 2 for a, b in zip(u, v))
        half_diff = tuple((a - b) / 2 for a, b in zip(u, v))
        pairs.append((_as_vector(half_sum, mode), _as_vector(half_diff, mode)))
    return pairs


def _param_scalar(value: Fraction, mode: str) -> Scalar:
    s = exact(value)
    return to_float(s) if mode == FLOAT else s


def graczyk_sweep(
    mode: str = EXACT,
    tolerance: float | None = None,
    n_values: Sequence[int] = (1, 2, 3),
    m_max: int = M_MAX,
    p_values: Sequence[Fraction] = P_GRID,
    pairs_by_n: dict[int, list[tuple[Vector, Vector]]] | None = None,
) -> list[IdentityReport]:
    """Inner-product sum rule over the full default grid."""
    reports = []
    for n in n_values:
        pairs = (
            pairs_by_n[n] if pairs_by_n is not None else exact_pair_pool(n, mode)
        )
        for xv, yv in pairs:
            for big_m in range(m_max + 1):
                for p_val in p_values:
                    p = _param_scalar(p_val, mode)
                    reports.append(graczyk_identity(big_m, xv, yv, p, tolerance))
    return reports


def _givens_t_scalars(mode: str) -> list[tuple[str, Scalar]]:
    out = []
    for re_part, im_part in GIVENS_T_VALUES:
        t = exact(re_part, im_part)
        label = str(t)
        if mode == FLOAT:
            t = to_float(t)
        out.append((label, t))
    return out


def default_rotations(n: int, mode: str = EXACT) -> list[tuple[str, Matrix]]:
    """Products of up to three Cayley-Givens blocks, labelled for reports."""
    ts = _givens_t_scalars(mode)
    if n == 2:
        planes = [(0, 1)]
        double_planes = [(0, 1), (0, 1)]
        triple_planes = [(0, 1), (0, 1), (0, 1)]
    else:
        planes = [(0, 1), (0, 2), (1, 2)]
        double_planes = [(0, 1), (1, 2)]
        triple_planes = [(0, 1), (0, 2), (1, 2)]

    def block(plane: tuple[int, int], labelled_t: tuple[str, Scalar]) -> tuple[str, Matrix]:
        label, t = labelled_t
        i, j = plane
        return f"G({i},{j};{label})", complex_givens(n, i, j, t)

    rotations: list[tuple[str, Matrix]] = []
    for plane in planes:
        for lt in ts:
            rotations.append(block(plane, lt))
    for lt1 in ts:
        for lt2 in ts:
            lbl1, m1 = block(double_planes[0], lt1)
            lbl2, m2 = block(double_planes[1], lt2)
            rotations.append((f"{lbl1}*{lbl2}", mat_mul(m1, m2)))
    for lt1 in ts:
        for lt2 in ts:
            for lt3 in ts:
                lbl1, m1 = block(triple_planes[0], lt1)
                lbl2, m2 = block(triple_planes[1], lt2)
                lbl3, m3 = block(triple_planes[2], lt3)
                rotations.append(
                    (f"{lbl1}*{lbl2}*{lbl3}", mat_mul(mat_mul(m1, m2), m3))
                )
    return rotations


def rotation_sweep(
    mode: str = EXACT,
    tolerance: float | None = None,
    n_values: Sequence[int] = (2, 3),
    m_max: int = M_MAX,
) -> list[IdentityReport]:
    """Rotation sum rule over all default rotations, rows, and degrees."""
    p = _param_scalar(ROTATION_P, mode)
    reports = []
    for n in n_values:
        xv = _as_vector(ROTATION_VECTORS[n], mode)
        for label, rot in default_rotations(n, mode):
            for m in range(m_max + 1):
                for i in range(n):
                    reports.append(
                        rotation_sumrule(m, rot, i, xv, p, tolerance, label=label)
                    )
    return reports


def default_cs_pairs(mode: str = EXACT) -> list[tuple[Scalar, Scalar]]:
    """Pythagorean and Cayley solutions of c^2 + s^2 = 1."""
    out: list[tuple[Scalar, Scalar]] = []
    for c_val, s_val in PYTHAGOREAN_CS:
        c, s = exact(c_val), exact(s_val)
        if mode == FLOAT:
            c, s = to_float(c), to_float(s)
        out.append((c, s))
    unit = exact(1)
    for re_part, im_part in GIVENS_T_VALUES:
        t = exact(re_part, im_part)
        denom = unit + t * t
        c = (unit - t * t) / denom
        s = (t + t) / denom
        if mode == FLOAT:
            c, s = to_float(c), to_float(s)
        out.append((c, s))
    return out


def factorization_sweep(
    mode: str = EXACT,
    tolerance: float | None = None,
    degree_max: int = FACTORIZATION_DEGREE_MAX,
) -> list[IdentityReport]:
    """Factorization rule over all degree splits and (c, s) families."""
    reports = []
    for c, s in default_cs_pairs(mode):
        for x_val, y_val, p_val in FACTORIZATION_POINTS:
            x = _param_scalar(x_val, mode)
            y = _param_scalar(y_val, mode)
            p = _param_scalar(p_val, mode)
            for m1 in range(degree_max + 1):
                for m2 in range(degree_max + 1 - m1):
                    reports.append(
                        factorization_sumrule(m1, m2, c, s, x, y, p, tolerance)
                    )
    return reports


def inner_product_moment_sweep(
    mode: str = EXACT,
    tolerance: float | None = None,
    n_values: Sequence[int] = MOMENT_N_VALUES,
    p_values: Sequence[Fraction] = MOMENT_P_VALUES,
    m_max: int = M_MAX,
) -> list[IdentityReport]:
    """Moment equality of the stochastic inner-product representation."""
    reports = []
    for n in n_values:
        pairs = exact_pair_pool(n, mode)[:3]
        for xv, yv in pairs:
            for big_m in range(m_max + 1):
                for p_val in p_values:
                    p = _param_scalar(p_val, mode)
                    reports.append(
                        inner_product_moment_identity(big_m, xv, yv, p, tolerance)
                    )
    return reports


def _reshape(flat: Vector, rows: int, cols: int) -> Matrix:
    return tuple(
        tuple(flat[r * cols + c] for c in range(cols)) for r in range(rows)
    )


def matrix_moment_sweep(
    mode: str = EXACT,
    tolerance: float | None = None,
    shapes: Sequence[tuple[int, int]] = MATRIX_SHAPES,
    m_max: int = M_MAX,
) -> list[IdentityReport]:
    """Moment equality of the matrix trace representation."""
    reports = []
    for rows, cols in shapes:
        pairs = exact_pair_pool(rows * cols, mode)[:3]
        for flat_x, flat_y in pairs:
            xm = _reshape(flat_x, rows, cols)
            ym = _reshape(flat_y, rows, cols)
            for big_m in range(m_max + 1):
                reports.append(matrix_moment_identity(big_m, xm, ym, tolerance))
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
            "n": [1, 2, 3],
            "M": list(range(M_MAX + 1)),
            "p": [str(p) for p in P_GRID],
            "pairs_per_n": {str(n): len(exact_pair_pool(n)) for n in (1, 2, 3)},
            "pair_construction": "collinear (w, lambda w) and half-sum "
            "((u+v)/2, (u-v)/2) over rational-norm vectors",
        }
    if identity == "rotation":
        return {
            "n": [2, 3],
            "m": list(range(M_MAX + 1)),
            "p": str(ROTATION_P),
            "t": [str(exact(re, im)) for re, im in GIVENS_T_VALUES],
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
            "M": list(range(M_MAX + 1)),
            "p": [str(p) for p in MOMENT_P_VALUES],
            "p_convention": "sqrt(p)",
            "pairs_per_n": 3,
        }
    if identity == "matrix":
        return {
            "shapes": [f"{r}x{c}" for r, c in MATRIX_SHAPES],
            "M": list(range(M_MAX + 1)),
            "noise": "unit variance",
        }
    raise ValueError(f"unknown identity {identity!r}")
