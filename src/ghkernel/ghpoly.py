"""Gould-Hopper polynomial evaluation and the Hermite specialization.

g_m(x, p) is the gap-2 polynomial family

    g_m(x, p) = sum_{k=0}^{floor(m/2)} m! / (k! (m-2k)!) * p^k * x^(m-2k),

equal to the shifted Gaussian moment E (x + sigma N)^m with sigma^2 = 2p.
The three-term recurrence serves eval, hermite_eval and the sum rules; the
direct sum gh_eval and the moment route gh_moment_oracle are test oracles.

The recurrence runs on pairs (re, im), in both modes.  Homogeneity,

    g_m(lam x, lam^2 p) = lam^m g_m(x, p),

moves every denominator of x and p into one power of lam: with lam a common
denominator, X = lam x and P = lam^2 p are Gaussian integers, the row
G_k = g_k(X, P) is built with int arithmetic only, and g_k(x, p) = G_k / lam^k
is divided out once, at the end.  In float mode lam = 1, the pairs hold
doubles, and the one division at the end is a float division.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .multiindex import MultiIndex
from .scalars import EXACT, FLOAT, ModeMismatchError, Scalar, lift, one, zero

# A Gaussian integer a + b i as the int pair (a, b); in float mode the
# pair holds doubles.
GaussianInt = tuple[int, int]


def common_mode(*values: Scalar) -> str:
    """The mode every value shares; an exact and a float value raise
    ModeMismatchError."""
    mode = values[0].mode
    if any(v.mode != mode for v in values):
        raise ModeMismatchError("exact and float scalars cannot meet in one evaluation")
    return mode


def gh_eval(m: int, x: Scalar, p: Scalar) -> Scalar:
    """Direct gap-2 sum; the reference evaluation path."""
    if m < 0:
        raise ValueError("degree must be a natural number")
    mode = common_mode(x, p)
    total = zero(mode)
    m_fact = math.factorial(m)
    for k in range(m // 2 + 1):
        coeff = m_fact // (math.factorial(k) * math.factorial(m - 2 * k))
        total = total + lift(coeff, mode) * p**k * x ** (m - 2 * k)
    return total


def gh_eval_recurrence(m: int, x: Scalar, p: Scalar) -> Scalar:
    """Three-term path: g_0 = 1, g_1 = x, g_{m+1} = x g_m + 2p m g_{m-1}.

    Runs as gaussian_row on the pairs of lam x and lam^2 p and divides once.
    """
    lam = clearing_scale(x, p)
    row = gaussian_row(m, scale_to_gaussian(x, lam), scale_to_gaussian(p, lam * lam))
    re, im = row[m]
    return from_gaussian(re, im, lam**m, x.mode)


def clearing_scale(*values: Scalar) -> int:
    """Least lam > 0 such that lam * v is a Gaussian integer for every value.

    Float mode needs no clearing: lam = 1.  Mixed modes raise
    ModeMismatchError.
    """
    if common_mode(*values) == FLOAT:
        return 1
    # A list, not a generator: unpacking a generator grows its tuple by
    # resizing, and the grown tuples pile up in CPython's tuple free list
    # (0.4 MB over the exact rotation sweep).
    return math.lcm(*[d for v in values for d in (v.re.denominator, v.im.denominator)])


def scale_to_gaussian(v: Scalar, lam: int) -> GaussianInt:
    """lam * v as a pair: ints in exact mode, where lam must clear v's
    denominators, and doubles in float mode."""
    if v.mode == FLOAT:
        return v.re * lam, v.im * lam
    re_q, re_r = divmod(lam, v.re.denominator)
    im_q, im_r = divmod(lam, v.im.denominator)
    if re_r or im_r:
        raise ValueError(f"{lam} does not clear the denominators of {v}")
    return v.re.numerator * re_q, v.im.numerator * im_q


def from_gaussian(re: int, im: int, den: int, mode: str) -> Scalar:
    """The scalar (re + im i) / den: reduced Fractions in exact mode, one
    float division per part in float mode."""
    if mode == FLOAT:
        return Scalar(FLOAT, re / den, im / den)
    return Scalar(EXACT, Fraction(re, den), Fraction(im, den))


def gaussian_row(m_max: int, x: GaussianInt, p: GaussianInt) -> list[GaussianInt]:
    """g_0(x, p) .. g_{m_max}(x, p) at Gaussian integers (or double pairs),
    in one pass of g_{k+1} = x g_k + 2p k g_{k-1} on pairs."""
    if m_max < 0:
        raise ValueError("degree must be a natural number")
    xr, xi = x
    pr, pi = 2 * p[0], 2 * p[1]
    row = [(1, 0), (xr, xi)]
    ar, ai, br, bi = 1, 0, xr, xi
    for k in range(1, m_max):
        qr, qi = k * ar, k * ai
        ar, ai = br, bi
        br, bi = xr * br - xi * bi + pr * qr - pi * qi, xr * bi + xi * br + pr * qi + pi * qr
        row.append((br, bi))
    return row[: m_max + 1]


def gh_multi_eval(m: MultiIndex, xs: Sequence[Scalar], p: Scalar) -> Scalar:
    """Coordinate-wise product g_m(x, p) = prod_i g_{m_i}(x_i, p)."""
    if len(m) != len(xs):
        raise ValueError(f"index has {len(m)} parts but vector has {len(xs)}")
    out = one(p.mode)
    for part, coord in zip(m, xs):
        out = out * gh_eval(part, coord, p)
    return out


def hermite_eval(n: int, x: Scalar) -> Scalar:
    """Physicists' Hermite polynomial H_n(x) = g_n(2x, -1), read off the
    recurrence row in both modes: no coefficient n!/(k!(n-2k)!) becomes a
    double, where it overflows from n = 266."""
    return gh_eval_recurrence(n, lift(2, x.mode) * x, lift(-1, x.mode))


def gaussian_moment(order: int) -> int:
    """E N^order for a standard normal: 0 for odd order, (2k)!/(2^k k!) else."""
    if order < 0:
        raise ValueError("order must be a natural number")
    if order % 2:
        return 0
    k = order // 2
    return math.factorial(2 * k) // (2**k * math.factorial(k))


def gh_moment_oracle(m: int, x: Scalar, p: Scalar) -> Scalar:
    """Moment route: E (x + sigma N)^m expanded binomially, sigma^2 = 2p.

    Odd Gaussian moments vanish, so only sigma^2 = 2p enters and no square
    root of p is ever taken.  Independent of the coefficient formula used by
    gh_eval; the two must agree exactly in exact mode.
    """
    if m < 0:
        raise ValueError("degree must be a natural number")
    mode = common_mode(x, p)
    sigma_sq = lift(2, mode) * p
    total = zero(mode)
    for k in range(m // 2 + 1):
        weight = math.comb(m, 2 * k) * gaussian_moment(2 * k)
        total = total + lift(weight, mode) * sigma_sq**k * x ** (m - 2 * k)
    return total
