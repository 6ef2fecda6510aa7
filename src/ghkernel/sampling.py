"""Seeded Monte Carlo checks for the equality-in-distribution claims.

Normal variates come from the Box-Muller transform over PCG64 uniforms, a
fixed and documented layout, so a given (seed, stream_id, count) always
reproduces the identical sample sequence.  Distribution equality is tested
by matching empirical moments to order K within z combined standard errors;
a two-sample Kolmogorov-Smirnov statistic is available as a secondary
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .defaults import DEFAULT_ORDER, DEFAULT_Z
from .identities import PolarizationPair


@dataclass(frozen=True)
class RngStream:
    """Addressable randomness source: (seed, stream_id) pins the sequence."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, stream_id: int) -> "RngStream":
        return RngStream(self.seed, stream_id)


def _box_muller(gen: np.random.Generator, count: int) -> np.ndarray:
    # U1 is shifted to (0, 1] so the log never sees zero.
    pairs = (count + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return out[:count]


def sample_gaussian(stream: RngStream, count: int) -> np.ndarray:
    """i.i.d. standard normal variates, deterministic per stream."""
    if count < 0:
        raise ValueError("count must be a natural number")
    return _box_muller(stream.generator(), count)


def sample_chi(stream: RngStream, k: int, count: int) -> np.ndarray:
    """chi_k variates: Euclidean norms of k-dimensional standard normals."""
    if k < 1:
        raise ValueError("chi needs at least one degree of freedom")
    gen = stream.generator()
    normals = _box_muller(gen, count * k).reshape(count, k)
    return np.sqrt((normals * normals).sum(axis=1))


def chi_even_moment(dof: int, j: int) -> Fraction:
    """Exact even chi moment E chi_dof^(2j) = 2^j (dof/2)_j."""
    if dof < 1 or j < 0:
        raise ValueError("dof must be >= 1 and j a natural number")
    rising = Fraction(1)
    for step in range(j):
        rising *= Fraction(dof, 2) + step
    return Fraction(2) ** j * rising


def chi_merge_samples(stream: RngStream, a: int, b: int, count: int) -> np.ndarray:
    """Samples of sqrt(chi_a^2 + chi_b^2) from independent blocks."""
    if a < 1 or b < 1:
        raise ValueError("both degree counts must be >= 1")
    gen = stream.generator()
    block_a = _box_muller(gen, count * a).reshape(count, a)
    first = (block_a * block_a).sum(axis=1)
    block_b = _box_muller(gen, count * b).reshape(count, b)
    second = (block_b * block_b).sum(axis=1)
    return np.sqrt(first + second)


def _pair_floats(pair: PolarizationPair) -> tuple[float, float]:
    if not isinstance(pair, PolarizationPair):
        raise TypeError("expected a PolarizationPair")
    return float(pair.x.re), float(pair.y.re)


def inner_product_lhs_samples(
    xv: Sequence[float],
    yv: Sequence[float],
    p: float,
    stream: RngStream,
    count: int,
) -> np.ndarray:
    """Samples of (xv + sqrt(p) N)^t (yv + sqrt(p) M), fresh noise per draw."""
    x = np.asarray(xv, dtype=float)
    y = np.asarray(yv, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("need two equal-length vectors")
    if p < 0:
        raise ValueError("sampling needs p >= 0 (real sqrt(p))")
    gen = stream.generator()
    root = math.sqrt(p)
    n = x.size
    noise_x = _box_muller(gen, count * n).reshape(count, n)
    noise_y = _box_muller(gen, count * n).reshape(count, n)
    return ((x + root * noise_x) * (y + root * noise_y)).sum(axis=1)


def inner_product_rhs_samples(
    pair: PolarizationPair,
    n: int,
    p: float,
    stream: RngStream,
    count: int,
) -> np.ndarray:
    """Samples of (x + sqrt(p) N1)(y + sqrt(p) M1) + p Z_{n-1} N.

    Draw order per stream: N1 block, M1 block, chi block, N block; the four
    sources are independent.  n = 1 omits the chi term.
    """
    if p < 0:
        raise ValueError("sampling needs p >= 0 (real sqrt(p))")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    x, y = _pair_floats(pair)
    gen = stream.generator()
    root = math.sqrt(p)
    n1 = _box_muller(gen, count)
    m1 = _box_muller(gen, count)
    if n > 1:
        normals = _box_muller(gen, count * (n - 1)).reshape(count, n - 1)
        z = np.sqrt((normals * normals).sum(axis=1))
    else:
        z = np.zeros(count)
    final = _box_muller(gen, count)
    return (x + root * n1) * (y + root * m1) + p * z * final


def matrix_trace_samples(
    xm: Sequence[Sequence[float]],
    ym: Sequence[Sequence[float]],
    stream: RngStream,
    count: int,
) -> np.ndarray:
    """Samples of tr((xm + N)^t (ym + M)) with unit-variance noise matrices."""
    x = np.asarray(xm, dtype=float)
    y = np.asarray(ym, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError("need two equal-shape matrices")
    gen = stream.generator()
    rows, cols = x.shape
    size = rows * cols
    noise_x = _box_muller(gen, count * size).reshape(count, rows, cols)
    noise_y = _box_muller(gen, count * size).reshape(count, rows, cols)
    return ((x + noise_x) * (y + noise_y)).sum(axis=(1, 2))


def matrix_trace_rhs_samples(
    pair: PolarizationPair,
    size: int,
    stream: RngStream,
    count: int,
) -> np.ndarray:
    """Samples of (x + N1)(y + M1) + Z_{size-1} N for the trace claim."""
    return inner_product_rhs_samples(pair, size, 1.0, stream, count)


@dataclass(frozen=True)
class SampleStats:
    """Empirical moments of orders 1..K with their standard errors."""

    count: int
    moments: tuple[float, ...]
    std_errors: tuple[float, ...]

    def order(self) -> int:
        return len(self.moments)


def collect_stats(samples: np.ndarray, order: int = DEFAULT_ORDER) -> SampleStats:
    """Moments 1..order; standard error = std of the k-th power / sqrt(n)."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a flat sample of at least two points")
    moments: list[float] = []
    errors: list[float] = []
    powers = np.ones_like(arr)
    for _ in range(order):
        powers = powers * arr
        moments.append(float(powers.mean()))
        errors.append(float(powers.std(ddof=1) / math.sqrt(arr.size)))
    return SampleStats(arr.size, tuple(moments), tuple(errors))


@dataclass(frozen=True)
class MomentVerdict:
    order: int
    lhs: float
    rhs: float
    difference: float
    tolerance: float
    passed: bool


def moment_match(
    a: SampleStats,
    b: SampleStats,
    order: int = DEFAULT_ORDER,
    z: float = DEFAULT_Z,
) -> tuple[MomentVerdict, ...]:
    """Per-order verdicts: |m_k(a) - m_k(b)| <= z sqrt(se_a^2 + se_b^2)."""
    if a.order() < order or b.order() < order:
        raise ValueError("stats were not collected to the requested order")
    verdicts = []
    for k in range(order):
        tol = z * math.hypot(a.std_errors[k], b.std_errors[k])
        diff = a.moments[k] - b.moments[k]
        verdicts.append(
            MomentVerdict(k + 1, a.moments[k], b.moments[k], diff, tol, abs(diff) <= tol)
        )
    return tuple(verdicts)


def moment_match_exact(
    stats: SampleStats,
    expected: dict[int, float],
    z: float = DEFAULT_Z,
) -> tuple[MomentVerdict, ...]:
    """Empirical moments against exact targets (zero error on the target side)."""
    verdicts = []
    for order, target in sorted(expected.items()):
        if order > stats.order():
            raise ValueError("stats were not collected to the requested order")
        got = stats.moments[order - 1]
        tol = z * stats.std_errors[order - 1]
        diff = got - target
        verdicts.append(MomentVerdict(order, got, target, diff, tol, abs(diff) <= tol))
    return tuple(verdicts)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Secondary diagnostic: two-sample Kolmogorov-Smirnov (statistic, p)."""
    from scipy import stats  # only this diagnostic needs scipy

    result = stats.ks_2samp(a, b)
    return float(result.statistic), float(result.pvalue)
