"""Seeded Monte Carlo checks for the equality-in-distribution claims.

Normal variates are numpy's ziggurat `Generator.standard_normal` over
PCG64, with one generator per block: block b of stream (seed, stream_id)
reads the child of `SeedSequence(entropy=seed, spawn_key=(stream_id,))`
whose spawn key is (stream_id, b).  So a given (seed, stream_id, count)
always reproduces the identical sample sequence.  Every sampler is one
`_draw` call, and one loop reads its blocks in bounded chunks of rows;
consecutive `standard_normal` calls continue one sequence, so the samples
do not depend on the chunk size.  A sampler's memory is the result vector
plus a fixed budget of temporaries, whatever the count, while a row draws
at most `_CHUNK_NORMALS` normals; a wider row is a chunk of its own, and
each of its temporaries takes 8 bytes per normal.  The combines work in
place on the chunk they are given, and sum rows narrower than numpy's
pairwise width as left folds over the columns, numpy's own order there,
so each sample is bit for bit that of the whole-array formula.  The
matrix trace samplers are the inner-product ones on the flattened
matrices at p = 1.

Moments to order K must match within z combined standard errors (zero for
an exact target), or within a rounding floor of a few ulps per order when
that is wider; each verdict carries its z-score.  The statistics read the
result vectors in chunks of the same budget: the moments and standard
errors in two passes, and a two-sample Kolmogorov-Smirnov statistic, a
secondary diagnostic, after sorting both vectors in place; each point is
then searched for only in the other sample.  No scipy is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from ._record import Record, _set
from .defaults import DEFAULT_ORDER, DEFAULT_Z
from .identities import PolarizationPair


class RngStream(Record):
    """Addressable randomness source: (seed, stream_id) pins the sequence."""

    __slots__ = ("seed", "stream_id")
    seed: int
    stream_id: int

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        _set(self, "seed", seed)
        _set(self, "stream_id", stream_id)

    def block(self, index: int) -> np.random.Generator:
        """The generator of block `index`: the child of the stream's
        `SeedSequence(entropy=seed, spawn_key=(stream_id,))` with spawn
        key (stream_id, index)."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, index))
        return np.random.Generator(np.random.PCG64(seq))


# Normals a sampler draws per chunk of rows, summed over its blocks.  It
# bounds the temporaries for rows of up to this many normals (a wider row
# is one chunk); the samples do not depend on it.
_CHUNK_NORMALS = 1 << 16


def _row_chunks(count: int, width: int) -> Iterator[tuple[int, int]]:
    """Row ranges [lo, hi) of [0, count), each drawing at most
    `_CHUNK_NORMALS` normals (or one row) when a row draws `width`."""
    step = max(1, _CHUNK_NORMALS // width)
    return ((lo, min(lo + step, count)) for lo in range(0, count, step))


def _box_muller(generator: np.random.Generator, count: int) -> np.ndarray:
    """The next `count` standard normals of `generator`.

    No Box-Muller transform runs here; the name is the one
    `bench/tracing.py` wraps, counting the second argument as normals
    drawn, and `_draw` calls it through this module global so the wrapper
    sees every draw.
    """
    return generator.standard_normal(count)


def _draw(
    stream: RngStream, count: int, widths: Sequence[int], combine: Callable[..., np.ndarray]
) -> np.ndarray:
    """`combine(*rows)` for `count` draws, one value each.

    One block of `count` rows per width, block b read from
    `stream.block(b)`.  The rows come in chunks of at most
    `_CHUNK_NORMALS` normals over all blocks; `combine` gets each block's
    chunk as a fresh (rows, width) array, which it may overwrite.
    """
    blocks = [stream.block(b) for b in range(len(widths))]
    out = np.empty(count)
    # Inputs too large for a double give silent inf or nan samples, which
    # the caller's statistics check reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _row_chunks(count, sum(widths)):
            rows = [
                _box_muller(g, (hi - lo) * w).reshape(hi - lo, w) for g, w in zip(blocks, widths)
            ]
            out[lo:hi] = combine(*rows)
    return out


# Row width from which numpy sums a row pairwise; below it `sum(axis=1)`
# adds a row's entries left to right onto 0.0.
_PAIRWISE_WIDTH = 8


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """`rows.sum(axis=1)` bit for bit, for a 2-D `rows`.

    Below `_PAIRWISE_WIDTH` columns numpy runs its reduction loop once per
    row; folding the columns onto zeros adds in the same order, one column
    at a time.
    """
    if rows.shape[1] >= _PAIRWISE_WIDTH:
        return rows.sum(axis=1)
    total = np.zeros(rows.shape[0])
    for column in rows.T:
        total += column
    return total


def _squared_norms(normals: np.ndarray) -> np.ndarray:
    """Row sums of squares; squares `normals` in place."""
    normals *= normals
    return _row_sums(normals)


def sample_gaussian(stream: RngStream, count: int) -> np.ndarray:
    """i.i.d. standard normal variates, deterministic per stream."""
    if count < 0:
        raise ValueError("count must be a natural number")
    return _draw(stream, count, (1,), lambda rows: rows[:, 0])


def sample_chi(stream: RngStream, k: int, count: int) -> np.ndarray:
    """chi_k variates: Euclidean norms of k-dimensional standard normals."""
    if k < 1:
        raise ValueError("chi needs at least one degree of freedom")
    return _draw(stream, count, (k,), lambda rows: np.sqrt(_squared_norms(rows)))


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
    return _draw(stream, count, (a, b), lambda u, v: np.sqrt(_squared_norms(u) + _squared_norms(v)))


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
    if x.ndim != 1 or x.shape != y.shape or not x.size:
        raise ValueError("need two equal-length non-empty vectors")
    if p < 0:
        raise ValueError("sampling needs p >= 0 (real sqrt(p))")
    root = math.sqrt(p)

    def combine(noise_x, noise_y):
        # ((x + root * noise_x) * (y + root * noise_y)).sum(axis=1), in place
        noise_x *= root
        noise_x += x
        noise_y *= root
        noise_y += y
        noise_x *= noise_y
        return _row_sums(noise_x)

    return _draw(stream, count, (x.size, x.size), combine)


def inner_product_rhs_samples(
    pair: PolarizationPair,
    n: int,
    p: float,
    stream: RngStream,
    count: int,
) -> np.ndarray:
    """Samples of (x + sqrt(p) N1)(y + sqrt(p) M1) + p Z_{n-1} N.

    Blocks per stream, in order: N1, M1, chi, N; the four sources are
    independent.  At n = 1 the chi block has width 0, draws nothing and
    gives Z = 0.
    """
    if p < 0:
        raise ValueError("sampling needs p >= 0 (real sqrt(p))")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    x, y = _pair_floats(pair)
    root = math.sqrt(p)

    def combine(first, second, chi, last):
        # (x + root * N1) * (y + root * M1) + p * Z * N, in place
        product, factor = first[:, 0], second[:, 0]
        product *= root
        product += x
        factor *= root
        factor += y
        product *= factor
        z = _squared_norms(chi)
        np.sqrt(z, out=z)
        z *= p
        z *= last[:, 0]
        product += z
        return product

    return _draw(stream, count, (1, 1, n - 1, 1), combine)


def matrix_trace_samples(
    xm: Sequence[Sequence[float]],
    ym: Sequence[Sequence[float]],
    stream: RngStream,
    count: int,
) -> np.ndarray:
    """Samples of tr((xm + N)^t (ym + M)) with unit-variance noise matrices:
    the inner-product samples of the flattened matrices at p = 1."""
    x = np.asarray(xm, dtype=float)
    y = np.asarray(ym, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError("need two equal-shape matrices")
    return inner_product_lhs_samples(x.ravel(), y.ravel(), 1.0, stream, count)


def matrix_trace_rhs_samples(
    pair: PolarizationPair,
    size: int,
    stream: RngStream,
    count: int,
) -> np.ndarray:
    """Samples of (x + N1)(y + M1) + Z_{size-1} N for the trace claim."""
    return inner_product_rhs_samples(pair, size, 1.0, stream, count)


class SampleStats(Record):
    """Empirical moments of orders 1..K with their standard errors."""

    __slots__ = ("count", "moments", "std_errors")
    count: int
    moments: tuple[float, ...]
    std_errors: tuple[float, ...]

    def order(self) -> int:
        return len(self.moments)


def _power_sums(
    arr: np.ndarray, order: int, centres: Sequence[float] | None = None
) -> list[float]:
    """Sums over `arr` of x^k for k = 1..order, or of (x^k - centres[k-1])^2
    when `centres` is given, one chunk at a time; silent inf or nan on overflow."""
    sums = [0.0] * order
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _row_chunks(arr.size, 1):
            chunk = arr[lo:hi]
            power = chunk.copy()
            for k in range(order):
                if k:
                    power *= chunk
                term = power
                if centres is not None:
                    term = power - centres[k]
                    term *= term
                sums[k] += float(term.sum())
    return sums


def collect_stats(samples: np.ndarray, order: int = DEFAULT_ORDER) -> SampleStats:
    """Moments 1..order; standard error = std (ddof=1) of the k-th power / sqrt(n).

    Two passes over chunks of at most `_CHUNK_NORMALS` samples, one for the
    means and one for the squared deviations from them: numpy's formulas
    in another summation order, with temporaries of one chunk.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a flat sample of at least two points")
    n = arr.size
    moments = [total / n for total in _power_sums(arr, order)]
    squares = _power_sums(arr, order, moments)
    errors = [math.sqrt(total / (n - 1)) / math.sqrt(n) for total in squares]
    return SampleStats(n, tuple(moments), tuple(errors))


# Rounding floor of the moment tolerance, relative to the larger moment
# and per order: 8 units of roundoff (2^-53).  A k-th power carries k - 1
# roundings per sample and multiplies an input's relative error by k, so
# two sides equal up to their last bits (a polarization product one ulp
# off the inner product, say) pass when the noise, and with it the
# standard errors, is below the ulp.
_ROUNDING_FLOOR = 8 * 2.0 ** -53


class MomentVerdict(Record):
    """One order's comparison; `z_score` is None when the combined standard
    error is zero, where a z-score is undefined."""

    __slots__ = ("order", "lhs", "rhs", "difference", "tolerance", "z_score", "passed")
    order: int
    lhs: float
    rhs: float
    difference: float
    tolerance: float
    z_score: float | None
    passed: bool


def _require_z(z: float) -> None:
    if not 0 < z < math.inf:
        raise ValueError("the z threshold must be finite and positive")


def _verdict(
    order: int, lhs: float, rhs: float, se_lhs: float, se_rhs: float, z: float
) -> MomentVerdict:
    """The pass rule of both gates: |lhs - rhs| <= z sqrt(se_lhs^2 + se_rhs^2),
    or within the rounding floor of order `order` if that is wider.  A moment,
    standard error or tolerance that overflowed a double decides nothing:
    ValueError."""
    if not all(map(math.isfinite, (lhs, rhs, se_lhs, se_rhs))):
        if order == 1:
            raise ValueError(
                "the samples overflow a double at order 1; no --order helps, scale the inputs down"
            )
        raise ValueError(f"sample statistics overflow a double from order {order}; lower --order")
    error = math.hypot(se_lhs, se_rhs)
    floor = _ROUNDING_FLOOR * order * max(abs(lhs), abs(rhs))
    tol = max(z * error, floor)
    if not math.isfinite(tol):
        raise ValueError(
            f"z times the standard error overflows a double at order {order}; lower --z or --order"
        )
    diff = lhs - rhs
    z_score = diff / error if error else None
    return MomentVerdict(order, lhs, rhs, diff, tol, z_score, abs(diff) <= tol)


def moment_match(
    a: SampleStats,
    b: SampleStats,
    order: int = DEFAULT_ORDER,
    z: float = DEFAULT_Z,
) -> tuple[MomentVerdict, ...]:
    """Per-order verdicts: |m_k(a) - m_k(b)| <= z sqrt(se_a^2 + se_b^2)."""
    _require_z(z)
    if a.order() < order or b.order() < order:
        raise ValueError("stats were not collected to the requested order")
    return tuple(
        _verdict(k + 1, a.moments[k], b.moments[k], a.std_errors[k], b.std_errors[k], z)
        for k in range(order)
    )


def moment_match_exact(
    stats: SampleStats,
    expected: dict[int, float],
    z: float = DEFAULT_Z,
) -> tuple[MomentVerdict, ...]:
    """Empirical moments against exact targets (zero error on the target side)."""
    _require_z(z)
    if max(expected, default=0) > stats.order():
        raise ValueError("stats were not collected to the requested order")
    return tuple(
        _verdict(k, stats.moments[k - 1], target, stats.std_errors[k - 1], 0.0, z)
        for k, target in sorted(expected.items())
    )


def _kolmogorov_sf(lam: float) -> float:
    """P(K > lam) for the Kolmogorov distribution K, from its two series:
    the theta-function form below 1.18 and the alternating one above, each
    converged to double precision within five terms."""
    if lam < 0.1:  # 1 - P(K > 0.1) is below 1e-50
        return 1.0
    if lam < 1.18:
        q = math.exp(-((math.pi / lam) ** 2) / 8)
        series = sum(q ** ((2 * j - 1) ** 2) for j in range(1, 6))
        return 1.0 - math.sqrt(2 * math.pi) / lam * series
    q = math.exp(-2 * lam * lam)
    return 2 * sum((-1) ** (j - 1) * q ** (j * j) for j in range(1, 6))


def _right_ranks(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """`np.searchsorted(values, points, side="right")` for sorted `values`
    and sorted non-empty `points`.

    Every rank lies between those of the first and the last point, so
    only that slice of `values` is searched, and its start added back.
    """
    lo, hi = np.searchsorted(values, points[[0, -1]], side="right")
    ranks = np.searchsorted(values[lo:hi], points, side="right")
    ranks += lo
    return ranks


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Secondary diagnostic: two-sample Kolmogorov-Smirnov (statistic, p).

    Sorts `a` and `b` in place.  The statistic is max |F_a - F_b| over
    every point of both samples, with the empirical CDFs taken as
    `searchsorted(..., side="right")` ranks over the sample size.  A point's
    rank in its own sorted sample is the end of its run of equal values,
    and its position plus one is that rank at the run's end and smaller
    inside it.  F_a - F_b is largest at a point of `a` and F_b - F_a at a
    point of `b`, and a smaller own rank only lowers them, so the own
    ranks come from positions and only the other sample is searched: one
    chunk of points at a time, each in the window of ranks it can reach.
    That is the arithmetic of `scipy.stats.ks_2samp`, whose statistic it equals
    bit for bit when the larger sample exceeds 10,000 points; up to that
    size scipy rounds it to a multiple of 1 / lcm(n_a, n_b).  The p-value is
    the asymptotic Kolmogorov law with Stephens' correction,
    P(K > (sqrt(en) + 0.12 + 0.11 / sqrt(en)) D), en = n_a n_b / (n_a + n_b);
    above 10,000 points per side it is within 2e-3 of scipy's.
    """
    if a.ndim != 1 or b.ndim != 1 or not a.size or not b.size:
        raise ValueError("need two flat non-empty samples")
    a.sort()
    b.sort()
    statistic = 0.0
    for own, other in ((a, b), (b, a)):
        for lo, hi in _row_chunks(own.size, 1):
            chunk = own[lo:hi]
            gap = np.arange(lo + 1, hi + 1) / own.size
            gap -= _right_ranks(other, chunk) / other.size
            statistic = max(statistic, float(gap.max()))
    root = math.sqrt(a.size * b.size / (a.size + b.size))
    return statistic, _kolmogorov_sf((root + 0.12 + 0.11 / root) * statistic)
