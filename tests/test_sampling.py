"""Seeded Monte Carlo engine: reproducibility and moment matching."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ghkernel import sampling
from ghkernel import (
    RngStream,
    chi_even_moment,
    chi_merge_samples,
    collect_stats,
    exact,
    flt,
    gh_eval,
    graczyk_lhs,
    inner_product_lhs_samples,
    inner_product_rhs_samples,
    ks_two_sample,
    matrix_trace_rhs_samples,
    matrix_trace_samples,
    moment_match,
    moment_match_exact,
    matrix_polarization,
    polarization_pair,
    sample_chi,
    sample_gaussian,
)

COUNT = 200_000


def test_streams_are_reproducible_and_independent():
    a = sample_gaussian(RngStream(7, 0), 1000)
    b = sample_gaussian(RngStream(7, 0), 1000)
    c = sample_gaussian(RngStream(7, 1), 1000)
    d = sample_gaussian(RngStream(8, 0), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert collect_stats(a) == collect_stats(b)


def test_gaussian_moments():
    samples = sample_gaussian(RngStream(123, 0), COUNT)
    stats = collect_stats(samples, order=4)
    verdicts = moment_match_exact(stats, {1: 0.0, 2: 1.0, 3: 0.0, 4: 3.0}, z=5.0)
    assert all(v.passed for v in verdicts)


def test_odd_sample_count_is_supported():
    samples = sample_gaussian(RngStream(5, 0), 12345)
    assert samples.shape == (12345,)


def test_chi_samples():
    k = 3
    samples = sample_chi(RngStream(9, 0), k, COUNT)
    assert (samples >= 0).all()
    stats = collect_stats(samples, order=4)
    want_2 = float(chi_even_moment(k, 1))
    want_4 = float(chi_even_moment(k, 2))
    verdicts = moment_match_exact(stats, {2: want_2, 4: want_4}, z=5.0)
    assert all(v.passed for v in verdicts)
    with pytest.raises(ValueError):
        sample_chi(RngStream(9, 0), 0, 10)


def test_chi_even_moments_integer_cases():
    # E chi_k^2 = k and E chi_k^4 = k (k + 2)
    for k in range(1, 10):
        assert chi_even_moment(k, 1) == Fraction(k)
        assert chi_even_moment(k, 2) == Fraction(k * (k + 2))
        assert chi_even_moment(k, 0) == 1


def test_inner_product_lhs_noise_free_case():
    samples = inner_product_lhs_samples([3, 4], [3, 4], 0.0, RngStream(1, 0), 100)
    assert np.allclose(samples, 25.0)


def test_inner_product_lhs_mean():
    samples = inner_product_lhs_samples([3, 4], [1, -2], 1.0, RngStream(2, 0), COUNT)
    stats = collect_stats(samples, order=1)
    verdicts = moment_match_exact(stats, {1: 3 - 8}, z=5.0)
    assert all(v.passed for v in verdicts)


def test_inner_product_lhs_scalar_second_moment():
    # n=1 oracle: E[((x+sqrt(p)N)(y+sqrt(p)M))^2] = (x^2+p)(y^2+p)
    x, y, p = 2.0, -1.5, 0.75
    samples = inner_product_lhs_samples([x], [y], p, RngStream(3, 0), COUNT)
    stats = collect_stats(samples, order=2)
    want = (x * x + p) * (y * y + p)
    verdicts = moment_match_exact(stats, {2: want}, z=5.0)
    assert all(v.passed for v in verdicts)


def test_inner_product_samplers_reject_empty_vectors():
    with pytest.raises(ValueError, match="non-empty"):
        inner_product_lhs_samples([], [], 1.0, RngStream(0, 0), 10)
    with pytest.raises(ValueError, match="non-empty"):
        matrix_trace_samples([[]], [[]], RngStream(0, 0), 10)


def test_inner_product_rejects_negative_p():
    with pytest.raises(ValueError):
        inner_product_lhs_samples([1], [1], -1.0, RngStream(0, 0), 10)
    pair = polarization_pair((flt(1),), (flt(1),))
    with pytest.raises(ValueError):
        inner_product_rhs_samples(pair, 1, -1.0, RngStream(0, 0), 10)


def test_inner_product_rhs_noise_free_case():
    pair = polarization_pair((flt(3), flt(4)), (flt(3), flt(4)))
    samples = inner_product_rhs_samples(pair, 2, 0.0, RngStream(4, 0), 100)
    assert np.allclose(samples, 25.0)


def test_inner_product_rhs_mean():
    # the polarization scalars preserve the inner product: x*y = 3*1 + 4*(-2)
    pair = polarization_pair((flt(3), flt(4)), (flt(1), flt(-2)))
    samples = inner_product_rhs_samples(pair, 2, 1.0, RngStream(6, 0), COUNT)
    stats = collect_stats(samples, order=1)
    verdicts = moment_match_exact(stats, {1: -5.0}, z=5.0)
    assert all(v.passed for v in verdicts)


def test_inner_product_distributional_match():
    xv, yv = (flt(3), flt(4)), (flt(3), flt(4))
    pair = polarization_pair(xv, yv)
    lhs = inner_product_lhs_samples([3, 4], [3, 4], 1.0, RngStream(7, 0), COUNT)
    rhs = inner_product_rhs_samples(pair, 2, 1.0, RngStream(7, 1), COUNT)
    verdicts = moment_match(collect_stats(lhs), collect_stats(rhs), order=4, z=5.0)
    assert all(v.passed for v in verdicts)


def test_moment_match_same_stream_always_passes():
    stats = collect_stats(sample_gaussian(RngStream(11, 0), 10_000))
    verdicts = moment_match(stats, stats, order=4, z=5.0)
    assert all(v.passed for v in verdicts)
    assert all(v.difference == 0.0 for v in verdicts)


def test_moment_match_detects_shifted_mean():
    a = sample_gaussian(RngStream(12, 0), COUNT)
    b = sample_gaussian(RngStream(12, 1), COUNT) + 1.0
    verdicts = moment_match(collect_stats(a), collect_stats(b), order=1, z=5.0)
    assert not verdicts[0].passed


def test_rounding_floor_forgives_ulps_only():
    # Noise far below one ulp of 1: every sample is 1.0, the standard
    # errors are 0 and the rounding floor alone sets the tolerance.
    stats = collect_stats(1.0 + 1e-20 * sample_gaussian(RngStream(14, 0), 1000))
    assert stats.std_errors == (0.0,) * 4
    ulp_off = moment_match_exact(stats, {k: 1.0 + 2.0 ** -52 for k in range(1, 5)})
    assert all(v.passed and v.z_score is None for v in ulp_off)
    far_off = moment_match_exact(stats, {k: 1.0 + 1e-12 for k in range(1, 5)})
    assert not any(v.passed for v in far_off)


def test_moment_match_order_validation():
    stats = collect_stats(sample_gaussian(RngStream(13, 0), 1000), order=2)
    with pytest.raises(ValueError):
        moment_match(stats, stats, order=4)


def test_moment_match_overflowed_statistics_raise():
    """From order 3 the standard errors of these samples overflow a double:
    an infinite tolerance would pass moments 8.75e180 and 3.00e183."""
    a = np.array([1e60, 2e60, -1e60, 3e60])
    lhs, rhs = collect_stats(a, 6), collect_stats(7 * a, 6)
    assert [v.passed for v in moment_match(lhs, rhs, 2, 5.0)] == [True, True]
    with pytest.raises(ValueError, match="overflow a double from order 3; lower --order"):
        moment_match(lhs, rhs, 6, 5.0)


def test_overflowed_samples_raise_at_order_one():
    stats = collect_stats(np.array([1e308, 1e308, -1e308]), 1)
    with pytest.raises(ValueError, match="overflow a double at order 1; no --order helps"):
        moment_match(stats, stats, 1)


def test_moment_match_exact_infinite_error_raises():
    stats = sampling.SampleStats(10, (1.0, 2.0), (0.1, math.inf))
    assert moment_match_exact(stats, {1: 1.0})[0].passed
    with pytest.raises(ValueError, match="from order 2"):
        moment_match_exact(stats, {1: 1.0, 2: 2.0})


@pytest.mark.parametrize("z", [math.inf, math.nan, 0.0, -1.0])
def test_moment_gates_need_a_finite_positive_z(z):
    a = collect_stats(sample_gaussian(RngStream(1, 0), 1000))
    b = collect_stats(sample_gaussian(RngStream(2, 0), 1000) + 50.0)
    with pytest.raises(ValueError, match="z threshold must be finite and positive"):
        moment_match(a, b, 2, z)
    with pytest.raises(ValueError, match="z threshold must be finite and positive"):
        moment_match_exact(a, {1: 0.0}, z)


def test_matrix_trace_samples_mean_and_match():
    xm = [[3.0, 0.0], [0.0, 0.0]]
    ym = [[0.0, 4.0], [0.0, 0.0]]
    lhs = matrix_trace_samples(xm, ym, RngStream(21, 0), COUNT)
    stats = collect_stats(lhs, order=1)
    # E tr((x+N)^t (y+M)) = tr(x^t y) = 0 here
    verdicts = moment_match_exact(stats, {1: 0.0}, z=5.0)
    assert all(v.passed for v in verdicts)

    pair = matrix_polarization(
        ((flt(3), flt(0)), (flt(0), flt(0))),
        ((flt(0), flt(4)), (flt(0), flt(0))),
    )
    rhs = matrix_trace_rhs_samples(pair, 4, RngStream(21, 1), COUNT)
    verdicts = moment_match(collect_stats(lhs), collect_stats(rhs), order=4, z=5.0)
    assert all(v.passed for v in verdicts)


def test_matrix_trace_degenerate_one_by_one():
    lhs = matrix_trace_samples([[0.0]], [[0.0]], RngStream(31, 0), COUNT)
    pair = matrix_polarization(((flt(0),),), ((flt(0),),))
    rhs = matrix_trace_rhs_samples(pair, 1, RngStream(31, 1), COUNT)
    verdicts = moment_match(collect_stats(lhs), collect_stats(rhs), order=4, z=5.0)
    assert all(v.passed for v in verdicts)


def test_chi_merge_matches_direct_chi():
    a, b = 3, 4
    merged = chi_merge_samples(RngStream(41, 0), a, b, COUNT)
    direct = sample_chi(RngStream(41, 1), a + b, COUNT)
    verdicts = moment_match(collect_stats(merged), collect_stats(direct), order=4, z=5.0)
    assert all(v.passed for v in verdicts)
    stats = collect_stats(merged, order=4)
    exact_verdicts = moment_match_exact(
        stats,
        {2: float(chi_even_moment(a + b, 1)), 4: float(chi_even_moment(a + b, 2))},
        z=5.0,
    )
    assert all(v.passed for v in exact_verdicts)


def test_sampling_cross_validates_polynomial_values():
    """Empirical E (x + sqrt(2p) N)^m against the exact evaluation."""
    x = 1.5
    normals = sample_gaussian(RngStream(51, 0), COUNT)
    for p in (0.5, 1.0, 2.0):
        shifted = x + math.sqrt(2.0 * p) * normals
        stats = collect_stats(shifted, order=6)
        # Fraction(p) is exact for these dyadic p values.
        targets = {
            m: float(gh_eval(m, exact(Fraction(3, 2)), exact(Fraction(p))).re)
            for m in range(1, 7)
        }
        verdicts = moment_match_exact(stats, targets, z=5.0)
        assert all(v.passed for v in verdicts)


def test_exact_moment_identity_agrees_with_sampling():
    """Empirical E[lhs^M] vs the exact moment from the identity engine."""
    xv, yv = (3.0, 4.0), (3.0, 4.0)
    p = 1.0
    lhs = inner_product_lhs_samples(xv, yv, p, RngStream(61, 0), COUNT)
    stats = collect_stats(lhs, order=4)
    exact_xv = (exact(3), exact(4))
    targets = {}
    for big_m in range(1, 5):
        moment = graczyk_lhs(big_m, exact_xv, exact_xv, exact(Fraction(1, 2)))
        targets[big_m] = float(moment.re * math.factorial(big_m))
    verdicts = moment_match_exact(stats, targets, z=5.0)
    assert all(v.passed for v in verdicts)


def test_ks_diagnostic_smoke():
    a = sample_gaussian(RngStream(71, 0), 50_000)
    b = sample_gaussian(RngStream(71, 1), 50_000)
    statistic, pvalue = ks_two_sample(a, b)
    assert statistic < 0.02
    assert pvalue > 1e-6
    shifted = b + 0.5
    statistic, _ = ks_two_sample(a, shifted)
    assert statistic > 0.1


def assert_right_ranks(values, points):
    values = np.sort(np.asarray(values, dtype=float))
    points = np.sort(np.asarray(points, dtype=float))
    want = np.searchsorted(values, points, side="right")
    got = sampling._right_ranks(values, points)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (values, points, got, want)


@pytest.mark.parametrize(
    "points",
    [
        pytest.param([2, 2, 2], id="ties-at-both-edges"),
        pytest.param([1, 2, 2, 3, 3], id="duplicated-edges"),
        pytest.param([-9, -8, -8], id="wholly-below"),
        pytest.param([9, 9, 12], id="wholly-above"),
        pytest.param([1.5, 2, 2.5], id="inside"),
        pytest.param([-1, 2, 10], id="spanning"),
        pytest.param([2], id="one-point-on-a-tie"),
        pytest.param([-5], id="one-point-below"),
        pytest.param([5], id="one-point-above"),
    ],
)
def test_right_ranks_cases(points):
    assert_right_ranks([1, 2, 2, 2, 3, 3, 4], points)


def test_right_ranks_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # Few distinct values, so ties inside and across the arrays are common.
    small = st.integers(min_value=-6, max_value=6)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values=st.lists(small, max_size=30),
                      points=st.lists(small, min_size=1, max_size=30))
    def check(values, points):
        assert_right_ranks(values, points)

    check()


def test_ks_chunks_search_their_window(monkeypatch):
    # Chunks of 7 points over tied integer samples, so chunk edges fall
    # on runs of equal values: the statistic is that of whole searches.
    monkeypatch.setattr(sampling, "_CHUNK_NORMALS", 7)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 9, 300).astype(float)
    b = rng.integers(1, 12, 211).astype(float)
    statistic, _ = ks_two_sample(a, b)
    points = np.concatenate([a, b])
    want = np.searchsorted(a, points, side="right") / a.size
    want -= np.searchsorted(b, points, side="right") / b.size
    assert statistic == float(np.abs(want).max())


def test_collect_stats_validation():
    with pytest.raises(ValueError):
        collect_stats(np.array([1.0]))
    with pytest.raises(ValueError):
        collect_stats(np.ones((3, 3)))


def test_mutation_rhs_without_chi_term_is_caught():
    """Control: the right-hand side with its p Z_{n-1} N term dropped.

    At xv = yv = 0 the whole chi term carries half the variance in n = 2,
    so the gate must see the mutant while the true sampler passes.
    """
    xv = yv = (0.0, 0.0)
    pair = polarization_pair((flt(0), flt(0)), (flt(0), flt(0)))
    count = 100_000
    lhs = collect_stats(inner_product_lhs_samples(xv, yv, 1.0, RngStream(81, 0), count))
    # dimension 1 is the same sampler without the chi term
    for n, should_pass in ((2, True), (1, False)):
        rhs = inner_product_rhs_samples(pair, n, 1.0, RngStream(81, 1), count)
        verdicts = moment_match(lhs, collect_stats(rhs), order=4, z=5.0)
        assert all(v.passed for v in verdicts) is should_pass


def test_mutation_moments_without_half_p_are_caught():
    """Control: the exact moments taken at parameter p instead of p / 2.

    Both exact sides change alike under this slip, so only the samples
    of the left-hand side can catch it.
    """
    xv = (exact(3), exact(4))
    samples = inner_product_lhs_samples((3.0, 4.0), (3.0, 4.0), 1.0, RngStream(82, 0), 100_000)
    stats = collect_stats(samples, order=4)
    for p, should_pass in ((exact(Fraction(1, 2)), True), (exact(1), False)):
        targets = {
            big_m: float(graczyk_lhs(big_m, xv, xv, p).re * math.factorial(big_m))
            for big_m in range(1, 5)
        }
        verdicts = moment_match_exact(stats, targets, z=5.0)
        assert all(v.passed for v in verdicts) is should_pass


# -- chunked drawing ------------------------------------------------------
#
# The samplers draw in chunks of rows.  The references below draw every
# block whole, from its own child of the stream's SeedSequence, and the
# chunked samplers must reproduce them bit for bit.


def _reference_blocks(stream, count, widths):
    """Block b: `count` rows of `widths[b]` normals from child b of the
    stream's SeedSequence, spawned by numpy."""
    root = np.random.SeedSequence(entropy=stream.seed, spawn_key=(stream.stream_id,))
    return [
        np.random.Generator(np.random.PCG64(child)).standard_normal((count, width))
        for child, width in zip(root.spawn(len(widths)), widths)
    ]


def _reference_squared_norms(normals):
    return (normals * normals).sum(axis=1)


def _reference_gaussian(stream, count):
    (normals,) = _reference_blocks(stream, count, (1,))
    return normals[:, 0]


def _reference_chi(stream, k, count):
    (normals,) = _reference_blocks(stream, count, (k,))
    return np.sqrt(_reference_squared_norms(normals))


def _reference_chi_merge(stream, a, b, count):
    first, second = _reference_blocks(stream, count, (a, b))
    return np.sqrt(_reference_squared_norms(first) + _reference_squared_norms(second))


def _reference_lhs(xv, yv, p, stream, count):
    x, y = np.asarray(xv, dtype=float), np.asarray(yv, dtype=float)
    noise_x, noise_y = _reference_blocks(stream, count, (x.size, x.size))
    root = math.sqrt(p)
    return ((x + root * noise_x) * (y + root * noise_y)).sum(axis=1)


def _reference_rhs(pair, n, p, stream, count):
    x, y = float(pair.x.re), float(pair.y.re)
    n1, m1, chi, final = _reference_blocks(stream, count, (1, 1, n - 1, 1))
    z = np.sqrt(_reference_squared_norms(chi))
    root = math.sqrt(p)
    return (x + root * n1[:, 0]) * (y + root * m1[:, 0]) + p * z * final[:, 0]


def _reference_matrix(xm, ym, stream, count):
    x, y = np.asarray(xm, dtype=float), np.asarray(ym, dtype=float)
    noise_x, noise_y = _reference_blocks(stream, count, (x.size, x.size))
    shape = (count, *x.shape)
    return ((x + noise_x.reshape(shape)) * (y + noise_y.reshape(shape))).sum(axis=(1, 2))


PAIR_3 = polarization_pair((flt(3), flt(4), flt(1)), (flt(1), flt(-2), flt(2)))
XM_3X3 = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
YM_3X3 = [[0, 1, 0], [1, 0, 1], [2, 2, 2]]

# name: (normals per row, sampler, reference), both called as (stream, count)
CHUNKED = {
    "gaussian": (1, sample_gaussian, _reference_gaussian),
    "chi-9": (
        9,
        lambda stream, count: sample_chi(stream, 9, count),
        lambda stream, count: _reference_chi(stream, 9, count),
    ),
    "chi-merge-3-8": (
        11,
        lambda stream, count: chi_merge_samples(stream, 3, 8, count),
        lambda stream, count: _reference_chi_merge(stream, 3, 8, count),
    ),
    "lhs-3": (
        6,
        lambda stream, count: inner_product_lhs_samples([3, 4, 1], [1, -2, 2], 0.7, stream, count),
        lambda stream, count: _reference_lhs([3, 4, 1], [1, -2, 2], 0.7, stream, count),
    ),
    "rhs-3": (
        5,
        lambda stream, count: inner_product_rhs_samples(PAIR_3, 3, 0.7, stream, count),
        lambda stream, count: _reference_rhs(PAIR_3, 3, 0.7, stream, count),
    ),
    "rhs-1": (
        3,
        lambda stream, count: inner_product_rhs_samples(PAIR_3, 1, 0.7, stream, count),
        lambda stream, count: _reference_rhs(PAIR_3, 1, 0.7, stream, count),
    ),
    "matrix-3x3": (
        18,
        lambda stream, count: matrix_trace_samples(XM_3X3, YM_3X3, stream, count),
        lambda stream, count: _reference_matrix(XM_3X3, YM_3X3, stream, count),
    ),
    "matrix-1x3": (
        6,
        lambda stream, count: matrix_trace_samples([[1, 2, 3]], [[0, 1, 0]], stream, count),
        lambda stream, count: _reference_matrix([[1, 2, 3]], [[0, 1, 0]], stream, count),
    ),
    "matrix-rhs-9": (
        11,
        lambda stream, count: matrix_trace_rhs_samples(PAIR_3, 9, stream, count),
        lambda stream, count: _reference_rhs(PAIR_3, 9, 1.0, stream, count),
    ),
}


@pytest.mark.parametrize("budget", [None, 5], ids=["default-budget", "budget-5"])
@pytest.mark.parametrize("name", CHUNKED)
def test_chunked_samplers_match_materialised_draws(monkeypatch, budget, name):
    if budget is not None:
        monkeypatch.setattr(sampling, "_CHUNK_NORMALS", budget)
    width, sampler, reference = CHUNKED[name]
    rows = max(1, sampling._CHUNK_NORMALS // width)
    stream = RngStream(91, 3)
    for count in sorted({1, 2, 1001, rows - 1, rows, rows + 1, 2 * rows} - {0}):
        got = sampler(stream, count)
        want = reference(stream, count)
        assert got.shape == want.shape == (count,)
        assert got.tobytes() == want.tobytes(), (name, count)


def test_sides_and_blocks_read_distinct_spawn_keys(monkeypatch):
    """The two sides of a command are streams 0 and 1 of one seed, and a
    sampler's blocks are children 0, 1, ... of its stream: each block
    reads its own spawn key and draws its own normals."""
    first = {}

    def spy(generator, count):
        normals = generator.standard_normal(count)
        first.setdefault(generator.bit_generator.seed_seq.spawn_key, normals[:10])
        return normals

    monkeypatch.setattr(sampling, "_box_muller", spy)
    inner_product_lhs_samples([3, 4, 1], [1, -2, 2], 0.7, RngStream(5, 0), 10)
    inner_product_rhs_samples(PAIR_3, 3, 0.7, RngStream(5, 1), 10)
    assert sorted(first) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert len({normals.tobytes() for normals in first.values()}) == 6


def test_chi_sampling_memory_does_not_grow_with_dimension():
    count = 200_000
    peaks = {}
    for k in (2, 16, 64):
        tracemalloc.start()
        try:
            sample_chi(RngStream(1, 0), k, count)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # The result vector, plus temporaries bounded by the chunk budget.
    bound = 2 * count * 8 + 8 * sampling._CHUNK_NORMALS * 8
    assert max(peaks.values()) < bound, peaks
    assert peaks[64] <= 1.25 * peaks[2], peaks


# -- bounded-memory statistics ----------------------------------------------


def _numpy_stats(samples, order):
    """The whole-array formulas: mean, and std(ddof=1) / sqrt(n), per power."""
    moments, errors = [], []
    powers = np.ones_like(samples)
    for _ in range(order):
        powers = powers * samples
        moments.append(float(powers.mean()))
        errors.append(float(powers.std(ddof=1) / math.sqrt(samples.size)))
    return moments, errors


@pytest.mark.parametrize("budget", [None, 5], ids=["default-budget", "budget-5"])
def test_collect_stats_matches_numpy(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(sampling, "_CHUNK_NORMALS", budget)
    chunk = sampling._CHUNK_NORMALS
    counts = sorted({2, 3, 1001, chunk - 1, chunk, chunk + 1, 2 * chunk + 1} - {0, 1})
    samples = 1.5 + sample_gaussian(RngStream(17, 0), counts[-1])
    for count in counts:
        stats = collect_stats(samples[:count], order=6)
        moments, errors = _numpy_stats(samples[:count], 6)
        assert stats.count == count
        for got, want in zip(stats.moments + stats.std_errors, moments + errors):
            assert abs(got - want) <= 1e-13 * abs(want), (count, got, want)


def test_statistics_memory_does_not_grow_with_count():
    peaks = {}
    for count in (200_000, 1_000_000):
        a = sample_gaussian(RngStream(2, 0), count)
        b = sample_gaussian(RngStream(2, 1), count)
        tracemalloc.start()
        try:
            collect_stats(a, 4)
            ks_two_sample(a, b)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # Temporaries of a few chunks, whatever the count.
    bound = 8 * sampling._CHUNK_NORMALS * 8
    assert max(peaks.values()) < bound, peaks
    assert peaks[1_000_000] <= 1.25 * peaks[200_000], peaks


def test_ks_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    special = pytest.importorskip("scipy.special")
    # Above 10,000 points on the larger side ks_2samp takes its asymptotic
    # route, the arithmetic ks_two_sample repeats; at or below it, scipy
    # rounds the statistic to a multiple of 1 / lcm(n_a, n_b).
    rng = np.random.default_rng(23)
    cases = {
        "equal": (rng.standard_normal(20_000), rng.standard_normal(20_000)),
        "unequal": (rng.standard_normal(10_001), rng.standard_normal(30_011)),
        "shifted": (rng.standard_normal(40_000), 0.02 + rng.standard_normal(25_000)),
        "ties": (rng.integers(0, 40, 15_000).astype(float),
                 rng.integers(0, 40, 12_000).astype(float)),
        "large": (rng.standard_normal(400_000), rng.standard_normal(400_000)),
    }
    for name, (a, b) in cases.items():
        want = scipy_stats.ks_2samp(a, b)
        statistic, pvalue = ks_two_sample(a, b)
        assert statistic == float(want.statistic), name
        assert abs(pvalue - float(want.pvalue)) <= 2e-3, (name, pvalue, want.pvalue)
        # Documented: both samples are sorted in place.
        assert (np.diff(a) >= 0).all() and (np.diff(b) >= 0).all(), name
    for lam in np.linspace(0.05, 4.0, 400):
        assert abs(sampling._kolmogorov_sf(lam) - special.kolmogorov(lam)) <= 1e-14, lam
