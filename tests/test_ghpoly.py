"""Polynomial evaluation paths and the Hermite bridge.

The three evaluation routes (direct sum, recurrence, moment expansion) are
mutually independent implementations; exact mode demands bit equality.
"""

import random
from fractions import Fraction

import pytest

from ghkernel import (
    ModeMismatchError,
    exact,
    flt,
    gaussian_moment,
    gh_eval,
    gh_eval_recurrence,
    gh_moment_oracle,
    gh_multi_eval,
    hermite_eval,
    lift,
    to_float,
)
from ghkernel.ghpoly import gaussian_row


def rand_rational(rng, span=10, den=8):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def hermite_by_recurrence(n, x):
    """Independent oracle: H_0 = 1, H_1 = 2x, H_{n+1} = 2x H_n - 2n H_{n-1}."""
    two_x = lift(2, x.mode) * x
    prev, cur = lift(1, x.mode), two_x
    if n == 0:
        return prev
    for degree in range(1, n):
        prev, cur = cur, two_x * cur - lift(2 * degree, x.mode) * prev
    return cur


def test_gh_eval_frozen_values():
    assert gh_eval(0, exact(7), exact(3)) == exact(1)
    # x^2 + 2p at (1, 1)
    assert gh_eval(2, exact(1), exact(1)) == exact(3)
    # x^3 + 6px at (2, -1)
    assert gh_eval(3, exact(2), exact(-1)) == exact(-4)
    # only the k=2 term survives at x=0: 4!/(2! 0!)
    assert gh_eval(4, exact(0), exact(1)) == exact(12)


def test_recurrence_frozen_values():
    assert gh_eval_recurrence(1, exact(5), exact(9)) == exact(5)
    assert gh_eval_recurrence(2, exact(1), exact(1)) == exact(3)
    assert gh_eval_recurrence(3, exact(2), exact(-1)) == exact(-4)


def test_moment_oracle_frozen_values():
    x = exact(Fraction(9, 7))
    assert gh_moment_oracle(1, x, exact(4)) == x
    assert gh_moment_oracle(2, exact(1), exact(1)) == exact(3)
    assert gh_moment_oracle(4, exact(0), exact(1)) == exact(12)


def test_gaussian_moments():
    assert [gaussian_moment(k) for k in range(7)] == [1, 0, 1, 0, 3, 0, 15]
    with pytest.raises(ValueError):
        gaussian_moment(-2)


def test_multi_eval():
    p = exact(1)
    xs = (exact(3), exact(4))
    assert gh_multi_eval((0, 0), xs, p) == exact(1)
    assert gh_multi_eval((1, 1), xs, p) == exact(12)
    # g_2(3, 1) = 9 + 2
    assert gh_multi_eval((2, 0), xs, p) == exact(11)
    with pytest.raises(ValueError):
        gh_multi_eval((1,), xs, p)


def test_hermite_frozen_values():
    assert hermite_eval(0, exact(5)) == exact(1)
    # 4x^2 - 2 at x=1
    assert hermite_eval(2, exact(1)) == exact(2)
    # 8x^3 - 12x at x=1
    assert hermite_eval(3, exact(1)) == exact(-4)


def test_hermite_matches_independent_recurrence():
    rng = random.Random(41)
    for _ in range(10):
        x = exact(rand_rational(rng))
        for n in range(31):
            assert hermite_eval(n, x) == hermite_by_recurrence(n, x)


def test_parity():
    rng = random.Random(13)
    for _ in range(20):
        x = exact(rand_rational(rng))
        p = exact(rand_rational(rng))
        for m in range(21):
            sign = exact(1) if m % 2 == 0 else exact(-1)
            assert gh_eval(m, -x, p) == sign * gh_eval(m, x, p)


def test_degenerate_parameter_gives_pure_powers():
    rng = random.Random(29)
    for _ in range(20):
        x = exact(rand_rational(rng))
        for m in range(15):
            assert gh_eval(m, x, exact(0)) == x**m


def test_three_way_agreement():
    rng = random.Random(4242)
    for _ in range(25):
        x = exact(rand_rational(rng))
        p = exact(rand_rational(rng))
        for m in range(26):
            direct = gh_eval(m, x, p)
            assert gh_eval_recurrence(m, x, p) == direct
            assert gh_moment_oracle(m, x, p) == direct


def test_float_recurrence_tracks_exact():
    """The default (recurrence) path holds 1e-12 across the full range."""
    rng = random.Random(90)
    for _ in range(25):
        x = exact(rand_rational(rng))
        p = exact(rand_rational(rng))
        for m in range(31):
            want = complex(to_float(gh_eval(m, x, p)))
            got = complex(gh_eval_recurrence(m, to_float(x), to_float(p)))
            scale = max(1.0, abs(want))
            assert abs(got - want) / scale <= 1e-12


def test_float_direct_sum_tracks_exact_without_cancellation():
    """For p >= 0 every term in the gap-2 sum carries the same sign (up to
    the global parity flip), so the direct sum is also accurate in float."""
    rng = random.Random(91)
    for _ in range(25):
        x = exact(rand_rational(rng))
        p = exact(abs(rand_rational(rng)))
        for m in range(31):
            want = complex(to_float(gh_eval(m, x, p)))
            got = complex(gh_eval(m, to_float(x), to_float(p)))
            scale = max(1.0, abs(want))
            assert abs(got - want) / scale <= 1e-12


def test_mode_mismatch_rejected():
    with pytest.raises(ModeMismatchError):
        gh_eval(2, exact(1), flt(1.0))


def test_negative_degree_rejected():
    """Every evaluation route, and the row the recurrence reads, names a
    negative degree; the recurrence leaves that check to the row."""
    for call in (
        lambda: gh_eval(-1, exact(1), exact(1)),
        lambda: gh_eval_recurrence(-1, exact(1), exact(1)),
        lambda: gh_moment_oracle(-1, exact(1), exact(1)),
        lambda: gaussian_row(-1, (1, 0), (1, 0)),
    ):
        with pytest.raises(ValueError, match="degree must be a natural number"):
            call()
