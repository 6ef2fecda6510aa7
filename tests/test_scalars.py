"""Two-mode scalar arithmetic: field axioms, square roots, serialization."""

import random
from fractions import Fraction

import pytest

from ghkernel import (
    EXACT,
    FLOAT,
    ModeMismatchError,
    exact,
    exact_sqrt,
    flt,
    format_scalar,
    lift,
    parse_scalar,
    to_float,
)


def rand_exact(rng, span=20, den=12):
    return exact(
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
        Fraction(rng.randint(-span, span), rng.randint(1, den)),
    )


def test_rational_addition():
    assert exact(Fraction(1, 2)) + exact(Fraction(1, 3)) == exact(Fraction(5, 6))


def test_imaginary_unit_squares_to_minus_one():
    i = exact(0, 1)
    assert i * i == exact(-1)


def test_conjugate_product_is_one():
    z = exact(Fraction(3, 5), Fraction(4, 5))
    assert z * z.conjugate() == exact(1)


def test_field_axioms_on_random_triples():
    rng = random.Random(101)
    for _ in range(300):
        a, b, c = (rand_exact(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_division_inverts_multiplication():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_exact(rng)
        b = rand_exact(rng)
        if b.is_zero():
            continue
        assert (a / b) * b == a


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        exact(1) / exact(0)
    with pytest.raises(ZeroDivisionError):
        flt(1.0) / flt(0.0)


def test_mode_mixing_is_an_error():
    a, b = exact(1), flt(1.0)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ModeMismatchError):
            op()


def test_power_conventions():
    assert exact(0) ** 0 == exact(1)
    assert exact(Fraction(2, 3)) ** 3 == exact(Fraction(8, 27))
    with pytest.raises(ValueError):
        exact(2) ** -1


def test_exact_sqrt_examples():
    assert exact_sqrt(exact(Fraction(25, 4))) == exact(Fraction(5, 2))
    assert exact_sqrt(exact(0)) == exact(0)
    assert exact_sqrt(exact(2)) is None


def test_exact_sqrt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        exact_sqrt(exact(-1))
    with pytest.raises(ValueError):
        exact_sqrt(exact(0, 1))
    with pytest.raises(ModeMismatchError):
        exact_sqrt(flt(4.0))


def test_exact_sqrt_on_random_perfect_squares():
    rng = random.Random(55)
    for _ in range(10_000):
        r = Fraction(rng.randint(0, 500), rng.randint(1, 60))
        root = exact_sqrt(exact(r * r))
        assert root is not None
        assert root == exact(abs(r))
        assert root * root == exact(r * r)


def _random_dyadic(rng):
    # Dyadic rationals are exactly representable as doubles.
    return Fraction(rng.randint(-16, 16), 2 ** rng.randint(0, 4))


def _random_expression(rng, depth):
    """Chain of up to `depth` operations applied in both modes; returns the
    largest intermediate magnitude too, since a float result can only be
    accurate relative to the values that produced it."""
    value = _random_dyadic(rng)
    ev, fv = exact(value), flt(float(value))
    peak = abs(float(value))
    for _ in range(depth):
        operand = _random_dyadic(rng)
        oe, of = exact(operand), flt(float(operand))
        op = rng.choice("+-*/")
        if op == "/" and abs(float(operand)) < 0.25:
            op = "-"  # keep divisors away from zero
        if op == "+":
            ev, fv = ev + oe, fv + of
        elif op == "-":
            ev, fv = ev - oe, fv - of
        elif op == "*":
            ev, fv = ev * oe, fv * of
        else:
            ev, fv = ev / oe, fv / of
        peak = max(peak, abs(complex(ev)))
    return ev, fv, peak


def test_float_mode_tracks_exact_mode():
    rng = random.Random(2024)
    for _ in range(500):
        exact_value, float_value, peak = _random_expression(rng, rng.randint(1, 10))
        want = complex(exact_value)
        got = complex(float_value)
        scale = max(1.0, abs(want), peak)
        assert abs(got - want) / scale <= 1e-14


def test_lift_and_to_float():
    assert lift(Fraction(1, 2), FLOAT) == flt(0.5)
    assert lift(3, EXACT) == exact(3)
    assert to_float(exact(Fraction(733, 2))) == flt(366.5)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", exact(3)),
        ("-7", exact(-7)),
        ("1/2", exact(Fraction(1, 2))),
        ("1.5", exact(Fraction(3, 2))),
        ("3/5+4/5i", exact(Fraction(3, 5), Fraction(4, 5))),
        ("0+1i", exact(0, 1)),
        ("1-1/2i", exact(1, Fraction(-1, 2))),
        ("i", exact(0, 1)),
        ("-i", exact(0, -1)),
        ("2i", exact(0, 2)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text, EXACT) == value


def test_parse_rejects_garbage():
    for bad in ("", "1/0x", "++2", "3//4", "1+2", "abci", "1/0", "2+1/0i"):
        with pytest.raises(ValueError):
            parse_scalar(bad, EXACT)
    for bad in ("1/0", "1e400", "1-1e400i"):
        with pytest.raises(ValueError, match="numeral"):
            parse_scalar(bad, FLOAT)


def test_format_parse_roundtrip():
    rng = random.Random(9)
    for _ in range(200):
        s = rand_exact(rng)
        assert parse_scalar(format_scalar(s), EXACT) == s
    assert format_scalar(exact(Fraction(733, 2))) == "733/2"
    assert format_scalar(exact(1, Fraction(-4, 5))) == "1-4/5i"


def test_scalar_is_hashable_and_immutable():
    s = exact(1, 2)
    assert hash(s) == hash(exact(1, 2))
    with pytest.raises(AttributeError):
        s.re = Fraction(2)  # type: ignore[misc]
