"""Two-mode complex scalars: exact Gaussian rationals or IEEE complex doubles.

Every quantity fed to the polynomial and sum-rule machinery is a
:class:`Scalar`.  Exact mode keeps the real and imaginary parts as
arbitrary-precision :class:`fractions.Fraction` values, so polynomial
identities can be checked with zero residual.  Float mode keeps two doubles
and follows IEEE complex arithmetic.  The two modes never mix silently:
combining them raises :class:`ModeMismatchError`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from ._record import Record, _set

EXACT = "exact"
FLOAT = "float"
_MODES = (EXACT, FLOAT)

RationalLike = Union[int, float, str, Fraction]


class ModeMismatchError(TypeError):
    """An exact and a float scalar met in one expression."""


class NotExactlyRepresentableError(ArithmeticError):
    """An exact-mode result would require an irrational value."""


class Scalar(Record):
    """A complex number tagged with its arithmetic mode.

    ``re`` and ``im`` are Fractions in exact mode and floats in float mode.
    Instances are immutable; all operations return new values.
    """

    __slots__ = ("mode", "re", "im")
    mode: str
    re: Fraction | float
    im: Fraction | float

    def __init__(self, mode: str, re: Fraction | float, im: Fraction | float) -> None:
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        _set(self, "mode", mode)
        _set(self, "re", re)
        _set(self, "im", im)

    def _join(self, other: object) -> "Scalar":
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"cannot combine {self.mode} and {other.mode} scalars"
            )
        return other

    def __add__(self, other: "Scalar") -> "Scalar":
        other = self._join(other)
        return Scalar(self.mode, self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        other = self._join(other)
        return Scalar(self.mode, self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(self.mode, -self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        other = self._join(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if self.mode == EXACT and b == 0 and d == 0:
            return Scalar(EXACT, a * c, Fraction(0))
        return Scalar(self.mode, a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        other = self._join(other)
        if self.mode == FLOAT:
            z = complex(self.re, self.im) / complex(other.re, other.im)
            return Scalar(FLOAT, z.real, z.imag)
        denom = other.re * other.re + other.im * other.im
        if denom == 0:
            raise ZeroDivisionError("division by zero scalar")
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar(EXACT, (a * c + b * d) / denom, (b * c - a * d) / denom)

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a natural number")
        # Float mode keeps square-and-multiply: float ** e rounds differently.
        if self.mode == EXACT and self.im == 0:
            return Scalar(EXACT, self.re ** exponent, Fraction(0))
        result = one(self.mode)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conjugate(self) -> "Scalar":
        return Scalar(self.mode, self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        return format_scalar(self)


def exact(re: RationalLike = 0, im: RationalLike = 0) -> Scalar:
    """Exact scalar from rational-like inputs (floats are taken at their
    exact binary value)."""
    return Scalar(EXACT, Fraction(re), Fraction(im))


def flt(re: float = 0.0, im: float = 0.0) -> Scalar:
    """Float-mode scalar."""
    return Scalar(FLOAT, float(re), float(im))


def lift(value: int | Fraction, mode: str) -> Scalar:
    """Embed a real rational constant into the requested mode."""
    if mode == EXACT:
        return Scalar(EXACT, Fraction(value), Fraction(0))
    return Scalar(FLOAT, float(value), 0.0)


def zero(mode: str) -> Scalar:
    return lift(0, mode)


def one(mode: str) -> Scalar:
    return lift(1, mode)


def to_float(s: Scalar) -> Scalar:
    """Explicit exact -> float conversion (the only sanctioned crossing)."""
    return Scalar(FLOAT, float(s.re), float(s.im))


def magnitude(s: Scalar) -> float:
    """Complex modulus as a double."""
    return math.hypot(float(s.re), float(s.im))


def exact_sqrt(a: Scalar) -> Scalar | None:
    """Square root of a non-negative exact rational, when one exists.

    Returns the non-negative rational root r with r*r == a, or None when the
    input is not the square of a rational.  The input must be exact-mode,
    real, and non-negative.
    """
    if a.mode != EXACT:
        raise ModeMismatchError("exact_sqrt needs an exact-mode scalar")
    if a.im != 0:
        raise ValueError("exact_sqrt needs a real input")
    if a.re < 0:
        raise ValueError("exact_sqrt needs a non-negative input")
    num, den = a.re.numerator, a.re.denominator
    root_num = math.isqrt(num)
    root_den = math.isqrt(den)
    if root_num * root_num != num or root_den * root_den != den:
        return None
    return Scalar(EXACT, Fraction(root_num, root_den), Fraction(0))


def _format_real(value: Fraction | float, mode: str) -> str:
    if mode == EXACT:
        return str(value)
    return repr(value)


def format_scalar(s: Scalar) -> str:
    """Serialize a scalar; exact values stay exact fractions ("733/2")."""
    if s.im == 0:
        return _format_real(s.re, s.mode)
    sign = "+" if s.im > 0 else "-"
    return f"{_format_real(s.re, s.mode)}{sign}{_format_real(abs(s.im), s.mode)}i"


def _parse_component(text: str, mode: str) -> Fraction | float:
    if text in ("", "+"):
        value = Fraction(1)
    elif text == "-":
        value = Fraction(-1)
    else:
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"numeral {text!r} has a zero denominator") from None
    if mode == EXACT:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"numeral {text!r} overflows a double") from None


def parse_scalar(text: str, mode: str = EXACT) -> Scalar:
    """Parse "a/b", "1.5", or complex "a/b+c/di" forms.

    Raises ValueError on malformed input.
    """
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty numeral")
    if not t.endswith(("i", "I")):
        value = _parse_component(t, mode)
        return Scalar(mode, value, value * 0)
    body = t[:-1]
    # Split before the sign of the imaginary part; signs directly after an
    # exponent marker or at position 0 do not split.
    split_at = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE/+-":
            split_at = k
            break
    if split_at == -1:
        re_part, im_part = "0", body
    else:
        re_part, im_part = body[:split_at], body[split_at:]
    re_val = _parse_component(re_part, mode)
    im_val = _parse_component(im_part, mode)
    return Scalar(mode, re_val, im_val)
