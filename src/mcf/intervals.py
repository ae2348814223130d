"""Closed intervals with exact rational endpoints.

All certification in this package bottoms out in comparisons of such
intervals against exact rationals; no floating point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor

from .errors import DivisionByZero


def as_fraction(x) -> Fraction:
    """Coerce int/Fraction/decimal-string/'p/q'-string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi], lo <= hi, both exact rationals."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v) -> "RationalInterval":
        v = as_fraction(v)
        return RationalInterval(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, v) -> bool:
        v = as_fraction(v)
        return self.lo <= v <= self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other):
        if isinstance(other, RationalInterval):
            return RationalInterval(self.lo + other.lo, self.hi + other.hi)
        v = as_fraction(other)
        return RationalInterval(self.lo + v, self.hi + v)

    __radd__ = __add__

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, RationalInterval):
            return RationalInterval(self.lo - other.hi, self.hi - other.lo)
        v = as_fraction(other)
        return RationalInterval(self.lo - v, self.hi - v)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RationalInterval):
            products = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return RationalInterval(min(products), max(products))
        v = as_fraction(other)
        if v >= 0:
            return RationalInterval(self.lo * v, self.hi * v)
        return RationalInterval(self.hi * v, self.lo * v)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalInterval":
        if self.lo <= 0 <= self.hi:
            raise DivisionByZero(f"reciprocal of interval containing zero: [{self.lo}, {self.hi}]")
        return RationalInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        if isinstance(other, RationalInterval):
            return self * other.reciprocal()
        v = as_fraction(other)
        if v == 0:
            raise DivisionByZero("division of interval by zero")
        return self * (Fraction(1) / v)

    def abs(self) -> "RationalInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RationalInterval(Fraction(0), max(-self.lo, self.hi))

    def sign(self) -> int | None:
        """-1 or +1 when the interval certifies a sign, 0 for the point {0}, None if undetermined."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def floor_certified(self) -> int | None:
        """The common floor of every point of the interval, or None if not yet pinned down."""
        z = floor(self.lo)
        if self.hi < z + 1:
            return z
        return None

    def hull(self, other: "RationalInterval") -> "RationalInterval":
        return RationalInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def outward(self, bits: int) -> "RationalInterval":
        """Round endpoints outward to dyadic rationals with denominator 2**bits.

        Keeps endpoint sizes bounded in long interval-product chains at the
        cost of at most 2**-bits of extra width on each side.
        """
        scale = 1 << bits
        lo = Fraction(floor(self.lo * scale), scale)
        hi = Fraction(ceil(self.hi * scale), scale)
        return RationalInterval(lo, hi)

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


def iv_enclosure(prec: int, compute) -> RationalInterval:
    """The exact endpoints of the mpmath.iv interval compute(iv) returns at prec
    bits; mpmath is imported here, on the first logarithm a run takes."""
    from mpmath import iv

    def to_frac(raw) -> Fraction:
        sign, man, exp, _ = raw  # a libmp tuple (sign, mantissa, exponent, bitcount)
        mag = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        return -mag if sign else mag

    old = iv.prec
    iv.prec = prec
    try:
        lo, hi = compute(iv)._mpi_
    finally:
        iv.prec = old
    return RationalInterval(to_frac(lo), to_frac(hi))
