"""Closed intervals with exact rational endpoints, and `certify`, the one
refinement loop.

All certification in this package bottoms out in comparisons of such
intervals against exact rationals; no floating point is involved anywhere.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import floor
from typing import Callable

from .errors import DivisionByZero, InputError, NonTerminating, OracleExhausted
from .radix import Record, frac_to_str, quote, str_to_frac, str_to_int


def as_fraction(x) -> Fraction:
    """Coerce int/Fraction/decimal-string/'p/q'-string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return str_to_frac(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class RationalInterval(Record):
    """Closed interval [lo, hi], lo <= hi, both exact rationals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        object.__setattr__(self, "lo", as_fraction(lo))
        object.__setattr__(self, "hi", as_fraction(hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self}")

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
            raise DivisionByZero(f"reciprocal of interval containing zero: {self}")
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

    def __str__(self):
        return f"[{frac_to_str(self.lo)}, {frac_to_str(self.hi)}]"

    def __repr__(self):
        return f"RationalInterval({frac_to_str(self.lo)!r}, {frac_to_str(self.hi)!r})"


DEFAULT_REFINEMENT_BUDGET = 64


def refinement_budget() -> int:
    raw = os.environ.get("MCF_PRECISION_BUDGET")
    if raw is None:
        return DEFAULT_REFINEMENT_BUDGET
    try:
        value = str_to_int(raw)
    except InputError as exc:
        raise InputError(f"MCF_PRECISION_BUDGET must be an integer, got {quote(raw)}") from exc
    if value < 1:
        raise InputError("MCF_PRECISION_BUDGET must be >= 1")
    return value


def budget_levels(start: int = 0, cap: int | None = None, budget: int | None = None) -> range:
    """The levels a query tries: budget (default: read now) rounds from start, none past cap."""
    stop = start + (refinement_budget() if budget is None else budget)
    return range(start, stop if cap is None else min(stop, cap + 1))


def certify(what: str, attempt: Callable[[int], object], levels: range | None = None):
    """The first verdict attempt(level) gives (None means undecided at that level).

    Each attempt reads every enclosure its query needs at that level, so
    both sides of a comparison tighten together.  levels defaults to the
    budget counted from 0; running out raises NonTerminating naming `what`
    and the levels tried.  An oracle that runs out in an attempt raises its
    OracleExhausted again, prefixed with `what` and the level.
    """
    levels = budget_levels() if levels is None else levels
    for level in levels:
        try:
            verdict = attempt(level)
        except OracleExhausted as exc:
            raise type(exc)(f"{what} at level {level}: {exc}") from exc
        if verdict is not None:
            return verdict
    raise NonTerminating(f"{what} not certified at levels {levels.start}..{levels.stop - 1}")
