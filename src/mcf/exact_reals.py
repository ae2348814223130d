"""Exact representations of real inputs: rationals, real algebraic numbers
given by a squarefree modulus with an isolated real root, and refinable
interval oracles.

Floors, signs and integrality tests are *certified*: either decided by exact
rational arithmetic, or by refining an enclosing interval with exact rational
endpoints until the question is settled.  Every refinement in the package
runs through ``certify``, whose bounded budget (see ``refinement_budget``)
turns would-be infinite loops into ``NonTerminating``.
"""

from __future__ import annotations

import os
import threading
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InputError,
    NonTerminating,
    OracleExhausted,
)
from .intervals import RationalInterval, as_fraction
from . import polynomials as pol
from .radix import quote, str_to_int

DEFAULT_REFINEMENT_BUDGET = 64
# Hard cap on refinement rounds for algebraic values: round k targets a root
# interval of width 2**-(64 * 2**k), so round 18 is ~16 Mbit — past any sane
# use, but reached before memory death on exact-zero pathologies.
_MAX_ALGEBRAIC_ROUNDS = 18


def refinement_budget() -> int:
    raw = os.environ.get("MCF_PRECISION_BUDGET")
    if raw is None:
        return DEFAULT_REFINEMENT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"MCF_PRECISION_BUDGET must be an integer, got {raw!r}") from exc
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
    and the levels tried.
    """
    levels = budget_levels() if levels is None else levels
    for level in levels:
        verdict = attempt(level)
        if verdict is not None:
            return verdict
    raise NonTerminating(f"{what} not certified at levels {levels.start}..{levels.stop - 1}")


class NumberField:
    """Q[x]/(min_poly) with a distinguished real root isolated by an interval.

    ``min_poly`` is an integer coefficient list, constant term first, degree
    2..8, squarefree, with exactly one real root strictly inside
    ``root_interval`` (validated by a Sturm count; endpoint signs must be
    nonzero and opposite).  The isolating interval only ever shrinks; the
    cache is protected by a lock so concurrent refinement stays monotone.
    """

    __slots__ = ("min_poly", "_initial", "_interval", "_exact_root", "_lock")

    def __init__(self, min_poly: Sequence[int], root_interval: RationalInterval):
        coeffs = pol.normalize(min_poly)
        if any(c.denominator != 1 for c in coeffs):
            raise InputError("number field modulus must have integer coefficients")
        d = pol.degree(coeffs)
        if not 2 <= d <= 8:
            raise InputError(f"number field modulus degree must be in 2..8, got {d}")
        if not pol.is_squarefree(coeffs):
            raise InputError("number field modulus must be squarefree")
        lo_sign = pol.poly_eval(coeffs, root_interval.lo)
        hi_sign = pol.poly_eval(coeffs, root_interval.hi)
        if lo_sign == 0 or hi_sign == 0:
            raise InputError("root interval endpoints must not be roots of the modulus")
        if (lo_sign > 0) == (hi_sign > 0):
            raise InputError("modulus must change sign across the root interval")
        if pol.count_roots(coeffs, root_interval.lo, root_interval.hi) != 1:
            raise InputError("root interval must isolate exactly one real root (Sturm count)")
        self.min_poly = tuple(int(c) for c in coeffs)
        self._initial = root_interval
        self._interval = root_interval
        self._exact_root: Fraction | None = None
        self._lock = threading.Lock()
        # a rational root p/q has q | lead, so below 1/lead^2 only one
        # candidate survives; detecting it now keeps every later floor/sign
        # query exact even for reducible (squarefree) moduli
        lead = abs(self.min_poly[-1])
        tight = pol.refine_root(self.min_poly, root_interval, Fraction(1, lead * lead + 1))
        if tight.is_point:
            self._exact_root = tight.lo
        else:
            cand = pol.simplest_in_interval(tight.lo, tight.hi)
            if pol.poly_eval(self.min_poly, cand) == 0:
                self._exact_root = cand
        self._interval = tight

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def root_interval(self) -> RationalInterval:
        with self._lock:
            return self._interval

    def exact_root(self) -> Fraction | None:
        """The generator as an exact rational, when the isolated root is rational."""
        with self._lock:
            return self._exact_root

    def refine_root(self, max_width: Fraction) -> RationalInterval:
        """Shrink the cached isolating interval to width <= max_width (monotone)."""
        with self._lock:
            if self._exact_root is not None:
                return self._interval
            if self._interval.width <= max_width:
                return self._interval
            refined = pol.refine_root(self.min_poly, self._interval, max_width)
            if refined.is_point:
                self._exact_root = refined.lo
            self._interval = refined
            return refined

    def element(self, coords) -> "FieldElement":
        return FieldElement(self, coords)

    def zero(self) -> "FieldElement":
        return self.element([0])

    def one(self) -> "FieldElement":
        return self.element([1])

    def gen(self) -> "FieldElement":
        return self.element([0, 1])

    def _same(self, other: "NumberField") -> bool:
        return self is other or (
            self.min_poly == other.min_poly and self._initial == other._initial
        )

    def __repr__(self):
        return f"NumberField(min_poly={list(self.min_poly)}, root~{self._initial})"


def _require_same_field(a: "FieldElement", b: "FieldElement") -> None:
    if not a.field._same(b.field):
        raise FieldMismatch(f"elements of different fields: {a.field!r} vs {b.field!r}")


class FieldElement:
    """Element of a NumberField in power-basis coordinates (length = degree)."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        d = field.degree
        cs = [as_fraction(c) for c in coords]
        if len(cs) > d:
            raise InputError(f"too many coordinates for a degree-{d} field")
        cs.extend([Fraction(0)] * (d - len(cs)))
        self.field = field
        self.coords = tuple(cs)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        """Representation-level rationality: all power-basis coordinates above 1 vanish."""
        if self.field.exact_root() is not None:
            return True
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        root = self.field.exact_root()
        if root is not None:
            return pol.poly_eval(self.coords, root)
        if not self.is_rational():
            raise InputError("element is not rational")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element([other])
        if not isinstance(other, FieldElement):
            return NotImplemented
        _require_same_field(self, other)
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.field.min_poly, self.coords))

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            _require_same_field(self, other)
            return other
        return self.field.element([as_fraction(other)])

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        prod = pol.poly_mul(self.coords, other.coords)
        _, rem = pol.poly_divmod(prod, self.field.min_poly)
        return FieldElement(self.field, list(rem))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero field element")
        g, s, _ = pol.poly_xgcd(self.coords, self.field.min_poly)
        if pol.degree(g) != 0:
            raise DivisionByZero(
                "element is a zero divisor (modulus reducible); no inverse exists"
            )
        inv = pol.poly_scale(s, Fraction(1) / g[0])
        _, rem = pol.poly_divmod(inv, self.field.min_poly)
        return FieldElement(self.field, list(rem))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- certified analytics --------------------------------------------------

    def interval(self, max_width: Fraction) -> RationalInterval:
        """An interval of width <= max_width provably containing the element."""
        max_width = as_fraction(max_width)
        if max_width <= 0:
            raise InputError("requested interval width must be positive")
        exact = self._exact_value()
        if exact is not None:
            return RationalInterval.point(exact)
        target = min(self.field.root_interval().width, max_width)

        def attempt(level):
            if level:
                self.field.refine_root(target / 16**level)
            iv = pol.poly_eval_interval(self.coords, self.field.root_interval())
            return iv if iv.width <= max_width else None

        levels = range(_MAX_ALGEBRAIC_ROUNDS + refinement_budget())
        return certify("field element enclosure to the requested width", attempt, levels)

    def _exact_value(self) -> Fraction | None:
        root = self.field.exact_root()
        if root is not None:
            return pol.poly_eval(self.coords, root)
        return self.coords[0] if self.is_rational() else None

    def _decide(self, what: str, read: Callable[[RationalInterval], int | None]) -> int:
        """read() of the first enclosure that decides it: the cached root interval,
        then the root refined to width 2^-(64 * 2^k), k = 0, 1, ..."""

        def attempt(level):
            if level:
                self.field.refine_root(Fraction(1, 1 << (64 << (level - 1))))
            exact = self._exact_value()
            if exact is not None:
                return read(RationalInterval.point(exact))
            return read(pol.poly_eval_interval(self.coords, self.field.root_interval()))

        return certify(what, attempt, range(min(refinement_budget(), _MAX_ALGEBRAIC_ROUNDS) + 1))

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), certified.

        Zero is decided representation-wise; a nonzero representation whose
        value is secretly zero (possible only for a reducible modulus) runs
        out of budget and raises NonTerminating rather than answering wrong.
        """
        if self.is_zero():
            return 0
        return self._decide("sign of a field element (zero divisor input?)", RationalInterval.sign)

    def floor(self) -> int:
        return self._decide("floor of a field element (is the value an integer?)",
                            RationalInterval.floor_certified)

    def __repr__(self):
        return f"FieldElement({list(self.coords)} over deg-{self.field.degree} field)"


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


class IntervalOracle:
    """Base class: memoizes ``enclosure(level)`` pulls and asserts nesting.

    Successive pulls must be nested (each new enclosure inside every earlier
    one); a violation means the oracle is unsound and raises InputError.
    """

    def __init__(self):
        self._memo: dict[int, RationalInterval] = {}
        self._tightest: RationalInterval | None = None

    def _compute(self, level: int) -> RationalInterval:  # pragma: no cover - abstract
        raise NotImplementedError

    def deepest_level(self) -> int:
        """The deepest level pulled so far (0 before any): where a certified query starts."""
        return max(self._memo, default=0)

    def enclosure(self, level: int) -> RationalInterval:
        if level in self._memo:
            return self._memo[level]
        iv = self._compute(level)
        if self._tightest is not None and not self._tightest.contains_interval(iv):
            raise InputError(
                f"oracle enclosures are not nested: {iv} is not inside {self._tightest}"
            )
        self._memo[level] = iv
        self._tightest = iv
        return iv


class SimplexOracle(IntervalOracle):
    """Coordinate ``coord`` of a point of R^M enclosed at each level by a simplex.

    Subclasses define ``vertices(level)``: integer vectors (C, A_1, ..., A_M),
    C > 0, with the point in the convex hull of the A / C.  Oracles of equal
    ``key`` enclose the same point, so the engine can use their joint simplex.
    """

    def __init__(self, key, coord: int):
        super().__init__()
        self.key, self.coord = key, coord

    def _compute(self, level: int) -> RationalInterval:
        vals = [Fraction(v[self.coord], v[0]) for v in self.vertices(level)]
        return RationalInterval(min(vals), max(vals))


class FunctionOracle(IntervalOracle):
    """Wrap a user callable level -> RationalInterval; nesting is enforced."""

    def __init__(self, fn: Callable[[int], RationalInterval]):
        super().__init__()
        self._fn = fn

    def _compute(self, level: int) -> RationalInterval:
        iv = self._fn(level)
        if not isinstance(iv, RationalInterval):
            raise InputError("oracle callable must return a RationalInterval")
        return iv


class DecimalOracle(IntervalOracle):
    """A decimal literal read as an approximation with +-1 ulp uncertainty.

    Fixed digits cannot satisfy the width->0 oracle contract, so the single
    available enclosure is [v - ulp, v + ulp]; any request to refine past it
    raises OracleExhausted.
    """

    def __init__(self, digits: str):
        super().__init__()
        text = digits.strip()
        sign = 1
        if text.startswith(("+", "-")):
            sign = -1 if text[0] == "-" else 1
            text = text[1:]
        if not text or not text.replace(".", "", 1).isdecimal():
            raise InputError(f"malformed decimal literal {quote(digits)}")
        if "." in text:
            int_part, frac_part = text.split(".")
            places = len(frac_part)
            value = Fraction(sign * str_to_int(int_part + frac_part), 10**places)
        else:
            places = 0
            value = Fraction(sign * str_to_int(text))
        self.digits = digits
        self._value = value
        self._places = places

    def _compute(self, level: int) -> RationalInterval:
        if level > 0:
            raise OracleExhausted(
                f"decimal literal {quote(self.digits)} has no precision beyond 10^-{self._places} "
                "(supply more digits or an exact kind)"
            )
        ulp = Fraction(1, 10**self._places)
        return RationalInterval(self._value - ulp, self._value + ulp)


# ---------------------------------------------------------------------------
# RealValue: the tagged union of exact input kinds
# ---------------------------------------------------------------------------


class RealValue:
    """Tagged union: Rational | Algebraic | Oracle."""

    kind = "abstract"


class RationalValue(RealValue):
    kind = "rational"
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = as_fraction(value)

    def __repr__(self):
        return f"RationalValue({self.value})"


class AlgebraicValue(RealValue):
    kind = "algebraic"
    __slots__ = ("element",)

    def __init__(self, element: FieldElement):
        if not isinstance(element, FieldElement):
            raise InputError("AlgebraicValue wraps a FieldElement")
        self.element = element

    def __repr__(self):
        return f"AlgebraicValue({self.element!r})"


class OracleValue(RealValue):
    kind = "oracle"
    __slots__ = ("oracle",)

    def __init__(self, oracle: IntervalOracle):
        if not hasattr(oracle, "enclosure"):
            raise InputError("OracleValue wraps an object with enclosure(level)")
        self.oracle = oracle

    def __repr__(self):
        return f"OracleValue({type(self.oracle).__name__})"


def as_real(x) -> RealValue:
    """Coerce ints, Fractions, FieldElements and oracles into RealValue."""
    if isinstance(x, RealValue):
        return x
    if isinstance(x, FieldElement):
        return AlgebraicValue(x)
    if isinstance(x, IntervalOracle):
        return OracleValue(x)
    if isinstance(x, (int, Fraction, str)):
        return RationalValue(as_fraction(x))
    raise InputError(f"cannot interpret {x!r} as a real value")


def query_levels(x: RealValue) -> range:
    """Levels a certified query on x tries: the budget, counted from the deepest
    level its oracle has memoized (enclosures are nested, so no answer changes)."""
    oracle = x.oracle if isinstance(x, OracleValue) else None
    return budget_levels(oracle.deepest_level() if isinstance(oracle, IntervalOracle) else 0)


def enclosure_at(x, round_k: int) -> RationalInterval:
    """A certified enclosure of x, tightening as round_k grows (nested)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return RationalInterval.point(x.value)
    if isinstance(x, AlgebraicValue):
        bits = 8 << min(round_k, 20)
        return x.element.interval(Fraction(1, 1 << bits))
    return x.oracle.enclosure(round_k)


def abs_diff_pow_lt(x, center, q: int, bound, what: str = "comparison |x - c|^q < bound") -> bool:
    """Certified strict test |x - center|**q < bound (q >= 1, bound rational).

    Decides exactly for rational and algebraic x.  For oracles the enclosure
    is refined until the comparison is certified either way; an exact tie
    (possible only if the oracle limit violates its irrationality contract)
    exhausts the budget and raises NonTerminating naming `what`.
    """
    center = as_fraction(center)
    bound = as_fraction(bound)
    if q < 1:
        raise InputError("exponent q must be >= 1")
    x = as_real(x)
    if isinstance(x, RationalValue):
        return abs(x.value - center) ** q < bound
    if isinstance(x, AlgebraicValue):
        diff_pow = (x.element - center) ** q
        # |v| < T  <=>  -T < v < T, decided by two exact signs
        if q % 2 == 0:
            return (diff_pow - bound).sign() < 0
        return (diff_pow - bound).sign() < 0 and (diff_pow + bound).sign() > 0

    def attempt(level):
        mag = (x.oracle.enclosure(level) - center).abs()
        lo_pow, hi_pow = mag.lo**q, mag.hi**q
        if hi_pow < bound:
            return True
        if lo_pow > bound or lo_pow == hi_pow == bound:
            return False

    return certify(what, attempt, query_levels(x))


def abs_diff_lt(x, center, bound, what: str = "comparison |x - c| < bound") -> bool:
    """Certified strict test |x - center| < bound."""
    return abs_diff_pow_lt(x, center, 1, bound, what)
