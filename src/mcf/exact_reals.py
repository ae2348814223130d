"""Exact representations of real inputs: rationals, real algebraic numbers
given by a squarefree modulus with an isolated real root, and refinable
interval oracles.

Floors, signs and integrality tests are *certified*: either decided by exact
rational arithmetic, or by refining an enclosing interval with exact rational
endpoints until the question is settled.  A bounded refinement budget (see
``refinement_budget``) turns would-be infinite loops into ``NonTerminating``.
"""

from __future__ import annotations

import math
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
    UndecidableForOracle,
)
from .intervals import RationalInterval, as_fraction
from . import polynomials as pol

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
        root = self.field.exact_root()
        if root is not None:
            return RationalInterval.point(pol.poly_eval(self.coords, root))
        if self.is_rational():
            return RationalInterval.point(self.coords[0])
        target = min(self.field.root_interval().width, max_width)
        for _ in range(_MAX_ALGEBRAIC_ROUNDS + refinement_budget()):
            iv = pol.poly_eval_interval(self.coords, self.field.root_interval())
            if iv.width <= max_width:
                return iv
            target = target / 16
            self.field.refine_root(target)
        raise NonTerminating("element interval refinement budget exhausted")

    def _refinements(self):
        """Yield successively tighter enclosures on the budgeted schedule."""
        root = self.field.exact_root()
        if root is not None:
            yield RationalInterval.point(pol.poly_eval(self.coords, root))
            return
        if self.is_rational():
            yield RationalInterval.point(self.coords[0])
            return
        rounds = min(refinement_budget(), _MAX_ALGEBRAIC_ROUNDS)
        yield pol.poly_eval_interval(self.coords, self.field.root_interval())
        for k in range(rounds):
            width = Fraction(1, 1 << (64 * (1 << k)))
            self.field.refine_root(width)
            root = self.field.exact_root()
            if root is not None:
                yield RationalInterval.point(pol.poly_eval(self.coords, root))
                return
            yield pol.poly_eval_interval(self.coords, self.field.root_interval())

    def sign(self) -> int:
        """Exact sign (-1, 0, +1), certified.

        Zero is decided representation-wise; a nonzero representation whose
        value is secretly zero (possible only for a reducible modulus) runs
        out of budget and raises NonTerminating rather than answering wrong.
        """
        if self.is_zero():
            return 0
        for iv in self._refinements():
            s = iv.sign()
            if s is not None:
                return s
        raise NonTerminating("sign refinement budget exhausted (zero divisor input?)")

    def floor(self) -> int:
        for iv in self._refinements():
            z = iv.floor_certified()
            if z is not None:
                return z
        raise NonTerminating("floor refinement budget exhausted (is the value an integer?)")

    def __repr__(self):
        return f"FieldElement({list(self.coords)} over deg-{self.field.degree} field)"


def field_arith(op: str, a: FieldElement, b: FieldElement | None = None) -> FieldElement:
    """Named field operations: add, sub, mul, inv."""
    if op == "inv":
        if b is not None:
            raise InputError("inv takes a single operand")
        return a.inverse()
    if b is None:
        raise InputError(f"{op} needs two operands")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise InputError(f"unknown field operation {op!r}")


def element_interval(a: FieldElement, width) -> RationalInterval:
    return a.interval(as_fraction(width))


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
        if not text or not text.replace(".", "", 1).isdigit():
            raise InputError(f"malformed decimal literal {digits!r}")
        if "." in text:
            int_part, frac_part = text.split(".")
            places = len(frac_part)
            value = Fraction(sign * int(int_part + frac_part), 10**places)
        else:
            places = 0
            value = Fraction(sign * int(text))
        self.digits = digits
        self._value = value
        self._ulp = Fraction(1, 10**places)

    def _compute(self, level: int) -> RationalInterval:
        if level > 0:
            raise OracleExhausted(
                f"decimal literal {self.digits!r} has no precision beyond {self._ulp} "
                "(supply more digits or an exact kind)"
            )
        return RationalInterval(self._value - self._ulp, self._value + self._ulp)


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
    start = oracle.deepest_level() if isinstance(oracle, IntervalOracle) else 0
    return range(start, start + refinement_budget())


def floor_exact(x) -> int:
    """Certified floor of a RealValue (or anything as_real accepts)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return math.floor(x.value)
    if isinstance(x, AlgebraicValue):
        return x.element.floor()
    levels = query_levels(x)
    for level in levels:
        z = x.oracle.enclosure(level).floor_certified()
        if z is not None:
            return z
    raise NonTerminating(f"oracle floor not certified at levels {levels.start}..{levels.stop - 1}")


def is_integer(x) -> bool:
    """Exact integrality test; rejected for oracles (undecidable)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return x.value.denominator == 1
    if isinstance(x, AlgebraicValue):
        el = x.element
        if not el.is_rational():
            return False
        return el.as_fraction().denominator == 1
    raise UndecidableForOracle("integrality of an oracle-backed value is undecidable")


def enclosure_at(x, round_k: int) -> RationalInterval:
    """A certified enclosure of x, tightening as round_k grows (nested)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return RationalInterval.point(x.value)
    if isinstance(x, AlgebraicValue):
        bits = 8 << min(round_k, 20)
        return x.element.interval(Fraction(1, 1 << bits))
    return x.oracle.enclosure(round_k)


def abs_diff_pow_lt(x, center, q: int, bound) -> bool:
    """Certified strict test |x - center|**q < bound (q >= 1, bound rational).

    Decides exactly for rational and algebraic x.  For oracles the enclosure
    is refined until the comparison is certified either way; an exact tie
    (possible only if the oracle limit violates its irrationality contract)
    exhausts the budget and raises NonTerminating.
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
    levels = query_levels(x)
    for level in levels:
        mag = (x.oracle.enclosure(level) - center).abs()
        lo_pow = mag.lo**q
        hi_pow = mag.hi**q
        if hi_pow < bound:
            return True
        if lo_pow > bound:
            return False
        if lo_pow == hi_pow == bound:
            return False
    raise NonTerminating(
        f"comparison not certified at levels {levels.start}..{levels.stop - 1}"
    )


def abs_diff_lt(x, center, bound) -> bool:
    """Certified strict test |x - center| < bound."""
    return abs_diff_pow_lt(x, center, 1, bound)
