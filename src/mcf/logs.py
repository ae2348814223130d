"""Certified logarithms in integer arithmetic, and `log_sign`, the one
comparator of powers and logarithms.

A positive rational x is written 2^k y with y in [1/sqrt 2, sqrt 2), and
log x = 2 k atanh(1/3) + 2 atanh(t), t = (y - 1)/(y + 1), so |t| < 0.172.
Each series atanh t = sum t^(2j+1)/(2j+1) is summed in fixed point, every
step rounded down, and the rounding and the tail are bounded explicitly
(`_atanh`).  No floating point is involved; log is increasing, so the log
of an enclosure is the hull of its endpoints' logs.

`log_sign` decides the sign of sum e_i log v_i, which states every inequality
between powers that mcf certifies; it forms no power of an exponent beyond
EXACT_WEIGHT.
"""

from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction
from operator import mul
from typing import Callable

from .intervals import RationalInterval, as_fraction, certify
from .radix import EXACT, drop_digits, int_to_str, iroot_floor, magnitude

EXACT_WEIGHT = 8  # log_sign compares exact products when sum |e_i| is at most this
_BITS = 64  # bits of log_sign's fixed point at its first step and level 0; level k has _BITS << k


def _atanh(u: int, v: int, w: int) -> tuple[int, int]:
    """lo <= 2^w atanh(u/v) <= hi, for 0 < u/v <= 1/3.

    The true powers are p_j = t^(2j+1) 2^w.  Floors keep each power P_j <= p_j
    and short of it by E_j <= t^2 E_(j-1) + 2 <= 9/4 (t^2 <= 1/9), so each of
    the n summed terms falls short by less than 4.  Once P_n = 0, p_n < 9/4,
    and the tail sum_(j >= n) p_j/(2j+1) <= p_n/(1 - t^2) < 3.
    """
    power = (u << w) // v
    square = (u * u << w) // (v * v)
    total = n = 0
    while power:
        total += power // (2 * n + 1)
        power = power * square >> w
        n += 1
    return total, total + 4 * n + 3


def log_enclosure(x, prec: int) -> RationalInterval:
    """log x, rounded outward, to about prec bits relative to |log x|.

    x is a positive rational, or a RationalInterval of them (the hull of its
    endpoints' logs).  log 1 is the point 0.
    """
    if isinstance(x, RationalInterval):
        return log_enclosure(x.lo, prec).hull(log_enclosure(x.hi, prec))
    x = as_fraction(x)
    if x <= 0:
        raise ValueError("log of a nonpositive number")
    if x == 1:
        return RationalInterval.point(0)
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()  # y = p/q = x/2^k in (1/2, 2) after the shift
    p, q = (p, q << k) if k >= 0 else (p << -k, q)
    if p * p >= 2 * q * q:
        k, q = k + 1, 2 * q
    elif 2 * p * p < q * q:
        k, p = k - 1, 2 * p
    u, v = abs(p - q), p + q
    # 2^e <= |log x|: (|k| - 1/2) log 2 > (2|k| - 1)/3 for k != 0, and 2 atanh|t| >= 2|t|
    if k:
        third = (2 * abs(k) - 1) // 3
        e = third.bit_length() - 1 if third else -2
    else:
        e = u.bit_length() - v.bit_length()
    # guard bits: the n of each series is about w/3, and k multiplies log 2's error
    w = prec - e + prec.bit_length() + abs(k).bit_length() + 8
    lo, hi = _atanh(u, v, w) if u else (0, 0)
    if p < q:
        lo, hi = -hi, -lo
    if k:
        lo2, hi2 = _atanh(1, 3, w)
        lo, hi = (lo + k * lo2, hi + k * hi2) if k > 0 else (lo + k * hi2, hi + k * lo2)
    return RationalInterval(Fraction(lo, 1 << (w - 1)), Fraction(hi, 1 << (w - 1)))


# ---------------------------------------------------------------------------
# log_sign: the sign of sum e_i log v_i
# ---------------------------------------------------------------------------


def _log_bounds(v, w: int | None) -> tuple[int, int]:
    """lo <= 2^w log v <= hi for an exact v > 0 (int, Fraction or integral Decimal): for w
    None at 2^_BITS from b^(e-1) <= v < b^e alone (radix.magnitude), else from the top
    digits m of v, m b^k <= v < (m + 1) b^k, as log(m + 1) <= log m + 1/m."""
    if type(v) is Fraction:
        (a, b), (c, d) = _log_bounds(v.numerator, w), _log_bounds(v.denominator, w)
        return a - d, b - c
    base, e = (2, v.bit_length()) if type(v) is int else magnitude(v)
    if w is None:
        return (e - 1) * _LOG_BASE[base][0], e * _LOG_BASE[base][1]
    k = max(0, e - (w + 16 if base == 2 else (w + 16) * 3 // 10 + 1))
    m, prec = int(drop_digits(v, k)), w + 8 + k.bit_length()
    iv = log_enclosure(m, prec) + log_enclosure(base, prec) * k
    return math.floor(iv.lo * (1 << w)), math.ceil((iv.hi + (Fraction(1, m) if k else 0)) * (1 << w))


_LOG_BASE = {base: _log_bounds(base, _BITS) for base in (2, 10)}


class Enclosure:
    """A value v >= 0 by nested enclosures at(level) (lo = 0: log v unbounded below), cached
    per level with their log bounds; a bracket `first` (lo, hi) serves step 1 for level 0."""

    __slots__ = ("_at", "_first", "_intervals", "_logs")

    def __init__(self, at: Callable[[int], RationalInterval], first: tuple | None = None):
        self._at, self._first, self._intervals, self._logs = at, first, {}, {}

    def interval(self, level: int) -> RationalInterval:
        if level not in self._intervals:
            self._intervals[level] = self._at(level)
        return self._intervals[level]

    def log_bounds(self, level) -> tuple:
        """_log_bounds of the ends at 2^(_BITS << level), None at an end 0; level None is
        step 1, which reads level 0's once taken."""
        bounds = level is None and self._logs.get(0) or self._logs.get(level)
        if not bounds:
            if level is None:  # the magnitudes of the ends of first, or of level 0
                lo, hi = self._first or (self.interval(0).lo, self.interval(0).hi)
                w, shift = None, 0
            else:  # to no more bits than the interval holds, about log2(hi / width)
                iv, w, shift = self.interval(level), _BITS << level, 0
                lo, hi = iv.lo, iv.hi
                if iv.width:
                    r = hi / iv.width
                    shift = max(0, w - max(_BITS, r.numerator.bit_length() - r.denominator.bit_length() + 16))
                    w -= shift
            bounds = self._logs[level] = (_log_bounds(lo, w)[0] << shift if lo else None,
                                          _log_bounds(hi, w)[1] << shift if hi else None)
        return bounds


def _decided(lower: int, upper: int) -> int | None:
    """The sign that the signs of a lower and an upper bound of a sum decide, or None."""
    return -1 if upper < 0 else 1 if lower > 0 else 0 if lower == upper == 0 else None


def _logs_decide(terms, level) -> int | None:
    """The sign that bounds of sum e log v at 2^(_BITS << level) decide (level None: step 1),
    or None; an end None stands for log 0 = -inf."""
    lower = upper = lower_inf = upper_inf = 0  # bit 1: a term at -inf, bit 2: one at +inf
    for e, v in terms:
        lo, hi = v.log_bounds(level) if type(v) is Enclosure else _log_bounds(v, level if level is None
                                                                                  else _BITS << level)
        lo, hi = (lo, hi) if e > 0 else (hi, lo)
        if lo is None:
            lower_inf |= 1 if e > 0 else 2
        else:
            lower += e * lo
        if hi is None:
            upper_inf |= 1 if e > 0 else 2
        else:
            upper += e * hi
    return _decided(-1 if lower_inf & 1 else 1 if lower_inf else (lower > 0) - (lower < 0),
                    1 if upper_inf & 2 else -1 if upper_inf else (upper > 0) - (upper < 0))


def _products(terms, level, upper: bool) -> int:
    """The sign of a lower (upper) bound of sum e log v, as of prod_(e > 0) v^e -
    prod_(e < 0) v^-e, an enclosure by the end of its interval that bounds that side."""
    sides = ([], [])
    with decimal.localcontext(EXACT):
        for e, v in terms:
            if type(v) is Enclosure:
                v = getattr(v.interval(level), "hi" if (e > 0) == upper else "lo")
            num, den = (v.numerator, v.denominator) if type(v) is Fraction else (v, 1)
            for side, x in zip(sides if e > 0 else sides[::-1], (num, den)):
                if x != 1:
                    side.append(x if abs(e) == 1 else x ** abs(e))
        left, right = (functools.reduce(mul, side) if side else 1 for side in sides)
    if not (left and right):  # an end at 0: log 0 = -inf on the left, +inf from the right
        return (1 if not right else -1) if upper else (-1 if not left else 1)
    return (left > right) - (left < right)


def _two_base_tie(terms) -> bool:
    """Whether sum e log v = 0 for exact v and at most two |e|: the terms of one |e| = E make a
    base prod v^sign(e), and E1 log b1 = E2 log c (c = 1/b2, g = gcd) means b1 = s^(E2/g),
    c = s^(E1/g) for a rational s, found by exact integer roots (no power exceeds its base)."""
    bases: dict[int, Fraction] = {}
    for e, v in terms:
        bases[abs(e)] = bases.get(abs(e), Fraction(1)) * Fraction(v) ** (1 if e > 0 else -1)
    groups = [(E, b) for E, b in bases.items() if b != 1]
    if len(groups) != 2:
        return not groups  # one base b != 1 has E log b != 0
    (E1, b1), (E2, b2) = groups
    g, c = math.gcd(E1, E2), 1 / b2

    def root(x: int, k: int) -> int | None:
        r = iroot_floor(x, k)
        return r if r**k == x else None

    s = [root(b1.numerator, E2 // g), root(b1.denominator, E2 // g)]
    return None not in s and s == [root(c.numerator, E1 // g), root(c.denominator, E1 // g)]


def log_sign(terms, what) -> int:
    """The sign (-1, 0, +1) of sum e_i log v_i over (e_i, v_i) in terms: ints e_i, values v_i > 0
    exact (int, Fraction, integral Decimal) or an Enclosure.  `what` names the query, or is
    a function that names it when an error needs the name.

    1. Fixed-point bounds at 2^-64, exact values by magnitude: no Fraction is formed, and
       most queries end here.
    2. If sum |e_i| <= EXACT_WEIGHT: exact products of both sides, ties included, an
       enclosure by its interval's ends at levels 0, 1, ... under certify.
    3. Else log bounds at w = _BITS << level bits under certify, and exact products once they
       hold at most w^2 bits; from level 1 a tie of two bases is found by integer roots
       (_two_base_tie).  A tie with an enclosure, or of three bases whose products stay
       larger, raises NonTerminating."""
    kept = []
    for e, v in terms:
        if e and (type(v) is Enclosure or v != 1):
            if type(v) is not Enclosure and v <= 0:
                raise ValueError(f"{what if isinstance(what, str) else what()}: log of a nonpositive value")
            kept.append((e, v))
    sign = _logs_decide(kept, None)
    if sign is not None:
        return sign
    what, exact = what if isinstance(what, str) else what(), all(type(v) is not Enclosure for _, v in kept)
    if sum(abs(e) for e, _ in kept) <= EXACT_WEIGHT:
        if exact:  # both bounds are the one comparison of products
            return _products(kept, None, False)
        return certify(what, lambda k: _decided(_products(kept, k, False), _products(kept, k, True)))
    # the bits of the exact products, formed once they cost about what the logs at a level do
    size = sum(abs(e) * sum(magnitude(x)[1] * (1 if type(x) is int else 4)
                            for x in ((v.numerator, v.denominator) if type(v) is Fraction else (v,)))
               for e, v in kept) if exact else 0

    def logs(level):
        sign = _logs_decide(kept, level)
        if sign is None and exact:
            if size <= (_BITS << level) ** 2:
                return _products(kept, None, False)
            if level == 1 and _two_base_tie(kept):  # past level 0 a tie is likely
                return 0
        return sign

    return certify(what, logs)


def power_sign(a, t, c, p: int, q: int, what) -> int:
    """The sign (-1, 0, +1) of a - t c^(p/q) for exact a, t >= 0 and c (int, or integral
    Decimal under radix.EXACT), integers p >= 0 and q >= 1, and c >= 0 or q odd, where
    c^(p/q) = -|c|^(p/q) for c < 0 and odd p; no power is formed.  Signs settle a zero
    threshold (t = 0, or c = 0 < p), a negative one and a <= 0 against a positive one;
    the rest is one log_sign query on +-(q log|a| - q log t - p log|c|)."""
    if c < 0 and q % 2 == 0:
        raise ValueError(f"{what if isinstance(what, str) else what()}: an even root of a negative value")
    if not t or (not c and p):
        return (a > 0) - (a < 0)
    if c < 0 and p % 2:  # a + t |c|^(p/q)
        return 1 if a >= 0 else -log_sign(((q, -a), (-q, t), (-p, -c)), what)
    return -1 if a <= 0 else log_sign(((q, a), (-q, t), (-p, abs(c))), what)


def _rounded(f: Fraction, digits: int) -> tuple[int, int]:
    """(n, e) with 10^(digits-1) <= n < 10^digits and n 10^(e-digits+1) the nearest
    number of `digits` significant digits to f > 0; (0, 0) for f = 0."""
    if not f:
        return 0, 0
    e = (f.numerator.bit_length() - f.denominator.bit_length()) * 3 // 10
    while Fraction(10) ** e > f:
        e -= 1
    while Fraction(10) ** (e + 1) <= f:
        e += 1
    n = round(f / Fraction(10) ** (e - digits + 1))
    return (n // 10, e + 1) if n == 10**digits else (n, e)


def significant_string(iv: RationalInterval, digits: int) -> str | None:
    """The common value of every point of iv (lo >= 0) rounded to `digits`
    significant digits, written as mpmath's nstr(v, digits, strip_zeros=False)
    writes it, or None while the endpoints round apart.

    Rounding to nearest is monotone, so endpoints that round alike decide every
    point between them.  Decimal exponents from -5 to digits - 1 are written in
    fixed notation (`0.000069314...`, `693.14...`), the others as `6.93...e-6`.
    """
    if iv.lo < 0:
        raise ValueError(f"a negative enclosure: {iv}")
    n, e = _rounded(iv.lo, digits)
    if (n, e) != _rounded(iv.hi, digits):
        return None
    if not n:
        return "0.0"
    s = int_to_str(n)
    if min(-(digits // 3), -5) < e < 0:
        return "0." + "0" * (-e - 1) + s
    if 0 <= e < digits:
        return f"{s[:e + 1]}.{s[e + 1:]}"
    return f"{s[0]}.{s[1:]}e{'+' if e > 0 else ''}{int_to_str(e)}"
