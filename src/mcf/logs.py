"""Certified logarithms in integer arithmetic.

A positive rational x is written 2^k y with y in [1/sqrt 2, sqrt 2), and
log x = 2 k atanh(1/3) + 2 atanh(t), t = (y - 1)/(y + 1), so |t| < 0.172.
Each series atanh t = sum t^(2j+1)/(2j+1) is summed in fixed point, every
step rounded down, and the rounding and the tail are bounded explicitly
(`_atanh`).  No floating point is involved; log is increasing, so the log
of an enclosure is the hull of its endpoints' logs.
"""

from __future__ import annotations

from fractions import Fraction

from .intervals import RationalInterval, as_fraction
from .radix import int_to_str


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
