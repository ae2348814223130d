"""Exact conversion between ints and decimal digit strings.

CPython 3.11 converts int <-> str in time quadratic in the number of digits,
which dominates reading and writing the multi-Mbit quotients of the
Liouville-type constructions.  Above CUTOFF_BITS both directions switch to
the divide-and-conquer radix conversions of Brent & Zimmermann, *Modern
Computer Arithmetic* (2010), section 1.7:

- int -> str splits the integer at a power of two and joins the halves as
  `decimal.Decimal`s, whose C multiplication is subquadratic; the digits of
  the result are then read off in linear time.  `to_decimal` is that split
  on its own: a caller that computes in `Decimal` under EXACT (`mcf
  convergents`) never builds the big ints and prints with `str()`.
- str -> int splits the digit string in half and joins with
  hi * 10**k + lo, where 10**k = 5**k << k (Karatsuba multiplication).

Below the cutoff, and for strings that are not plain ASCII `[+-]?[0-9]+`,
the builtin `str`/`int` are used, so output and accepted syntax are exactly
theirs.
"""

from __future__ import annotations

import decimal

from .errors import InputError, unlimited_int_digits

CUTOFF_BITS = 1 << 15  # both directions break even between 24 and 32 kbit on CPython 3.11
_CUTOFF_DIGITS = CUTOFF_BITS * 30103 // 100000  # decimal digits in CUTOFF_BITS bits
_LEAF_BITS = 1024  # encode pieces converted by Decimal(int) directly
_LEAF_DIGITS = 512  # decode pieces converted by int(str) directly


def quote(text: str) -> str:
    """repr of text cut to 40 characters, so a million-digit value is not echoed."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


# Exact decimal arithmetic on integers: any rounding raises instead of happening.
EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                        traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


def to_decimal(v: int) -> decimal.Decimal:
    """Decimal(v), exponent 0, subquadratic above the leaf size; the result does not
    depend on the caller's decimal context."""
    D = decimal.Decimal
    n = abs(v)
    if n.bit_length() <= _LEAF_BITS:
        return D(v)
    powers = {}

    def pow2(w: int):
        p = powers.get(w)
        if p is None:
            if w <= _LEAF_BITS:
                p = D(1 << w)
            else:
                p = EXACT.multiply(pow2(w >> 1), pow2(w - (w >> 1)))
            powers[w] = p
        return p

    def convert(x: int, w: int):
        """Decimal(x) for 0 <= x < 2**w."""
        if w <= _LEAF_BITS:
            return D(x)
        low = w >> 1
        hi = x >> low
        return EXACT.add(EXACT.multiply(convert(hi, w - low), pow2(low)), convert(x - (hi << low), low))

    d = convert(n, n.bit_length())
    return d.copy_negate() if v < 0 else d


@unlimited_int_digits
def int_to_str(v: int) -> str:
    """str(v) for an int, subquadratic above CUTOFF_BITS."""
    return str(v) if v.bit_length() <= CUTOFF_BITS else str(to_decimal(v))


@unlimited_int_digits
def str_to_int(text: str) -> int:
    """int(text), subquadratic for long plain digit strings; malformed text raises InputError."""
    s = text.strip()
    if len(s) > _CUTOFF_DIGITS:
        body = s[1:] if s[0] in "+-" else s
        if body.isascii() and body.isdigit():
            value = _join_digits(body)
            return -value if s[0] == "-" else value
    try:
        return int(s)
    except ValueError:
        raise InputError(f"malformed integer {quote(text)}") from None


def _join_digits(s: str) -> int:
    powers = {}

    def pow10(k: int) -> int:
        p = powers.get(k)
        if p is None:
            p = powers[k] = 5**k << k
        return p

    def convert(a: int, b: int) -> int:
        """int(s[a:b])."""
        if b - a <= _LEAF_DIGITS:
            return int(s[a:b])
        mid = (a + b + 1) >> 1
        return convert(a, mid) * pow10(b - mid) + convert(mid, b)

    return convert(0, len(s))
