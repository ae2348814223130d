"""Exact conversion between integers (and rationals) and decimal text.

This is the only code in mcf that converts numbers to or from decimal
digits.  CPython caps its own int <-> str conversions (4300 digits by
default, 640 at the least: the CVE-2020-10735 guard); mcf never reads or
changes that cap.  The builtin `str`/`int` see only pieces under 640
digits; longer numbers go through the subquadratic divide-and-conquer
conversions of Brent & Zimmermann, *Modern Computer Arithmetic* (2010),
section 1.7, where CPython 3.11's own are quadratic:

- int -> str splits the integer at powers of two and joins the halves as
  `decimal.Decimal`s (`to_decimal`), whose digits are read off in linear
  time; the `convergents` and Liouville commands compute in `Decimal` too.
- str -> int checks the text against `int()`'s grammar, then splits the
  digits in half and joins with hi * 10**k + lo, 10**k = 5**k << k;
  str -> Decimal checks the same grammar and reads the digits in linear time.

The results are exactly `str(v)`, `int(s)`, `str(Fraction)` and
`Fraction(s)` with the cap lifted; malformed text raises InputError, and so
does a rational whose exponent exceeds MAX_EXPONENT in absolute value, for
which `Fraction(s)` would form 10**exp and not return.

`iroot_floor` takes the floor of an n-th root of an int or integral Decimal.

`Record` is the base of mcf's immutable value records (intervals, columns,
specs and reports): plain slotted classes whose repr writes every int through
int_to_str, and which cost an import nothing beyond their own class bodies.
"""

from __future__ import annotations

import decimal
import re
from fractions import Fraction
from operator import attrgetter

from .errors import InputError

_LEAF_BITS = 1024  # ints converted by str(int) or Decimal(int) directly: at most 309 digits
_LEAF_DIGITS = 512  # digit strings converted by int(str) directly
MAX_EXPONENT = 10**5  # |exp| of a rational "...e<exp>": 10**(10**5) takes milliseconds to form


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


def int_to_str(v) -> str:
    """str(v) for an int of any size, or for an integral Decimal of exponent 0."""
    return str(v if isinstance(v, decimal.Decimal) or v.bit_length() <= _LEAF_BITS else to_decimal(v))


def magnitude(v) -> tuple[int, int]:
    """(b, e) with |v| < b**e: 2 and an int's bit length, or 10 and an integral Decimal's digit count."""
    return (10, v.adjusted() + 1) if isinstance(v, decimal.Decimal) else (2, v.bit_length())


def drop_digits(v, k: int):
    """v // b**k for v >= 0 and magnitude's base b, by a shift: linear in the digits."""
    if isinstance(v, decimal.Decimal):
        return EXACT.scaleb(v, -k).to_integral_value(decimal.ROUND_FLOOR)
    return v >> k


def iroot_floor(x, n: int):
    """Largest r >= 0 with r**n <= x, in the type of x, by integer Newton iteration at
    doubling precision (Brent & Zimmermann, section 1.5).

    For b**(e-1) <= x < b**e (magnitude) the root has k = ceil(e/n) base-b digits at
    most.  The root r' of the top digits x // b**(n h) gives the start (r' + 1) b**h, above
    the root.  Newton iterates from above decrease to the floor root, never below it; for
    h = (k - bits(n)) // 2 the first is within 1 of it, so a root costs about one division
    and a few powers of the full size.  When b**e <= 2**n the root is 1.
    """
    if x < 0 or n < 1:
        raise InputError("integer root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    b, e = magnitude(x)
    if e * (b - 1).bit_length() <= n:  # x < b**e <= 2**n
        return type(x)(1)
    B, k = type(x)(b), -(-e // n)
    h = (k - n.bit_length()) // 2
    r = B**k if h <= 0 else (iroot_floor(drop_digits(x, n * h), n) + 1) * B**h
    while True:
        r = ((n - 1) * r + x // r ** (n - 1)) // n
        if r**n <= x:
            return r
        if (r - 1) ** n <= x:
            return r - 1


def frac_to_str(v) -> str:
    """str(v) for a Fraction (or int) of any size: "p/q", or just p when q = 1."""
    num = int_to_str(v.numerator)
    return num if v.denominator == 1 else f"{num}/{int_to_str(v.denominator)}"


def str_to_int(text: str) -> int:
    """int(text) for a string of any length; malformed text raises InputError."""
    s = text.strip()
    if len(s) <= _LEAF_DIGITS:
        try:
            return int(s)
        except ValueError:
            raise InputError(f"malformed integer {quote(text)}") from None
    d = str_to_decimal(text)
    value = _join_digits(str(d.copy_abs()))
    return -value if d.is_signed() else value


def str_to_decimal(text: str) -> decimal.Decimal:
    """Decimal(str_to_int(text)), exponent 0 and never -0, in linear time; the same InputError."""
    # int()'s grammar: an optional sign, then Unicode decimal digits with single
    # underscores between them ("".isdecimal() is False, so no empty part passes)
    s = text.strip()
    parts = (s[1:] if s[:1] in ("+", "-") else s).split("_")
    if not all(part.isdecimal() for part in parts):
        raise InputError(f"malformed integer {quote(text)}")
    d = decimal.Decimal("".join(parts))  # exact: construction never rounds
    return d.copy_negate() if s[:1] == "-" and d else d


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


# Fraction(str)'s grammar (CPython 3.11 fractions._RATIONAL_FORMAT): no space around "/"
_RATIONAL = re.compile(r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)"
                       r"(?:/(?P<den>\d+(_\d+)*)|(?:\.(?P<dec>\d*|\d+(_\d+)*))?"
                       r"(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*", re.IGNORECASE)


def str_to_frac(text: str) -> Fraction:
    """Fraction(text) for a string of any length; malformed text, q = 0 or an
    exponent beyond MAX_EXPONENT in absolute value raises InputError."""
    match = _RATIONAL.fullmatch(text)
    den = str_to_int(match["den"]) if match and match["den"] else 1
    if match is None or den == 0:
        raise InputError(f"malformed rational {quote(text)}; expected 'p/q' with q != 0")
    written = str_to_int(match["exp"] or "0")
    if abs(written) > MAX_EXPONENT:
        raise InputError(f"exponent of rational {quote(text)} exceeds {MAX_EXPONENT} in absolute value")
    dec = (match["dec"] or "").replace("_", "")
    num = str_to_int(match["num"] or "0") * 10 ** len(dec) + str_to_int(dec or "0")
    exp = written - len(dec)  # value = num / den * 10**exp
    num, den = (num * 10**exp, den) if exp >= 0 else (num, den * 10**-exp)
    return Fraction(-num if match["sign"] == "-" else num, den)


# ---------------------------------------------------------------------------
# Value records
# ---------------------------------------------------------------------------


def _repr(v) -> str:
    """repr(v), with each int and Fraction in it, also inside tuples and dicts, written
    through int_to_str."""
    if type(v) is int:
        return int_to_str(v)
    if type(v) is Fraction:
        return f"Fraction({int_to_str(v.numerator)}, {int_to_str(v.denominator)})"
    if type(v) is tuple:
        return f"({_repr(v[0])},)" if len(v) == 1 else f"({', '.join(map(_repr, v))})"
    if type(v) is dict:
        return "{" + ", ".join(f"{_repr(k)}: {_repr(x)}" for k, x in v.items()) + "}"
    return repr(v)


class Record:
    """Base of mcf's immutable value records.

    A subclass names its fields in __slots__ (those of its bases come first)
    and sets them in its own __init__, by object.__setattr__ or _init; any later
    assignment raises AttributeError.  Records compare equal, and hash, by
    class and field values, and repr as Name(field=value, ...) with ints
    written through int_to_str, so a repr never meets the int digit cap.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        # the field values (one field: its value), which equality and the hash compare
        cls._key = staticmethod(attrgetter(*cls._fields))

    def _init(self, *values) -> None:
        """Set the fields, in _fields order, to values."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        # copy and pickle rebuild a record through its own __init__, which takes the fields in order
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
