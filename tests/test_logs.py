"""Certified logarithms in integer arithmetic (mcf.logs) against mpmath as the oracle.

mpmath is a test dependency only.  Each enclosure must contain mpmath's value at
four times its precision, and be no wider than mpmath's own outward-rounded
interval logarithm at the same precision (the enclosure mcf took before
mcf.logs); the 20-digit strings must equal mpmath's `nstr` of a 60-digit value.
`log_sign` must give the sign of the exact product of Fraction powers, and
`power_sign` that of a - t c^(p/q) by exact q-th powers.
"""

import decimal
import itertools
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext

from mcf.convergents import _k_enclosure, eta_field, psi_field
from mcf.errors import NonTerminating
from mcf.intervals import RationalInterval
from mcf.logs import Enclosure, log_enclosure, log_sign, power_sign, significant_string
from mcf.radix import EXACT, to_decimal
from mcf.transcendence import _log_ratio_string, main2_constant


def mpf(v: Fraction):
    return mpmath.mpf(v.numerator) / v.denominator


def contains(iv: RationalInterval, value) -> bool:
    # at the callers' working precision, far beyond the enclosure's width
    lo, hi = (mpf(v) for v in (iv.lo, iv.hi))
    return lo <= value <= hi


def mpmath_enclosure(prec: int, compute) -> RationalInterval:
    """The exact endpoints of the interval compute(iv) returns, iv a fresh mpmath
    interval context at prec bits: how mcf enclosed its logarithms before mcf.logs."""
    def to_frac(raw) -> Fraction:
        sign, man, exp, _ = raw  # a libmp tuple (sign, mantissa, exponent, bitcount)
        mag = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
        return -mag if sign else mag

    ctx = MPIntervalContext()
    ctx.prec = prec
    lo, hi = compute(ctx)._mpi_
    return RationalInterval(to_frac(lo), to_frac(hi))


BITS = 4000
positive_rationals = st.one_of(
    st.integers(-BITS, BITS).map(lambda k: Fraction(2) ** k),  # powers of two
    st.builds(lambda k, s: 1 + s * Fraction(1, 2**k), st.integers(1, BITS), st.sampled_from([1, -1])),
    st.integers(1 << (BITS - 1), (1 << BITS) - 1).map(Fraction),  # 4000-bit integers
    st.builds(Fraction, st.integers(1, 1 << BITS), st.integers(1, 1 << BITS)),
    st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000)),
)


@settings(max_examples=300, deadline=None)
@given(positive_rationals, st.integers(8, 600))
@example(Fraction(1), 64)
@example(Fraction(2), 64)
@example(Fraction(1, 2), 64)
@example(Fraction(3, 2), 8)
def test_log_enclosure_contains_log_and_is_no_wider_than_mpmaths(x, prec):
    iv = log_enclosure(x, prec)
    with mpmath.workprec(4 * prec + x.numerator.bit_length() + x.denominator.bit_length()):
        assert contains(iv, mpmath.log(mpf(x)))
    assert iv.width <= mpmath_enclosure(prec, lambda iv: iv.log(iv.mpf(x.numerator) / x.denominator)).width
    if x == 1:
        assert iv == RationalInterval.point(0)


@settings(max_examples=100, deadline=None)
@given(positive_rationals, positive_rationals, st.integers(8, 300))
def test_log_of_an_enclosure_is_the_hull_of_its_endpoints_logs(x, y, prec):
    lo, hi = min(x, y), max(x, y)
    iv = log_enclosure(RationalInterval(lo, hi), prec)
    assert iv == log_enclosure(lo, prec).hull(log_enclosure(hi, prec))


def test_small_logs_keep_their_relative_precision():
    # log(1 + 1/d) ~ 1/d: the width follows the value, not an absolute number of bits
    for d in (10, 10**6, 2**1000):
        iv = log_enclosure(Fraction(d + 1, d), 64)
        assert 0 < iv.lo and iv.width < iv.lo / 2**64
        assert iv.width <= mpmath_enclosure(64, lambda ctx: ctx.log(ctx.mpf(d + 1) / d)).width


@pytest.mark.parametrize("x", [0, -1, Fraction(-1, 3)])
def test_log_enclosure_refuses_nonpositive_numbers(x):
    with pytest.raises(ValueError):
        log_enclosure(x, 64)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.integers(1, 6), st.sampled_from([64, 128, 256]))
def test_k_enclosure_contains_k(d, m, prec):
    iv = _k_enclosure(d, m, prec)
    with mpmath.workprec(4 * prec):
        assert contains(iv, mpmath.log(d + 1) + mpmath.log(mpmath.mpf(d + 1) / d)
                        + mpmath.log(mpmath.log(m + 1)))
    before = mpmath_enclosure(
        prec, lambda iv: iv.log(d + 1) + iv.log(iv.mpf(d + 1) / d) + iv.log(iv.log(m + 1)))
    assert iv.width <= before.width


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(2, 1000), st.integers(2, 1 << BITS)), st.sampled_from([128, 256, 512]))
def test_loglog_interval_contains_loglog(c, prec):
    iv = log_enclosure(log_enclosure(c, prec), prec)
    with mpmath.workprec(4 * prec + c.bit_length()):
        assert contains(iv, mpmath.log(mpmath.log(c)))


def true_root(field) -> mpmath.mpf:
    """The field's root by mpmath's Newton iteration from a tight certified bracket."""
    bracket = field.refine_root(Fraction(1, 1 << 64))
    coeffs = [mpmath.mpf(c) for c in reversed(field.min_poly)]
    return mpmath.findroot(lambda x: mpmath.polyval(coeffs, x), mpf(bracket.midpoint()))


@pytest.mark.parametrize("variant", ["statement", "lemma38", "proof18"])
@pytest.mark.parametrize("M", [1, 2, 7, 50])
def test_main2_constant_contains_b(M, variant):
    with mpmath.workdps(80):
        eta = true_root(eta_field(M))
        psi = true_root(eta_field(1) if variant == "statement" else psi_field())
        factor = 18 if variant == "proof18" else 2
        assert contains(main2_constant(M, variant), factor * mpmath.log(eta) / mpmath.log(psi) - 1)


def mpmath_ratio_string(lam: int, n: int) -> str:
    with mpmath.workdps(60 + len(str(n))):
        return mpmath.nstr(mpmath.log(lam) / n, 20, strip_zeros=False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(1, 1000), st.integers(1, 1 << BITS)), st.integers(1, 10**15))
@example(1, 1)
@example(1, 7)
@example(2, 10**4)  # 0.000069314718055994530942: fixed notation down to exponent -5
@example(2, 10**5)  # 6.9314718055994530942e-6: scientific from exponent -6
@example(2, 10**6)
@example(3, 1)
@example((1 << BITS) - 1, 1)
def test_log_ratio_string_is_mpmaths_correctly_rounded_string(lam, n):
    assert _log_ratio_string(lam, n) == mpmath_ratio_string(lam, n)


def test_log_ratio_string_pins_the_notation_boundary():
    assert _log_ratio_string(1, 3) == "0.0"
    assert _log_ratio_string(2, 10**4) == "0.000069314718055994530942"
    assert _log_ratio_string(2, 10**5) == "6.9314718055994530942e-6"
    assert _log_ratio_string(2, 10**6) == "6.9314718055994530942e-7"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**40), st.integers(0, 60), st.integers(-60, 0),
       st.integers(1, 10**6).map(lambda k: 10 * k + 3))
def test_significant_string_writes_what_mpmaths_nstr_writes(num, up, down, den):
    # den is coprime to 10 and above 1, so no value is a tie between two 20-digit numbers
    value = Fraction(num * 10**up, den * 10**-down)
    with mpmath.workdps(80):
        expected = mpmath.nstr(mpf(value), 20, strip_zeros=False)
    assert significant_string(RationalInterval.point(value), 20) == expected


def test_significant_string_waits_while_the_endpoints_round_apart():
    third = Fraction(1, 3)
    assert significant_string(RationalInterval(third - Fraction(1, 10**30), third), 20) is not None
    assert significant_string(RationalInterval(third - Fraction(1, 10**15), third), 20) is None
    # 9.99...996 rounds up into the next decade, to 10.000000000000000000
    nines = Fraction(10) - Fraction(4, 10**20)
    rounded_up = significant_string(RationalInterval(nines, nines + Fraction(1, 10**25)), 20)
    assert rounded_up == "10.000000000000000000"
    with pytest.raises(ValueError):
        significant_string(RationalInterval(-1, 1), 20)


# ---------------------------------------------------------------------------
# log_sign against exact Fraction powers
# ---------------------------------------------------------------------------


def exact_sign(terms) -> int:
    """The sign of sum e log v from prod v^e against 1, in Fractions."""
    product = Fraction(1)
    for e, v in terms:
        product *= Fraction(v) ** e
    return (product > 1) - (product < 1)


def shrinking(v: Fraction) -> Enclosure:
    """Enclosures [v - r, v + r] of v, r = 2^-(2 << k) (an algebraic value's bits double per
    level too), cut at 0: level 0 of a v below 1/4 has lo = 0."""
    return Enclosure(lambda k: RationalInterval(max(Fraction(0), v - Fraction(1, 1 << (2 << k))),
                                                v + Fraction(1, 1 << (2 << k))))


positive = st.integers(1, 40)
exact_values = st.one_of(positive, st.fractions(min_value=Fraction(1, 40), max_value=40,
                                                max_denominator=40).filter(bool),
                         positive.map(decimal.Decimal), st.integers(1, 1 << 200))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.integers(-7, 7), exact_values), max_size=4))
def test_log_sign_of_exact_values_is_the_sign_of_the_exact_product(terms):
    # ints, Fractions and exact Decimals, ties included: prod v^e = 1 gives 0
    with decimal.localcontext(EXACT):
        assert log_sign(terms, "differential") == exact_sign(terms)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-7, 7), exact_values), max_size=3),
       st.lists(st.tuples(st.integers(-7, 7).filter(bool),
                          st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50)
                          .filter(bool)), min_size=1, max_size=2))
def test_log_sign_with_enclosures_is_the_sign_of_the_exact_product(terms, enclosed):
    # an enclosed value only tightens toward it, so a tie can never be decided: none is drawn
    sign = exact_sign(terms + enclosed)
    assume(sign != 0)
    queries = terms + [(e, shrinking(v)) for e, v in enclosed]
    with decimal.localcontext(EXACT):
        assert log_sign(queries, "differential") == sign


def test_log_sign_reads_an_enclosure_at_zero_as_minus_infinity(monkeypatch):
    # x = c enclosed by [0, 2^-(2^k)]: no level bounds log |x - c| from below, and the
    # upper ends decide once 2^(2^k) passes 10^30
    zero = Enclosure(lambda k: RationalInterval(0, Fraction(1, 2 ** (2**k))))
    assert log_sign(((1, zero), (5, 10**6)), "exact zero") == -1
    assert log_sign(((-1, zero), (-5, 10**6)), "exact zero") == 1
    assert log_sign(((3, Enclosure(lambda k: RationalInterval.point(0))),), "a point at 0") == -1
    with pytest.raises(ValueError, match="nonpositive"):
        log_sign(((1, 0),), "an exact 0")
    # -inf on both sides decides nothing, at any level
    monkeypatch.setenv("MCF_PRECISION_BUDGET", "4")
    for point in (zero, Enclosure(lambda k: RationalInterval.point(0))):
        with pytest.raises(NonTerminating, match="^zero against zero not certified at levels 0..3$"):
            log_sign(((1, zero), (-1, point)), "zero against zero")


@pytest.mark.parametrize("terms, sign", [
    (((1, 10**100), (-10**9, 3)), -1),  # 10^100 < 3^(10^9)
    (((4_000_000, 2), (-10**6, 3)), 1),  # 2^4000000 > 3^(10^6)
    (((10**9, 7), (-10**9, 5), (-(10**9 + 1), 3)), -1),  # 7^q < 5^q 3^(q+1)
    (((2, 512), (-9, 4)), 0),  # 512^2 = 4^9: a two-base tie, by integer roots
    (((10**9, 8), (-3 * 10**9, 2)), 0),  # 8^q = 2^(3q)
    (((10**9 + 1, 4), (-(2 * 10**9 + 2), 2)), 0),
    (((10**9, 4), (-(2 * 10**9 + 1), 2)), -1),
])
def test_log_sign_forms_no_power_of_a_huge_exponent(terms, sign):
    start = time.perf_counter()
    assert log_sign(terms, "huge exponents") == sign
    assert time.perf_counter() - start < 1


def exact_power_sign(a: int, t: int, c: int, p: int, q: int) -> int:
    """The sign of a - t c^(p/q) (c >= 0 or q odd), by q-th powers: x -> x^q increases on
    the reals for odd q and on x >= 0 for even q, where t c^(p/q) >= 0 lies."""
    if q % 2 == 0 and a < 0:
        return -1
    diff = a**q - t**q * c**p  # (t c^(p/q))^q = t^q c^p, a real odd root included
    return (diff > 0) - (diff < 0)


@settings(max_examples=400, deadline=None)
@given(st.integers(-(1 << 40), 1 << 40), st.integers(0, 1 << 20), st.integers(-(1 << 12), 1 << 12),
       st.integers(0, 7), st.integers(1, 6), st.booleans(), st.integers(-2, 2), st.booleans())
@example(5, 0, 7, 3, 2, False, 0, False)  # t = 0
@example(-5, 3, 0, 3, 2, False, 0, False)  # c = 0 < p
@example(-5, 3, 0, 0, 2, False, 0, False)  # p = 0: c^0 = 1
@example(0, 3, -2, 1, 3, True, 0, True)  # c = -8, odd q and p: a tie at a = 3 (-2)
@example(-1 << 40, 1, -7, 5, 1, False, 0, False)
def test_power_sign_matches_exact_powers(a, t, r, p, q, root, nudge, in_decimals):
    # with root, c = r^q makes t c^(p/q) the integer t r^p (|r| for even q), and a within 2 of
    # it a tie or its neighbour, which no bound on the logarithms can decide
    c = r**q if root else r if q % 2 else abs(r)
    if root:
        a = t * (r if q % 2 else abs(r)) ** p + nudge
    sign = exact_power_sign(a, t, c, p, q)
    assert power_sign(a, t, c, p, q, "a against t c^(p/q)") == sign
    if in_decimals:  # the Liouville checker's integral Decimals
        with decimal.localcontext(EXACT):
            assert power_sign(*map(to_decimal, (a, t, c)), p, q, "in Decimals") == sign


@pytest.mark.parametrize("q", [10**9, 10**9 + 1])
def test_power_sign_forms_no_power(q):
    # at q = 10^9 + 1, a**q alone would hold about a gigabit.  |c|^(p/q) is 1 at |c| = 1 and
    # in (1, 1 + 10^-5) for 2 <= |c| <= 2^4096, so t c^(p/q) lies just past s t, s = sign(c^p)
    # (a negative c only for odd q): signs settle t = 0, c = 0 and a <= 0 < t c^(p/q), and
    # the rest is one comparison of logarithms
    start = time.perf_counter()
    for a, t, p in itertools.product(range(-9, 10), range(4), (1, 3)):
        assert power_sign(a, t, 0, p, q, "c = 0") == (a > 0) - (a < 0)
        for c in (1, 2, 9, 1 << 4096, -1, -2, -(1 << 4096)):
            if c < 0 and q % 2 == 0:
                with pytest.raises(ValueError, match="^even root: an even root of a negative value$"):
                    power_sign(a, t, c, p, q, "even root")
                continue
            base = t if c > 0 else -t
            past = a > base if c > 0 else a >= base
            sign = (a > base) - (a < base) if t == 0 or abs(c) == 1 else 1 if past else -1
            assert power_sign(a, t, c, p, q, "a against t c^(p/q)") == sign, (a, t, c, p)
    assert time.perf_counter() - start < 1
