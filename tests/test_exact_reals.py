"""Exact reals: floors, field arithmetic, intervals, oracles."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import (
    FunctionOracle,
    UndecidableForOracle,
    floor_exact,
    is_integer,
    simplest_in_interval,
    zero,
)

import mcf
from mcf import (
    AlgebraicValue,
    InputError,
    NonTerminating,
    NumberField,
    OracleExhausted,
    RationalInterval,
)
from mcf.exact_reals import (
    DecimalOracle,
    OracleValue,
    RationalValue,
)
from mcf import polynomials as pol
from mcf.convergents import limit_values
from mcf.errors import DivisionByZero, FieldMismatch
from mcf.recurrence import PartialQuotients


def cbrt2_field() -> NumberField:
    return NumberField([-2, 0, 0, 1], RationalInterval(1, 2))


def test_floor_rational():
    assert floor_exact(Fraction(7, 3)) == 2
    assert floor_exact(Fraction(-7, 3)) == -3
    assert floor_exact(5) == 5


def test_floor_algebraic_cbrt2():
    field = cbrt2_field()
    theta = field.gen()
    assert theta.floor() == 1
    assert (theta * theta).floor() == 1
    assert (theta + 3).floor() == 4
    assert (-theta).floor() == -2


def test_field_arith_examples():
    field = cbrt2_field()
    theta = field.gen()
    inv = theta.inverse()
    assert inv.coords == (Fraction(0), Fraction(0), Fraction(1, 2))  # theta^2 / 2
    assert (theta * (theta * theta)).coords == (Fraction(2), 0, 0)
    x = field.element([Fraction(3, 7), Fraction(-1, 2), Fraction(5)])
    assert (x - x).is_zero()


def test_field_ring_axioms_random():
    rng = random.Random(7)
    field = NumberField([-2, -1, 0, 0, 1], RationalInterval(1, 2))  # x^4 - x - 2
    def rand_el():
        return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)])
    for _ in range(60):
        x, y, z = rand_el(), rand_el(), rand_el()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_field_inverse_random():
    rng = random.Random(11)
    field = cbrt2_field()
    one = field.one()
    count = 0
    while count < 100:
        x = field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)])
        if x.is_zero():
            continue
        count += 1
        assert x.inverse() * x == one
    with pytest.raises(DivisionByZero):
        zero(field).inverse()


def test_field_mismatch():
    f1 = cbrt2_field()
    f2 = NumberField([-3, 0, 0, 1], RationalInterval(1, 2))
    with pytest.raises(FieldMismatch):
        f1.gen() + f2.gen()


def test_element_interval_examples():
    field = cbrt2_field()
    const = field.element([Fraction(5, 2)])
    iv = const.interval(Fraction(1, 10**6))
    assert iv.lo == iv.hi == Fraction(5, 2)

    theta = field.gen()
    iv = theta.interval(Fraction(1, 1000))
    assert iv.width <= Fraction(1, 1000)
    # bisection oracle reference: 1.259921 to 6 places
    ref = Fraction(1259921, 1000000)
    assert iv.lo <= ref + Fraction(1, 1000000) and ref - Fraction(1, 1000000) <= iv.hi

    shifted = (theta + 1).interval(Fraction(1, 1000))
    assert shifted.lo >= iv.lo + 1 - Fraction(1, 1000)
    assert shifted.hi <= iv.hi + 1 + Fraction(1, 1000)


def test_floor_against_interval_cross_check():
    rng = random.Random(23)
    field = cbrt2_field()
    for _ in range(100):
        el = field.element([Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3)])
        iv = el.interval(Fraction(1, 10**30))
        certified = iv.floor_certified()
        if certified is not None:
            assert el.floor() == certified


def test_is_integer():
    assert is_integer(Fraction(6, 3)) is True
    assert is_integer(Fraction(7, 3)) is False
    field = cbrt2_field()
    assert is_integer(AlgebraicValue(field.gen())) is False
    assert is_integer(AlgebraicValue(field.element([4, 0, 0]))) is True
    assert is_integer(AlgebraicValue(field.element([Fraction(1, 2)]))) is False
    with pytest.raises(UndecidableForOracle):
        is_integer(OracleValue(DecimalOracle("1.5")))


def test_number_field_validation():
    with pytest.raises(InputError):
        NumberField([-2, 0, 0, 1], RationalInterval(2, 3))  # no root inside
    with pytest.raises(InputError):
        NumberField([2, 0, 0, 1], RationalInterval(1, 2))   # root is negative
    with pytest.raises(InputError):
        NumberField([0, 0, 1], RationalInterval(-1, 1))     # x^2: not squarefree
    with pytest.raises(InputError, match="squarefree"):  # (x - 1)^2 (x^2 - 2), one root in (5/4, 2)
        NumberField([-2, 4, -1, -2, 1], RationalInterval(Fraction(5, 4), 2))
    with pytest.raises(InputError):
        NumberField([-4, 0, 1], RationalInterval(-3, 3))    # two roots inside
    with pytest.raises(InputError):
        NumberField([-2, 1], RationalInterval(1, 3))        # degree 1


def test_rational_root_field_is_exact():
    # squarefree but reducible: (x - 1)(x^2 - 2); isolate the rational root 1
    field = NumberField([2, -2, -1, 1], RationalInterval(Fraction(1, 2), Fraction(5, 4)))
    el = field.element([1, 2, 0])  # 1 + 2 theta = 3 exactly once theta = 1 is pinned
    assert el.floor() == 3
    assert is_integer(AlgebraicValue(el))



def _fibonacci_ratio(n: int) -> Fraction:
    a, b = 0, 1  # F_0, F_1
    for _ in range(n):
        a, b = b, a + b
    return Fraction(a, b)  # F_n / F_(n+1)


def _times_x2_minus_2(r: Fraction) -> list[int]:
    """(b x - a)(x^2 - 2) for r = a/b, constant term first."""
    a, b = r.numerator, r.denominator
    return [2 * a, -2 * b, -a, b]


def test_rational_root_with_a_long_continued_fraction():
    # F_2000/F_2001 has about 2000 partial quotients, so a search by the continued
    # fraction of its bracket would recurse about 2000 times; the lattice test does not
    r = _fibonacci_ratio(2000)
    field = NumberField(_times_x2_minus_2(r), RationalInterval(Fraction(1, 2), Fraction(7, 10)))
    assert field.exact_root() == r
    assert field.root_interval().lo <= r <= field.root_interval().hi


def test_irrational_root_beside_a_large_rational_factor():
    r = _fibonacci_ratio(2000)
    field = NumberField(_times_x2_minus_2(r), RationalInterval(Fraction(13, 10), Fraction(3, 2)))
    assert field.exact_root() is None
    bracket = field.root_interval()
    assert bracket.lo**2 < 2 < bracket.hi**2


@settings(max_examples=150, deadline=None)
@given(st.integers(-40, 40), st.integers(1, 40), st.integers(1, 9), st.integers(-30, 30),
       st.integers(-30, 30))
def test_exact_root_agrees_with_the_simplest_fraction(a, b, e, c, d):
    # (b x - a)(e x^2 + c x + d): the lattice test against the simplest fraction of the
    # same refined bracket, which a rational root must be
    p = pol.primitive_part(pol.poly_mul((-a, b), (d, c, e)))
    if pol.degree(pol.sturm_chain(p)[-1]) > 0:  # not squarefree
        return
    for iv in pol.isolate_real_roots(p):
        field = NumberField(p, iv)
        bracket = field.root_interval()
        cand = simplest_in_interval(bracket.lo, bracket.hi)
        assert field.exact_root() == (cand if pol.poly_eval(p, cand) == 0 else None)
        if iv.lo < Fraction(a, b) < iv.hi:
            assert field.exact_root() == Fraction(a, b)


@pytest.mark.parametrize("p, sqfree", [
    ((-9, 15, -7, 1), (3, -4, 1)),           # (x - 3)^2 (x - 1)
    ((-8, 12, -6, 1), (-2, 1)),              # (x - 2)^3
    ((4, 4, -4, -4, 1, 1), (-2, -2, 1, 1)),  # (x^2 - 2)^2 (x + 1)
])
def test_isolate_real_roots_brackets_each_distinct_root_once(p, sqfree):
    # sqfree, p's squarefree part by hand, has only simple real roots, deg(sqfree) of them:
    # that many disjoint brackets, each with a sign change of sqfree, hold one root each
    assert pol.poly_divmod(p, sqfree)[1] == ()
    brackets = pol.isolate_real_roots(p)
    assert len(brackets) == len(sqfree) - 1
    assert all(a.hi <= b.lo for a, b in zip(brackets, brackets[1:]))
    assert all(pol.poly_eval(sqfree, iv.lo) * pol.poly_eval(sqfree, iv.hi) < 0 for iv in brackets)


def test_decimal_oracle():
    orc = DecimalOracle("1.2599")
    iv = orc.enclosure(0)
    assert Fraction(12599, 10000) - Fraction(1, 10000) == iv.lo
    assert iv.hi - iv.lo == Fraction(2, 10000)
    with pytest.raises(OracleExhausted):
        orc.enclosure(1)
    assert floor_exact(OracleValue(DecimalOracle("2.75"))) == 2
    assert floor_exact(OracleValue(DecimalOracle("-0.5"))) == -1
    with pytest.raises(InputError):
        DecimalOracle("1.2.3")


def test_oracle_nesting_enforced():
    calls = []

    def drifting(level):
        calls.append(level)
        return RationalInterval(Fraction(level), Fraction(level) + 1)

    orc = FunctionOracle(drifting)
    orc.enclosure(0)
    with pytest.raises(InputError):
        orc.enclosure(1)


@pytest.mark.parametrize("order", [(1, 0), (0, 2, 1), (2, 1, 0)])
def test_oracle_nesting_is_checked_by_level_in_any_pull_order(order):
    # level 1 leaves level 0, and level 2 lies inside both: whatever the order, every pull
    # but the last is sound, and the last meets the bad pair (0, 1) as nearest levels
    ivs = {0: (0, 2), 1: (1, 3), 2: (1, Fraction(3, 2))}
    orc = FunctionOracle(lambda level: RationalInterval(*ivs[level]))
    for level in order[:-1]:
        orc.enclosure(level)
    with pytest.raises(InputError, match="not nested"):
        orc.enclosure(order[-1])


@pytest.mark.parametrize("order", [(4, 0), (0, 4)])
def test_limit_value_oracle_pulls_coarser_after_finer(order):
    # a sound oracle asked for level 0 after level 4: level 0 must contain level 4
    pq = PartialQuotients(2, ((0, 3, 2, 5, 1, 4, 2, 3, 6, 2), (0, 1, 0, 2, 0, 1, 1, 2, 3, 1)))
    orc = limit_values(pq)[0].oracle
    ivs = {level: orc.enclosure(level) for level in order}
    assert ivs[0].contains_interval(ivs[4]) and ivs[4].width < ivs[0].width


def test_oracle_nesting_holds_for_shrinking():
    def halving(level):
        w = Fraction(1, 2**level)
        return RationalInterval(Fraction(3, 2) - w, Fraction(3, 2) + w)

    orc = FunctionOracle(halving)
    prev = orc.enclosure(0)
    for level in range(1, 6):
        cur = orc.enclosure(level)
        assert prev.contains_interval(cur)
        prev = cur
    assert floor_exact(OracleValue(orc)) == 1


def test_budget_env_override(monkeypatch):
    def barely_shrinking(level):
        return RationalInterval(Fraction(1), Fraction(2) + Fraction(1, level + 1))

    monkeypatch.setenv("MCF_PRECISION_BUDGET", "3")
    with pytest.raises(NonTerminating):
        floor_exact(OracleValue(FunctionOracle(barely_shrinking)))
    monkeypatch.setenv("MCF_PRECISION_BUDGET", "zero")
    with pytest.raises(InputError):
        floor_exact(OracleValue(FunctionOracle(barely_shrinking)))


def test_field_element_queries_try_at_most_the_budget(monkeypatch):
    theta = cbrt2_field().gen()
    close, big = theta - Fraction(63, 50), 10**6 * theta * theta  # 2^(1/3) < 1.26
    monkeypatch.setenv("MCF_PRECISION_BUDGET", "1")  # the cached root interval only
    with pytest.raises(NonTerminating, match=r"not certified at levels 0\.\.0$"):
        close.sign()
    with pytest.raises(NonTerminating, match=r"not certified at levels 0\.\.0$"):
        big.interval(Fraction(1, 10**40))
    monkeypatch.setenv("MCF_PRECISION_BUDGET", "2")
    assert close.sign() == -1
    monkeypatch.delenv("MCF_PRECISION_BUDGET")
    assert big.interval(Fraction(1, 10**40)).width <= Fraction(1, 10**40)


def test_root_refinement_to_a_nonpositive_width_is_refused():
    for width in (0, Fraction(-1, 1000)):
        with pytest.raises(ValueError, match="positive width"):
            cbrt2_field().refine_root(width)


def test_field_element_enclosures_of_large_coordinates_fit_the_budget(monkeypatch):
    # 2^300 theta needs ~300 root bits past the target: 4, 8, 16, ... more bits per
    # level reach them at level 8, where 4 bits per level ran out of all 64 levels
    monkeypatch.setenv("MCF_PRECISION_BUDGET", "9")
    iv = cbrt2_field().element([0, 2**300]).interval(Fraction(1, 2**10))
    assert iv.width <= Fraction(1, 2**10)
    assert 0 < iv.lo and iv.lo**3 < 2**901 < iv.hi**3


def test_refinement_budget_is_read_only_in_intervals():
    # every other module refines through intervals.certify / budget_levels
    src = Path(mcf.__file__).parent
    readers = {p.name for p in src.glob("*.py") if "refinement_budget(" in p.read_text()}
    assert readers == {"intervals.py"}


def test_real_value_wrappers():
    assert RationalValue(Fraction(1, 2)).value == Fraction(1, 2)
    field = cbrt2_field()
    assert AlgebraicValue(field.gen()).element == field.gen()
    oracle = DecimalOracle("3.0")
    assert OracleValue(oracle).oracle is oracle
