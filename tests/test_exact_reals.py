"""Exact reals: floors, field arithmetic, intervals, oracles."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from references import floor_exact, is_integer

import mcf
from mcf import (
    AlgebraicValue,
    InputError,
    NonTerminating,
    NumberField,
    OracleExhausted,
    RationalInterval,
    UndecidableForOracle,
)
from mcf.exact_reals import (
    DecimalOracle,
    FunctionOracle,
    OracleValue,
    RationalValue,
)
from mcf.errors import DivisionByZero, FieldMismatch


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
        field.zero().inverse()


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


def test_refinement_budget_is_read_only_in_exact_reals():
    # every other module refines through exact_reals.certify / budget_levels
    src = Path(mcf.__file__).parent
    readers = {p.name for p in src.glob("*.py") if "refinement_budget(" in p.read_text()}
    assert readers == {"exact_reals.py"}


def test_real_value_wrappers():
    assert RationalValue(Fraction(1, 2)).kind == "rational"
    field = cbrt2_field()
    assert AlgebraicValue(field.gen()).kind == "algebraic"
    assert OracleValue(DecimalOracle("3.0")).kind == "oracle"
