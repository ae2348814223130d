"""The decimal wire conversion: exactly str()/int(), on both sides of the builtin leaf sizes;
and radix.Record, the base of the value records."""

import copy
import decimal
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import int_digit_cap

from mcf import InputError, RationalInterval
from mcf.radix import int_to_str, str_to_decimal, str_to_int, to_decimal
from mcf.recurrence import CheckItem, Column, PartialQuotients, QuotientRows
from mcf.serialization import parse_int

BIG_BITS = 1 << 15  # the size scale of the drawn integers
BIG_DIGITS = BIG_BITS * 30103 // 100000  # decimal digits of 2**BIG_BITS, less one


def _plain(v: int) -> str:
    with int_digit_cap(0):
        return str(v)


@st.composite
def wire_ints(draw):
    """Random, power-of-2 and power-of-10 integers and their neighbours, both signs, up to 4 * BIG_BITS bits."""
    bits = draw(st.integers(0, 4 * BIG_BITS))
    kind = draw(st.sampled_from(["random", "pow2", "pow10"]))
    if kind == "random":
        v = draw(st.randoms(use_true_random=False)).getrandbits(bits)
    elif kind == "pow2":
        v = 1 << bits
    else:
        v = 10 ** (bits * 30103 // 100000)
    v += draw(st.sampled_from([-1, 0, 1]))
    return draw(st.sampled_from([1, -1])) * v


@settings(max_examples=60, deadline=None)
@given(wire_ints())
@example(0)
@example((1 << BIG_BITS) - 1)
@example(1 << BIG_BITS)
@example(-(1 << BIG_BITS) - 1)
@example(10**BIG_DIGITS)
@example(-(10 ** (BIG_DIGITS + 1)) + 1)
@example((1 << 1024) - 1)  # 1024 bits: the largest int str() converts whole
@example(-(1 << 1024))  # 1025 bits
@example(10**639)  # 640 digits: the smallest digit cap
@example(-(10**640) + 1)
@example(10**4299)  # 4300 digits: the default digit cap
@example(10**4300 - 1)
def test_int_str_is_str_and_parse_int_inverts_it(v):
    with int_digit_cap(640):
        text = int_to_str(v)
        back = parse_int(text)
    assert text == _plain(v)
    assert back == v


@settings(max_examples=60, deadline=None)
@given(wire_ints())
@example(-1)
@example((1 << 1024) - 1)
@example(-(1 << 1024))
@example(-(1 << BIG_BITS) - 1)
def test_to_decimal_is_exact_under_the_default_context(v):
    # the D&C joins run in radix.EXACT, whatever context the caller has
    with decimal.localcontext(decimal.Context()):
        d = to_decimal(v)
    assert d.as_tuple().exponent == 0
    assert str(d) == _plain(v)


SPACE = st.sampled_from(["", " ", "\t", "\n", "　"])
NON_ASCII = ["٠", "０", "०"]  # Arabic-Indic, fullwidth, Devanagari zeros


@st.composite
def int_literals(draw):
    """Long digit strings in every syntax int() accepts."""
    rng = draw(st.randoms(use_true_random=False))
    length = draw(st.integers(1, 4 * BIG_DIGITS))
    body = "0" * draw(st.integers(0, 30)) + "".join(rng.choice("0123456789") for _ in range(length))
    style = draw(st.sampled_from(["plain", "underscores", "non-ascii"]))
    if style == "underscores":
        cuts = sorted(rng.sample(range(1, len(body)), min(5, len(body) - 1)))
        body = "_".join(body[i:j] for i, j in zip([0] + cuts, cuts + [len(body)]))
    elif style == "non-ascii":
        zero = ord(draw(st.sampled_from(NON_ASCII)))
        at = rng.randrange(len(body))
        body = body[:at] + chr(zero + int(body[at])) + body[at + 1:]
    sign = draw(st.sampled_from(["", "+", "-"]))
    return draw(SPACE) + sign + body + draw(SPACE)


@settings(max_examples=60, deadline=None)
@given(int_literals())
@example("9" * 512)  # 512 characters: the longest string int() reads whole
@example("9" * 513)
@example(" -" + "1" * 511)
@example("+" + "1" * 512 + "\n")
@example("1_" * 320 + "1")  # 641 characters, 321 digits
@example("0" * 639 + "7")  # 640 digits
@example("٣" * 4300)  # 4300 non-ASCII digits
@example("1" * 4301)
def test_parse_int_is_int(text):
    with int_digit_cap(0):
        expected = int(text)
    with int_digit_cap(640):
        assert parse_int(text) == expected


LONG = "7" * (2 * BIG_DIGITS)
MALFORMED = [
    "", " ", "+", "-", "1 2", "12a", "1__0", "_1", "1_", "0x10", "1.5", "1e3", "²", "+-1",
    LONG + "x", "x" + LONG, LONG + " " + LONG, LONG + "_", "²" + LONG,
    "9" * 512 + "x", "_" + "9" * 600, "9" * 300 + "__" + "9" * 300, "+-" + "9" * 600, "-" * 600,
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_integers_raise_input_error(text):
    with pytest.raises(InputError) as exc:
        parse_int(text)
    assert len(str(exc.value)) < 120  # the value is quoted cut short, not echoed whole


@settings(max_examples=80, deadline=None)
@given(st.one_of(int_literals(), st.sampled_from(MALFORMED + [
    "1e5", "1.0", "NaN", "-NaN", "Infinity", "-0", "+0", " -0_0 ", "-" + "0" * 600, "0" * 700, "-٠"])))
@example("9" * 513)
@example("-" + "1" * 600)
def test_str_to_decimal_has_the_value_and_errors_of_str_to_int(text):
    # the same grammar and messages; the Decimal is integral (exponent 0) and never -0
    try:
        expected = str_to_int(text)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            str_to_decimal(text)
        assert str(got.value) == str(exc)
        return
    with decimal.localcontext(decimal.Context(prec=3)):  # reading rounds nothing in any context
        d = str_to_decimal(text)
    assert d.as_tuple().exponent == 0
    assert str(d) == int_to_str(expected)


# -- radix.Record: the base of the value records ---------------------------------


def test_records_are_immutable_values():
    col = Column(1, (2, 3), 4)
    assert col == Column(1, (2, 3), 4) and hash(col) == hash(Column(1, (2, 3), 4))
    assert col != Column(1, (2, 3), 5) and col != (1, (2, 3), 4)
    assert len({RationalInterval(1, 2), RationalInterval(Fraction(2, 2), 2), RationalInterval(1, 3)}) == 2
    assert QuotientRows(1, ((1,),)) != PartialQuotients(1, ((1,),))  # the class is part of the value
    with pytest.raises(AttributeError):
        col.C = 5
    with pytest.raises(AttributeError):
        del col.C
    with pytest.raises(AttributeError):
        col.extra = 0
    pq = PartialQuotients(2, ((0, 3), (0, 1)))
    assert copy.copy(col) == col and pickle.loads(pickle.dumps(pq)) == pq
    assert repr(CheckItem("x", None, "d", (7,))) == \
        "CheckItem(name='x', first_violation=None, detail='d', boundary_indices=(7,))"
