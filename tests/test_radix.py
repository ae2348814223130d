"""The decimal wire conversion: exactly str()/int(), on both sides of the cutoff."""

import decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import int_digit_cap

from mcf import InputError
from mcf.radix import CUTOFF_BITS, to_decimal
from mcf.serialization import int_str, parse_int

CUTOFF_DIGITS = CUTOFF_BITS * 30103 // 100000  # decimal digits of 2**CUTOFF_BITS, less one


def _plain(v: int) -> str:
    with int_digit_cap(0):
        return str(v)


@st.composite
def wire_ints(draw):
    """Random, power-of-2 and power-of-10 integers and their neighbours, both signs, up to 4x the cutoff."""
    bits = draw(st.integers(0, 4 * CUTOFF_BITS))
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
@example((1 << CUTOFF_BITS) - 1)
@example(1 << CUTOFF_BITS)
@example(-(1 << CUTOFF_BITS) - 1)
@example(10**CUTOFF_DIGITS)
@example(-(10 ** (CUTOFF_DIGITS + 1)) + 1)
def test_int_str_is_str_and_parse_int_inverts_it(v):
    with int_digit_cap(4300):
        text = int_str(v)
        back = parse_int(text)
    assert text == _plain(v)
    assert back == v


@settings(max_examples=60, deadline=None)
@given(wire_ints())
@example(-1)
@example((1 << 1024) - 1)
@example(-(1 << 1024))
@example(-(1 << CUTOFF_BITS) - 1)
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
    length = draw(st.integers(1, 4 * CUTOFF_DIGITS))
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
def test_parse_int_is_int(text):
    with int_digit_cap(0):
        expected = int(text)
    with int_digit_cap(4300):
        assert parse_int(text) == expected


LONG = "7" * (2 * CUTOFF_DIGITS)


@pytest.mark.parametrize("text", [
    "", " ", "+", "-", "1 2", "12a", "1__0", "_1", "1_", "0x10", "1.5", "1e3", "²", "+-1",
    LONG + "x", "x" + LONG, LONG + " " + LONG, LONG + "_", "²" + LONG,
])
def test_malformed_integers_raise_input_error(text):
    with pytest.raises(InputError) as exc:
        parse_int(text)
    assert len(str(exc.value)) < 120  # the value is quoted cut short, not echoed whole
