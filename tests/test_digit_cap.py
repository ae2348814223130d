"""mcf under CPython's int <-> str digit cap (the CVE-2020-10735 guard).

mcf never reads or changes the cap: `mcf.radix` converts numbers of any size
under any cap, so library calls and CLI runs give the same answers and bytes
under the smallest cap CPython accepts (640) as with the cap lifted, and no
other thread ever sees the cap lifted.
"""

import fractions
import json
import os
import random
import resource
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import int_digit_cap
from test_output_goldens import CASES, EXIT_CODES, GOLDEN, stdout_of

from mcf import InputError, NumberField, PreconditionViolated, RationalInterval
from mcf.convergents import bound_checks
from mcf.engine import ExpansionRecord, InterruptionEvent, expand
from mcf.exact_reals import AlgebraicValue, RationalValue
from mcf.liouville import MAX_LIOUVILLE_M
from mcf.radix import MAX_EXPONENT
from mcf.recurrence import Column, PartialQuotients, QuotientRows, check_admissible
from mcf.serialization import expansion_jsonl, parse_frac

SRC = Path(__file__).parents[1] / "src"
BIG = random.Random(5).randrange(10**4999, 10**5000)  # 5000 digits
with int_digit_cap(0):
    BIG_TEXT = str(BIG)


def test_no_thread_sees_the_digit_cap_lifted():
    pq = PartialQuotients.from_lists([0] + [2] * 200_000, [0] + [1] * 200_000)
    done = threading.Event()
    outcomes = {"refused": 0, "converted": 0}

    def convert_elsewhere():
        while not done.is_set():
            try:
                str(10**5000)
                outcomes["converted"] += 1
            except ValueError:
                outcomes["refused"] += 1

    with int_digit_cap(4300):
        other = threading.Thread(target=convert_elsewhere)
        other.start()
        try:
            assert check_admissible(pq).ok
        finally:
            done.set()
            other.join()
    assert outcomes["converted"] == 0
    assert outcomes["refused"] > 0


def test_interruption_entry_holds_every_digit():
    with int_digit_cap(4300):
        record = expand([Fraction(1, 3), BIG], 1)
        lines = list(expansion_jsonl(record))  # the lines are encoded as they are drawn
    assert [(e.index, e.dimension_after, e.value) for e in record.interruptions] == [(0, 1, BIG)]
    assert lines == [f'{{"a":["0","{BIG_TEXT}"],"event":"interruption","n":0}}']


def test_bound_checks_reject_a_huge_head_as_a_precondition():
    pq = PartialQuotients.from_lists([BIG, 3, 2], [0, 1, 1])
    with int_digit_cap(4300), pytest.raises(PreconditionViolated) as exc:
        bound_checks(pq)
    assert BIG_TEXT in str(exc.value)


def test_reprs_hold_every_digit():
    small = Fraction(1, BIG)
    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    element = field.element([small, 0, 1])
    with int_digit_cap(4300):
        assert repr(RationalInterval(small, 1)) == f"RationalInterval('1/{BIG_TEXT}', '1')"
        assert repr(RationalValue(small)) == f"RationalValue(1/{BIG_TEXT})"
        assert repr(element) == f"FieldElement([1/{BIG_TEXT}, 0, 1] over deg-3 field)"
        assert repr(AlgebraicValue(element)) == f"AlgebraicValue({element!r})"


@pytest.mark.parametrize("record", [
    lambda: Column(0, (1,), BIG),
    lambda: PartialQuotients(2, ((0, BIG), (0, 1))),
    lambda: QuotientRows(1, ((-BIG,),)),
    lambda: ExpansionRecord(PartialQuotients(1, ((BIG,),)), (InterruptionEvent(0, 0, BIG),), True,
                            floor_widths=((Fraction(1, BIG),),)),
], ids=["Column", "PartialQuotients", "QuotientRows", "ExpansionRecord"])
def test_record_reprs_hold_every_digit(record):
    with int_digit_cap(4300):
        assert BIG_TEXT in repr(record())


# -- parse_frac is Fraction(str) ------------------------------------------------

NON_ASCII_ZEROS = ["٠", "０", "०"]  # Arabic-Indic, fullwidth, Devanagari


@st.composite
def rational_literals(draw):
    """Strings near Fraction's grammar, valid or not, under and over 640 digits."""
    rng = draw(st.randoms(use_true_random=False))

    def digits():
        size = draw(st.sampled_from([1, 3, 639, 640, 641, 1500]))
        text = "".join(rng.choice("0123456789") for _ in range(size))
        if rng.random() < 0.2:
            at = rng.randrange(size)
            text = text[:at] + chr(ord(rng.choice(NON_ASCII_ZEROS)) + int(text[at])) + text[at + 1:]
        if rng.random() < 0.3:  # underscores: single, or (rarely) doubled
            cuts = sorted(rng.sample(range(1, size), min(3, size - 1)))
            text = rng.choice(["_", "_", "__"]).join(
                text[i:j] for i, j in zip([0, *cuts], [*cuts, size]))
        return text

    sign = draw(st.sampled_from(["", "+", "-"]))
    form = draw(st.sampled_from(["int", "p/q", "decimal", "exponent"]))
    if form == "int":
        body = digits()
    elif form == "p/q":
        body = digits() + draw(st.sampled_from(["/", "/", " / ", "/-"])) + digits()
    else:
        body = draw(st.sampled_from(["", digits()])) + "." + draw(st.sampled_from(["", digits()]))
        if form == "exponent":
            zeros = "0" * draw(st.sampled_from([0, 700]))
            exponent = draw(st.one_of(st.integers(0, 400),
                                      st.sampled_from([MAX_EXPONENT, MAX_EXPONENT + 1, 10**1000])))
            body += draw(st.sampled_from(["e", "E"])) + draw(st.sampled_from(["", "+", "-"])) \
                + zeros + str(exponent)
    space = st.sampled_from(["", " ", "\t", "　"])
    text = draw(space) + sign + body + draw(space)
    if rng.random() < 0.15:  # one stray character; an "e" can turn a digit run into an exponent
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(" _/.-xe") + text[at:]
    return text


@settings(max_examples=150, deadline=None)
@given(rational_literals())
@example("3 / 2")
@example("-3/-4")
@example("1.5")
@example("1e-3")
@example("1_0/3")
@example("٣/٤")
@example("inf")
@example("nan")
@example("1/0")
@example("." + "3" * 700)
@example("7" * 700 + "/" + "0" * 700)
@example("-" + "1_" * 400 + "2/9")
@example("1e" + "7" * 1000)
@example(f"1e-{MAX_EXPONENT}")
@example(f"1e{MAX_EXPONENT + 1}")
def test_parse_frac_is_fraction_of_str(text):
    # a strict subset of Fraction(str): an exponent beyond the cap is an input error,
    # where Fraction(text) would form 10**exp and not return
    with int_digit_cap(0):
        match = fractions._RATIONAL_FORMAT.match(text)  # Fraction(str)'s own grammar
        beyond = bool(match and match["exp"]) and abs(int(match["exp"])) > MAX_EXPONENT
        try:
            expected = None if beyond else Fraction(text)
        except (ValueError, ZeroDivisionError):
            expected = None
    with int_digit_cap(640):
        if expected is None:
            with pytest.raises(InputError):
                parse_frac(text)
        else:
            assert parse_frac(text) == expected


# -- the CLI under the smallest cap ----------------------------------------------------


def cli_under_cap(argv) -> tuple[int, str]:
    """Exit code and stdout of `python -m mcf.cli argv` under the smallest digit cap."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               PYTHONINTMAXSTRDIGITS="640")
    out = subprocess.run([sys.executable, "-m", "mcf.cli", *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert "Traceback" not in out.stderr
    return out.returncode, out.stdout


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_golden_under_the_smallest_cap(name, argv):
    assert cli_under_cap(argv) == (EXIT_CODES.get(name, 0), (GOLDEN / f"out_{name}.txt").read_text())


PQ2 = str(GOLDEN / "pq_m2.json")
SCHEDULE = ["--schedule", str(GOLDEN / "schedule_m2.json"), "--base", PQ2]
LIOUVILLE_M3 = ["--m", "3", "--b-rule", "const:1", "--b-rule", "cycle:0,2", "--depth", "7"]


@pytest.fixture(scope="module")
def big_inputs(tmp_path_factory):
    """pq_m2 with a 5000-digit a_0 as a raw JSON number, and with one as the string a_1;
    raw 5000-digit JSON numbers where no integer belongs, or nested in a list."""
    root = tmp_path_factory.mktemp("big")
    text = (GOLDEN / "pq_m2.json").read_text()
    assert text.startswith('{"m":2,"seqs":[["0",')
    (root / "raw_a0.json").write_text(text.replace('"0"', BIG_TEXT, 1))
    doc = json.loads(text)
    doc["seqs"][0][1] = BIG_TEXT
    (root / "big_a1.json").write_text(json.dumps(doc))
    for name, text in [("nested", '{"m":2,"seqs":[[0,[%s]],[0,1]]}'), ("m", '{"m":%s,"seqs":[[0],[0]]}'),
                       ("kind", '{"kind":%s}'), ("digits", '{"kind":"decimal","digits":%s}')]:
        (root / f"raw_{name}.json").write_text(text % BIG_TEXT)
    return root


# name: (argv with {dir} for the input directory, exit code)
BIG_CASES = {
    "convergents raw a_0": (["convergents", "--pq", "{dir}/raw_a0.json", "--depth", "12",
                             "--emit", "csv"], 0),
    "bounds raw a_0": (["verify", "bounds", "--pq", "{dir}/raw_a0.json"], 2),
    "bounds raw a_0 in a box": (["verify", "bounds", "--pq", "{dir}/raw_a0.json",
                                 "--box", f"{BIG_TEXT},0"], 0),
    "growth --M on a string a_1": (["verify", "growth", "--pq", "{dir}/big_a1.json", "--M", "5"], 1),
    "construct --a0": (["construct", "liouville", "--a0", BIG_TEXT, "--b-rule", "const:1",
                        "--depth", "4"], 0),
    "construct const:-N": (["construct", "liouville", "--b-rule", f"const:-{BIG_TEXT}",
                            "--depth", "4"], 2),
    "growth --d": (["verify", "growth", "--pq", PQ2, "--d", BIG_TEXT], 0),
    "main1 --d --c": (["verify", "main1", *SCHEDULE, "--d", BIG_TEXT, "--c", f"1/{BIG_TEXT}",
                       "--depth", "30"], 1),
    "main2 --N": (["verify", "main2", *SCHEDULE, "--M", "7", "--N", BIG_TEXT, "--depth", "30"], 0),
    "raw number in a list": (["verify", "admissible", "--pq", "{dir}/raw_nested.json"], 2),
    "raw number as m": (["verify", "admissible", "--pq", "{dir}/raw_m.json"], 2),
    "raw number as a kind": (["expand", "--input", "{dir}/raw_kind.json", "--steps", "3"], 2),
    "raw number as decimal digits": (["expand", "--input", "{dir}/raw_digits.json", "--steps", "3"], 3),
}


@pytest.mark.parametrize("name", BIG_CASES)
def test_5000_digit_inputs_give_the_same_bytes_under_any_cap(name, big_inputs):
    template, code = BIG_CASES[name]
    argv = [arg.replace("{dir}", str(big_inputs)) for arg in template]
    with int_digit_cap(0):
        lifted = stdout_of(argv)
    assert lifted[0] == code
    assert cli_under_cap(argv) == lifted


def _address_space_of_1_gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("m", ["1" + "0" * 5000, "1000000000"], ids=["10**5000", "10**9"])
def test_construct_rejects_a_huge_dimension_before_building_anything(m):
    # in a child capped at 1 GiB, so a list of length m could not be built unnoticed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "mcf.cli", "construct", "liouville", "--m", m,
                          "--b-rule", "const:1", "--depth", "3"], env=env, capture_output=True,
                         text=True, timeout=60, preexec_fn=_address_space_of_1_gib)
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"input error: Liouville constructions need 2 <= m <= {MAX_LIOUVILLE_M}\n"


@pytest.mark.parametrize("delta", [f"{BIG_TEXT}/{BIG_TEXT}", "1." + "0" * 5000], ids=["p/q", "decimal"])
def test_long_forms_of_delta_one(delta):
    construct = ["construct", "liouville", "--delta", delta, *LIOUVILLE_M3]
    verify = ["verify", "liouville", "--delta", delta,
              "--pq", str(GOLDEN / "out_construct_liouville_m3.txt")]
    assert cli_under_cap(construct) == (0, (GOLDEN / "out_construct_liouville_m3.txt").read_text())
    assert cli_under_cap(verify) == (0, (GOLDEN / "out_verify_liouville_m3.txt").read_text())


@pytest.mark.parametrize("exponent", ["7" * 1000, f"-{MAX_EXPONENT + 1}"], ids=["1000-digit", "cap+1"])
def test_delta_with_an_exponent_beyond_the_cap_is_an_input_error(exponent):
    # Fraction(str) would form 10**exponent first, and never return for the 1000-digit one
    rc, out = cli_under_cap(["construct", "liouville", "--delta", f"1e{exponent}", *LIOUVILLE_M3])
    assert (rc, out) == (2, "")
