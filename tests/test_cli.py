"""CLI surface: exit codes, wire formats, determinism, help goldens."""

import contextlib
import decimal
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from helpers import int_digit_cap
from references import convergents_stdout

from mcf import InputError, LiouvilleSpec, const_rule, construct_liouville, expand, verify_liouville
from mcf import cli
from mcf import serialization as ser
from mcf.cli import build_parser, run
from mcf.convergents import k_interval
from mcf.liouville import cycle_rule, liouville_rows, seq_rule
from mcf.radix import EXACT, int_to_str, str_to_int, to_decimal
from mcf.recurrence import ConvergentState, PartialQuotients, QuotientRows, conv_stream
from mcf.serialization import criterion_report_to_json, dumps_stable, pq_from_json, pq_to_json

GOLDEN = Path(__file__).parent / "golden"
BIG_BITS = 1 << 15  # the size of the big quotients drawn below


def invoke(argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    old_env = {}
    if env:
        for k, v in env.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


def test_expand_rational_pair(files):
    path = files("pair.json", [
        {"kind": "rational", "num": "7", "den": "5"},
        {"kind": "rational", "num": "3", "den": "5"},
    ])
    code, out, _ = invoke(["expand", "--input", path, "--steps", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0]) == {"a": ["1", "0"], "event": "step", "n": 0}
    assert json.loads(lines[2]) == {"a": ["1", "1"], "event": "interruption", "n": 2}
    assert json.loads(lines[3]) == {"a": ["2"], "event": "step", "n": 3}


def test_expand_algebraic_input(files):
    path = files("alg.json", [
        {"kind": "algebraic", "minpoly": ["-2", "0", "0", "1"],
         "lo": "1/1", "hi": "2/1", "coords": ["0/1", "1/1", "0/1"]},
        {"kind": "algebraic", "minpoly": ["-2", "0", "0", "1"],
         "lo": "1/1", "hi": "2/1", "coords": ["0/1", "0/1", "1/1"]},
    ])
    code, out, _ = invoke(["expand", "--input", path, "--steps", "5"])
    assert code == 0
    lines = [json.loads(x) for x in out.strip().splitlines()]
    assert [l["a"] for l in lines] == [
        ["1", "1"], ["1", "0"], ["2", "1"], ["1", "0"], ["2", "1"]]


def test_real_value_json_round_trip():
    from fractions import Fraction
    from mcf import AlgebraicValue, NumberField, RationalInterval
    from mcf.serialization import real_from_json, real_to_json

    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    value = AlgebraicValue(field.element([Fraction(1, 2), 3, Fraction(-2, 7)]))
    doc = real_to_json(value)
    back = real_from_json(doc)
    assert back.element.coords == value.element.coords
    assert back.element.field.min_poly == field.min_poly
    assert real_to_json(back) == doc


def test_expand_trace_output(files):
    rational = files("rat.json", [
        {"kind": "rational", "num": "7", "den": "5"},
        {"kind": "rational", "num": "3", "den": "5"}])
    code, out, _ = invoke(["expand", "--input", rational, "--steps", "4", "--trace"])
    assert code == 0
    doc = json.loads(out.splitlines()[1])
    assert doc["trace"] == [
        {"den": "3", "kind": "rational", "num": "5"},
        {"den": "3", "kind": "rational", "num": "2"}]

    # limited-precision oracles fall back to the tightest available enclosure
    decimal = files("dec.json", [
        {"kind": "decimal", "digits": "1.259921049894873164767210607278228350570251"},
        {"kind": "decimal", "digits": "1.587401051968199474751705639272308260391493"}])
    code, out, _ = invoke(["expand", "--input", decimal, "--steps", "4", "--trace"])
    assert code == 0
    doc = json.loads(out.splitlines()[1])
    assert [t["kind"] for t in doc["trace"]] == ["interval", "interval"]


def test_expand_trace_encloses_the_algebraic_complete_quotients(files):
    # (theta, theta^2), theta = 2^(1/3): no interruption, so every line carries a trace
    pair = [{"kind": "algebraic", "minpoly": ["-2", "0", "0", "1"], "lo": "1/1", "hi": "2/1",
             "coords": coords} for coords in (["0/1", "1/1", "0/1"], ["0/1", "0/1", "1/1"])]
    argv = ["expand", "--input", files("alg.json", pair), "--steps", "6", "--trace"]
    code, out, _ = invoke(argv)
    assert code == 0 and invoke(argv)[1] == out
    exact = expand(ser.reals_from_file_payload(pair), 6, keep_trace=True).trace
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(exact) == 6
    for line, values in zip(lines, exact):
        assert len(line["trace"]) == len(values) == 2
        for shown, value in zip(line["trace"], values):
            lo, hi = Fraction(shown["lo"]), Fraction(shown["hi"])
            assert shown["kind"] == "interval" and hi - lo <= Fraction(1, 10**30)
            assert (value.element - lo).sign() >= 0 and (hi - value.element).sign() >= 0


def test_expand_decimal_budget_exhaustion(files):
    path = files("dec.json", [{"kind": "decimal", "digits": "1.41"},
                              {"kind": "decimal", "digits": "1.25"}])
    code, _, err = invoke(["expand", "--input", path, "--steps", "30"])
    assert code == 3
    assert "decimal" in err or "budget" in err


def test_an_exhausted_oracle_names_its_certified_query(files):
    from mcf import OracleExhausted
    from mcf.exact_reals import DecimalOracle

    path = files("dec.json", [{"kind": "decimal", "digits": "1.41"},
                              {"kind": "decimal", "digits": "1.25"}])
    code, out, err = invoke(["expand", "--input", path, "--steps", "30"])
    exhausted = "decimal literal '1.41' has no precision beyond 10^-2 (supply more digits or an exact kind)"
    assert (code, out, err) == (3, "", f"error: floor of x_1^(1) at level 1: {exhausted}\n")
    with pytest.raises(OracleExhausted) as exc:  # outside a certified query: the oracle's own words
        DecimalOracle("1.41").enclosure(1)
    assert str(exc.value) == exhausted


def test_decimal_digits_written_as_a_json_number_are_read_as_written(files, tmp_path):
    written = "1.8836075983867565088995"  # the float nearest to it prints as 1.8836075983867564
    number = str(tmp_path / "number.json")
    Path(number).write_text('{"kind": "decimal", "digits": %s}' % written)
    (value,) = ser.reals_from_file_payload(cli._load_json(number))
    assert Fraction(written) in value.oracle.enclosure(0)
    text = files("text.json", {"kind": "decimal", "digits": written})
    assert invoke(["expand", "--input", number, "--steps", "40"]) == invoke(
        ["expand", "--input", text, "--steps", "40"])


TINY_DELTA = ["--delta", "1/1000000000"]


def run_cli_process(argv) -> subprocess.CompletedProcess:
    """`python -m mcf.cli argv` in a fresh interpreter, killed after 10 s."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "mcf.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=10)


def test_construct_liouville_with_a_tiny_delta_finishes():
    # ceil(C^(1/10^9)) needs the 10^9-th root of C, which is 1: no 10^9-digit power is formed
    out = run_cli_process(["construct", "liouville", "--m", "2", *TINY_DELTA, "--b-rule", "const:0",
                           "--depth", "12"])
    assert out.returncode == 0, out.stderr
    pq = pq_from_json(json.loads(out.stdout))
    assert len(pq.seqs[0]) == 13 and pq.seqs[1] == (0,) * 13


def test_verify_liouville_with_a_tiny_delta_finishes(tmp_path):
    # each head is above t_n (floor(C^(1/10^9)) + 1) = 2 t_n, so no a^(10^9) is formed
    path = tmp_path / "tiny.json"
    built = run_cli_process(["construct", "liouville", "--m", "2", *TINY_DELTA, "--b-rule", "const:0",
                             "--depth", "12"])
    path.write_text(built.stdout)
    out = run_cli_process(["verify", "liouville", "--pq", str(path), *TINY_DELTA])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["verdict"] == "hypotheses-hold-to-depth"


def test_periodic_solve_json():
    code, out, _ = invoke(["periodic", "solve", "--per-a", "2", "--per-b", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["poly_alpha"] == ["-1", "-1", "-2", "1"]
    assert doc["residual_ok"] is True
    assert doc["bound_applicable"] is True


def test_periodic_solve_human():
    code, out, _ = invoke(["periodic", "solve", "--per-a", "1", "--per-b", "1"])
    assert code == 0
    assert "'-1', '-1', '-1', '1'" in out
    assert "alpha ~ 1.8392867" in out
    assert out.endswith("root selected by the convergent simplex at index 2; residual_ok = True\n")


def test_periodic_solve_human_with_a_negative_index_0_quotient():
    code, out, _ = invoke(["periodic", "solve", "--pre-a", "-1", "--pre-b", "0",
                           "--per-a", "2", "--per-b", "1"])
    assert code == 0
    assert "height bound: not applicable\n" in out


def test_verify_admissible_exit_codes(files):
    good = files("good.json", {"m": 2, "seqs": [["1", "2", "2"], ["0", "1", "1"]]})
    bad = files("bad.json", {"m": 2, "seqs": [["1", "2", "2"], ["0", "2", "0"]]})
    code, out, _ = invoke(["verify", "admissible", "--pq", good])
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = invoke(["verify", "admissible", "--pq", bad])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["violations"][0]["index"] == 2


def test_verify_bounds_violation_exit(files):
    # inadmissible data violating A_n <= C_n (b_1 > a_1)
    pq = files("pq.json", {"m": 2, "seqs": [["0", "1"], ["0", "3"]]})
    code, out, _ = invoke(["verify", "bounds", "--pq", pq])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_growth_and_box(files):
    pq = files("pq.json", {"m": 2, "seqs": [
        ["0", "2", "1", "1", "2", "1", "2"], ["0", "1", "0", "0", "1", "0", "1"]]})
    code, out, _ = invoke(["verify", "growth", "--pq", pq, "--M", "2", "--d", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and {i["name"] for i in doc["items"]} == {
        "psi-lower", "eta-upper", "loglog"}

    pq2 = files("pq2.json", {"m": 2, "seqs": [
        ["3", "2", "1", "2", "1"], ["2", "1", "0", "1", "0"]]})
    code, out, _ = invoke(["verify", "bounds", "--pq", pq2, "--box", "3,2"])
    assert code == 0


def test_construct_and_verify_liouville_round_trip(files, tmp_path):
    code, out, _ = invoke([
        "construct", "liouville", "--m", "2", "--delta", "1",
        "--b-rule", "const:0", "--depth", "8",
    ])
    assert code == 0
    pq_path = tmp_path / "li.json"
    pq_path.write_text(out)
    code, out2, _ = invoke(["verify", "liouville", "--pq", str(pq_path), "--delta", "1"])
    assert code == 0
    doc = json.loads(out2)
    assert doc["verdict"] == "hypotheses-hold-to-depth"


def test_verify_liouville_fails_a_negative_head_under_an_even_root(files):
    # a_1 = -3, max |tilde_i(1)| = 2, C_0 = 1: -3 > 2 * 1^(1/2) fails, though 9 > 4 * 1
    path = files("pq.json", {"m": 2, "seqs": [["0", "-3"], ["0", "2"]]})
    code, out, _ = invoke(["verify", "liouville", "--pq", path, "--delta", "1/2"])
    assert code == 1
    assert json.loads(out)["verdict"] == "violated-at(1)"


def test_construct_quasiperiodic_and_checks(files):
    sched = files("sched.json", {"schedule": [[1, 2, 3], [8, 3, 4]]})
    base = files("base.json", {"m": 2, "seqs": [[2] * 30, [1] * 30]})
    code, out, _ = invoke([
        "construct", "quasiperiodic", "--schedule", sched, "--base", base, "--depth", "20",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2 and len(doc["seqs"][0]) == 20

    code, out, _ = invoke([
        "verify", "main1", "--schedule", sched, "--base", base,
        "--d", "2", "--c", "3", "--depth", "18",
    ])
    assert code == 0
    assert json.loads(out)["verdict"] == "hypotheses-hold-to-depth"

    code, out, _ = invoke([
        "verify", "main2", "--schedule", sched, "--base", base,
        "--M", "2", "--N", "3", "--depth", "18",
    ])
    assert code == 0
    assert json.loads(out)["data"]["proxy_exceeds_B"] == "true"


def test_liouville_denominator_bits_grow_geometrically():
    code, out, _ = invoke([
        "construct", "liouville", "--m", "2", "--delta", "1",
        "--b-rule", "const:0", "--depth", "12",
    ])
    assert code == 0
    bits = [row.C.bit_length() for row in conv_stream(pq_from_json(json.loads(out)))]
    assert len(bits) == 13
    for i in range(5, len(bits) - 1):
        assert bits[i + 1] >= 2 * bits[i]  # at least geometric growth


def test_input_error_exit_codes(files):
    code, _, err = invoke(["expand", "--input", "/nonexistent.json", "--steps", "2"])
    assert code == 2 and "no such file" in err
    bad = files("bad.json", {"m": 2})
    code, _, _ = invoke(["verify", "admissible", "--pq", bad])
    assert code == 2


def test_malformed_numbers_in_files_exit_2(files):
    for bad in ("x", "9" * 100_000 + "x"):
        pq = files("bad_int.json", {"m": 2, "seqs": [["1", bad], ["0", "0"]]})
        code, out, err = invoke(["verify", "admissible", "--pq", pq])
        assert code == 2 and out == ""
        assert "malformed integer" in err and len(err) < 200  # the value is not echoed whole
    zero_den = files("zero_den.json", {"kind": "algebraic", "minpoly": ["-2", "0", "1"],
                                       "lo": "1/0", "hi": "2/1"})
    code, out, err = invoke(["expand", "--input", zero_den, "--steps", "2"])
    assert code == 2 and out == ""
    assert "malformed rational '1/0'" in err
    zero_den = files("zero_den.json", {"kind": "rational", "num": "1", "den": "0"})
    code, out, err = invoke(["expand", "--input", zero_den, "--steps", "2"])
    assert code == 2 and "denominator 0" in err


# tiny inputs that once ended in a traceback or reported an empty index range as checked
NO_INDEX_0 = {"m": 2, "seqs": [[], []]}
NO_B0 = {"m": 2, "seqs": [["0", "1"], []]}
C1_ZERO = {"m": 2, "seqs": [["1", "0"], ["0", "0"]]}  # C_1 = a_1 = 0, in the box (1, 0)
INDEX_0_ONLY = {"m": 2, "seqs": [["0"], ["0"]]}


def _malformed_cases(files):
    base = files("base.json", {"m": 2, "seqs": [["1"] * 8, ["0"] * 8]})
    base3 = files("base3.json", {"m": 3, "seqs": [["1"] * 8, ["0"] * 8, ["0"] * 8]})
    sched = files("sched.json", {"schedule": [[1, 1, 2]]})
    main1 = ["verify", "main1", "--base", base, "--d", "2", "--depth", "5"]
    main2 = ["verify", "main2", "--base", base, "--M", "7", "--N", "3", "--schedule", sched]
    not_int = "expected an integer (number or decimal string), got the number"
    truncated = files("cut.json", None)
    Path(truncated).write_text('{"m": 2, "seqs": [["1"')
    return {
        "missing field": (["expand", "--input", files("r.json", {"kind": "rational", "num": "1"}),
                           "--steps", "2"], "missing field 'den'"),
        "sequence not a list": (["verify", "admissible", "--pq", files("q.json", {"seqs": [1, 2]})],
                                "each sequence must be a list"),
        "minpoly not a list": (["expand", "--steps", "2", "--input", files(
            "a.json", {"kind": "algebraic", "minpoly": 5, "lo": "1", "hi": "2"})],
                               "minpoly must be a list"),
        "short schedule entry": (main1 + ["--c", "2", "--schedule",
                                          files("s.json", {"schedule": [[1, 2]]})],
                                 "schedule entry 0 must be [n, r, lambda]"),
        "b-rule": (["construct", "liouville", "--b-rule", "const:x", "--depth", "3"],
                   "malformed integer 'x'"),
        "delta": (["verify", "liouville", "--pq", base, "--delta", "x"], "malformed rational 'x'"),
        "c": (main1 + ["--c", "1/0", "--schedule", sched], "malformed rational '1/0'"),
        # JSON true is not the rational 1, though Python's bool is an int
        "boolean rational": (["expand", "--steps", "2", "--input", files("t.json", {
            "kind": "algebraic", "minpoly": ["-2", "0", "1"], "lo": True, "hi": "2"})],
                             "expected a rational 'p/q' string, got bool"),
        "boolean digits": (["expand", "--steps", "2", "--input", files(
            "d.json", {"kind": "decimal", "digits": True})], "decimal digits must be a string, got bool"),
        # a JSON number with a fraction part or exponent is named as written
        "fractional quotient": (["verify", "admissible", "--pq", files(
            "f.json", {"seqs": [["1", 1.5], ["0", "0"]]})], f"{not_int} '1.5'"),
        "fractional m": (["verify", "admissible", "--pq", files(
            "fm.json", {"m": 2.0, "seqs": [["1"], ["0"]]})], f"{not_int} '2.0'"),
        "exponent in a schedule": (main1 + ["--c", "2", "--schedule", files(
            "e.json", {"schedule": [[1, 1, 1e20]]})], f"{not_int} '1e+20'"),
        # shapes no format documents
        "inputs wrapper": (["expand", "--steps", "2", "--input", files(
            "w.json", {"inputs": [{"kind": "rational", "num": "1", "den": "2"}]})],
                           "real value must be an object with a 'kind' field"),
        "schedule entry object": (main1 + ["--c", "2", "--schedule", files(
            "o.json", {"schedule": [{"n": 1, "r": 1, "lam": 2}]})],
                                  "schedule entry 0 must be [n, r, lambda]"),
        "truncated JSON": (["verify", "admissible", "--pq", truncated], f"malformed JSON in {truncated}: "),
        "input neither value nor list": (["expand", "--steps", "2", "--input", files("n.json", 5)],
                                         "input file must hold a real value or a list of them"),
        # main1 and main2 build indices 0..depth: depth -1 builds none
        "main1 depth": (main1 + ["--c", "2", "--schedule", sched, "--depth", "-1"],
                        "depth must be >= 0, got -1"),
        "main2 depth": (main2 + ["--depth", "-1"], "depth must be >= 0, got -1"),
        # each check of a pq covers indices 0..depth: QuotientRows.last_index refuses a pq
        # without index 0 in every sequence
        **{f"{check[0]} without {what}": (["verify", *check, "--pq", files(f"{name}.json", pq)],
                                          f"the check needs index 0 in every sequence, got lengths {lengths}")
           for check in (["bounds"], ["growth", "--d", "1"], ["liouville", "--delta", "1"])
           for what, name, pq, lengths in (("index 0", "no0", NO_INDEX_0, "(0, 0)"),
                                           ("b_0", "no_b0", NO_B0, "(2, 0)"))},
        "box of one integer": (["verify", "bounds", "--pq", base, "--box", "1"], "--box needs two integers N,M"),
        "unknown rule": (["construct", "liouville", "--b-rule", "foo:1", "--depth", "3"],
                         "unknown rule 'foo:1'; use const:K, cycle:V1,V2,... or list:V1,V2,..."),
        "empty cycle": (["construct", "liouville", "--b-rule", "cycle:", "--depth", "3"],
                        "cycle rule needs at least one value"),
        "liouville m = 1": (["construct", "liouville", "--m", "1", "--b-rule", "const:1", "--depth", "3"],
                            "Liouville constructions need 2 <= m <= 64"),
        "convergents depth": (["convergents", "--pq", base, "--depth", "-1"], "--depth must be >= 0"),
        "expand steps": (["expand", "--input", files("r3.json", {"kind": "rational", "num": "1", "den": "3"}),
                          "--steps", "-1"], "steps must be >= 0"),
        "expand no value": (["expand", "--input", files("none.json", []), "--steps", "2"],
                            "at least one input value is required"),
        "bounds m = 3": (["verify", "bounds", "--pq", base3], "bound_checks is specific to m = 2"),
        "main1 m = 3": (["verify", "main1", "--base", base3, "--schedule", sched, "--d", "2", "--c", "2",
                         "--depth", "5"], "this criterion is specific to m = 2"),
        "main2 m = 3": (["verify", "main2", "--base", base3, "--schedule", sched, "--M", "7", "--N", "3"],
                        "this criterion is specific to m = 2"),
        "pre-period lengths": (["periodic", "solve", "--pre-a", "1", "--pre-b", "--per-a", "2", "--per-b", "1"],
                               "pre-period blocks must have equal length"),
    }


@pytest.mark.parametrize("case", ["missing field", "sequence not a list", "minpoly not a list",
                                  "short schedule entry", "b-rule", "delta", "c",
                                  "boolean rational", "boolean digits", "fractional quotient",
                                  "fractional m", "exponent in a schedule", "inputs wrapper",
                                  "schedule entry object", "truncated JSON", "input neither value nor list",
                                  "main1 depth", "main2 depth", "bounds without index 0",
                                  "bounds without b_0", "growth without index 0", "growth without b_0",
                                  "liouville without index 0", "liouville without b_0",
                                  "box of one integer", "unknown rule", "empty cycle", "liouville m = 1",
                                  "convergents depth", "expand steps", "expand no value", "bounds m = 3",
                                  "main1 m = 3", "main2 m = 3", "pre-period lengths"])
def test_malformed_fields_and_flags_exit_2(files, case):
    argv, message = _malformed_cases(files)[case]
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1


def test_algebraic_inputs_in_two_fields_exit_2(files):
    # FieldMismatch is an MCFError but no InputError: run's last branch reports it
    path = files("two_fields.json", [
        {"kind": "algebraic", "minpoly": ["-2", "0", "1"], "lo": "1", "hi": "2"},
        {"kind": "algebraic", "minpoly": ["-3", "0", "1"], "lo": "1", "hi": "2"},
    ])
    assert invoke(["expand", "--input", path, "--steps", "2"]) == (
        2, "", "error: all algebraic inputs must live in one number field\n")


# C_2 = a_2 C_1 + b_2 sits within 1 of exp(exp(K(40, 2))), inside K's first enclosure
NEAR_TIE_A = ["0", "10000000000", "11246586545", "1"]


@pytest.mark.parametrize("b2,below", [(321307604, True), (321307605, False)])
def test_verify_growth_near_tie_refines_both_sides(files, b2, below):
    c2 = 11246586545 * 10**10 + b2
    k = k_interval(40, 2)
    with mp.workprec(512):
        loglog = mp.log(mp.log(c2))
        k_lo, k_hi = (mp.mpf(v.numerator) / v.denominator for v in (k.lo, k.hi))
        assert k_lo < loglog < k_hi
        truth = loglog < mp.log(41) + mp.log(mp.mpf(41) / 40) + mp.log(mp.log(3))
    assert truth == below
    pq = files("tie.json", {"m": 2, "seqs": [NEAR_TIE_A, ["0", "0", str(b2), "0"]]})
    start = time.perf_counter()
    code, out, _ = invoke(["verify", "growth", "--pq", pq, "--d", "40"])
    assert time.perf_counter() - start < 5
    loglog_item = json.loads(out)["items"][1]
    assert loglog_item["name"] == "loglog"
    assert (code, loglog_item["ok"], loglog_item["first_violation"]) == (
        (0, True, None) if below else (1, False, 1))


def _deep_tie_pq(files):
    """C_2 = 10 a_2 + b_2 is exp(exp(K(1000, 2))) cut to 400 bits: log log C_2 - K is
    about 2^-400, so the comparison needs 512-bit enclosures of both sides."""

    def k():
        return mp.log(1001) + mp.log(mp.mpf(1001) / 1000) + mp.log(mp.log(3))

    with mp.workprec(400):
        c2 = int(mp.exp(mp.exp(k())))
    with mp.workprec(4096):
        below = mp.log(mp.log(c2)) < k()
    seqs = [["0", "10", str(c2 // 10)], ["0", "0", str(c2 % 10)]]
    return files("deep.json", {"m": 2, "seqs": seqs}), below


def test_verify_growth_deep_tie_tightens_k(files):
    pq, below = _deep_tie_pq(files)
    code, out, _ = invoke(["verify", "growth", "--pq", pq, "--d", "1000"])
    assert code == (0 if below else 1)
    assert json.loads(out)["items"][1]["ok"] == below


def test_huge_d_power_hypotheses_answer_without_forming_the_power():
    # a_(n+1) < C_n^d with d = 10^6: C_n^d has millions of bits, yet every
    # C_n >= 2 for n >= 1 and every a_n < 2^d, so the hypothesis holds exactly
    pq_path, sched = str(GOLDEN / "pq_m2.json"), str(GOLDEN / "schedule_m2.json")
    pq = pq_from_json(json.loads(Path(pq_path).read_text()))
    assert all(row.C >= 2 for row in conv_stream(pq) if row.n >= 1)
    assert max(pq.seqs[0]) < 2**1_000_000
    growth = ["verify", "growth", "--pq", pq_path, "--d", "1000000"]
    main1 = ["verify", "main1", "--schedule", sched, "--base", pq_path, "--d", "1000000",
             "--c", "1", "--depth", "30"]
    for argv in (growth, main1):
        start = time.perf_counter()
        code, out, _ = invoke(argv)
        assert time.perf_counter() - start < 5
        assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("depth", [0, 1])
def test_verify_main1_below_depth_2_checks_no_index(depth):
    # the head hypothesis ranges over 1 <= i <= depth - 1: empty here, and said so
    code, out, _ = invoke(["verify", "main1", "--schedule", str(GOLDEN / "schedule_m2.json"),
                           "--base", str(GOLDEN / "pq_m2.json"), "--d", "2", "--c", "1",
                           "--depth", str(depth)])
    assert code == 0
    head = json.loads(out)["hypotheses"][0]
    assert head["name"] == "head-below-denominator-power" and head["first_violation"] is None
    assert head["detail"] == f"a_(i+1) < C_i^2 unchecked: no index i with 1 <= i <= {depth - 1}"


def test_verify_liouville_and_growth_on_index_0_only_check_no_index(files):
    pq = files("pq.json", INDEX_0_ONLY)
    code, out, _ = invoke(["verify", "liouville", "--pq", pq, "--delta", "1"])
    head = json.loads(out)["hypotheses"][0]
    assert (code, head["first_violation"]) == (0, None)
    assert head["detail"] == "a_n^(1) > max_i |tilde_i(n)| C_(n-1)^1 unchecked: no index n with 1 <= n <= 0"
    code, out, _ = invoke(["verify", "growth", "--pq", pq, "--d", "1"])
    loglog = json.loads(out)["items"][-1]
    assert (code, loglog["name"], loglog["first_violation"]) == (0, "loglog", None)
    assert loglog["detail"] == "log log C_(n+1) < K(1, 2) n unchecked: no index n with 1 <= n <= -1"


def test_verify_bounds_leaves_a_zero_denominator_out_of_empirical_K(files):
    # column 1 has no ratio A_1 / C_1, so K comes from column 0 alone
    code, out, _ = invoke(["verify", "bounds", "--pq", files("c1.json", C1_ZERO), "--box", "1,0"])
    report = json.loads(out)
    assert (code, report["empirical_K"], report["items"][0]["first_violation"]) == (1, "1", 1)


@pytest.mark.parametrize("pq, box", [(NO_INDEX_0, []), (NO_B0, []), (C1_ZERO, ["--box", "1,0"]),
                                     (INDEX_0_ONLY, [])],
                         ids=["no index 0", "no b_0", "C_1 = 0", "index 0 only"])
def test_degenerate_pq_files_exit_without_a_traceback(files, pq, box):
    path = files("pq.json", pq)
    for argv in (["bounds", *box], ["growth", "--d", "1"], ["liouville", "--delta", "1"], ["admissible"]):
        out = run_cli_process(["verify", *argv, "--pq", path])
        assert 0 <= out.returncode <= 3 and "Traceback" not in out.stderr, (argv, out.stderr)


@pytest.mark.parametrize("seqs,d", [
    ([["0", "5", "3"]], "1"),  # C_2 = 16 = 2^4
    ([["0", "10", "8"], ["0", "0", "1"]], "1"),  # C_2 = 81 = 3^4
    ([["0", "30", "17"], ["0", "0", "2"], ["0", "0", "0"]], "2"),  # C_2 = 512 = 2^9, m+1 = 2^2
])
def test_verify_growth_exact_loglog_tie_is_a_violation(files, seqs, d):
    # C_2^d = (m+1)^((d+1)^2) makes log log C_2 = K(d, m) exactly: not strictly
    # below, and no enclosure can separate the sides, so the tie is decided exactly
    pq = files("exact_tie.json", {"m": len(seqs), "seqs": seqs})
    start = time.perf_counter()
    code, out, _ = invoke(["verify", "growth", "--pq", pq, "--d", d])
    assert time.perf_counter() - start < 5
    loglog_item = json.loads(out)["items"][-1]
    assert (code, loglog_item["name"], loglog_item["first_violation"]) == (1, "loglog", 1)


def test_loglog_rung_leaves_the_ties_to_enclosures(files, monkeypatch):
    # on the near and deep ties log_sign's first step, from magnitudes, must not answer:
    # the comparison of log log C_2 goes on to certified logarithms of C_2 itself, and
    # no later C_n needs them
    from mcf import logs

    seen, log_bounds = [], logs._log_bounds

    def certified_log(v, w):  # w = None: magnitudes only
        if w is not None:
            seen.append(v)
        return log_bounds(v, w)

    monkeypatch.setattr(logs, "_log_bounds", certified_log)
    cases = [(_deep_tie_pq(files)[0], "1000")]
    for b2 in (321307467, 321307667):
        cases.append((files(f"tie{b2}.json", {"m": 2, "seqs": [NEAR_TIE_A, ["0", "0", str(b2), "0"]]}),
                      "40"))
    for pq, d in cases:
        seen.clear()
        invoke(["verify", "growth", "--pq", pq, "--d", d])
        columns = [col.C for col in conv_stream(pq_from_json(json.loads(Path(pq).read_text())))]
        assert columns[2] in seen and not set(columns[3:]) & set(seen)


@pytest.mark.parametrize("argv", [
    ["verify", "bounds", "--pq", str(GOLDEN / "pq_m2.json")],
    ["verify", "growth", "--pq", str(GOLDEN / "pq_m2.json"), "--M", "7"],
    ["verify", "liouville", "--pq", str(GOLDEN / "pq_m2.json"), "--delta", "1"],
], ids=["bounds", "growth", "liouville"])
def test_negative_depth_is_an_input_error(argv):
    # an empty index range is not a pass: it used to print "ok": true, exit 0
    code, out, err = invoke(argv + ["--depth", "-2"])
    assert (code, out) == (2, "")
    assert err == "input error: depth must be >= 0, got -2\n"


def test_budget_errors_name_query_and_levels(files):
    pq, _ = _deep_tie_pq(files)
    code, out, err = invoke(["verify", "growth", "--pq", pq, "--d", "1000"],
                            env={"MCF_PRECISION_BUDGET": "1"})
    assert (code, out) == (3, "")
    assert err == "error: log log C_2 < K(1000, 2) * 1 not certified at levels 0..0\n"
    dec = files("dec.json", [{"kind": "decimal", "digits": "2.00"}])
    code, out, err = invoke(["expand", "--input", dec, "--steps", "1"],
                            env={"MCF_PRECISION_BUDGET": "1"})
    assert (code, out) == (3, "")
    assert err == "error: floor of x_0^(1) not certified at levels 0..0\n"


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["expand", "--nope"])
    assert exc.value.code == 2


def test_output_determinism_across_runs_and_budgets(files):
    args = ["periodic", "solve", "--per-a", "3", "--per-b", "1", "--json"]
    _, out1, _ = invoke(args)
    _, out2, _ = invoke(args)
    assert out1 == out2
    _, out3, _ = invoke(args, env={"MCF_PRECISION_BUDGET": "8"})
    _, out4, _ = invoke(args, env={"MCF_PRECISION_BUDGET": "256"})
    assert out1 == out3 == out4


@pytest.mark.parametrize("name,argv", [
    ("root", []),
    ("expand", ["expand"]),
    ("convergents", ["convergents"]),
    ("periodic", ["periodic"]),
    ("periodic_solve", ["periodic", "solve"]),
    ("construct", ["construct"]),
    ("construct_liouville", ["construct", "liouville"]),
    ("construct_quasiperiodic", ["construct", "quasiperiodic"]),
    ("verify", ["verify"]),
    ("verify_admissible", ["verify", "admissible"]),
    ("verify_bounds", ["verify", "bounds"]),
    ("verify_growth", ["verify", "growth"]),
    ("verify_liouville", ["verify", "liouville"]),
    ("verify_main1", ["verify", "main1"]),
    ("verify_main2", ["verify", "main2"]),
])
def test_help_golden(name, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--help"])
    assert exc.value.code == 0
    golden = (GOLDEN / f"help_{name}.txt").read_text()
    assert buf.getvalue() == golden


def test_import_leaves_int_digit_cap_alone():
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONINTMAXSTRDIGITS="4300")
    probe = "import sys, mcf, mcf.cli; print(sys.get_int_max_str_digits())"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "4300"


def test_huge_integers_cross_the_wire_under_the_default_cap(files):
    digits = "123456789" * 22_223  # 200,007 digits
    doc = {"m": 1, "seqs": [[digits]]}
    with int_digit_cap(4300):
        assert pq_to_json(pq_from_json(doc)) == doc
        code, out, _ = invoke(["convergents", "--pq", files("big.json", doc), "--depth", "0",
                               "--emit", "csv"])
        assert sys.get_int_max_str_digits() == 4300
    assert code == 0
    assert out == f"n,A1,C\n0,{digits},1\n"


def test_library_messages_and_literals_with_huge_integers():
    from mcf import HypothesisViolated, OracleExhausted
    from mcf.convergents import growth_check
    from mcf.exact_reals import DecimalOracle
    from mcf.recurrence import PartialQuotients, check_admissible

    big = 10**5000
    with int_digit_cap(0):
        text = str(big)
    with int_digit_cap(4300):
        with pytest.raises(HypothesisViolated, match=f"= {text} >"):
            growth_check(PartialQuotients.from_lists([0, big], [0, 0]), M=5)
        report = check_admissible(PartialQuotients.from_lists([0, 1], [0, big]))
        assert text in report.violations[0].message
        assert DecimalOracle("0." + "3" * 5000).enclosure(0).width == Fraction(2, 10**5000)
        with pytest.raises(OracleExhausted, match=r"no precision beyond 10\^-5000 ") as exc:
            DecimalOracle("0." + "3" * 5000).enclosure(1)
        assert len(str(exc.value)) < 200  # the literal is quoted, not echoed whole
        assert sys.get_int_max_str_digits() == 4300


def test_liouville_past_the_radix_cutoff_round_trips(tmp_path):
    from mcf import LiouvilleSpec, const_rule, construct_liouville
    from mcf.serialization import dumps_stable

    code, out, _ = invoke(["construct", "liouville", "--m", "2", "--delta", "1",
                           "--b-rule", "const:0", "--depth", "13"])
    assert code == 0
    pq = construct_liouville(LiouvilleSpec(2, Fraction(1), 13, (const_rule(0),)))
    assert max(v.bit_length() for v in pq.seqs[0]) > BIG_BITS
    with int_digit_cap(0):
        plain = {"m": 2, "seqs": [[str(v) for v in s] for s in pq.seqs]}
    assert out == dumps_stable(plain) + "\n"
    path = tmp_path / "li.json"
    path.write_text(out)
    code, out, _ = invoke(["verify", "liouville", "--pq", str(path), "--delta", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] == "hypotheses-hold-to-depth"


@st.composite
def wire_pqs(draw):
    """Ragged pqs, m = 1..4, empty sequences included: ints of both signs, some past the
    radix cutoff, each entry an int or an integral Decimal."""
    value = st.one_of(st.integers(-10**6, 10**6), st.integers(-(1 << 3000), 1 << 3000))
    entry = st.tuples(value, st.booleans()).map(lambda vd: to_decimal(vd[0]) if vd[1] else vd[0])
    m = draw(st.integers(1, 4))
    seqs = draw(st.lists(st.lists(entry, max_size=5), min_size=m, max_size=m))
    return QuotientRows(m, tuple(map(tuple, seqs)))


@settings(max_examples=80, deadline=None)
@given(wire_pqs())
@example(QuotientRows(1, ((),)))
@example(QuotientRows(3, ((0, -1), (), (to_decimal(-(1 << 2000)),))))
def test_write_pq_writes_the_bytes_of_the_document(pq):
    pieces = []
    ser.write_pq(pq, pieces.append)
    assert "".join(pieces) == dumps_stable(pq_to_json(pq)) + "\n"


def test_construct_liouville_holds_no_copy_of_its_document():
    # Writing value by value adds less than one head's digits to the heap peak of the
    # construction itself; a document built whole before writing (about four copies
    # of it) adds more.
    argv = ["construct", "liouville", "--m", "2", "--delta", "1", "--depth", "16", "--b-rule", "const:0"]
    spec = LiouvilleSpec(2, Fraction(1), 16, (const_rule(0),))

    def rows():
        with decimal.localcontext(EXACT):
            return liouville_rows(spec, to_decimal)

    def peak(fn):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base

    head_digits = rows().seqs[0][-1].adjusted() + 1
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        assert run(argv) == 0  # every layer executed before anything is traced
        tracemalloc.start()
        try:
            rows_peak = peak(rows)
            command_peak = peak(lambda: run(argv))
        finally:
            tracemalloc.stop()
    assert head_digits > 800_000
    assert command_peak - rows_peak < head_digits


@st.composite
def table_pqs(draw):
    """Ragged pqs, m = 1..4: small quotients of both signs, zeros included, and up to
    two of BIG_BITS bits or more; a depth up to past the rectangular range."""
    m = draw(st.sampled_from([1, 2, 3, 4]))
    length = draw(st.integers(0, 7))
    seqs = [draw(st.lists(st.integers(-4, 9), min_size=length, max_size=length + 2)) for _ in range(m)]
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        seq = seqs[rng.randrange(m)]
        if seq:
            seq[rng.randrange(len(seq))] = rng.choice([1, -1]) * rng.getrandbits(BIG_BITS + rng.randrange(8000))
    return PartialQuotients(m, tuple(map(tuple, seqs))), draw(st.integers(0, length + 3))


@settings(max_examples=60, deadline=None)
@given(table_pqs())
@example((PartialQuotients(2, ((-3, 0, -(1 << BIG_BITS) - 5, 2), (0, -1, 0))), 6))
def test_convergents_table_equals_the_int_reference(case):
    # the exact-decimal table prints exactly str() of the int columns and lag products
    pq, depth = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pq.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pq_to_json(pq), fh)
        for emit in ("csv", "jsonl"):
            code, out, _ = invoke(["convergents", "--pq", path, "--depth", str(depth), "--emit", emit])
            assert code == 0
            with int_digit_cap(0):
                assert out == convergents_stdout(pq, depth, emit)
            if emit == "csv":
                cells = [c for line in out.splitlines() for c in line.split(",")]
            else:
                rows = [json.loads(line) for line in out.splitlines()]
                cells = [v for r in rows for v in (*r["A"], r["C"], *r.get("aux", {}).values())]
            assert "-0" not in cells  # Decimal 0 times a negative is -0


def test_trace_bit_hook_on_step_sees_int_columns(monkeypatch):
    # perfbench's tracer reads r.C.bit_length() after every ConvergentState.step
    # (perfbench/tracer.py HOOKS); the CLI must only ever step int columns
    step, bits = ConvergentState.step, []

    def traced(self, a):
        r = step(self, a)
        bits.append(r.C.bit_length())
        return r

    monkeypatch.setattr(ConvergentState, "step", traced)
    pq = str(GOLDEN / "pq_m2.json")
    for argv in (["convergents", "--pq", pq, "--depth", "39", "--emit", "csv"],
                 ["convergents", "--pq", pq, "--depth", "39", "--emit", "jsonl"],
                 ["verify", "bounds", "--pq", pq],
                 ["verify", "growth", "--pq", pq, "--M", "7", "--d", "2"]):
        code, _, err = invoke(argv)
        assert (code, err) == (0, "")
    assert bits  # the verify commands step through the hook


def test_trace_bit_hooks_on_liouville_see_ints(monkeypatch, tmp_path):
    # perfbench's tracer also reads .bit_length() on the heads of construct_liouville's
    # result and of verify_liouville's first argument; the Liouville commands compute
    # in Decimal, so no Decimal may reach any of the three hooked callables
    from mcf import liouville

    bits = []

    def hooked(fn, before, after):
        def call(*args, **kwargs):
            before(args)
            result = fn(*args, **kwargs)
            after(result)
            return result
        return call

    def nothing(_):
        pass

    def heads(pq):
        bits.extend(v.bit_length() for v in pq.seqs[0])

    monkeypatch.setattr(ConvergentState, "step", hooked(
        ConvergentState.step, nothing, lambda r: bits.append(r.C.bit_length())))
    monkeypatch.setattr(liouville, "construct_liouville", hooked(
        liouville.construct_liouville, nothing, heads))
    monkeypatch.setattr(liouville, "verify_liouville", hooked(
        liouville.verify_liouville, lambda args: heads(args[0]), nothing))
    path = tmp_path / "li.json"
    for delta in ("1", "3/2"):
        code, out, err = invoke(["construct", "liouville", "--m", "2", "--delta", delta,
                                 "--b-rule", "cycle:0,1", "--a0", "2", "--depth", "9"])
        assert (code, err) == (0, "")
        path.write_text(out)
        code, _, err = invoke(["verify", "liouville", "--pq", str(path), "--delta", delta])
        assert (code, err) == (0, "")
    spec = LiouvilleSpec(2, Fraction(3, 2), 9, (cycle_rule([0, 1]),), head=2)
    assert all(type(v) is int for s in liouville.construct_liouville(spec).seqs for v in s)
    assert bits  # the library call went through its hook


def test_verify_growth_names_a_denominator_below_2_in_log_log(files):
    # C_2 = 0 here and every d hypothesis holds, so log log C_2 cannot be formed
    pq = files("c2_zero.json", {"m": 2, "seqs": [["0", "1", "0", "-1"], ["0", "0", "0", "0"]]})
    code, out, err = invoke(["verify", "growth", "--pq", pq, "--d", "1"])
    assert (code, out) == (2, "")
    assert err == "input error: log log C_2 needs C_2 >= 2, got C_2 = 0\n"


DELTAS = ["1", "2", "1/2", "3/2", "2/3"]


@st.composite
def liouville_cases(draw):
    """CLI arguments of a construction: m = 2, 3, each tail rule const, cycle or list
    (a short list runs out: an input error), a head a0 of either sign, and the
    verify side's --depth and one head lowered by 1 (or none)."""
    m = draw(st.sampled_from([2, 3]))
    depth = draw(st.integers(1, 9))
    rules = []
    for _ in range(m - 1):
        kind = draw(st.sampled_from(["const", "cycle", "list"]))
        size = 1 if kind == "const" else draw(st.integers(1, depth + 2))
        values = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        rules.append(f"{kind}:{','.join(map(str, values))}")
    return {
        "m": m, "delta": draw(st.sampled_from(DELTAS)), "depth": depth, "rules": rules,
        "a0": draw(st.integers(-3, 3)),
        "upto": draw(st.none() | st.integers(0, depth + 1)),
        "lowered": draw(st.none() | st.integers(1, depth)),
    }


def _rule(text):
    kind, _, payload = text.partition(":")
    values = [int(v) for v in payload.split(",")]
    return {"const": lambda: const_rule(values[0]), "cycle": lambda: cycle_rule(values),
            "list": lambda: seq_rule(values)}[kind]()


@settings(max_examples=60, deadline=None)
@given(liouville_cases())
@example({"m": 2, "delta": "1", "depth": 9, "rules": ["const:0"], "a0": 0, "upto": None, "lowered": 9})
@example({"m": 3, "delta": "1/2", "depth": 9, "rules": ["cycle:1,0,2", "const:0"], "a0": -3,
          "upto": 7, "lowered": 5})
@example({"m": 2, "delta": "2/3", "depth": 9, "rules": ["list:0,1,1"], "a0": 1, "upto": None,
          "lowered": None})
def test_liouville_commands_match_the_library_int_route(case):
    # the CLI computes in Decimal under EXACT; the library in ints.  Depths reach past
    # 28 digits, where arithmetic outside EXACT would round.
    spec = (case["m"], Fraction(case["delta"]), case["depth"], tuple(map(_rule, case["rules"])))
    argv = ["construct", "liouville", "--m", str(case["m"]), "--delta", case["delta"],
            "--depth", str(case["depth"]), "--a0", str(case["a0"])]
    for rule in case["rules"]:
        argv += ["--b-rule", rule]
    code, out, err = invoke(argv)
    try:
        pq = construct_liouville(LiouvilleSpec(*spec, head=case["a0"]))
    except InputError as exc:
        assert (code, out, err) == (2, "", f"input error: {exc}\n")
        return
    assert (code, err) == (0, "")
    assert out == dumps_stable(pq_to_json(pq)) + "\n"

    doc = json.loads(out)
    if case["lowered"] is not None:
        k = case["lowered"]
        doc["seqs"][0][k] = int_to_str(str_to_int(doc["seqs"][0][k]) - 1)
    upto = case["upto"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "li.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["verify", "liouville", "--pq", str(path), "--delta", case["delta"],
                                 *([] if upto is None else ["--depth", str(upto)])])
    report = verify_liouville(pq_from_json(doc), Fraction(case["delta"]), upto)
    assert (code, out, err) == (0 if report.ok else 1,
                                dumps_stable(criterion_report_to_json(report)) + "\n", "")
