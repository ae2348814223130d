"""CLI surface: exit codes, wire formats, determinism, help goldens."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from helpers import int_digit_cap

from mcf.cli import build_parser, run
from mcf.convergents import conv_stream, k_interval
from mcf.serialization import pq_from_json, pq_to_json

GOLDEN = Path(__file__).parent / "golden"


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


def test_expand_decimal_budget_exhaustion(files):
    path = files("dec.json", [{"kind": "decimal", "digits": "1.41"},
                              {"kind": "decimal", "digits": "1.25"}])
    code, _, err = invoke(["expand", "--input", path, "--steps", "30"])
    assert code == 3
    assert "decimal" in err or "budget" in err


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


def _malformed_cases(files):
    base = files("base.json", {"m": 2, "seqs": [["1"] * 8, ["0"] * 8]})
    sched = files("sched.json", {"schedule": [[1, 1, 2]]})
    main1 = ["verify", "main1", "--base", base, "--d", "2", "--depth", "5"]
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
    }


@pytest.mark.parametrize("case", ["missing field", "sequence not a list", "minpoly not a list",
                                  "short schedule entry", "b-rule", "delta", "c"])
def test_malformed_fields_and_flags_exit_2(files, case):
    argv, message = _malformed_cases(files)[case]
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {message}") and err.count("\n") == 1


# C_2 = a_2 C_1 + b_2 sits within 137 of exp(exp(K(40, 2))), inside K's first enclosure
NEAR_TIE_A = ["0", "10000000000", "11246586545", "1"]


@pytest.mark.parametrize("b2,below", [(321307467, True), (321307667, False)])
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
    # on the near and deep ties the bit-length rung must not answer: each
    # comparison of log log C_2 goes through its enclosures
    from mcf import convergents

    seen = []
    enclose = convergents.loglog_interval
    monkeypatch.setattr(convergents, "loglog_interval", lambda c, prec: seen.append(c) or enclose(c, prec))
    cases = [(_deep_tie_pq(files)[0], "1000")]
    for b2 in (321307467, 321307667):
        cases.append((files(f"tie{b2}.json", {"m": 2, "seqs": [NEAR_TIE_A, ["0", "0", str(b2), "0"]]}),
                      "40"))
    for pq, d in cases:
        seen.clear()
        invoke(["verify", "growth", "--pq", pq, "--d", d])
        c2 = list(conv_stream(pq_from_json(json.loads(Path(pq).read_text()))))[2].C
        assert seen and set(seen) == {c2}


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
    from mcf.engine import PartialQuotients, check_admissible
    from mcf.exact_reals import DecimalOracle

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
    from mcf.radix import CUTOFF_BITS
    from mcf.serialization import dumps_stable

    code, out, _ = invoke(["construct", "liouville", "--m", "2", "--delta", "1",
                           "--b-rule", "const:0", "--depth", "13"])
    assert code == 0
    pq = construct_liouville(LiouvilleSpec(2, Fraction(1), 13, (const_rule(0),)))
    assert max(v.bit_length() for v in pq.seqs[0]) > CUTOFF_BITS
    with int_digit_cap(0):
        plain = {"m": 2, "seqs": [[str(v) for v in s] for s in pq.seqs]}
    assert out == dumps_stable(plain) + "\n"
    path = tmp_path / "li.json"
    path.write_text(out)
    code, out, _ = invoke(["verify", "liouville", "--pq", str(path), "--delta", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] == "hypotheses-hold-to-depth"
