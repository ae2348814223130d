"""Liouville-type and quasi-periodic constructions and their checkers."""

import decimal
import itertools
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import (column_table, exceeds_rational_power, liouville_first_violation, seq_rule,
                        tildes, verify_quasiperiodic)

from mcf import (
    AdmissibilityError,
    AlgebraicValue,
    InputError,
    LiouvilleSpec,
    NumberField,
    RationalInterval,
    ScheduleOverlap,
    const_rule,
    construct_liouville,
    expand,
    verify_liouville,
)
from mcf.convergents import approx_witnesses, bound_checks, k_interval, limit_values
from mcf.liouville import cycle_rule, seq_rule as mcf_seq_rule
from mcf.logs import log_enclosure, power_sign
from mcf.radix import EXACT, int_to_str, iroot_floor, to_decimal
from mcf.recurrence import LagProducts, PartialQuotients, check_admissible, conv_stream
from mcf.transcendence import (
    QuasiPeriodicSpec,
    _log_ratio_string,
    build_quasiperiodic,
    main1_check,
    main2_check,
    main2_constant,
    roth_scan,
)

SRC = Path(__file__).parents[1] / "src"


def test_construct_liouville_hand_values():
    spec = LiouvilleSpec(m=2, delta=Fraction(1), depth=6, tail_rules=(const_rule(0),), head=0)
    pq = construct_liouville(spec)
    assert pq.seqs[0][:4] == (0, 2, 5, 51)
    assert set(pq.seqs[1]) == {0}
    assert check_admissible(pq).ok
    report = verify_liouville(pq, Fraction(1))
    assert report.ok and report.verdict == "hypotheses-hold-to-depth"


def test_construct_liouville_m3():
    spec = LiouvilleSpec(
        m=3, delta=Fraction(1), depth=12,
        tail_rules=(cycle_rule([1, 0, 2]), const_rule(0)), head=1,
    )
    pq = construct_liouville(spec)
    assert check_admissible(pq).ok
    assert verify_liouville(pq, Fraction(1), upto=12).ok
    # re-evaluate the inequality from the emitted quotients directly
    cols, off = column_table(pq)
    for n in range(1, 13):
        t = max(abs(v) for v in tildes(cols[off + n], cols[off + n - 1]))
        assert pq.seqs[0][n] > t * cols[off + n - 1].C


def test_construct_liouville_rational_delta():
    spec = LiouvilleSpec(m=2, delta=Fraction(1, 2), depth=8, tail_rules=(const_rule(1),), head=0)
    pq = construct_liouville(spec)
    assert verify_liouville(pq, Fraction(1, 2)).ok
    # a stricter exponent must eventually fail
    assert not verify_liouville(pq, Fraction(5)).ok


def test_verify_liouville_flags_bounded_sequences():
    pq = PartialQuotients.from_lists([0] + [1] * 12, [0] + [0] * 12)
    report = verify_liouville(pq, Fraction(1))
    assert not report.ok
    idx = report.hypotheses[0].first_violation
    assert idx is not None and idx <= 3
    assert report.verdict == f"violated-at({idx})"


def test_roth_scan_liouville_contains_witnesses():
    spec = LiouvilleSpec(m=2, delta=Fraction(1), depth=14, tail_rules=(const_rule(0),), head=0)
    pq = construct_liouville(spec)
    xs = limit_values(pq)
    wit = approx_witnesses(xs, pq, 10, coords=[1])
    hits = roth_scan(xs, pq, Fraction(1, 2), 10, coords=[1])
    assert set(wit) <= set(hits)
    assert len(wit) >= 4


def roth_hits_by_brackets(brackets, pq, epsilon, upto, coords):
    """Indices n <= upto with |x_i - A_n^(i)/C_n|^q < 1/C_n^(2q+p) for each 1-based i in
    coords, each decided in Fractions on the brackets [lo, hi] = brackets(bits)[i - 1] of x,
    refined until the inequality separates (the values here never tie)."""
    p, q = epsilon.numerator, epsilon.denominator
    hits = []
    for col in conv_stream(pq, upto):
        bound = Fraction(1, col.C ** (2 * q + p))

        def holds(i):
            center = Fraction(col.A[i - 1], col.C)
            for bits in itertools.count(64, 64):
                lo, hi = (v - center for v in brackets(bits)[i - 1])
                near = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
                if max(abs(lo), abs(hi)) ** q < bound:
                    return True
                if near**q >= bound:
                    return False

        if all(holds(i) for i in coords):
            hits.append(col.n)
    return hits


def test_roth_scan_decides_an_even_root_as_the_exact_inequality():
    # epsilon = 1/2 is the query 2 log|x - A_n/C_n| + 5 log C_n < 0 (exact products of
    # enclosure ends, weight 7) on (2^(1/3), 2^(2/3)), against brackets from integer cube
    # roots, and on the convergent of index 12: a rational pair, exact, met again at n = 12
    theta = NumberField([-2, 0, 0, 1], RationalInterval(1, 2)).gen()
    pair = [AlgebraicValue(theta), AlgebraicValue(theta * theta)]
    pq = expand(pair, 42).pq

    def cube_roots(bits):
        return [(Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits))
                for r in (iroot_floor(k << 3 * bits, 3) for k in (2, 4))]

    col = list(conv_stream(pq, 12))[-1]
    rational = [Fraction(col.A[0], col.C), Fraction(col.A[1], col.C)]
    for x, brackets in ((pair, cube_roots), (rational, lambda bits: [(v, v) for v in rational])):
        for coords in ([1, 2], [1], [2]):
            hits = roth_scan(x, pq, Fraction(1, 2), 40, coords=coords)
            assert hits == roth_hits_by_brackets(brackets, pq, Fraction(1, 2), 40, coords)
            assert 0 < len(hits) < 41 and (12 in hits) == (x is rational)


def test_roth_scan_at_a_billionth_answers_within_a_second():
    # epsilon = 1/10^9: each test is 10^9 log|x - A_n/C_n| + (2 10^9 + 1) log C_n < 0,
    # against the same inequality in mpmath at 300 digits
    theta = NumberField([-2, 0, 0, 1], RationalInterval(1, 2)).gen()
    pair = [AlgebraicValue(theta), AlgebraicValue(theta * theta)]
    pq = expand(pair, 8).pq
    start = time.perf_counter()
    hits = roth_scan(pair, pq, Fraction(1, 10**9), 5)
    assert time.perf_counter() - start < 1
    with mpmath.workdps(300):
        x = [mpmath.cbrt(2), mpmath.cbrt(4)]
        exponent = 2 + mpmath.mpf(1) / 10**9
        expected = [col.n for col in conv_stream(pq, 5)
                    if all(abs(x[i] - mpmath.mpf(col.A[i]) / col.C) < mpmath.mpf(col.C) ** -exponent
                           for i in range(2))]
    assert hits == expected == [0, 1, 2]


def test_constructed_heads_at_a_weight_past_the_exact_step_are_decided_by_products():
    # delta = 5/3 weighs 3 + 3 + 5 = 11 > EXACT_WEIGHT, and each constructed head sits within
    # 1/r of t C^delta, where logarithms would need as many bits as the head: the exact
    # products, a few times the head's size, are formed once the log precision squared
    # exceeds their bits
    spec = LiouvilleSpec(m=2, delta=Fraction(5, 3), depth=10, tail_rules=(const_rule(0),), head=0)
    pq = construct_liouville(spec)
    assert pq.seqs[0][-1].bit_length() > 50_000
    start = time.perf_counter()
    assert verify_liouville(pq, Fraction(5, 3)).verdict == "hypotheses-hold-to-depth"
    assert time.perf_counter() - start < 2


HAND_MADE = {"m": 2, "seqs": [["0", "3", "7"], ["0", "1", "5"]]}  # at n = 2: a = 7, t = 5, C_1 = 3


@pytest.mark.parametrize("delta, reduced, verdict", [
    ("1/1000000000", "1/9", "hypotheses-hold-to-depth"),  # 7 > 5 3^delta, 3^delta < 7/5
    ("1000000001/1000000000", "10/9", "violated-at(2)"),  # 5 3^delta > 15 > 7
    ("1000000001/1000", "10001/10", "violated-at(2)"),
])
def test_hand_made_heads_at_huge_denominators_answer_within_a_second(tmp_path, delta, reduced, verdict):
    # a q-th power of a head here would hold about a gigabit: each head is one log_sign
    # query.  The verdict is the one exact powers give at a reduced denominator
    path = tmp_path / "hand_made.json"
    path.write_text(json.dumps(HAND_MADE))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    out = subprocess.run(["timeout", "10", sys.executable, "-m", "mcf.cli", "verify", "liouville",
                          "--pq", str(path), "--delta", delta], env=env, capture_output=True, text=True)
    assert time.perf_counter() - start < 5  # the interpreter's start included
    assert (out.returncode, out.stderr) == (0 if verdict.startswith("hyp") else 1, "")
    assert json.loads(out.stdout)["verdict"] == verdict
    pq = PartialQuotients.from_lists(*([int(v) for v in seq] for seq in HAND_MADE["seqs"]))
    first = liouville_first_violation(pq, Fraction(reduced))
    assert verdict == ("hypotheses-hold-to-depth" if first is None else f"violated-at({first})")


def test_construction_past_the_power_cap_exits_3_naming_the_index():
    # floor(C_1^delta) at delta = (10^9 + 1)/10^9 would take the root of a 3-Gbit C_1^p
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(["timeout", "10", sys.executable, "-m", "mcf.cli", "construct", "liouville", "--m", "2",
                          "--delta", "1000000001/1000000000", "--depth", "3", "--b-rule", "const:0"],
                         env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (3, "")
    assert "index 2" in out.stderr and "C_1^1000000001" in out.stderr


def test_roth_scan_epsilon_validation():
    pq = PartialQuotients.from_lists([0, 1], [0, 0])
    with pytest.raises(InputError):
        roth_scan([Fraction(1, 2), Fraction(1, 3)], pq, 0, 1)
    with pytest.raises(InputError):
        roth_scan([Fraction(1, 2), Fraction(1, 3)], pq, Fraction(-1, 2), 1)


@pytest.mark.parametrize("coords,upto", [([0], 5), ([3], 5), (None, 12)],
                         ids=["coordinate-0", "coordinate-past-m", "past-the-pq"])
def test_scans_reject_bad_coordinates_and_ranges(coords, upto):
    from mcf import AlgebraicValue, NumberField, RationalInterval, expand

    theta = NumberField([-2, 0, 0, 1], RationalInterval(1, 2)).gen()
    pair = [AlgebraicValue(theta), AlgebraicValue(theta * theta)]
    pq = expand(pair, 12).pq
    assert pq.rect_len == 12
    with pytest.raises(InputError):
        roth_scan(pair, pq, Fraction(1), upto, coords=coords)
    with pytest.raises(InputError):
        approx_witnesses(pair, pq, upto, coords=coords)


def test_roth_scan_algebraic_regression():
    from mcf import AlgebraicValue, NumberField, RationalInterval, expand

    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    theta = field.gen()
    pair = [AlgebraicValue(theta), AlgebraicValue(theta * theta)]
    rec = expand(pair, 102)
    # regression fixtures: the observed short lists for this algebraic pair,
    # consistent with only finitely many solutions existing
    assert roth_scan(pair, rec.pq, Fraction(1), 100) == [0, 1]
    assert roth_scan(pair, rec.pq, Fraction(1), 100, coords=[1]) == [0, 1, 3]
    assert roth_scan(pair, rec.pq, Fraction(1), 100, coords=[2]) == [0, 1]


def scan_hits_by_fractions(x, pq, upto, coords, holds):
    """Indices n <= upto at which holds(x_i, column n, column n + 1, i) for every checked
    0-based i; a column with C_n = 0 has no convergent A_n/C_n and is no hit."""
    cols = list(conv_stream(pq))
    which = range(pq.m) if coords is None else [c - 1 for c in coords]
    return [n for n in range(upto + 1)
            if cols[n].C and all(holds(x[i], cols[n], cols[n + 1] if n + 1 < len(cols) else None, i)
                                 for i in which)]


def roth_holds(epsilon):
    p, q = epsilon.numerator, epsilon.denominator
    return lambda x, col, nxt, i: abs(x - Fraction(col.A[i], col.C)) ** q < Fraction(1, col.C ** (2 * q + p))


def witness_holds(x, col, nxt, i):  # |x - A_n/C_n| < |ac1_(n+1)| / (C_(n+1) C_n), where defined
    ac1 = nxt.A[i] * col.C - col.A[i] * nxt.C
    return bool(nxt.C) and abs(x - Fraction(col.A[i], col.C)) < Fraction(abs(ac1), nxt.C * col.C)


@st.composite
def rational_scans(draw):
    """Small signed quotients, so that C_n <= 0 occurs (most draws are not admissible), a
    rational point whose coordinates are often convergents of the pq, and coordinates."""
    m, length = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    pq = PartialQuotients.from_lists(*(draw(st.lists(st.integers(-3, 4), min_size=length, max_size=length))
                                       for _ in range(m)))
    centers = [Fraction(col.A[i], col.C) for col in conv_stream(pq) if col.C for i in range(m)]
    x = [draw(st.sampled_from(centers) | st.fractions(-3, 3, max_denominator=40)) for _ in range(m)]
    return pq, x, draw(st.none() | st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True))


@settings(max_examples=300, deadline=None)
@given(rational_scans())
def test_scans_of_rational_points_equal_their_inequalities_in_fractions(case):
    # rational gaps are exact, so each log_sign query is the exact inequality
    pq, x, coords = case
    last = pq.rect_len - 1
    for epsilon in (Fraction(1), Fraction(1, 2), Fraction(2)):
        assert roth_scan(x, pq, epsilon, last, coords) == scan_hits_by_fractions(
            x, pq, last, coords, roth_holds(epsilon))
    assert approx_witnesses(x, pq, last - 1, coords) == scan_hits_by_fractions(
        x, pq, last - 1, coords, witness_holds)


def test_scans_treat_a_zero_denominator_as_no_convergent():
    # C_2 = 0 and C_3 = -1: Fraction(A_2, C_2) is never formed
    pq = PartialQuotients.from_lists([0, 1, 0, -1, 2, 1], [0, 0, 0, -2, 0, 0])
    assert [col.C for col in conv_stream(pq)][:4] == [1, 1, 0, -1]
    pair = [Fraction(1, 3), Fraction(1, 5)]
    assert roth_scan(pair, PartialQuotients.from_lists([0, 1, 0, -1, 2, 1], [0] * 6), 2, 4) == [0, 1]
    assert roth_scan(pair, pq, 2, 4) == scan_hits_by_fractions(pair, pq, 4, None, roth_holds(Fraction(2)))
    assert approx_witnesses(pair, pq, 4) == scan_hits_by_fractions(pair, pq, 4, None, witness_holds)


def test_build_quasiperiodic_copy_layout():
    spec = QuasiPeriodicSpec(
        m=2,
        schedule=((1, 2, 3),),
        base_rules=(seq_rule([9, 4, 7] + [2] * 20), seq_rule([0, 1, 0] + [1] * 20)),
    )
    pq = build_quasiperiodic(spec, 10)
    a = pq.seqs[0]
    assert a[1:3] == a[3:5] == a[5:7]  # positions 1-2 copied to 3-4 and 5-6
    assert verify_quasiperiodic(pq, spec.schedule).ok


def test_build_quasiperiodic_truncates_and_validates():
    spec = QuasiPeriodicSpec(
        m=2, schedule=((2, 3, 5),), base_rules=(const_rule(2), const_rule(1))
    )
    pq = build_quasiperiodic(spec, 9)
    assert pq.rect_len == 9
    assert verify_quasiperiodic(pq, spec.schedule).ok

    bad = QuasiPeriodicSpec(
        m=2, schedule=((1, 1, 2),),
        base_rules=(seq_rule([1, 2, 2], then=1), seq_rule([0, 2, 0], then=0)),
    )
    with pytest.raises(AdmissibilityError):
        # copying the tie (2,2) to index 2 forces b_3 >= 1 but base has 0
        build_quasiperiodic(bad, 6)


def test_schedule_validation():
    with pytest.raises(ScheduleOverlap):
        QuasiPeriodicSpec(
            m=2, schedule=((1, 2, 3), (4, 1, 1)),
            base_rules=(const_rule(2), const_rule(1)),
        )
    with pytest.raises(InputError):
        QuasiPeriodicSpec(
            m=2, schedule=((0, 2, 3),), base_rules=(const_rule(2), const_rule(1))
        )
    for starts in ((5, 5), (5, 3)):
        with pytest.raises(ScheduleOverlap, match="^schedule starts must be strictly increasing$"):
            QuasiPeriodicSpec(m=2, schedule=tuple((n, 1, 1) for n in starts),
                              base_rules=(const_rule(2), const_rule(1)))


def test_build_quasiperiodic_idempotent():
    spec = QuasiPeriodicSpec(
        m=2, schedule=((1, 2, 3), (8, 2, 2)),
        base_rules=(cycle_rule([2, 3]), cycle_rule([1, 0])),
    )
    pq = build_quasiperiodic(spec, 14)
    rebuilt = build_quasiperiodic(
        QuasiPeriodicSpec(
            m=2, schedule=spec.schedule,
            base_rules=(seq_rule(pq.seqs[0]), seq_rule(pq.seqs[1])),
        ),
        14,
    )
    assert rebuilt.seqs == pq.seqs


def test_main1_check_ratio_trend_and_violations():
    # lambda_k = 2**(n_k * k): log ratio = k log 2, strictly increasing
    schedule = []
    pos = 1
    for k in range(1, 4):
        lam = 2 ** (pos * k)
        schedule.append((pos, 1, lam))
        pos += lam + 1
    spec = QuasiPeriodicSpec(
        m=2, schedule=tuple(schedule), base_rules=(const_rule(2), const_rule(1))
    )
    report = main1_check(spec, d=2, c=Fraction(2), depth=30)
    assert report.ok
    floats = [float(s) for s in report.data["log_lambda_over_n"]]
    assert floats == sorted(floats) and floats[0] < floats[-1]
    assert report.data["monotone_nondecreasing"] == "true"
    # decided as lambda_k^(n_(k+1)) <= lambda_(k+1)^(n_k), not on the 20-digit strings
    for sched, flag in ((((1, 1, 2), (80, 1, 2**80 - 1)), "false"),
                        (((1, 1, 2), (80, 1, 2**80)), "true"),
                        (((1, 1, 2), (3, 1, 8)), "true")):
        spec4 = QuasiPeriodicSpec(m=2, schedule=sched, base_rules=(const_rule(2), const_rule(1)))
        data = main1_check(spec4, d=2, c=Fraction(2), depth=12).data
        assert data["monotone_nondecreasing"] == flag
    assert data["log_lambda_over_n"][0] == data["log_lambda_over_n"][1]

    # r_k = c n_k exactly violates the strict window hypothesis
    spec2 = QuasiPeriodicSpec(
        m=2, schedule=((2, 2, 2),), base_rules=(const_rule(2), const_rule(1))
    )
    report2 = main1_check(spec2, d=2, c=Fraction(1), depth=12)
    assert not report2.ok
    assert report2.hypotheses[1].first_violation == 0

    # a Liouville-style spike breaks a_(i+1) < C_i^1
    spec3 = QuasiPeriodicSpec(
        m=2, schedule=((5, 1, 2),),
        base_rules=(seq_rule([2, 3, 2, 9, 2, 2, 2, 2, 2, 2], then=2), const_rule(1)),
    )
    report3 = main1_check(spec3, d=1, c=Fraction(2), depth=8)
    assert not report3.ok
    assert report3.hypotheses[0].name == "head-below-denominator-power"
    assert report3.hypotheses[0].first_violation == 3
    assert report3.verdict == "violated-at(3)"

    # d < 1 is rejected as in growth_check (a negative d used to compare against a float)
    for d in (0, -1):
        with pytest.raises(InputError):
            main1_check(spec3, d=d, c=Fraction(2), depth=8)


def test_no_thread_sees_mpmath_precision_move():
    # the certified logarithms and the ratio strings compute in integers (mcf.logs), so a
    # thread that uses mpmath beside them never sees its global iv.prec or mp.dps change
    done = threading.Event()
    seen = set()

    def watch_elsewhere():
        while not done.is_set():
            seen.add((mpmath.iv.prec, mpmath.mp.dps))

    before = (mpmath.iv.prec, mpmath.mp.dps)
    other = threading.Thread(target=watch_elsewhere)
    other.start()
    try:
        for n in range(1, 60):
            k_interval(n, 2, Fraction(1, 10**30))
            log_enclosure(log_enclosure(3**n, 512), 512)
            _log_ratio_string(n + 1, n)
    finally:
        done.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert seen == {before}


def test_main2_constant_variants():
    exact = main2_constant(1, "statement")
    assert exact.lo == exact.hi == 1

    b38 = main2_constant(1, "lemma38")
    assert b38.lo < Fraction(219, 100) < b38.hi or (
        Fraction(218, 100) < b38.lo < Fraction(219, 100)
    )
    assert b38.width <= Fraction(1, 10**9)

    b18 = main2_constant(1, "proof18")
    assert Fraction(276, 10) < b18.lo < Fraction(278, 10)

    with pytest.raises(InputError):
        main2_constant(1, "bogus")


def test_main2_check_threshold():
    base = (const_rule(1), const_rule(0))
    # B(statement, 1) = 1 exactly; lambda_k = 2 n_k + 1 exceeds it
    schedule = ((2, 1, 5), (10, 1, 21))
    spec = QuasiPeriodicSpec(m=2, schedule=schedule, base_rules=base)
    report = main2_check(spec, M=1, r_bound=1, variant="statement", depth=40)
    assert report.ok
    assert report.data["proxy_exceeds_B"] == "true"
    assert report.data["first_exceed_index"] == "0"

    # lambda_k = 1: ratios 1/n_k stay below B for every variant with B >= 1
    spec2 = QuasiPeriodicSpec(
        m=2, schedule=((3, 1, 1), (7, 1, 1)), base_rules=base
    )
    report2 = main2_check(spec2, M=1, r_bound=1, variant="statement", depth=20)
    assert report2.data["proxy_exceeds_B"] == "false"

    # a quotient above M is a hypothesis violation
    spec3 = QuasiPeriodicSpec(
        m=2, schedule=((2, 1, 2),), base_rules=(const_rule(2), const_rule(1))
    )
    report3 = main2_check(spec3, M=1, r_bound=1, variant="statement", depth=10)
    assert not report3.ok
    assert report3.hypotheses[0].first_violation == 0
    assert report3.verdict == "violated-at(0)"


def test_main2_check_names_the_first_window_longer_than_r_bound():
    spec = QuasiPeriodicSpec(m=2, schedule=((2, 1, 5), (10, 3, 2), (40, 4, 3)),
                             base_rules=(const_rule(1), const_rule(0)))
    report = main2_check(spec, M=1, r_bound=2, variant="statement", depth=60)
    window = report.hypotheses[1]
    assert (window.name, window.ok, window.first_violation) == ("window-length-bounded", False, 1)
    assert not report.ok


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 4096), st.one_of(st.integers(1, 6), st.integers(4000, 17000)),
       st.sampled_from([int, to_decimal]))
def test_iroot_floor_brackets_the_root(x, n, number):
    # n past 4096 (bits) and 4 * 1234 (digits) takes the root-is-1 shortcut
    # an integral Decimal under EXACT gives the int root, as an integral Decimal
    with decimal.localcontext(EXACT):
        r = iroot_floor(number(x), n)
        assert r**n <= x < (r + 1) ** n
    assert type(r) is type(number(x)) and int_to_str(r) == int_to_str(iroot_floor(x, n))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(0, 10**5), st.sampled_from([-1, 0, 1, None]),
       st.randoms(use_true_random=False), st.sampled_from([int, to_decimal]))
def test_iroot_floor_brackets_the_root_of_values_up_to_100000_bits(n, bits, offset, rng, number):
    # random values, and perfect powers and their neighbours, where a start or a Newton
    # step one off the root would show; the root of the top digits seeds each level
    r = rng.getrandbits(max(1, bits // n))
    x = rng.getrandbits(bits) if offset is None else max(0, r**n + offset)
    with decimal.localcontext(EXACT):
        r = iroot_floor(number(x), n)
        assert r**n <= x < (r + 1) ** n
    assert type(r) is type(number(x))


@pytest.mark.parametrize("number", [int, to_decimal])
@pytest.mark.parametrize("n", [2, 3])
def test_iroot_floor_of_a_200000_bit_value_starts_near_the_root(n, number):
    # from a start far above the root, Newton's linear phase shrinks the iterate by
    # about (n-1)/n per step, for minutes at this size; from the root of the top
    # digits it takes one or two steps at each doubling of the precision
    x = number(random.Random(n).getrandbits(200_000) | 1 << 199_999)

    def expire(signum, frame):
        raise TimeoutError("the integer root took more than 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        with decimal.localcontext(EXACT):
            r = iroot_floor(x, n)
            assert r**n <= x < (r + 1) ** n
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_liouville_delta_three_halves_depth_6():
    spec = LiouvilleSpec(m=2, delta=Fraction(3, 2), depth=6, tail_rules=(const_rule(0),), head=0)
    pq = construct_liouville(spec)
    assert check_admissible(pq).ok
    assert verify_liouville(pq, Fraction(3, 2)).verdict == "hypotheses-hold-to-depth"


tail_rules = st.one_of(
    st.builds(const_rule, st.integers(0, 3)),
    st.builds(cycle_rule, st.lists(st.integers(0, 3), min_size=1, max_size=3)),
    st.builds(seq_rule, st.lists(st.integers(0, 3), max_size=4), then=st.integers(0, 3)),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_liouville_construction_passes_its_verifier(data):
    m = data.draw(st.sampled_from([2, 3]))
    delta = data.draw(st.fractions(min_value=0, max_value=2, max_denominator=8).filter(bool))
    spec = LiouvilleSpec(
        m=m,
        delta=delta,
        depth=data.draw(st.integers(1, 7)),
        tail_rules=tuple(data.draw(tail_rules) for _ in range(m - 1)),
        head=data.draw(st.integers(0, 3)),
    )
    pq = construct_liouville(spec)
    assert check_admissible(pq).ok  # the construction does not re-check its output
    assert verify_liouville(pq, delta).verdict == "hypotheses-hold-to-depth"


def signed_liouville_pq(rng: random.Random, delta: Fraction, length: int) -> PartialQuotients:
    """m = 2 quotients with signed tails and each head near +-t_n |C_(n-1)|^delta, so that
    checks pass often enough to decide heads of either sign further on."""
    heads, tails = [rng.randint(-3, 3)], [rng.randint(-3, 3)]
    for n in range(1, length):
        tails.append(rng.choice([rng.randint(-3, 3), rng.randint(-10**3, 10**3)]))
        cols, off = column_table(PartialQuotients.from_lists(heads + [0], tails))
        t = max(abs(v) for v in tildes(cols[off + n], cols[off + n - 1]))
        root = iroot_floor(abs(cols[off + n - 1].C) ** delta.numerator, delta.denominator)
        near = t * root + rng.randint(-3, 3)
        heads.append(near if rng.random() < 0.7 else -near)
    return PartialQuotients.from_lists(heads, tails)


def test_liouville_report_decides_signed_heads_over_the_reals():
    rng = random.Random(17)
    deltas = [Fraction(p, q) for q in (1, 2, 3) for p in range(1, 5) if math.gcd(p, q) == 1]
    decided = set()
    for _ in range(600):
        delta = rng.choice(deltas)
        pq = signed_liouville_pq(rng, delta, rng.randint(2, 5))
        first = liouville_first_violation(pq, delta)
        assert verify_liouville(pq, delta).hypotheses[0].first_violation == first
        for n in range(1, (first or pq.rect_len - 1) + 1):  # the indices the check decides
            decided.add((delta.denominator, pq.seqs[0][n] < 0))
    assert decided == {(q, h) for q in (1, 2, 3) for h in (False, True)}


def test_liouville_report_fails_a_head_over_a_negative_denominator_at_even_q(monkeypatch):
    # no prefix whose earlier heads pass is known to reach C_(n-1) < 0, so the lag products
    # are zeroed: then a head of 1 passes at every index, and the tail -5 makes C_2 = -4
    monkeypatch.setattr(LagProducts, "peek_lag1", lambda self, tail: dict.fromkeys(self.pairs, 0))
    pq = PartialQuotients.from_lists([0, 1, 1, 1], [0, 0, -5, 0])
    assert [col.C for col in conv_stream(pq)][:3] == [1, 1, -4]
    # C_2^(1/2) is not real, so the head at n = 3 fails; C_2^1 = -4 is, and a_3 = 1 > 0 * -4
    assert verify_liouville(pq, Fraction(1, 2)).hypotheses[0].first_violation == 3
    assert verify_liouville(pq, Fraction(1)).hypotheses[0].first_violation is None


def head_exceeds(a, t, C, p, q):
    """The head comparison liouville_report makes: a > t C^(p/q) over the reals."""
    return not (C < 0 and q % 2 == 0) and power_sign(a, t, C, p, q, "a > t C^delta") > 0


def test_head_exceeds_decides_signed_heads_and_denominators_over_the_reals():
    # the cleared comparison of liouville_report at every sign of a and C, ties included
    for q in (1, 2, 3):
        for p in (p for p in range(1, 5) if math.gcd(p, q) == 1):
            for a, t, C in itertools.product(range(-9, 10), range(4), range(-9, 10)):
                assert head_exceeds(a, t, C, p, q) == exceeds_rational_power(a, t, C, Fraction(p, q))
    # q = 10^9: C^(1/q) is 1 at C = 1 and in (1, 1 + 10^-5) for 2 <= C <= 2^4096, so with
    # C >= 1 the head exceeds exactly when a > t, also for t < a < 2t, where a > t C^(1/q)
    # is one comparison of logarithms (an even q fails a negative a or C)
    start = time.perf_counter()
    for a, t, C in itertools.product(range(-9, 10), range(4), [-5, 1, 2, 9, 1 << 4096]):
        assert head_exceeds(a, t, C, 1, 10**9) == (C >= 1 and a > t)
    assert time.perf_counter() - start < 1


@settings(max_examples=300, deadline=None)
@given(st.integers(-60, 60), st.integers(0, 8), st.one_of(st.just(0), st.integers(-60, 60)),
       st.integers(1, 6), st.integers(1, 6))
def test_head_exceeds_matches_exact_powers_at_small_q(a, t, C, p, q):
    g = math.gcd(p, q)
    assert head_exceeds(a, t, C, p // g, q // g) == exceeds_rational_power(a, t, C, Fraction(p, q))


@pytest.mark.parametrize("build", [
    lambda: const_rule(1.9),
    lambda: cycle_rule([2.5, "3"]),
    lambda: mcf_seq_rule([True, 2.7]),
    lambda: LiouvilleSpec(2, 1, 3, (const_rule(0),), head=2.9),
    lambda: construct_liouville(LiouvilleSpec(2, 1, 3, (lambda n: 0.9,))),
    lambda: QuasiPeriodicSpec(2, ((1.9, "2", True),), (const_rule(1), const_rule(0))),
    lambda: build_quasiperiodic(QuasiPeriodicSpec(2, (), (const_rule(1), lambda n: 0.0)), 3),
    lambda: bound_checks(PartialQuotients.from_lists([1, 2], [1, 0]), box=(1.5, "1")),
    lambda: LiouvilleSpec(2.0, 1, 3, (const_rule(0),)),
    lambda: construct_liouville(LiouvilleSpec(2, 1, 2.5, (const_rule(0),))),
    lambda: build_quasiperiodic(QuasiPeriodicSpec(2, (), (const_rule(1), const_rule(0))), 3.5),
], ids=["const_rule", "cycle_rule", "seq_rule", "liouville_head", "liouville_tail_rule",
        "schedule", "base_rule", "bound_checks_box", "liouville_m", "liouville_depth",
        "quasiperiodic_depth"])
def test_library_integer_inputs_are_never_truncated(build):
    with pytest.raises(InputError, match=r"^entry \d+ of .+ must be an integer, got (float|bool|str)$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: QuasiPeriodicSpec(2, ((1, 2),), (const_rule(1), const_rule(0))),
     "schedule window 0 needs 3 entries, got 2"),
    (lambda: bound_checks(PartialQuotients.from_lists([1, 2], [1, 0]), box=(1,)),
     "box needs 2 entries, got 1"),
], ids=["schedule_window", "bound_checks_box"])
def test_library_integer_tuples_of_the_wrong_length_are_input_errors(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()
