"""Liouville-type and quasi-periodic constructions and their checkers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcf import (
    AdmissibilityError,
    InputError,
    LiouvilleSpec,
    PartialQuotients,
    QuasiPeriodicSpec,
    ScheduleOverlap,
    approx_witnesses,
    build_quasiperiodic,
    check_admissible,
    const_rule,
    construct_liouville,
    cycle_rule,
    limit_values,
    main1_check,
    main2_check,
    main2_constant,
    roth_scan,
    seq_rule,
    verify_liouville,
    verify_quasiperiodic,
)
from mcf.convergents import conv_stream, tilde_stream
from mcf.transcendence import _iroot_floor


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
    rows = list(conv_stream(pq))
    tildes = dict(tilde_stream(pq))
    for n in range(1, 13):
        t = max(abs(v) for v in tildes[n])
        assert pq.seqs[0][n] > t * rows[n - 1].C


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


def test_roth_scan_epsilon_validation():
    pq = PartialQuotients.from_lists([0, 1], [0, 0])
    with pytest.raises(InputError):
        roth_scan([Fraction(1, 2), Fraction(1, 3)], pq, 0, 1)
    with pytest.raises(InputError):
        roth_scan([Fraction(1, 2), Fraction(1, 3)], pq, Fraction(-1, 2), 1)


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 4096), st.integers(1, 6))
def test_iroot_floor_brackets_the_root(x, n):
    r = _iroot_floor(x, n)
    assert r**n <= x < (r + 1) ** n


def test_liouville_delta_three_halves_depth_6():
    spec = LiouvilleSpec(m=2, delta=Fraction(3, 2), depth=6, tail_rules=(const_rule(0),), head=0)
    pq = construct_liouville(spec)
    assert check_admissible(pq).ok
    assert verify_liouville(pq, Fraction(3, 2)).verdict == "hypotheses-hold-to-depth"
