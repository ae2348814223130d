"""Expansion engine: steps, interruptions, admissibility."""

import random
from fractions import Fraction

import pytest

from helpers import first_step, random_admissible, random_admissible_m2
from references import as_fraction, reference_step

from mcf import AlgebraicValue, InputError, NonTerminating, NumberField, RationalInterval, expand
from mcf.exact_reals import DecimalOracle, OracleValue, RationalValue
from mcf.recurrence import PartialQuotients, check_admissible


def test_jacobi_step_rational_examples():
    values = [Fraction(7, 5), Fraction(3, 5)]
    step, events = first_step(values)
    assert step == reference_step(*values) == (1, 0, Fraction(5, 3), Fraction(2, 3))
    assert events == ()

    values = [Fraction(5, 3), Fraction(2, 3)]
    step, events = first_step(values)
    assert step == reference_step(*values) == (1, 0, Fraction(3, 2), 1)
    # beta' = 1 is integral: expand emits it at index 1 and goes on with alpha' alone
    assert [(e.index, e.dimension_after, e.value) for e in events] == [(1, 1, 1)]


def test_jacobi_step_algebraic():
    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    theta = field.gen()
    values = [AlgebraicValue(theta), AlgebraicValue(theta * theta)]
    (a, b, alpha, beta), events = first_step(values)
    assert (a, b, alpha, beta) == reference_step(*values)
    assert (a, b) == (1, 1) and events == ()
    # alpha_1 = 1/(theta^2 - 1) exactly
    assert as_fraction(alpha * (theta * theta - 1)) == 1
    # beta_1 = (theta - 1)/(theta^2 - 1) = 1/(theta + 1)
    assert as_fraction(beta * (theta + 1)) == 1


def test_expand_interruption_trace():
    rec = expand([Fraction(7, 5), Fraction(3, 5)], 4, keep_trace=True)
    assert rec.pq.seqs == ((1, 1, 1, 2), (0, 0, 1))
    assert len(rec.interruptions) == 1
    assert rec.interruptions[0].index == 2
    assert rec.interruptions[0].dimension_after == 1
    assert rec.interruptions[0].value == 1
    assert rec.terminated
    # complete quotients before each step
    assert rec.trace[1][0].value == Fraction(5, 3)
    assert rec.trace[1][1].value == Fraction(2, 3)
    assert rec.trace[2][0].value == Fraction(3, 2)  # dimension already dropped


def test_expand_m1_classical():
    rec = expand([Fraction(10, 7)], 4)
    assert rec.pq.seqs == ((1, 2, 3),)
    assert rec.terminated
    assert rec.interruptions == ()


def test_expand_zero_steps_and_integer_input():
    rec = expand([Fraction(10, 7)], 0)
    assert rec.pq.seqs == ((),)
    assert not rec.terminated
    rec = expand([5], 3)
    assert rec.pq.seqs == ((5,),)
    assert rec.terminated


def test_expand_immediate_interruption():
    rec = expand([Fraction(7, 5), 2], 5)
    assert rec.interruptions[0].index == 0
    assert rec.pq.seqs[1] == (2,)
    assert rec.pq.seqs[0] == (1, 2, 2)  # classical CF of 7/5 = [1; 2, 2]
    assert rec.terminated


def test_jacobi_step_oracle_inputs():
    x = OracleValue(DecimalOracle("1.40"))
    y = OracleValue(DecimalOracle("0.60"))
    rec = expand([x, y], 2, keep_trace=True)
    a, b, alpha, beta = reference_step(Fraction(14, 10), Fraction(6, 10))
    assert (rec.pq.seqs[0][0], rec.pq.seqs[1][0]) == (a, b) == (1, 0)
    assert rec.interruptions == ()
    assert all(isinstance(v, OracleValue) for v in rec.trace[1])
    for value, exact in zip(rec.trace[1], (alpha, beta)):
        enc = value.oracle.enclosure(0)
        assert enc.lo <= exact <= enc.hi


def test_expand_floor_width_audit():
    rec = expand([Fraction(7, 5), Fraction(3, 5)], 4)
    assert all(w is None for seq in rec.floor_widths for w in seq)
    orc = OracleValue(DecimalOracle("1.259921049894873164767210607278"))
    orc2 = OracleValue(DecimalOracle("1.587401051968199474751705639272"))
    rec2 = expand([orc, orc2], 3)
    assert all(w is not None for seq in rec2.floor_widths for w in seq)


def test_oracle_matches_exact_expansion():
    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    theta = field.gen()
    exact = expand([AlgebraicValue(theta), AlgebraicValue(theta * theta)], 8)
    dec = expand(
        [
            OracleValue(DecimalOracle(
                "1.2599210498948731647672106072782283505702514647015079800819751121552996765139594837293965624362550941543102560356156652593990240406137372284591103042693552469606426166250009774745265654803068671854055")),
            OracleValue(DecimalOracle(
                "1.5874010519681994747517056392723082603914933278998530098082857618252165056242191730174767562822883144709664812966066380574800704601161258453514477897120527993748755598244317916118114447339110121667983")),
        ],
        8,
    )
    assert exact.pq.seqs == dec.pq.seqs


@pytest.mark.parametrize("rational_first", [False, True])
def test_an_oracle_tuple_with_a_rational_coordinate_matches_the_exact_expansion(rational_first):
    # the rational coordinate enters the rows exactly, the decimal as the basis; the floors
    # agree through the exact run's first interruption, at n, whose integral trailing
    # quotient the oracle run certifies as a floor; it cannot detect the interruption, so
    # the next step divides by an enclosure of 0 and no further floor certifies
    digits = "1.41421356237309504880168872420969807856967187537694807317667973799"
    pair = [OracleValue(DecimalOracle(digits)), RationalValue(Fraction(5, 8))]
    exact = [Fraction(digits), Fraction(5, 8)]
    if rational_first:
        pair.reverse()
        exact.reverse()
    ref = expand(exact, 12)
    n = ref.interruptions[0].index
    assert n >= 6
    assert expand(pair, n + 1).pq.seqs == tuple(seq[:n + 1] for seq in ref.pq.seqs)
    with pytest.raises(NonTerminating):
        expand(pair, n + 2)


def test_oracle_matches_exact_expansion_m3():
    # quartic field: the triple (t, t^2, t^3) for t = 2^(1/4), exact vs decimal
    field = NumberField([-2, 0, 0, 0, 1], RationalInterval(1, 2))
    th = field.gen()
    exact = expand([AlgebraicValue(th), AlgebraicValue(th**2), AlgebraicValue(th**3)], 25)
    digits = [
        "1.18920711500272106671749997056047591529297209246381741301900222471946666822"
        "691715987078134453813767371603739477476921319",
        "1.41421356237309504880168872420969807856967187537694807317667973799073247846"
        "210703885038753432764157273501384623091229702",
        "1.68179283050742908606225095246642979008006852471356902162645217194984950990"
        "780447962864800839858507234560314748703817016",
    ]
    dec = expand([OracleValue(DecimalOracle(d)) for d in digits], 25)
    assert exact.pq.seqs == dec.pq.seqs
    assert exact.interruptions == dec.interruptions == ()


def test_interruption_count_and_dimension_monotone():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(2, 4)
        vals = [Fraction(rng.randint(1, 60), rng.randint(1, 30)) for _ in range(m)]
        rec = expand(vals, 400)
        assert len(rec.interruptions) <= m - 1
        dims = [ev.dimension_after for ev in rec.interruptions]
        assert dims == sorted(dims, reverse=True)
        assert rec.terminated  # rationals always end


def test_rational_inputs_terminate():
    rng = random.Random(5)
    for _ in range(60):
        x = Fraction(rng.randint(1, 400), rng.randint(1, 200))
        y = Fraction(rng.randint(1, 400), rng.randint(1, 200))
        rec = expand([x, y], 2000)
        assert rec.terminated


def test_expansion_prefixes_admissible():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(2, 4)
        vals = [Fraction(rng.randint(1, 120), rng.randint(2, 80)) for _ in range(m)]
        rec = expand(vals, 60)
        assert check_admissible(rec.pq).ok, (vals, rec.pq)


def test_interrupted_record_tie_does_not_leak_across_regimes():
    # the trailing coordinate's final (integral) entry can tie with the head;
    # the tie must not impose the next-regime constraint a_{n+1}^(2) >= 1
    vals = [Fraction(69, 31), Fraction(92, 19), Fraction(19, 6), Fraction(85, 9)]
    rec = expand(vals, 60)
    assert rec.interruptions
    assert check_admissible(rec.pq).ok


def test_check_admissible_examples():
    ok = PartialQuotients.from_lists([3, 2, 2, 2, 2], [1, 1, 1, 1, 1])
    assert check_admissible(ok).ok

    # tie at index 5 must force b_6 >= 1
    bad = PartialQuotients.from_lists([1, 2, 3, 2, 2, 2, 2], [0, 1, 1, 1, 2, 2, 0])
    report = check_admissible(bad)
    assert not report.ok
    assert report.violations[0].index == 6
    assert report.violations[0].rule == "lex-terminal"

    # b_3 > a_3
    bad2 = PartialQuotients.from_lists([1, 2, 3, 2, 1], [0, 1, 1, 4, 0])
    report2 = check_admissible(bad2)
    assert not report2.ok
    assert report2.violations[0].index == 3
    assert report2.violations[0].rule == "lex-order"

    # head and negativity rules; index 0 unconstrained
    bad3 = PartialQuotients.from_lists([-4, 0, 1], [7, -1, 0])
    rules = {(v.index, v.rule) for v in check_admissible(bad3).violations}
    assert (1, "head-not-positive") in rules
    assert (1, "negative-entry") in rules
    assert all(idx != 0 for idx, _ in rules)


def test_partial_quotients_take_integers_only():
    class Index:  # any integer type with __index__, such as numpy's, is taken
        def __index__(self):
            return 2

    assert PartialQuotients.from_lists([0, Index()], [0, 0]).seqs == ((0, 2), (0, 0))
    with pytest.raises(InputError, match=r"^entry 1 of a\^\(1\) must be an integer, got float$"):
        PartialQuotients.from_lists([0, 1.9, "2"], [0, 0.5, True])
    with pytest.raises(InputError, match=r"^entry 2 of a\^\(1\) must be an integer, got str$"):
        PartialQuotients.from_lists([0, 1, "2"], [0, 0, 1])
    with pytest.raises(InputError, match=r"^entry 2 of a\^\(2\) must be an integer, got bool$"):
        PartialQuotients.from_lists([0, 1, 2], [0, 0, True])


def test_check_admissible_m1():
    assert check_admissible(PartialQuotients.from_lists([0, 2, 1, 9])).ok
    report = check_admissible(PartialQuotients.from_lists([3, 0, 2]))
    assert not report.ok and report.violations[0].index == 1


def test_random_generators_produce_admissible():
    rng = random.Random(13)
    for _ in range(50):
        pq = random_admissible_m2(rng, 40)
        assert check_admissible(pq).ok
    for m in (3, 4):
        for _ in range(20):
            assert check_admissible(random_admissible(rng, m, 30)).ok


def test_traced_complete_quotients_exceed_one():
    # after any uninterrupted step the leading complete quotient is > 1
    rec = expand([Fraction(7, 5), Fraction(3, 5)], 4, keep_trace=True)
    interrupted = {ev.index for ev in rec.interruptions}
    for n in range(1, len(rec.trace)):
        if n - 1 not in interrupted:
            lead = rec.trace[n][0]
            assert lead.value > 1

    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    theta = field.gen()
    rec2 = expand([AlgebraicValue(theta), AlgebraicValue(theta * theta)], 10, keep_trace=True)
    assert not rec2.interruptions
    for n in range(1, len(rec2.trace)):
        assert (rec2.trace[n][0].element - 1).sign() > 0


def test_mixed_rational_algebraic_inputs():
    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    theta = field.gen()
    rec = expand([AlgebraicValue(theta), RationalValue(Fraction(1, 2))], 3)
    # beta_0 = 1/2 -> b_0 = 0, alpha_1 = 2, beta_1 = 2 theta - 2
    assert rec.pq.seqs[0][0] == 1
    assert rec.pq.seqs[1][0] == 0
    assert check_admissible(rec.pq).ok
