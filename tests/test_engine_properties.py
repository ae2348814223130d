"""Property tests of the matrix-form engine against the per-step reference route."""

import contextlib
import functools
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import first_step
from references import (FunctionOracle, floor_exact, is_integer, proportional, reference_expand,
                        reference_step)

from mcf import AlgebraicValue, NonTerminating, NumberField, RationalInterval, engine, expand, polynomials
from mcf.convergents import limit_values
from mcf.engine import _proportional
from mcf.exact_reals import OracleValue, RationalValue, SimplexOracle
from mcf.polynomials import isolate_real_roots, refine_root
from mcf.recurrence import PartialQuotients

PROPERTY = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# the perfbench radical shapes: fields x^d - k with the root isolated in (1, 2)
RADICAL_KS = {3: (2, 3, 5, 6, 7), 4: (2, 3, 5)}


@functools.cache
def radical_field(d: int, k: int) -> NumberField:
    return NumberField([-k] + [0] * (d - 1) + [1], RationalInterval(1, 2))


@contextlib.contextmanager
def budget(value: str):
    old = os.environ.get("MCF_PRECISION_BUDGET")
    os.environ["MCF_PRECISION_BUDGET"] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("MCF_PRECISION_BUDGET", None)
        else:
            os.environ["MCF_PRECISION_BUDGET"] = old


def summary(rec):
    events = [(e.index, e.dimension_after, e.value) for e in rec.interruptions]
    return rec.pq.seqs, events, rec.terminated


def assert_matches_reference(values, steps):
    # warm-started floors need only a few levels each; a small budget makes a
    # floor that cannot be certified fail fast instead of refining for hours
    with budget("8"):
        assert summary(expand(values, steps)) == reference_expand(values, steps)


rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def radical(draw, fld: NumberField):
    """(theta^e + u) / p in the field, or with probability 1/4 a rational u / p."""
    u, p = draw(st.integers(-5, 5)), draw(st.integers(1, 9))
    if draw(st.integers(0, 3)) == 0:
        return RationalValue(Fraction(u, p))
    e = draw(st.integers(1, fld.degree - 1))
    coords = [Fraction(0)] * fld.degree
    coords[0], coords[e] = Fraction(u, p), Fraction(1, p)
    return AlgebraicValue(fld.element(coords))


@st.composite
def radical_tuple(draw):
    d = draw(st.sampled_from([3, 4]))
    fld = radical_field(d, draw(st.sampled_from(RADICAL_KS[d])))
    m = draw(st.integers(2, d - 1))
    values = [draw(radical(fld)) for _ in range(m)]
    if not any(isinstance(v, AlgebraicValue) for v in values):
        values[0] = AlgebraicValue(fld.gen())
    return values


@st.composite
def strict_pq(draw, length=48):
    """Admissible by construction: a_n^(1) > a_n^(j) >= 0 for n >= 1."""
    m = draw(st.integers(1, 3))
    seqs = [[draw(st.integers(0, 3))] for _ in range(m)]
    for _ in range(1, length):
        head = draw(st.integers(2, 9))
        seqs[0].append(head)
        for j in range(1, m):
            seqs[j].append(draw(st.integers(0, head - 1)))
    return PartialQuotients.from_lists(*seqs)


@PROPERTY
@given(st.lists(rationals, min_size=1, max_size=4))
def test_rational_tuples_terminate_and_match_reference(values):
    values = [RationalValue(v) for v in values]
    assert expand(values, 10**5).terminated
    assert_matches_reference(values, 10**5)


@PROPERTY
@given(radical_tuple())
def test_radical_tuples_match_reference(values):
    assert_matches_reference(values, 60)


@settings(max_examples=15, deadline=None)
@given(strict_pq())
def test_limit_values_expand_back_to_the_prefix(pq):
    upto = 48 - 8 * pq.m
    with budget("8"):
        rec = expand(list(limit_values(pq)), upto)
    assert rec.pq.seqs == tuple(s[:upto] for s in pq.seqs)


@settings(max_examples=5, deadline=None)
@given(strict_pq(length=200))
def test_long_window_oracle_round_trip_recovers_all_but_m(pq):
    # the simplex of the convergents n..n+m certifies the floors at index n,
    # so only the last m indices are out of the finite oracle's reach
    upto = 200 - pq.m
    with budget("8"):
        rec = expand(list(limit_values(pq)), upto)
    assert rec.pq.seqs == tuple(s[:upto] for s in pq.seqs)


@settings(max_examples=10, deadline=None)
@given(strict_pq())
def test_simplex_and_box_enclosures_agree(pq):
    # the same coordinates in reverse order, once as coordinates of one
    # simplex and once as unrelated interval oracles (the box of their hulls)
    xs = list(limit_values(pq))[::-1]
    boxed = [OracleValue(FunctionOracle(x.oracle.enclosure)) for x in xs]
    with budget("64"):
        assert expand(xs, 12).pq == expand(boxed, 12).pq


@PROPERTY
@given(st.one_of(st.lists(rationals.map(RationalValue), min_size=2, max_size=2),
                 radical_tuple().filter(lambda v: len(v) == 2)))
def test_jacobi_step_is_the_first_step_of_expand(values):
    if is_integer(values[1]):  # no step: expand drops beta at index 0
        events = expand(values, 1).interruptions
        assert [(e.index, e.dimension_after, e.value) for e in events] == [(0, 1, floor_exact(values[1]))]
        return
    step, events = first_step(values)
    assert step == reference_step(*values)
    beta = step[3]  # an integral beta' is dropped at index 1, the one interruption
    integral = [(1, 1, floor_exact(beta))] if is_integer(beta) else []
    assert [(e.index, e.dimension_after, e.value) for e in events] == integral


@settings(max_examples=10, deadline=None)
@given(radical_tuple(), strict_pq())
def test_output_identical_under_budgets(values, pq):
    runs = []
    for value in ("8", "256"):
        with budget(value):
            exact = expand(values, 60)
            window = expand(list(limit_values(pq)), 48 - 8 * pq.m)
        runs.append([(r.pq, r.interruptions, r.floor_widths) for r in (exact, window)])
    assert runs[0] == runs[1]


def test_exactly_rational_ratios_are_decided_exactly():
    theta = radical_field(3, 2).gen()
    # (2, theta): x_1 = 2 exactly; one step later the trailing coordinate is 0.
    # (theta, theta^2, theta + 3): after one step x_2 = (theta - 1) / (theta - 1)
    # = 1 is an integral ratio that is not trailing, so no enclosure certifies it.
    for values in ([RationalValue(2), AlgebraicValue(theta)],
                   [AlgebraicValue(theta), RationalValue(Fraction(1, 2))],
                   [AlgebraicValue(theta + 1), AlgebraicValue(theta), RationalValue(3)],
                   [AlgebraicValue(theta), AlgebraicValue(theta * theta), AlgebraicValue(theta + 3)]):
        assert_matches_reference(values, 40)
    rec = expand([RationalValue(2), AlgebraicValue(theta)], 5)
    assert rec.interruptions and rec.pq.seqs[0][0] == 2


def test_negative_and_zero_straddling_root_intervals():
    neg = NumberField([2, 0, 0, 1], RationalInterval(-2, -1))  # -2^(1/3)
    t = neg.gen()
    assert_matches_reference([AlgebraicValue(t + 3), AlgebraicValue(t * t)], 60)
    assert_matches_reference([AlgebraicValue(-t), AlgebraicValue(t * t + t)], 60)
    mid = NumberField([-1, 1, 0, 1], RationalInterval(-1, 1))  # x^3 + x - 1, root ~0.68
    u = mid.gen()
    assert_matches_reference([AlgebraicValue(u), AlgebraicValue(u * u)], 60)
    assert_matches_reference([AlgebraicValue(-u), AlgebraicValue(u * u - u)], 60)


def test_rational_root_fields_evaluate_exactly():
    # (x - 2)(x^2 - 1) with the root 2 isolated
    fld = NumberField([2, -1, -2, 1], RationalInterval(Fraction(3, 2), Fraction(5, 2)))
    theta = fld.gen()
    rec = expand([AlgebraicValue(theta * theta + Fraction(1, 3)), AlgebraicValue(theta)], 50)
    assert summary(rec) == summary(expand([Fraction(13, 3), Fraction(2)], 50))
    assert rec.terminated


def test_secretly_integral_coordinate_runs_out_of_budget():
    # (x - 1)(x^2 - 2) with sqrt(2) isolated: theta^2 - 1 is 1 but not so represented
    fld = NumberField([2, -2, -1, 1], RationalInterval(Fraction(6, 5), Fraction(3, 2)))
    theta = fld.gen()
    with budget("6"), pytest.raises(NonTerminating):
        expand([AlgebraicValue(theta), AlgebraicValue(theta * theta - 1)], 3)


def fixed_simplex(vertices) -> SimplexOracle:
    """The same simplex at every level."""
    return SimplexOracle("fixed", 1, lambda level: vertices)


def test_simplex_floors_need_every_vertex():
    # vertices 3/2 and 5/3 share the floor 1; then x' = 1 / (x - 1) spans
    # [3/2, 2], whose vertex floors 1 and 2 differ, so no level certifies it
    x = OracleValue(fixed_simplex([(2, 3), (3, 5)]))
    assert expand([x], 1).pq.seqs == ((1,),)
    with budget("4"), pytest.raises(NonTerminating):
        expand([x], 2)


def fraction_bisection(p, iv, max_width):
    def sign(x):  # of p(n/d) d^deg, term by term
        v = sum(Fraction(c) * x.numerator**k * x.denominator**(len(p) - 1 - k) for k, c in enumerate(p))
        return (v > 0) - (v < 0)

    lo, hi = iv.lo, iv.hi
    slo = sign(lo)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        smid = sign(mid)
        if smid == 0:
            return RationalInterval(mid, mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)


DEG8 = [3, -1, 4, -1, 5, -9, 2, 6, -5]
ROOT_CASES = [  # (modulus, bracket isolating one of its roots)
    ([-3, 0, 2], (Fraction(-7, 5), Fraction(-6, 5))),  # non-monic
    ([1, -3, 0, 1], (Fraction(1, 3), Fraction(3, 5))),
    ([-1, -1, 0, 0, 0, 1], (1, 2)),
    ([-7, 0, 0, 0, 0, 0, 3], (1, 2)),  # non-monic
    ([1, -3, 0, 0, 0, 0, 0, 1], (0, 1)),
    ([1, -3, 0, 0, 0, 0, 0, 1], (1, 2)),
    *[(DEG8, (iv.lo, iv.hi)) for iv in isolate_real_roots(DEG8)],
    ([2, -2, -1, 1], (Fraction(6, 5), Fraction(3, 2))),  # (x - 1)(x^2 - 2): reducible, squarefree
    ([10, -16, -5, 8], (0, 1)),  # (8x - 5)(x^2 - 2): the root 5/8 is a depth-3 grid point
    ([2, -1, -2, 1], (Fraction(3, 2), Fraction(5, 2))),  # (x - 2)(x^2 - 1): the root is the midpoint
    ([-1, 2], (0, 1)),
    ([Fraction(-1, 2), Fraction(1, 3), 0, 1], (Fraction(-1, 7), Fraction(9, 7))),
    *[([-k] + [0] * (d - 1) + [1], (1, 2)) for d, ks in RADICAL_KS.items() for k in ks],
]


def widths(bits):
    """Powers of 1/2, 1/3 and 1/10 down to about 2^-bits."""
    return st.one_of(st.integers(1, bits).map(lambda b: Fraction(1, 1 << b)),
                     st.integers(1, bits * 63 // 100).map(lambda b: Fraction(1, 3**b)),
                     st.integers(1, bits * 3 // 10).map(lambda b: Fraction(1, 10**b)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ROOT_CASES), widths(4000))
def test_refine_root_brackets_equal_fraction_bisection(case, width):
    poly, (lo, hi) = case
    iv = RationalInterval(lo, hi)
    assert refine_root(poly, iv, width) == fraction_bisection(poly, iv, width)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ROOT_CASES), widths(600), st.sampled_from([256, -256]))
def test_rejected_newton_proposals_leave_bisection_to_decide(case, width, shift):
    # every proposal lands 256 past one end of the bracket
    poly, (lo, hi) = case
    iv, proposals = RationalInterval(lo, hi), []

    def propose(ints, x, q):
        proposals.append(x)
        return x + shift * q

    with mock.patch("mcf.polynomials._newton", propose):
        got = refine_root(poly, iv, width)
    assert got == fraction_bisection(poly, iv, width)
    assert proposals or got == iv  # every refinement starts with a proposal


def test_refine_root_evaluates_the_polynomial_a_few_times_per_doubling():
    # bisection evaluates once per bit; 2^(1/3) and a root 2^-200 from a complex pair
    # ((x - 1)^3 + 2^-400 (x - 1), where Newton's own steps shrink by 2/3) take a few dozen
    eps2 = Fraction(1, 1 << 400)
    for poly, iv, bits in (([-2, 0, 0, 1], RationalInterval(1, 2), 8192),
                           ([-1 - eps2, 3 + eps2, -3, 1], RationalInterval(Fraction(1, 3), 2), 1000)):
        calls, homogeneous = [], polynomials._homogeneous
        with mock.patch("mcf.polynomials._homogeneous", lambda *a: calls.append(a) or homogeneous(*a)):
            got = refine_root(poly, iv, Fraction(1, 1 << bits))
        assert got == fraction_bisection(poly, iv, Fraction(1, 1 << bits))
        assert len(calls) < 200


def test_a_proposal_in_another_roots_cell_is_rejected():
    # x^3 - 3x rises through -sqrt(3) and sqrt(3): the mirrored proposal lands in the
    # cell of sqrt(3), outside the bracket, whose end signs match the bracket's
    poly, iv = [0, -3, 0, 1], RationalInterval(-2, -1)
    with mock.patch("mcf.polynomials._newton", lambda ints, x, q: -x):
        for bits in (8, 64, 500):
            width = Fraction(1, 1 << bits)
            assert refine_root(poly, iv, width) == fraction_bisection(poly, iv, width)


def test_running_forms_enclose_the_exact_forms(monkeypatch):
    # after every step each row's running form [lo, hi] / 2^P holds row . (1, theta, ...),
    # decided by exact signs; the first quotients are negative
    advance, checked = engine._Run.advance, []

    def checking(run, floors):
        advance(run, floors)
        level, (P, _, _) = run._enc
        assert level == run.level
        for row, (lo, hi) in zip(run.rows, run.live):
            value = run.field.element(row)
            assert (value - Fraction(lo, 1 << P)).sign() >= 0 <= (Fraction(hi, 1 << P) - value).sign()
            checked.append(row)

    monkeypatch.setattr(engine._Run, "advance", checking)
    t3, t4 = radical_field(3, 2).gen(), radical_field(4, 3).gen()
    for values in ([-t3, t3 * t3 - 3], [-t4 - Fraction(1, 2), Fraction(-7, 3) * t4 * t4, t4**3 - 5]):
        assert_matches_reference([AlgebraicValue(v) for v in values], 40)
    assert len(checked) == 40 * 3 + 40 * 4


def test_running_forms_reseed_on_a_deep_expansion(monkeypatch):
    # a few hundred floors under a small budget: the running forms decide most of
    # them and are re-seeded from the exact rows now and then
    calls, forms = [], engine._Run.forms
    monkeypatch.setattr(engine._Run, "forms", lambda *args: calls.append(args) or forms(*args))
    theta = radical_field(3, 2).gen()
    assert_matches_reference([AlgebraicValue(theta + 1), AlgebraicValue(theta * theta)], 300)
    assert 3 < len(calls) < 100


def test_the_exact_row_test_runs_only_where_the_forms_reach_the_floor(monkeypatch):
    # the running forms put almost every quotient strictly above its floor, so the
    # big x big row test of _proportional runs a few times in 4000 steps, not once a step
    calls, proportional = [], engine._proportional
    monkeypatch.setattr(engine, "_proportional", lambda *rows: calls.append(rows) or proportional(*rows))
    theta = radical_field(3, 2).gen()
    rec = expand([AlgebraicValue(theta + 1), AlgebraicValue(theta * theta)], 4000)
    assert len(rec.pq.seqs[0]) == 4000 and not rec.interruptions
    assert len(calls) < 100


@pytest.mark.parametrize("tail,events,dims", [
    ((2, 3), [(0, 2, 3), (0, 1, 2)], [1, 1, 1]),  # two interruptions at one index
    ((Fraction(5, 2), 3), [(0, 2, 3), (2, 1, 0)], [2, 2, 1]),  # x_1^(1) = 2 is not trailing
])
def test_interruptions_come_off_the_tail_of_the_floors(tail, events, dims):
    theta = radical_field(3, 2).gen()
    values = [AlgebraicValue(theta), *map(RationalValue, tail)]
    rec = expand(values, 12, keep_trace=True)
    assert [(e.index, e.dimension_after, e.value) for e in rec.interruptions] == events
    assert summary(rec) == reference_expand(values, 12)
    assert [len(point) for point in rec.trace[:3]] == dims  # each trace point follows the drops


@st.composite
def row_pairs(draw):
    """(num, den): den has leading zeros and a nonzero entry; num is a multiple of
    den, such a multiple with one entry changed (the leading ones included), or random."""
    entry = st.one_of(st.integers(-9, 9), st.integers(-(1 << 200), 1 << 200))
    lead = draw(st.integers(0, 3))
    rest = draw(st.lists(entry, min_size=0, max_size=4))
    base = [0] * lead + [draw(entry.filter(bool))] + rest
    p, q = draw(entry), draw(entry.filter(bool))
    kind = draw(st.sampled_from(["multiple", "changed", "random"]))
    if kind == "random":
        num = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
    else:
        num = [p * x for x in base]
        if kind == "changed":
            num[draw(st.integers(0, len(base) - 1))] += draw(entry.filter(bool))
    return num, [q * x for x in base]


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_proportional_agrees_with_the_every_entry_test(rows):
    # _proportional skips the pivot entry, where the cross product is equal by construction
    assert _proportional(*rows) == proportional(*rows)
