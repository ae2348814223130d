"""Property tests of the matrix-form engine against the per-step reference route."""

import contextlib
import functools
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from references import reference_expand, reference_step

from mcf import (
    AlgebraicValue,
    FunctionOracle,
    Interruption,
    NonTerminating,
    NumberField,
    OracleValue,
    PartialQuotients,
    RationalInterval,
    RationalValue,
    SimplexOracle,
    expand,
    jacobi_step,
    limit_values,
)
from mcf.polynomials import poly_eval, refine_root

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
    first = expand(values, 1)
    if first.interruptions:
        with pytest.raises(Interruption):
            jacobi_step(*values)
        return
    a, b, alpha, beta = reference_step(*values)
    assert (a, b) == (first.pq.seqs[0][0], first.pq.seqs[1][0])
    got = jacobi_step(*values)
    assert got[:2] == (a, b)
    exact = [v.value if isinstance(v, RationalValue) else v.element for v in got[2:]]
    assert exact == [alpha, beta]


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


class FixedSimplex(SimplexOracle):
    """The same simplex at every level."""

    def __init__(self, vertices):
        super().__init__("fixed", 1)
        self._vertices = vertices

    def vertices(self, level):
        return self._vertices


def test_simplex_floors_need_every_vertex():
    # vertices 3/2 and 5/3 share the floor 1; then x' = 1 / (x - 1) spans
    # [3/2, 2], whose vertex floors 1 and 2 differ, so no level certifies it
    x = OracleValue(FixedSimplex([(2, 3), (3, 5)]))
    assert expand([x], 1).pq.seqs == ((1,),)
    with budget("4"), pytest.raises(NonTerminating):
        expand([x], 2)


def fraction_bisection(p, iv, max_width):
    lo, hi = iv.lo, iv.hi
    flo = poly_eval(p, lo)
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        fmid = poly_eval(p, mid)
        if fmid == 0:
            return RationalInterval(mid, mid)
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return RationalInterval(lo, hi)


@PROPERTY
@given(st.sampled_from([
    ([-2, 0, 0, 1], (1, 2)),
    ([1, -3, 0, 1], (Fraction(1, 3), Fraction(3, 5))),
    ([-3, 0, 2], (Fraction(-7, 5), Fraction(-6, 5))),
    ([-1, 2], (0, 1)),
    ([Fraction(-1, 2), Fraction(1, 3), 0, 1], (Fraction(-1, 7), Fraction(9, 7))),
]), st.integers(1, 200))
def test_refine_root_brackets_equal_fraction_bisection(case, bits):
    poly, (lo, hi) = case
    iv = RationalInterval(lo, hi)
    width = Fraction(1, 1 << bits)
    assert refine_root(poly, iv, width) == fraction_bisection(poly, iv, width)
