"""Convergents, auxiliary sequences, witnesses, bounds, growth."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from helpers import random_admissible, random_admissible_m2, random_pq_with_power_hypothesis
from references import (
    column_table,
    det_int,
    factor_matrix,
    growth_check_by_table,
    lag_product,
    matrix_products,
    tildes,
)

from mcf import (
    AlgebraicValue,
    HypothesisViolated,
    NumberField,
    PreconditionViolated,
    PrefixMismatch,
    RationalInterval,
    expand,
)
from mcf import convergents
from mcf.cli import AUX_M2
from mcf.convergents import (
    approx_witnesses,
    bound_checks,
    eta_field,
    growth_check,
    k_interval,
    limit_values,
    loglog_below,
    proximity_check,
    psi_field,
    root_enclosure,
)
from mcf.errors import MCFError, NonTerminating
from mcf.logs import Enclosure, log_sign, power_sign
from mcf.liouville import seq_rule
from mcf.recurrence import (Column, ConvergentState, LagProducts, PartialQuotients, check_admissible,
                            conv_stream, lag_stream)
from mcf.transcendence import QuasiPeriodicSpec, main1_check


def cbrt2_pair():
    field = NumberField([-2, 0, 0, 1], RationalInterval(1, 2))
    theta = field.gen()
    return AlgebraicValue(theta), AlgebraicValue(theta * theta)


def test_conv_stream_examples():
    pq = PartialQuotients.from_lists([1, 1, 1], [0, 0, 1])
    rows = list(conv_stream(pq))
    assert [(r.A, r.C) for r in rows] == [((1, 0), 1), ((1, 1), 1), ((3, 1), 2)]

    rng = random.Random(2)
    for _ in range(20):
        pq = random_admissible_m2(rng, 3)
        row0 = next(conv_stream(pq))
        assert row0.A == (pq.seqs[0][0], pq.seqs[1][0]) and row0.C == 1

    pq1 = PartialQuotients.from_lists([1, 2, 3])
    assert [r.C for r in conv_stream(pq1)] == [1, 2, 7]


def test_denominators_nondecreasing_and_window_growth():
    rng = random.Random(4)
    for _ in range(20):
        pq = random_admissible_m2(rng, 40)
        rows = list(conv_stream(pq))
        for i in range(1, len(rows)):
            assert rows[i].C >= rows[i - 1].C
        for i in range(3, len(rows)):
            assert rows[i].C > rows[i - 3].C


def test_matrix_form_examples():
    pq = PartialQuotients.from_lists([4, 1], [2, 0])
    m0 = dict(matrix_products(pq))[0]
    assert m0 == ((4, 1, 0), (2, 0, 1), (1, 0, 0))

    pq2 = PartialQuotients.from_lists([1, 1, 1], [0, 0, 1])
    prod = dict(matrix_products(pq2))[2]
    rows = list(conv_stream(pq2))
    assert tuple(prod[i][0] for i in range(3)) == (rows[2].A[0], rows[2].A[1], rows[2].C)
    assert tuple(prod[i][1] for i in range(3)) == (rows[1].A[0], rows[1].A[1], rows[1].C)


def test_matrix_columns_equal_stream_and_unit_determinant():
    rng = random.Random(6)
    for m in (1, 2, 3, 4):
        pq = random_admissible(rng, m, 30)
        rows = list(conv_stream(pq))
        expected_factor_det = (-1) ** m
        for n, prod in matrix_products(pq):
            a = tuple(pq.seqs[j][n] for j in range(m))
            assert det_int(factor_matrix(a)) == expected_factor_det
            assert abs(det_int(prod)) == 1
            for j in range(min(n, m) + 1):
                ref = rows[n - j]
                col = tuple(prod[i][j] for i in range(m + 1))
                assert col == ref.A + (ref.C,)


def test_aux_stream_examples_and_bounds():
    pq = PartialQuotients.from_lists([1, 1, 1], [0, 0, 1])
    cols, off = column_table(pq)
    assert tildes(cols[off], cols[off - 1]) == (-1, 0)  # (ac1, bc1) at n = 0
    assert lag_product(cols[off + 1], cols[off], 0, 2) == 0  # A_1 C_0 - C_1 A_0 = 1 - 1

    rng = random.Random(8)
    total = 0
    while total < 500:
        pq = random_admissible_m2(rng, 60)
        cols, off = column_table(pq)
        for k in range(off, len(cols)):
            for i in range(2):
                for lag in (1, 2):  # ac1, bc1, ac2, bc2
                    assert abs(lag_product(cols[k], cols[k - lag], i, 2)) <= cols[k].C
            total += 1


def test_tilde_stream_matches_aux_for_m2():
    # the rolling lag products of the convergents command's m = 2 table
    # against the products written out, negative-index columns included
    rng = random.Random(10)
    pq = random_admissible_m2(rng, 30)
    cols, off = column_table(pq)
    stream = lag_stream(pq, {(i, j) for _, i, j, _ in AUX_M2})
    for k, (col, lags) in zip(range(off, len(cols)), stream):
        assert col == cols[k]
        (A, B), C = cols[k].A, cols[k].C
        expected = {}
        for lag in (1, 2):
            (A_, B_), C_ = cols[k - lag].A, cols[k - lag].C
            expected[f"ac{lag}"] = A * C_ - A_ * C
            expected[f"bc{lag}"] = B * C_ - B_ * C
            expected[f"ab{lag}"] = A * B_ - A_ * B
        assert {name: lags[i, j][lag - 1] for name, i, j, lag in AUX_M2} == expected


def test_tilde_next_is_head_independent():
    # the lag-1 products peeked from the tail alone equal the products after
    # stepping with the real head and with head + 7 (what construct_liouville
    # relies on)
    rng = random.Random(12)
    for m in (2, 3):
        pq = random_admissible(rng, m, 12)
        state, lags = ConvergentState.initial(m), LagProducts(m, [(i, m) for i in range(m)])
        for n in range(10):
            tail = tuple(pq.seqs[j][n] for j in range(1, m))
            prev = Column(state.n - 1, state.window[0][:m], state.window[0][m])
            peeked = tuple(lags.peek_lag1(tail)[i, m] for i in range(m))
            for head in (pq.seqs[0][n], pq.seqs[0][n] + 7):
                probe = ConvergentState(m, state.window, state.n)
                assert tildes(probe.step((head,) + tail), prev) == peeked
            a = tuple(pq.seqs[j][n] for j in range(m))
            state.step(a)
            lags.step(a)


@st.composite
def quotient_rows(draw):
    m = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(0, 9), st.integers(0, 1 << 80))
    return m, draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=24))


@settings(max_examples=200, deadline=None)
@given(quotient_rows())
def test_lag_products_are_the_window_minors(case):
    # every lag product of the rolling second compound equals lag_product on
    # the columns (the negative-index ones included), the lag-1 products at
    # n+1 are known before a_(n+1)^(1), and the window matrix is unimodular
    m, quotients = case
    pairs = [(i, j) for i in range(m + 1) for j in range(m + 1) if i != j]
    state, lags = ConvergentState.initial(m), LagProducts(m, pairs)
    cols, _ = column_table(PartialQuotients(m, ((),) * m))  # the negative-index columns
    for a in quotients:
        before = lags.peek_lag1(a[1:])
        cols.append(state.step(a))
        after = lags.step(a)
        window = cols[: -m - 2: -1]  # columns n, n-1, ..., n-m
        assert abs(det_int([[(*c.A, c.C)[r] for c in window] for r in range(m + 1)])) == 1
        for i, j in pairs:
            assert before[i, j] == after[i, j][0]
            assert after[i, j] == tuple(lag_product(window[0], window[lag], i, j)
                                        for lag in range(1, m + 1))


def test_constant_quotients_denominator_growth_rate():
    # bit length of C_n grows like n log2(psi) for the minimal sequence
    n = 400
    pq = PartialQuotients.from_lists([0] + [1] * n, [0] + [0] * n)
    rows = list(conv_stream(pq))
    predicted = n * 0.551574  # log2 of the real root of x^3 - x^2 - 1
    assert abs(rows[n].C.bit_length() - predicted) <= 0.1 * predicted


def test_limit_oracle_contains_algebraic_value():
    alpha, beta = cbrt2_pair()
    rec = expand([alpha, beta], 14)
    oracles = [x.oracle for x in limit_values(rec.pq)]
    tight_alpha = alpha.element.interval(Fraction(1, 10**12))
    tight_beta = beta.element.interval(Fraction(1, 10**12))
    prev = None
    for level in range(0, 10):
        enc = oracles[0].enclosure(level)
        assert enc.lo <= tight_alpha.lo and tight_alpha.hi <= enc.hi
        if prev is not None:
            assert prev.contains_interval(enc)
        prev = enc
    assert oracles[1].enclosure(5).lo <= tight_beta.lo


def test_witnesses_classical_sqrt2():
    field = NumberField([-2, 0, 1], RationalInterval(1, 2))
    root2 = AlgebraicValue(field.gen())
    rec = expand([root2], 40)
    wit = approx_witnesses([root2], rec.pq, 30)
    assert wit == list(range(31))


def test_witness_density_cbrt_pair():
    alpha, beta = cbrt2_pair()
    rec = expand([alpha, beta], 202)
    for coord in (1, 2):
        wit = approx_witnesses([alpha, beta], rec.pq, 200, coords=[coord])
        assert len(wit) >= 201 // 3, (coord, len(wit))
        # certification is precision-independent: re-run reproduces exactly
        assert wit == approx_witnesses([alpha, beta], rec.pq, 200, coords=[coord])


def test_bound_checks_zero_head():
    rng = random.Random(14)
    for _ in range(6):
        pq = random_admissible_m2(rng, 301, head=(0, 0))
        report = bound_checks(pq, upto=300)
        assert report.ok
        assert report.extra["empirical_K"] >= 1


def test_bound_checks_box_shift():
    rng = random.Random(15)
    for _ in range(6):
        base = random_admissible_m2(rng, 60, head=(0, 0))
        n_shift, m_shift = rng.randint(1, 5), rng.randint(1, 5)
        shifted = PartialQuotients.from_lists(
            [base.seqs[0][0] + n_shift] + list(base.seqs[0][1:]),
            [base.seqs[1][0] + m_shift] + list(base.seqs[1][1:]),
        )
        report = bound_checks(shifted, box=(n_shift, m_shift))
        assert report.ok


def test_bound_checks_find_a_tilde_quadratic_violation():
    # an inadmissible pq (a seeded search) on which ac1_3 >= 3 C_2^2 with a_3 < C_2
    pq = PartialQuotients.from_lists([0, 6, 4, 3, 4, 6, 0], [0, 30, 15, 25, 26, 11, 23])
    cols, off = column_table(pq)
    violated = [n for n in range(1, pq.rect_len) if pq.seqs[0][n] < cols[off + n - 1].C
                and max(tildes(cols[off + n], cols[off + n - 1])) >= 3 * cols[off + n - 1].C ** 2]
    quad = bound_checks(pq).items[1]
    assert quad.name == "tilde-quadratic" and quad.first_violation == violated[0] == 3
    assert not check_admissible(pq).ok


def test_bound_checks_preconditions():
    pq = PartialQuotients.from_lists([1, 2], [0, 1])
    with pytest.raises(PreconditionViolated):
        bound_checks(pq)  # head not (0,0)
    with pytest.raises(PreconditionViolated):
        bound_checks(pq, box=(2, 0))  # box mismatch


def test_proximity_identical_and_tighter_flag():
    alpha, beta = cbrt2_pair()
    rec = expand([alpha, beta], 8)
    rows = list(conv_stream(rec.pq))
    rep = proximity_check((alpha, beta), (alpha, beta), 6)
    assert rep.ok
    assert rep.prefix_bound == Fraction(1, rows[4].C)
    assert rep.triangle_bound == Fraction(2, rows[6].C)
    assert rep.tighter == "triangle"
    # near the start the lag-2 bound is the tighter one: C_2 < 2 C_0 here
    rep2 = proximity_check((alpha, beta), (alpha, beta), 2)
    assert rep2.tighter == ("prefix" if rows[0].C * 2 > rows[2].C else "triangle")


def test_proximity_prefix_mismatch():
    alpha, beta = cbrt2_pair()
    with pytest.raises(PrefixMismatch):
        proximity_check((alpha, beta), (Fraction(7, 5), Fraction(3, 5)), 3)


def test_proximity_of_nearby_periodic_roots():
    from mcf import PeriodicSpec, solve_periodic

    s1 = PeriodicSpec((0,), (0,), (2,), (1,))
    s2 = PeriodicSpec(
        (0,), (0,), tuple([2] * 21 + [3]), tuple([1] * 22)
    )
    c1, c2 = solve_periodic(s1), solve_periodic(s2)
    rep = proximity_check((c1.alpha, c1.beta), (c2.alpha, c2.beta), 20)
    assert rep.ok


def test_proximity_of_window_oracles_read_at_different_levels():
    # two limits sharing their quotients through index n; one oracle has already answered
    # at a deep level, so each gap reads the two values at levels a fixed offset apart
    n = 10
    pq = random_admissible_m2(random.Random(28), 80, head=(0, 0))
    a, b = list(pq.seqs[0]), list(pq.seqs[1])
    a[n + 1] += 1  # a_(n+1) > b_(n+1) stays admissible and leaves indices 0..n alone
    pq_prime = PartialQuotients.from_lists(a, b)
    assert check_admissible(pq_prime).ok
    fresh = proximity_check(limit_values(pq), limit_values(pq_prime), n)
    x, x_prime = limit_values(pq), limit_values(pq_prime)
    x_prime[0].oracle.enclosure(40)
    assert x_prime[0].oracle.deepest_level() == 40
    rep = proximity_check(x, x_prime, n)
    assert rep == fresh and rep.ok
    cols = list(conv_stream(pq, n))
    assert (rep.prefix_bound, rep.triangle_bound) == (Fraction(1, cols[n - 2].C), Fraction(2, cols[n].C))


def test_growth_constants():
    psi_iv = psi_field().refine_root(Fraction(1, 10**8))
    assert Fraction(146, 100) < psi_iv.lo and psi_iv.hi < Fraction(147, 100)
    eta1 = eta_field(1).refine_root(Fraction(1, 10**8))
    trib = Fraction(18392867552141612, 10**16)
    assert eta1.lo <= trib + Fraction(1, 10**7) and trib - Fraction(1, 10**7) <= eta1.hi
    for M in (2, 5, 10):
        iv = eta_field(M).refine_root(Fraction(1, 100))
        assert iv.lo > M  # eta(M) > M

    k12 = k_interval(1, 2)
    ref = Fraction(14803421887365897, 10**16)
    assert k12.width <= Fraction(1, 10**6)
    assert k12.lo <= ref <= k12.hi + Fraction(1, 10**10)


def test_certified_powers_comparisons():
    # psi^e against an integer is one log_sign query on log C - e log psi
    psi = root_enclosure(psi_field())
    assert log_sign(((1, 1), (0, psi)), "psi^0 against 1") == 0
    assert log_sign(((1, 45), (-10, psi)), "psi^10 against 45") == -1  # psi^10 ~ 45.6
    assert log_sign(((1, 46), (-10, psi)), "psi^10 against 46") == 1


def test_certified_powers_tighten_to_the_default_report(monkeypatch):
    # C_n = psi^(n-2) times a constant near 1: a 2-bit root decides no comparison for long,
    # so the queries go on to deeper levels of the growth bases.  The constants are the
    # bases' level 0 at that precision, so they only enclose the default ones
    pq = PartialQuotients.from_lists([0] + [1] * 30, [0] * 31)
    default = growth_check(pq, M=1)
    levels, log_bounds = set(), Enclosure.log_bounds
    monkeypatch.setattr(convergents, "_ROOT_BITS", 2)
    monkeypatch.setattr(Enclosure, "log_bounds", lambda self, level: levels.add(level) or log_bounds(self, level))
    report = growth_check(pq, M=1)
    assert any(levels) and (report.ok, report.items) == (default.ok, default.items)  # a level past 0
    for name, iv in report.extra["constants"].items():
        start = default.extra["constants"][name]
        assert iv.lo <= start.lo and start.hi <= iv.hi


def test_growth_check_psi_boundary():
    pq = PartialQuotients.from_lists([0] + [1] * 30, [0] + [0] * 30)
    report = growth_check(pq)
    item = report.items[0]
    assert item.ok and item.boundary_indices == (2,)

    rng = random.Random(16)
    pq2 = random_admissible_m2(rng, 40, head=(2, 1))
    report2 = growth_check(pq2)
    assert report2.items[0].ok


def test_growth_check_eta_and_hypothesis():
    rng = random.Random(17)
    for M in (1, 2, 5):
        length = 60
        a = [0] + [rng.randint(1, M) for _ in range(length)]
        b = [0]
        for n in range(1, length + 1):
            hi = a[n]
            lo = 1 if a[n - 1] == b[n - 1] else 0
            b.append(rng.randint(min(lo, hi), hi))
        pq = PartialQuotients.from_lists(a, b)
        report = growth_check(pq, M=M)
        assert all(item.ok for item in report.items)
    with pytest.raises(HypothesisViolated):
        growth_check(PartialQuotients.from_lists([0, 3, 1], [0, 0, 0]), M=2)


def _outcome(check, pq, **kwargs):
    """The report, or (class, message, index) of the error; None when the budget ran out."""
    try:
        return check(pq, **kwargs)
    except NonTerminating:
        return None
    except MCFError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


@st.composite
def growth_inputs(draw):
    m = draw(st.sampled_from([2, 3]))
    length = draw(st.integers(1, 12))
    quotient = st.one_of(st.integers(1, 6), st.integers(-3, 0))
    seqs = [draw(st.lists(quotient, min_size=length, max_size=length)) for _ in range(m)]
    return (PartialQuotients.from_lists(*seqs),
            {"upto": draw(st.none() | st.integers(0, 14)), "M": draw(st.none() | st.integers(1, 6)),
             "d": draw(st.none() | st.integers(1, 3))})


@settings(max_examples=250, deadline=None)
@given(growth_inputs())
@example((PartialQuotients.from_lists([0, 0, 1, 1], [0, 0, 0, 0]), {}))
@example((PartialQuotients.from_lists([0, 1, 0, 1], [0, 0, 0, 0]), {"d": 1}))
def test_growth_check_walk_matches_the_table(case):
    # one walk against one pass per item over the list of every column, errors included.
    # The examples: psi-lower fails at n = 1 (C_1 = 0), before any power is compared; and
    # log log C_2 (C_2 = 0) cannot be formed, but the d hypothesis at index 3 wins
    pq, kwargs = case
    walked, table = _outcome(growth_check, pq, **kwargs), _outcome(growth_check_by_table, pq, **kwargs)
    assume(walked is not None and table is not None)
    assert walked == table


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkers_hold_a_window_not_every_column():
    # 4000 columns of thousands of bits are megabytes as a list; the walks hold m + 1 of them
    pq = random_pq_with_power_hypothesis(random.Random(3), d=1, length=4000, cap=5)
    spec = QuasiPeriodicSpec(m=2, schedule=((12, 3, 4), (400, 5, 6)),
                             base_rules=tuple(seq_rule(s) for s in pq.seqs))
    calls = {"growth M=5": lambda: growth_check(pq, M=5), "growth d=1": lambda: growth_check(pq, d=1),
             "main1": lambda: main1_check(spec, d=1, c=1, depth=3800)}
    for call in calls.values():  # the first calls execute mcf.logs and fill the K cache
        call()
    peaks = {name: _traced_peak(call) for name, call in calls.items()}
    assert all(peak < 1 << 20 for peak in peaks.values()), peaks


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << 40), 1 << 80), st.integers(-3, 1 << 16), st.integers(0, 6),
       st.integers(-2, 2))
def test_lt_power_matches_exact_comparison(a, c, d, nudge):
    # a < c**d as the growth check and main1 decide it: signs, then one log_sign query
    assert (power_sign(a, 1, c, d, 1, "a < c^d") < 0) == (a < c**d)
    near = c**d + nudge  # ties and their neighbours, where bit lengths cannot decide
    assert (power_sign(near, 1, c, d, 1, "a < c^d") < 0) == (near < c**d)


def test_lt_power_edge_cases():
    cases = [
        (0, 1, 9), (1, 1, 9), (2, 1, 9), (-5, 1, 3),  # c = 1: c**d = 1
        (0, 7, 0), (1, 7, 0), (-1, 7, 0),  # d = 0
        (-1, 2, 5), (-(1 << 100), 3, 2),  # negative a
        (7, 2, 3), (8, 2, 3), (9, 2, 3),  # c a power of two, ties on both bounds
        ((1 << 60) - 1, 1 << 20, 3), (1 << 60, 1 << 20, 3), (3**40 - 1, 3, 40), (3**40, 3, 40),
        (5, 0, 2), (-5, -3, 3), (-27, -3, 3), (-28, -3, 3),  # other signs: exact
    ]
    for a, c, d in cases:
        assert (power_sign(a, 1, c, d, 1, "a < c^d") < 0) == (a < c**d), (a, c, d)
    # decided by the first step's bounds: 3**(10**9) is never formed
    start = time.perf_counter()
    assert power_sign(10**100, 1, 3, 10**9, 1, "10^100 < 3^(10^9)") < 0
    assert power_sign(1 << 4_000_000, 1, 3, 10**6, 1, "2^4000000 < 3^(10^6)") > 0
    assert log_sign(((1, 10**100), (-10**9, 3)), "10^100 against 3^(10^9)") == -1
    assert log_sign(((4_000_000, 2), (-10**6, 3)), "2^4000000 against 3^(10^6)") == 1
    assert time.perf_counter() - start < 1


def test_growth_check_loglog():
    rng = random.Random(18)
    pq = random_pq_with_power_hypothesis(rng, d=1, length=62)
    report = growth_check(pq, d=1)
    assert all(item.ok for item in report.items)
    with pytest.raises(HypothesisViolated):
        # all-ones: a_2 = 1 is not < C_1^1 = 1
        growth_check(PartialQuotients.from_lists([0, 1, 1, 1], [0, 0, 0, 0]), d=1)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 1 << 4096), st.integers(1, 50), st.integers(1, 4), st.integers(1, 40))
def test_loglog_rung_agrees_with_512_bit_enclosures(c, d, m, n):
    # every answer, whether log_sign's first step gave it or a deeper one, agrees with a
    # 512-bit evaluation of both sides, or is the exact tie at n = 1 (False, and
    # c^d = (m+1)^((d+1)^2) in integers)
    verdict = loglog_below(d, m)(c, n)
    if n == 1 and c**d == (m + 1) ** ((d + 1) ** 2):
        assert not verdict
        return
    with mp.workprec(512):
        k = mp.log(d + 1) + mp.log(mp.mpf(d + 1) / d) + mp.log(mp.log(m + 1))
        assert verdict == (mp.log(mp.log(c)) < k * n)


def test_long_window_oracle_witness_scan_completes():
    # each query starts at the deepest level the oracle has memoized, so the
    # scan is not capped at budget-many levels from 0
    rng = random.Random(200)
    a, b = [0], [0]
    for _ in range(1, 200):
        head = rng.randint(2, 9)
        a.append(head)
        b.append(rng.randint(0, head - 1))
    pq = PartialQuotients.from_lists(a, b)
    upto = 200 - 16
    found = approx_witnesses(list(limit_values(pq)), pq, upto, coords=[1])
    # a single coordinate has a witness in every window of m + 1 = 3 indices
    assert all(y - x <= 3 for x, y in zip([-1] + found, found + [upto + 1]))


def test_limit_values_walk_the_recurrence_once(monkeypatch):
    pq = random_admissible(random.Random(5), 3, 100)
    steps = []
    step = ConvergentState.step
    monkeypatch.setattr(ConvergentState, "step", lambda self, q: steps.append(1) or step(self, q))
    xs = limit_values(pq)
    assert len(steps) == 100  # one row per index, not m = 3 rows
    cols = list(conv_stream(pq))
    assert len(steps) == 200
    for level in (0, 40, 96):  # the simplex of the convergents level..level+3, read off its own walk
        ratios = [Fraction(col.A[1], col.C) for col in cols[level:level + 4]]
        assert xs[1].oracle.enclosure(level) == RationalInterval(min(ratios), max(ratios))
