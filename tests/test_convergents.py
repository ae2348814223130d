"""Convergents, auxiliary sequences, witnesses, bounds, growth."""

import random
from fractions import Fraction

import pytest

from helpers import random_admissible, random_admissible_m2

from mcf import (
    AlgebraicValue,
    CertifiedPowers,
    ConvergentLimitOracle,
    HypothesisViolated,
    NumberField,
    PartialQuotients,
    PreconditionViolated,
    PrefixMismatch,
    RationalInterval,
    approx_witnesses,
    aux_stream,
    bound_checks,
    conv_stream,
    det_int,
    eta_field,
    expand,
    growth_check,
    k_interval,
    limit_values,
    matrix_form,
    matrix_products,
    proximity_check,
    psi_field,
    tilde_next,
    tilde_stream,
)
from mcf.convergents import ConvergentState, factor_matrix


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
    m0 = matrix_form(pq, 0)
    assert m0 == ((4, 1, 0), (2, 0, 1), (1, 0, 0))

    pq2 = PartialQuotients.from_lists([1, 1, 1], [0, 0, 1])
    prod = matrix_form(pq2, 2)
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
    aux = list(aux_stream(pq))
    assert aux[0].ac1 == -1 and aux[0].bc1 == 0
    assert aux[1].ac1 == 0  # A_1 C_0 - C_1 A_0 = 1 - 1

    rng = random.Random(8)
    total = 0
    while total < 500:
        pq = random_admissible_m2(rng, 60)
        rows = list(conv_stream(pq))
        for row_aux, row in zip(aux_stream(pq), rows):
            for value in (row_aux.ac1, row_aux.bc1, row_aux.ac2, row_aux.bc2):
                assert abs(value) <= row.C
            total += 1


def test_tilde_stream_matches_aux_for_m2():
    rng = random.Random(10)
    pq = random_admissible_m2(rng, 30)
    aux = {r.n: r for r in aux_stream(pq)}
    for n, tl in tilde_stream(pq):
        assert tl == (aux[n].ac1, aux[n].bc1)


def test_tilde_next_is_head_independent():
    rng = random.Random(12)
    for m in (2, 3):
        pq = random_admissible(rng, m, 12)
        state = ConvergentState.initial(m)
        for n in range(10):
            tail = tuple(pq.seqs[j][n] for j in range(1, m))
            if n >= 1:
                predicted = tilde_next(state, tail)
                # definitional value appears after stepping with ANY head
                for head in (pq.seqs[0][n], pq.seqs[0][n] + 7):
                    probe = ConvergentState(m, list(state.window), state.n)
                    before = probe.window[0]
                    col = probe.step((head,) + tail)
                    defs = tuple(
                        col.A[i] * before.C - before.A[i] * col.C for i in range(m)
                    )
                    assert defs == predicted
            state.step(tuple(pq.seqs[j][n] for j in range(m)))


def test_limit_oracle_contains_algebraic_value():
    alpha, beta = cbrt2_pair()
    rec = expand([alpha, beta], 14)
    oracles = [ConvergentLimitOracle(rec.pq, 1), ConvergentLimitOracle(rec.pq, 2)]
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
        assert report.empirical_K >= 1


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
    cp = CertifiedPowers(psi_field())
    assert cp.cmp_int(0, 1) == 0
    assert cp.cmp_int(10, 45) == 1   # psi^10 ~ 45.6
    assert cp.cmp_int(10, 46) == -1


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


def test_growth_check_loglog():
    from helpers import random_pq_with_power_hypothesis

    rng = random.Random(18)
    pq = random_pq_with_power_hypothesis(rng, d=1, length=62)
    report = growth_check(pq, d=1)
    assert all(item.ok for item in report.items)
    with pytest.raises(HypothesisViolated):
        # all-ones: a_2 = 1 is not < C_1^1 = 1
        growth_check(PartialQuotients.from_lists([0, 1, 1, 1], [0, 0, 0, 0]), d=1)


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
