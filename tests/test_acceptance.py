"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here: exact integer equality where stated, interval
residuals below 1e-50, threshold constants certified to their stated widths.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import functools
import os
import random
from fractions import Fraction

from helpers import (
    random_admissible,
    random_admissible_m2,
    random_periodic_spec,
    random_pq_with_power_hypothesis,
)
from references import (
    column_table,
    det_int,
    lag_product,
    matrix_products,
    tildes,
    verify_quasiperiodic,
)

from mcf import (
    LiouvilleSpec,
    PeriodicSpec,
    const_rule,
    construct_liouville,
    expand,
    solve_periodic,
    verify_liouville,
)
from mcf.convergents import approx_witnesses, growth_check, limit_values
from mcf.periodic import cubic_coeffs, unroll, x_matrix
from mcf.polynomials import height, poly_eval_interval
from mcf.recurrence import PartialQuotients, check_admissible, conv_stream
from mcf.serialization import criterion_report_to_json, dumps_stable, growth_report_to_json
from mcf.transcendence import (
    QuasiPeriodicSpec,
    build_quasiperiodic,
    main2_constant,
    roth_scan,
)


def criterion(num, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num}: {summary}")
                raise
            print(f"[PASS] criterion {num}: {summary}")

        return wrapper

    return deco


@criterion(1, "recurrence columns == matrix product columns, |det| = 1, 200 pq, depth 100")
def test_criterion_1_convergent_equivalence():
    rng = random.Random(101)
    for m in (1, 2, 3, 4):
        for _ in range(50):
            pq = random_admissible(rng, m, 100)
            rows = list(conv_stream(pq))
            for n, prod in matrix_products(pq):
                assert abs(det_int(prod)) == 1
                for j in range(min(n, m) + 1):
                    ref = rows[n - j]
                    assert tuple(prod[i][j] for i in range(m + 1)) == ref.A + (ref.C,)


@criterion(2, "lag-product recursion == definition and |values| <= C_n, 500 m=2 steps")
def test_criterion_2_aux_suite():
    rng = random.Random(102)
    total = 0
    while total < 500:
        pq = random_admissible_m2(rng, 64)
        cols, off = column_table(pq)
        # definitional lag products, checked against the three-term recursion
        #   ac1_n = -b_n ac1_(n-1) - a_(n-1) ac1_(n-2) + ac1_(n-3)
        # from ac1 = 0, 0, -1 and bc1 = 1, 0, 0 at n = -2, -1, 0
        hist_ac = [0, 0]  # values at n-2, n-1 relative to the next row
        hist_bc = [1, 0]
        for k in range(off, len(cols)):
            n, C = cols[k].n, cols[k].C
            ac1, bc1 = tildes(cols[k], cols[k - 1])
            ac2, bc2 = (lag_product(cols[k], cols[k - 2], i, 2) for i in range(2))
            assert abs(ac1) <= C and abs(bc1) <= C
            assert abs(ac2) <= C and abs(bc2) <= C
            if n >= 1:
                b_n = pq.seqs[1][n]
                a_prev = pq.seqs[0][n - 1]
                assert ac1 == -b_n * hist_ac[-1] - a_prev * hist_ac[-2] + hist_ac[-3]
                assert bc1 == -b_n * hist_bc[-1] - a_prev * hist_bc[-2] + hist_bc[-3]
            hist_ac.append(ac1)
            hist_bc.append(bc1)
            total += 1


@criterion(3, "expansion of (7/5, 3/5) and its single interruption, exact")
def test_criterion_3_interruption_trace():
    rec = expand([Fraction(7, 5), Fraction(3, 5)], 4)
    assert rec.pq.seqs == ((1, 1, 1, 2), (0, 0, 1))
    assert len(rec.interruptions) == 1
    assert rec.interruptions[0].index == 2
    assert rec.interruptions[0].dimension_after == 1


@criterion(4, "periodic fixed points: cubics, 1e-50 residuals, 20-quotient round trips")
def test_criterion_4_periodic_fixed_points():
    w = Fraction(1, 10**50)
    for per_a, per_b, expected in (
        ((2,), (1,), (-1, -1, -2, 1)),
        ((1,), (1,), (-1, -1, -1, 1)),
    ):
        spec = PeriodicSpec((), (), per_a, per_b)
        cert = solve_periodic(spec)
        assert cert.poly_alpha == expected
        for poly, iv in ((cert.poly_alpha, cert.alpha_interval),
                         (cert.poly_beta, cert.beta_interval)):
            img = poly_eval_interval(poly, iv)
            assert -w < img.lo and img.hi < w
        rec = expand([cert.alpha, cert.beta], 20)
        ref = unroll(spec, 20)
        assert rec.pq.seqs[0][:20] == ref.seqs[0]
        assert rec.pq.seqs[1][:20] == ref.seqs[1]


@criterion(5, "height bound 3024 C^9 and |X| <= 6 C^3 on 100 random zero-head specs")
def test_criterion_5_height_bound():
    rng = random.Random(105)
    for _ in range(100):
        spec = random_periodic_spec(rng, k_max=3, h_max=4, zero_head=True)
        x, _ = x_matrix(spec)
        rows = list(conv_stream(unroll(spec, spec.k + spec.h)))
        c_top = rows[spec.k + spec.h - 1].C
        assert max(abs(v) for row in x.rows for v in row) <= 6 * c_top**3
        for target in ("alpha", "beta"):
            quartet = cubic_coeffs(x, target)
            h_val = height(tuple(reversed(quartet)))
            assert h_val <= 3024 * c_top**9


@criterion(6, "C_n > psi^(n-2) to depth 500; C_n <= eta(M)^n for M in {1,2,5,10}")
def test_criterion_6_growth_bounds():
    rng = random.Random(106)
    for _ in range(10):
        pq = random_admissible_m2(rng, 501)
        report = growth_check(pq)
        item = report.items[0]
        assert item.ok
        assert set(item.boundary_indices) <= {2}
    # the minimal-growth boundary case is covered explicitly
    ones = PartialQuotients.from_lists([0] + [1] * 500, [0] + [0] * 500)
    report = growth_check(ones, M=1)
    assert all(it.ok for it in report.items)
    assert report.items[0].boundary_indices == (2,)
    for M in (2, 5, 10):
        a = [0] + [rng.randint(1, M) for _ in range(500)]
        b = [0]
        for n in range(1, 501):
            lo = 1 if a[n - 1] == b[n - 1] else 0
            b.append(rng.randint(min(lo, a[n]), a[n]))
        pq = PartialQuotients.from_lists(a, b)
        report = growth_check(pq, M=M)
        assert all(it.ok for it in report.items)


@criterion(7, "log log C_(n+1) < K(d,m) n for 1 <= n <= 60, K certified to 1e-6")
def test_criterion_7_loglog_growth():
    rng = random.Random(107)
    for d in (1, 2):
        for _ in range(3):
            pq = random_pq_with_power_hypothesis(rng, d=d, length=62)
            report = growth_check(pq, upto=61, d=d)
            loglog = [it for it in report.items if it.name == "loglog"][0]
            assert loglog.ok
            assert report.extra["constants"]["K"].width <= Fraction(1, 10**6)


@criterion(8, "Liouville closed loop at depth 12 with >= 4 chained witnesses")
def test_criterion_8_liouville_closed_loop():
    delta = Fraction(1)
    spec12 = LiouvilleSpec(m=2, delta=delta, depth=12, tail_rules=(const_rule(0),), head=0)
    pq12 = construct_liouville(spec12)
    assert check_admissible(pq12).ok
    assert verify_liouville(pq12, delta, upto=12).ok

    # deeper copy of the same construction for enclosure margin
    spec14 = LiouvilleSpec(m=2, delta=delta, depth=14, tail_rules=(const_rule(0),), head=0)
    pq14 = construct_liouville(spec14)
    for j in range(2):
        assert pq14.seqs[j][:13] == pq12.seqs[j]

    xs = limit_values(pq14)
    rows = list(conv_stream(pq14))
    found_total = 0
    for coord in (1, 2):
        wit = approx_witnesses(xs, pq14, 10, coords=[coord])
        assert len(wit) >= 12 // 3
        found_total += len(wit)
        hits = roth_scan(xs, pq14, delta, 10, coords=[coord])
        for n in wit:
            t = abs(tildes(rows[n + 1], rows[n])[coord - 1])
            # middle-to-right link of the chain, exact integers (delta = 1)
            assert t * rows[n].C ** 2 < rows[n + 1].C
            # left-to-right composition certified by the scan
            assert n in hits
    assert found_total >= 2 * (12 // 3)


@criterion(9, "quasi-periodic repetition law re-scan and exact B(statement, 1) = 1")
def test_criterion_9_quasiperiodic():
    spec = QuasiPeriodicSpec(
        m=2, schedule=((1, 2, 3), (9, 4, 5)),
        base_rules=(const_rule(2), const_rule(1)),
    )
    pq = build_quasiperiodic(spec, 40)
    scan = verify_quasiperiodic(pq, spec.schedule)
    assert scan.ok
    for n_k, r_k, lam_k in spec.schedule:
        for i in range(n_k, min(n_k + (lam_k - 1) * r_k, 40 - r_k)):
            for j in range(2):
                assert pq.seqs[j][i + r_k] == pq.seqs[j][i]
    b = main2_constant(1, "statement")
    assert b.lo == b.hi == 1


@criterion(10, "criterion reports byte-identical across runs and precision budgets")
def test_criterion_10_report_stability():
    def make_reports():
        li = construct_liouville(
            LiouvilleSpec(m=2, delta=Fraction(1), depth=10,
                          tail_rules=(const_rule(0),), head=0)
        )
        out = [dumps_stable(criterion_report_to_json(verify_liouville(li, Fraction(1))))]
        spec = QuasiPeriodicSpec(
            m=2, schedule=((2, 1, 5), (10, 1, 21)),
            base_rules=(const_rule(1), const_rule(0)),
        )
        from mcf.transcendence import main1_check, main2_check

        out.append(dumps_stable(criterion_report_to_json(
            main1_check(spec, d=2, c=Fraction(2), depth=16))))
        out.append(dumps_stable(criterion_report_to_json(
            main2_check(spec, M=1, r_bound=1, variant="lemma38", depth=16))))
        rng = random.Random(110)
        pq = random_admissible_m2(rng, 40)
        out.append(dumps_stable(growth_report_to_json(growth_check(pq))))
        return out

    baseline = make_reports()
    assert make_reports() == baseline
    old = os.environ.get("MCF_PRECISION_BUDGET")
    try:
        for budget in ("8", "256"):
            os.environ["MCF_PRECISION_BUDGET"] = budget
            assert make_reports() == baseline
    finally:
        if old is None:
            os.environ.pop("MCF_PRECISION_BUDGET", None)
        else:
            os.environ["MCF_PRECISION_BUDGET"] = old
