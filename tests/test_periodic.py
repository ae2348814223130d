"""Periodic expansions: X matrix, cubic recovery, heights, round trips."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import long_periodic_spec, pq_prefix_equal, random_periodic_spec
from references import _eliminate, same_field_check, x_matrix_by_inverse

from mcf import (
    AdmissibilityError,
    DegenerateCubic,
    InputError,
    MCFError,
    PeriodicSpec,
    RootSelectionAmbiguous,
    expand,
    solve_periodic,
)
from mcf import periodic
from mcf import polynomials as pol
from mcf.exact_reals import NumberField
from mcf.periodic import (
    XMatrix,
    cubic_coeffs,
    unroll,
    validate_spec,
    x_matrix,
)
from mcf.polynomials import poly_eval_interval
from mcf.recurrence import conv_stream
from mcf.serialization import certificate_to_json, dumps_stable


def test_spec_validation():
    validate_spec(PeriodicSpec((), (), (2,), (1,)))
    with pytest.raises(AdmissibilityError):
        # period block would place a 0 head at n = h
        validate_spec(PeriodicSpec((), (), (0,), (0,)))
    with pytest.raises(AdmissibilityError):
        # tie wrap: a = b in period forces next b >= 1 but next b is 0
        validate_spec(PeriodicSpec((), (), (2, 2), (2, 0)))


def test_x_matrix_single_period():
    x, c_top = x_matrix(PeriodicSpec((), (), (2,), (1,)))
    assert x.rows == ((2, 1, 0), (1, 0, 1), (1, 0, 0))
    assert c_top == 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False), st.sampled_from(["short", "zero head", "pure", "long"]))
def test_x_matrix_matches_inverse_oracle(rng, kind):
    # a pure period (k = 0) takes no inverse step; a long pre-period takes hundreds
    spec = (long_periodic_spec(rng, 200, 400) if kind == "long"
            else random_periodic_spec(rng, k_max=0 if kind == "pure" else 6, h_max=5,
                                      zero_head=kind == "zero head"))
    x, c_top = x_matrix(spec)
    assert x.rows == x_matrix_by_inverse(spec).rows
    top = spec.k + spec.h - 1
    assert c_top == list(conv_stream(unroll(spec, top + 1)))[top].C


def test_cubic_coeffs_fixed_points():
    x, _ = x_matrix(PeriodicSpec((), (), (2,), (1,)))
    assert cubic_coeffs(x, "alpha") == (1, -2, -1, -1)
    x, _ = x_matrix(PeriodicSpec((), (), (1,), (1,)))
    assert cubic_coeffs(x, "alpha") == (1, -1, -1, -1)


def test_cubic_coeffs_swap_symmetry():
    rng = random.Random(22)
    swap = {1: 2, 2: 1, 3: 3}
    for _ in range(30):
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
        x = XMatrix(rows)
        swapped = XMatrix(
            tuple(
                tuple(rows[swap[i + 1] - 1][swap[j + 1] - 1] for j in range(3))
                for i in range(3)
            )
        )
        try:
            alpha = cubic_coeffs(x, "alpha")
            beta_swapped = cubic_coeffs(swapped, "beta")
        except DegenerateCubic:
            continue
        assert alpha == beta_swapped


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6)),
             min_size=9, max_size=9),
    st.sampled_from(["alpha", "beta"]),
)
def test_closed_forms_match_elimination(entries, target):
    x = XMatrix(tuple(tuple(entries[3 * i:3 * i + 3]) for i in range(3)))
    coeffs = _eliminate(x, target)
    if coeffs[0] == 0:
        with pytest.raises(DegenerateCubic) as err:
            cubic_coeffs(x, target)
        assert err.value.residual == tuple(reversed(coeffs[1:]))
    else:
        assert cubic_coeffs(x, target) == coeffs


def test_cubic_coeffs_degenerate():
    x = XMatrix(((1, 1, 1), (1, 1, 1), (0, 0, 1)))  # X31 = X32 = 0 kills the lead
    with pytest.raises(DegenerateCubic) as err:
        cubic_coeffs(x, "alpha")
    assert err.value.residual is not None


def test_solve_periodic_acceptance_examples():
    cert = solve_periodic(PeriodicSpec((), (), (2,), (1,)))
    assert cert.poly_alpha == (-1, -1, -2, 1)
    assert cert.height_alpha == 2
    assert cert.residual_ok

    cert2 = solve_periodic(PeriodicSpec((), (), (1,), (1,)))
    assert cert2.poly_alpha == (-1, -1, -1, 1)
    mid = cert2.alpha_interval.midpoint()
    assert abs(mid - Fraction(18392867552141612, 10**16)) < Fraction(1, 10**10)


def test_certificate_residual_certified_small():
    cert = solve_periodic(PeriodicSpec((0,), (0,), (3, 2), (1, 0)))
    w = Fraction(1, 10**50)
    img_a = poly_eval_interval(cert.poly_alpha, cert.alpha_interval)
    img_b = poly_eval_interval(cert.poly_beta, cert.beta_interval)
    assert -w < img_a.lo and img_a.hi < w
    assert -w < img_b.lo and img_b.hi < w


def test_round_trip_reexpansion():
    rng = random.Random(23)
    for _ in range(10):
        spec = random_periodic_spec(rng, k_max=2, h_max=3)
        cert = solve_periodic(spec)
        steps = 20
        rec = expand([cert.alpha, cert.beta], steps)
        assert rec.pq.is_rectangular
        assert pq_prefix_equal(rec.pq, unroll(spec, steps), steps - 1)


def assert_round_trip(spec):
    cert = solve_periodic(spec)
    steps = 3 * (spec.k + spec.h)
    rec = expand([cert.alpha, cert.beta], steps)
    assert rec.pq.seqs == unroll(spec, steps).seqs


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False), st.booleans())
def test_periodic_spec_round_trip(rng, zero_head):
    assert_round_trip(random_periodic_spec(rng, zero_head=zero_head))


@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False))
def test_long_pre_period_round_trip(rng):
    assert_round_trip(long_periodic_spec(rng, 200, 400))


def test_seeded_certificates_digest():
    # the certificate JSON, or the error, of 400 seeded specs: pins every root bracket the
    # cubic's isolation and refinement produce
    digest = hashlib.sha256()
    for zero_head in (False, True):
        for seed in range(200):
            try:
                line = dumps_stable(certificate_to_json(solve_periodic(
                    random_periodic_spec(random.Random(seed), zero_head=zero_head))))
            except MCFError as exc:
                line = f"{type(exc).__name__}: {exc}"
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "901885ed1dbdefd12de66026494a245344ec61877efc7ebe9b8d7142ee0dcdda"


def test_height_bound_zero_head():
    rng = random.Random(24)
    for _ in range(15):
        spec = random_periodic_spec(rng, zero_head=True)
        cert = solve_periodic(spec)
        assert cert.bound_applicable
        assert cert.bound == 3024 * cert.c_top**9
        assert cert.height_alpha <= cert.bound
        assert cert.height_beta <= cert.bound
        assert max(abs(v) for row in x_matrix(spec)[0].rows for v in row) <= 6 * cert.c_top**3


def test_height_bound_general_box():
    rng = random.Random(25)
    for _ in range(8):
        spec = random_periodic_spec(rng, zero_head=False)
        cert = solve_periodic(spec)
        a0, b0 = unroll(spec, 1).seqs[0][0], unroll(spec, 1).seqs[1][0]
        if a0 >= 0 and b0 >= 0:
            assert cert.bound == 3024 * (a0 + 1) ** 5 * (b0 + 1) ** 5 * cert.c_top**9
            assert cert.height_alpha <= cert.bound


def test_same_field_check():
    s1 = PeriodicSpec((), (), (2,), (1,))
    assert same_field_check(s1, s1)
    s2 = PeriodicSpec((0,), (0,), (2,), (1,))
    s3 = PeriodicSpec((1,), (1,), (2,), (1,))
    assert same_field_check(s2, s3)
    with pytest.raises(InputError):
        same_field_check(s1, PeriodicSpec((), (), (3,), (1,)))


def test_c_top_uses_standard_initial_conditions():
    # C_0 = 1 by the initial conditions, whatever a_0 is
    cert = solve_periodic(PeriodicSpec((), (), (2,), (1,)))
    assert cert.c_top == 1
    spec = PeriodicSpec((0, 2), (0, 1), (3, 2), (1, 0))
    cert2 = solve_periodic(spec)
    rows = list(conv_stream(unroll(spec, 4)))
    assert cert2.c_top == rows[3].C


def test_spec_blocks_take_integers_only():
    assert PeriodicSpec([], [], [2], [1]).per_a == (2,)
    with pytest.raises(InputError, match=r"^entry 1 of per_a must be an integer, got float$"):
        PeriodicSpec((), (), (2, 1.5), (1, 0))
    with pytest.raises(InputError, match=r"^entry 0 of pre_b must be an integer, got bool$"):
        PeriodicSpec((0,), (True,), (2,), (1,))



@pytest.mark.parametrize("entry, kind", [(1.9, "float"), ("3", "str"), (True, "bool")])
def test_x_matrix_takes_integers_only(entry, kind):
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows[1][2] = entry
    with pytest.raises(InputError, match=rf"^entry 2 of X row 1 must be an integer, got {kind}$"):
        XMatrix(tuple(map(tuple, rows)))

# (1, 3) / (0, 0): the alpha cubic x^3 + x^2 - 2x - 1 has three real roots; alpha is the largest
SEPTIC = PeriodicSpec((), (), (1, 3), (0, 0))


@pytest.mark.parametrize("target", ["alpha", "beta"])
@pytest.mark.parametrize("coeffs, root", [
    ((1, -1, -2, 2), "1"),     # (x - 1)(x^2 - 2)
    ((1, -7, 15, -9), "1"),    # (x - 3)^2 (x - 1), not squarefree
    ((1, -6, 12, -8), "2"),    # (x - 2)^3
    ((2, 1, -6, -3), "-1/2"),  # (2x + 1)(x^2 - 3)
    ((1, 0, -2, 0), "0"),      # x (x^2 - 2)
])
def test_a_rational_root_of_a_recovered_cubic_is_degenerate(monkeypatch, target, coeffs, root):
    recover = periodic.cubic_coeffs
    monkeypatch.setattr(periodic, "cubic_coeffs",
                        lambda x, name: coeffs if name == target else recover(x, name))
    if target == "beta":
        # Q(alpha) is a cubic field, so the beta cubic has a rational root exactly when the
        # selected beta is rational; the closed forms give no such spec, so _partner is
        # patched to select the rational root
        monkeypatch.setattr(periodic, "_partner", lambda fld, *_: fld.element([Fraction(root)]))
    with pytest.raises(DegenerateCubic) as err:
        solve_periodic(PeriodicSpec((), (), (2,), (1,)))
    assert str(err.value) == (f"recovered {target} cubic has rational root {root}; "
                              "input is outside the cubic-irrational regime")
    assert err.value.residual == tuple(reversed(coeffs))


def test_solve_periodic_isolates_each_cubic_once(monkeypatch):
    # only the alpha cubic: beta's degeneracy is decided in Q(alpha)
    calls, isolate = [], pol.isolate_real_roots
    monkeypatch.setattr(pol, "isolate_real_roots", lambda p: calls.append(p) or isolate(p))
    cert = solve_periodic(SEPTIC)
    assert calls == [cert.poly_alpha]


@pytest.mark.parametrize("pre_a, pre_b", [((-1,), (0,)), ((0,), (-1,)), ((-3,), (5,))])
def test_a_negative_index_0_quotient_makes_the_bound_inapplicable(pre_a, pre_b):
    spec = PeriodicSpec(pre_a, pre_b, (2,), (1,))
    cert = solve_periodic(spec)
    assert (cert.bound, cert.bound_applicable) == (None, False)
    assert expand([cert.alpha, cert.beta], 12).pq.seqs == unroll(spec, 12).seqs


def test_septic_selects_the_largest_root_by_the_convergent_simplex():
    # L = 4: of the three roots' brackets, refined to the width of the alpha-projection of
    # the convergents 4..6, only the largest root's meets it
    cert = solve_periodic(SEPTIC)
    assert (cert.poly_alpha, cert.matched_steps) == ((-1, -2, 1, 1), 4)
    assert cert.alpha_interval.lo > 1  # 2 cos(2 pi / 7)
    lo, _, hi = sorted(Fraction(col.A[0], col.C) for col in list(conv_stream(unroll(SEPTIC, 7)))[4:])
    brackets = [fld.refine_root(hi - lo) for fld in periodic._root_fields(cert.poly_alpha)]
    assert [iv.lo <= hi and lo <= iv.hi for iv in brackets] == [False, False, True]
    assert brackets[2].lo > 1


def test_root_selection_doubles_l_while_another_root_meets_the_simplex(monkeypatch):
    # a spec sharing SEPTIC's first L + 3 = 7 quotients has its limit in the simplex of the
    # convergents 4..6 too, but not in that of 8..10
    head = unroll(SEPTIC, 7).seqs
    twin = solve_periodic(PeriodicSpec(head[0], head[1], (2,), (1,))).alpha.element.field
    root_fields = periodic._root_fields
    monkeypatch.setattr(periodic, "_root_fields", lambda poly: root_fields(poly) + [twin])
    cert = solve_periodic(SEPTIC)
    assert cert.matched_steps == 8
    assert cert.alpha_interval.lo > 1
    assert expand([cert.alpha, cert.beta], 12).pq.seqs == unroll(SEPTIC, 12).seqs


def test_root_selection_ambiguous_after_deepening(monkeypatch):
    # a second field on the selected root meets every simplex: L doubles three times
    root_fields, lengths, unroll_spec = periodic._root_fields, [], periodic.unroll

    def with_a_copy(poly):
        fields = root_fields(poly)
        return fields + [NumberField(fields[-1].min_poly, fields[-1].root_interval())]

    monkeypatch.setattr(periodic, "_root_fields", with_a_copy)
    monkeypatch.setattr(periodic, "unroll", lambda spec, n: lengths.append(n) or unroll_spec(spec, n))
    with pytest.raises(RootSelectionAmbiguous) as err:
        solve_periodic(SEPTIC)
    assert str(err.value) == "2 roots still meet the convergent simplex after deepening"
    assert lengths == [6, 7, 11, 19, 35]  # validate_spec's probe, then the columns L..L+2


def test_a_root_without_a_partner_is_not_the_limit(monkeypatch):
    fld = periodic._root_fields(solve_periodic(SEPTIC).poly_alpha)[-1]
    identity = XMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))  # X12 = X32 = 0: a zero denominator
    assert periodic._partner(fld, identity, (1, 0, 0, 1)) is None
    recover = periodic.cubic_coeffs
    monkeypatch.setattr(periodic, "cubic_coeffs",  # beta is no root of x^3 - 3
                        lambda x, name: (1, 0, 0, -3) if name == "beta" else recover(x, name))
    with pytest.raises(RootSelectionAmbiguous) as err:
        solve_periodic(SEPTIC)
    assert str(err.value) == "no real root of the recovered cubic is the limit of the expansion"
