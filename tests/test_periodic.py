"""Periodic expansions: X matrix, cubic recovery, heights, round trips."""

import random
from fractions import Fraction

import pytest

from helpers import pq_prefix_equal, random_periodic_spec
from references import x_matrix_by_inverse

from mcf import (
    AdmissibilityError,
    DegenerateCubic,
    PeriodicSpec,
    PeriodMismatch,
    XMatrix,
    cubic_coeffs,
    expand,
    conv_stream,
    same_field_check,
    solve_periodic,
    unroll,
    validate_spec,
    x_matrix,
)
from mcf.polynomials import poly_eval_interval


def test_spec_validation():
    validate_spec(PeriodicSpec((), (), (2,), (1,)))
    with pytest.raises(AdmissibilityError):
        # period block would place a 0 head at n = h
        validate_spec(PeriodicSpec((), (), (0,), (0,)))
    with pytest.raises(AdmissibilityError):
        # tie wrap: a = b in period forces next b >= 1 but next b is 0
        validate_spec(PeriodicSpec((), (), (2, 2), (2, 0)))


def test_x_matrix_single_period():
    x = x_matrix(PeriodicSpec((), (), (2,), (1,)))
    assert x.rows == ((2, 1, 0), (1, 0, 1), (1, 0, 0))


def test_x_matrix_matches_inverse_oracle():
    rng = random.Random(21)
    for _ in range(40):
        spec = random_periodic_spec(rng, k_max=4, h_max=4)
        assert x_matrix(spec).rows == x_matrix_by_inverse(spec).rows


def test_cubic_coeffs_fixed_points():
    x = x_matrix(PeriodicSpec((), (), (2,), (1,)))
    assert cubic_coeffs(x, "alpha") == (1, -2, -1, -1)
    x = x_matrix(PeriodicSpec((), (), (1,), (1,)))
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


def test_height_bound_zero_head():
    rng = random.Random(24)
    for _ in range(15):
        spec = random_periodic_spec(rng, zero_head=True)
        cert = solve_periodic(spec)
        assert cert.bound_applicable
        assert cert.bound == 3024 * cert.c_top**9
        assert cert.height_alpha <= cert.bound
        assert cert.height_beta <= cert.bound
        assert x_matrix(spec).max_abs() <= 6 * cert.c_top**3


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
    with pytest.raises(PeriodMismatch):
        same_field_check(s1, PeriodicSpec((), (), (3,), (1,)))


def test_c_top_uses_standard_initial_conditions():
    # C_0 = 1 by the initial conditions, whatever a_0 is
    cert = solve_periodic(PeriodicSpec((), (), (2,), (1,)))
    assert cert.c_top == 1
    spec = PeriodicSpec((0, 2), (0, 1), (3, 2), (1, 0))
    cert2 = solve_periodic(spec)
    rows = list(conv_stream(unroll(spec, 4)))
    assert cert2.c_top == rows[3].C
