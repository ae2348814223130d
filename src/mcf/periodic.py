"""Exact evaluation of eventually periodic m = 2 expansions.

A periodic pair of quotient sequences pins the limit pair (alpha, beta) as
the fixed point of a matrix cocycle.  Writing W for the convergent-column
matrix at index k+h-1 and V for the one at k-1 (pre-period length k, period
length h), the integer matrix X = W V^{-1} satisfies

    X (alpha, beta, 1)^T = lambda (alpha, beta, 1)^T

for a real lambda, and eliminating lambda leaves two quadratic relations in
alpha and beta.  Eliminating either variable from those yields integer
cubics annihilating the other: both limits are cubic irrationals, and their
naive heights are bounded by 3024 C_{h+k-1}^9 when both limits lie in (0,1)
(3024 N^5 M^5 C_{h+k-1}^9 for limits in (0,N) x (0,M)).

V^{-1} needs no division: det V = 1 and the adjugate entries are exactly the
lag-product ("tilde") sequences of the convergents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .convergents import Column, column_table, conv_stream
from .engine import PartialQuotients, check_admissible, expand
from .errors import (
    AdmissibilityError,
    DegenerateCubic,
    InputError,
    NonTerminating,
    PeriodMismatch,
    RootSelectionAmbiguous,
)
from .exact_reals import AlgebraicValue, FieldElement, NumberField, refinement_budget
from .intervals import RationalInterval, as_fraction
from . import polynomials as pol


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicSpec:
    """Pre-period blocks (length k, possibly empty) and period blocks (length h >= 1)."""

    pre_a: tuple[int, ...]
    pre_b: tuple[int, ...]
    per_a: tuple[int, ...]
    per_b: tuple[int, ...]

    def __post_init__(self):
        for name in ("pre_a", "pre_b", "per_a", "per_b"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        if len(self.pre_a) != len(self.pre_b):
            raise InputError("pre-period blocks must have equal length")
        if len(self.per_a) != len(self.per_b):
            raise InputError("period blocks must have equal length")
        if len(self.per_a) < 1:
            raise InputError("period length h must be >= 1")

    @property
    def k(self) -> int:
        return len(self.pre_a)

    @property
    def h(self) -> int:
        return len(self.per_a)


def unroll(spec: PeriodicSpec, length: int) -> PartialQuotients:
    """First `length` quotients of the unrolled (eventually periodic) sequences."""
    k, h = spec.k, spec.h
    a = [spec.pre_a[n] if n < k else spec.per_a[(n - k) % h] for n in range(length)]
    b = [spec.pre_b[n] if n < k else spec.per_b[(n - k) % h] for n in range(length)]
    return PartialQuotients.from_lists(a, b)


def validate_spec(spec: PeriodicSpec) -> None:
    """Admissibility of the infinite unrolled sequences, wrap-around included.

    The conditions are local (indices n, n+1), so a prefix of length
    k + 2h + 2 covers every distinct (position, successor) pair.
    """
    probe = unroll(spec, spec.k + 2 * spec.h + 2)
    report = check_admissible(probe)
    if not report.ok:
        v = report.violations[0]
        raise AdmissibilityError(f"spec not admissible: {v.message}", v.index)


# ---------------------------------------------------------------------------
# The X matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XMatrix:
    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.rows) != 3 or any(len(r) != 3 for r in self.rows):
            raise InputError("XMatrix is 3x3")
        object.__setattr__(self, "rows", tuple(tuple(int(v) for v in r) for r in self.rows))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i - 1][j - 1]

    def max_abs(self) -> int:
        return max(abs(v) for row in self.rows for v in row)


def _col(cols, off, n) -> Column:
    return cols[n + off]


def x_matrix(spec: PeriodicSpec) -> XMatrix:
    """X = W V^{-1} with V^{-1} assembled from the lag-product sequences."""
    validate_spec(spec)
    k, h = spec.k, spec.h
    pq = unroll(spec, k + h)
    cols, off = column_table(pq, k + h - 1)

    def a_of(c: Column) -> int:
        return c.A[0]

    def b_of(c: Column) -> int:
        return c.A[1]

    def c_of(c: Column) -> int:
        return c.C

    def cross(n: int, lag: int, f, g) -> int:
        u, v = _col(cols, off, n), _col(cols, off, n - lag)
        return f(u) * g(v) - f(v) * g(u)

    # adjugate of the index-(k-1) column matrix (det = +1)
    inv = (
        (cross(k - 2, 1, b_of, c_of), -cross(k - 2, 1, a_of, c_of), cross(k - 2, 1, a_of, b_of)),
        (-cross(k - 1, 2, b_of, c_of), cross(k - 1, 2, a_of, c_of), -cross(k - 1, 2, a_of, b_of)),
        (cross(k - 1, 1, b_of, c_of), -cross(k - 1, 1, a_of, c_of), cross(k - 1, 1, a_of, b_of)),
    )
    w_rows = []
    for f in (a_of, b_of, c_of):
        w_rows.append(tuple(f(_col(cols, off, k + h - 1 - j)) for j in range(3)))
    rows = tuple(
        tuple(sum(w_rows[i][t] * inv[t][j] for t in range(3)) for j in range(3))
        for i in range(3)
    )
    return XMatrix(rows)


# ---------------------------------------------------------------------------
# Cubic coefficients
# ---------------------------------------------------------------------------


def _eliminate(x: XMatrix, target: str) -> tuple[int, int, int, int]:
    """Eliminate the other variable from the two quadratic relations.

    Returns the coefficients (A, B, C, D) of A t^3 + B t^2 + C t + D after
    asserting that the degree-4 coefficient cancels exactly.
    """
    X = x
    if target == "beta":
        p = [-X[2, 3], X[3, 3] - X[2, 2], X[3, 2]]
        q = [X[2, 1], -X[3, 1]]
        s = [X[3, 3] - X[1, 1], X[3, 2]]
        t = [X[1, 3], X[1, 2]]
        lead = X[3, 1]
    elif target == "alpha":
        p = [-X[1, 3], X[3, 3] - X[1, 1], X[3, 1]]
        q = [X[1, 2], -X[3, 2]]
        s = [X[3, 3] - X[2, 2], X[3, 1]]
        t = [X[2, 3], X[2, 1]]
        lead = X[3, 2]
    else:
        raise InputError("target must be 'alpha' or 'beta'")
    expr = pol.poly_add(
        pol.poly_scale(pol.poly_mul(p, p), lead),
        pol.poly_sub(
            pol.poly_mul(pol.poly_mul(s, p), q),
            pol.poly_mul(t, pol.poly_mul(q, q)),
        ),
    )
    coeffs = list(expr) + [Fraction(0)] * (5 - len(expr))
    if coeffs[4] != 0:
        raise DegenerateCubic("degree-4 terms failed to cancel (bug)")
    return (int(coeffs[3]), int(coeffs[2]), int(coeffs[1]), int(coeffs[0]))


def _explicit_coeffs(x: XMatrix, target: str) -> tuple[int, int, int, int]:
    """The verified closed-form coefficient lists, cubic in the X entries."""
    x11, x12, x13 = x[1, 1], x[1, 2], x[1, 3]
    x21, x22, x23 = x[2, 1], x[2, 2], x[2, 3]
    x31, x32, x33 = x[3, 1], x[3, 2], x[3, 3]
    if target == "beta":
        a = x11 * x31 * x32 - x12 * x31**2 + x21 * x32**2 - x22 * x31 * x32
        b = (
            -x11 * x21 * x32 - x11 * x22 * x31 + x11 * x31 * x33 + 2 * x12 * x21 * x31
            - x13 * x31**2 - x21 * x22 * x32 + 2 * x21 * x32 * x33 + x22**2 * x31
            - x22 * x31 * x33 - x23 * x31 * x32
        )
        c = (
            x11 * x21 * x22 - x11 * x21 * x33 - x11 * x23 * x31 - x12 * x21**2
            + 2 * x13 * x21 * x31 - x21 * x22 * x33 - x21 * x23 * x32 + x21 * x33**2
            + 2 * x22 * x23 * x31 - x23 * x31 * x33
        )
        d = x11 * x21 * x23 - x13 * x21**2 - x21 * x23 * x33 + x23**2 * x31
    else:
        a = -x11 * x31 * x32 + x12 * x31**2 - x21 * x32**2 + x22 * x31 * x32
        b = (
            x11**2 * x32 - x11 * x12 * x31 - x11 * x22 * x32 - x11 * x32 * x33
            + 2 * x12 * x21 * x32 - x12 * x22 * x31 + 2 * x12 * x31 * x33
            - x13 * x31 * x32 + x22 * x32 * x33 - x23 * x32**2
        )
        c = (
            x11 * x12 * x22 - x11 * x12 * x33 + 2 * x11 * x13 * x32 - x12**2 * x21
            - x12 * x13 * x31 - x12 * x22 * x33 + 2 * x12 * x23 * x32 + x12 * x33**2
            - x13 * x22 * x32 - x13 * x32 * x33
        )
        d = -(x12**2) * x23 + x12 * x13 * x22 - x12 * x13 * x33 + x13**2 * x32
    return (a, b, c, d)


def cubic_coeffs(x: XMatrix, target: str) -> tuple[int, int, int, int]:
    """Coefficients (A, B, C, D) of the integer cubic annihilating the target limit.

    Evaluated from the explicit closed forms and re-derived by polynomial
    elimination; the two must agree and the quartic terms must cancel.
    Raises DegenerateCubic when the leading coefficient vanishes (the
    residual lower-degree polynomial rides along in the exception).
    """
    explicit = _explicit_coeffs(x, target)
    eliminated = _eliminate(x, target)
    if explicit != eliminated:
        raise AssertionError(
            f"coefficient routes disagree for {target}: {explicit} vs {eliminated}"
        )
    if explicit[0] == 0:
        raise DegenerateCubic(
            f"leading coefficient vanishes for {target}; residual polynomial attached",
            residual=tuple(reversed(explicit[1:])),
        )
    return explicit


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubicCertificate:
    """Exact cubic data recovered from a periodic spec.

    Polynomials are primitive integer coefficient tuples, constant term
    first, positive leading coefficient.  `bound` is the certified height
    bound when `bound_applicable` (index-0 quotients nonnegative); heights
    must satisfy it whenever the hypotheses hold.
    """

    spec: PeriodicSpec
    poly_alpha: tuple[int, ...]
    poly_beta: tuple[int, ...]
    height_alpha: int
    height_beta: int
    c_top: int
    bound: int | None
    bound_applicable: bool
    alpha: AlgebraicValue
    beta: AlgebraicValue
    alpha_interval: RationalInterval
    beta_interval: RationalInterval
    residual_ok: bool
    matched_steps: int


def _descending_to_constant_first(quartet: tuple[int, int, int, int]) -> tuple[int, ...]:
    return tuple(reversed(quartet))


def _certified_small_residual(poly, iv: RationalInterval, width: Fraction) -> bool:
    image = pol.poly_eval_interval(poly, iv)
    return -width < image.lo and image.hi < width


def solve_periodic(
    spec: PeriodicSpec,
    residual_width=Fraction(1, 10**50),
    match_steps: int | None = None,
) -> CubicCertificate:
    """Full pipeline: X matrix, cubic coefficients, heights and bound, root
    selection by re-expansion, and interval residual certification.

    The root of the alpha-cubic is selected by re-expanding each candidate
    pair exactly and matching at least `match_steps` (default 2(k+h))
    quotients against the unrolled spec; the partner beta is the exact
    rational function of alpha given by the first X-relation.
    """
    residual_width = as_fraction(residual_width)
    k, h = spec.k, spec.h
    steps = 2 * (k + h) if match_steps is None else match_steps
    x = x_matrix(spec)

    quartet_a = cubic_coeffs(x, "alpha")
    quartet_b = cubic_coeffs(x, "beta")
    poly_a = pol.primitive_part(_descending_to_constant_first(quartet_a))
    poly_b = pol.primitive_part(_descending_to_constant_first(quartet_b))

    for name, poly in (("alpha", poly_a), ("beta", poly_b)):
        rats = pol.rational_roots(poly)
        if rats:
            raise DegenerateCubic(
                f"recovered {name} cubic has rational root {rats[0]}; "
                "input is outside the cubic-irrational regime",
                residual=poly,
            )

    height_a = pol.height(poly_a)
    height_b = pol.height(poly_b)
    pq_top = unroll(spec, k + h)
    rows = list(conv_stream(pq_top, k + h - 1))
    c_top = rows[k + h - 1].C
    a0, b0 = pq_top.seqs[0][0], pq_top.seqs[1][0]
    if (a0, b0) == (0, 0):
        bound, applicable = 3024 * c_top**9, True
    elif a0 >= 0 and b0 >= 0:
        bound, applicable = 3024 * (a0 + 1) ** 5 * (b0 + 1) ** 5 * c_top**9, True
    else:
        bound, applicable = None, False

    target = unroll(spec, steps)
    candidates = pol.isolate_real_roots(poly_a)
    budget = refinement_budget()

    for attempt in range(4):
        matched: list[tuple[RationalInterval, FieldElement, FieldElement]] = []
        probe = steps * (2**attempt)
        probe_target = unroll(spec, probe)
        for iv in candidates:
            try:
                fld = NumberField(poly_a, iv)
            except InputError:
                continue
            theta = fld.gen()
            den = fld.element([x[1, 2]]) - fld.element([x[3, 2]]) * theta
            if den.is_zero():
                continue
            beta_el = (
                fld.element([x[3, 1]]) * theta * theta
                + fld.element([x[3, 3] - x[1, 1]]) * theta
                - fld.element([x[1, 3]])
            ) / den
            beta_residual = _field_poly_eval(poly_b, beta_el)
            if not beta_residual.is_zero():
                continue
            try:
                rec = expand([AlgebraicValue(theta), AlgebraicValue(beta_el)], probe)
            except NonTerminating:
                continue
            if (
                rec.pq.is_rectangular
                and rec.pq.seqs[0][:probe] == probe_target.seqs[0]
                and rec.pq.seqs[1][:probe] == probe_target.seqs[1]
            ):
                matched.append((iv, theta, beta_el))
        if len(matched) == 1:
            iv, theta, beta_el = matched[0]
            break
        if not matched:
            raise RootSelectionAmbiguous(
                "no real root of the recovered cubic reproduces the expansion"
            )
        # more than one candidate survived: probe deeper
    else:
        raise RootSelectionAmbiguous(
            f"{len(matched)} roots still reproduce the prefix after deepening"
        )

    fld = theta.field
    for _ in range(budget):
        alpha_iv = fld.root_interval()
        if _certified_small_residual(poly_a, alpha_iv, residual_width):
            break
        fld.refine_root(alpha_iv.width / (1 << 32))
    else:
        raise NonTerminating("alpha residual certification budget exhausted")

    width = Fraction(1, 10**10)
    for _ in range(budget):
        beta_iv = beta_el.interval(width)
        if _certified_small_residual(poly_b, beta_iv, residual_width):
            break
        width = width / (1 << 32)
    else:
        raise NonTerminating("beta residual certification budget exhausted")

    return CubicCertificate(
        spec=spec,
        poly_alpha=poly_a,
        poly_beta=poly_b,
        height_alpha=height_a,
        height_beta=height_b,
        c_top=c_top,
        bound=bound,
        bound_applicable=applicable,
        alpha=AlgebraicValue(theta),
        beta=AlgebraicValue(beta_el),
        alpha_interval=alpha_iv,
        beta_interval=beta_iv,
        residual_ok=True,
        matched_steps=probe,
    )


def _field_poly_eval(int_poly, el: FieldElement) -> FieldElement:
    acc = el.field.zero()
    for c in reversed(pol.normalize(int_poly)):
        acc = acc * el + el.field.element([c])
    return acc


# ---------------------------------------------------------------------------
# Same-cubic-field check
# ---------------------------------------------------------------------------


def same_field_check(spec1: PeriodicSpec, spec2: PeriodicSpec) -> bool:
    """Verify that two specs sharing their period blocks generate the same cubic field.

    Solves the shared purely periodic tail once (field Q(tau)), maps each
    spec's limits through the exact fractional-linear expressions in the
    tail pair, and checks that each spec's independently recovered cubic
    annihilates the mapped element exactly.
    """
    if spec1.per_a != spec2.per_a or spec1.per_b != spec2.per_b:
        raise PeriodMismatch("specs do not share identical period blocks")
    pure = PeriodicSpec((), (), spec1.per_a, spec1.per_b)
    cert_tail = solve_periodic(pure)
    tau_alpha = cert_tail.alpha.element
    tau_beta = cert_tail.beta.element
    fld = tau_alpha.field

    for spec in (spec1, spec2):
        k = spec.k
        pq = unroll(spec, max(k, 1))
        cols, off = column_table(pq, k - 1)

        def lift(col) -> tuple[FieldElement, FieldElement, FieldElement]:
            return (
                fld.element([col.A[0]]),
                fld.element([col.A[1]]),
                fld.element([col.C]),
            )

        c1, c2, c3 = (cols[k - 1 - j + off] for j in range(3))
        a_num = lift(c1)[0] * tau_alpha + lift(c2)[0] * tau_beta + lift(c3)[0]
        b_num = lift(c1)[1] * tau_alpha + lift(c2)[1] * tau_beta + lift(c3)[1]
        den = lift(c1)[2] * tau_alpha + lift(c2)[2] * tau_beta + lift(c3)[2]
        if den.is_zero():
            return False
        alpha0 = a_num / den
        beta0 = b_num / den
        cert = solve_periodic(spec)
        if not _field_poly_eval(cert.poly_alpha, alpha0).is_zero():
            return False
        if not _field_poly_eval(cert.poly_beta, beta0).is_zero():
            return False
        if alpha0.is_rational() or beta0.is_rational():
            return False
    return True
