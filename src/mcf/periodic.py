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

V^{-1} needs no division: V is the product of the pre-period's step matrices,
each with an integer inverse.  The limit of an admissible expansion lies in
the simplex of any 3 consecutive convergents, so that simplex picks alpha
among the alpha cubic's real roots, and the first X-relation gives beta in
Q(alpha).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AdmissibilityError, DegenerateCubic, InputError, RootSelectionAmbiguous
from .exact_reals import AlgebraicValue, FieldElement, NumberField
from .intervals import RationalInterval, certify
from .radix import Record, frac_to_str
from .recurrence import ConvergentState, PartialQuotients, check_admissible, int_entries
from . import polynomials as pol


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------


class PeriodicSpec(Record):
    """Pre-period blocks (length k, possibly empty) and period blocks (length h >= 1)."""

    __slots__ = ("pre_a", "pre_b", "per_a", "per_b")

    def __init__(self, pre_a: tuple[int, ...], pre_b: tuple[int, ...], per_a: tuple[int, ...],
                 per_b: tuple[int, ...]):
        self._init(int_entries(pre_a, "pre_a"), int_entries(pre_b, "pre_b"), int_entries(per_a, "per_a"),
                   int_entries(per_b, "per_b"))
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


class XMatrix(Record):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, int, int], ...]):
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise InputError("XMatrix is 3x3")
        self._init(tuple(int_entries(r, f"X row {i}") for i, r in enumerate(rows)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i - 1][j - 1]


def x_matrix(spec: PeriodicSpec) -> tuple[XMatrix, int]:
    """X = W V^{-1} and C_(k+h-1), from one walk of the columns through index k+h-1.  V is S_0 ... S_(k-1),
    S_n = [[a_n, 1, 0], [b_n, 0, 1], [1, 0, 0]], and a row (x, y, z) times S_n^{-1} is (y, z, x - a_n y - b_n z)."""
    validate_spec(spec)
    state = ConvergentState.initial(2)
    for a in zip(spec.pre_a + spec.per_a, spec.pre_b + spec.per_b):
        state.step(a)
    rows = []
    for x, y, z in zip(*state.window):  # row i of W: coordinate i of the columns k+h-1, k+h-2, k+h-3
        for a, b in zip(reversed(spec.pre_a), reversed(spec.pre_b)):  # S_(k-1)^{-1} first
            x, y, z = y, z, x - a * y - b * z
        rows.append((x, y, z))
    return XMatrix(tuple(rows)), state.window[0][2]


# ---------------------------------------------------------------------------
# Cubic coefficients
# ---------------------------------------------------------------------------


def cubic_coeffs(x: XMatrix, target: str) -> tuple[int, int, int, int]:
    """Coefficients (A, B, C, D) of the integer cubic annihilating the target limit: closed
    forms, cubic in the X entries, that eliminate the other variable from the two quadratic
    relations of the fixed point (alpha's is beta's with coordinates 1 and 2 swapped).
    Raises DegenerateCubic when A vanishes, with residual=(D, C, B), constant term first."""
    order = {"alpha": (2, 1, 3), "beta": (1, 2, 3)}.get(target)
    if order is None:
        raise InputError("target must be 'alpha' or 'beta'")
    (x11, x12, x13), (x21, x22, x23), (x31, x32, x33) = ([x[i, j] for j in order] for i in order)
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
    if a == 0:
        raise DegenerateCubic(
            f"leading coefficient vanishes for {target}; residual polynomial attached",
            residual=(d, c, b),
        )
    return (a, b, c, d)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class CubicCertificate(Record):
    """Exact cubic data recovered from a periodic spec.

    Polynomials are primitive integer coefficient tuples, constant term
    first, positive leading coefficient.  `bound` is the certified height
    bound when `bound_applicable` (index-0 quotients nonnegative); heights
    must satisfy it whenever the hypotheses hold.
    """

    __slots__ = ("spec", "poly_alpha", "poly_beta", "height_alpha", "height_beta", "c_top", "bound",
                 "bound_applicable", "alpha", "beta", "alpha_interval", "beta_interval", "residual_ok",
                 "matched_steps")

    def __init__(self, spec: PeriodicSpec, poly_alpha: tuple[int, ...], poly_beta: tuple[int, ...],
                 height_alpha: int, height_beta: int, c_top: int, bound: int | None,
                 bound_applicable: bool, alpha: AlgebraicValue, beta: AlgebraicValue,
                 alpha_interval: RationalInterval, beta_interval: RationalInterval,
                 residual_ok: bool, matched_steps: int):
        self._init(spec, poly_alpha, poly_beta, height_alpha, height_beta, c_top, bound,
                   bound_applicable, alpha, beta, alpha_interval, beta_interval, residual_ok,
                   matched_steps)


_RESIDUAL_WIDTH = Fraction(1, 10**50)  # each cubic's residual on its root enclosure is below this


def _certified_small_residual(poly, iv: RationalInterval) -> bool:
    image = pol.poly_eval_interval(poly, iv)
    return -_RESIDUAL_WIDTH < image.lo and image.hi < _RESIDUAL_WIDTH


def _root_fields(poly: tuple[int, ...]) -> list[NumberField]:
    """A NumberField on each real root of the alpha cubic, in increasing order; a rational
    root raises DegenerateCubic naming the smallest, so each field returned is Q(alpha), a
    cubic field (a cubic without a rational root is irreducible).  A repeated root makes
    every root rational (gcd(p, p') is rational); the modulus must be squarefree, so it is
    then the squarefree part times x^2 + 1, which has the same real roots."""
    sqf = pol.poly_divmod(poly, pol.sturm_chain(poly)[-1])[0]
    modulus = poly if len(sqf) == len(poly) else pol.primitive_part(pol.poly_mul(sqf, (1, 0, 1)))
    fields = [NumberField(modulus, iv) for iv in pol.isolate_real_roots(poly)]
    for fld in fields:
        if fld.exact_root() is not None:
            raise _degenerate("alpha", fld.exact_root(), poly)
    return fields


def _degenerate(name: str, root: Fraction, poly: tuple[int, ...]) -> DegenerateCubic:
    return DegenerateCubic(f"recovered {name} cubic has rational root {frac_to_str(root)}; "
                           "input is outside the cubic-irrational regime", residual=poly)


def _partner(fld: NumberField, x: XMatrix, poly_b) -> FieldElement | None:
    """beta in Q(alpha) from the first X-relation, or None when its denominator vanishes or
    it is not a root of the beta cubic."""
    theta = fld.gen()
    den = x[1, 2] - x[3, 2] * theta
    if den.is_zero():
        return None
    beta = (x[3, 1] * theta * theta + (x[3, 3] - x[1, 1]) * theta - x[1, 3]) / den
    return beta if pol.poly_eval(poly_b, beta).is_zero() else None


def solve_periodic(spec: PeriodicSpec) -> CubicCertificate:
    """Full pipeline: X matrix, cubic coefficients, heights and bound, root
    selection by the convergent simplex, and interval residual certification.

    The limit lies in the simplex of the convergents L..L+2, L = 2(k+h), so
    alpha is the real root of the alpha cubic whose bracket, refined to the
    width of the simplex's alpha-projection, meets that projection (closed,
    so a limit on a face counts).  While several roots meet it, L doubles,
    up to 8(k+h); a lone real root needs no walk.  `matched_steps` is L.
    """
    steps = 2 * (spec.k + spec.h)
    x, c_top = x_matrix(spec)
    poly_a = pol.primitive_part(tuple(reversed(cubic_coeffs(x, "alpha"))))
    poly_b = pol.primitive_part(tuple(reversed(cubic_coeffs(x, "beta"))))
    fields = _root_fields(poly_a)

    a0, b0 = (spec.pre_a + spec.per_a)[0], (spec.pre_b + spec.per_b)[0]
    if (a0, b0) == (0, 0):
        bound, applicable = 3024 * c_top**9, True
    elif a0 >= 0 and b0 >= 0:
        bound, applicable = 3024 * (a0 + 1) ** 5 * (b0 + 1) ** 5 * c_top**9, True
    else:
        bound, applicable = None, False

    state = ConvergentState.initial(2, (0, 2))  # (A^(1), C) of the last three columns
    for attempt in range(4):
        probe = steps << attempt
        if len(fields) > 1:
            for a in zip(*(s[state.n:] for s in unroll(spec, probe + 3).seqs)):
                state.advance(a)
            lo, _, hi = sorted(Fraction(a1, c) for a1, c in state.window)
            fields = [fld for fld in fields if (iv := fld.refine_root(hi - lo)).lo <= hi and lo <= iv.hi]
        if len(fields) < 2:
            break
    else:
        raise RootSelectionAmbiguous(f"{len(fields)} roots still meet the convergent simplex after deepening")
    beta_el = _partner(fields[0], x, poly_b) if fields else None
    if beta_el is None:
        raise RootSelectionAmbiguous("no real root of the recovered cubic is the limit of the expansion")
    fld = fields[0]
    if beta_el.is_rational():  # beta in the cubic field Q(alpha) is rational or cubic
        raise _degenerate("beta", beta_el.coords[0], poly_b)

    def alpha_residual(level):
        alpha_iv = fld.root_interval()
        if _certified_small_residual(poly_a, alpha_iv):
            return alpha_iv
        fld.refine_root(alpha_iv.width / (1 << 32))

    def beta_residual(level):
        beta_iv = beta_el.interval(Fraction(1, 10**10) / (1 << (32 * level)))
        return beta_iv if _certified_small_residual(poly_b, beta_iv) else None

    alpha_iv = certify("residual of the alpha cubic", alpha_residual)
    beta_iv = certify("residual of the beta cubic", beta_residual)

    return CubicCertificate(
        spec=spec,
        poly_alpha=poly_a,
        poly_beta=poly_b,
        height_alpha=pol.height(poly_a),
        height_beta=pol.height(poly_b),
        c_top=c_top,
        bound=bound,
        bound_applicable=applicable,
        alpha=AlgebraicValue(fld.gen()),
        beta=AlgebraicValue(beta_el),
        alpha_interval=alpha_iv,
        beta_interval=beta_iv,
        residual_ok=True,
        matched_steps=probe,
    )
