"""Independent second routes, kept as test references.

The expansion engine's per-step route: complete quotients are carried as
exact `Fraction`s or `FieldElement`s and stepped with one field inverse per
index,

    x1' = 1 / (xm - am),    xi' = (x_{i-1} - a_{i-1}) / (xm - am),

with floors from `FieldElement.floor` and integrality decided on the
representation.  `mcf.engine` never builds a complete quotient; the property
tests compare it against this loop.

The X matrix of a periodic spec by exact rational inversion of V, against
`mcf.periodic.x_matrix`, which assembles V^{-1} from lag products; and the
cubic coefficients by polynomial elimination, against the closed forms of
`mcf.periodic.cubic_coeffs`.

The convergent columns as columns of the product of the step matrices,
against the recurrence of `mcf.convergents.conv_stream`; the lag-1 products
of two columns by definition, against the rolling `LagProducts`.

The outward-rounded `Fraction` interval chain of base^e, against the integer
mantissa chain of `mcf.convergents.CertifiedPowers`.

The certified floor and integrality test of one real value of any kind, the
single-value forms of what the engine certifies per index.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mcf import polynomials as pol
from mcf.convergents import Column, column_table, lag_product
from mcf.engine import PartialQuotients
from mcf.errors import DegenerateCubic, InputError, UndecidableForOracle
from mcf.exact_reals import AlgebraicValue, NumberField, RationalValue, as_real, certify, query_levels
from mcf.intervals import RationalInterval
from mcf.periodic import PeriodicSpec, XMatrix, unroll, validate_spec


def _lower(values):
    algebraic = [v.element for v in values if isinstance(v, AlgebraicValue)]
    if not algebraic:
        return [v.value for v in values]
    fld = algebraic[0].field
    return [v.element if isinstance(v, AlgebraicValue) else fld.element([v.value]) for v in values]


def _integer(v) -> int | None:
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else None
    if v.is_rational() and v.as_fraction().denominator == 1:
        return int(v.as_fraction())
    return None


def _floor(v) -> int:
    return math.floor(v) if isinstance(v, Fraction) else v.floor()


def _inverse(v):
    return 1 / v if isinstance(v, Fraction) else v.inverse()


def reference_expand(inputs, steps: int):
    """(seqs, [(index, dimension_after, value)], terminated) of the per-step loop."""
    values = [as_real(x) for x in inputs]
    assert all(isinstance(v, (RationalValue, AlgebraicValue)) for v in values)
    state = _lower(values)
    m = len(state)
    seqs: list[list[int]] = [[] for _ in range(m)]
    events = []
    dim, n, terminated = m, 0, False
    while n < steps and dim >= 1:
        while dim >= 1 and (value := _integer(state[dim - 1])) is not None:
            seqs[dim - 1].append(value)
            if dim == 1:
                terminated = True
            else:
                events.append((n, dim - 1, value))
            dim -= 1
            state = state[:dim]
        if dim == 0:
            terminated = True
            break
        floors = [_floor(v) for v in state]
        for j, a in enumerate(floors):
            seqs[j].append(a)
        inv = _inverse(state[dim - 1] - floors[dim - 1])
        state = [inv] + [(state[j - 1] - floors[j - 1]) * inv for j in range(1, dim)]
        n += 1
    return tuple(tuple(s) for s in seqs), events, terminated


def reference_step(alpha, beta):
    """One step of the reference loop on a pair: (a, b, alpha', beta') as exact numbers."""
    va, vb = _lower([as_real(alpha), as_real(beta)])
    a, b = _floor(va), _floor(vb)
    inv = _inverse(vb - b)
    return a, b, inv, (va - a) * inv


def x_matrix_by_inverse(spec: PeriodicSpec) -> XMatrix:
    """Independent construction: W times the exact rational inverse of V."""
    validate_spec(spec)
    k, h = spec.k, spec.h
    pq = unroll(spec, k + h)
    cols, off = column_table(pq, k + h - 1)

    def col_matrix(n: int):
        c0, c1, c2 = (cols[n - j + off] for j in range(3))
        return [
            [Fraction(c0.A[0]), Fraction(c1.A[0]), Fraction(c2.A[0])],
            [Fraction(c0.A[1]), Fraction(c1.A[1]), Fraction(c2.A[1])],
            [Fraction(c0.C), Fraction(c1.C), Fraction(c2.C)],
        ]

    v = col_matrix(k - 1)
    w = col_matrix(k + h - 1)
    # invert v by Gauss-Jordan over the rationals
    aug = [v[i] + [Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for piv in range(3):
        if aug[piv][piv] == 0:
            for r in range(piv + 1, 3):
                if aug[r][piv] != 0:
                    aug[piv], aug[r] = aug[r], aug[piv]
                    break
        scale = aug[piv][piv]
        aug[piv] = [x / scale for x in aug[piv]]
        for r in range(3):
            if r != piv and aug[r][piv] != 0:
                factor = aug[r][piv]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[piv])]
    vinv = [row[3:] for row in aug]
    prod = [
        [sum(w[i][t] * vinv[t][j] for t in range(3)) for j in range(3)]
        for i in range(3)
    ]
    rows = []
    for row in prod:
        out = []
        for entry in row:
            if entry.denominator != 1:
                raise InputError("inverse-based X matrix is not integral (bug)")
            out.append(int(entry))
        rows.append(tuple(out))
    return XMatrix(tuple(rows))


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


def factor_matrix(a: tuple[int, ...]):
    """The (m+1)x(m+1) step matrix with first column (a^(1)..a^(m), 1)."""
    m = len(a)
    rows = []
    for i in range(m):
        row = [0] * (m + 1)
        row[0] = a[i]
        row[i + 1] = 1
        rows.append(tuple(row))
    rows.append(tuple([1] + [0] * m))
    return tuple(rows)


def mat_mul(x, y):
    size = len(x)
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def matrix_products(pq: PartialQuotients):
    """Yield (n, M_0 * ... * M_n) cumulatively over the rectangular range;
    column j of the product is the convergent column of index n - j."""
    prod = None
    for n in range(pq.rect_len):
        a = tuple(pq.seqs[j][n] for j in range(pq.m))
        f = factor_matrix(a)
        prod = f if prod is None else mat_mul(prod, f)
        yield n, prod


def det_int(mat) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def tildes(cur: Column, prev: Column) -> tuple[int, ...]:
    """Lag-1 products A^(i) C' - A'^(i) C, i = 1..m, of a column and its predecessor."""
    m = len(cur.A)
    return tuple(lag_product(cur, prev, i, m) for i in range(m))


class FractionPowers:
    """base^e enclosures as a chain of `Fraction` intervals, each product
    rounded outward to bits + 16 dyadic places (reduced by gcd every step)."""

    def __init__(self, field: NumberField, bits: int = 128):
        self._field, self._bits = field, bits
        self._rebuild()

    def _rebuild(self):
        base = self._field.refine_root(Fraction(1, 1 << self._bits))
        self._base = base.outward(self._bits + 16)
        self._powers = [RationalInterval.point(1), self._base]

    def tighten(self):
        self._bits *= 2
        self._rebuild()

    def power(self, e: int) -> RationalInterval:
        while len(self._powers) <= e:
            self._powers.append((self._powers[-1] * self._base).outward(self._bits + 16))
        return self._powers[e]


def floor_exact(x) -> int:
    """Certified floor of a RealValue (or anything as_real accepts)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return math.floor(x.value)
    if isinstance(x, AlgebraicValue):
        return x.element.floor()
    return certify("oracle floor", lambda level: x.oracle.enclosure(level).floor_certified(),
                   query_levels(x))


def is_integer(x) -> bool:
    """Exact integrality test; rejected for oracles (undecidable)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return x.value.denominator == 1
    if isinstance(x, AlgebraicValue):
        el = x.element
        if not el.is_rational():
            return False
        return el.as_fraction().denominator == 1
    raise UndecidableForOracle("integrality of an oracle-backed value is undecidable")
