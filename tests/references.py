"""Independent second routes, kept as test references.

The expansion engine's per-step route: complete quotients are carried as
exact `Fraction`s or `FieldElement`s and stepped with one field inverse per
index,

    x1' = 1 / (xm - am),    xi' = (x_{i-1} - a_{i-1}) / (xm - am),

with floors from `FieldElement.floor` and integrality decided on the
representation.  `mcf.engine` never builds a complete quotient; the property
tests compare it against this loop.

The X matrix of a periodic spec by exact rational inversion of V, against
`mcf.periodic.x_matrix`, which assembles V^{-1} from lag products.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mcf import AlgebraicValue, RationalValue, as_real
from mcf.convergents import column_table
from mcf.errors import InputError
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
