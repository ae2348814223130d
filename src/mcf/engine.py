"""The Jacobi (m = 2) and Jacobi-Perron (general m) expansion engine.

One step maps a tuple of complete quotients (x1, ..., xm) to the integer
partial quotients a_i = floor(x_i) and the next tuple

    x1' = 1 / (xm - am),    xi' = (x_{i-1} - a_{i-1}) / (xm - am)   (i >= 2).

If the trailing coordinate is an integer the step is impossible: the
expansion records an interruption and continues on the leading (m-1)-tuple
at the same index; at dimension 1 an integral value ends the run (a rational
input, classical continued-fraction termination).

The loop never builds a complete quotient.  It carries the unimodular
integer matrix N_n = M_n^-1, whose rows are linear forms with
x_n^(j) = L_j(x) / L_0(x), L_i(x) = row_i . (1, x).  A step is integer row
arithmetic, with no field inverse:

    row_1' = row_0,   row_i' = row_{i-1} - a_{i-1} row_0,   row_0' = row_m - a_m row_0.

Certification: a floor k is accepted only when the whole enclosure of
L_j / L_0 lies in [k, k+1): read off the ratio's values at the vertices of
the enclosing simplex (SimplexOracle) or box for oracles, and by integer
division off enclosures [lo, hi] / 2^P of the forms for exact inputs.  The
forms follow the rows' recurrence, L_0' = L_m - a_m L_0 and so on, so each
row's enclosure at the level that certified the last floor is carried along
by small x big interval steps (the running forms); a floor tries them first
and re-seeds them from the exact rows on a fixed-point box of the basis
when they cannot decide.  Otherwise the precision rises one level (the
oracle level, or root refinement to 2^-(64 * 2^level) in the field's
shared cache).  Each floor starts at the level that certified the previous
one, where the running forms and the re-seed are that level's one round;
MCF_PRECISION_BUDGET counts the levels tried from there.

The floors decide integrality too; interruptions come off their tail.  For
exact inputs x_n^(j) = k only if the enclosure certifying k reaches down to
k, so the running forms settle almost every step by putting x_n^(j) strictly
above k.  Only where they touch k, or cannot decide at the start level, does
the one big x big test run, once per coordinate and step: proportional rows
are an exactly rational ratio, decided exactly, and row_j = k row_0 is the
exact interruption test.  Oracle inputs never detect an interruption: an
integral trailing limit exhausts the budget.  Floats decide nothing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import polynomials as pol
from .errors import FieldMismatch, InputError
from .exact_reals import (
    _MAX_ALGEBRAIC_ROUNDS,
    AlgebraicValue,
    NumberField,
    OracleValue,
    RationalValue,
    RealValue,
    SimplexOracle,
    as_real,
    enclosure_at,
)
from .intervals import RationalInterval, as_fraction, budget_levels, certify
from .radix import Record
from .recurrence import PartialQuotients
from .recurrence import check_admissible  # noqa: F401  (perfbench/tracer.py's engine.check_admissible)


# ---------------------------------------------------------------------------
# The matrix-form loop
# ---------------------------------------------------------------------------


def _scaled(rows) -> list[list[int]]:
    """Rational rows times the least common denominator of all their entries."""
    den = math.lcm(*(as_fraction(c).denominator for row in rows for c in row))
    return [[int(as_fraction(c) * den) for c in row] for row in rows]


def _corners(ivs) -> list[list[int]]:
    """The corners c of the box of the intervals as integer vectors D (1, c), D > 0."""
    return _scaled([[1, *c] for c in itertools.product(*((iv.lo, iv.hi) for iv in ivs))])


def _root_powers(fld: NumberField, level: int) -> tuple[int, list[int], list[int]]:
    """theta^1..theta^(d-1) over 2^P, from the shared root cache refined to 2^-(64 * 2^level)."""
    P = (64 << level) + 8
    iv = fld.refine_root(Fraction(1, 1 << (64 << level)))
    a = (iv.lo.numerator << P) // iv.lo.denominator
    b = -((-iv.hi.numerator << P) // iv.hi.denominator)
    lo, hi = [], []
    for k in range(1, fld.degree):
        x, y = a**k, b**k
        if k % 2 == 0 and a < 0:  # even powers fall on the negative side
            x, y = (y, x) if b <= 0 else (0, max(x, y))
        lo.append(x >> (P * (k - 1)))
        hi.append(-((-y) >> (P * (k - 1))))
    return P, lo, hi


def _ratio_floor(a: int, b: int, c: int, d: int) -> tuple[int, bool] | None:
    """The common floor k of every ratio in [a, b] / [c, d] and whether the least is k, or None."""
    if c <= 0:
        return None
    e = d if a >= 0 else c
    k = a // e
    return (k, a == k * e) if b < (k + 1) * (c if b >= 0 else d) else None


def _vertex_interval(num: list[int], den: list[int]) -> RationalInterval | None:
    """Range of L_num / L_den over a polytope from its vertex values, None unless den > 0 there
    (a ratio of linear forms is monotone on each segment where its denominator keeps a sign)."""
    if min(den) > 0:
        ratios = [Fraction(p, q) for p, q in zip(num, den)]
        return RationalInterval(min(ratios), max(ratios))
    return None


def _proportional(num: list[int], den: list[int]) -> tuple[int, int] | None:
    """(p, q) with num = (p / q) den when the rows are proportional, else None."""
    i = next(i for i, c in enumerate(den) if c)
    p, q = num[i], den[i]  # entry i agrees by construction, and den is 0 before it
    ok = not any(num[:i]) and all(x * q == y * p for x, y in zip(num[i + 1:], den[i + 1:]))
    return (p, q) if ok else None


class _Run:
    """The rows of N_n over the input's basis (1, b_1, ..., b_K), and the warm-start level.

    rows[0] starts as a common denominator D and rows[i] as D x_i.  The basis
    is empty for rationals (and fields with a rational root), theta^1..theta^(d-1)
    for a number field, and the non-rational coordinates of an oracle tuple.
    """

    def __init__(self, values: list[RealValue]):
        self.kind, self.level, self.max_level = "rational", 0, None
        self.budget = len(budget_levels())  # rounds per query, read once per run
        self._enclose, self._enc, self.field = None, (None, (0, [], [])), None
        algebraic = [v.element for v in values if isinstance(v, AlgebraicValue)]
        if any(isinstance(v, OracleValue) for v in values):
            self.kind = "oracle"
            inexact = [v for v in values if not isinstance(v, RationalValue)]
            oracles = [getattr(v, "oracle", None) for v in inexact]
            if all(isinstance(o, SimplexOracle) and o.key == oracles[0].key for o in oracles):
                self._enclose = lambda level: [(V[0], *(V[o.coord] for o in oracles))
                                               for V in oracles[0].vertices(level)]
            else:
                self._enclose = lambda level: _corners([enclosure_at(v, level) for v in inexact])
            rows, k = [[1] + [0] * len(inexact)], 0
            for v in values:
                rows.append([0] * (len(inexact) + 1))
                if isinstance(v, RationalValue):
                    rows[-1][0] = v.value
                else:
                    k += 1
                    rows[-1][k] = 1
        elif algebraic:
            self.kind, self.field = "algebraic", algebraic[0].field
            if any(not self.field._same(el.field) for el in algebraic[1:]):
                raise FieldMismatch("all algebraic inputs must live in one number field")
            coords = [v.element.coords if isinstance(v, AlgebraicValue) else [v.value]
                      for v in values]
            root, d = self.field.exact_root(), self.field.degree
            if root is not None:
                rows = [[1]] + [[pol.poly_eval(c, root)] for c in coords]
            else:
                rows = [[1] + [0] * (d - 1)] + [list(c) + [0] * (d - len(c)) for c in coords]
                self._enclose = lambda level: _root_powers(self.field, level)
                self.max_level = _MAX_ALGEBRAIC_ROUNDS
        else:
            rows = [[1]] + [[v.value] for v in values]
        self.rows = _scaled(rows)
        self.exact = self.kind != "oracle"  # proportional rows are an exactly rational ratio
        # exact kinds: each row's form at self.level, advanced with the rows (running forms)
        self.live = [self.forms(row, 0) for row in self.rows] if self.exact else []

    def forms(self, row: list[int], level: int):
        """row . (1, b) on the level's enclosure of the basis: [a, b] / 2^P, or vertex values."""
        if self._enclose is not None and self._enc[0] != level:
            self._enc = (level, self._enclose(level))
        if not self.exact:
            return [sum(r * v for r, v in zip(row, V)) for V in self._enc[1]]
        P, lo, hi = self._enc[1]
        a = b = row[0] << P
        for r, l, h in zip(row[1:], lo, hi):
            a, b = (a + r * l, b + r * h) if r >= 0 else (a + r * h, b + r * l)
        return a, b

    def value(self, j: int) -> RealValue:
        """The complete quotient x^(j) = L_j / L_0 as a value of the input's kind (traces)."""
        num, den = self.rows[j], self.rows[0]
        if self.kind == "rational":
            return RationalValue(Fraction(num[0], den[0]))
        if self.kind == "algebraic":
            return AlgebraicValue(self.field.element(num) / self.field.element(den))
        rows = self.rows  # held and never mutated (advance builds new rows): its id names the point

        def vertices(level: int) -> list[tuple[int, ...]]:
            # separation persists at deeper (nested) levels, so the results stay nested
            def attempt(probe):
                forms = [self.forms(row, probe) for row in rows]
                return list(zip(*forms)) if min(forms[0]) > 0 else None

            return certify("separation of the quotient denominator from 0", attempt,
                           budget_levels(level, budget=self.budget))

        return OracleValue(SimplexOracle(id(rows), j, vertices))

    def floors(self, n: int) -> list[tuple[int, Fraction | None, bool]]:
        """Certified floors k of x_n^(1..dim), each with the ratio width that certified it
        (oracles) and whether x_n^(j) = k exactly (never for oracles)."""
        den, memo, out = self.rows[0], {}, []

        def form(i, level):  # row i's enclosure from the exact row, at most once per level
            return memo.get((i, level)) or memo.setdefault((i, level), self.forms(self.rows[i], level))

        def proportional(j):  # row_j = (p / q) row_0, the one big x big test, at most once
            return memo[j] if j in memo else memo.setdefault(j, _proportional(self.rows[j], den))

        for j in range(1, len(self.rows)):
            start, live = self.level, self.live
            if self.exact and (f := _ratio_floor(*live[j], *live[0])) is not None:
                (k, low), width = f, None  # the running forms decide: the start level's round
            else:
                def attempt(level):
                    if not self.exact:
                        iv = _vertex_interval(form(j, level), form(0, level))
                        k = iv.floor_certified() if iv else None
                        return None if k is None else (level, (k, False), iv.width)
                    f = _ratio_floor(*form(j, level), *form(0, level))
                    if f is None and level == start and (r := proportional(j)):
                        f = r[0] // r[1], True
                    if f is not None:  # re-seed: rows j and 0, or every row on a new level
                        for i in (0, j) if level == start else range(len(live)):
                            live[i] = form(i, level)
                        return level, f, None

                self.level, (k, low), width = certify(f"floor of x_{n}^({j})", attempt,
                                                      budget_levels(start, self.max_level, self.budget))
            # x_n^(j) = k only if its enclosure reaches down to k; then the rows decide
            out.append((k, width, low and (r := proportional(j)) is not None and r[0] == k * r[1]))
        return out

    def advance(self, floors: list[int]) -> None:
        """One Jacobi-Perron step on the rows and the running forms: N_{n+1} from N_n and a_n,
        row_i' = row_(i-1) - c_i row_0 (row_(-1) = row_m) with c = (a_m, 0, a_1, ..., a_(m-1))."""
        c, r0 = [floors[-1], 0, *floors[:-1]], self.rows[0]
        self.rows = [[x - a * y for x, y in zip(row, r0)] if a else row
                     for row, a in zip(self.rows[-1:] + self.rows[:-1], c)]
        if self.exact:  # [l, h] - a [lo, hi] by small x big products (a < 0 at index 0)
            lo, hi = self.live[0]
            self.live = [(l - max(a * lo, a * hi), h - min(a * lo, a * hi))
                         for (l, h), a in zip(self.live[-1:] + self.live[:-1], c)]


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


class InterruptionEvent(Record):
    """Trailing complete quotient was the integer `value` at index `index`."""

    __slots__ = ("index", "dimension_after", "value")

    def __init__(self, index: int, dimension_after: int, value: int):
        self._init(index, dimension_after, value)


class ExpansionRecord(Record):
    __slots__ = ("pq", "interruptions", "terminated", "trace", "floor_widths")

    def __init__(self, pq: PartialQuotients, interruptions: tuple[InterruptionEvent, ...],
                 terminated: bool, trace: tuple[tuple[RealValue, ...], ...] | None = None,
                 floor_widths: tuple[tuple[Fraction | None, ...], ...] | None = None):
        self._init(pq, interruptions, terminated, trace, floor_widths)


def expand(inputs, steps: int, keep_trace: bool = False) -> ExpansionRecord:
    """Run the Jacobi-Perron algorithm for up to `steps` indices.

    On an integral trailing complete quotient the value is stored as the
    final entry of its sequence, an interruption is recorded, and the run
    continues on the remaining coordinates at the same index.  The run ends
    early when the dimension reaches zero (fully rational input).
    """
    if steps < 0:
        raise InputError("steps must be >= 0")
    values = [as_real(x) for x in (inputs if isinstance(inputs, (list, tuple)) else [inputs])]
    m = len(values)
    if m < 1:
        raise InputError("at least one input value is required")
    run = _Run(values)

    seqs: list[list[int]] = [[] for _ in range(m)]
    widths: list[list[Fraction | None]] = [[] for _ in range(m)]
    interruptions: list[InterruptionEvent] = []
    trace: list[tuple[RealValue, ...]] = []
    n = 0
    terminated = False

    while n < steps and len(run.rows) > 1:
        floors = run.floors(n)
        for j, (a_j, w_j, _) in enumerate(floors):
            seqs[j].append(a_j)
            widths[j].append(w_j)
        # integral trailing coordinates: each ends its sequence and drops a dimension
        while floors and floors[-1][2]:
            value, dim = floors.pop()[0], len(floors)
            if dim:
                interruptions.append(InterruptionEvent(n, dim, value))
            run.rows, run.live = run.rows[:-1], run.live[:-1]
        if not floors:
            terminated = True
            break

        if keep_trace:
            trace.append(tuple(run.value(j) for j in range(1, len(run.rows))))
        run.advance([a for a, _, _ in floors])
        n += 1

    pq = PartialQuotients(m, tuple(tuple(s) for s in seqs))
    return ExpansionRecord(
        pq=pq,
        interruptions=tuple(interruptions),
        terminated=terminated,
        trace=tuple(trace) if keep_trace else None,
        floor_widths=tuple(tuple(w) for w in widths),
    )
