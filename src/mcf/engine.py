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
L_j / L_0 lies in [k, k+1): read by integer division off a fixed-point box of
the basis for exact inputs, and off the ratio's values at the vertices of the
enclosing simplex (SimplexOracle) or box for oracles; otherwise the precision
rises one level (the oracle level, or root refinement to 2^-(64 * 2^level) in
the field's shared cache).  Each floor starts at the level that certified the
previous one; MCF_PRECISION_BUDGET counts the levels tried from there.  For
rational and algebraic inputs a ratio whose rows are proportional is exactly
rational and is decided exactly, so the interruption test is the exact
linear test (row_m - k row_0) . (1, x) = 0.  Oracle inputs never detect an
interruption: an integral trailing limit exhausts the budget.  Floats decide
nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import polynomials as pol
from .errors import (
    FieldMismatch,
    InputError,
    Interruption,
    unlimited_int_digits,
)
from .exact_reals import (
    _MAX_ALGEBRAIC_ROUNDS,
    AlgebraicValue,
    NumberField,
    OracleValue,
    RationalValue,
    RealValue,
    SimplexOracle,
    as_real,
    budget_levels,
    certify,
    enclosure_at,
)
from .intervals import RationalInterval, as_fraction


# ---------------------------------------------------------------------------
# Partial quotients and admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialQuotients:
    """m integer sequences a^(1), ..., a^(m); lengths may differ after interruptions."""

    m: int
    seqs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise InputError("dimension m must be >= 1")
        if len(self.seqs) != self.m:
            raise InputError(f"expected {self.m} sequences, got {len(self.seqs)}")
        object.__setattr__(self, "seqs", tuple(tuple(int(x) for x in s) for s in self.seqs))

    @staticmethod
    def from_lists(*seqs) -> "PartialQuotients":
        return PartialQuotients(len(seqs), tuple(tuple(s) for s in seqs))

    def entry(self, dim: int, n: int) -> int | None:
        """Quotient a_n^(dim), 1-based dim, or None past the end of that sequence."""
        s = self.seqs[dim - 1]
        return s[n] if 0 <= n < len(s) else None

    @property
    def rect_len(self) -> int:
        """Number of indices at which all m sequences are defined."""
        return min(len(s) for s in self.seqs)

    def last_index(self, upto: int | None = None) -> int:
        """The last index a check covers: upto (>= 0), clipped to the rectangular range."""
        if upto is not None and upto < 0:
            raise InputError(f"depth must be >= 0, got {upto}")
        return self.rect_len - 1 if upto is None else min(upto, self.rect_len - 1)

    @property
    def is_rectangular(self) -> bool:
        return len({len(s) for s in self.seqs}) == 1


@dataclass(frozen=True)
class Violation:
    index: int
    dim: int | None
    rule: str
    message: str


@dataclass(frozen=True)
class AdmissibilityReport:
    m: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@unlimited_int_digits
def check_admissible(pq: PartialQuotients) -> AdmissibilityReport:
    """Validate the Perron admissibility conditions for n >= 1.

    For every n >= 1: all entries are >= 0 and the leading quotient a_n^(1)
    is >= 1.  For each index n and coordinate i in 2..d(n) (d(n) = number of
    sequences still running at n), the comparison chain

        a_{n+t}^(i+t) <= a_{n+t}^(1+t),   t = 0, 1, ...

    must not fail; when the chain ties up to the step whose trailing active
    coordinate is reached, the entry after it must be >= 1.  For a
    rectangular m-dimensional prefix this is the standard lexicographic
    family (for m = 2: a_n >= b_n, and b_{n+1} >= 1 whenever a_n = b_n).
    Across an interruption the dimension shrinks and any chain that would
    propagate through the dropped coordinate's fractional part is void,
    since the algorithm never divides by it.  Index 0 is unconstrained,
    references past a sequence end are skipped, and an empty report
    certifies realizability by some real input.
    """
    m = pq.m
    found: dict[tuple[int, int | None, str], Violation] = {}

    def add(index: int, dim: int | None, rule: str, message: str) -> None:
        key = (index, dim, rule)
        if key not in found:
            found[key] = Violation(index, dim, rule, message)

    max_len = max(len(s) for s in pq.seqs)

    def active(n: int) -> int:
        return sum(1 for s in pq.seqs if n < len(s))

    for n in range(1, max_len):
        for j in range(1, m + 1):
            e = pq.entry(j, n)
            if e is not None and e < 0:
                add(n, j, "negative-entry", f"a_{n}^({j}) = {e} < 0")
        head = pq.entry(1, n)
        if head is not None and head < 1:
            add(n, 1, "head-not-positive", f"a_{n}^(1) = {head} < 1")
        for i in range(2, active(n) + 1):
            p, q, k = i, 1, n
            while True:
                left = pq.entry(p, k)
                right = pq.entry(q, k)
                if left is None or right is None or p > active(k):
                    break
                if left > right:
                    add(
                        k,
                        p,
                        "lex-order",
                        f"a_{k}^({p}) = {left} > a_{k}^({q}) = {right}"
                        f" (chain started at index {n}, coordinate {i})",
                    )
                    break
                if left < right:
                    break
                # tie: propagate through the step k -> k+1, whose active
                # trailing coordinate is r; a pair beyond r is unconstrained
                r = active(k + 1)
                if r == 0 or p > r:
                    break
                if p == r:
                    term = pq.entry(q + 1, k + 1)
                    if term is not None and term < 1:
                        add(
                            k + 1,
                            q + 1,
                            "lex-terminal",
                            f"a_{k+1}^({q+1}) = {term} < 1 after an all-tied chain"
                            f" from index {n}, coordinate {i}",
                        )
                    break
                p, q, k = p + 1, q + 1, k + 1
    violations = tuple(sorted(found.values(), key=lambda v: (v.index, v.dim or 0, v.rule)))
    return AdmissibilityReport(m=m, violations=violations)


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


def _form(row: list[int], P: int, lo: list[int], hi: list[int]) -> tuple[int, int]:
    """Enclosure [a, b] / 2^P of the form row . (1, b_1, ..., b_K)."""
    a = b = row[0] << P
    for r, l, h in zip(row[1:], lo, hi):
        if r > 0:
            a, b = a + r * l, b + r * h
        elif r:
            a, b = a + r * h, b + r * l
    return a, b


def _ratio_floor(a: int, b: int, c: int, d: int) -> int | None:
    """The common floor k of every ratio in [a, b] / [c, d], or None if there is none."""
    if c <= 0:
        return None
    k = a // (d if a >= 0 else c)
    return k if b < (k + 1) * (c if b >= 0 else d) else None


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
    p, q = num[i], den[i]
    return (p, q) if all(x * q == y * p for x, y in zip(num, den)) else None


class _Image(SimplexOracle):
    """x^(j) = L_j / L_0 at one index: the input's enclosure mapped by N_n (traces, jacobi_step)."""

    def __init__(self, run: "_Run", rows: list[list[int]], j: int):
        super().__init__(id(rows), j)  # rows is held and never mutated: its id names the point
        self._run, self._rows = run, rows

    def vertices(self, level: int) -> list[tuple[int, ...]]:
        # separation persists at deeper (nested) levels, so the results stay nested
        def attempt(probe):
            forms = [self._run.forms(row, probe) for row in self._rows]
            return list(zip(*forms)) if min(forms[0]) > 0 else None

        return certify("separation of the quotient denominator from 0", attempt,
                       budget_levels(level, budget=self._run.budget))


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

    def forms(self, row: list[int], level: int):
        """row . (1, b) on the level's enclosure of the basis: [a, b] / 2^P, or vertex values."""
        if self._enclose is not None and self._enc[0] != level:
            self._enc = (level, self._enclose(level))
        enc = self._enc[1]
        return _form(row, *enc) if self.exact else [sum(r * v for r, v in zip(row, V)) for V in enc]

    def value(self, j: int) -> RealValue:
        """The complete quotient x^(j) = L_j / L_0 as a value of the input's kind (traces)."""
        num, den = self.rows[j], self.rows[0]
        if self.kind == "rational":
            return RationalValue(Fraction(num[0], den[0]))
        if self.kind == "algebraic":
            return AlgebraicValue(self.field.element(num) / self.field.element(den))
        return OracleValue(_Image(self, self.rows, j))

    def trailing_integer(self) -> int | None:
        """The trailing complete quotient when it is exactly an integer (never for oracles)."""
        r = self.exact and _proportional(self.rows[-1], self.rows[0])
        return r[0] // r[1] if r and r[0] % r[1] == 0 else None

    def floors(self, n: int) -> list[tuple[int, Fraction | None]]:
        """Certified floors of x_n^(1..dim), with the ratio width that certified each (oracles)."""
        den, den_at, out = self.rows[0], {}, []
        for j in range(1, len(self.rows)):
            num, start = self.rows[j], self.level

            def attempt(level):
                num_f = self.forms(num, level)
                den_f = den_at.get(level) or den_at.setdefault(level, self.forms(den, level))
                if self.exact:
                    k = _ratio_floor(*num_f, *den_f)
                    if k is None and level == start and (r := _proportional(num, den)):
                        k = r[0] // r[1]
                    return None if k is None else (level, k, None)
                iv = _vertex_interval(num_f, den_f)
                k = iv.floor_certified() if iv else None
                return None if k is None else (level, k, iv.width)

            self.level, k, width = certify(f"floor of x_{n}^({j})", attempt,
                                           budget_levels(start, self.max_level, self.budget))
            out.append((k, width))
        return out

    def advance(self, floors: list[int]) -> None:
        """One Jacobi-Perron step on the rows: N_{n+1} from N_n and a_n."""
        rows, r0 = self.rows, self.rows[0]

        def sub(row, a):
            return [x - a * y for x, y in zip(row, r0)] if a else row

        self.rows = [sub(rows[-1], floors[-1]), r0]
        self.rows += [sub(rows[i - 1], floors[i - 2]) for i in range(2, len(rows))]


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterruptionEvent:
    """Trailing complete quotient was the integer `value` at index `index`."""

    index: int
    dimension_after: int
    value: int


@dataclass(frozen=True)
class ExpansionRecord:
    pq: PartialQuotients
    interruptions: tuple[InterruptionEvent, ...]
    steps_requested: int
    terminated: bool
    trace: tuple[tuple[RealValue, ...], ...] | None = None
    floor_widths: tuple[tuple[Fraction | None, ...], ...] = field(default=None)


def jacobi_step(alpha, beta):
    """One exact Jacobi step: (a, b, alpha', beta') with a = floor(alpha), b = floor(beta).

    Raises Interruption when beta is an integer (decidable kinds); oracle
    inputs instead exhaust their budget if beta is secretly integral.
    """
    run = _Run([as_real(alpha), as_real(beta)])
    value = run.trailing_integer()
    if value is not None:
        raise Interruption(value)
    (a, _), (b, _) = run.floors(0)
    run.advance([a, b])
    return a, b, run.value(1), run.value(2)


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
        # integral trailing coordinate: emit it and drop a dimension
        while len(run.rows) > 1 and (value := run.trailing_integer()) is not None:
            dim = len(run.rows) - 1
            seqs[dim - 1].append(value)
            widths[dim - 1].append(None)
            if dim > 1:
                interruptions.append(InterruptionEvent(n, dim - 1, value))
            run.rows = run.rows[:-1]
        if len(run.rows) == 1:
            terminated = True
            break

        if keep_trace:
            trace.append(tuple(run.value(j) for j in range(1, len(run.rows))))

        floors = run.floors(n)
        for j, (a_j, w_j) in enumerate(floors):
            seqs[j].append(a_j)
            widths[j].append(w_j)
        run.advance([a for a, _ in floors])
        n += 1

    pq = PartialQuotients(m, tuple(tuple(s) for s in seqs))
    return ExpansionRecord(
        pq=pq,
        interruptions=tuple(interruptions),
        steps_requested=steps,
        terminated=terminated,
        trace=tuple(trace) if keep_trace else None,
        floor_widths=tuple(tuple(w) for w in widths),
    )
