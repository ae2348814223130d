"""Convergents of a multidimensional continued fraction and their certified
bound and growth checks.

Given partial quotients a_n^(1..m), the convergent numerators and common
denominator satisfy the (m+1)-term recurrences

    A_n^(i) = sum_j a_n^(j) A_{n-j}^(i) + A_{n-m-1}^(i),
    C_n     = sum_j a_n^(j) C_{n-j}   + C_{n-m-1},

with A_{-n}^(i) = delta_{in} (n = 1..m+1), C_{-m-1} = 1 and C_{-n} = 0 for
n = 1..m.  The same data is the column set of the product of the step
matrices, which is how `matrix_form` cross-checks the stream.

The auxiliary ("tilde") sequences are the bilinear lag products

    ac1_n = A_n C_{n-1} - A_{n-1} C_n      (lag 1; ac2 is the lag-2 analogue)
    bc1_n = B_n C_{n-1} - B_{n-1} C_n
    ab1_n = A_n B_{n-1} - A_{n-1} B_n

which control approximation quality: |coordinate - A_n/C_n| is smaller than
|ac1_{n+1}| / (C_{n+1} C_n) infinitely often (at least once per window of
m+1 consecutive indices), and for m = 2 all four A/B lag products are
bounded by C_n in absolute value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv as _iv

from .engine import PartialQuotients, expand
from .errors import (
    HypothesisViolated,
    InputError,
    NonTerminating,
    OracleExhausted,
    PreconditionViolated,
    PrefixMismatch,
    RecursionMismatch,
)
from .exact_reals import (
    NumberField,
    OracleValue,
    SimplexOracle,
    abs_diff_lt,
    as_real,
    enclosure_at,
    query_levels,
    refinement_budget,
)
from .intervals import RationalInterval, as_fraction


# ---------------------------------------------------------------------------
# The convergent stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Column:
    """One index of the convergent table: numerators A^(1..m) and denominator C."""

    A: tuple[int, ...]
    C: int


@dataclass(frozen=True)
class ConvergentRow:
    n: int
    A: tuple[int, ...]
    C: int


class ConvergentState:
    """Rolling window of the last m+1 convergent columns."""

    __slots__ = ("m", "window", "n")

    def __init__(self, m: int, window, n: int):
        self.m = m
        self.window = deque(window, maxlen=m + 1)
        self.n = n

    @classmethod
    def initial(cls, m: int) -> "ConvergentState":
        # window[j-1] holds index n-j; at n=0 these are the delta columns
        cols = []
        for j in range(1, m + 1):
            cols.append(Column(tuple(1 if i == j else 0 for i in range(1, m + 1)), 0))
        cols.append(Column(tuple(0 for _ in range(m)), 1))
        return cls(m, cols, 0)

    def step(self, a: tuple[int, ...]) -> Column:
        if len(a) != self.m:
            raise InputError(f"step needs {self.m} quotients, got {len(a)}")
        A = []
        for i in range(self.m):
            acc = self.window[self.m].A[i]
            for j in range(1, self.m + 1):
                acc += a[j - 1] * self.window[j - 1].A[i]
            A.append(acc)
        C = self.window[self.m].C
        for j in range(1, self.m + 1):
            C += a[j - 1] * self.window[j - 1].C
        col = Column(tuple(A), C)
        self.window.appendleft(col)
        self.n += 1
        return col


def conv_stream(pq: PartialQuotients, upto: int | None = None):
    """Yield ConvergentRow(n, A, C) for n = 0..upto (rectangular range only)."""
    limit = pq.rect_len if upto is None else min(upto + 1, pq.rect_len)
    state = ConvergentState.initial(pq.m)
    for n in range(limit):
        a = tuple(pq.seqs[j][n] for j in range(pq.m))
        col = state.step(a)
        yield ConvergentRow(n, col.A, col.C)


def column_table(pq: PartialQuotients, upto: int):
    """Columns for indices -(m+1)..upto as (list, offset): list[n + offset] = Column(n)."""
    m = pq.m
    offset = m + 1
    state = ConvergentState.initial(m)
    cols: list[Column] = list(reversed(list(state.window)))
    for row in conv_stream(pq, upto):
        cols.append(Column(row.A, row.C))
    if upto >= 0 and len(cols) != offset + upto + 1:
        raise InputError(f"pq too short: need quotients through index {upto}")
    return cols, offset


# ---------------------------------------------------------------------------
# Matrix form
# ---------------------------------------------------------------------------


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
    """Yield (n, M_0 * ... * M_n) cumulatively over the rectangular range."""
    prod = None
    for n in range(pq.rect_len):
        a = tuple(pq.seqs[j][n] for j in range(pq.m))
        f = factor_matrix(a)
        prod = f if prod is None else mat_mul(prod, f)
        yield n, prod


def matrix_form(pq: PartialQuotients, n: int):
    """Product M_0 ... M_n; its column j holds the convergent column of index n-j."""
    if n < 0:
        raise InputError("matrix_form needs n >= 0")
    for k, prod in matrix_products(pq):
        if k == n:
            return prod
    raise InputError(f"pq too short for matrix_form at n={n}")


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


# ---------------------------------------------------------------------------
# Auxiliary (tilde) sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxRow:
    """m = 2 auxiliary values at index n (lag-1 and lag-2 bilinear products)."""

    n: int
    ac1: int
    bc1: int
    ab1: int
    ac2: int
    bc2: int
    ab2: int


def aux_stream(pq: PartialQuotients, upto: int | None = None):
    """Yield AuxRow for n >= 0 (m = 2), verifying the three-term recursion

        ac1_n = -b_n ac1_{n-1} - a_{n-1} ac1_{n-2} + ac1_{n-3}

    (initial values ac1 = 0, 0, -1 and bc1 = 1, 0, 0 at n = -2, -1, 0)
    against the definitional bilinear values; any disagreement is an
    implementation bug and raises RecursionMismatch.
    """
    if pq.m != 2:
        raise InputError("aux_stream is specific to m = 2; use tilde_stream")
    limit = pq.rect_len if upto is None else min(upto + 1, pq.rect_len)
    cols, off = column_table(pq, limit - 1)

    ac_hist = deque([0, 0], maxlen=3)  # ac1 at indices n-2, n-1 (n = 0 next)
    bc_hist = deque([1, 0], maxlen=3)
    for n in range(limit):
        cur, p1, p2 = cols[n + off], cols[n - 1 + off], cols[n - 2 + off]
        A, B, C = cur.A[0], cur.A[1], cur.C
        A1, B1, C1 = p1.A[0], p1.A[1], p1.C
        A2, B2, C2 = p2.A[0], p2.A[1], p2.C
        row = AuxRow(
            n=n,
            ac1=A * C1 - A1 * C,
            bc1=B * C1 - B1 * C,
            ab1=A * B1 - A1 * B,
            ac2=A * C2 - A2 * C,
            bc2=B * C2 - B2 * C,
            ab2=A * B2 - A2 * B,
        )
        if n == 0:
            if row.ac1 != -1 or row.bc1 != 0:
                raise RecursionMismatch(f"initial aux values wrong at n=0: {row}")
        else:
            # hist holds values at n-3, n-2, n-1 by now
            b_n = pq.seqs[1][n]
            a_prev = pq.seqs[0][n - 1]
            ac_rec = -b_n * ac_hist[2] - a_prev * ac_hist[1] + ac_hist[0]
            bc_rec = -b_n * bc_hist[2] - a_prev * bc_hist[1] + bc_hist[0]
            if ac_rec != row.ac1 or bc_rec != row.bc1:
                raise RecursionMismatch(
                    f"aux recursion mismatch at n={n}: definitional ({row.ac1}, {row.bc1})"
                    f" vs recursive ({ac_rec}, {bc_rec})"
                )
        ac_hist.append(row.ac1)
        bc_hist.append(row.bc1)
        yield row


def tilde_stream(pq: PartialQuotients, upto: int | None = None):
    """Yield (n, (ac1 per coordinate)) for any m: A_n^(i) C_{n-1} - A_{n-1}^(i) C_n."""
    limit = pq.rect_len if upto is None else min(upto + 1, pq.rect_len)
    cols, off = column_table(pq, limit - 1)
    for n in range(limit):
        cur, prev = cols[n + off], cols[n - 1 + off]
        yield n, tuple(cur.A[i] * prev.C - prev.A[i] * cur.C for i in range(pq.m))


def tilde_next(state: ConvergentState, tail: tuple[int, ...]) -> tuple[int, ...]:
    """Tilde values at the state's next index from the tail quotients a^(2..m) only.

    The lag-1 products do not involve a^(1):

        ac1_n^(i) = sum_{j=2..m} a_n^(j) (A_{n-j}^(i) C_{n-1} - A_{n-1}^(i) C_{n-j})
                    + (A_{n-m-1}^(i) C_{n-1} - A_{n-1}^(i) C_{n-m-1}),

    which is what makes the Liouville-type constructions possible.
    """
    m = state.m
    if len(tail) != m - 1:
        raise InputError(f"need the {m - 1} trailing quotients")
    w = state.window  # w[j-1] = column at index n-j
    out = []
    for i in range(m):
        acc = w[m].A[i] * w[0].C - w[0].A[i] * w[m].C
        for j in range(2, m + 1):
            acc += tail[j - 2] * (w[j - 1].A[i] * w[0].C - w[0].A[i] * w[j - 1].C)
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# Limit enclosures (the window mechanism) and approximation witnesses
# ---------------------------------------------------------------------------


class ConvergentLimitOracle(SimplexOracle):
    """Nested enclosures of one limit coordinate of an admissible expansion.

    Level k is the simplex of the m+1 consecutive convergents k..k+m, which
    always contains the limit tuple (a nonnegative combination of their
    columns); the simplices shrink monotonically.  Keyed by the pq.
    """

    def __init__(self, pq: PartialQuotients, coord: int):
        if not 1 <= coord <= pq.m:
            raise InputError(f"coordinate must be in 1..{pq.m}")
        super().__init__(pq, coord)
        self._cols = [(row.C, *row.A) for row in conv_stream(pq)]
        self._m = pq.m

    def vertices(self, level: int) -> list[tuple[int, ...]]:
        top = level + self._m
        if top >= len(self._cols):
            raise OracleExhausted(
                f"convergent window oracle exhausted at level {level}"
                f" (have {len(self._cols)} convergents)"
            )
        return self._cols[level:top + 1]


def limit_values(pq: PartialQuotients) -> tuple[OracleValue, ...]:
    """Oracle-backed RealValues for the limit tuple of an admissible pq."""
    return tuple(OracleValue(ConvergentLimitOracle(pq, i)) for i in range(1, pq.m + 1))


def approx_witnesses(x, pq: PartialQuotients, upto: int, coords=None) -> list[int]:
    """Indices n <= upto where the checked coordinates simultaneously satisfy

        |x_i - A_n^(i)/C_n| < |ac1_{n+1}^(i)| / (C_{n+1} C_n),

    each strict inequality certified (exact signs for algebraic inputs,
    interval refinement for oracles; ties are refined until resolved).

    `coords` is a list of 1-based coordinates (default: all).  Each single
    coordinate has such witnesses at least once per window of m+1
    consecutive indices, but the witness sets of different coordinates need
    not meet, so the simultaneous default can legitimately be sparse or
    empty; pass one coordinate for the per-coordinate notion.

    For window-oracle inputs the deciding margin can sit a few convergents
    past the scan range: keep upto <= rect_len - 4 or so, else the oracle
    exhausts.
    """
    values = [as_real(v) for v in (x if isinstance(x, (list, tuple)) else [x])]
    if len(values) != pq.m:
        raise InputError(f"need {pq.m} coordinate values")
    which = list(range(pq.m)) if coords is None else [c - 1 for c in coords]
    if any(not 0 <= i < pq.m for i in which):
        raise InputError(f"coordinates must be in 1..{pq.m}")
    if pq.rect_len < upto + 2:
        raise InputError("pq must be expanded to depth upto+1")
    rows = list(conv_stream(pq, upto + 1))
    tildes = dict(tilde_stream(pq, upto + 1))
    witnesses = []
    for n in range(upto + 1):
        C_n, C_n1 = rows[n].C, rows[n + 1].C
        ok = True
        for i in which:
            target = Fraction(rows[n].A[i], C_n)
            radius = Fraction(abs(tildes[n + 1][i]), C_n1 * C_n)
            if radius == 0 or not abs_diff_lt(values[i], target, radius):
                ok = False
                break
        if ok:
            witnesses.append(n)
    return witnesses


# ---------------------------------------------------------------------------
# Bound checks (m = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    name: str
    ok: bool
    first_violation: int | None
    boundary_indices: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class BoundReport:
    items: tuple[CheckItem, ...]
    empirical_K: int

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


def bound_checks(pq: PartialQuotients, upto: int | None = None, box=None) -> BoundReport:
    """Check the numerator/denominator and tilde-quadratic bounds for m = 2.

    Without a box the inputs must satisfy a_0 = b_0 = 0 (so the limits lie in
    (0,1)) and the check is A_n, B_n <= C_n.  With box = (N, M) the index-0
    quotients must equal the box and the check is N C_n <= A_n <= (N+1) C_n
    (upper equality can occur at small indices and is flagged as a boundary
    touch, not a violation) and likewise for B with M.  Additionally, at every
    n with a_{n+1} < C_n, the bounds ac1_{n+1} < 3 C_n^2 and bc1_{n+1} < 3 C_n^2
    are asserted, and the empirical constant max_n ceil(A_n / C_n) is reported.
    """
    if pq.m != 2:
        raise InputError("bound_checks is specific to m = 2")
    n_max = pq.rect_len - 1 if upto is None else min(upto, pq.rect_len - 1)
    a0, b0 = pq.seqs[0][0], pq.seqs[1][0]
    if box is None:
        if (a0, b0) != (0, 0):
            raise PreconditionViolated(
                f"bound check requires a_0 = b_0 = 0, got ({a0}, {b0}); pass box=(N, M)"
            )
        nbox, mbox = 0, 0
        strict_upper_is_lemma = True
    else:
        nbox, mbox = int(box[0]), int(box[1])
        if (a0, b0) != (nbox, mbox):
            raise PreconditionViolated(
                f"box {box} does not match the index-0 quotients ({a0}, {b0})"
            )
        strict_upper_is_lemma = False

    rows = list(conv_stream(pq, n_max))
    aux = list(aux_stream(pq, n_max))

    items = []
    first = None
    boundary: list[int] = []
    for row in rows:
        A, B, C = row.A[0], row.A[1], row.C
        lower_ok = nbox * C <= A and mbox * C <= B
        upper_a, upper_b = (nbox + 1) * C, (mbox + 1) * C
        if not lower_ok or A > upper_a or B > upper_b:
            first = row.n
            break
        if not strict_upper_is_lemma and (A == upper_a or B == upper_b):
            boundary.append(row.n)
    name = "num-le-den" if strict_upper_is_lemma else "box"
    detail = (
        "A_n, B_n <= C_n" if strict_upper_is_lemma
        else f"{nbox} C_n <= A_n <= {nbox + 1} C_n and {mbox} C_n <= B_n <= {mbox + 1} C_n"
    )
    items.append(CheckItem(name, first is None, first, tuple(boundary), detail))

    first = None
    applied = []
    for n in range(n_max):
        a_next = pq.seqs[0][n + 1]
        C_n = rows[n].C
        if a_next < C_n:
            applied.append(n)
            if not (aux[n + 1].ac1 < 3 * C_n**2 and aux[n + 1].bc1 < 3 * C_n**2):
                first = n + 1
                break
    items.append(
        CheckItem(
            "tilde-quadratic",
            first is None,
            first,
            (),
            f"ac1_{{n+1}}, bc1_{{n+1}} < 3 C_n^2 at the {len(applied)} indices with a_{{n+1}} < C_n",
        )
    )

    k_emp = 0
    for row in rows:
        for i in range(2):
            k_emp = max(k_emp, -(-row.A[i] // row.C))  # ceil division
    return BoundReport(items=tuple(items), empirical_K=k_emp)


# ---------------------------------------------------------------------------
# Proximity of expansions sharing a prefix (m = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProximityReport:
    n: int
    prefix_bound: Fraction      # 1 / C_{n-2}
    triangle_bound: Fraction    # 2 / C_n
    tighter: str                # "prefix" | "triangle" | "equal"
    prefix_certified: tuple[bool, ...]
    triangle_certified: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(self.prefix_certified) and all(self.triangle_certified)


def proximity_check(x, x_prime, n: int) -> ProximityReport:
    """Certify |x_i - x'_i| < 1/C_{n-2} and < 2/C_n for both coordinates of two
    m = 2 inputs whose expansions agree through index n (each bound certified
    separately; the report also says which bound is the tighter rational)."""
    x = list(x)
    x_prime = list(x_prime)
    if n < 2:
        raise InputError("proximity bounds need a shared prefix through index n >= 2")
    rec = expand(x, n + 1)
    rec_p = expand(x_prime, n + 1)
    if rec.pq.m != 2 or rec_p.pq.m != 2:
        raise InputError("proximity_check is specific to m = 2")
    for j in range(2):
        if rec.pq.seqs[j][: n + 1] != rec_p.pq.seqs[j][: n + 1]:
            raise PrefixMismatch(
                f"expansions disagree within indices 0..{n} in coordinate {j + 1}"
            )
    rows = list(conv_stream(rec.pq, n))
    C_n = rows[n].C
    C_n2 = rows[n - 2].C
    prefix_bound = Fraction(1, C_n2)
    triangle_bound = Fraction(2, C_n)

    def certify(bound: Fraction) -> list[bool]:
        out = []
        for i in range(2):
            xi, yi = as_real(x[i]), as_real(x_prime[i])
            ok = None
            for lx, ly in zip(query_levels(xi), query_levels(yi)):
                gap = (enclosure_at(xi, lx) - enclosure_at(yi, ly)).abs()
                if gap.hi < bound:
                    ok = True
                    break
                if gap.lo > bound:
                    ok = False
                    break
            if ok is None:
                raise NonTerminating("proximity gap not certified within budget")
            out.append(ok)
        return out

    tighter = (
        "equal" if prefix_bound == triangle_bound
        else ("prefix" if prefix_bound < triangle_bound else "triangle")
    )
    return ProximityReport(
        n,
        prefix_bound,
        triangle_bound,
        tighter,
        tuple(certify(prefix_bound)),
        tuple(certify(triangle_bound)),
    )


# ---------------------------------------------------------------------------
# Growth constants and certified growth checks
# ---------------------------------------------------------------------------

_PSI_POLY = (-1, 0, -1, 1)        # x^3 - x^2 - 1, unique real root ~ 1.4656
_TRIBONACCI_POLY = (-1, -1, -1, 1)  # x^3 - x^2 - x - 1, positive root ~ 1.8393


def psi_field() -> NumberField:
    """Field of the universal denominator growth base (root of x^3 - x^2 - 1)."""
    return NumberField(_PSI_POLY, RationalInterval(Fraction(7, 5), Fraction(3, 2)))


def eta_poly(M: int) -> tuple[int, ...]:
    return (-1, -M, -M, 1)


def eta_field(M: int) -> NumberField:
    """Field of the bounded-quotient growth base (positive root of x^3 - M x^2 - M x - 1)."""
    if M < 1:
        raise InputError("M must be >= 1")
    return NumberField(eta_poly(M), RationalInterval(Fraction(M), Fraction(M + 1)))


class CertifiedPowers:
    """Outward-rounded enclosures of base^e for the real root of a field.

    Multiplication chains are rounded outward to `bits` dyadic places each
    step, so enclosures stay sound and endpoint sizes stay bounded; tighten()
    doubles the working precision and rebuilds.
    """

    def __init__(self, field: NumberField, bits: int = 128):
        self._field = field
        self._bits = bits
        self._rebuild()

    def _rebuild(self):
        base = self._field.refine_root(Fraction(1, 1 << self._bits))
        self._base = base.outward(self._bits + 16)
        self._powers = [RationalInterval.point(1), self._base]

    def tighten(self):
        self._bits *= 2
        self._rebuild()

    def power(self, e: int) -> RationalInterval:
        if e < 0:
            raise InputError("only nonnegative exponents are tracked")
        while len(self._powers) <= e:
            nxt = (self._powers[-1] * self._base).outward(self._bits + 16)
            self._powers.append(nxt)
        return self._powers[e]

    def cmp_int(self, e: int, value: int) -> int:
        """Certified comparison of base^e with an integer: -1, 0 (exact tie), +1."""
        if e == 0:
            return (1 > value) - (1 < value)
        for _ in range(refinement_budget()):
            p = self.power(e)
            if p.hi < value:
                return -1
            if p.lo > value:
                return 1
            self.tighten()
        raise NonTerminating("power comparison not certified within budget")


def _iv_to_interval(x) -> RationalInterval:
    def to_frac(raw) -> Fraction:
        # raw is a libmp tuple (sign, mantissa, exponent, bitcount); exact
        sign, man, exp, _ = raw
        mag = Fraction(man) * (Fraction(2) ** exp if exp >= 0 else Fraction(1, 2 ** (-exp)))
        return -mag if sign else mag

    raw_lo, raw_hi = x._mpi_
    return RationalInterval(to_frac(raw_lo), to_frac(raw_hi))


def _with_iv_prec(prec: int, fn):
    old = _iv.prec
    _iv.prec = prec
    try:
        return fn()
    finally:
        _iv.prec = old


def k_interval(d: int, m: int, max_width=Fraction(1, 10**6)) -> RationalInterval:
    """Certified enclosure of K(d, m) = log(d+1) + log(1 + 1/d) + log log(m+1)."""
    if d < 1 or m < 1:
        raise InputError("need d >= 1 and m >= 1")
    max_width = as_fraction(max_width)
    prec = 64
    for _ in range(refinement_budget()):
        def compute():
            k = _iv.log(d + 1) + _iv.log(_iv.mpf(d + 1) / d) + _iv.log(_iv.log(m + 1))
            return _iv_to_interval(k)

        out = _with_iv_prec(prec, compute)
        if out.width <= max_width:
            return out
        prec *= 2
    raise NonTerminating("K(d, m) interval did not reach the requested width")


def loglog_interval(c: int, prec: int = 128) -> RationalInterval:
    """Certified enclosure of log log c (c >= 2)."""
    if c < 2:
        raise InputError("log log requires c >= 2")
    return _with_iv_prec(prec, lambda: _iv_to_interval(_iv.log(_iv.log(_iv.mpf(c)))))


def _loglog_lt(c: int, k_iv: RationalInterval, n: int) -> bool:
    """Certified strict comparison log log c < k * n."""
    prec = 128
    for _ in range(refinement_budget()):
        lhs = loglog_interval(c, prec)
        rhs = k_iv * n
        if lhs.hi < rhs.lo:
            return True
        if lhs.lo > rhs.hi:
            return False
        prec *= 2
    raise NonTerminating("log log comparison not certified within budget")


@dataclass(frozen=True)
class GrowthReport:
    items: tuple[CheckItem, ...]
    constants: dict

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


def growth_check(
    pq: PartialQuotients,
    upto: int | None = None,
    d: int | None = None,
    M: int | None = None,
) -> GrowthReport:
    """Certified growth bounds on the convergent denominators.

    Always (m = 2): C_n > psi^(n-2) with psi the real root of x^3 - x^2 - 1.
    The single analytically possible exception is equality C_2 = 1 = psi^0
    (sequences starting a_1 = a_2 = 1, b_2 = 0), reported as a boundary touch.

    With M: requires a_n <= M for 1 <= n <= upto (HypothesisViolated
    otherwise), then asserts C_n <= eta(M)^n.

    With d: requires a_{n+1}^(1) < C_n^d for 1 <= n <= upto-1 (the n = 0
    instance is unsatisfiable since C_0 = 1), then asserts the certified
    comparison log log C_{n+1} < K(d, m) n on the same range.
    """
    n_max = pq.rect_len - 1 if upto is None else min(upto, pq.rect_len - 1)
    rows = list(conv_stream(pq, n_max))
    items = []
    constants: dict = {}

    if pq.m == 2:
        psi = CertifiedPowers(psi_field())
        constants["psi_enclosure"] = psi.power(1)
        first = None
        boundary = []
        for n in range(n_max + 1):
            e = n - 2
            C_n = rows[n].C
            if e < 0:
                ok = C_n >= 1  # psi^e < 1 <= C_n
            elif e == 0:
                if C_n == 1:
                    boundary.append(n)
                    ok = True
                else:
                    ok = C_n > 1
            else:
                ok = psi.cmp_int(e, C_n) < 0
            if not ok:
                first = n
                break
        items.append(
            CheckItem(
                "psi-lower",
                first is None,
                first,
                tuple(boundary),
                "C_n > psi^(n-2) (boundary equality possible only at n = 2)",
            )
        )

    if M is not None:
        if pq.m != 2:
            raise InputError("the bounded-quotient upper bound is specific to m = 2")
        for n in range(1, n_max + 1):
            if pq.seqs[0][n] > M:
                raise HypothesisViolated(f"a_{n} = {pq.seqs[0][n]} > M = {M}", n)
        eta = CertifiedPowers(eta_field(M))
        constants["eta_enclosure"] = eta.power(1)
        first = None
        for n in range(n_max + 1):
            C_n = rows[n].C
            if n == 0:
                ok = C_n == 1
            else:
                ok = eta.cmp_int(n, C_n) > 0
            if not ok:
                first = n
                break
        items.append(
            CheckItem("eta-upper", first is None, first, (), f"C_n <= eta({M})^n")
        )

    if d is not None:
        if d < 1:
            raise InputError("d must be >= 1")
        for n in range(1, n_max):
            if not pq.seqs[0][n + 1] < rows[n].C**d:
                raise HypothesisViolated(
                    f"a_{n + 1}^(1) = {pq.seqs[0][n + 1]} >= C_{n}^{d}", n + 1
                )
        k_iv = k_interval(d, pq.m)
        constants["K"] = k_iv
        first = None
        for n in range(1, n_max):
            if not _loglog_lt(rows[n + 1].C, k_iv, n):
                first = n
                break
        items.append(
            CheckItem(
                "loglog",
                first is None,
                first,
                (),
                f"log log C_(n+1) < K({d}, {pq.m}) n for 1 <= n <= {n_max - 1}",
            )
        )

    return GrowthReport(items=tuple(items), constants=constants)
