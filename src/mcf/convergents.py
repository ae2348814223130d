"""Convergents of a multidimensional continued fraction and their certified
bound and growth checks.

Given partial quotients a_n^(1..m), the convergent numerators and common
denominator satisfy the (m+1)-term recurrences

    A_n^(i) = sum_j a_n^(j) A_{n-j}^(i) + A_{n-m-1}^(i),
    C_n     = sum_j a_n^(j) C_{n-j}   + C_{n-m-1},

with A_{-n}^(i) = delta_{in} (n = 1..m+1), C_{-m-1} = 1 and C_{-n} = 0 for
n = 1..m.  The same data is the column set of the product of the step
matrices.

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

import functools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .engine import PartialQuotients, expand
from .errors import (
    HypothesisViolated,
    InputError,
    OracleExhausted,
    PreconditionViolated,
    PrefixMismatch,
    unlimited_int_digits,
)
from .exact_reals import (
    NumberField,
    OracleValue,
    SimplexOracle,
    abs_diff_lt,
    as_real,
    budget_levels,
    certify,
    enclosure_at,
    query_levels,
)
from .intervals import RationalInterval, as_fraction, iv_enclosure


# ---------------------------------------------------------------------------
# The convergent stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Column:
    """Convergent column of index n: numerators A^(1..m) and denominator C."""

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
            cols.append(Column(-j, tuple(1 if i == j else 0 for i in range(1, m + 1)), 0))
        cols.append(Column(-m - 1, tuple(0 for _ in range(m)), 1))
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
        col = Column(self.n, tuple(A), C)
        self.window.appendleft(col)
        self.n += 1
        return col


def conv_stream(pq: PartialQuotients, upto: int | None = None):
    """Yield the Column of each index n = 0..upto (rectangular range only)."""
    limit = pq.rect_len if upto is None else min(upto + 1, pq.rect_len)
    state = ConvergentState.initial(pq.m)
    for n in range(limit):
        yield state.step(tuple(pq.seqs[j][n] for j in range(pq.m)))


def column_table(pq: PartialQuotients, upto: int | None = None):
    """Columns for indices -(m+1)..upto as (list, offset): list[n + offset] has index n.

    One walk of the recurrence; like conv_stream, it stops at the end of the
    rectangular range.
    """
    cols = list(reversed(ConvergentState.initial(pq.m).window))
    cols.extend(conv_stream(pq, upto))
    return cols, pq.m + 1


# ---------------------------------------------------------------------------
# Lag products (the auxiliary or "tilde" sequences)
# ---------------------------------------------------------------------------


def lag_product(u: Column, v: Column, i: int, j: int) -> int:
    """u_i v_j - v_i u_j over the coordinates (A^(1), ..., A^(m), C) of two columns.

    Coordinate m is the denominator.  The columns may sit at any two
    indices, the initial negative-index columns included; with v one index
    before u and j = m this is the tilde value of coordinate i at u's index.
    """
    x, y = u.A + (u.C,), v.A + (v.C,)
    return x[i] * y[j] - y[i] * x[j]


class LagProducts:
    """Rolling lag products L_l(n) = lag_product(col_n, col_(n-l), i, j), l = 1..m, of
    chosen coordinate pairs (i, j): the 2x2 minors of W_n = [col_n | ... | col_(n-m)].

    W_(n+1) = W_n S(a_(n+1)), where S has first column (a^(1), ..., a^(m), 1)
    and shifts the rest, so by Cauchy-Binet each minor at n+1 combines minors
    at n with coefficients 0, +-1 or one quotient (small x big products only):

        L_q(n+1) = sum_(k<q) a^(k) L_(q-k)(n+1-k) - sum_(k>q) a^(k) L_(k-q)(n+1-q)
                   - L_(m+1-q)(n+1-q).

    W_(-1), of the negative-index columns, is the identity.  L_1(n+1) does not
    involve a_(n+1)^(1) (peek_lag1).
    """

    __slots__ = ("m", "pairs", "_history")

    def __init__(self, m: int, pairs):
        self.m, self.pairs = m, tuple(pairs)
        # _history[p][i, j][l - 1] is L_l(n - p), p = 0..m-1; at n = -1, minors of the identity
        self._history = deque(({(i, j): tuple(((i, j) == (p, p + l)) - ((j, i) == (p, p + l))
                                              for l in range(1, m + 1)) for i, j in self.pairs}
                               for p in range(m)), maxlen=m)

    def _next(self, a, pair, q: int) -> int:
        h, m = self._history, self.m
        return (sum(a[k - 1] * h[k - 1][pair][q - k - 1] for k in range(1, q))
                - sum(a[k - 1] * h[q - 1][pair][k - q - 1] for k in range(q + 1, m + 1))
                - h[q - 1][pair][m - q])

    def peek_lag1(self, tail) -> dict:
        """L_1(n+1) of each pair from a_(n+1)^(2..m) alone, before a_(n+1)^(1) is chosen."""
        return {pair: self._next((0, *tail), pair, 1) for pair in self.pairs}

    def step(self, a) -> dict:
        """(L_1, ..., L_m)(n+1) of each pair, from the quotients a_(n+1)^(1..m)."""
        qs = range(1, self.m + 1)
        lags = {pair: tuple(self._next(a, pair, q) for q in qs) for pair in self.pairs}
        self._history.appendleft(lags)
        return lags


def lag_stream(pq: PartialQuotients, pairs, upto: int | None = None):
    """Yield (Column, lags) for n = 0..upto (rectangular range only), where
    lags[i, j][l - 1] is the lag-l product of coordinates (i, j) at n."""
    lags = LagProducts(pq.m, pairs)
    for col in conv_stream(pq, upto):
        yield col, lags.step(tuple(pq.seqs[j][col.n] for j in range(pq.m)))


# ---------------------------------------------------------------------------
# Limit enclosures (the window mechanism) and approximation witnesses
# ---------------------------------------------------------------------------


class ConvergentLimitOracle(SimplexOracle):
    """Nested enclosures of one limit coordinate of an admissible expansion.

    Level k is the simplex of the m+1 consecutive convergents k..k+m, which
    always contains the limit tuple (a nonnegative combination of their
    columns); the simplices shrink monotonically.  Keyed by the pq.

    `cols` is the list of vertex vectors (C_n, A_n^(1), ..., A_n^(m)) for
    n = 0..rect_len-1; pass it to share one walk of the recurrence between
    the coordinates of one pq.
    """

    def __init__(self, pq: PartialQuotients, coord: int, cols: list | None = None):
        if not 1 <= coord <= pq.m:
            raise InputError(f"coordinate must be in 1..{pq.m}")
        super().__init__(pq, coord)
        self._cols = _vertex_vectors(pq) if cols is None else cols
        self._m = pq.m

    def vertices(self, level: int) -> list[tuple[int, ...]]:
        top = level + self._m
        if top >= len(self._cols):
            raise OracleExhausted(
                f"convergent window oracle exhausted at level {level}"
                f" (have {len(self._cols)} convergents)"
            )
        return self._cols[level:top + 1]


def _vertex_vectors(pq: PartialQuotients) -> list[tuple[int, ...]]:
    return [(col.C, *col.A) for col in conv_stream(pq)]


def limit_values(pq: PartialQuotients) -> tuple[OracleValue, ...]:
    """Oracle-backed RealValues for the limit tuple of an admissible pq (one walk of the recurrence)."""
    cols = _vertex_vectors(pq)
    return tuple(OracleValue(ConvergentLimitOracle(pq, i, cols)) for i in range(1, pq.m + 1))


def scan_inputs(x, pq: PartialQuotients, last: int, coords=None) -> tuple[list, list[int]]:
    """(values, 0-based coordinates) for a scan of x against pq's convergents
    0..last; coords are 1-based (default: all)."""
    values = [as_real(v) for v in (x if isinstance(x, (list, tuple)) else [x])]
    if len(values) != pq.m:
        raise InputError(f"need {pq.m} coordinate values")
    which = list(range(pq.m)) if coords is None else [c - 1 for c in coords]
    if any(not 0 <= i < pq.m for i in which):
        raise InputError(f"coordinates must be in 1..{pq.m}")
    if pq.rect_len <= last:
        raise InputError(f"the scan needs convergents through index {last}; pq has {pq.rect_len}")
    return values, which


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
    values, which = scan_inputs(x, pq, upto + 1, coords)
    stream = lag_stream(pq, [(i, pq.m) for i in which], upto + 1)
    col, witnesses = next(stream)[0], []
    for nxt, lags in stream:
        n, ok = col.n, True
        for i in which:
            target = Fraction(col.A[i], col.C)
            radius = Fraction(abs(lags[i, pq.m][0]), nxt.C * col.C)
            what = f"witness test |x_{i + 1} - A_{n}/C_{n}| < |ac1_{n + 1}|/(C_{n + 1} C_{n})"
            if radius == 0 or not abs_diff_lt(values[i], target, radius, what):
                ok = False
                break
        if ok:
            witnesses.append(n)
        col = nxt
    return witnesses


# ---------------------------------------------------------------------------
# Bound checks (m = 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckItem:
    """One named bound or hypothesis checked over an index range; it holds
    when no index violates it."""

    name: str
    first_violation: int | None
    detail: str
    boundary_indices: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return self.first_violation is None


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
    n_max = pq.last_index(upto)
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

    first = first_quad = None
    boundary: list[int] = []
    applied, k_emp, C_prev = 0, 0, None
    for row, lags in lag_stream(pq, ((0, 2), (1, 2)), n_max):
        A, B, C = row.A[0], row.A[1], row.C
        if first is None:
            upper_a, upper_b = (nbox + 1) * C, (mbox + 1) * C
            if nbox * C > A or mbox * C > B or A > upper_a or B > upper_b:
                first = row.n
            elif not strict_upper_is_lemma and (A == upper_a or B == upper_b):
                boundary.append(row.n)
        # ac1_n, bc1_n < 3 C_(n-1)^2 where a_n < C_(n-1); bit lengths mostly decide
        if row.n and first_quad is None and pq.seqs[0][row.n] < C_prev:
            applied += 1
            if not all(lt_power(v[0], C_prev, 2) or v[0] < 3 * C_prev**2 for v in lags.values()):
                first_quad = row.n
        k_emp = max(k_emp, -(-A // C), -(-B // C))  # ceil division
        C_prev = C
    name = "num-le-den" if strict_upper_is_lemma else "box"
    detail = (
        "A_n, B_n <= C_n" if strict_upper_is_lemma
        else f"{nbox} C_n <= A_n <= {nbox + 1} C_n and {mbox} C_n <= B_n <= {mbox + 1} C_n"
    )
    quad = f"ac1_{{n+1}}, bc1_{{n+1}} < 3 C_n^2 at the {applied} indices with a_{{n+1}} < C_n"
    return BoundReport((CheckItem(name, first, detail, tuple(boundary)),
                        CheckItem("tilde-quadratic", first_quad, quad)), k_emp)


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

    def certify_gap(name: str, bound: Fraction) -> list[bool]:
        out = []
        for i in range(2):
            xi, yi = as_real(x[i]), as_real(x_prime[i])
            levels, shift = query_levels(xi), query_levels(yi).start - query_levels(xi).start

            def attempt(level):
                gap = (enclosure_at(xi, level) - enclosure_at(yi, level + shift)).abs()
                if gap.hi < bound:
                    return True
                if gap.lo > bound:
                    return False

            what = f"proximity gap of coordinate {i + 1} against the {name} bound at n = {n}"
            out.append(certify(what, attempt, levels))
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
        tuple(certify_gap("prefix", prefix_bound)),
        tuple(certify_gap("triangle", triangle_bound)),
    )


# ---------------------------------------------------------------------------
# Growth constants and certified growth checks
# ---------------------------------------------------------------------------

def psi_field() -> NumberField:
    """Field of the universal denominator growth base (root of x^3 - x^2 - 1, ~ 1.4656)."""
    return NumberField((-1, 0, -1, 1), RationalInterval(Fraction(7, 5), Fraction(3, 2)))


def eta_field(M: int) -> NumberField:
    """Field of the bounded-quotient growth base (positive root of x^3 - M x^2 - M x - 1)."""
    if M < 1:
        raise InputError("M must be >= 1")
    return NumberField((-1, -M, -M, 1), RationalInterval(Fraction(M), Fraction(M + 1)))


class CertifiedPowers:
    """Outward-rounded enclosures of base^e for the real root of a field.

    Enclosures are integer mantissas (lo, hi) over 2^s, s = bits + 16: each
    chain step rounds lo * base_lo down and hi * base_hi up to s dyadic
    places, so enclosures stay sound and endpoint sizes stay bounded, and no
    gcd is taken.  tighten() doubles the working precision and rebuilds.
    """

    def __init__(self, field: NumberField, bits: int = 128):
        self._field = field
        self._bits = bits
        self._levels = budget_levels()  # the refinement budget, read once per chain
        self._rebuild()

    def _rebuild(self):
        self._shift = s = self._bits + 16
        base = self._field.refine_root(Fraction(1, 1 << self._bits)) * (1 << s)
        self._chain = [(1 << s, 1 << s), (math.floor(base.lo), math.ceil(base.hi))]

    def tighten(self):
        self._bits *= 2
        self._rebuild()

    def _mantissas(self, e: int) -> tuple[int, int]:
        chain, s = self._chain, self._shift
        b_lo, b_hi = chain[1]
        while len(chain) <= e:
            lo, hi = chain[-1]
            chain.append((lo * b_lo >> s, -(-hi * b_hi >> s)))
        return chain[e]

    def power(self, e: int) -> RationalInterval:
        if e < 0:
            raise InputError("only nonnegative exponents are tracked")
        lo, hi = self._mantissas(e)
        return RationalInterval(Fraction(lo, 1 << self._shift), Fraction(hi, 1 << self._shift))

    def cmp_int(self, e: int, value: int) -> int:
        """Certified comparison of base^e with an integer: -1, 0 (exact tie), +1."""
        if e == 0:
            return (1 > value) - (1 < value)

        def attempt(level):
            if level:
                self.tighten()
            lo, hi = self._mantissas(e)
            scaled = value << self._shift
            if hi < scaled:
                return -1
            if lo > scaled:
                return 1

        return certify(f"comparison of root^{e} with an integer", attempt, self._levels)


def lt_power(a: int, c: int, d: int) -> bool:
    """a < c**d, exactly, for d >= 0.

    For c >= 1, c**d >= 1 > a if a < 1, and 2^(d (bits(c) - 1)) <= c**d <= 2^(d bits(c)),
    so the bit length of a decides unless it falls between those exponents;
    only then, or for c < 1, is c**d formed.
    """
    if c >= 1:
        if a < 1:
            return True
        a_bits, c_bits = a.bit_length(), c.bit_length()
        if a_bits <= d * (c_bits - 1):
            return True
        if a_bits > d * c_bits:
            return False
    return a < c**d


@functools.lru_cache(maxsize=64)
def _k_enclosure(d: int, m: int, prec: int) -> RationalInterval:
    if d < 1 or m < 1:
        raise InputError("need d >= 1 and m >= 1")
    return iv_enclosure(
        prec, lambda iv: iv.log(d + 1) + iv.log(iv.mpf(d + 1) / d) + iv.log(iv.log(m + 1))
    )


def k_interval(d: int, m: int, max_width=Fraction(1, 10**6)) -> RationalInterval:
    """Certified enclosure of K(d, m) = log(d+1) + log(1 + 1/d) + log log(m+1)."""
    max_width = as_fraction(max_width)

    def attempt(level):
        k = _k_enclosure(d, m, 64 << level)
        return k if k.width <= max_width else None

    return certify(f"K({d}, {m}) enclosure of width <= {max_width}", attempt)


def loglog_interval(c: int, prec: int = 128) -> RationalInterval:
    """Certified enclosure of log log c (c >= 2)."""
    if c < 2:
        raise InputError("log log requires c >= 2")
    return iv_enclosure(prec, lambda iv: iv.log(iv.log(iv.mpf(c))))


def loglog_lt(c: int, d: int, m: int, n: int) -> bool:
    """Certified strict comparison log log c < K(d, m) n for c = C_(n+1).

    log log c < log bits(c) < bits(bits(c)), so bits(bits(c)) <= K n (K's first
    enclosure) answers True at once.  At n = 1 it is c^d < (m+1)^((d+1)^2), equal
    only if m+1 = t^d and c = t^((d+1)^2) (coprime exponents): tested exactly.
    Else both sides are enclosed at 128 * 2^level bits, so a near tie resolves."""
    k = _k_enclosure(d, m, 128).lo
    if c >= 2 and c.bit_length().bit_length() * k.denominator <= k.numerator * n:
        return True
    if n == 1 and d < (m + 1).bit_length() and any(
            t**d == m + 1 and c == t ** ((d + 1) ** 2) for t in range(2, m + 2)):
        return False

    def attempt(level):
        lhs, rhs = loglog_interval(c, 128 << level), _k_enclosure(d, m, 128 << level) * n
        if lhs.hi < rhs.lo:
            return True
        if lhs.lo > rhs.hi:
            return False

    return certify(f"log log C_{n + 1} < K({d}, {m}) * {n}", attempt)


@dataclass(frozen=True)
class GrowthReport:
    items: tuple[CheckItem, ...]
    constants: dict

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


@unlimited_int_digits
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
    n_max = pq.last_index(upto)
    rows = list(conv_stream(pq, n_max))
    items = []
    constants: dict = {}

    if pq.m == 2:
        psi = CertifiedPowers(psi_field())
        constants["psi_enclosure"] = psi.power(1)
        first = None
        boundary = []
        for n in range(n_max + 1):
            if n < 2:
                ok = rows[n].C >= 1  # psi^(n-2) < 1 <= C_n
            else:
                sign = psi.cmp_int(n - 2, rows[n].C)
                if sign == 0:  # C_2 = 1 = psi^0
                    boundary.append(n)
                ok = sign <= 0
            if not ok:
                first = n
                break
        items.append(
            CheckItem(
                "psi-lower",
                first,
                "C_n > psi^(n-2) (boundary equality possible only at n = 2)",
                tuple(boundary),
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
            if eta.cmp_int(n, rows[n].C) < 0:
                first = n
                break
        items.append(
            CheckItem("eta-upper", first, f"C_n <= eta({M})^n")
        )

    if d is not None:
        if d < 1:
            raise InputError("d must be >= 1")
        for n in range(1, n_max):
            if not lt_power(pq.seqs[0][n + 1], rows[n].C, d):
                raise HypothesisViolated(
                    f"a_{n + 1}^(1) = {pq.seqs[0][n + 1]} >= C_{n}^{d}", n + 1
                )
        constants["K"] = k_interval(d, pq.m)
        first = None
        for n in range(1, n_max):
            if not loglog_lt(rows[n + 1].C, d, pq.m, n):
                first = n
                break
        items.append(
            CheckItem(
                "loglog",
                first,
                f"log log C_(n+1) < K({d}, {pq.m}) n for 1 <= n <= {n_max - 1}",
            )
        )

    return GrowthReport(items=tuple(items), constants=constants)
