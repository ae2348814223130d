"""Limit enclosures, approximation witnesses, and the certified bound and
growth checks of the convergents (the recurrence itself is mcf.recurrence).

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
from fractions import Fraction

from .errors import (
    HypothesisViolated,
    InputError,
    NonTerminating,
    OracleExhausted,
    PreconditionViolated,
    PrefixMismatch,
)
from .exact_reals import (
    NumberField,
    OracleValue,
    SimplexOracle,
    abs_diff_pow_lt,
    as_real,
    budget_levels,
    certify,
    enclosure_at,
    query_levels,
)
from .intervals import RationalInterval, as_fraction
from .radix import Record, frac_to_str, int_to_str
from .recurrence import CheckItem, PartialQuotients, conv_stream, int_entries, lag_stream
from .recurrence import ConvergentState  # noqa: F401  (perfbench/tracer.py's convergents.ConvergentState.step)


# ---------------------------------------------------------------------------
# Limit enclosures (the window mechanism) and approximation witnesses
# ---------------------------------------------------------------------------


class ConvergentLimitOracle(SimplexOracle):
    """Nested enclosures of one limit coordinate of an admissible expansion.

    Level k is the simplex of the m+1 consecutive convergents k..k+m, which
    always contains the limit tuple (a nonnegative combination of their
    columns); the simplices shrink monotonically.  Keyed by the pq.

    `cols` is the list of vertex vectors (C_n, A_n^(1), ..., A_n^(m)) for
    n = 0..rect_len-1, read off one walk of the recurrence (limit_values
    shares it between the coordinates of one pq).
    """

    def __init__(self, pq: PartialQuotients, coord: int, cols: list[tuple[int, ...]]):
        if not 1 <= coord <= pq.m:
            raise InputError(f"coordinate must be in 1..{pq.m}")
        super().__init__(pq, coord)
        self._cols = cols
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
    """Oracle-backed RealValues for the limit tuple of an admissible pq (one walk of the recurrence)."""
    cols = [(col.C, *col.A) for col in conv_stream(pq)]
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
            if radius == 0 or not abs_diff_pow_lt(values[i], target, 1, radius, what):
                ok = False
                break
        if ok:
            witnesses.append(n)
        col = nxt
    return witnesses


# ---------------------------------------------------------------------------
# Bound checks (m = 2)
# ---------------------------------------------------------------------------


class CheckReport(Record):
    """The items of bound_checks or growth_check, and the figures the check computed
    by their JSON keys: {"empirical_K": int} or {"constants": {name: RationalInterval}}."""

    __slots__ = ("items", "extra")

    def __init__(self, items: tuple[CheckItem, ...], extra: dict):
        self._init(items, extra)

    @property
    def ok(self) -> bool:
        return all(item.ok for item in self.items)


def bound_checks(pq: PartialQuotients, upto: int | None = None, box=None) -> CheckReport:
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
            raise PreconditionViolated("bound check requires a_0 = b_0 = 0, got "
                                       f"({int_to_str(a0)}, {int_to_str(b0)}); pass box=(N, M)")
        nbox, mbox = 0, 0
        strict_upper_is_lemma = True
    else:
        nbox, mbox = int_entries(box, "box", 2)
        if (a0, b0) != (nbox, mbox):
            raise PreconditionViolated(
                f"box ({int_to_str(nbox)}, {int_to_str(mbox)}) does not match the index-0"
                f" quotients ({int_to_str(a0)}, {int_to_str(b0)})")
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
        else f"{int_to_str(nbox)} C_n <= A_n <= {int_to_str(nbox + 1)} C_n and"
        f" {int_to_str(mbox)} C_n <= B_n <= {int_to_str(mbox + 1)} C_n"
    )
    quad = f"ac1_{{n+1}}, bc1_{{n+1}} < 3 C_n^2 at the {applied} indices with a_{{n+1}} < C_n"
    return CheckReport((CheckItem(name, first, detail, tuple(boundary)),
                        CheckItem("tilde-quadratic", first_quad, quad)), {"empirical_K": k_emp})


# ---------------------------------------------------------------------------
# Proximity of expansions sharing a prefix (m = 2)
# ---------------------------------------------------------------------------


class ProximityReport(Record):
    """Whether each coordinate's gap is certified below the prefix bound 1 / C_(n-2)
    and below the triangle bound 2 / C_n, and which bound is the tighter rational:
    "prefix", "triangle" or "equal"."""

    __slots__ = ("n", "prefix_bound", "triangle_bound", "tighter", "prefix_certified", "triangle_certified")

    def __init__(self, n: int, prefix_bound: Fraction, triangle_bound: Fraction, tighter: str,
                 prefix_certified: tuple[bool, ...], triangle_certified: tuple[bool, ...]):
        self._init(n, prefix_bound, triangle_bound, tighter, prefix_certified, triangle_certified)

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
    from .engine import expand  # here, so the checkers that never expand execute no engine

    rec = expand(x, n + 1)
    rec_p = expand(x_prime, n + 1)
    if rec.pq.m != 2 or rec_p.pq.m != 2:
        raise InputError("proximity_check is specific to m = 2")
    for j in range(2):
        if rec.pq.seqs[j][: n + 1] != rec_p.pq.seqs[j][: n + 1]:
            raise PrefixMismatch(
                f"expansions disagree within indices 0..{n} in coordinate {j + 1}"
            )
    C_n2, _, C_n = deque((col.C for col in conv_stream(rec.pq, n)), maxlen=3)
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


_POWER_BITS = 128  # working precision of a fresh CertifiedPowers, in bits


class CertifiedPowers:
    """Outward-rounded enclosures of base^e for the real root of a field.

    Enclosures are integer mantissas (lo, hi) over 2^s, s = bits + 16: each
    step rounds lo * base_lo down and hi * base_hi up to s dyadic places, so
    enclosures stay sound and endpoint sizes stay bounded, and no gcd is
    taken.  Only the last power formed is held: a larger e steps on from it,
    a smaller one restarts from base^0.  tighten() doubles the working
    precision and restarts.
    """

    def __init__(self, field: NumberField):
        self._field = field
        self._bits = _POWER_BITS
        self._levels = budget_levels()  # the refinement budget, read once per instance
        self._rebuild()

    def _rebuild(self):
        self._shift = s = self._bits + 16
        base = self._field.refine_root(Fraction(1, 1 << self._bits)) * (1 << s)
        self._base = (math.floor(base.lo), math.ceil(base.hi))
        self._last = (0, 1 << s, 1 << s)  # (e, lo, hi) of the last power formed

    def tighten(self):
        self._bits *= 2
        self._rebuild()

    def _mantissas(self, e: int) -> tuple[int, int]:
        (b_lo, b_hi), s = self._base, self._shift
        last, lo, hi = self._last if e >= self._last[0] else (0, 1 << s, 1 << s)
        for _ in range(e - last):
            lo, hi = lo * b_lo >> s, -(-hi * b_hi >> s)
        self._last = (e, lo, hi)
        return lo, hi

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
    from .logs import log_enclosure as log  # here: only a log executes mcf.logs

    return log(d + 1, prec) + log(Fraction(d + 1, d), prec) + log(log(m + 1, prec), prec)


def k_interval(d: int, m: int, max_width=Fraction(1, 10**6)) -> RationalInterval:
    """Certified enclosure of K(d, m) = log(d+1) + log(1 + 1/d) + log log(m+1)."""
    max_width = as_fraction(max_width)

    def attempt(level):
        k = _k_enclosure(d, m, 64 << level)
        return k if k.width <= max_width else None

    what = f"K({int_to_str(d)}, {m}) enclosure of width <= {frac_to_str(max_width)}"
    return certify(what, attempt)


def loglog_interval(c: int, prec: int = 128) -> RationalInterval:
    """Certified enclosure of log log c (c >= 2)."""
    if c < 2:
        raise InputError("log log requires c >= 2")
    from .logs import log_enclosure

    return log_enclosure(log_enclosure(c, prec), prec)


def loglog_lt(c: int, d: int, m: int, n: int) -> bool:
    """Certified strict comparison log log c < K(d, m) n for c = C_(n+1).

    log log c < log bits(c) < bits(bits(c)), so bits(bits(c)) <= K n (K's first
    enclosure) answers True at once.  At n = 1 it is c^d < (m+1)^((d+1)^2), equal
    only if m+1 = t^d and c = t^((d+1)^2) (coprime exponents): tested exactly.
    Else both sides are enclosed at 128 * 2^level bits, so a near tie resolves."""
    if c < 2:
        raise InputError(f"log log C_{n + 1} needs C_{n + 1} >= 2, got C_{n + 1} = {int_to_str(c)}")
    k = _k_enclosure(d, m, 128).lo
    if c.bit_length().bit_length() * k.denominator <= k.numerator * n:
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

    return certify(f"log log C_{n + 1} < K({int_to_str(d)}, {m}) * {n}", attempt)


def growth_check(
    pq: PartialQuotients,
    upto: int | None = None,
    d: int | None = None,
    M: int | None = None,
) -> CheckReport:
    """Certified growth bounds on the convergent denominators.

    Always (m = 2): C_n > psi^(n-2) with psi the real root of x^3 - x^2 - 1.
    The single analytically possible exception is equality C_2 = 1 = psi^0
    (sequences starting a_1 = a_2 = 1, b_2 = 0), reported as a boundary touch.

    With M: requires a_n <= M for 1 <= n <= upto (HypothesisViolated
    otherwise), then asserts C_n <= eta(M)^n.

    With d: requires a_{n+1}^(1) < C_n^d for 1 <= n <= upto-1 (the n = 0
    instance is unsatisfiable since C_0 = 1), then asserts the certified
    comparison log log C_{n+1} < K(d, m) n on the same range.

    Order: M's m = 2 requirement, the M hypothesis and d >= 1 come first.
    Then one walk of the recurrence checks, at column n, the d hypothesis
    a_n^(1) < C_(n-1)^d, then psi and eta at n and log log at n - 1.  An item
    stops at its first violation, or at an error of its certification
    (NonTerminating, or InputError for log log of C <= 1), which is raised
    after the walk, in item order: a hypothesis violation wins over it.
    """
    n_max = pq.last_index(upto)
    if M is not None:
        if pq.m != 2:
            raise InputError("the bounded-quotient upper bound is specific to m = 2")
        for n in range(1, n_max + 1):
            if pq.seqs[0][n] > M:
                raise HypothesisViolated(f"a_{n} = {int_to_str(pq.seqs[0][n])} > M = {int_to_str(M)}", n)
    if d is not None and d < 1:
        raise InputError("d must be >= 1")

    constants: dict = {}
    items = []  # (name, detail, holds(n, C_n), lag, boundary): a violation at column n is at n - lag
    if pq.m == 2:
        psi = CertifiedPowers(psi_field())
        constants["psi_enclosure"] = psi.power(1)
        boundary: list[int] = []

        def psi_lower(n: int, C: int) -> bool:
            if n < 2:
                return C >= 1  # psi^(n-2) < 1 <= C_n
            sign = psi.cmp_int(n - 2, C)
            if sign == 0:  # C_2 = 1 = psi^0
                boundary.append(n)
            return sign <= 0

        items.append(("psi-lower", "C_n > psi^(n-2) (boundary equality possible only at n = 2)",
                      psi_lower, 0, boundary))
    if M is not None:
        eta = CertifiedPowers(eta_field(M))
        constants["eta_enclosure"] = eta.power(1)
        items.append(("eta-upper", f"C_n <= eta({int_to_str(M)})^n",
                      lambda n, C: eta.cmp_int(n, C) >= 0, 0, ()))
    if d is not None:
        items.append(("loglog", f"log log C_(n+1) < K({int_to_str(d)}, {pq.m}) n for 1 <= n <= {n_max - 1}",
                      lambda n, C: n < 2 or loglog_lt(C, d, pq.m, n - 1), 1, ()))

    stopped: dict = {}  # name -> None, the first violating index, or the error of a certification
    C_prev = None
    for col in conv_stream(pq, n_max):
        n = col.n
        if d is not None and n >= 2 and not lt_power(pq.seqs[0][n], C_prev, d):
            raise HypothesisViolated(
                f"a_{n}^(1) = {int_to_str(pq.seqs[0][n])} >= C_{n - 1}^{int_to_str(d)}", n)
        for name, _, holds, lag, _ in items:
            if stopped.get(name) is None:
                try:
                    stopped[name] = None if holds(n, col.C) else n - lag
                except (NonTerminating, InputError) as exc:
                    stopped[name] = exc
        C_prev = col.C

    if d is not None:
        constants["K"] = k_interval(d, pq.m)
    for name, *_ in items:
        if isinstance(stopped.get(name), Exception):
            raise stopped[name]
    return CheckReport(tuple(CheckItem(name, stopped.get(name), detail, tuple(touches))
                             for name, detail, _, _, touches in items), {"constants": constants})
