"""Limit enclosures, the approximation layer (one gap value and one scan walk for the
witness, Roth and proximity tests), and the certified bound and growth checks of the
convergents (the recurrence itself is mcf.recurrence).

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
    RationalValue,
    SimplexOracle,
    as_real,
    enclosure_at,
    query_levels,
)
from .intervals import RationalInterval, as_fraction, certify
from .radix import Record, frac_to_str, int_to_str
from .recurrence import CheckItem, PartialQuotients, conv_stream, int_entries, lag_stream
from .recurrence import ConvergentState  # noqa: F401  (perfbench/tracer.py's convergents.ConvergentState.step)


# ---------------------------------------------------------------------------
# Limit enclosures (the window mechanism) and the approximation layer
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


def gap_value(x, y):
    """|x - y| as a log_sign value: an exact Fraction when both values are rational, else an
    Enclosure whose level k reads each value k levels past its query_levels start (the
    deepest level its oracle has memoized)."""
    from .logs import Enclosure

    x, y = as_real(x), as_real(y)
    if isinstance(x, RationalValue) and isinstance(y, RationalValue):
        return abs(x.value - y.value)
    sx, sy = query_levels(x).start, query_levels(y).start
    return Enclosure(lambda level: (enclosure_at(x, sx + level) - enclosure_at(y, sy + level)).abs())


def approx_scan(x, pq: PartialQuotients, upto: int, coords, bound, ahead: bool = False) -> list[int]:
    """Indices n <= upto where every checked coordinate i (0-based; coords are 1-based,
    default all) has |x_i - A_n^(i)/C_n|^q < prod v^-e over the pairs (e, v) of terms,
    for (q, terms, what) = bound(i, col, nxt, ac1), or None when no bound is to fall below.
    Each test is one log_sign query named `what` on gap_value; x_i = A_n^(i)/C_n passes,
    and a column with C_n = 0 has no convergent and is no hit.  With ahead, nxt is column
    n + 1 and ac1 the lag-1 product of (A^(i), C) at n + 1, else both are None; the walk
    holds lag_stream's window, not the columns."""
    from .logs import log_sign

    values = [as_real(v) for v in (x if isinstance(x, (list, tuple)) else [x])]
    if len(values) != pq.m:
        raise InputError(f"need {pq.m} coordinate values")
    which = list(range(pq.m)) if coords is None else [c - 1 for c in coords]
    if any(not 0 <= i < pq.m for i in which):
        raise InputError(f"coordinates must be in 1..{pq.m}")
    last = upto + ahead
    if pq.rect_len <= last:
        raise InputError(f"the scan needs convergents through index {last}; pq has {pq.rect_len}")

    def below(i, col, nxt, ac1) -> bool:
        test = bound(i, col, nxt, ac1)
        if test is None:
            return False
        q, terms, what = test
        gap = gap_value(values[i], Fraction(col.A[i], col.C))
        return gap == 0 or log_sign(((q, gap), *terms), what) < 0

    hits, prev = [], None
    for col, lags in lag_stream(pq, [(i, pq.m) for i in which] if ahead else (), last):
        at, nxt = (prev, col) if ahead else (col, None)
        if at is not None and at.C and all(
                below(i, at, nxt, lags[i, pq.m][0] if ahead else None) for i in which):
            hits.append(at.n)
        prev = col
    return hits


def approx_witnesses(x, pq: PartialQuotients, upto: int, coords=None) -> list[int]:
    """Indices n <= upto where the checked coordinates simultaneously satisfy

        |x_i - A_n^(i)/C_n| < |ac1_{n+1}^(i)| / (C_{n+1} C_n),

    each strict inequality one log_sign query (approx_scan): exact for rational
    inputs, by interval refinement otherwise.

    `coords` is a list of 1-based coordinates (default: all).  Each single
    coordinate has such witnesses at least once per window of m+1
    consecutive indices, but the witness sets of different coordinates need
    not meet, so the simultaneous default can legitimately be sparse or
    empty; pass one coordinate for the per-coordinate notion.

    For window-oracle inputs the deciding margin can sit a few convergents
    past the scan range: keep upto <= rect_len - 4 or so, else the oracle
    exhausts.
    """
    def bound(i, col, nxt, ac1):
        # ac1 = 0, or C_n C_(n+1) <= 0, leaves no positive bound to fall below
        if not ac1 or not nxt.C or (nxt.C > 0) != (col.C > 0):
            return None
        n = col.n
        return (1, ((-1, abs(ac1)), (1, abs(nxt.C)), (1, abs(col.C))),
                lambda: f"witness test |x_{i + 1} - A_{n}/C_{n}| < |ac1_{n + 1}|/(C_{n + 1} C_{n})")

    return approx_scan(x, pq, upto, coords, bound, ahead=True)


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
    are asserted, and the empirical constant max_n ceil(A_n / C_n) over the columns with
    C_n != 0 is reported.
    """
    if pq.m != 2:
        raise InputError("bound_checks is specific to m = 2")
    n_max = pq.last_index(upto)
    if n_max < 0:
        raise PreconditionViolated("bound check requires index 0 in both sequences, got lengths "
                                   f"({len(pq.seqs[0])}, {len(pq.seqs[1])})")
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

    from .logs import power_sign

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
        # ac1_n, bc1_n < 3 C_(n-1)^2 where a_n < C_(n-1)
        if row.n and first_quad is None and pq.seqs[0][row.n] < C_prev:
            applied += 1
            n = row.n
            if not all(power_sign(v[0], 3, C_prev, 2, 1, lambda: f"lag product at {n} < 3 C_{n - 1}^2") < 0
                       for v in lags.values()):
                first_quad = row.n
        if C:  # a column with C_n = 0 has no ratio A_n / C_n
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
    m = 2 inputs whose expansions agree through index n (each bound one log_sign
    query on the coordinate's gap_value; the report also says which bound is the
    tighter rational)."""
    x, x_prime = list(x), list(x_prime)
    if n < 2:
        raise InputError("proximity bounds need a shared prefix through index n >= 2")
    from .engine import expand  # here, so the checkers that never expand execute no engine
    from .logs import log_sign

    rec = expand(x, n + 1)
    rec_p = expand(x_prime, n + 1)
    if rec.pq.m != 2 or rec_p.pq.m != 2:
        raise InputError("proximity_check is specific to m = 2")
    for j in range(2):
        if rec.pq.seqs[j][: n + 1] != rec_p.pq.seqs[j][: n + 1]:
            raise PrefixMismatch(f"expansions disagree within indices 0..{n} in coordinate {j + 1}")
    C_n2, _, C_n = deque((col.C for col in conv_stream(rec.pq, n, (2,))), maxlen=3)
    prefix_bound, triangle_bound = Fraction(1, C_n2), Fraction(2, C_n)
    gaps = list(map(gap_value, x, x_prime))

    def below(name: str, bound: Fraction) -> tuple[bool, ...]:
        what = f"proximity gap of coordinate {{}} against the {name} bound at n = {n}"
        return tuple(gap == 0 or log_sign(((1, gap), (-1, bound)), what.format(i + 1)) < 0
                     for i, gap in enumerate(gaps))

    tighter = ("equal" if prefix_bound == triangle_bound
               else "prefix" if prefix_bound < triangle_bound else "triangle")
    return ProximityReport(n, prefix_bound, triangle_bound, tighter,
                           below("prefix", prefix_bound), below("triangle", triangle_bound))


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


_ROOT_BITS = 128  # a growth base at level k is its root to 2^-(_ROOT_BITS << k)


def root_enclosure(field: NumberField):
    """The root of field as a log_sign value: at level k, bracketed to width
    2^-(128 << k) and rounded outward to 2^-((128 << k) + 16), which keeps the
    endpoints short; level 0 is the enclosure growth_check reports."""
    from .logs import Enclosure

    def at(level: int) -> RationalInterval:
        bits = _ROOT_BITS << level
        scale = 1 << (bits + 16)
        iv = field.refine_root(Fraction(1, 1 << bits)) * scale
        return RationalInterval(Fraction(math.floor(iv.lo), scale), Fraction(math.ceil(iv.hi), scale))

    return Enclosure(at)


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


def loglog_below(d: int, m: int):
    """The certified strict comparison log log c < K(d, m) n for c = C_(n+1), as a function
    of (c, n) that makes one log_sign query, log(log c) - n log(exp K) < 0; mcf.logs is
    imported once, here.  exp K = (d+1)^2/d log(m+1) is one Enclosure that every query
    shares, and log c (c >= 2) is log_enclosure to 128 << level bits, first bracketed by
    the integers around bits(c) log 2 (0.693147 < log 2 < 0.693148).  At n = 1 it is the
    exact c^d < (m+1)^((d+1)^2), so its tie (m+1 = t^d, c = t^((d+1)^2)) is decided."""
    from .logs import Enclosure, log_enclosure, log_sign

    exp_k = Enclosure(lambda level: log_enclosure(m + 1, 64 << level) * Fraction((d + 1) ** 2, d))

    def below(c: int, n: int) -> bool:
        if c < 2:
            raise InputError(f"log log C_{n + 1} needs C_{n + 1} >= 2, got C_{n + 1} = {int_to_str(c)}")

        def what():
            return f"log log C_{n + 1} < K({int_to_str(d)}, {m}) * {n}"

        if n == 1:
            return log_sign(((d, c), (-(d + 1) ** 2, m + 1)), what) < 0
        bits = c.bit_length()  # 2^(bits-1) <= c < 2^bits
        log_c = Enclosure(lambda level: log_enclosure(c, 128 << level),
                          ((bits - 1) * 693147 // 10**6, -(-bits * 693148 // 10**6)))
        return log_sign(((1, log_c), (-n, exp_k)), what) < 0

    return below


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

    from .logs import log_sign, power_sign

    constants: dict = {}
    items = []  # (name, detail, holds(n, C_n), lag, boundary): a violation at column n is at n - lag
    if pq.m == 2:
        psi = root_enclosure(psi_field())
        constants["psi_enclosure"] = psi.interval(0)
        boundary: list[int] = []

        def psi_lower(n: int, C: int) -> bool:
            if n < 2 or C < 1:
                return C >= 1  # psi^(n-2) < 1 <= C_n, and psi^(n-2) > 0 >= C_n
            sign = log_sign(((1, C), (2 - n, psi)), lambda: f"C_{n} against psi^{n - 2}")
            if sign == 0:  # C_2 = 1 = psi^0
                boundary.append(n)
            return sign >= 0

        items.append(("psi-lower", "C_n > psi^(n-2) (boundary equality possible only at n = 2)",
                      psi_lower, 0, boundary))
    if M is not None:
        eta = root_enclosure(eta_field(M))
        constants["eta_enclosure"] = eta.interval(0)

        def eta_upper(n: int, C: int) -> bool:  # eta^n >= 1 > C_n when C_n < 1
            return C < 1 or log_sign(((1, C), (-n, eta)), lambda: f"C_{n} against eta^{n}") <= 0

        items.append(("eta-upper", f"C_n <= eta({int_to_str(M)})^n", eta_upper, 0, ()))
    if d is not None:
        loglog = loglog_below(d, pq.m)
        span = (f"for 1 <= n <= {n_max - 1}" if n_max >= 2
                else f"unchecked: no index n with 1 <= n <= {n_max - 1}")
        items.append(("loglog", f"log log C_(n+1) < K({int_to_str(d)}, {pq.m}) n {span}",
                      lambda n, C: n < 2 or loglog(C, n - 1), 1, ()))

    stopped: dict = {}  # name -> None, the first violating index, or the error of a certification
    C_prev = None
    for col in conv_stream(pq, n_max, (pq.m,)):
        n = col.n
        if d is not None and n >= 2 and power_sign(
                pq.seqs[0][n], 1, C_prev, d, 1, lambda: f"a_{n}^(1) < C_{n - 1}^{int_to_str(d)}") >= 0:
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
