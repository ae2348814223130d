"""Liouville-type constructions and their checker, in ints or in exact Decimals
(radix.EXACT), on mcf.recurrence and intervals.as_fraction: the Liouville
commands execute no field, engine or growth-check code.

All quotients but the leading a_n^(1) are free; the lag products at index n do
not involve a_n^(1), so the head can be chosen as

    a_n^(1) = max(max_i |tilde_i(n)| * ceil(C_{n-1}^delta), floor) + 1

which makes a_n^(1) > max_i |tilde_i(n)| C_{n-1}^delta hold strictly at every
n >= 1 while staying admissible; the construction takes floor(C^delta) by an
integer root of C^p, and the checker decides each head by one certified
comparison (logs.power_sign), which it imports where it compares.
Verdicts are about finite depth; none claims transcendence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import AdmissibilityConflict, InputError, NonTerminating
from .intervals import as_fraction
from .radix import Record, frac_to_str, int_to_str, iroot_floor, magnitude
from .recurrence import CheckItem, ConvergentState, LagProducts, PartialQuotients, QuotientRows, int_entries


# ---------------------------------------------------------------------------
# Quotient rules (free entries for the constructions) and the report
# ---------------------------------------------------------------------------

Rule = Callable[[int], int]


def const_rule(value: int) -> Rule:
    (v,) = int_entries([value], "const rule")
    return lambda n: v


def cycle_rule(values: Sequence[int]) -> Rule:
    vals = int_entries(values, "cycle rule")
    if not vals:
        raise InputError("cycle rule needs at least one value")
    return lambda n: vals[n % len(vals)]


def seq_rule(values: Sequence[int]) -> Rule:
    vals = int_entries(values, "sequence rule")

    def rule(n: int) -> int:
        if n < len(vals):
            return vals[n]
        raise InputError(f"sequence rule exhausted at index {n} (it has {len(vals)} values)")

    return rule


class CriterionReport(Record):
    """Finite-depth evidence for a criterion's hypotheses.

    The verdict is either "hypotheses-hold-to-depth" or "violated-at(i)";
    it never asserts transcendence.
    """

    __slots__ = ("criterion", "depth", "hypotheses", "data")

    def __init__(self, criterion: str, depth: int, hypotheses: tuple[CheckItem, ...],
                 data: dict | None = None):
        self._init(criterion, depth, hypotheses, {} if data is None else data)

    @property
    def ok(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    @property
    def verdict(self) -> str:
        for h in self.hypotheses:
            if not h.ok:
                return f"violated-at({h.first_violation})"
        return "hypotheses-hold-to-depth"


# ---------------------------------------------------------------------------
# Liouville-type constructions
# ---------------------------------------------------------------------------


# The largest dimension of a Liouville construction: LagProducts holds m^3 lag
# products of the m pairs (i, m), so the check comes before anything of size m.
MAX_LIOUVILLE_M = 64
# The largest C^p, in bits (a decimal digit counts 10/3), that liouville_rows forms for
# floor(C^delta), past which it raises NonTerminating: 16 times the largest formed, in
# CI's depth-17 delta = 1 document.
MAX_POWER_BITS = 1 << 26


class LiouvilleSpec(Record):
    """Free data for a Liouville-type construction, 2 <= m <= MAX_LIOUVILLE_M.

    `tail_rules` supply a_n^(j) for j = 2..m at every index (one rule serves
    them all); `head` is a_0^(1).  The leading quotients a_n^(1), n >= 1, are
    derived.
    """

    __slots__ = ("m", "delta", "depth", "tail_rules", "head")

    def __init__(self, m: int, delta: Fraction, depth: int, tail_rules: tuple[Rule, ...], head: int = 0):
        delta = as_fraction(delta)
        m, depth, head = int_entries((m, depth, head), "(m, depth, head)")
        if not 2 <= m <= MAX_LIOUVILLE_M:
            raise InputError(f"Liouville constructions need 2 <= m <= {MAX_LIOUVILLE_M}")
        if delta <= 0:
            raise InputError("delta must be positive")
        if depth < 1:
            raise InputError("depth must be >= 1")
        if len(tail_rules) == 1:
            tail_rules = tail_rules * (m - 1)
        if len(tail_rules) != m - 1:
            raise InputError(f"need {m - 1} tail rules for m = {m}")
        self._init(m, delta, depth, tail_rules, head)


def liouville_rows(spec: LiouvilleSpec, number=int) -> QuotientRows:
    """Quotients for indices 0..depth satisfying the criterion strictly, computed in
    the type `number` makes of an int (int, or radix.to_decimal under radix.EXACT).

    At each n >= 1 the lag-1 products do not involve the head: a_n^(1) adds
    a_n^(1) times column n-1 to column n, which cancels in A_n C_{n-1} - A_{n-1} C_n,
    so LagProducts.peek_lag1 gives them from the tail.  The head quotient is
    then set just above both the criterion threshold and the admissibility floor
    (a C^p past MAX_POWER_BITS raises NonTerminating before it is formed).
    The output is admissible by construction: for n >= 1 every tail entry is >= 0
    and below the head, so each lexicographic chain ends at its first comparison.
    """
    m = spec.m
    seqs: list[list] = [[] for _ in range(m)]
    state, lags = ConvergentState.initial(m, [m]), LagProducts(m, [(i, m) for i in range(m)])
    for n in range(spec.depth + 1):
        tail = int_entries([rule(n) for rule in spec.tail_rules], f"the tail at index {n}")
        if n >= 1 and any(v < 0 for v in tail):
            shown = ", ".join(map(int_to_str, tail))
            raise AdmissibilityConflict(f"free entry a_{n}^(j) negative: [{shown}]", index=n)
        tail = [number(v) for v in tail]
        if n == 0:
            head = number(spec.head)
        else:
            t_max = max(abs(t) for t in lags.peek_lag1(tail).values())
            C, p = state.window[0][0], spec.delta.numerator
            base, e = magnitude(C)
            bits = p * e * (10 if base == 10 else 3) // 3
            if C > 1 and bits > MAX_POWER_BITS:
                raise NonTerminating(f"index {n}: floor(C_{n - 1}^delta) needs C_{n - 1}^{int_to_str(p)},"
                                     f" about {int_to_str(bits)} bits, past {MAX_POWER_BITS}")
            power = C**p  # then r = floor(C^(p/q))
            r = iroot_floor(power, spec.delta.denominator)
            threshold = t_max * (r if r**spec.delta.denominator == power else r + 1)
            head = max(threshold, max([0] + tail)) + 1
        a = (head, *tail)
        for j, v in enumerate(a):
            seqs[j].append(v)
        if n < spec.depth:  # the last column and its lag products feed nothing
            state.advance(a)
            lags.step(a)

    return QuotientRows(m, tuple(tuple(s) for s in seqs))


def construct_liouville(spec: LiouvilleSpec) -> PartialQuotients:
    """Quotients for indices 0..depth satisfying the criterion strictly: liouville_rows in ints."""
    return PartialQuotients(spec.m, liouville_rows(spec).seqs)


def liouville_report(pq: QuotientRows, delta, upto: int | None = None) -> CriterionReport:
    """Check a_n^(1) > max_i |tilde_i(n)| * C_{n-1}^delta for 1 <= n <= upto.

    Each index is one logs.power_sign comparison for delta = p/q, in the quotients'
    type; a negative C_(n-1) with even q has no real C^delta and fails the index.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
    from .logs import power_sign  # here: only a comparison executes mcf.logs

    n_max = pq.last_index(upto)
    p, q = delta.numerator, delta.denominator
    state, lags = ConvergentState.initial(pq.m, [pq.m]), LagProducts(pq.m, [(i, pq.m) for i in range(pq.m)])
    first = None
    for n in range(n_max + 1):
        a = tuple(pq.seqs[j][n] for j in range(pq.m))
        if n >= 1:
            t_max = max(abs(t) for t in lags.peek_lag1(a[1:]).values())
            C = state.window[0][0]
            if (C < 0 and q % 2 == 0) or power_sign(
                    a[0], t_max, C, p, q, lambda: f"head a_{n}^(1) > t C_{n - 1}^{frac_to_str(delta)}") <= 0:
                first = n
                break
        if n < n_max:  # column n_max and its lag products feed nothing
            state.advance(a)
            lags.step(a)
    checks = (
        CheckItem(
            "head-dominates-tilde",
            first,
            f"a_n^(1) > max_i |tilde_i(n)| C_(n-1)^{frac_to_str(delta)} "
            + (f"for 1 <= n <= {n_max}" if n_max >= 1 else f"unchecked: no index n with 1 <= n <= {n_max}"),
        ),
    )
    return CriterionReport(
        criterion="liouville",
        depth=n_max,
        hypotheses=checks,
        data={"delta": frac_to_str(delta)},
    )


def verify_liouville(pq: PartialQuotients, delta, upto: int | None = None) -> CriterionReport:
    """liouville_report on int quotients: the criterion inequality for 1 <= n <= upto."""
    return liouville_report(pq, delta, upto)
