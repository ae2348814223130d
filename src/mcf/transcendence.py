"""Constructions and finite-depth checkers for the transcendence criteria.

Two families are supported:

* Liouville-type sequences: all quotients except the leading a_n^(1) are
  free; since the lag products at index n do not involve a_n^(1), the head
  can be chosen as

      a_n^(1) = max(max_i |tilde_i(n)| * ceil(C_{n-1}^delta), floor) + 1

  which makes the criterion inequality a_n^(1) > max_i |tilde_i(n)| C_{n-1}^delta
  hold strictly at every n >= 1 while staying admissible.  Rational
  exponents are compared exactly by clearing to integer powers.

* Quasi-periodic sequences: scheduled windows (n_k, r_k, lambda_k) in which
  a block of r_k quotients repeats lambda_k times; checkers validate the
  boundedness/growth hypotheses and compare the finite ratio proxies
  against the certified threshold constant.

Verdicts are always about hypothesis satisfaction at finite depth; no
checker ever claims transcendence (a statement about limits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .convergents import (
    CheckItem,
    ConvergentState,
    LagProducts,
    conv_stream,
    eta_field,
    lt_power,
    psi_field,
    scan_inputs,
)
from .engine import PartialQuotients, QuotientRows, check_admissible, int_entries
from .errors import AdmissibilityConflict, AdmissibilityError, InputError, ScheduleOverlap
from .exact_reals import abs_diff_pow_lt, certify
from .intervals import RationalInterval, as_fraction, iv_enclosure
from .radix import frac_to_str, int_to_str, magnitude


# ---------------------------------------------------------------------------
# Quotient rules (free entries for the constructions)
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


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    """Finite-depth evidence for a criterion's hypotheses.

    The verdict is either "hypotheses-hold-to-depth" or "violated-at(i)";
    it never asserts transcendence.
    """

    criterion: str
    depth: int
    hypotheses: tuple[CheckItem, ...]
    data: dict = field(default_factory=dict)

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


def _iroot_floor(x, n: int):
    """Largest r >= 0 with r**n <= x, by integer Newton iteration in the type of x.

    Starts above the root, within a factor b of it, at b**ceil(e/n) for b**(e-1) <= x
    < b**e (radix.magnitude); the iterates then decrease monotonically to the floor root,
    so the first that fails to decrease is the answer (Brent & Zimmermann, section 1.5).
    When b**e <= 2**n the root is 1, and the start's (n-1)-th power is never formed.
    """
    if x < 0 or n < 1:
        raise InputError("integer root needs x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    b, e = magnitude(x)
    if e * (b - 1).bit_length() <= n:  # x < b**e <= 2**n
        return type(x)(1)
    r = type(x)(b) ** -(-e // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _ceil_rational_power(base, expo: Fraction):
    """ceil(base**expo) for base >= 1 and a positive rational exponent, exactly."""
    if base < 1:
        raise InputError("base must be >= 1")
    p, q = expo.numerator, expo.denominator
    num = base**p
    r = _iroot_floor(num, q)
    return r if r**q == num else r + 1


# The largest dimension of a Liouville construction: LagProducts holds m^3 lag
# products of the m pairs (i, m), so the check comes before anything of size m.
MAX_LIOUVILLE_M = 64


@dataclass(frozen=True)
class LiouvilleSpec:
    """Free data for a Liouville-type construction, 2 <= m <= MAX_LIOUVILLE_M.

    `tail_rules` supply a_n^(j) for j = 2..m at every index (one rule serves
    them all); `head` is a_0^(1).  The leading quotients a_n^(1), n >= 1, are
    derived.
    """

    m: int
    delta: Fraction
    depth: int
    tail_rules: tuple[Rule, ...]
    head: int = 0

    def __post_init__(self):
        object.__setattr__(self, "delta", as_fraction(self.delta))
        object.__setattr__(self, "head", int_entries([self.head], "a^(1)")[0])
        if not 2 <= self.m <= MAX_LIOUVILLE_M:
            raise InputError(f"Liouville constructions need 2 <= m <= {MAX_LIOUVILLE_M}")
        if self.delta <= 0:
            raise InputError("delta must be positive")
        if self.depth < 1:
            raise InputError("depth must be >= 1")
        if len(self.tail_rules) == 1:
            object.__setattr__(self, "tail_rules", self.tail_rules * (self.m - 1))
        if len(self.tail_rules) != self.m - 1:
            raise InputError(f"need {self.m - 1} tail rules for m = {self.m}")


def liouville_rows(spec: LiouvilleSpec, number=int) -> QuotientRows:
    """Quotients for indices 0..depth satisfying the criterion strictly, computed in
    the type `number` makes of an int (int, or radix.to_decimal under radix.EXACT).

    At each n >= 1 the lag-1 products do not involve the head: a_n^(1) adds
    a_n^(1) times column n-1 to column n, which cancels in A_n C_{n-1} - A_{n-1} C_n,
    so LagProducts.peek_lag1 gives them from the tail.  The head quotient is
    then set just above both the criterion threshold and the admissibility floor.
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
            threshold = t_max * _ceil_rational_power(state.window[0][0], spec.delta)
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


def _head_exceeds(a, t, C, p: int, q: int) -> bool:
    """a > t * C^(p/q) over the reals, for t >= 0, cleared to a^q > t^q C^p: equivalent for
    odd q, or when a and C are >= 0.  For even q a negative a fails, and so does a negative
    C, whose C^(p/q) is not real."""
    if q % 2 == 0 and (a < 0 or C < 0):
        return False
    return a**q > t**q * C**p


def liouville_report(pq: QuotientRows, delta, upto: int | None = None) -> CriterionReport:
    """Check a_n^(1) > max_i |tilde_i(n)| * C_{n-1}^delta for 1 <= n <= upto.

    The rational exponent delta = p/q is cleared exactly, in the quotients' type
    (_head_exceeds).
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
    n_max = pq.last_index(upto)
    p, q = delta.numerator, delta.denominator
    state, lags = ConvergentState.initial(pq.m, [pq.m]), LagProducts(pq.m, [(i, pq.m) for i in range(pq.m)])
    first = None
    for n in range(n_max + 1):
        a = tuple(pq.seqs[j][n] for j in range(pq.m))
        if n >= 1:
            t_max = max(abs(t) for t in lags.peek_lag1(a[1:]).values())
            if not _head_exceeds(a[0], t_max, state.window[0][0], p, q):
                first = n
                break
        if n < n_max:  # column n_max and its lag products feed nothing
            state.advance(a)
            lags.step(a)
    checks = (
        CheckItem(
            "head-dominates-tilde",
            first,
            f"a_n^(1) > max_i |tilde_i(n)| C_(n-1)^{frac_to_str(delta)} for 1 <= n <= {n_max}",
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


def roth_scan(x, pq: PartialQuotients, epsilon, upto: int, coords=None) -> list[int]:
    """Indices n <= upto with |x_i - A_n^(i)/C_n| < 1/C_n^(2+epsilon) for
    every requested coordinate, certified.

    epsilon must be a positive rational; the exponent is cleared exactly.
    epsilon = 0 is the critical exponent and is rejected.
    """
    epsilon = as_fraction(epsilon)
    if epsilon == 0:
        raise InputError(
            "epsilon = 0 makes the exponent the critical value 2, where every "
            "irrational has infinitely many solutions; the scan requires epsilon > 0"
        )
    if epsilon < 0:
        raise InputError("epsilon must be positive")
    values, which = scan_inputs(x, pq, upto, coords)
    p, q = epsilon.numerator, epsilon.denominator
    hits = []
    for col in conv_stream(pq, upto):
        n, C = col.n, col.C
        bound = Fraction(1, C ** (2 * q + p))
        ok = True
        for i in which:
            target = Fraction(col.A[i], C)
            what = (f"Roth test |x_{i + 1} - A_{n}/C_{n}|^{int_to_str(q)}"
                    f" < 1/C_{n}^{int_to_str(2 * q + p)}")
            if not abs_diff_pow_lt(values[i], target, q, bound, what):
                ok = False
                break
        if ok:
            hits.append(n)
    return hits


# ---------------------------------------------------------------------------
# Quasi-periodic constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiPeriodicSpec:
    """Schedule of repetition windows over base sequences.

    schedule entries are (n_k, r_k, lambda_k), all positive, n_k strictly
    increasing, windows disjoint: n_{k+1} >= n_k + lambda_k * r_k.
    """

    m: int
    schedule: tuple[tuple[int, int, int], ...]
    base_rules: tuple[Rule, ...]

    def __post_init__(self):
        if self.m < 1:
            raise InputError("dimension m must be >= 1")
        if len(self.base_rules) != self.m:
            raise InputError(f"need {self.m} base rules")
        sched = tuple(int_entries(w, f"schedule window {k}") for k, w in enumerate(self.schedule))
        object.__setattr__(self, "schedule", sched)
        prev_end = None
        prev_n = None
        for n_k, r_k, lam_k in sched:
            if n_k < 1 or r_k < 1 or lam_k < 1:
                raise InputError("schedule entries must be positive")
            if prev_n is not None and n_k <= prev_n:
                raise ScheduleOverlap("schedule starts must be strictly increasing")
            if prev_end is not None and n_k < prev_end:
                raise ScheduleOverlap(
                    f"window starting at {int_to_str(n_k)} overlaps the previous one ending at"
                    f" {int_to_str(prev_end - 1)}"
                )
            prev_n = n_k
            prev_end = n_k + lam_k * r_k


def build_quasiperiodic(spec: QuasiPeriodicSpec, depth: int) -> PartialQuotients:
    """Quotients for indices 0..depth-1: base values, with each scheduled
    window's initial block copied lambda_k - 1 more times (truncated at depth)."""
    if depth < 1:
        raise InputError("depth must be >= 1")
    values = [list(int_entries(map(rule, range(depth)), f"a^({j})"))
              for j, rule in enumerate(spec.base_rules, 1)]
    for n_k, r_k, lam_k in spec.schedule:
        # repetitions that start past the built depth copy nothing
        rep_cap = min(lam_k, max(0, (depth - 1 - n_k) // r_k + 1))
        for rep in range(1, rep_cap):
            for pos in range(n_k, n_k + r_k):
                dst = pos + rep * r_k
                if dst < depth and pos < depth:
                    for j in range(spec.m):
                        values[j][dst] = values[j][pos]
    pq = PartialQuotients(spec.m, tuple(tuple(v) for v in values))
    report = check_admissible(pq)
    if not report.ok:
        v = report.violations[0]
        raise AdmissibilityError(f"assembled sequence not admissible: {v.message}", v.index)
    return pq


def _log_ratio_string(lam: int, n_k: int) -> str:
    """log(lam)/n_k to 20 digits, in a fresh mpmath context at 30 digits."""
    from mpmath import MPContext

    ctx = MPContext()
    ctx.dps = 30
    return ctx.nstr(ctx.log(ctx.mpf(lam)) / n_k, 20, strip_zeros=False)


def _log_ratio_le(lam: int, n: int, lam2: int, n2: int) -> bool:
    """log(lam)/n <= log(lam2)/n2, that is lam^n2 <= lam2^n, decided exactly.

    With a = n2/g, b = n/g (g = gcd), equality means lam = t^b and lam2 = t^a
    for an integer t, tested by an integer root; otherwise a log(lam) - b log(lam2)
    is nonzero and its enclosure separates from 0, so no giant power is formed.
    """
    g = math.gcd(n, n2)
    a, b = n2 // g, n // g
    t = _iroot_floor(lam, b)
    if t**b == lam and (t == 1 or a * (t.bit_length() - 1) <= lam2.bit_length()) and t**a == lam2:
        return True

    def attempt(level):
        diff = iv_enclosure(64 << level, lambda iv: a * iv.log(lam) - b * iv.log(lam2))
        if diff.hi < 0:
            return True
        if diff.lo > 0:
            return False

    windows = f"n = {int_to_str(n)} and n = {int_to_str(n2)}"
    return certify(f"order of log(lambda)/n at windows {windows}", attempt)


def main1_check(spec: QuasiPeriodicSpec, d: int, c, depth: int) -> CriterionReport:
    """Hypotheses of the unbounded-quotient quasi-periodic criterion (m = 2):

    a_(i+1) < C_i^d exactly for 1 <= i <= depth-1, and r_k < c n_k for every
    scheduled window.  The ratio diagnostics log(lambda_k)/n_k are reported
    as fixed-precision strings with their monotone trend; no limit claim.
    """
    if spec.m != 2:
        raise InputError("this criterion is specific to m = 2")
    if d < 1:
        raise InputError("d must be >= 1")
    c = as_fraction(c)
    pq = build_quasiperiodic(spec, depth + 1)
    first = None
    for col in conv_stream(pq, depth - 1):
        if col.n and not lt_power(pq.seqs[0][col.n + 1], col.C, d):
            first = col.n + 1
            break
    h1 = CheckItem(
        "head-below-denominator-power",
        first,
        f"a_(i+1) < C_i^{int_to_str(d)} for 1 <= i <= {depth - 1}",
    )
    first_r = None
    for idx, (n_k, r_k, lam_k) in enumerate(spec.schedule):
        if not Fraction(r_k) < c * n_k:
            first_r = idx
            break
    h2 = CheckItem(
        "window-length-linear",
        first_r,
        f"r_k < {frac_to_str(c)} n_k for every scheduled window (index = schedule position)",
    )
    ratios = [_log_ratio_string(lam_k, n_k) for n_k, _, lam_k in spec.schedule]
    monotone = all(
        _log_ratio_le(lam, n, lam_next, n_next)
        for (n, _, lam), (n_next, _, lam_next) in zip(spec.schedule, spec.schedule[1:])
    )
    return CriterionReport(
        criterion="quasi-periodic-main1",
        depth=depth,
        hypotheses=(h1, h2),
        data={
            "log_lambda_over_n": ratios,
            "monotone_nondecreasing": "true" if monotone else "false",
            "d": int_to_str(d),
            "c": frac_to_str(c),
        },
    )


# ---------------------------------------------------------------------------
# The bounded-quotient threshold constant and its checker
# ---------------------------------------------------------------------------

_VARIANTS = ("statement", "lemma38", "proof18")


def _log_enclosure_of_interval(iv_rat: RationalInterval, prec: int) -> RationalInterval:
    def log_of(v: Fraction):
        return lambda iv: iv.log(iv.mpf(v.numerator) / v.denominator)

    return iv_enclosure(prec, log_of(iv_rat.lo)).hull(iv_enclosure(prec, log_of(iv_rat.hi)))


def main2_constant(M: int, variant: str = "statement", max_width=Fraction(1, 10**9)) -> RationalInterval:
    """Certified enclosure of the threshold B for quotient bound M.

    Three inequivalent conventions for B are in circulation for this
    criterion, so the choice is an explicit parameter rather than a silent
    pick: `statement` uses B = 2 log(eta)/log(psi) - 1 with psi the positive
    root of x^3 - x^2 - x - 1; `lemma38` keeps the factor 2 but takes psi
    from the universal denominator growth bound (root of x^3 - x^2 - 1);
    `proof18` uses factor 18 with that same psi.  eta is always the positive
    root of x^3 - M x^2 - M x - 1.  For variant=statement and M = 1 the two
    cubics coincide and B = 1 exactly (a width-zero interval).
    """
    if variant not in _VARIANTS:
        raise InputError(f"variant must be one of {_VARIANTS}")
    if M < 1:
        raise InputError("M must be >= 1")
    max_width = as_fraction(max_width)
    factor = 18 if variant == "proof18" else 2
    eta_f = eta_field(M)
    # the statement's psi is the tribonacci constant; the lemma's is x^3 - x^2 - 1
    psi_f = eta_field(1) if variant == "statement" else psi_field()
    if eta_f.min_poly == psi_f.min_poly:
        return RationalInterval.point(Fraction(factor - 1))

    def attempt(level):
        width = Fraction(1, 1 << (64 * (level + 1)))
        prec = 64 * (level + 1) + 33  # the bits of 1/width, plus 32
        log_eta = _log_enclosure_of_interval(eta_f.refine_root(width), prec)
        log_psi = _log_enclosure_of_interval(psi_f.refine_root(width), prec)
        b_iv = log_eta * factor / log_psi - 1
        return b_iv if b_iv.width <= max_width else None

    what = f"threshold B({int_to_str(M)}, {variant}) enclosure of width <= {frac_to_str(max_width)}"
    return certify(what, attempt)


def main2_check(
    spec: QuasiPeriodicSpec,
    M: int,
    r_bound: int,
    variant: str = "statement",
    depth: int = 64,
) -> CriterionReport:
    """Hypotheses of the bounded-quotient quasi-periodic criterion (m = 2):
    all quotients <= M, all window lengths r_k <= r_bound; reports the
    running maximum of lambda_k/n_k against the certified threshold B."""
    if spec.m != 2:
        raise InputError("this criterion is specific to m = 2")
    pq = build_quasiperiodic(spec, depth + 1)
    first = None
    for n in range(depth + 1):
        if pq.seqs[0][n] > M or pq.seqs[1][n] > M:
            first = n
            break
    h1 = CheckItem("quotients-bounded", first,
                   f"a_k, b_k <= {int_to_str(M)} for 0 <= k <= {depth}")
    first_r = None
    for idx, (_, r_k, _) in enumerate(spec.schedule):
        if r_k > r_bound:
            first_r = idx
            break
    h2 = CheckItem(
        "window-length-bounded",
        first_r,
        f"r_k <= {int_to_str(r_bound)} (index = schedule position)",
    )

    b_iv = main2_constant(M, variant)
    ratios = [Fraction(lam_k, n_k) for n_k, _, lam_k in spec.schedule]
    running_max = Fraction(0)
    exceed_at = None
    for idx, ratio in enumerate(ratios):
        running_max = max(running_max, ratio)
        if exceed_at is None:
            verdict = _ratio_exceeds(ratio, M, variant, b_iv)
            if verdict:
                exceed_at = idx
    return CriterionReport(
        criterion="quasi-periodic-main2",
        depth=depth,
        hypotheses=(h1, h2),
        data={
            "variant": variant,
            "B_lo": frac_to_str(b_iv.lo),
            "B_hi": frac_to_str(b_iv.hi),
            "ratios": [frac_to_str(r) for r in ratios],
            "max_ratio": frac_to_str(running_max),
            "proxy_exceeds_B": "true" if exceed_at is not None else "false",
            "first_exceed_index": str(exceed_at) if exceed_at is not None else "none",
        },
    )


def _ratio_exceeds(ratio: Fraction, M: int, variant: str, b_iv: RationalInterval) -> bool:
    """Certified strict comparison ratio > B, refining B's enclosure as needed."""
    if b_iv.is_point:
        return ratio > b_iv.lo

    def attempt(level):
        b = b_iv if not level else main2_constant(M, variant, b_iv.width / (1 << (32 * level)))
        if ratio > b.hi:
            return True
        if ratio <= b.lo:
            return False

    what = f"comparison of the ratio {frac_to_str(ratio)} with B({int_to_str(M)}, {variant})"
    return certify(what, attempt)
