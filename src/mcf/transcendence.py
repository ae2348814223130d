"""Finite-depth checkers for the transcendence criteria beyond Liouville's
(mcf.liouville): the Roth-excess scanner, and quasi-periodic sequences.

Quasi-periodic sequences have scheduled windows (n_k, r_k, lambda_k) in which
a block of r_k quotients repeats lambda_k times; checkers validate the
boundedness/growth hypotheses and compare the finite ratio proxies against
the certified threshold constant.

Verdicts are always about hypothesis satisfaction at finite depth; no
checker ever claims transcendence (a statement about limits).
"""

from __future__ import annotations

from fractions import Fraction

from .convergents import approx_scan, eta_field, psi_field, root_enclosure
from .errors import AdmissibilityError, InputError, ScheduleOverlap
from .intervals import RationalInterval, as_fraction, certify
from .liouville import CriterionReport, Rule
from .liouville import construct_liouville, verify_liouville  # noqa: F401  (perfbench/tracer.py's targets)
from .radix import Record, frac_to_str, int_to_str
from .recurrence import CheckItem, PartialQuotients, check_admissible, conv_stream, int_entries


def roth_scan(x, pq: PartialQuotients, epsilon, upto: int, coords=None) -> list[int]:
    """Indices n <= upto with |x_i - A_n^(i)/C_n| < 1/C_n^(2+epsilon) for
    every requested coordinate, certified.

    epsilon = p/q must be a positive rational; each test is one log_sign query
    on q log|x_i - A_n^(i)/C_n| + (2q + p) log C_n (convergents.approx_scan), so
    no power of C_n is formed.  epsilon = 0 is the critical exponent and is rejected.
    """
    epsilon = as_fraction(epsilon)
    if epsilon == 0:
        raise InputError(
            "epsilon = 0 makes the exponent the critical value 2, where every "
            "irrational has infinitely many solutions; the scan requires epsilon > 0"
        )
    if epsilon < 0:
        raise InputError("epsilon must be positive")
    p, q = epsilon.numerator, epsilon.denominator

    def bound(i, col, nxt, ac1):
        n, C = col.n, col.C
        # 1/C^(2q+p) is negative for a negative C and odd p: no gap falls below it
        if C < 0 and p % 2:
            return None
        return (q, ((2 * q + p, abs(C)),),
                lambda: f"Roth test |x_{i + 1} - A_{n}/C_{n}|^{int_to_str(q)} < 1/C_{n}^{int_to_str(2 * q + p)}")

    return approx_scan(x, pq, upto, coords, bound)


# ---------------------------------------------------------------------------
# Quasi-periodic constructions
# ---------------------------------------------------------------------------


class QuasiPeriodicSpec(Record):
    """Schedule of repetition windows over base sequences.

    schedule entries are (n_k, r_k, lambda_k), all positive, n_k strictly
    increasing, windows disjoint: n_{k+1} >= n_k + lambda_k * r_k.
    """

    __slots__ = ("m", "schedule", "base_rules")

    def __init__(self, m: int, schedule: tuple[tuple[int, int, int], ...], base_rules: tuple[Rule, ...]):
        if m < 1:
            raise InputError("dimension m must be >= 1")
        if len(base_rules) != m:
            raise InputError(f"need {m} base rules")
        sched = tuple(int_entries(w, f"schedule window {k}", 3) for k, w in enumerate(schedule))
        self._init(m, sched, base_rules)
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
    (depth,) = int_entries([depth], "depth")
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
    """log(lam)/n_k correctly rounded to 20 significant digits (logs.significant_string);
    for lam >= 2 it is irrational, so no tie can keep a level from deciding."""
    from .logs import log_enclosure, significant_string  # here: only a log executes mcf.logs

    def attempt(level):
        return significant_string(log_enclosure(lam, 96 << level) / n_k, 20)

    return certify(f"20 digits of log(lambda)/n at window n = {int_to_str(n_k)}", attempt)


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
    (depth,) = int_entries([depth], "depth")
    if depth < 0:  # indices 0..depth, build_quasiperiodic's depth + 1
        raise InputError(f"depth must be >= 0, got {int_to_str(depth)}")
    from .logs import log_sign, power_sign

    c = as_fraction(c)
    pq = build_quasiperiodic(spec, depth + 1)
    first = None
    for col in conv_stream(pq, depth - 1, (2,)):
        n = col.n
        if n and power_sign(pq.seqs[0][n + 1], 1, col.C, d, 1,
                            lambda: f"a_{n + 1} < C_{n}^{int_to_str(d)}") >= 0:
            first = n + 1
            break
    h1 = CheckItem(
        "head-below-denominator-power",
        first,
        f"a_(i+1) < C_i^{int_to_str(d)} " + (f"for 1 <= i <= {depth - 1}" if depth >= 2
                                             else f"unchecked: no index i with 1 <= i <= {depth - 1}"),
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
    # log(lam)/n <= log(lam')/n', that is n' log lam - n log lam' <= 0
    monotone = all(
        log_sign(((n_next, lam), (-n, lam_next)),
                 f"order of log(lambda)/n at windows n = {int_to_str(n)} and n = {int_to_str(n_next)}") <= 0
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


def _threshold_bases(M: int, variant: str):
    """(factor, eta's field, psi's field) of B = factor log(eta)/log(psi) - 1."""
    if variant not in _VARIANTS:
        raise InputError(f"variant must be one of {_VARIANTS}")
    if M < 1:
        raise InputError("M must be >= 1")
    # the statement's psi is the tribonacci constant; the lemma's is x^3 - x^2 - 1
    psi_f = eta_field(1) if variant == "statement" else psi_field()
    return 18 if variant == "proof18" else 2, eta_field(M), psi_f


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
    max_width = as_fraction(max_width)
    factor, eta_f, psi_f = _threshold_bases(M, variant)
    if eta_f.min_poly == psi_f.min_poly:
        return RationalInterval.point(Fraction(factor - 1))

    from .logs import log_enclosure

    def attempt(level):
        width = Fraction(1, 1 << (64 * (level + 1)))
        prec = 64 * (level + 1) + 33  # the bits of 1/width, plus 32
        log_eta = log_enclosure(eta_f.refine_root(width), prec)
        log_psi = log_enclosure(psi_f.refine_root(width), prec)
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
    (depth,) = int_entries([depth], "depth")
    if depth < 0:  # indices 0..depth, build_quasiperiodic's depth + 1
        raise InputError(f"depth must be >= 0, got {int_to_str(depth)}")
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
    from .logs import log_sign

    factor, eta_f, psi_f = _threshold_bases(M, variant)
    eta, psi = root_enclosure(eta_f), root_enclosure(psi_f)

    def exceeds(ratio: Fraction) -> bool:  # (lam + n) log psi - factor n log eta > 0 for ratio = lam/n
        if b_iv.is_point:
            return ratio > b_iv.lo
        lam, n = ratio.numerator, ratio.denominator
        what = f"comparison of the ratio {frac_to_str(ratio)} with B({int_to_str(M)}, {variant})"
        return log_sign(((lam + n, psi), (-factor * n, eta)), what) > 0

    ratios = [Fraction(lam_k, n_k) for n_k, _, lam_k in spec.schedule]
    running_max = Fraction(0)
    exceed_at = None
    for idx, ratio in enumerate(ratios):
        running_max = max(running_max, ratio)
        if exceed_at is None and exceeds(ratio):
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
