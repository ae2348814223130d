"""Shared generators for the property tests (seeded random admissible data) and test fixtures."""

from __future__ import annotations

import contextlib
import random
import sys
from fractions import Fraction

from mcf.engine import expand
from mcf.exact_reals import RationalValue
from mcf.periodic import PeriodicSpec, unroll
from mcf.recurrence import PartialQuotients, check_admissible


def random_admissible_m2(rng: random.Random, length: int, max_q: int = 5,
                         head=(None, None)) -> PartialQuotients:
    """Random admissible m=2 sequences: a_n >= 1, 0 <= b_n <= a_n, and
    b_{n+1} >= 1 forced whenever a_n = b_n.  Index 0 defaults to small
    nonnegative values unless pinned by `head`."""
    a = [head[0] if head[0] is not None else rng.randint(0, max_q)]
    b = [head[1] if head[1] is not None else rng.randint(0, max_q)]
    force_next_b = False
    for _ in range(1, length):
        a_n = rng.randint(1, max_q)
        lo_b = 1 if force_next_b else 0
        if lo_b > a_n:
            a_n = lo_b
        b_n = rng.randint(lo_b, a_n)
        a.append(a_n)
        b.append(b_n)
        force_next_b = a_n == b_n
    if force_next_b:
        # can't leave a dangling tie at the end of a finite prefix we unroll further
        pass
    return PartialQuotients.from_lists(a, b)


def random_admissible(rng: random.Random, m: int, length: int, max_q: int = 5) -> PartialQuotients:
    """Random admissible sequences for any m.

    For m = 2 ties are allowed (with the forced follow-up); for m != 2 the
    trailing coordinates are kept strictly below the head, which breaks
    every lexicographic chain at its first comparison.
    """
    if m == 2:
        return random_admissible_m2(rng, length, max_q)
    seqs = [[rng.randint(0, max_q)] for _ in range(m)]
    for _ in range(1, length):
        head = rng.randint(1, max_q)
        seqs[0].append(head)
        for j in range(1, m):
            seqs[j].append(rng.randint(0, head - 1) if head > 1 else 0)
    return PartialQuotients.from_lists(*seqs)


def random_periodic_spec(rng: random.Random, k_max: int = 3, h_max: int = 4,
                         max_q: int = 4, zero_head: bool = False) -> PeriodicSpec:
    """Random admissible periodic spec (rejection sampling over the wrap checks)."""
    for _ in range(10_000):
        k = rng.randint(1 if zero_head else 0, k_max)
        h = rng.randint(1, h_max)
        pre_a, pre_b, per_a, per_b = [], [], [], []
        for i in range(k):
            if i == 0 and zero_head:
                pre_a.append(0)
                pre_b.append(0)
            elif i == 0:
                pre_a.append(rng.randint(0, max_q))
                pre_b.append(rng.randint(0, max_q))
            else:
                pre_a.append(rng.randint(1, max_q))
                pre_b.append(rng.randint(0, max_q))
        for i in range(h):
            if k == 0 and i == 0:
                # index 0 of a purely periodic spec re-occurs at n = h >= 1
                per_a.append(rng.randint(1, max_q))
            else:
                per_a.append(rng.randint(1, max_q))
            per_b.append(rng.randint(0, max_q))
        spec = PeriodicSpec(tuple(pre_a), tuple(pre_b), tuple(per_a), tuple(per_b))
        probe = unroll(spec, spec.k + 2 * spec.h + 2)
        if check_admissible(probe).ok:
            return spec
    raise AssertionError("rejection sampling failed to find an admissible spec")


def long_periodic_spec(rng: random.Random, k_min: int, k_max: int, h_max: int = 3,
                       max_q: int = 3) -> PeriodicSpec:
    """Random admissible spec with a pre-period of k_min..k_max entries, drawn admissible by
    random_admissible_m2; only the period block is rejection-sampled (junction and wrap)."""
    pre = random_admissible_m2(rng, rng.randint(k_min, k_max), max_q)
    for _ in range(10_000):
        per = random_admissible_m2(rng, rng.randint(1, h_max) + 1, max_q).seqs
        spec = PeriodicSpec(*pre.seqs, per[0][1:], per[1][1:])
        if check_admissible(unroll(spec, spec.k + 2 * spec.h + 2)).ok:
            return spec
    raise AssertionError("rejection sampling failed to find an admissible period")


def first_step(values):
    """expand's first step on an exact pair, in the shape of references.reference_step:
    ((a, b, alpha', beta'), interruptions) from expand(values, 2, keep_trace=True).

    (a, b) are the quotients at index 0.  Each complete quotient at index 1 is read off
    trace[1] or, when it was integral and its coordinate dropped, off the quotient that
    expand emitted for it at index 1.  An integral beta at index 0 has no first step.
    """
    rec = expand(values, 2, keep_trace=True)
    assert not any(e.index == 0 for e in rec.interruptions), "beta is integral"
    live = rec.trace[1] if len(rec.trace) > 1 else ()
    after = [v.value if isinstance(v, RationalValue) else v.element for v in live]
    after += [Fraction(s[1]) for s in rec.pq.seqs[len(live):]]
    return (rec.pq.seqs[0][0], rec.pq.seqs[1][0], *after), rec.interruptions


def pq_prefix_equal(x: PartialQuotients, y: PartialQuotients, upto: int) -> bool:
    return all(
        x.seqs[j][: upto + 1] == y.seqs[j][: upto + 1] for j in range(min(x.m, y.m))
    )


def random_pq_with_power_hypothesis(rng: random.Random, d: int, length: int,
                                    cap: int = 6) -> PartialQuotients:
    """Random admissible m=2 sequences with a_(n+1) < C_n^d for all n >= 1."""
    from mcf.recurrence import ConvergentState

    a, b = [0, 2], [0, 0]
    state = ConvergentState.initial(2)
    state.step((a[0], b[0]))
    col = state.step((a[1], b[1]))
    force_b = a[1] == b[1]
    for _ in range(2, length):
        hi = min(cap, col.C**d - 1)
        a_n = rng.randint(1, max(1, hi))
        lo_b = 1 if force_b else 0
        b_n = rng.randint(lo_b, a_n) if a_n >= lo_b else lo_b
        a.append(a_n)
        b.append(b_n)
        force_b = a_n == b_n
        col = state.step((a_n, b_n))
    return PartialQuotients.from_lists(a, b)


@contextlib.contextmanager
def int_digit_cap(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
