"""Dense univariate polynomial helpers over exact rationals and integers.

Coefficient lists are constant term first throughout the package (the same
convention the JSON interfaces use), so ``p[k]`` is the coefficient of x^k.
Everything here is desk-scale (degrees <= 8 in practice): plain algorithms,
exact arithmetic, no floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .intervals import RationalInterval, as_fraction

Poly = tuple[Fraction, ...]


def normalize(p) -> Poly:
    """Coerce coefficients to Fractions and strip trailing (leading-power) zeros."""
    coeffs = [as_fraction(c) for c in p]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(p) -> int:
    """Degree with the convention deg(0) = -1."""
    return len(normalize(p)) - 1


def poly_eval(p, x) -> Fraction:
    x = as_fraction(x)
    acc = Fraction(0)
    for c in reversed(normalize(p)):
        acc = acc * x + c
    return acc


def poly_eval_interval(p, ix: RationalInterval) -> RationalInterval:
    """Inclusion-monotone interval extension (Horner with interval operations)."""
    acc = RationalInterval.point(0)
    for c in reversed(normalize(p)):
        acc = acc * ix + as_fraction(c)
    return acc


def derivative(p) -> Poly:
    p = normalize(p)
    return tuple(as_fraction(k * c) for k, c in enumerate(p) if k >= 1)


def poly_add(p, q) -> Poly:
    p, q = normalize(p), normalize(q)
    n = max(len(p), len(q))
    return normalize(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def poly_neg(p) -> Poly:
    return tuple(-c for c in normalize(p))


def poly_sub(p, q) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p, q) -> Poly:
    p, q = normalize(p), normalize(q)
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def poly_scale(p, s) -> Poly:
    s = as_fraction(s)
    return normalize([c * s for c in normalize(p)])


def poly_divmod(p, q) -> tuple[Poly, Poly]:
    p, q = list(normalize(p)), normalize(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    out = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q):
        factor = p[-1] / lead
        shift = len(p) - len(q)
        out[shift] = factor
        for i, c in enumerate(q):
            p[shift + i] -= factor * c
        while p and p[-1] == 0:
            p.pop()
    return normalize(out), normalize(p)


def poly_gcd(p, q) -> Poly:
    """Monic gcd over the rationals."""
    a, b = normalize(p), normalize(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, Fraction(1) / a[-1])


def poly_xgcd(p, q) -> tuple[Poly, Poly, Poly]:
    """Extended gcd: returns (g, s, t) monic with s*p + t*q = g."""
    a, b = normalize(p), normalize(q)
    s0, s1 = normalize([1]), ()
    t0, t1 = (), normalize([1])
    while b:
        quot, rem = poly_divmod(a, b)
        a, b = b, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quot, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(quot, t1))
    if not a:
        return (), s0, t0
    inv_lead = Fraction(1) / a[-1]
    return poly_scale(a, inv_lead), poly_scale(s0, inv_lead), poly_scale(t0, inv_lead)


def is_squarefree(p) -> bool:
    p = normalize(p)
    if degree(p) <= 0:
        return True
    return degree(poly_gcd(p, derivative(p))) <= 0


def content(p) -> int:
    """GCD of integer coefficients (0 for the zero polynomial)."""
    g = 0
    for c in p:
        if c != int(c):
            raise ValueError("content is defined for integer polynomials")
        g = gcd(g, abs(int(c)))
    return g


def primitive_part(p) -> tuple[int, ...]:
    """Primitive integer polynomial with positive leading coefficient."""
    p = normalize(p)
    if not p:
        return ()
    den_lcm = 1
    for c in p:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in p]
    g = content(ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def height(p) -> int:
    """Naive height: max |coefficient| of the primitive part."""
    prim = primitive_part(p)
    return max(abs(c) for c in prim) if prim else 0


def sturm_chain(p) -> list[Poly]:
    chain = [normalize(p), derivative(p)]
    while chain[-1] and degree(chain[-1]) >= 1:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(poly_neg(rem))
    if not chain[-1]:
        chain.pop()
    return chain


def sign_variations(chain, x) -> int:
    signs = []
    for q in chain:
        v = poly_eval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p, lo, hi, chain=None) -> int:
    """Number of distinct real roots in (lo, hi] (Sturm)."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if chain is None:
        chain = sturm_chain(p)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def root_bound(p) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    p = normalize(p)
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_real_roots(p) -> list[RationalInterval]:
    """Disjoint isolating intervals, one simple real root each, in increasing order.

    Works on the squarefree part; each returned interval has nonzero opposite
    polynomial signs at its endpoints, so plain bisection refines it.
    """
    p = normalize(p)
    if degree(p) < 1:
        return []
    sqfree = poly_divmod(p, poly_gcd(p, derivative(p)))[0] if not is_squarefree(p) else p
    chain = sturm_chain(sqfree)
    bound = root_bound(sqfree) + 1

    def endpoint_ok(x: Fraction) -> bool:
        return poly_eval(sqfree, x) != 0

    def nudge(x: Fraction, step: Fraction) -> Fraction:
        while not endpoint_ok(x):
            x += step
        return x

    isolated: list[RationalInterval] = []
    stack = [(nudge(-bound, Fraction(-1, 7)), nudge(bound, Fraction(1, 7)))]
    while stack:
        lo, hi = stack.pop()
        n = count_roots(sqfree, lo, hi, chain)
        if n == 0:
            continue
        if n == 1:
            llo, lhi = lo, hi
            # shrink until the endpoints certify a sign change
            while poly_eval(sqfree, llo) * poly_eval(sqfree, lhi) > 0:
                mid = nudge((llo + lhi) / 2, (lhi - llo) / 16)
                if count_roots(sqfree, llo, mid, chain) == 1:
                    lhi = mid
                else:
                    llo = mid
            isolated.append(RationalInterval(llo, lhi))
            continue
        mid = nudge((lo + hi) / 2, (hi - lo) / 16)
        stack.append((lo, mid))
        stack.append((mid, hi))
    isolated.sort(key=lambda iv: iv.lo)
    return isolated


def refine_root(p, iv: RationalInterval, max_width: Fraction) -> RationalInterval:
    """Bisect a sign-change bracket until its width is at most max_width.

    The bracket is integer numerators over a common denominator q (doubled
    when needed) and signs come from q^d p(x / q): the brackets of plain
    rational bisection, without a gcd per step.
    """
    ints = primitive_part(p)

    def sign(x: int, q: int) -> int:
        acc, qk = ints[-1], 1
        for c in reversed(ints[:-1]):
            qk *= q
            acc = acc * x + c * qk
        return (acc > 0) - (acc < 0)

    q = lcm(iv.lo.denominator, iv.hi.denominator)
    lo, hi = int(iv.lo * q), int(iv.hi * q)
    slo, shi = sign(lo, q), sign(hi, q)
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("refine_root requires a strict sign-change bracket")
    max_width = as_fraction(max_width)
    wn, wd = max_width.numerator, max_width.denominator
    while (hi - lo) * wd > wn * q:
        if (hi - lo) & 1:
            lo, hi, q = lo << 1, hi << 1, q << 1
        mid = (lo + hi) >> 1
        smid = sign(mid, q)
        if smid == 0:
            # exact rational root: return the degenerate point bracket
            return RationalInterval.point(Fraction(mid, q))
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return RationalInterval(Fraction(lo, q), Fraction(hi, q))


def simplest_in_interval(lo, hi) -> Fraction:
    """The fraction of smallest denominator in the closed interval [lo, hi]."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in_interval(-hi, -lo)
    from math import ceil as _ceil, floor as _floor

    n = _ceil(lo)
    if n <= hi:
        return Fraction(n)
    a = _floor(lo)
    inner = simplest_in_interval(1 / (hi - a), 1 / (lo - a))
    return a + 1 / inner


def rational_roots(p) -> list[Fraction]:
    """All rational roots of an integer polynomial.

    By the rational root theorem a root p/q has q dividing the leading
    coefficient, so distinct candidates are at least 1/lead^2 apart: each
    isolating interval is refined below that and the unique minimal-
    denominator candidate inside is tested exactly.  No divisor enumeration,
    so this stays fast for certificate-sized coefficients.
    """
    prim = list(primitive_part(p))
    if len(prim) <= 1:
        return []
    roots: list[Fraction] = []
    if prim[0] == 0:
        roots.append(Fraction(0))
        while prim and prim[0] == 0:
            prim.pop(0)
    if len(prim) <= 1:
        return sorted(roots)
    sqf = normalize(prim)
    if not is_squarefree(sqf):
        sqf = poly_divmod(sqf, poly_gcd(sqf, derivative(sqf)))[0]
    sqf = primitive_part(sqf)
    lead = abs(sqf[-1])
    gap = Fraction(1, lead * lead + 1)
    for iv in isolate_real_roots(sqf):
        tight = refine_root(sqf, iv, gap)
        if tight.is_point:
            roots.append(tight.lo)
            continue
        cand = simplest_in_interval(tight.lo, tight.hi)
        if poly_eval(sqf, cand) == 0:
            roots.append(cand)
    return sorted(roots)
