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


def poly_eval(p, x):
    """p(x) by Horner's rule in the arithmetic of x: a rational, or a field element."""
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


def primitive_part(p) -> tuple[int, ...]:
    """Primitive integer polynomial with positive leading coefficient."""
    p = normalize(p)
    if not p:
        return ()
    den_lcm = lcm(*(c.denominator for c in p))
    ints = [int(c * den_lcm) for c in p]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def height(p) -> int:
    """Naive height: max |coefficient| of the primitive part."""
    prim = primitive_part(p)
    return max(abs(c) for c in prim) if prim else 0


def sturm_chain(p) -> list[Poly]:
    """p, p' and the negated remainders of Euclid on them.  The last member is a constant
    multiple of gcd(p, p'), constant exactly when p is squarefree; off the roots of p,
    dividing by it keeps the sign variations, so a repeated root is counted once."""
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


def count_roots(chain, lo, hi) -> int:
    """Number of distinct real roots of chain[0] in (lo, hi], lo and hi no roots of it (Sturm)."""
    lo, hi = as_fraction(lo), as_fraction(hi)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def root_bound(p) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    p = normalize(p)
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_real_roots(p) -> list[RationalInterval]:
    """Disjoint isolating intervals, one distinct real root each, in increasing order.

    No endpoint is a root and each interval holds exactly one root.  For a
    squarefree p that root is simple, so the endpoint signs are nonzero and
    opposite and `refine_root` refines it.
    """
    p = normalize(p)
    if degree(p) < 1:
        return []
    chain = sturm_chain(p)
    bound = root_bound(p) + 1

    def nudge(x: Fraction, step: Fraction) -> Fraction:
        while poly_eval(p, x) == 0:
            x += step
        return x

    isolated: list[RationalInterval] = []
    stack = [(nudge(-bound, Fraction(-1, 7)), nudge(bound, Fraction(1, 7)))]
    while stack:
        lo, hi = stack.pop()
        n = count_roots(chain, lo, hi)
        if n == 0:
            continue
        if n == 1:
            isolated.append(RationalInterval(lo, hi))
            continue
        mid = nudge((lo + hi) / 2, (hi - lo) / 16)
        stack.append((lo, mid))
        stack.append((mid, hi))
    isolated.sort(key=lambda iv: iv.lo)
    return isolated


def _homogeneous(ints, x: int, q: int) -> int:
    """q^d p(x / q) for an integer polynomial p of degree d."""
    acc, qk = ints[-1], 1
    for c in reversed(ints[:-1]):
        qk *= q
        acc = acc * x + c * qk
    return acc


def _newton(ints, x: int, q: int) -> int:
    """One integer Newton step on p / p' from x / q, in units of 1 / q: a proposal, for signs to
    check.  p / p' has only simple roots, so a cluster of roots costs no linear phase."""
    d1 = [k * c for k, c in enumerate(ints)][1:]
    d2 = [k * c for k, c in enumerate(d1)][1:]
    v, v1, v2 = (_homogeneous(f, x, q) if f else 0 for f in (ints, d1, d2))  # q^(d-i) p^(i)(x / q)
    return x - v * v1 // den if (den := v1 * v1 - v * v2) else x


def refine_root(p, iv: RationalInterval, max_width: Fraction) -> RationalInterval:
    """The bracket bisection of iv ends in, computed directly: the cell of iv's halving grid
    that holds the root at the least depth k whose cells are at most max_width wide, or the
    point bracket when the root is a grid point of depth <= k.

    iv must hold one root of p, with nonzero opposite signs at its ends.  From the midpoint
    of the cell known to hold the root, an integer Newton step on p / p' proposes its
    sub-cell g levels deeper.  The exact signs of q^d p(x / q) at the ends of that cell, or
    of the neighbour they point to, accept it and double g (so the depth about doubles);
    a rejection halves g and costs one bisection step.  Newton only proposes.
    """
    ints = primitive_part(p)

    def sign(x: int, j: int) -> int:
        v = _homogeneous(ints, x, q << j)
        return (v > 0) - (v < 0)

    def proposal(j: int, i: int, j2: int) -> int | None:
        """The index of the depth-j2 cell inside cell i of depth j that holds the root, if found."""
        t = (_newton(ints, ((lo << j) + i * w << j2 - j) + (w << j2 - j - 1), q << j2) - (lo << j2)) // w
        for _ in range(2):  # the proposed cell, then the neighbour its signs point to
            a = (lo << j2) + t * w
            s0, s1 = (sign(a, j2), sign(a + w, j2)) if t >> j2 - j == i else (0, 0)
            if (s0, s1) == (slo, shi):
                return t
            t += 1 if s0 == slo else -1
        return None

    q = lcm(iv.lo.denominator, iv.hi.denominator)
    lo, w = int(iv.lo * q), int(iv.width * q)
    slo, shi = sign(lo, 0), sign(lo + w, 0)
    wn, wd = as_fraction(max_width).as_integer_ratio()
    if slo == 0 or shi == 0 or slo == shi or wn <= 0:
        raise ValueError("refine_root requires a strict sign-change bracket and a positive width")
    k = (-(-w * wd // (wn * q)) - 1).bit_length()  # the least k with w / (q 2^k) <= wn / wd
    j = i = 0  # the root is strictly inside cell i of depth j: [lo 2^j + i w, + w] / (q 2^j)
    g = 4  # the depth a proposal aims to gain
    while j < k:
        if (t := proposal(j, i, j2 := min(k, j + g))) is not None:
            j, i, g = j2, t, 2 * g
            continue
        g = max(2, g // 2)
        mid = ((lo << j) + i * w << 1) + w
        s = sign(mid, j + 1)
        if s == 0:
            return RationalInterval.point(Fraction(mid, q << j + 1))
        j, i = j + 1, 2 * i + (s == slo)
    return RationalInterval(Fraction((lo << k) + i * w, q << k), Fraction((lo << k) + (i + 1) * w, q << k))
