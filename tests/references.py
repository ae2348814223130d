"""Independent second routes, kept as test references.

The expansion engine's per-step route: complete quotients are carried as
exact `Fraction`s or `FieldElement`s and stepped with one field inverse per
index,

    x1' = 1 / (xm - am),    xi' = (x_{i-1} - a_{i-1}) / (xm - am),

with floors from `FieldElement.floor` and integrality decided on the
representation.  `mcf.engine` never builds a complete quotient; the property
tests compare it against this loop.

The X matrix of a periodic spec by exact rational inversion of V, against
`mcf.periodic.x_matrix`, which assembles V^{-1} from the rolling lag
products; and the cubic coefficients by polynomial elimination, against the
closed form of `mcf.periodic.cubic_coeffs`.

The convergent columns as columns of the product of the step matrices,
against the recurrence of `mcf.recurrence.conv_stream`; the table of every
column from index -(m+1) on (`column_table`), and the lag products of any two
columns by definition (`lag_product`), against the rolling `LagProducts`.

The Liouville inequality a > t C^delta decided over the reals by signs and
magnitudes (`exceeds_rational_power`), and its first failure along a table of
every column (`liouville_first_violation`), against
`mcf.liouville.liouville_report`, which clears delta's denominator.

The growth check from a table of every column, one pass per item
(`growth_check_by_table`), against the single walk of
`mcf.convergents.growth_check`, whose comparisons are `mcf.logs.log_sign`
queries.  The table decides them on its own: psi^e and eta(M)^e by an
outward-rounded `Fraction` interval chain (`FractionPowers`) tightened until it
leaves C_n, the d hypothesis by the exact integer a < c**d, and log log C_(n+1)
against K(d, m) n by mpmath intervals (at n = 1 by the integers c^d and
(m+1)^((d+1)^2)).

The certified floor and integrality test of one real value of any kind, the
single-value forms of what the engine certifies per index.

The proportionality test of two integer rows entry by entry, against
`mcf.engine._proportional`, which skips the entry it divides by.

The stdout of `mcf convergents` from int columns and lag products by
definition, each printed with `str()`, against the CLI's exact-decimal table.

The fraction of smallest denominator in a closed interval
(`simplest_in_interval`), against the rational-root lattice test of
`mcf.exact_reals.NumberField`; the exact rational value of a field element
(`as_fraction`) and the zero of a field (`zero`).

An interval oracle from any callable (`FunctionOracle`), for inputs the
engine never builds itself; a sequence rule continued by a constant
(`seq_rule`); an independent re-scan of the repetition law of a built
quasi-periodic sequence (`verify_quasiperiodic`); and a check that two
periodic specs with the same period blocks generate the same cubic field
(`same_field_check`).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext

from mcf import polynomials as pol
from mcf.cli import AUX_M2
from mcf.convergents import CheckReport, eta_field, k_interval, psi_field
from mcf.errors import DegenerateCubic, HypothesisViolated, InputError, MCFError, NonTerminating
from mcf.exact_reals import AlgebraicValue, IntervalOracle, NumberField, RationalValue, as_real, query_levels
from mcf.intervals import RationalInterval, certify
from mcf.liouville import CriterionReport, seq_rule as mcf_seq_rule
from mcf.periodic import PeriodicSpec, XMatrix, solve_periodic, unroll, validate_spec
from mcf.radix import int_to_str
from mcf.recurrence import CheckItem, Column, ConvergentState, PartialQuotients, conv_stream


def _lower(values):
    algebraic = [v.element for v in values if isinstance(v, AlgebraicValue)]
    if not algebraic:
        return [v.value for v in values]
    fld = algebraic[0].field
    return [v.element if isinstance(v, AlgebraicValue) else fld.element([v.value]) for v in values]


def _integer(v) -> int | None:
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else None
    if v.is_rational() and as_fraction(v).denominator == 1:
        return int(as_fraction(v))
    return None


def _floor(v) -> int:
    return math.floor(v) if isinstance(v, Fraction) else v.floor()


def _inverse(v):
    return 1 / v if isinstance(v, Fraction) else v.inverse()


def reference_expand(inputs, steps: int):
    """(seqs, [(index, dimension_after, value)], terminated) of the per-step loop."""
    values = [as_real(x) for x in inputs]
    assert all(isinstance(v, (RationalValue, AlgebraicValue)) for v in values)
    state = _lower(values)
    m = len(state)
    seqs: list[list[int]] = [[] for _ in range(m)]
    events = []
    dim, n, terminated = m, 0, False
    while n < steps and dim >= 1:
        while dim >= 1 and (value := _integer(state[dim - 1])) is not None:
            seqs[dim - 1].append(value)
            if dim == 1:
                terminated = True
            else:
                events.append((n, dim - 1, value))
            dim -= 1
            state = state[:dim]
        if dim == 0:
            terminated = True
            break
        floors = [_floor(v) for v in state]
        for j, a in enumerate(floors):
            seqs[j].append(a)
        inv = _inverse(state[dim - 1] - floors[dim - 1])
        state = [inv] + [(state[j - 1] - floors[j - 1]) * inv for j in range(1, dim)]
        n += 1
    return tuple(tuple(s) for s in seqs), events, terminated


def reference_step(alpha, beta):
    """One step of the reference loop on a pair: (a, b, alpha', beta') as exact numbers."""
    va, vb = _lower([as_real(alpha), as_real(beta)])
    a, b = _floor(va), _floor(vb)
    inv = _inverse(vb - b)
    return a, b, inv, (va - a) * inv


def column_table(pq: PartialQuotients, upto: int | None = None):
    """Columns for indices -(m+1)..upto as (list, offset): list[n + offset] has index n.

    The negative-index columns are the identity; like conv_stream, the table
    stops at the end of the rectangular range.
    """
    m, init = pq.m, ConvergentState.initial(pq.m).window  # init[k] has index -1 - k
    cols = [Column(-1 - k, init[k][:m], init[k][m]) for k in range(m, -1, -1)]
    cols.extend(conv_stream(pq, upto))
    return cols, pq.m + 1


def lag_product(u: Column, v: Column, i: int, j: int) -> int:
    """u_i v_j - v_i u_j over the coordinates (A^(1), ..., A^(m), C) of two columns.

    Coordinate m is the denominator.  The columns may sit at any two
    indices, the initial negative-index columns included; with v one index
    before u and j = m this is the tilde value of coordinate i at u's index.
    """
    x, y = u.A + (u.C,), v.A + (v.C,)
    return x[i] * y[j] - y[i] * x[j]


def x_matrix_by_inverse(spec: PeriodicSpec) -> XMatrix:
    """Independent construction: W times the exact rational inverse of V."""
    validate_spec(spec)
    k, h = spec.k, spec.h
    pq = unroll(spec, k + h)
    cols, off = column_table(pq, k + h - 1)

    def col_matrix(n: int):
        c0, c1, c2 = (cols[n - j + off] for j in range(3))
        return [
            [Fraction(c0.A[0]), Fraction(c1.A[0]), Fraction(c2.A[0])],
            [Fraction(c0.A[1]), Fraction(c1.A[1]), Fraction(c2.A[1])],
            [Fraction(c0.C), Fraction(c1.C), Fraction(c2.C)],
        ]

    v = col_matrix(k - 1)
    w = col_matrix(k + h - 1)
    # invert v by Gauss-Jordan over the rationals
    aug = [v[i] + [Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    for piv in range(3):
        if aug[piv][piv] == 0:
            for r in range(piv + 1, 3):
                if aug[r][piv] != 0:
                    aug[piv], aug[r] = aug[r], aug[piv]
                    break
        scale = aug[piv][piv]
        aug[piv] = [x / scale for x in aug[piv]]
        for r in range(3):
            if r != piv and aug[r][piv] != 0:
                factor = aug[r][piv]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[piv])]
    vinv = [row[3:] for row in aug]
    prod = [
        [sum(w[i][t] * vinv[t][j] for t in range(3)) for j in range(3)]
        for i in range(3)
    ]
    rows = []
    for row in prod:
        out = []
        for entry in row:
            if entry.denominator != 1:
                raise InputError("inverse-based X matrix is not integral (bug)")
            out.append(int(entry))
        rows.append(tuple(out))
    return XMatrix(tuple(rows))


def _eliminate(x: XMatrix, target: str) -> tuple[int, int, int, int]:
    """Eliminate the other variable from the two quadratic relations.

    Returns the coefficients (A, B, C, D) of A t^3 + B t^2 + C t + D after
    asserting that the degree-4 coefficient cancels exactly.
    """
    X = x
    if target == "beta":
        p = [-X[2, 3], X[3, 3] - X[2, 2], X[3, 2]]
        q = [X[2, 1], -X[3, 1]]
        s = [X[3, 3] - X[1, 1], X[3, 2]]
        t = [X[1, 3], X[1, 2]]
        lead = X[3, 1]
    elif target == "alpha":
        p = [-X[1, 3], X[3, 3] - X[1, 1], X[3, 1]]
        q = [X[1, 2], -X[3, 2]]
        s = [X[3, 3] - X[2, 2], X[3, 1]]
        t = [X[2, 3], X[2, 1]]
        lead = X[3, 2]
    else:
        raise InputError("target must be 'alpha' or 'beta'")
    expr = pol.poly_add(
        pol.poly_scale(pol.poly_mul(p, p), lead),
        pol.poly_sub(
            pol.poly_mul(pol.poly_mul(s, p), q),
            pol.poly_mul(t, pol.poly_mul(q, q)),
        ),
    )
    coeffs = list(expr) + [Fraction(0)] * (5 - len(expr))
    if coeffs[4] != 0:
        raise DegenerateCubic("degree-4 terms failed to cancel (bug)")
    return (int(coeffs[3]), int(coeffs[2]), int(coeffs[1]), int(coeffs[0]))


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
    """Yield (n, M_0 * ... * M_n) cumulatively over the rectangular range;
    column j of the product is the convergent column of index n - j."""
    prod = None
    for n in range(pq.rect_len):
        a = tuple(pq.seqs[j][n] for j in range(pq.m))
        f = factor_matrix(a)
        prod = f if prod is None else mat_mul(prod, f)
        yield n, prod


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


def tildes(cur: Column, prev: Column) -> tuple[int, ...]:
    """Lag-1 products A^(i) C' - A'^(i) C, i = 1..m, of a column and its predecessor."""
    m = len(cur.A)
    return tuple(lag_product(cur, prev, i, m) for i in range(m))


def exceeds_rational_power(a: int, t: int, C: int, delta: Fraction) -> bool:
    """a > t * C^delta over the reals, for t >= 0 and delta = p/q > 0 in lowest terms.

    For odd q, C^delta is the real q-th root of C to the p: |C|^delta, negative when C < 0
    and p is odd.  For even q and C < 0 it is not real, and the inequality fails.  The
    sides are compared by sign first, and by q-th powers of magnitudes only when they
    share one.
    """
    p, q = delta.numerator, delta.denominator
    if C < 0 and q % 2 == 0:
        return False
    power = t**q * abs(C) ** p  # |t * C^delta|^q
    if power == 0:
        return a > 0
    if C > 0 or p % 2 == 0:  # t * C^delta > 0
        return a > 0 and a**q > power
    return a >= 0 or (-a) ** q < power  # t * C^delta < 0


def liouville_first_violation(pq: PartialQuotients, delta: Fraction, upto: int | None = None):
    """The first n >= 1 where a_n^(1) > max_i |tilde_i(n)| C_(n-1)^delta fails over the reals
    (exceeds_rational_power on a table of every column), or None."""
    cols, off = column_table(pq, upto)
    for n in range(1, len(cols) - off):
        t = max(abs(v) for v in tildes(cols[off + n], cols[off + n - 1]))
        if not exceeds_rational_power(pq.seqs[0][n], t, cols[off + n - 1].C, delta):
            return n
    return None


def outward(iv: RationalInterval, bits: int) -> RationalInterval:
    """iv with its endpoints rounded outward to dyadic rationals with denominator 2**bits."""
    scale = 1 << bits
    return RationalInterval(Fraction(math.floor(iv.lo * scale), scale),
                            Fraction(math.ceil(iv.hi * scale), scale))


class FractionPowers:
    """base^e enclosures as a chain of `Fraction` intervals, each product
    rounded outward to bits + 16 dyadic places (reduced by gcd every step)."""

    def __init__(self, field: NumberField, bits: int = 128):
        self._field, self._bits = field, bits
        self._rebuild()

    def _rebuild(self):
        base = self._field.refine_root(Fraction(1, 1 << self._bits))
        self._base = outward(base, self._bits + 16)
        self._powers = [RationalInterval.point(1), self._base]

    def tighten(self):
        self._bits *= 2
        self._rebuild()

    def power(self, e: int) -> RationalInterval:
        while len(self._powers) <= e:
            self._powers.append(outward(self._powers[-1] * self._base, self._bits + 16))
        return self._powers[e]


def _power_sign(powers: FractionPowers, e: int, value: int) -> int:
    """The sign of base^e - value: the chain tightens until base^e's enclosure leaves value,
    or is the point value (only base^0 = 1 is)."""
    for _ in range(8):
        iv = powers.power(e)
        if iv.hi < value or iv.lo > value or iv.is_point:
            return (iv.lo > value) - (iv.hi < value)
        powers.tighten()
    raise NonTerminating(f"reference comparison of root^{e} with {int_to_str(value)}")


def _loglog_below(c: int, d: int, m: int, n: int) -> bool:
    """log log c < K(d, m) n, c = C_(n+1): in integers at n = 1, else by mpmath intervals."""
    if c < 2:
        raise InputError(f"log log C_{n + 1} needs C_{n + 1} >= 2, got C_{n + 1} = {int_to_str(c)}")
    if n == 1:  # log c < ((d+1)^2/d) log(m+1)
        return c**d < (m + 1) ** ((d + 1) ** 2)
    for prec in (128, 256, 512, 1024):
        iv = MPIntervalContext()  # a context of its own: mpmath.iv's precision is global
        iv.prec = prec
        lhs = iv.log(iv.log(iv.mpf(c)))
        rhs = (iv.log(d + 1) + iv.log(iv.mpf(d + 1) / d) + iv.log(iv.log(m + 1))) * n
        if lhs.b < rhs.a or lhs.a > rhs.b:
            return lhs.b < rhs.a
    raise NonTerminating(f"reference log log C_{n + 1} < K({d}, {m}) * {n}")


def growth_check_by_table(pq: PartialQuotients, upto: int | None = None, d: int | None = None,
                          M: int | None = None) -> CheckReport:
    """`mcf.convergents.growth_check` from the list of every column: psi-lower,
    then the M hypothesis and eta-upper, then the d hypothesis and loglog, each
    in a pass of its own."""
    n_max = pq.last_index(upto)
    rows = list(conv_stream(pq, n_max))
    items = []
    constants: dict = {}

    if pq.m == 2:
        psi = FractionPowers(psi_field())
        constants["psi_enclosure"] = psi.power(1)
        first = None
        boundary = []
        for n in range(n_max + 1):
            if n < 2:
                ok = rows[n].C >= 1  # psi^(n-2) < 1 <= C_n
            else:
                sign = _power_sign(psi, n - 2, rows[n].C)
                if sign == 0:  # C_2 = 1 = psi^0
                    boundary.append(n)
                ok = sign <= 0
            if not ok:
                first = n
                break
        items.append(CheckItem("psi-lower", first,
                               "C_n > psi^(n-2) (boundary equality possible only at n = 2)",
                               tuple(boundary)))

    if M is not None:
        if pq.m != 2:
            raise InputError("the bounded-quotient upper bound is specific to m = 2")
        for n in range(1, n_max + 1):
            if pq.seqs[0][n] > M:
                raise HypothesisViolated(
                    f"a_{n} = {int_to_str(pq.seqs[0][n])} > M = {int_to_str(M)}", n)
        eta = FractionPowers(eta_field(M))
        constants["eta_enclosure"] = eta.power(1)
        first = None
        for n in range(n_max + 1):
            if _power_sign(eta, n, rows[n].C) < 0:
                first = n
                break
        items.append(CheckItem("eta-upper", first, f"C_n <= eta({int_to_str(M)})^n"))

    if d is not None:
        if d < 1:
            raise InputError("d must be >= 1")
        for n in range(1, n_max):
            if not pq.seqs[0][n + 1] < rows[n].C ** d:
                raise HypothesisViolated(
                    f"a_{n + 1}^(1) = {int_to_str(pq.seqs[0][n + 1])} >= C_{n}^{int_to_str(d)}",
                    n + 1)
        constants["K"] = k_interval(d, pq.m)
        first = None
        for n in range(1, n_max):
            if not _loglog_below(rows[n + 1].C, d, pq.m, n):
                first = n
                break
        items.append(CheckItem(
            "loglog", first,
            f"log log C_(n+1) < K({int_to_str(d)}, {pq.m}) n "
            + ("for" if n_max >= 2 else "unchecked: no index n with") + f" 1 <= n <= {n_max - 1}"))

    return CheckReport(tuple(items), {"constants": constants})


def floor_exact(x) -> int:
    """Certified floor of a RealValue (or anything as_real accepts)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return math.floor(x.value)
    if isinstance(x, AlgebraicValue):
        return x.element.floor()
    return certify("oracle floor", lambda level: x.oracle.enclosure(level).floor_certified(),
                   query_levels(x))


class UndecidableForOracle(MCFError):
    """Exact predicate (integrality, equality) asked of an oracle-backed value."""


def is_integer(x) -> bool:
    """Exact integrality test; rejected for oracles (undecidable)."""
    x = as_real(x)
    if isinstance(x, RationalValue):
        return x.value.denominator == 1
    if isinstance(x, AlgebraicValue):
        el = x.element
        if not el.is_rational():
            return False
        return as_fraction(el).denominator == 1
    raise UndecidableForOracle("integrality of an oracle-backed value is undecidable")


def proportional(num: list[int], den: list[int]) -> tuple[int, int] | None:
    """(p, q) with num = (p / q) den when the rows are proportional, else None; every entry checked."""
    i = next(i for i, c in enumerate(den) if c)
    p, q = num[i], den[i]
    return (p, q) if all(x * q == y * p for x, y in zip(num, den)) else None


def convergents_stdout(pq: PartialQuotients, depth: int, emit: str) -> str:
    """What `mcf convergents --depth depth --emit emit` prints for pq (call with the
    int digit cap lifted): conv_stream's int columns and, for m = 2, the AUX_M2
    lag products by lag_product on the column table."""
    aux = AUX_M2 if pq.m == 2 else ()
    cols, off = column_table(pq, depth)
    lines = []
    if emit == "csv":
        lines.append(",".join(["n", *(f"A{i + 1}" for i in range(pq.m)), "C", *(row[0] for row in aux)]))
    for col in cols[off:]:
        values = [str(lag_product(col, cols[col.n + off - lag], i, j)) for _, i, j, lag in aux]
        if emit == "csv":
            lines.append(",".join([str(col.n), *map(str, col.A), str(col.C), *values]))
        else:
            payload = {"n": col.n, "A": [str(v) for v in col.A], "C": str(col.C)}
            if aux:
                payload["aux"] = {row[0]: v for row, v in zip(aux, values)}
            lines.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def simplest_in_interval(lo, hi) -> Fraction:
    """The fraction of smallest denominator in the closed interval [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in_interval(-hi, -lo)
    n = math.ceil(lo)
    if n <= hi:
        return Fraction(n)
    a = math.floor(lo)
    inner = simplest_in_interval(1 / (hi - a), 1 / (lo - a))
    return a + 1 / inner


def as_fraction(el) -> Fraction:
    """A field element's value as an exact rational; InputError when it is irrational."""
    root = el.field.exact_root()
    if root is not None:
        return pol.poly_eval(el.coords, root)
    if not el.is_rational():
        raise InputError("element is not rational")
    return el.coords[0]


def zero(field: NumberField):
    return field.element([0])


class FunctionOracle(IntervalOracle):
    """Wrap a user callable level -> RationalInterval; nesting is enforced."""

    def __init__(self, fn):
        super().__init__()
        self._fn = fn

    def _compute(self, level: int) -> RationalInterval:
        iv = self._fn(level)
        if not isinstance(iv, RationalInterval):
            raise InputError("oracle callable must return a RationalInterval")
        return iv


def seq_rule(values, then: int | None = None):
    """mcf.liouville.seq_rule, continued by the constant `then` past its values."""
    head = mcf_seq_rule(values)
    return head if then is None else (lambda n: head(n) if n < len(values) else then)


def verify_quasiperiodic(pq: PartialQuotients, schedule) -> CriterionReport:
    """Independent re-scan of the repetition law a^(j)_(i+r_k) = a^(j)_i over
    every scheduled range (restricted to the built depth)."""
    first = None
    checked = 0
    depth = pq.rect_len
    for n_k, r_k, lam_k in schedule:
        end = min(n_k + (lam_k - 1) * r_k, max(n_k, depth - r_k))
        for i in range(n_k, end):
            if i + r_k >= depth:
                break
            checked += 1
            if any(pq.seqs[j][i + r_k] != pq.seqs[j][i] for j in range(pq.m)):
                first = i
                break
        if first is not None:
            break
    checks = (
        CheckItem(
            "repetition-law",
            first,
            f"a_(i+r_k) = a_i over scheduled ranges ({checked} positions checked)",
        ),
    )
    return CriterionReport(
        criterion="quasi-periodic-structure", depth=depth - 1, hypotheses=checks
    )


def same_field_check(spec1: PeriodicSpec, spec2: PeriodicSpec) -> bool:
    """Verify that two specs sharing their period blocks generate the same cubic field.

    Solves the shared purely periodic tail once (field Q(tau)), maps each
    spec's limits through the exact fractional-linear expressions in the
    tail pair, and checks that each spec's independently recovered cubic
    annihilates the mapped element exactly.
    """
    if spec1.per_a != spec2.per_a or spec1.per_b != spec2.per_b:
        raise InputError("specs do not share identical period blocks")
    pure = PeriodicSpec((), (), spec1.per_a, spec1.per_b)
    cert_tail = solve_periodic(pure)
    tau_alpha = cert_tail.alpha.element
    tau_beta = cert_tail.beta.element
    fld = tau_alpha.field

    for spec in (spec1, spec2):
        # the columns of indices k-1, k-2, k-3 are the window after the k pre-period steps
        state = ConvergentState.initial(2)
        for a in zip(spec.pre_a, spec.pre_b):
            state.step(a)
        c1, c2, c3 = ([fld.element([v]) for v in col] for col in state.window)
        a_num, b_num, den = (c1[i] * tau_alpha + c2[i] * tau_beta + c3[i] for i in range(3))
        if den.is_zero():
            return False
        cert = solve_periodic(spec)  # its cubics have no rational root, or it raised
        for poly, num in ((cert.poly_alpha, a_num), (cert.poly_beta, b_num)):
            if not pol.poly_eval(poly, num / den).is_zero():
                return False
    return True
