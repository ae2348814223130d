"""The dependency-free core: quotient containers, admissibility, and the
convergent recurrence with its lag products, in any exact number type (ints,
or integral Decimals under radix.EXACT).  The convergent numerators and common
denominator of the partial quotients a_n^(1..m) satisfy

    A_n^(i) = sum_j a_n^(j) A_{n-j}^(i) + A_{n-m-1}^(i),
    C_n     = sum_j a_n^(j) C_{n-j}   + C_{n-m-1},

with A_{-n}^(i) = delta_{in} (n = 1..m+1), C_{-m-1} = 1 and C_{-n} = 0 for
n = 1..m: the columns of the product of the step matrices.  Only mcf.errors
and mcf.radix are imported, so `convergents`, `verify admissible` and
`construct`/`verify liouville` execute no field, engine or checker code.
"""

from __future__ import annotations

import operator
from collections import deque

from .errors import InputError
from .radix import Record, int_to_str


# ---------------------------------------------------------------------------
# Partial quotients and admissibility
# ---------------------------------------------------------------------------


class QuotientRows(Record):
    """m sequences a^(1), ..., a^(m) of exact integers as given (ints, or integral Decimals
    under radix.EXACT); lengths may differ after interruptions."""

    __slots__ = ("m", "seqs")

    def __init__(self, m: int, seqs: tuple):
        if m < 1:
            raise InputError("dimension m must be >= 1")
        if len(seqs) != m:
            raise InputError(f"expected {int_to_str(m)} sequences, got {len(seqs)}")
        self._init(m, seqs)

    def entry(self, dim: int, n: int) -> int | None:
        """Quotient a_n^(dim), 1-based dim, or None past the end of that sequence."""
        s = self.seqs[dim - 1]
        return s[n] if 0 <= n < len(s) else None

    @property
    def rect_len(self) -> int:
        """Number of indices at which all m sequences are defined."""
        return min(len(s) for s in self.seqs)

    def last_index(self, upto: int | None = None) -> int:
        """The last index a check covers: upto (>= 0), clipped to the rectangular range."""
        if upto is not None and upto < 0:
            raise InputError(f"depth must be >= 0, got {int_to_str(upto)}")
        return self.rect_len - 1 if upto is None else min(upto, self.rect_len - 1)

    @property
    def is_rectangular(self) -> bool:
        return len({len(s) for s in self.seqs}) == 1


def int_entries(seq, name: str, size: int | None = None) -> tuple[int, ...]:
    """seq by operator.index, so nothing is truncated or parsed: a float, a string or a
    bool raises InputError naming the sequence and the index, as does a length other than size."""
    seq = tuple(seq)
    if size is not None and len(seq) != size:
        raise InputError(f"{name} needs {size} entries, got {len(seq)}")
    for n, v in enumerate(seq):
        if isinstance(v, bool) or not hasattr(type(v), "__index__"):
            raise InputError(f"entry {n} of {name} must be an integer, got {type(v).__name__}")
    return tuple(map(operator.index, seq))


class PartialQuotients(QuotientRows):
    """m int sequences a^(1), ..., a^(m): QuotientRows whose entries pass int_entries."""

    __slots__ = ()

    def __init__(self, m: int, seqs: tuple):
        super().__init__(m, seqs)
        object.__setattr__(self, "seqs", tuple(int_entries(s, f"a^({j})") for j, s in enumerate(seqs, 1)))

    @staticmethod
    def from_lists(*seqs) -> "PartialQuotients":
        return PartialQuotients(len(seqs), tuple(tuple(s) for s in seqs))


class Violation(Record):
    __slots__ = ("index", "dim", "rule", "message")

    def __init__(self, index: int, dim: int | None, rule: str, message: str):
        self._init(index, dim, rule, message)


class AdmissibilityReport(Record):
    __slots__ = ("m", "violations")

    def __init__(self, m: int, violations: tuple[Violation, ...]):
        self._init(m, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_admissible(pq: QuotientRows) -> AdmissibilityReport:
    """Validate the Perron admissibility conditions for n >= 1.

    For every n >= 1: all entries are >= 0 and the leading quotient a_n^(1)
    is >= 1.  For each index n and coordinate i in 2..d(n) (d(n) = number of
    sequences still running at n), the comparison chain

        a_{n+t}^(i+t) <= a_{n+t}^(1+t),   t = 0, 1, ...

    must not fail; when the chain ties up to the step whose trailing active
    coordinate is reached, the entry after it must be >= 1.  For a
    rectangular m-dimensional prefix this is the standard lexicographic
    family (for m = 2: a_n >= b_n, and b_{n+1} >= 1 whenever a_n = b_n).
    Across an interruption the dimension shrinks and any chain that would
    propagate through the dropped coordinate's fractional part is void,
    since the algorithm never divides by it.  Index 0 is unconstrained,
    references past a sequence end are skipped, and an empty report
    certifies realizability by some real input.
    """
    m = pq.m
    found: dict[tuple[int, int | None, str], Violation] = {}

    def add(index: int, dim: int | None, rule: str, message: str) -> None:
        key = (index, dim, rule)
        if key not in found:
            found[key] = Violation(index, dim, rule, message)

    max_len = max(len(s) for s in pq.seqs)

    def active(n: int) -> int:
        return sum(1 for s in pq.seqs if n < len(s))

    for n in range(1, max_len):
        for j in range(1, m + 1):
            e = pq.entry(j, n)
            if e is not None and e < 0:
                add(n, j, "negative-entry", f"a_{n}^({j}) = {int_to_str(e)} < 0")
        head = pq.entry(1, n)
        if head is not None and head < 1:
            add(n, 1, "head-not-positive", f"a_{n}^(1) = {int_to_str(head)} < 1")
        for i in range(2, active(n) + 1):
            p, q, k = i, 1, n
            while True:
                left = pq.entry(p, k)
                right = pq.entry(q, k)
                if left is None or right is None or p > active(k):
                    break
                if left > right:
                    add(
                        k,
                        p,
                        "lex-order",
                        f"a_{k}^({p}) = {int_to_str(left)} > a_{k}^({q}) = {int_to_str(right)}"
                        f" (chain started at index {n}, coordinate {i})",
                    )
                    break
                if left < right:
                    break
                # tie: propagate through the step k -> k+1, whose active
                # trailing coordinate is r; a pair beyond r is unconstrained
                r = active(k + 1)
                if r == 0 or p > r:
                    break
                if p == r:
                    term = pq.entry(q + 1, k + 1)
                    if term is not None and term < 1:
                        add(
                            k + 1,
                            q + 1,
                            "lex-terminal",
                            f"a_{k+1}^({q+1}) = {int_to_str(term)} < 1 after an all-tied chain"
                            f" from index {n}, coordinate {i}",
                        )
                    break
                p, q, k = p + 1, q + 1, k + 1
    violations = tuple(sorted(found.values(), key=lambda v: (v.index, v.dim or 0, v.rule)))
    return AdmissibilityReport(m=m, violations=violations)


class CheckItem(Record):
    """One named bound or hypothesis checked over an index range; it holds
    when no index violates it."""

    __slots__ = ("name", "first_violation", "detail", "boundary_indices")

    def __init__(self, name: str, first_violation: int | None, detail: str,
                 boundary_indices: tuple[int, ...] = ()):
        self._init(name, first_violation, detail, boundary_indices)

    @property
    def ok(self) -> bool:
        return self.first_violation is None


# ---------------------------------------------------------------------------
# The convergent stream and its lag products (the auxiliary or "tilde" sequences)
# ---------------------------------------------------------------------------


class Column(Record):
    """Convergent column of index n: numerators A^(1..m) and denominator C."""

    __slots__ = ("n", "A", "C")

    def __init__(self, n: int, A: tuple[int, ...], C: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)


class ConvergentState:
    """Rolling window of the coordinate vectors (A^(1), ..., A^(m), C) of the
    last m+1 convergent columns."""

    __slots__ = ("m", "window", "n")

    def __init__(self, m: int, window, n: int):
        self.m = m
        self.window = deque(window, maxlen=m + 1)
        self.n = n

    @classmethod
    def initial(cls, m: int, coords=None) -> "ConvergentState":
        # window[j-1] holds index n-j at `coords` (default all: A^(1..m), C); at n=0 the identity
        return cls(m, [tuple(int(i == j) for i in coords or range(m + 1)) for j in range(m + 1)], 0)

    def advance(self, a) -> tuple:
        """The vector of index n from a_n^(1..m), pushed on the window; any exact number type."""
        m, w = self.m, self.window
        if len(a) != m:
            raise InputError(f"step needs {m} quotients, got {len(a)}")
        vec = []
        for k in range(len(w[m])):
            acc = w[m][k]
            for q, x in zip(a, w):
                acc += q * x[k]
            vec.append(acc)
        vec = tuple(vec)
        w.appendleft(vec)
        self.n += 1
        return vec

    def step(self, a: tuple[int, ...]) -> Column:
        """The Column of index n from the int quotients a_n^(1..m)."""
        *A, C = self.advance(a)
        return Column(self.n - 1, tuple(A), C)


def conv_stream(pq: PartialQuotients, upto: int | None = None, coords=None):
    """Yield the Column of each index n = 0..upto (rectangular range only); with coords
    (ConvergentState.initial's, C last), its A holds only those numerators: (m,) walks C alone."""
    limit = pq.rect_len if upto is None else min(upto + 1, pq.rect_len)
    state = ConvergentState.initial(pq.m, coords)
    for n in range(limit):
        yield state.step(tuple(pq.seqs[j][n] for j in range(pq.m)))


class LagProducts:
    """Rolling lag products L_l(n) = x_i y_j - y_i x_j, x = col_n and y = col_(n-l)
    over the coordinates (A^(1), ..., A^(m), C), l = 1..m, of chosen coordinate
    pairs (i, j): the 2x2 minors of W_n = [col_n | ... | col_(n-m)].

    W_(n+1) = W_n S(a_(n+1)), where S has first column (a^(1), ..., a^(m), 1)
    and shifts the rest, so by Cauchy-Binet each minor at n+1 combines minors
    at n with coefficients 0, +-1 or one quotient (small x big products only):

        L_q(n+1) = sum_(k<q) a^(k) L_(q-k)(n+1-k) - sum_(k>q) a^(k) L_(k-q)(n+1-q)
                   - L_(m+1-q)(n+1-q).

    W_(-1), of the negative-index columns, is the identity.  L_1(n+1) does not
    involve a_(n+1)^(1) (peek_lag1).
    """

    __slots__ = ("m", "pairs", "_history", "_terms")

    def __init__(self, m: int, pairs):
        self.m, self.pairs = m, tuple(pairs)
        # _history[p][i, j][l - 1] is L_l(n - p), p = 0..m-1; at n = -1, minors of the identity
        self._history = deque(({(i, j): tuple(((i, j) == (p, p + l)) - ((j, i) == (p, p + l))
                                              for l in range(1, m + 1)) for i, j in self.pairs}
                               for p in range(m)), maxlen=m)
        # per lag q, the formula's terms as (quotient index, history slot, lag index):
        # those added, those subtracted, and the (slot, lag index) of the quotient-free one
        self._terms = tuple((tuple((k - 1, k - 1, q - k - 1) for k in range(1, q)),
                             tuple((k - 1, q - 1, k - q - 1) for k in range(q + 1, m + 1)),
                             (q - 1, m - q))
                            for q in range(1, m + 1))

    def _lags(self, a, pair, terms) -> tuple:
        rows = [held[pair] for held in self._history]
        out = []
        for added, subtracted, (slot, lag) in terms:
            acc = -rows[slot][lag]
            for k, p, l in added:
                acc += a[k] * rows[p][l]
            for k, p, l in subtracted:
                acc -= a[k] * rows[p][l]
            out.append(acc)
        return tuple(out)

    def peek_lag1(self, tail) -> dict:
        """L_1(n+1) of each pair from a_(n+1)^(2..m) alone, before a_(n+1)^(1) is chosen."""
        a, lag1 = (0, *tail), self._terms[:1]
        return {pair: self._lags(a, pair, lag1)[0] for pair in self.pairs}

    def step(self, a) -> dict:
        """(L_1, ..., L_m)(n+1) of each pair, from the quotients a_(n+1)^(1..m)."""
        lags = {pair: self._lags(a, pair, self._terms) for pair in self.pairs}
        self._history.appendleft(lags)
        return lags


def lag_stream(pq: PartialQuotients, pairs, upto: int | None = None):
    """Yield (Column, lags) for n = 0..upto (rectangular range only), where
    lags[i, j][l - 1] is the lag-l product of coordinates (i, j) at n."""
    lags = LagProducts(pq.m, pairs)
    for col in conv_stream(pq, upto):
        yield col, lags.step(tuple(pq.seqs[j][col.n] for j in range(pq.m)))
